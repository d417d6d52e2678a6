//! `ingest_hot_path` — the hottest loops in the system, measured:
//!
//! 1. **Ingestion kernel** (mem regime): tuples/sec through the
//!    validated-once batched `HistAccumulator::accumulate` kernel versus
//!    the per-tuple `accumulate_one` path, over realistic block-sized
//!    batches with clear-and-reuse cycles (the shard-worker access
//!    pattern).
//! 2. **Per-block ingest by histogram width**: ns/tuple to get one
//!    150-tuple block into a `HistSim` past stage 1 (§5.2's parameters,
//!    stage 1 fed the first 1 % of the codes, as the executors spend
//!    nearly all their blocks in stages 2 and 3), through
//!    - the fused `HistSim::ingest_block` kernel — `Scan`'s two
//!      increments per tuple, the cell's weighted by the candidate's 0/1
//!      weight — settled after every block (what `ScanMatch` and
//!      `SyncMatch` do) and every 16 blocks (what `FastMatch` does
//!      between publications); each settlement walks the candidates
//!      with demand and asks the engine's consumption check (rows read
//!      against the index's row count) about each;
//!    - the service's quantum: 64 blocks' codes copied block by block
//!      into a reused buffer, then one `ingest_block` over the buffer
//!      and one settlement (`fused_quantum_64`);
//!    - `accumulate`, `merge_ref` and `clear`, merged and settled every
//!      1, 16 and 64 blocks (the path the service took before it handed
//!      the engine its codes; the repo benchmark's walker still does);
//!    - and, as the control, `Scan`'s own loop over the same blocks
//!      (`cells[z·|V_X| + x] += 1; totals[z] += 1` on plain slices), so
//!      the fused column reads as a multiple of a scanned tuple's cost
//!      measured in the same run;
//!
//!    × uniform group codes at |V_X| ∈ {2, 7, 24, 64, 351}. Candidate
//!    codes come from a cubed uniform over |V_Z| ∈ {347, 7 641}
//!    (FLIGHTS' and TAXI's cardinalities) and from the candidate columns
//!    of synthetic FLIGHTS (`Origin`) and TAXI (`Location`); each row
//!    reports the distinct candidates a merge touches ÷ |V_Z| at each
//!    cadence, the property that decides what a merge and a clear move.
//!
//! Emits a machine-readable summary to `BENCH_ingest.json` (current
//! working directory) so CI can archive the perf trajectory.
//!
//! Scale knobs: `FASTMATCH_KERNEL_TUPLES` (default 2,000,000),
//! `FASTMATCH_SEED` (default 42).

use std::time::{Duration, Instant};

use fastmatch_bench::report::render_table;
use fastmatch_core::histsim::{HistAccumulator, HistSim, HistSimConfig};
use fastmatch_data::datasets;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Best-of-N wall clock for one closure.
fn best_of<F: FnMut()>(reps: usize, mut f: F) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed());
    }
    best
}

/// Best-of-N wall clock for `f` run on a fresh clone of `start` (the
/// clone is not timed).
fn best_from<S: Clone, F: FnMut(&mut S)>(reps: usize, start: &S, mut f: F) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let mut state = start.clone();
        let t0 = Instant::now();
        f(&mut state);
        best = best.min(t0.elapsed());
    }
    best
}

/// A 31-bit LCG stream, deterministic in the seed.
fn lcg(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    }
}

fn tuples_per_sec(tuples: u64, wall: Duration) -> f64 {
    tuples as f64 / wall.as_secs_f64()
}

// ------------------------------------------------------------- kernel part

struct KernelResult {
    tuples: u64,
    per_tuple: f64,
    batch: f64,
}

/// The shard-quantum pattern: accumulate block-sized batches, clear every
/// `BATCH_BLOCKS` blocks (one merge's worth).
fn bench_kernel(total_tuples: usize, seed: u64) -> KernelResult {
    const NC: usize = 64;
    const NG: usize = 8;
    const TPB: usize = 150; // the paper's block size
    const BATCH_BLOCKS: usize = 32; // kept at 32 so the figure stays comparable across runs

    // Synthetic uniform codes, deterministic in the seed.
    let mut next = lcg(seed);
    let zs: Vec<u32> = (0..total_tuples)
        .map(|_| (next() % NC as u64) as u32)
        .collect();
    let xs: Vec<u32> = (0..total_tuples)
        .map(|_| (next() % NG as u64) as u32)
        .collect();

    let mut acc = HistAccumulator::new(NC, NG);
    let mut sink = 0u64;

    let wall_per_tuple = best_of(3, || {
        for (bi, (zb, xb)) in zs.chunks(TPB).zip(xs.chunks(TPB)).enumerate() {
            for (&c, &g) in zb.iter().zip(xb) {
                acc.accumulate_one(c, g);
            }
            if (bi + 1) % BATCH_BLOCKS == 0 {
                sink = sink.wrapping_add(acc.tuples());
                acc.clear();
            }
        }
        sink = sink.wrapping_add(acc.tuples());
        acc.clear();
    });

    let wall_batch = best_of(3, || {
        for (bi, (zb, xb)) in zs.chunks(TPB).zip(xs.chunks(TPB)).enumerate() {
            acc.accumulate(zb, xb);
            if (bi + 1) % BATCH_BLOCKS == 0 {
                sink = sink.wrapping_add(acc.tuples());
                acc.clear();
            }
        }
        sink = sink.wrapping_add(acc.tuples());
        acc.clear();
    });
    assert!(sink > 0, "kernel work must not be optimized away");

    KernelResult {
        tuples: total_tuples as u64,
        per_tuple: tuples_per_sec(total_tuples as u64, wall_per_tuple),
        batch: tuples_per_sec(total_tuples as u64, wall_batch),
    }
}

// -------------------------------------------------------- block-ingest part

/// Per-block ingest cost at one domain.
struct WidthResult {
    /// Where the candidate codes come from.
    codes: &'static str,
    candidates: usize,
    groups: usize,
    settle_every_block_ns_per_tuple: f64,
    settle_every_16_ns_per_tuple: f64,
    /// `Scan`'s two-increment loop over the same blocks.
    scan_ns_per_tuple: f64,
    /// Median over `PAIRS` of the settled-every-16 pass's time ÷ the
    /// control's, each pair timed back to back.
    fused_over_scan: f64,
    /// A service quantum: `QUANTUM` blocks copied, one `ingest_block`,
    /// one settlement.
    quantum_ns_per_tuple: f64,
    /// Median over `PAIRS` of the quantum pass's time ÷ the control's,
    /// timed in the same rounds as `fused_over_scan`.
    quantum_over_scan: f64,
    /// `accumulate` + `merge_ref` + `clear`, one entry per `MERGE_EVERY`.
    merge_ns_per_tuple: [f64; 3],
    /// Mean distinct candidates per merge ÷ |V_Z|, per `MERGE_EVERY`.
    touched_frac: [f64; 3],
}

/// Blocks per settlement on the batched row: `FastMatch`'s
/// `SETTLE_EVERY`.
const SETTLE_EVERY: usize = 16;

/// Blocks per merge on the accumulator rows: every block, `FastMatch`'s
/// cadence, and a default service quantum.
const MERGE_EVERY: [usize; 3] = [1, 16, 64];

/// Blocks per ingestion on the quantum row: a default service quantum.
const QUANTUM: usize = 64;

/// Repetitions per by-width figure (the best one is kept).
const REPS: usize = 5;

/// Back-to-back rounds of the settled-every-16 pass, the quantum pass
/// and the `Scan` control per by-width row; each ratio to the control is
/// read as the median round's.
const PAIRS: usize = 7;

/// One 150-tuple block at a time into a `HistSim` past stage 1, against
/// the Table 3 histogram widths and 64. Candidate codes are a cubed
/// uniform (skewed, yet a 64-block merge touches nearly every
/// candidate), the `Origin` column of synthetic FLIGHTS (16 hubs carry
/// 62 % of the rows) and the `Location` column of synthetic TAXI.
fn bench_block_ingest(total_tuples: usize, seed: u64) -> Vec<WidthResult> {
    const TPB: usize = 150;
    let mut next = lcg(seed);
    let mut out = Vec::new();
    let mut columns: Vec<(&'static str, usize, Vec<u32>)> = [347usize, 7_641]
        .map(|nc| {
            let zs = (0..total_tuples)
                .map(|_| {
                    let u = (next() % 1_000_000) as f64 / 1e6;
                    (u * u * u * nc as f64) as u32
                })
                .collect();
            ("cubed uniform", nc, zs)
        })
        .into();
    for (table, z_name, codes) in [
        (
            datasets::flights(total_tuples, seed),
            "Origin",
            "FLIGHTS Origin",
        ),
        (
            datasets::taxi(total_tuples, seed),
            "Location",
            "TAXI Location",
        ),
    ] {
        let z = table.schema().index_of(z_name).expect("dataset attribute");
        let nc = table.schema().attr(z).cardinality as usize;
        columns.push((codes, nc, table.column(z).to_vec()));
    }
    // The engine's consumption check, against an index that counts
    // every candidate's rows as unlimited.
    let unread = |_: u32, read: u64| u64::MAX - read;
    for (codes, nc, zs) in &columns {
        let (nc, zs) = (*nc, zs.as_slice());
        for ng in [2usize, 7, 24, 64, 351] {
            let xs: Vec<u32> = (0..total_tuples)
                .map(|_| (next() % ng as u64) as u32)
                .collect();
            let stage1 = (total_tuples / 100).max(1);
            let cfg = HistSimConfig {
                stage1_samples: stage1 as u64,
                ..HistSimConfig::default()
            };
            let mut staged =
                HistSim::new(cfg, nc, ng, total_tuples as u64, &vec![1.0; ng]).unwrap();
            staged.ingest_block(&zs[..stage1], &xs[..stage1]);
            staged.settle(unread);
            staged.complete_io_phase(false).unwrap();

            let fused_pass = |hs: &mut HistSim, every: usize| {
                for (i, (zb, xb)) in zs.chunks(TPB).zip(xs.chunks(TPB)).enumerate() {
                    hs.ingest_block(zb, xb);
                    if (i + 1) % every == 0 {
                        hs.settle(unread);
                    }
                }
                hs.settle(unread);
                assert!(hs.samples() > 0, "ingest work must not be optimized away");
            };
            let every_block = best_from(REPS, &staged, |hs| fused_pass(hs, 1));
            // What a service worker does with a quantum: copy each block's
            // codes into its reused buffer, then hand the engine the whole
            // buffer at once, then settle.
            let (mut zbuf, mut xbuf) = (Vec::new(), Vec::new());
            let mut quantum_pass = |hs: &mut HistSim| {
                let quanta = zs.chunks(TPB * QUANTUM).zip(xs.chunks(TPB * QUANTUM));
                for (zq, xq) in quanta {
                    zbuf.clear();
                    xbuf.clear();
                    for (zb, xb) in zq.chunks(TPB).zip(xq.chunks(TPB)) {
                        zbuf.extend_from_slice(zb);
                        xbuf.extend_from_slice(xb);
                    }
                    hs.ingest_block(&zbuf, &xbuf);
                    hs.settle(unread);
                }
                assert!(hs.samples() > 0, "ingest work must not be optimized away");
            };
            let mut acc = HistAccumulator::new(nc, ng);
            let mut merged = |every: usize| {
                let (mut merges, mut touched) = (0u64, 0u64);
                let mut merge = |hs: &mut HistSim, acc: &mut HistAccumulator| {
                    hs.merge_ref(acc);
                    hs.settle(unread);
                    merges += 1;
                    touched += acc.touched().len() as u64;
                    acc.clear();
                };
                let wall = best_from(REPS, &staged, |hs| {
                    for (i, (zb, xb)) in zs.chunks(TPB).zip(xs.chunks(TPB)).enumerate() {
                        acc.accumulate(zb, xb);
                        if (i + 1) % every == 0 {
                            merge(hs, &mut acc);
                        }
                    }
                    merge(hs, &mut acc);
                });
                (wall, touched as f64 / merges as f64 / nc as f64)
            };
            let merges = MERGE_EVERY.map(&mut merged);
            // The control, `ScanExec`'s visitor on plain slices, timed in
            // turn with the settled-every-16 fused pass, so that each
            // pair of passes sees the same machine.
            let (mut counts, mut totals) = (vec![0u64; nc * ng], vec![0u64; nc]);
            let (cells, sums) = (counts.as_mut_slice(), totals.as_mut_slice());
            let (mut every_16, mut quantum, mut scan) =
                (Duration::MAX, Duration::MAX, Duration::MAX);
            let (mut ratios, mut quantum_ratios) = (Vec::new(), Vec::new());
            for _ in 0..PAIRS {
                let fused = best_from(1, &staged, |hs| fused_pass(hs, SETTLE_EVERY));
                let one_call = best_from(1, &staged, &mut quantum_pass);
                let control = best_of(1, || {
                    for (zb, xb) in zs.chunks(TPB).zip(xs.chunks(TPB)) {
                        for (&zc, &xc) in zb.iter().zip(xb) {
                            cells[zc as usize * ng + xc as usize] += 1;
                            sums[zc as usize] += 1;
                        }
                    }
                });
                (every_16, scan) = (every_16.min(fused), scan.min(control));
                quantum = quantum.min(one_call);
                ratios.push(fused.as_secs_f64() / control.as_secs_f64());
                quantum_ratios.push(one_call.as_secs_f64() / control.as_secs_f64());
            }
            ratios.sort_by(f64::total_cmp);
            quantum_ratios.sort_by(f64::total_cmp);
            assert!(
                totals.iter().sum::<u64>() > 0,
                "scan work must not be optimized away"
            );
            let per_tuple = |wall: Duration| wall.as_secs_f64() * 1e9 / total_tuples as f64;
            out.push(WidthResult {
                codes,
                candidates: nc,
                groups: ng,
                settle_every_block_ns_per_tuple: per_tuple(every_block),
                settle_every_16_ns_per_tuple: per_tuple(every_16),
                scan_ns_per_tuple: per_tuple(scan),
                fused_over_scan: ratios[PAIRS / 2],
                quantum_ns_per_tuple: per_tuple(quantum),
                quantum_over_scan: quantum_ratios[PAIRS / 2],
                merge_ns_per_tuple: merges.map(|(wall, _)| per_tuple(wall)),
                touched_frac: merges.map(|(_, frac)| frac),
            });
        }
    }
    out
}

// --------------------------------------------------------------------- main

fn main() {
    let kernel_tuples = env_usize("FASTMATCH_KERNEL_TUPLES", 2_000_000).max(10_000);
    let seed = env_usize("FASTMATCH_SEED", 42) as u64;

    println!("== ingest_hot_path: batched kernel + per-block ingest by width ==\n");
    println!(
        "# host parallelism: {} core(s); kernel {} tuples\n",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        kernel_tuples,
    );

    let k = bench_kernel(kernel_tuples, seed);
    println!(
        "{}",
        render_table(
            &["ingestion kernel (mem)", "tuples/sec", "speedup"],
            &[
                vec![
                    "per-tuple accumulate_one".into(),
                    format!("{:.0}", k.per_tuple),
                    "1.00x".into(),
                ],
                vec![
                    "batched accumulate".into(),
                    format!("{:.0}", k.batch),
                    format!("{:.2}x", k.batch / k.per_tuple),
                ],
            ],
        )
    );

    let widths = bench_block_ingest(kernel_tuples, seed);
    println!(
        "{}",
        render_table(
            &[
                "150-tuple block into HistSim",
                "candidate codes",
                "ingest_block, settle every block ns/tuple",
                "ingest_block, settle every 16 blocks ns/tuple",
                "Scan's loop (control) ns/tuple",
                "every 16 ÷ Scan (median round)",
                "one ingest_block + settle per 64-block quantum ns/tuple",
                "quantum ÷ Scan (median round)",
                "accumulate+merge_ref+clear+settle, merge every block ns/tuple",
                "… every 16 blocks ns/tuple",
                "… every 64 blocks ns/tuple",
                "touched ÷ |V_Z| per merge, every 1 / 16 / 64 blocks",
            ],
            &widths
                .iter()
                .map(|w| vec![
                    format!("|V_Z| = {}, |V_X| = {}", w.candidates, w.groups),
                    w.codes.into(),
                    format!("{:.2}", w.settle_every_block_ns_per_tuple),
                    format!("{:.2}", w.settle_every_16_ns_per_tuple),
                    format!("{:.2}", w.scan_ns_per_tuple),
                    format!("{:.2}", w.fused_over_scan),
                    format!("{:.2}", w.quantum_ns_per_tuple),
                    format!("{:.2}", w.quantum_over_scan),
                    format!("{:.2}", w.merge_ns_per_tuple[0]),
                    format!("{:.2}", w.merge_ns_per_tuple[1]),
                    format!("{:.2}", w.merge_ns_per_tuple[2]),
                    w.touched_frac.map(|f| format!("{f:.3}")).join(" / "),
                ])
                .collect::<Vec<_>>(),
        )
    );

    // Machine-readable summary for CI's perf trajectory.
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"ingest_hot_path\",\n",
            "  \"kernel\": {{\n",
            "    \"tuples\": {},\n",
            "    \"per_tuple_tuples_per_sec\": {:.0},\n",
            "    \"batch_tuples_per_sec\": {:.0},\n",
            "    \"batch_speedup\": {:.4}\n",
            "  }},\n",
            "  \"block_ingest_by_width\": [\n{}\n  ]\n",
            "}}\n"
        ),
        k.tuples,
        k.per_tuple,
        k.batch,
        k.batch / k.per_tuple,
        widths
            .iter()
            .map(|w| format!(
                "    {{\"codes\": \"{}\", \"candidates\": {}, \"groups\": {}, \"fused_ns_per_tuple\": {:.3}, \"fused_settle_every_16_ns_per_tuple\": {:.3}, \"scan_control_ns_per_tuple\": {:.3}, \"fused_settle_every_16_over_scan\": {:.4}, \"fused_quantum_64_ns_per_tuple\": {:.3}, \"fused_quantum_64_over_scan\": {:.4}, \"accumulate_merge_clear_ns_per_tuple\": {:.3}, \"accumulate_merge_clear_every_16_ns_per_tuple\": {:.3}, \"accumulate_merge_clear_every_64_ns_per_tuple\": {:.3}, \"touched_frac_per_merge\": [{:.4}, {:.4}, {:.4}]}}",
                w.codes,
                w.candidates,
                w.groups,
                w.settle_every_block_ns_per_tuple,
                w.settle_every_16_ns_per_tuple,
                w.scan_ns_per_tuple,
                w.fused_over_scan,
                w.quantum_ns_per_tuple,
                w.quantum_over_scan,
                w.merge_ns_per_tuple[0],
                w.merge_ns_per_tuple[1],
                w.merge_ns_per_tuple[2],
                w.touched_frac[0],
                w.touched_frac[1],
                w.touched_frac[2]
            ))
            .collect::<Vec<_>>()
            .join(",\n"),
    );
    std::fs::write("BENCH_ingest.json", &json).expect("writing BENCH_ingest.json failed");
    println!("# wrote BENCH_ingest.json");
}
