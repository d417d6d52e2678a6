//! `ingest_hot_path` — the hottest loops in the system, measured:
//!
//! 1. **Ingestion kernel** (mem regime): tuples/sec through the
//!    validated-once batched `HistAccumulator::accumulate` kernel versus
//!    the per-tuple `accumulate_one` path, over realistic block-sized
//!    batches with clear-and-reuse cycles (the shard-worker access
//!    pattern).
//! 2. **Per-block ingest by histogram width**: ns/tuple to get one
//!    150-tuple block into `HistSim`, through the fused
//!    `HistSim::ingest_block` kernel settled after every block and
//!    settled every 16 blocks (what `FastMatch` does between
//!    publications), each settlement fed to a per-candidate row counter
//!    as the engine's consumption tracking is, and through
//!    `accumulate`, `merge_ref` and `clear` (what an outside walker
//!    does), at |V_Z| ∈ {347, 7 641} (FLIGHTS and TAXI) × |V_X| ∈
//!    {2, 24, 351} — the wide-histogram cliff as a layer number of its
//!    own: every row must stay flat in |V_X|.
//!
//! Emits a machine-readable summary to `BENCH_ingest.json` (current
//! working directory) so CI can archive the perf trajectory.
//!
//! Scale knobs: `FASTMATCH_KERNEL_TUPLES` (default 2,000,000),
//! `FASTMATCH_SEED` (default 42).

use std::time::{Duration, Instant};

use fastmatch_bench::report::render_table;
use fastmatch_core::histsim::{HistAccumulator, HistSim, HistSimConfig};

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
    candidates: usize,
    groups: usize,
    settle_every_block_ns_per_tuple: f64,
    settle_every_16_ns_per_tuple: f64,
    merge_ns_per_tuple: f64,
}

/// Blocks per settlement on the batched row: `FastMatch`'s
/// `PUBLISH_EVERY`.
const SETTLE_EVERY: usize = 16;

/// One 150-tuple block at a time into a `HistSim` that stays in stage 1
/// (so every block lands in one matrix and nothing is pruned), against
/// each Table 3 histogram width, with candidate codes skewed (a cubed
/// uniform) over FLIGHTS' 347 and TAXI's 7 641 candidates.
fn bench_block_ingest(total_tuples: usize, seed: u64) -> Vec<WidthResult> {
    const TPB: usize = 150;
    let mut next = lcg(seed);
    let mut out = Vec::new();
    for nc in [347usize, 7_641] {
        for ng in [2usize, 24, 351] {
            let zs: Vec<u32> = (0..total_tuples)
                .map(|_| {
                    let u = (next() % 1_000_000) as f64 / 1e6;
                    (u * u * u * nc as f64) as u32
                })
                .collect();
            let xs: Vec<u32> = (0..total_tuples)
                .map(|_| (next() % ng as u64) as u32)
                .collect();
            let cfg = HistSimConfig {
                stage1_samples: u64::MAX,
                ..HistSimConfig::default()
            };
            let mk = || HistSim::new(cfg.clone(), nc, ng, u64::MAX, &vec![1.0; ng]).unwrap();
            // The engine's consumption tracking: unread rows per
            // candidate, decremented by each settlement.
            let mut rows_left = vec![u64::MAX; nc];

            let mut fused = |every: usize| {
                let mut hs = mk();
                best_of(3, || {
                    for (i, (zb, xb)) in zs.chunks(TPB).zip(xs.chunks(TPB)).enumerate() {
                        hs.ingest_block(zb, xb);
                        if (i + 1) % every == 0 {
                            hs.settle(|c, n| rows_left[c as usize] -= n);
                        }
                    }
                    hs.settle(|c, n| rows_left[c as usize] -= n);
                })
            };
            let every_block = fused(1);
            let every_16 = fused(SETTLE_EVERY);
            let mut hs = mk();
            let mut acc = HistAccumulator::new(nc, ng);
            let merge = best_of(3, || {
                for (zb, xb) in zs.chunks(TPB).zip(xs.chunks(TPB)) {
                    acc.accumulate(zb, xb);
                    hs.merge_ref(&acc);
                    for &c in acc.touched() {
                        rows_left[c as usize] -= acc.n(c as usize);
                    }
                    acc.clear();
                }
            });
            assert!(
                rows_left.iter().any(|&n| n < u64::MAX),
                "ingest work must not be optimized away"
            );
            let per_tuple = |wall: Duration| wall.as_secs_f64() * 1e9 / total_tuples as f64;
            out.push(WidthResult {
                candidates: nc,
                groups: ng,
                settle_every_block_ns_per_tuple: per_tuple(every_block),
                settle_every_16_ns_per_tuple: per_tuple(every_16),
                merge_ns_per_tuple: per_tuple(merge),
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
                "ingest_block, settle every block ns/tuple",
                "ingest_block, settle every 16 blocks ns/tuple",
                "accumulate+merge_ref+clear ns/tuple",
            ],
            &widths
                .iter()
                .map(|w| vec![
                    format!("|V_Z| = {}, |V_X| = {}", w.candidates, w.groups),
                    format!("{:.2}", w.settle_every_block_ns_per_tuple),
                    format!("{:.2}", w.settle_every_16_ns_per_tuple),
                    format!("{:.2}", w.merge_ns_per_tuple),
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
                "    {{\"candidates\": {}, \"groups\": {}, \"fused_ns_per_tuple\": {:.3}, \"fused_settle_every_16_ns_per_tuple\": {:.3}, \"accumulate_merge_clear_ns_per_tuple\": {:.3}}}",
                w.candidates,
                w.groups,
                w.settle_every_block_ns_per_tuple,
                w.settle_every_16_ns_per_tuple,
                w.merge_ns_per_tuple
            ))
            .collect::<Vec<_>>()
            .join(",\n"),
    );
    std::fs::write("BENCH_ingest.json", &json).expect("writing BENCH_ingest.json failed");
    println!("# wrote BENCH_ingest.json");
}
