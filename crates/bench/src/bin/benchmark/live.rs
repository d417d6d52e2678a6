//! `live_mixed`: reads beside writes on one `LiveTable` (WAL on with the
//! default group-fsync interval, background sealer, compaction fan-in 4,
//! segment directory under the benchmark's scratch directory).
//!
//! After a preload, a quiescent phase runs the query loop alone; then an
//! **open-loop** appender sends one batch every `batch / rate` seconds
//! (paced here, not by the table's append budget; each append is timed
//! from when it was *due*, so a stall charges the batches queued behind
//! it) while one closed-loop client runs FastMatch over a fresh
//! `snapshot()` per query. At the end the table is dropped and cold
//! `open`ed: every acknowledged row must come back. A gain for appends
//! that costs snapshot or query latency (or the reverse) shows in one
//! run; seal and compaction spikes land in the tails, not the medians.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use fastmatch_core::histsim::HistSimConfig;
use fastmatch_data::gen::{conditional_with_planted, generate_table, ColumnGen, ColumnSpec};
use fastmatch_data::shapes::uniform;
use fastmatch_data::AppendBatches;
use fastmatch_engine::exec::{Executor, FastMatchExec, ScanExec};
use fastmatch_engine::query::QueryJob;
use fastmatch_store::backend::StorageBackend;
use fastmatch_store::live::{LiveStats, LiveTable, LiveTableConfig};
use fastmatch_store::table::Table;

use crate::fixture::Scratch;
use crate::measure::{
    mean_layer_ns, report_shares, report_walk_layers, run_seed, timed_setup, EndToEnd, WalkCounts,
};
use crate::report::Report;
use crate::summary::median;
use crate::table4::{id_set, SPAN_BUDGET};
use crate::trace::{Layer, Off, Probe, Tracer};
use crate::walker::{walk, Walk};
use crate::{Args, Scale, CORPUS_SEED};

const CANDIDATES: usize = 60;
const GROUPS: usize = 8;
/// Candidates planted at these ℓ1 perturbations of the uniform target;
/// everyone else sits ≥ 0.2 away, so the top-5 is exactly the plants at
/// every watermark.
const PLANTS: [(u32, f64); 5] = [(0, 0.0), (2, 0.015), (5, 0.03), (9, 0.04), (15, 0.05)];
const COMPACTION_FAN_IN: usize = 4;
/// One exact scan per this many approximate queries of the quiescent
/// phase. Scans run there and not beside the appender: over a table that
/// grows fourfold during the run their latency has no stable median.
const SCAN_EVERY: u64 = 4;

fn generate(rows: usize, seed: u64) -> Table {
    let dists = conditional_with_planted(CANDIDATES, &uniform(GROUPS), &PLANTS, 0.20, seed ^ 0xab);
    let specs = vec![
        ColumnSpec::new("z", CANDIDATES as u32, ColumnGen::PrimaryZipf { s: 1.2 }),
        ColumnSpec::new(
            "x",
            GROUPS as u32,
            ColumnGen::Conditional { parent: 0, dists },
        ),
    ];
    generate_table(&specs, rows, seed)
}

/// One HistSim configuration for every watermark: the plants are
/// proportions, so latency differences measure interference and growth,
/// not a moving parameter.
fn query_cfg(preload_rows: usize) -> HistSimConfig {
    HistSimConfig {
        k: PLANTS.len(),
        epsilon: 0.1,
        delta: 0.05,
        sigma: 0.01,
        stage1_samples: (preload_rows as u64 / 10).clamp(10_000, 100_000),
        ..HistSimConfig::default()
    }
}

/// A preloaded live table. `live` is declared before `scratch` so the
/// table (and its sealer and compactor threads) is gone before the
/// directory is removed.
struct Fixture {
    live: LiveTable,
    table: Table,
    config: LiveTableConfig,
    scratch: Scratch,
}

fn build(scale: &Scale) -> Result<Fixture, String> {
    let table = generate(scale.live_preload_rows, CORPUS_SEED);
    let scratch = Scratch::new("live")?;
    let config = LiveTableConfig::default()
        .with_segment_dir(scratch.path())
        .with_compaction(COMPACTION_FAN_IN);
    let live = LiveTable::new(table.schema().clone(), config.clone()).map_err(|e| e.to_string())?;
    for cols in AppendBatches::new(table.clone(), 8_192) {
        live.append_batch(&cols).map_err(|e| e.to_string())?;
    }
    // Let the sealer drain the preload so the quiescent phase is quiet.
    let t0 = Instant::now();
    while live.stats().persisted_segments < live.stats().frozen_segments
        && t0.elapsed() < Duration::from_secs(10)
    {
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(Fixture {
        live,
        table,
        config,
        scratch,
    })
}

/// What the open-loop appender observed.
#[derive(Default)]
struct Appended {
    /// Acknowledged rows.
    rows: u64,
    errors: Vec<String>,
    /// Completion − due time of every batch, µs.
    latency_us: Vec<f64>,
    /// Time inside `append_batch`, summed and maximal.
    busy_ns: u64,
    stall_max_ms: f64,
    /// Batches whose send started more than one interval late.
    late: u64,
}

fn appender(
    live: &LiveTable,
    table: &Table,
    scale: &Scale,
    seed: u64,
    stop: &AtomicBool,
    tracer: &mut Tracer,
) -> Appended {
    let batch = scale.live_batch_rows.min(table.n_rows());
    let interval = Duration::from_secs_f64(batch as f64 / scale.live_rows_per_s as f64);
    let mut out = Appended::default();
    let t0 = Instant::now();
    let mut pos = (seed % (table.n_rows() - batch + 1) as u64) as usize;
    for i in 0u32.. {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        // The feed cycles through the generated rows: the distribution,
        // and so the planted top-k, is the same at every watermark.
        let cols: Vec<Vec<u32>> = (0..table.schema().len())
            .map(|a| table.column(a)[pos..pos + batch].to_vec())
            .collect();
        pos = if pos + 2 * batch <= table.n_rows() {
            pos + batch
        } else {
            0
        };
        let due = t0 + interval * i;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let start = Instant::now();
        let res = live.append_batch(&cols);
        let end = Instant::now();
        tracer.span(Layer::LiveAppend, start, end);
        match res {
            Ok(range) => out.rows += range.end - range.start,
            Err(e) => out.errors.push(e.to_string()),
        }
        let inside = end.duration_since(start);
        out.busy_ns += inside.as_nanos() as u64;
        out.stall_max_ms = out.stall_max_ms.max(inside.as_secs_f64() * 1e3);
        out.latency_us
            .push(end.duration_since(due).as_secs_f64() * 1e6);
        out.late += u64::from(start.duration_since(due) > interval);
    }
    out
}

/// The closed-loop query client's observations over one phase.
#[derive(Default)]
struct Queried {
    query_ms: Vec<f64>,
    scan_ms: Vec<f64>,
    snapshot_us: Vec<f64>,
    job_build_us: Vec<f64>,
    blocks_read: u64,
    blocks_total: u64,
    pinned_peak: u64,
    /// Samples the walks ingested.
    samples: u64,
    counts: WalkCounts,
    /// Walker wall with and without spans (quiescent phase only).
    traced_s: f64,
    untraced_s: f64,
    wall_s: f64,
}

struct Client<'a> {
    live: &'a LiveTable,
    cfg: &'a HistSimConfig,
    target: Vec<f64>,
    seed: u64,
    plants: Vec<u32>,
}

impl Client<'_> {
    /// Untraced: snapshot → job → `FastMatchExec` is one latency; with
    /// `scans`, every [`SCAN_EVERY`]th query is followed by an exact scan
    /// of the same snapshot.
    fn run_untraced(&self, phase: u64, budget: Duration, scans: bool, r: &mut Report) -> Queried {
        let mut q = Queried::default();
        let t0 = Instant::now();
        let mut i = 0u64;
        while t0.elapsed() < budget {
            let t = Instant::now();
            let snap = self.live.snapshot();
            let job = QueryJob::from_snapshot(&snap, 0, 1, self.target.clone(), self.cfg.clone());
            let out = FastMatchExec::default().run(&job, run_seed(self.seed, phase, i as usize));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            match out {
                Ok(out) => {
                    let ok = id_set(out.candidate_ids()) == self.plants;
                    r.check(ok, || format!("query {i}: matched set is not the plants"));
                    if ok {
                        q.query_ms.push(ms);
                    }
                    q.blocks_read += out.stats.io.blocks_read;
                    q.blocks_total += snap.layout().num_blocks() as u64;
                }
                Err(e) => r.check(false, || format!("query {i}: {e}")),
            }
            if scans && i.is_multiple_of(SCAN_EVERY) {
                let t = Instant::now();
                let out = ScanExec.run(&job, 0);
                q.scan_ms.push(t.elapsed().as_secs_f64() * 1e3);
                r.check(
                    out.is_ok_and(|o| id_set(o.candidate_ids()) == self.plants),
                    || format!("scan {i}: matched set is not the plants"),
                );
            }
            i += 1;
        }
        q.wall_s = t0.elapsed().as_secs_f64();
        q
    }

    /// Traced: the same loop through the reference walker, with spans
    /// around `snapshot()`, the job build and every layer call. With
    /// `paired`, each query is walked again untraced on the same
    /// snapshot and seed, which is what the overhead figure rests on.
    fn run_traced(
        &self,
        phase: u64,
        budget: Duration,
        paired: bool,
        tracer: &mut Tracer,
        r: &mut Report,
    ) -> Queried {
        let mut q = Queried::default();
        let t0 = Instant::now();
        let mut i = 0u32;
        while t0.elapsed() < budget {
            let tq = tracer.begin_query(i);
            let snap = self.live.snapshot();
            let t1 = tracer.now();
            tracer.span(Layer::LiveSnapshot, tq, t1);
            let job = QueryJob::from_snapshot(&snap, 0, 1, self.target.clone(), self.cfg.clone());
            let t2 = tracer.now();
            tracer.span(Layer::EngineExec, t1, t2);
            let w = Walk {
                backend: &snap,
                bitmap: &job.bitmap,
                z: job.z_attr,
                x: job.x_attr,
                target: &job.target,
                cfg: &job.cfg,
                seed: run_seed(self.seed, phase, i as usize),
            };
            let walked = walk(&w, tracer);
            let ms = tracer.end_query(tq);
            q.snapshot_us
                .push(t1.duration_since(tq).as_secs_f64() * 1e6);
            q.job_build_us
                .push(t2.duration_since(t1).as_secs_f64() * 1e6);
            q.pinned_peak = q.pinned_peak.max(self.live.stats().pinned_snapshot_bytes);
            let set = walked
                .as_ref()
                .ok()
                .map(|w| id_set(w.output.candidate_ids()));
            r.check(set.as_ref() == Some(&self.plants), || {
                format!(
                    "walk {i}: matched set is not the plants ({:?})",
                    walked.as_ref().err()
                )
            });
            if let Ok(walked) = &walked {
                q.query_ms.push(ms);
                q.samples += walked.output.diagnostics.total_samples;
                q.counts.tuples += walked.tuples;
                q.counts.blocks_marked += walked.blocks_marked;
                q.blocks_read += walked.blocks_read;
                q.blocks_total += snap.layout().num_blocks() as u64;
            }
            if paired {
                q.traced_s += ms / 1e3;
                let t = Instant::now();
                let plain = walk(&w, &mut Off);
                q.untraced_s += t.elapsed().as_secs_f64();
                r.check(
                    plain.is_ok_and(|p| Some(id_set(p.output.candidate_ids())) == set),
                    || format!("walk {i}: traced and untraced walks differ"),
                );
            }
            i += 1;
        }
        q.wall_s = t0.elapsed().as_secs_f64();
        q
    }
}

/// Drops the table and reopens its directory cold: every acknowledged
/// row must be there. Returns the reopened table's stats, the `open`
/// wall in ms, and the segment files and bytes it found.
fn reopen(fx: Fixture, acked: u64, r: &mut Report) -> Result<(LiveStats, f64, usize, u64), String> {
    let Fixture {
        live,
        table,
        config,
        scratch,
    } = fx;
    drop(live);
    let t = Instant::now();
    let reopened = LiveTable::open(table.schema().clone(), config).map_err(|e| e.to_string())?;
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let lost = acked.saturating_sub(reopened.n_rows());
    r.check(reopened.n_rows() == acked, || {
        format!(
            "recovery: {} rows acknowledged, {} recovered",
            acked,
            reopened.n_rows()
        )
    });
    // Each row lost beyond the first counts as a failure of its own.
    for _ in 1..lost {
        r.fail("recovery: acknowledged row lost".into());
    }
    let stats = reopened.stats();
    let files = reopened.num_segment_files();
    let bytes = scratch.file_bytes();
    drop(reopened);
    drop(scratch);
    Ok((stats, ms, files, bytes))
}

pub fn run(args: &Args, scale: &Scale) -> Result<Report, String> {
    let (fx, setup_s) = timed_setup(scale.setup_reps, || build(scale))?;
    let mut r = Report::new("live_mixed", args.trace);
    r.context(
        "data",
        format!(
            "{} rows preloaded, {CANDIDATES} candidates x {GROUPS} groups, top-{} planted",
            fx.table.n_rows(),
            PLANTS.len()
        ),
    );
    r.context(
        "live_table",
        format!(
            "WAL on, wal_sync_every {} (default), background sealer, {} blocks/segment, \
             coalesce {}, compaction fan-in {COMPACTION_FAN_IN}",
            fx.config.wal_sync_every, fx.config.blocks_per_segment, fx.config.coalesce_segments
        ),
    );
    r.context(
        "loop",
        format!(
            "open-loop appender: {}-row batches at {} rows/s; closed-loop query client: 1",
            scale.live_batch_rows, scale.live_rows_per_s
        ),
    );
    let cfg = query_cfg(scale.live_preload_rows);
    let client = Client {
        live: &fx.live,
        cfg: &cfg,
        target: uniform(GROUPS),
        seed: args.seed,
        plants: PLANTS.iter().map(|p| p.0).collect(),
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let epoch = Instant::now();
    let mut quiet_tracer = Tracer::new(epoch);
    let mut tracer = Tracer::new(epoch).with_span_budget(SPAN_BUDGET);
    let mut append_tracer = Tracer::new(epoch).with_span_budget(SPAN_BUDGET / 8);
    let before = fx.live.stats();

    // Phase 1: the query loop alone. Phase 2: the same loop beside the
    // open-loop appender.
    let quiet = if args.trace {
        client.run_traced(0, budget.mul_f64(0.2), true, &mut quiet_tracer, &mut r)
    } else {
        client.run_untraced(0, budget.mul_f64(0.2), true, &mut r)
    };
    let stop = AtomicBool::new(false);
    let (mixed, appended) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            appender(
                &fx.live,
                &fx.table,
                scale,
                args.seed,
                &stop,
                &mut append_tracer,
            )
        });
        let mixed = if args.trace {
            client.run_traced(1, budget.mul_f64(0.8), false, &mut tracer, &mut r)
        } else {
            client.run_untraced(1, budget.mul_f64(0.8), false, &mut r)
        };
        stop.store(true, Ordering::Relaxed);
        (mixed, writer.join().expect("appender thread panicked"))
    });
    let after = fx.live.stats();
    for e in &appended.errors {
        r.check(false, || format!("append: {e}"));
    }
    r.attempted += appended.latency_us.len() as u64 - appended.errors.len() as u64;
    for (what, n) in [
        ("seal_errors", after.seal_errors),
        ("wal_errors", after.wal_errors),
        ("compact_errors", after.compact_errors),
    ] {
        for _ in 0..n {
            r.check(false, || format!("live table counted {what}"));
        }
    }
    r.context("appended_rows", appended.rows);
    r.context("append_batches", appended.latency_us.len());
    r.context("quiescent_queries", quiet.query_ms.len());
    r.context("mixed_queries", mixed.query_ms.len());

    let acked = fx.table.n_rows() as u64 + appended.rows;
    let user_bytes = (4 * acked * fx.table.schema().len() as u64).max(1);
    let (reopened, recover_ms, files, disk_bytes) = reopen(fx, acked, &mut r)?;

    if !args.trace {
        r.keep("quiescent_query_ms", &quiet.query_ms);
        return EndToEnd {
            setup_s,
            query_ms: mixed.query_ms,
            scan_ms: quiet.scan_ms,
            blocks_read: mixed.blocks_read,
            blocks_total: mixed.blocks_total,
            wall_s: mixed.wall_s,
        }
        .report(&mut r)
        .map(|()| r);
    }

    // Layer timings come from both phases' walks; the live path's own
    // figures from the mixed phase.
    let mut walks = quiet_tracer;
    let mixed_queries = tracer.queries;
    let mut mean_ns = mean_layer_ns(&tracer);
    walks.absorb(tracer);
    report_walk_layers(
        &mut r,
        &walks,
        WalkCounts {
            tuples: quiet.counts.tuples + mixed.counts.tuples,
            blocks_marked: quiet.counts.blocks_marked + mixed.counts.blocks_marked,
        },
    );
    r.set_n(
        "core.samples_per_query",
        mixed.samples as f64 / mixed.query_ms.len().max(1) as f64,
        mixed.query_ms.len(),
    );
    r.set("store.blocks_read", mixed.blocks_read as f64);
    r.set(
        "store.blocks_skipped",
        (mixed.blocks_total - mixed.blocks_read) as f64,
    );

    r.median("live.append_p50_us", &appended.latency_us);
    r.tail("live.append_p99_us", &appended.latency_us, 0.99);
    r.set(
        "live.append_ns_per_row",
        appended.busy_ns as f64 / appended.rows.max(1) as f64,
    );
    r.set("live.append_stall_max_ms", appended.stall_max_ms);
    r.set(
        "live.append_late_frac",
        appended.late as f64 / appended.latency_us.len().max(1) as f64,
    );
    r.median("live.snapshot_us_p50", &mixed.snapshot_us);
    r.tail("live.snapshot_us_p99", &mixed.snapshot_us, 0.99);
    r.median("live.job_build_us_p50", &mixed.job_build_us);
    r.keep("live.quiescent_query_ms", &quiet.query_ms);
    r.keep("live.mixed_query_ms", &mixed.query_ms);
    r.set_n(
        "live.query_inflation",
        median(&mixed.query_ms) / median(&quiet.query_ms).max(f64::MIN_POSITIVE),
        mixed.query_ms.len(),
    );
    r.set(
        "live.pinned_snapshot_bytes_peak",
        mixed.pinned_peak.max(quiet.pinned_peak) as f64,
    );
    r.set(
        "live.disk_bytes_per_user_byte",
        disk_bytes as f64 / user_bytes as f64,
    );
    for (name, now, then) in [
        ("live.wal_syncs", after.wal_syncs, before.wal_syncs),
        (
            "live.wal_rotations",
            after.wal_rotations,
            before.wal_rotations,
        ),
        (
            "live.persisted_segments",
            after.persisted_segments,
            before.persisted_segments,
        ),
        (
            "live.coalesced_deltas",
            after.coalesced_deltas,
            before.coalesced_deltas,
        ),
        ("live.compactions", after.compactions, before.compactions),
    ] {
        r.set(name, (now - then) as f64);
    }
    r.set("live.segment_files_end", files as f64);
    r.set("live.recover_ms", recover_ms);
    r.set("live.recovered_rows", reopened.recovered_rows as f64);
    r.set("live.seal_errors", after.seal_errors as f64);
    r.set("live.wal_errors", after.wal_errors as f64);
    r.set("live.compact_errors", after.compact_errors as f64);

    // Shares are of the mixed phase's busy time: the client's query
    // spans plus the appender's time inside `append_batch`, per query.
    let per_query = mixed_queries.count.max(1) as f64;
    let append_ns = append_tracer.layer(Layer::LiveAppend).ns as f64 / per_query;
    mean_ns[Layer::LiveAppend as usize] = append_ns;
    report_shares(
        &mut r,
        mean_ns,
        mixed_queries.ns as f64 / per_query + append_ns,
        quiet.traced_s / quiet.untraced_s.max(f64::MIN_POSITIVE) - 1.0,
    );
    walks.absorb(append_tracer);
    r.spans = Some(walks.spans_json());
    Ok(r)
}
