//! `mem_table4` and `file_cold_table4`: the nine Table 3 queries as a
//! closed loop of one client through `FastMatchExec`, plus three exact
//! `ScanExec` runs per pass, over `MemBackend` or over a persisted
//! `FileBackend` whose cache holds 1/16 of the pages a query touches.
//!
//! The two workloads share every line of this file and differ only in
//! [`Storage`]: in memory a block read is a slice copy, so `core` does
//! nearly all the work; on file, read + checksum + decode + eviction +
//! readahead dominate. A gain in one layer shows on one and, by
//! prediction, not beyond its traced share on the other.

use std::time::{Duration, Instant};

use fastmatch_engine::exec::{Executor, FastMatchExec, ScanExec, SyncMatchExec};
use fastmatch_engine::query::QueryJob;
use fastmatch_store::backend::MemBackend;
use fastmatch_store::file::CacheStats;

use crate::fixture::{Fixture, Prepared, Storage};
use crate::measure::{
    mean_layer_ns, report_shares, report_walk_layers, run_seed, timed_setup, EndToEnd, WalkCounts,
};
use crate::report::Report;
use crate::summary::median;
use crate::trace::{Off, Tracer};
use crate::walker::{walk, Walk};
use crate::{Args, Scale, CORPUS_SEED};

/// Kept spans per traced run (the first loop or so; see `trace.rs`).
pub const SPAN_BUDGET: usize = 400_000;

/// Exact scans per pass of the untraced loop.
const SCANS_PER_PASS: usize = 3;

/// Sorted candidate ids, for set comparison.
pub fn id_set(mut ids: Vec<u32>) -> Vec<u32> {
    ids.sort_unstable();
    ids
}

/// A fixture with the `MemBackend` views its backends resolve through.
pub struct Ctx<'a> {
    pub fx: &'a Fixture,
    pub views: &'a [Option<MemBackend<'a>>],
}

impl<'a> Ctx<'a> {
    pub fn job(&self, q: &'a Prepared) -> QueryJob<'a> {
        QueryJob::from_backend(
            self.fx.backend(self.views, q.dataset),
            self.fx.bitmap(q),
            q.z,
            q.x,
            q.target.clone(),
            q.cfg.clone(),
        )
    }

    /// Cache counters summed over the file-backed datasets.
    fn cache_stats(&self) -> CacheStats {
        let mut sum = CacheStats::default();
        for be in self.fx.datasets.iter().filter_map(|d| d.file()) {
            add_cache(&mut sum, be.cache_stats());
        }
        sum
    }
}

fn add_cache(sum: &mut CacheStats, s: CacheStats) {
    sum.hits += s.hits;
    sum.misses += s.misses;
    sum.evictions += s.evictions;
    sum.pressure += s.pressure;
    sum.pages_prefetched += s.pages_prefetched;
    sum.prefetched_hits += s.prefetched_hits;
}

pub fn run(
    name: &'static str,
    storage: Storage,
    rows: usize,
    args: &Args,
    scale: &Scale,
) -> Result<Report, String> {
    let specs = fastmatch_data::all_queries();
    let (fx, setup_s) = timed_setup(scale.setup_reps, || {
        Fixture::build(&specs, rows, CORPUS_SEED, storage)
    })?;
    let views = fx.mem_views();
    let ctx = Ctx {
        fx: &fx,
        views: &views,
    };
    let mut r = Report::new(name, args.trace);
    r.context("data", fx.describe());
    r.context("file_bytes", fx.file_bytes);
    r.context(
        "loop",
        "closed, 1 client: 9 FastMatch queries + 3 exact scans per pass",
    );
    r.context(
        "histsim",
        format!(
            "eps 0.04, delta 0.01, sigma 0.0008, stage1 {} samples",
            fx.queries[0].cfg.stage1_samples
        ),
    );
    if args.trace {
        let passes = layer_passes(
            &ctx,
            args.seed,
            Duration::from_secs_f64(args.seconds),
            &mut r,
        )?;
        let tracer = &passes.tracer;
        report_shares(
            &mut r,
            mean_layer_ns(tracer),
            tracer.queries.ns as f64 / tracer.queries.count.max(1) as f64,
            passes.overhead_frac,
        );
        r.spans = Some(tracer.spans_json());
    } else {
        untraced(&ctx, args, setup_s, &mut r)?;
    }
    Ok(r)
}

fn untraced(ctx: &Ctx<'_>, args: &Args, setup_s: Vec<f64>, r: &mut Report) -> Result<(), String> {
    let exec = FastMatchExec::default();
    let queries = &ctx.fx.queries;
    // Warm-up pass, untimed: first-touch faults, allocator, cache fill.
    for (qi, q) in queries.iter().enumerate() {
        exec.run(&ctx.job(q), run_seed(args.seed, u64::MAX, qi))
            .map_err(|e| format!("warm-up {}: {e}", q.id))?;
    }

    let mut e2e = EndToEnd {
        setup_s,
        ..EndToEnd::default()
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let t0 = Instant::now();
    let mut pass = 0u64;
    while t0.elapsed() < budget {
        for (qi, q) in queries.iter().enumerate() {
            let nb = ctx.fx.datasets[q.dataset].layout.num_blocks() as u64;
            let t = Instant::now();
            let out = exec.run(&ctx.job(q), run_seed(args.seed, pass, qi));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            match out {
                Ok(out) => {
                    let ok = q.guarantees_hold(&out.output);
                    r.check(ok, || format!("{} pass {pass}: guarantee violated", q.id));
                    if ok {
                        e2e.query_ms.push(ms);
                    }
                    e2e.blocks_read += out.stats.io.blocks_read;
                    e2e.blocks_total += nb;
                }
                Err(e) => r.check(false, || format!("{} pass {pass}: {e}", q.id)),
            }
        }
        // The paper's baseline over the same backend: a third of the
        // queries per pass, rotating so each is scanned equally often.
        for j in 0..SCANS_PER_PASS {
            let q = &queries[(pass as usize * SCANS_PER_PASS + j) % queries.len()];
            let t = Instant::now();
            let out = ScanExec.run(&ctx.job(q), 0);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            match out {
                Ok(out) => {
                    e2e.scan_ms.push(ms);
                    r.check(q.is_exact(&out.output), || {
                        format!("{} pass {pass}: scan is not exact", q.id)
                    });
                }
                Err(e) => r.check(false, || format!("{} scan pass {pass}: {e}", q.id)),
            }
        }
        pass += 1;
    }
    e2e.wall_s = t0.elapsed().as_secs_f64();
    r.context("passes", pass);
    e2e.report(r)
}

/// What [`layer_passes`] leaves for the caller to turn into shares.
pub struct LayerPasses {
    pub tracer: Tracer,
    /// Traced walker wall over untraced walker wall (same seeds), minus 1.
    pub overhead_frac: f64,
}

/// The body of a traced run. Every pass sends the fixture's queries
/// through five drivers in turn — `FastMatchExec`, the traced walker,
/// the untraced walker (same seeds), `SyncMatchExec`, `ScanExec` — so all
/// five see the same drift and the same number of passes. Reports the
/// `core.*`, `store.*` and `exec.*` metrics; the `trace.*` shares are
/// the caller's, since what a query span is differs by workload.
pub fn layer_passes(
    ctx: &Ctx<'_>,
    seed: u64,
    budget: Duration,
    r: &mut Report,
) -> Result<LayerPasses, String> {
    let queries = &ctx.fx.queries;
    let n = queries.len();
    let mut tracer = Tracer::new(Instant::now()).with_span_budget(SPAN_BUDGET);
    let mut counts = WalkCounts::default();
    let (mut fm_ms, mut sync_ms, mut scan_ms) = (
        vec![Vec::new(); n],
        vec![Vec::new(); n],
        vec![Vec::new(); n],
    );
    let (mut traced_s, mut untraced_s) = (0.0, 0.0);
    let (mut samples, mut exact, mut fm_runs) = (0u64, 0u64, 0u64);
    let (mut blocks_read, mut blocks_skipped) = (0u64, 0u64);
    let mut cache = CacheStats::default();
    let (mut sync_compared, mut sync_agreed) = (0u64, 0u64);

    let t0 = Instant::now();
    let mut pass = 0u64;
    while t0.elapsed() < budget {
        let seed_of = |qi: usize| run_seed(seed, pass, qi);

        let before = ctx.cache_stats();
        for (qi, q) in queries.iter().enumerate() {
            let t = Instant::now();
            let out = FastMatchExec::default().run(&ctx.job(q), seed_of(qi));
            fm_ms[qi].push(t.elapsed().as_secs_f64() * 1e3);
            match out {
                Ok(out) => {
                    r.check(q.guarantees_hold(&out.output), || {
                        format!("{} pass {pass}: guarantee violated", q.id)
                    });
                    fm_runs += 1;
                    samples += out.stats.samples;
                    exact += u64::from(out.stats.exact_finish);
                    blocks_read += out.stats.io.blocks_read;
                    blocks_skipped += out.stats.io.blocks_skipped;
                }
                Err(e) => r.check(false, || format!("{} pass {pass}: {e}", q.id)),
            }
        }
        add_cache(&mut cache, ctx.cache_stats().since(before));

        let mut walked_sets = Vec::with_capacity(n);
        let t = Instant::now();
        for (qi, q) in queries.iter().enumerate() {
            let w = walk_of(ctx, q, seed_of(qi));
            let tq = tracer.begin_query(qi as u32);
            let res = walk(&w, &mut tracer);
            tracer.end_query(tq);
            match res {
                Ok(walked) => {
                    r.check(q.guarantees_hold(&walked.output), || {
                        format!("{} pass {pass}: walker violated a guarantee", q.id)
                    });
                    counts.tuples += walked.tuples;
                    counts.blocks_marked += walked.blocks_marked;
                    walked_sets.push(Some(id_set(walked.output.candidate_ids())));
                }
                Err(e) => {
                    r.check(false, || format!("{} pass {pass}: walker: {e}", q.id));
                    walked_sets.push(None);
                }
            }
        }
        traced_s += t.elapsed().as_secs_f64();

        let t = Instant::now();
        for (qi, q) in queries.iter().enumerate() {
            let res = walk(&walk_of(ctx, q, seed_of(qi)), &mut Off);
            let same = match (&res, &walked_sets[qi]) {
                (Ok(plain), Some(set)) => id_set(plain.output.candidate_ids()) == *set,
                _ => false,
            };
            r.check(same, || {
                format!("{} pass {pass}: traced and untraced walks differ", q.id)
            });
        }
        untraced_s += t.elapsed().as_secs_f64();

        for (qi, q) in queries.iter().enumerate() {
            let t = Instant::now();
            let out = SyncMatchExec.run(&ctx.job(q), seed_of(qi));
            sync_ms[qi].push(t.elapsed().as_secs_f64() * 1e3);
            r.check(
                out.as_ref().is_ok_and(|o| q.guarantees_hold(&o.output)),
                || format!("{} pass {pass}: SyncMatch violated a guarantee", q.id),
            );
            // Both sets satisfy the guarantees; they may still differ by
            // candidates within ε of the k-th, so agreement is reported,
            // not required.
            if let (Ok(out), Some(set)) = (&out, &walked_sets[qi]) {
                sync_compared += 1;
                sync_agreed += u64::from(id_set(out.candidate_ids()) == *set);
            }
        }

        for (qi, q) in queries.iter().enumerate() {
            let t = Instant::now();
            let out = ScanExec.run(&ctx.job(q), 0);
            scan_ms[qi].push(t.elapsed().as_secs_f64() * 1e3);
            r.check(out.is_ok_and(|o| q.is_exact(&o.output)), || {
                format!("{} pass {pass}: scan is not exact", q.id)
            });
        }
        pass += 1;
    }
    r.context("layer_passes", pass);
    r.context(
        "walker_syncmatch_same_set",
        format!("{sync_agreed} of {sync_compared}"),
    );

    report_walk_layers(r, &tracer, counts);
    r.set_n(
        "core.samples_per_query",
        samples as f64 / fm_runs.max(1) as f64,
        fm_runs as usize,
    );
    if !ctx.fx.datasets.iter().all(|d| d.file().is_none()) {
        r.set("store.cache.hit_rate", cache.hit_rate());
        r.set("store.cache.evictions", cache.evictions as f64);
        r.set("store.cache.pressure", cache.pressure as f64);
        r.set(
            "store.prefetch.useful_frac",
            cache.prefetched_hits as f64 / cache.pages_prefetched.max(1) as f64,
        );
        r.set("store.prefetch.pages", cache.pages_prefetched as f64);
    }
    r.set("store.blocks_read", blocks_read as f64);
    r.set("store.blocks_skipped", blocks_skipped as f64);

    let (mut fm_sum, mut sync_sum, mut log_speedup) = (0.0, 0.0, 0.0);
    for (qi, q) in queries.iter().enumerate() {
        r.median(&format!("exec.q.{}.ms_p50", q.id), &fm_ms[qi]);
        r.keep(&format!("sync.q.{}.ms", q.id), &sync_ms[qi]);
        r.keep(&format!("scan.q.{}.ms", q.id), &scan_ms[qi]);
        let fm = median(&fm_ms[qi]);
        fm_sum += fm;
        sync_sum += median(&sync_ms[qi]);
        log_speedup += (median(&scan_ms[qi]) / fm.max(f64::MIN_POSITIVE)).ln();
    }
    r.set_n(
        "exec.sync_vs_fastmatch_ratio",
        sync_sum / fm_sum.max(f64::MIN_POSITIVE),
        pass as usize,
    );
    r.set_n(
        "exec.speedup_vs_scan",
        (log_speedup / n as f64).exp(),
        pass as usize,
    );
    r.set_n(
        "exec.exact_finish_frac",
        exact as f64 / fm_runs.max(1) as f64,
        fm_runs as usize,
    );

    Ok(LayerPasses {
        tracer,
        overhead_frac: traced_s / untraced_s.max(f64::MIN_POSITIVE) - 1.0,
    })
}

fn walk_of<'a>(ctx: &Ctx<'a>, q: &'a Prepared, seed: u64) -> Walk<'a> {
    Walk {
        backend: ctx.fx.backend(ctx.views, q.dataset),
        bitmap: ctx.fx.bitmap(q),
        z: q.z,
        x: q.x,
        target: &q.target,
        cfg: &q.cfg,
        seed,
    }
}
