//! `service_warm_closed`: `QueryService` with 2 workers serving the four
//! FLIGHTS queries to 4 closed-loop clients (each submits, waits, then
//! submits its next — 4 queries in flight) over one shared `FileBackend`
//! whose cache holds the whole file and is warmed before timing.
//!
//! The store is used through its hit path only, so what remains is the
//! scheduler: quanta, stealing, the per-query engine mutex, the demand
//! protocol. A scheduler change shows here and not on the single-query
//! workloads; this is also the "fits in cache" workload.

use std::time::{Duration, Instant};

use fastmatch_data::datasets::DatasetId;
use fastmatch_engine::exec::{Executor, ScanExec};
use fastmatch_engine::service::{QueryOutcome, QueryRequest, QueryService, ServiceConfig};
use fastmatch_store::backend::StorageBackend;
use fastmatch_store::file::FileBackend;

use crate::fixture::{Fixture, Storage};
use crate::measure::{cpu_seconds, mean_layer_ns, report_shares, run_seed, timed_setup, EndToEnd};
use crate::report::Report;
use crate::summary::median;
use crate::table4::{layer_passes, Ctx};
use crate::trace::{Layer, Probe, Tracer};
use crate::{Args, Scale, CORPUS_SEED};

pub const WORKERS: usize = 2;
pub const CLIENTS: usize = 4;

/// One client-observed query.
struct Served {
    query: usize,
    /// Submit → result, ms.
    ms: f64,
    /// `QueryService::submit` alone, µs.
    submit_us: f64,
    blocks_read: u64,
    /// `None` when the query finished with its guarantees intact.
    failure: Option<String>,
    refused: bool,
}

/// What one closed-loop phase observed.
struct Phase {
    served: Vec<Served>,
    tracer: Tracer,
    wall_s: f64,
    cpu_s: f64,
    quanta: u64,
    steals: u64,
}

/// Runs `clients` closed-loop clients against a fresh service session
/// for `budget`. Client `c`'s `k`-th query is query `(c + k) mod n`, so
/// every client cycles through the whole mix.
fn closed_loop(
    fx: &Fixture,
    be: &FileBackend,
    clients: usize,
    budget: Duration,
    seed: u64,
) -> Result<Phase, String> {
    let epoch = Instant::now();
    let cpu0 = cpu_seconds()?;
    let config = ServiceConfig::default().with_workers(WORKERS);
    let (per_client, sched) = QueryService::serve(be, config, |svc| {
        let per_client = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|c| scope.spawn(move || client(svc, fx, c, clients, epoch, budget, seed)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect::<Vec<_>>()
        });
        (per_client, svc.sched_stats())
    });
    let wall_s = epoch.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds()? - cpu0;
    let mut tracer = Tracer::new(epoch);
    let mut served = Vec::new();
    for (s, t) in per_client {
        served.extend(s);
        tracer.absorb(t);
    }
    Ok(Phase {
        served,
        tracer,
        wall_s,
        cpu_s,
        quanta: sched.quanta,
        steals: sched.steals,
    })
}

fn client<'env>(
    svc: &QueryService<'env>,
    fx: &'env Fixture,
    c: usize,
    clients: usize,
    epoch: Instant,
    budget: Duration,
    seed: u64,
) -> (Vec<Served>, Tracer) {
    let mut tracer = Tracer::new(epoch).with_span_budget(4096);
    let mut served = Vec::new();
    let mut k = 0usize;
    while epoch.elapsed() < budget {
        let qi = (c + k) % fx.queries.len();
        let q = &fx.queries[qi];
        let req = QueryRequest::new(fx.bitmap(q), q.z, q.x, q.target.clone(), q.cfg.clone())
            .with_seed(run_seed(seed, (k * clients + c) as u64, qi));
        let t0 = tracer.begin_query(qi as u32);
        let submitted = svc.submit(req);
        let t1 = tracer.now();
        tracer.span(Layer::EngineService, t0, t1);
        let outcome = submitted.as_ref().ok().map(|h| h.wait());
        let ms = tracer.end_query(t0);
        let mut s = Served {
            query: qi,
            ms,
            submit_us: t1.duration_since(t0).as_secs_f64() * 1e6,
            blocks_read: 0,
            failure: None,
            refused: false,
        };
        match (submitted, outcome) {
            (Err(e), _) => {
                s.refused = true;
                s.failure = Some(format!("{}: refused: {e}", q.id));
            }
            (Ok(_), Some(QueryOutcome::Finished(out))) => {
                s.blocks_read = out.stats.io.blocks_read;
                if !q.guarantees_hold(&out.output) {
                    s.failure = Some(format!("{}: guarantee violated", q.id));
                }
            }
            (Ok(_), other) => s.failure = Some(format!("{}: ended as {other:?}", q.id)),
        }
        served.push(s);
        k += 1;
    }
    (served, tracer)
}

pub fn run(args: &Args, scale: &Scale) -> Result<Report, String> {
    let specs: Vec<_> = fastmatch_data::all_queries()
        .into_iter()
        .filter(|q| q.dataset == DatasetId::Flights)
        .collect();
    let (fx, setup_s) = timed_setup(scale.setup_reps, || {
        Fixture::build(&specs, scale.service_rows, CORPUS_SEED, Storage::FileWarm)
    })?;
    let be = fx.datasets[0].file().expect("FileWarm persists");
    let nb = be.layout().num_blocks() as u64;
    let mut r = Report::new("service_warm_closed", args.trace);
    r.context("data", fx.describe());
    r.context("file_bytes", fx.file_bytes);
    r.context(
        "loop",
        format!("closed, {CLIENTS} clients in flight, {WORKERS} workers, flights q1-q4"),
    );
    let budget = Duration::from_secs_f64(args.seconds);

    if !args.trace {
        // Exact scans alone for a twentieth of the time before and after
        // the loaded phase, so one slow spell cannot colour all of them.
        let views = fx.mem_views();
        let ctx = Ctx {
            fx: &fx,
            views: &views,
        };
        let mut scan_ms = Vec::new();
        let mut scans = |r: &mut Report| {
            let t0 = Instant::now();
            let first = scan_ms.len();
            while t0.elapsed() < budget.mul_f64(0.05) || scan_ms.len() == first {
                let q = &fx.queries[scan_ms.len() % fx.queries.len()];
                let t = Instant::now();
                let out = ScanExec.run(&ctx.job(q), 0);
                scan_ms.push(t.elapsed().as_secs_f64() * 1e3);
                r.check(out.is_ok_and(|o| q.is_exact(&o.output)), || {
                    format!("{}: scan is not exact", q.id)
                });
            }
        };
        scans(&mut r);
        let phase = closed_loop(&fx, be, CLIENTS, budget.mul_f64(0.9), args.seed)?;
        scans(&mut r);
        let mut e2e = EndToEnd {
            setup_s,
            scan_ms,
            wall_s: phase.wall_s,
            ..EndToEnd::default()
        };
        for s in phase.served {
            r.check(s.failure.is_none(), || {
                s.failure.clone().unwrap_or_default()
            });
            if s.failure.is_none() {
                e2e.query_ms.push(s.ms);
            }
            e2e.blocks_read += s.blocks_read;
            e2e.blocks_total += nb;
        }
        e2e.report(&mut r)?;
        return Ok(r);
    }

    // Traced run: the service under load with spans around submit and
    // wait, the same mix at one client, then the single-client layer
    // passes that say what the work inside a query costs.
    let cache0 = be.cache_stats();
    let loaded = closed_loop(&fx, be, CLIENTS, budget.mul_f64(0.35), args.seed)?;
    let cache = be.cache_stats().since(cache0);
    let alone = closed_loop(&fx, be, 1, budget.mul_f64(0.2), args.seed ^ 1)?;

    let ms = |p: &Phase| -> Vec<f64> { p.served.iter().map(|s| s.ms).collect() };
    let (mut blocks, mut refused) = (0u64, 0u64);
    for s in loaded.served.iter().chain(&alone.served) {
        r.check(s.failure.is_none(), || {
            s.failure.clone().unwrap_or_default()
        });
    }
    for s in &loaded.served {
        blocks += s.blocks_read;
        refused += u64::from(s.refused);
    }
    r.set("service.quanta", loaded.quanta as f64);
    r.set("service.steals", loaded.steals as f64);
    r.set(
        "service.blocks_per_quantum",
        blocks as f64 / loaded.quanta.max(1) as f64,
    );
    let submit_us: Vec<f64> = loaded.served.iter().map(|s| s.submit_us).collect();
    r.median("service.submit_us_p50", &submit_us);
    r.set("service.refused", refused as f64);
    r.set(
        "service.cpu_busy_frac",
        loaded.cpu_s / (loaded.wall_s * WORKERS as f64),
    );
    let loaded_ms = ms(&loaded);
    r.keep("service.loaded_ms", &loaded_ms);
    r.keep("service.alone_ms", &ms(&alone));
    r.set_n(
        "service.load_inflation",
        median(&loaded_ms) / median(&ms(&alone)).max(f64::MIN_POSITIVE),
        loaded_ms.len(),
    );
    for (qi, q) in fx.queries.iter().enumerate() {
        let of_q: Vec<f64> = loaded
            .served
            .iter()
            .filter(|s| s.query == qi)
            .map(|s| s.ms)
            .collect();
        r.keep(&format!("service.q.{}.ms", q.id), &of_q);
    }

    let views = fx.mem_views();
    let ctx = Ctx {
        fx: &fx,
        views: &views,
    };
    let passes = layer_passes(&ctx, args.seed, budget.mul_f64(0.45), &mut r)?;
    // layer_passes reported the cache as its own passes saw it; what
    // matters here is the cache under the service's load.
    r.context(
        "service_phase_cache",
        format!(
            "hit_rate {} evictions {}",
            cache.hit_rate(),
            cache.evictions
        ),
    );

    // A served query's span is submit → result at 4 in flight. The work
    // inside it is what the walker needs for the same mix alone; the
    // rest — admission, queueing behind other queries' quanta, engine
    // mutex, wake-ups — is the service's own.
    let walker = &passes.tracer;
    let mut mean_ns = mean_layer_ns(walker);
    let walk_mean = walker.queries.ns as f64 / walker.queries.count.max(1) as f64;
    let served_mean = loaded.tracer.queries.ns as f64 / loaded.tracer.queries.count.max(1) as f64;
    mean_ns[Layer::EngineService as usize] = (served_mean - walk_mean).max(0.0);
    report_shares(
        &mut r,
        mean_ns,
        served_mean.max(walk_mean),
        passes.overhead_frac,
    );
    let mut spans = loaded.tracer;
    spans.absorb(passes.tracer);
    r.spans = Some(spans.spans_json());
    Ok(r)
}
