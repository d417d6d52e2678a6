//! Scheduler-level integration tests for the query service: the
//! scheduler's knobs must be invisible to results (only latency may
//! change), work-stealing must actually redistribute queued tasks, and
//! no admitted query may starve while others run.

use std::time::{Duration, Instant};

use proptest::prelude::*;

use fastmatch_core::histsim::HistSimConfig;
use fastmatch_data::gen::{conditional_with_planted, generate_table, ColumnGen, ColumnSpec};
use fastmatch_data::shapes::uniform;
use fastmatch_engine::exec::{Executor, SyncMatchExec};
use fastmatch_engine::query::QueryJob;
use fastmatch_engine::service::{QueryOutcome, QueryRequest, QueryService, ServiceConfig};
use fastmatch_store::backend::MemBackend;
use fastmatch_store::bitmap::BitmapIndex;
use fastmatch_store::block::BlockLayout;
use fastmatch_store::table::Table;

/// A planted fixture whose matched set is unambiguous, so every correct
/// scheduler returns the same ids. Every member sits well above σ =
/// 0.01: Zipf(1.2) over 60 values gives value 7 a selectivity of about
/// 0.024 and value 9 about 0.019. (The executor tests plant value 15,
/// at 0.0106 within sampling noise of σ, which stage 1 may prune under
/// some interleavings of the workers' quanta — a false prune within δ
/// that made a set-equality property fail in a few percent of runs.)
fn test_table(rows: usize, seed: u64) -> Table {
    let dists = conditional_with_planted(
        60,
        &uniform(8),
        &[(0, 0.0), (2, 0.015), (5, 0.03), (9, 0.04), (7, 0.05)],
        0.20,
        seed ^ 0xab,
    );
    let specs = vec![
        ColumnSpec::new("z", 60, ColumnGen::PrimaryZipf { s: 1.2 }),
        ColumnSpec::new("x", 8, ColumnGen::Conditional { parent: 0, dists }),
    ];
    generate_table(&specs, rows, seed)
}

fn config() -> HistSimConfig {
    HistSimConfig {
        k: 5,
        epsilon: 0.1,
        delta: 0.05,
        sigma: 0.01,
        stage1_samples: 20_000,
        ..HistSimConfig::default()
    }
}

/// Runs one query through the service under `svc_cfg` and returns its
/// sorted matched set plus the final guarantee state.
fn serve_one(
    backend: &MemBackend<'_>,
    bitmap: &BitmapIndex,
    cfg: HistSimConfig,
    svc_cfg: ServiceConfig,
    seed: u64,
) -> (Vec<u32>, fastmatch_engine::service::GuaranteeState) {
    let (outcome, guarantee) = QueryService::serve(backend, svc_cfg, |svc| {
        let h = svc
            .submit(QueryRequest::new(bitmap, 0, 1, uniform(8), cfg).with_seed(seed))
            .unwrap();
        let outcome = h.wait();
        (outcome, h.progress().guarantee)
    });
    let out = outcome
        .finished()
        .unwrap_or_else(|| panic!("query must finish: {outcome:?}"))
        .clone();
    let mut ids = out.candidate_ids();
    ids.sort_unstable();
    (ids, guarantee)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The service preserves the executor-equivalence property across
    /// randomized workloads and scheduler parameters: whatever the
    /// quantum and pool size, the matched set equals the
    /// single-threaded reference executor's and the guarantee level
    /// that of the default quantum. (The deterministic executor ×
    /// backend matrix in `executors.rs` carries a served column over
    /// every backend; this property randomizes the knobs.)
    #[test]
    fn randomized_quanta_preserve_matched_sets(
        rows in 30_000usize..80_000,
        seed in 0u64..1_000,
        quantum_blocks in 4usize..96,
        workers in 1usize..5,
    ) {
        let table = test_table(rows, seed);
        let layout = BlockLayout::new(table.n_rows(), 64);
        let bitmap = BitmapIndex::build(&table, 0, &layout);
        let backend = MemBackend::new(&table, layout);

        let job = QueryJob::new(&table, layout, &bitmap, 0, 1, uniform(8), config());
        let reference = SyncMatchExec.run(&job, seed).unwrap();
        let mut ref_ids = reference.candidate_ids();
        ref_ids.sort_unstable();

        let base = ServiceConfig::default().with_workers(workers);
        let (default_ids, default_g) =
            serve_one(&backend, &bitmap, config(), base, seed);
        let (ids, g) = serve_one(
            &backend,
            &bitmap,
            config(),
            base.with_quantum_blocks(quantum_blocks),
            seed,
        );

        prop_assert_eq!(&default_ids, &ref_ids, "default-quantum service diverged");
        prop_assert_eq!(&ids, &ref_ids, "{}-block-quantum service diverged", quantum_blocks);
        prop_assert_eq!(default_g, g, "guarantee level diverged");
    }
}

/// Work-stealing soak: many queries on few workers with tiny quanta;
/// every admitted query must make progress (samples advance, or finish)
/// within `K` *global* quanta of its last observed progress — i.e. no
/// query starves while the scheduler serves the others.
#[test]
fn no_admitted_query_starves() {
    let table = test_table(200_000, 42);
    let layout = BlockLayout::new(table.n_rows(), 64);
    let bitmap = BitmapIndex::build(&table, 0, &layout);
    let backend = MemBackend::new(&table, layout);
    const QUERIES: usize = 6;
    const K: u64 = 4_000;
    let svc_cfg = ServiceConfig::default()
        .with_workers(2)
        .with_quantum_blocks(4);
    QueryService::serve(&backend, svc_cfg, |svc| {
        let handles: Vec<_> = (0..QUERIES)
            .map(|i| {
                svc.submit(
                    QueryRequest::new(&bitmap, 0, 1, uniform(8), config()).with_seed(42 + i as u64),
                )
                .unwrap()
            })
            .collect();
        // (samples at last progress, global quanta at last progress)
        let mut last: Vec<(u64, u64)> = vec![(0, 0); QUERIES];
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let quanta = svc.sched_stats().quanta;
            let mut all_done = true;
            for (i, h) in handles.iter().enumerate() {
                if h.is_done() {
                    continue;
                }
                all_done = false;
                let samples = h.progress().samples;
                if samples > last[i].0 {
                    last[i] = (samples, quanta);
                } else {
                    assert!(
                        quanta.saturating_sub(last[i].1) < K,
                        "query {i} starved: stuck at {samples} samples for \
                         {} global quanta ({:?})",
                        quanta - last[i].1,
                        svc.sched_stats(),
                    );
                }
            }
            if all_done {
                break;
            }
            assert!(Instant::now() < deadline, "soak did not converge");
            std::thread::sleep(Duration::from_millis(1));
        }
        for (i, h) in handles.iter().enumerate() {
            let outcome = h.wait();
            assert!(
                matches!(outcome, QueryOutcome::Finished(_)),
                "query {i}: {outcome:?}"
            );
        }
    });
}

/// Each query's task is homed on the worker after the previous one's,
/// so with one query at a time on four workers, three of them have
/// empty queues: the only way they ever run a quantum is by stealing the
/// lone requeued task — over thousands of requeues they practically
/// always do.
#[test]
fn idle_workers_steal_queued_tasks() {
    let table = test_table(250_000, 7);
    let layout = BlockLayout::new(table.n_rows(), 64);
    let bitmap = BitmapIndex::build(&table, 0, &layout);
    let backend = MemBackend::new(&table, layout);
    let svc_cfg = ServiceConfig::default()
        .with_workers(4)
        .with_quantum_blocks(2);
    let stats = QueryService::serve(&backend, svc_cfg, |svc| {
        for round in 0..3 {
            let h = svc
                .submit(QueryRequest::new(&bitmap, 0, 1, uniform(8), config()).with_seed(7 + round))
                .unwrap();
            let outcome = h.wait();
            assert!(matches!(outcome, QueryOutcome::Finished(_)), "{outcome:?}");
        }
        svc.sched_stats()
    });
    assert!(
        stats.steals > 0,
        "idle workers never stole despite imbalanced queues: {stats:?}"
    );
}
