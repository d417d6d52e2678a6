//! Integration tests for the multi-query `QueryService`: concurrent
//! execution over one shared backend must return exactly what serial
//! execution returns, with per-query I/O attributed, and the service's
//! control surface (progress, cancellation, deadlines, admission) must
//! behave under load.

use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use fastmatch_core::histsim::HistSimConfig;
use fastmatch_data::gen::{conditional_with_planted, generate_table, ColumnGen, ColumnSpec};
use fastmatch_data::shapes::uniform;
use fastmatch_engine::exec::{Executor, ScanExec, SyncMatchExec};
use fastmatch_engine::query::QueryJob;
use fastmatch_engine::service::{
    QueryHandle, QueryOutcome, QueryRequest, QueryService, ServiceConfig, ServiceError,
};
use fastmatch_store::backend::{MemBackend, StorageBackend};
use fastmatch_store::bitmap::BitmapIndex;
use fastmatch_store::block::BlockLayout;
use fastmatch_store::file::FileBackend;
use fastmatch_store::table::Table;
use fastmatch_store::tempfile::TempBlockFile;

const GROUPS: usize = 8;

/// The planted fixture of the executor tests: five members far inside
/// the ε-boundary, so the correct matched set is unambiguous and every
/// run — serial or concurrent, any schedule — must return it.
fn test_table(rows: usize, seed: u64) -> Table {
    let dists = conditional_with_planted(
        60,
        &uniform(GROUPS),
        &[(0, 0.0), (2, 0.015), (5, 0.03), (9, 0.04), (15, 0.05)],
        0.20,
        seed ^ 0xab,
    );
    let specs = vec![
        ColumnSpec::new("z", 60, ColumnGen::PrimaryZipf { s: 1.2 }),
        ColumnSpec::new(
            "x",
            GROUPS as u32,
            ColumnGen::Conditional { parent: 0, dists },
        ),
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

/// The acceptance scenario: 16 concurrent queries through one
/// `QueryService` over one shared, cache-bounded `FileBackend` must
/// return matched sets identical to their serial runs, each with its own
/// attributed `IoStats`.
#[test]
fn sixteen_concurrent_queries_match_their_serial_runs() {
    let rows = 150_000;
    let table = test_table(rows, 19);
    let scratch = TempBlockFile::new("service_16way");
    // Cache far below the ~2350×2 pages of the working set: queries
    // contend for real cache space and hit the disk path.
    let backend = FileBackend::create(scratch.path(), &table, 64)
        .unwrap()
        .with_cache_blocks(256);
    let bitmap = BitmapIndex::build(&table, 0, &backend.layout());

    // Serial reference: the same 16 (target, seed) mixes, one at a time,
    // through the synchronous single-query executor.
    let seeds: Vec<u64> = (0..16).map(|i| 1000 + 37 * i).collect();
    let serial: Vec<Vec<u32>> = seeds
        .iter()
        .map(|&seed| {
            let job = QueryJob::from_backend(&backend, &bitmap, 0, 1, uniform(GROUPS), config());
            let mut ids = SyncMatchExec.run(&job, seed).unwrap().candidate_ids();
            ids.sort_unstable();
            ids
        })
        .collect();

    // Concurrent: all 16 admitted at once, multiplexed over a small
    // worker pool (more queries than workers forces real interleaving).
    let service_cfg = ServiceConfig::default()
        .with_workers(4)
        .with_quantum_blocks(32);
    let outcomes = QueryService::serve(&backend, service_cfg, |svc| {
        let handles: Vec<_> = seeds
            .iter()
            .map(|&seed| {
                svc.submit(
                    QueryRequest::new(&bitmap, 0, 1, uniform(GROUPS), config()).with_seed(seed),
                )
                .expect("admission must succeed below the bound")
            })
            .collect();
        handles.iter().map(|h| h.wait()).collect::<Vec<_>>()
    });

    let mut total_hits = 0u64;
    let mut total_misses = 0u64;
    for (i, outcome) in outcomes.iter().enumerate() {
        let out = match outcome {
            QueryOutcome::Finished(out) => out,
            other => panic!("query {i} did not finish: {other:?}"),
        };
        let mut ids = out.candidate_ids();
        ids.sort_unstable();
        assert_eq!(
            ids, serial[i],
            "query {i}: concurrent matched set diverged from its serial run"
        );
        // Per-query I/O attribution: every query owns a non-trivial,
        // internally consistent accounting record.
        let io = out.stats.io;
        assert!(io.blocks_read > 0, "query {i}: no blocks attributed");
        assert!(io.tuples_read > 0, "query {i}: no tuples attributed");
        assert_eq!(
            io.pages_cache_hit + io.pages_cache_miss,
            2 * io.blocks_read,
            "query {i}: every block read is two attributed pages"
        );
        total_hits += io.pages_cache_hit;
        total_misses += io.pages_cache_miss;
    }
    // Attribution consistency with the shared cache: the global
    // counters include the serial reference runs too, so they must
    // dominate the concurrent session's attributed sums.
    assert!(
        total_misses > 0,
        "16 queries over a 256-page cache must miss"
    );
    let cs = backend.cache_stats();
    assert!(
        cs.hits >= total_hits && cs.misses >= total_misses,
        "global cache counters must dominate the attributed sums"
    );
    assert!(
        cs.pressure > 0,
        "an over-committed cache must show pressure"
    );
}

/// Served queries replay exactly under concurrency: each seed served
/// alone on a one-worker pool and the same seeds in flight together on
/// two workers return the same whole output, wall time and cache
/// attribution aside — ids, histograms and distances, samples, stage-2
/// rounds, exact finish, and blocks read and skipped — over memory and
/// over a file. A query is one task that one worker at a time advances,
/// so what its neighbours do can move its latency, never its decisions.
#[test]
fn concurrent_service_agrees_with_serial_service() {
    let rows = 120_000;
    let table = test_table(rows, 23);
    let scratch = TempBlockFile::new("service_serial_vs_conc");
    let file = FileBackend::create(scratch.path(), &table, 64)
        .unwrap()
        .with_cache_blocks(512);
    let mem = MemBackend::new(&table, file.layout());
    let bitmap = BitmapIndex::build(&table, 0, &file.layout());
    let seeds = [5u64, 17, 29, 43];
    let request =
        |seed| QueryRequest::new(&bitmap, 0, 1, uniform(GROUPS), config()).with_seed(seed);
    // Everything a run reports but its wall time and its view of the
    // shared cache.
    let replayed = |h: &QueryHandle| {
        let out = h.wait().finished().expect("must finish").clone();
        let (s, io) = (&out.stats, out.stats.io);
        format!(
            "{:?}",
            (
                &out.output,
                (s.samples, s.stage2_rounds, s.exact_finish),
                (io.blocks_read, io.blocks_skipped, io.tuples_read),
            )
        )
    };
    let backends: [(&str, &dyn StorageBackend); 2] = [("mem", &mem), ("file", &file)];
    for (name, backend) in backends {
        let serial: Vec<String> =
            QueryService::serve(backend, ServiceConfig::default().with_workers(1), |svc| {
                seeds
                    .iter()
                    .map(|&seed| replayed(&svc.submit(request(seed)).unwrap()))
                    .collect()
            });
        let concurrent: Vec<String> =
            QueryService::serve(backend, ServiceConfig::default().with_workers(2), |svc| {
                let handles: Vec<_> = seeds
                    .iter()
                    .map(|&seed| svc.submit(request(seed)).unwrap())
                    .collect();
                handles.iter().map(replayed).collect()
            });
        for (i, seed) in seeds.iter().enumerate() {
            assert_eq!(serial[i], concurrent[i], "{name}, seed {seed}");
        }
    }
}

/// Progressive results: a long query's snapshot must move through the
/// phases and finally equal the output; per-query attributed I/O must be
/// visible before completion.
#[test]
fn progress_reports_phases_and_io_before_completion() {
    let rows = 200_000;
    let table = test_table(rows, 31);
    let scratch = TempBlockFile::new("service_progress");
    let backend = FileBackend::create(scratch.path(), &table, 64)
        .unwrap()
        .with_cache_blocks(256);
    let bitmap = BitmapIndex::build(&table, 0, &backend.layout());
    QueryService::serve(
        &backend,
        ServiceConfig::default()
            .with_workers(2)
            .with_quantum_blocks(16),
        |svc| {
            let h = svc
                .submit(QueryRequest::new(&bitmap, 0, 1, uniform(GROUPS), config()).with_seed(3))
                .unwrap();
            // Poll until some I/O is attributed mid-flight (or the query
            // finishes first — tiny quantum makes that unlikely).
            let mut saw_midflight_io = false;
            for _ in 0..10_000 {
                if h.is_done() {
                    break;
                }
                let p = h.progress();
                if p.io.blocks_read > 0 {
                    saw_midflight_io = true;
                    break;
                }
                std::thread::yield_now();
            }
            let out = h.wait();
            let finished = out.finished().expect("must finish");
            assert!(
                saw_midflight_io || finished.stats.io.blocks_read > 0,
                "attributed I/O must be observable"
            );
            let p = h.progress();
            assert_eq!(p.current_topk, finished.candidate_ids());
            assert_eq!(p.io, finished.stats.io, "final progress io == outcome io");
        },
    );
}

/// A deadline of zero must expire before any work lands; cancellation
/// must resolve even when the queue is saturated with other queries.
#[test]
fn deadlines_and_cancellation_under_load() {
    let rows = 80_000;
    let table = test_table(rows, 7);
    let scratch = TempBlockFile::new("service_deadline");
    let backend = FileBackend::create(scratch.path(), &table, 64)
        .unwrap()
        .with_cache_blocks(256);
    let bitmap = BitmapIndex::build(&table, 0, &backend.layout());
    QueryService::serve(&backend, ServiceConfig::default().with_workers(2), |svc| {
        let normal: Vec<_> = (0..4)
            .map(|i| {
                svc.submit(
                    QueryRequest::new(&bitmap, 0, 1, uniform(GROUPS), config()).with_seed(50 + i),
                )
                .unwrap()
            })
            .collect();
        let doomed = svc
            .submit(
                QueryRequest::new(&bitmap, 0, 1, uniform(GROUPS), config())
                    .with_seed(99)
                    .with_deadline(Duration::ZERO),
            )
            .unwrap();
        let cancelled = svc
            .submit(QueryRequest::new(&bitmap, 0, 1, uniform(GROUPS), config()).with_seed(98))
            .unwrap();
        cancelled.cancel();
        assert!(matches!(doomed.wait(), QueryOutcome::DeadlineExpired));
        assert!(matches!(
            cancelled.wait(),
            QueryOutcome::Cancelled | QueryOutcome::Finished(_)
        ));
        for h in &normal {
            assert!(
                matches!(h.wait(), QueryOutcome::Finished(_)),
                "deadline/cancel of one query must not disturb the others"
            );
        }
    });
}

/// Admission control: the bound rejects the (n+1)-th in-flight query
/// with `Saturated`, and frees capacity as queries finish.
#[test]
fn admission_bound_is_enforced_and_recovers() {
    let rows = 60_000;
    let table = test_table(rows, 13);
    let scratch = TempBlockFile::new("service_admission");
    let backend = FileBackend::create(scratch.path(), &table, 64).unwrap();
    let bitmap = BitmapIndex::build(&table, 0, &backend.layout());
    QueryService::serve(
        &backend,
        ServiceConfig::default()
            .with_workers(1)
            .with_max_admitted(2),
        |svc| {
            let h1 = svc
                .submit(QueryRequest::new(&bitmap, 0, 1, uniform(GROUPS), config()).with_seed(1))
                .unwrap();
            let h2 = svc
                .submit(QueryRequest::new(&bitmap, 0, 1, uniform(GROUPS), config()).with_seed(2))
                .unwrap();
            // With both slots taken *right now* a third submit may be
            // rejected; after both finish it must succeed again.
            let third = svc
                .submit(QueryRequest::new(&bitmap, 0, 1, uniform(GROUPS), config()).with_seed(3));
            if let Err(e) = &third {
                assert!(matches!(e, ServiceError::Saturated { limit: 2, .. }), "{e}");
            }
            h1.wait();
            h2.wait();
            if let Ok(h3) = third {
                h3.wait();
            }
            // Both slots free: admission must succeed.
            let h4 = svc
                .submit(QueryRequest::new(&bitmap, 0, 1, uniform(GROUPS), config()).with_seed(4))
                .expect("capacity must recover after queries finish");
            assert!(matches!(h4.wait(), QueryOutcome::Finished(_)));
        },
    );
}

/// Malformed requests on the plain `submit` path are rejected as
/// `Invalid` — the four things `QueryJob`'s constructor would assert —
/// without taking an admission slot and without disturbing the pool:
/// a query admitted before them and one admitted after them both finish.
#[test]
fn service_rejects_malformed_requests_and_keeps_serving() {
    let table = test_table(20_000, 11);
    let scratch = TempBlockFile::new("service_malformed");
    let backend = FileBackend::create(scratch.path(), &table, 64).unwrap();
    let layout = backend.layout();
    let bitmap = BitmapIndex::build(&table, 0, &layout);
    let over_x = BitmapIndex::build(&table, 1, &layout);
    let coarse = fastmatch_store::block::BlockLayout::new(table.n_rows(), 128);
    let other_layout = BitmapIndex::build(&table, 0, &coarse);
    let good = |seed| QueryRequest::new(&bitmap, 0, 1, uniform(GROUPS), config()).with_seed(seed);
    let svc_cfg = ServiceConfig::default()
        .with_workers(2)
        .with_max_admitted(2);
    QueryService::serve(&backend, svc_cfg, |svc| {
        let before = svc.submit(good(1)).unwrap();
        let malformed = [
            (
                "attribute out of range",
                QueryRequest::new(&bitmap, 0, 9, uniform(GROUPS), config()),
            ),
            (
                "target arity != |V_X|",
                QueryRequest::new(&bitmap, 0, 1, uniform(GROUPS + 1), config()),
            ),
            (
                "bitmap over the wrong attribute",
                QueryRequest::new(&over_x, 0, 1, uniform(GROUPS), config()),
            ),
            (
                "bitmap over the wrong layout",
                QueryRequest::new(&other_layout, 0, 1, uniform(GROUPS), config()),
            ),
        ];
        for (what, req) in malformed {
            let err = svc.submit(req).expect_err(what);
            assert!(matches!(err, ServiceError::Invalid(_)), "{what}: {err}");
        }
        assert!(svc.active_queries() <= 1, "a rejection kept its slot");
        // The second of two slots is still free, and the pool alive.
        let after = svc.submit(good(2)).expect("admission after rejections");
        for h in [before, after] {
            let outcome = h.wait();
            assert!(matches!(outcome, QueryOutcome::Finished(_)), "{outcome:?}");
        }
    });
}

/// Tiny tables: one block, and three — fewer blocks than a quantum or
/// a mark window — must terminate with the exact answer, at every pool
/// size.
#[test]
fn tiny_tables_terminate_across_pool_sizes() {
    for &(rows, tpb) in &[(64usize, 64usize), (192, 64)] {
        let table = test_table(rows, 3);
        let scratch = TempBlockFile::new("service_tiny");
        let backend = FileBackend::create(scratch.path(), &table, tpb).unwrap();
        let bitmap = BitmapIndex::build(&table, 0, &backend.layout());
        let cfg = HistSimConfig {
            sigma: 0.0,
            ..config()
        };
        let job = QueryJob::from_backend(&backend, &bitmap, 0, 1, uniform(GROUPS), cfg.clone());
        let mut expect = SyncMatchExec.run(&job, 7).unwrap().candidate_ids();
        expect.sort_unstable();
        for workers in [1usize, 2, 4] {
            let outcome = QueryService::serve(
                &backend,
                ServiceConfig::default().with_workers(workers),
                |svc| {
                    svc.submit(
                        QueryRequest::new(&bitmap, 0, 1, uniform(GROUPS), cfg.clone()).with_seed(7),
                    )
                    .unwrap()
                    .wait()
                },
            );
            let out = outcome
                .finished()
                .unwrap_or_else(|| panic!("{rows} rows / {workers} workers: {outcome:?}"))
                .clone();
            let mut ids = out.candidate_ids();
            ids.sort_unstable();
            assert_eq!(ids, expect, "{rows} rows / {workers} workers");
        }
    }
}

/// A corrupt page must fail exactly the queries that touch it, with
/// `Failed(Storage)`, never a panic or a hang.
#[test]
fn corrupt_page_fails_queries_cleanly() {
    let rows = 20_000;
    let table = test_table(rows, 5);
    let scratch = TempBlockFile::new("service_corrupt");
    fastmatch_store::file::write_table(scratch.path(), &table, 64).unwrap();
    let mut bytes = std::fs::read(scratch.path()).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(scratch.path(), &bytes).unwrap();
    let backend = FileBackend::open(scratch.path()).unwrap();
    let bitmap = BitmapIndex::build(&table, 0, &backend.layout());
    QueryService::serve(&backend, ServiceConfig::default(), |svc| {
        // Stage 1 wants every row of this small table, so the query must
        // reach the damaged block.
        let h = svc
            .submit(QueryRequest::new(&bitmap, 0, 1, uniform(GROUPS), config()).with_seed(1))
            .unwrap();
        match h.wait() {
            QueryOutcome::Failed(e) => {
                assert!(e.to_string().contains("corrupt"), "{e}");
            }
            other => panic!("corrupt file must fail the query, got {other:?}"),
        }
    });
}

/// A worker that panics in a query's quantum fails that query:
/// `wait()` returns `Failed` instead of blocking for good. The bitmap has
/// the table's shape but indexes its candidate codes reversed, so
/// candidate 0, about a third of the rows, is indexed with the rarest
/// value's row count, and the driver's row-count assert panics the
/// worker at the first settlement. `serve` re-raises the worker's panic
/// when it joins the pool; the handle must have resolved before that.
#[test]
fn worker_panic_fails_the_query_instead_of_hanging_its_handle() {
    let table = test_table(20_000, 5);
    let reversed: Vec<u32> = table.column(0).iter().map(|&z| 59 - z).collect();
    let other = Table::new(
        table.schema().clone(),
        vec![reversed, table.column(1).to_vec()],
    );
    let layout = BlockLayout::new(table.n_rows(), 64);
    let bitmap = BitmapIndex::build(&other, 0, &layout);
    let backend = MemBackend::new(&table, layout);
    let svc_cfg = ServiceConfig::default().with_workers(1);
    let mut resolved = None;
    let served = panic::catch_unwind(AssertUnwindSafe(|| {
        QueryService::serve(&backend, svc_cfg, |svc| {
            let req = QueryRequest::new(&bitmap, 0, 1, uniform(GROUPS), config());
            let handle = svc.submit(req.with_seed(1)).unwrap();
            let (tx, rx) = mpsc::channel();
            // The receiver is gone if the deadline passed first.
            std::thread::spawn(move || drop(tx.send(handle.wait())));
            resolved = Some(rx.recv_timeout(Duration::from_secs(60)));
        })
    }));
    match resolved {
        Some(Ok(QueryOutcome::Failed(e))) => {
            assert!(e.to_string().contains("panicked"), "{e}")
        }
        other => panic!("the handle must resolve Failed, got {other:?}"),
    }
    assert!(served.is_err(), "serve re-raises the worker's panic");
}

/// Waits for `h` until `deadline`, so that a query that never resolves
/// fails the test instead of hanging it.
fn wait_until(h: &QueryHandle, deadline: Instant) -> Option<QueryOutcome> {
    while Instant::now() < deadline {
        if let Some(outcome) = h.try_outcome() {
            return Some(outcome);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    None
}

/// Conservation: every quantum a query reads reaches its
/// statistics engine exactly once. With σ = 0 and an ε no sample count
/// can meet, a query reads the whole table and finishes exact, so each
/// matched candidate's histogram and `samples` must equal its exact
/// histogram and row count from a full `ScanExec` pass. Two workers
/// serve four queries in flight, over mem and file, for twelve seeds: a
/// quantum dropped or ingested twice changes some count, or trips the
/// driver's row-count check.
#[test]
fn every_quantum_is_ingested_exactly_once() {
    let rows = 20_000;
    let table = test_table(rows, 23);
    let scratch = TempBlockFile::new("service_conservation");
    let file = FileBackend::create(scratch.path(), &table, 64)
        .unwrap()
        .with_cache_blocks(64);
    let mem = MemBackend::new(&table, file.layout());
    let exact_cfg = HistSimConfig {
        k: 5,
        epsilon: 1e-9,
        sigma: 0.0,
        stage1_samples: 2_000,
        ..config()
    };
    let service_cfg = ServiceConfig::default()
        .with_workers(2)
        .with_quantum_blocks(8);
    let backends: [(&str, &dyn StorageBackend); 2] = [("mem", &mem), ("file", &file)];
    for (name, backend) in backends {
        let bitmap = BitmapIndex::build(&table, 0, &backend.layout());
        // Every present candidate's exact histogram and row count.
        let all = HistSimConfig {
            k: 60,
            ..exact_cfg.clone()
        };
        let job = QueryJob::from_backend(backend, &bitmap, 0, 1, uniform(GROUPS), all);
        let exact: HashMap<u32, (Vec<u64>, u64)> = ScanExec
            .run(&job, 0)
            .unwrap()
            .output
            .matches
            .iter()
            .map(|m| (m.candidate, (m.histogram.counts().to_vec(), m.samples)))
            .collect();

        let seeds: Vec<u64> = (0..12).map(|i| 500 + 11 * i).collect();
        let outcomes = QueryService::serve(backend, service_cfg, |svc| {
            let deadline = Instant::now() + Duration::from_secs(60);
            let mut outcomes = Vec::new();
            for flight in seeds.chunks(4) {
                let handles: Vec<_> = flight
                    .iter()
                    .map(|&seed| {
                        let req =
                            QueryRequest::new(&bitmap, 0, 1, uniform(GROUPS), exact_cfg.clone());
                        svc.submit(req.with_seed(seed)).unwrap()
                    })
                    .collect();
                outcomes.extend(handles.iter().map(|h| wait_until(h, deadline)));
            }
            outcomes
        });
        for (seed, outcome) in seeds.iter().zip(outcomes) {
            let at = format!("{name}, seed {seed}");
            let out = match outcome {
                Some(QueryOutcome::Finished(out)) => out,
                other => panic!("{at}: {other:?}"),
            };
            assert_eq!(
                out.stats.io.tuples_read, rows as u64,
                "{at}: whole table read once"
            );
            assert_eq!(out.output.matches.len(), 5, "{at}");
            for m in &out.output.matches {
                let want = exact.get(&m.candidate).expect("a matched candidate occurs");
                let got = (m.histogram.counts().to_vec(), m.samples);
                assert_eq!(&got, want, "{at}: candidate {}", m.candidate);
            }
        }
    }
}
