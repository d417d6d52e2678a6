//! Snapshot consistency under live ingestion — the acceptance tests of
//! the live-table subsystem.
//!
//! The contract under test: with writers appending concurrently, every
//! executor over a [`Snapshot`] returns the exact matched set and
//! guarantee level of a serial run over a **frozen copy taken at the
//! same watermark** — the snapshot materialized to an in-memory table
//! and queried through the classic `MemBackend` path. The fixtures are
//! planted (wide top-k boundary gap), so the correct matched set at any
//! sufficiently deep prefix is unambiguous and set equality is a sound
//! assertion for the served query too.

use std::sync::Arc;

use fastmatch_core::guarantees::GroundTruth;
use fastmatch_core::histsim::HistSimConfig;
use fastmatch_core::Metric;
use fastmatch_data::gen::{conditional_with_planted, generate_table, ColumnGen, ColumnSpec};
use fastmatch_data::shapes::uniform;
use fastmatch_data::AppendBatches;
use fastmatch_engine::exec::{Executor, FastMatchExec, ScanExec, ScanMatchExec, SyncMatchExec};
use fastmatch_engine::query::QueryJob;
use fastmatch_engine::service::{
    QueryOutcome, QueryService, ServiceConfig, ServiceError, SnapshotRequest,
};
use fastmatch_store::backend::{MemBackend, StorageBackend};
use fastmatch_store::bitmap::BitmapIndex;
use fastmatch_store::block::BlockLayout;
use fastmatch_store::live::{LiveTable, LiveTableConfig};
use fastmatch_store::table::Table;
use fastmatch_store::tempfile::TempBlockDir;

mod common;
use common::Served;

const CANDIDATES: usize = 60;
const GROUPS: usize = 8;

/// The same planted fixture the executor matrix uses: five tightly
/// planted near-uniform candidates against a far background pool, so
/// the correct top-5 is unambiguous at any ≥ 50k-row prefix.
fn fixture(rows: usize, seed: u64) -> Table {
    let dists = conditional_with_planted(
        CANDIDATES,
        &uniform(GROUPS),
        &[(0, 0.0), (2, 0.015), (5, 0.03), (9, 0.04), (15, 0.05)],
        0.20,
        seed ^ 0xab,
    );
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

fn executors() -> Vec<Box<dyn Executor>> {
    vec![
        Box::new(ScanExec),
        Box::new(ScanMatchExec),
        Box::new(SyncMatchExec),
        Box::new(FastMatchExec::with_lookahead(64)),
        Box::new(Served),
    ]
}

fn seed() -> u64 {
    std::env::var("FASTMATCH_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(42)
}

/// Spawns `n` appenders that interleave disjoint stripes of `table`
/// into `live` until every row is in, then runs `body` while they work.
fn with_concurrent_ingest<R>(
    live: &LiveTable,
    table: &Table,
    n: usize,
    body: impl FnOnce() -> R,
) -> R {
    std::thread::scope(|scope| {
        for w in 0..n {
            let live = &live;
            let table = &table;
            scope.spawn(move || {
                let rows = table.n_rows();
                let per = rows.div_ceil(n);
                let (lo, hi) = (w * per, ((w + 1) * per).min(rows));
                let mut pos = lo;
                while pos < hi {
                    let end = (pos + 120).min(hi);
                    let batch: Vec<Vec<u32>> = (0..table.schema().len())
                        .map(|a| table.column(a)[pos..end].to_vec())
                        .collect();
                    live.append_batch(&batch).unwrap();
                    pos = end;
                }
            });
        }
        body()
    })
}

/// The acceptance test: executors over a mid-ingest snapshot ==
/// serial runs over the frozen copy at the same watermark.
#[test]
fn executors_over_snapshot_equal_frozen_copy_at_same_watermark() {
    let seed = seed();
    let rows = 150_000;
    let table = fixture(rows, seed);
    let dir = TempBlockDir::new("live_exec_equiv");
    let live = LiveTable::new(
        table.schema().clone(),
        LiveTableConfig::default()
            .with_tuples_per_block(64)
            .with_blocks_per_segment(16)
            .with_segment_dir(dir.path()),
    )
    .unwrap();

    let snap = with_concurrent_ingest(&live, &table, 4, || {
        // Wait until the table is deep enough for the plants to be
        // unambiguous, then snapshot *while appenders are running*.
        while live.n_rows() < 100_000 {
            std::thread::yield_now();
        }
        live.snapshot()
    });
    assert!(
        snap.n_rows() >= 100_000,
        "snapshot watermark: {}",
        snap.n_rows()
    );

    // The frozen copy at the same watermark, queried the classic way.
    let frozen = snap.to_table().unwrap();
    assert_eq!(frozen.n_rows(), snap.n_rows());
    let layout = BlockLayout::new(frozen.n_rows(), 64);
    let mem = MemBackend::new(&frozen, layout);
    let bitmap = BitmapIndex::build(&frozen, 0, &layout);
    let gt = GroundTruth::from_tuples(
        frozen
            .column(0)
            .iter()
            .zip(frozen.column(1))
            .map(|(&z, &x)| (z, x)),
        CANDIDATES,
        GROUPS,
        uniform(GROUPS),
        Metric::L1,
    );
    let cfg = config();

    for e in executors() {
        let snap_job = QueryJob::from_snapshot(&snap, 0, 1, uniform(GROUPS), cfg.clone());
        let frozen_job = QueryJob::from_backend(&mem, &bitmap, 0, 1, uniform(GROUPS), cfg.clone());
        let live_out = e.run(&snap_job, seed).unwrap_or_else(|err| {
            panic!("{} over snapshot: {err}", e.name());
        });
        let frozen_out = e.run(&frozen_job, seed).unwrap_or_else(|err| {
            panic!("{} over frozen copy: {err}", e.name());
        });
        let mut live_ids = live_out.candidate_ids();
        let mut frozen_ids = frozen_out.candidate_ids();
        live_ids.sort_unstable();
        frozen_ids.sort_unstable();
        assert_eq!(live_ids, frozen_ids, "{}: matched set diverged", e.name());
        // Same guarantee level: both certify separation + reconstruction
        // against the watermark's ground truth…
        assert!(
            gt.check_separation(&live_out.candidate_ids(), cfg.epsilon, cfg.sigma),
            "{}: separation over snapshot",
            e.name()
        );
        assert!(
            gt.check_reconstruction(&live_out.output.matches, cfg.epsilon),
            "{}: reconstruction over snapshot",
            e.name()
        );
        // …and the deterministic executors finish in the identical mode.
        if matches!(e.name(), "Scan" | "ScanMatch" | "SyncMatch") {
            assert_eq!(
                live_out.stats.exact_finish,
                frozen_out.stats.exact_finish,
                "{}: finish mode diverged",
                e.name()
            );
        }
        if e.name() == "Scan" {
            assert!(live_out.stats.exact_finish, "Scan must be exact");
            assert_eq!(
                live_out.stats.io.blocks_read as usize,
                snap.layout().num_blocks(),
                "Scan must read the whole snapshot"
            );
        }
    }
}

/// Recovery is invisible to the engine: shut a live table down (sealed
/// segments + WAL tail on disk, compaction churning underneath), reopen
/// it, and every executor over the recovered snapshot computes the
/// same matched set as over the pre-shutdown snapshot — which the
/// blockwise comparison pins down as bit-identical state, not just
/// agreeing answers.
#[test]
fn executors_over_recovered_snapshot_equal_pre_shutdown_run() {
    let seed = seed();
    let table = fixture(120_000, seed ^ 0x31);
    let dir = TempBlockDir::new("live_exec_recover");
    let cfg_live = LiveTableConfig::default()
        .with_tuples_per_block(64)
        .with_blocks_per_segment(16)
        .with_coalesce_segments(2)
        .with_compaction(4)
        .with_segment_dir(dir.path());
    let live = LiveTable::new(table.schema().clone(), cfg_live.clone()).unwrap();
    for batch in AppendBatches::new(table.clone(), 4_096) {
        live.append_batch(&batch).unwrap();
    }
    let before_snap = live.snapshot();
    drop(live); // clean shutdown: the tail rows survive only in the WAL

    let reopened = LiveTable::open(table.schema().clone(), cfg_live).unwrap();
    assert_eq!(reopened.n_rows() as usize, table.n_rows());
    let stats = reopened.stats();
    assert!(
        stats.recovered_rows > 0,
        "the WAL tail must replay: {stats:?}"
    );
    let snap = reopened.snapshot();
    let (before, after) = (before_snap.to_table().unwrap(), snap.to_table().unwrap());
    assert_eq!(before.n_rows(), after.n_rows());
    for attr in 0..table.schema().len() {
        assert_eq!(before.column(attr), after.column(attr), "attr {attr}");
    }
    let cfg = config();
    for e in executors() {
        let before_job = QueryJob::from_snapshot(&before_snap, 0, 1, uniform(GROUPS), cfg.clone());
        let after_job = QueryJob::from_snapshot(&snap, 0, 1, uniform(GROUPS), cfg.clone());
        let mut want = e
            .run(&before_job, seed)
            .unwrap_or_else(|err| panic!("{} before shutdown: {err}", e.name()))
            .candidate_ids();
        let mut got = e
            .run(&after_job, seed)
            .unwrap_or_else(|err| panic!("{} after recovery: {err}", e.name()))
            .candidate_ids();
        want.sort_unstable();
        got.sort_unstable();
        assert_eq!(
            got,
            want,
            "{}: matched set diverged after recovery",
            e.name()
        );
    }
}

/// A snapshot's results are frozen: appending afterwards must not
/// change what any executor computes over the old snapshot.
#[test]
fn snapshot_results_survive_later_appends() {
    let seed = seed();
    let table = fixture(60_000, seed ^ 0x77);
    let live = LiveTable::new(
        table.schema().clone(),
        LiveTableConfig::default()
            .with_tuples_per_block(64)
            .with_blocks_per_segment(8),
    )
    .unwrap();
    for batch in AppendBatches::new(table.clone(), 4_096) {
        live.append_batch(&batch).unwrap();
    }
    let snap = live.snapshot();
    let cfg = config();
    let before = {
        let job = QueryJob::from_snapshot(&snap, 0, 1, uniform(GROUPS), cfg.clone());
        SyncMatchExec.run(&job, seed).unwrap()
    };
    // Pile on more rows (the same distribution, so this is pure noise
    // from the snapshot's point of view).
    for batch in AppendBatches::new(fixture(30_000, seed ^ 0x99), 4_096) {
        live.append_batch(&batch).unwrap();
    }
    let after = {
        let job = QueryJob::from_snapshot(&snap, 0, 1, uniform(GROUPS), cfg.clone());
        SyncMatchExec.run(&job, seed).unwrap()
    };
    assert_eq!(snap.n_rows(), 60_000);
    assert_eq!(before.candidate_ids(), after.candidate_ids());
    assert_eq!(before.stats.samples, after.stats.samples);
    assert_eq!(before.stats.io.blocks_read, after.stats.io.blocks_read);
}

/// Service admission over a live table: queries run over fresh
/// per-admission snapshots while writers append, and each outcome
/// equals a serial run over that snapshot's frozen copy.
#[test]
fn service_admits_snapshot_queries_under_concurrent_ingest() {
    let seed = seed();
    let rows = 120_000;
    let table = fixture(rows, seed ^ 0x5);
    let live = LiveTable::new(
        table.schema().clone(),
        LiveTableConfig::default()
            .with_tuples_per_block(64)
            .with_blocks_per_segment(16),
    )
    .unwrap();
    // Preload enough rows that every admission's snapshot is deep, then
    // keep appending the rest during service operation.
    let preload: Vec<Vec<u32>> = (0..table.schema().len())
        .map(|a| table.column(a)[..90_000].to_vec())
        .collect();
    live.append_batch(&preload).unwrap();

    let cfg = config();
    std::thread::scope(|scope| {
        let appender = {
            let live = &live;
            let table = &table;
            scope.spawn(move || {
                let mut pos = 90_000usize;
                while pos < table.n_rows() {
                    let end = (pos + 256).min(table.n_rows());
                    let batch: Vec<Vec<u32>> = (0..table.schema().len())
                        .map(|a| table.column(a)[pos..end].to_vec())
                        .collect();
                    live.append_batch(&batch).unwrap();
                    pos = end;
                }
            })
        };
        // A base backend for the service scope (admissions use their own
        // fresh snapshots).
        let base = live.snapshot();
        QueryService::serve(&base, ServiceConfig::default(), |svc| {
            let mut watermarks = Vec::new();
            for q in 0..4u64 {
                let (snap, handle) = svc
                    .submit_live(
                        &live,
                        SnapshotRequest::new(0, 1, uniform(GROUPS), cfg.clone())
                            .with_seed(seed.wrapping_add(q)),
                    )
                    .expect("admission over live table");
                let outcome = handle.wait();
                let out = match outcome {
                    QueryOutcome::Finished(out) => out,
                    other => panic!("query {q} did not finish: {other:?}"),
                };
                // Serial reference over the same watermark.
                let frozen = snap.to_table().unwrap();
                let layout = BlockLayout::new(frozen.n_rows(), 64);
                let mem = MemBackend::new(&frozen, layout);
                let bitmap = BitmapIndex::build(&frozen, 0, &layout);
                let job = QueryJob::from_backend(&mem, &bitmap, 0, 1, uniform(GROUPS), cfg.clone());
                let reference = SyncMatchExec.run(&job, seed.wrapping_add(q)).unwrap();
                let mut got = out.candidate_ids();
                let mut want = reference.candidate_ids();
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "query {q} at watermark {}", snap.n_rows());
                assert!(out.stats.io.blocks_read > 0, "query {q}: attributed I/O");
                watermarks.push(snap.n_rows());
            }
            // Watermarks are monotone: later admissions see no fewer rows.
            for pair in watermarks.windows(2) {
                assert!(pair[1] >= pair[0], "watermarks regressed: {watermarks:?}");
            }
        });
        appender.join().unwrap();
    });
    assert_eq!(live.n_rows() as usize, rows);
}

/// Malformed snapshot requests are rejected as `Invalid`, and an empty
/// live table cannot be queried (no rows ⇒ the driver refuses).
#[test]
fn service_rejects_bad_snapshot_requests() {
    let table = fixture(4_096, 3);
    let live = LiveTable::new(
        table.schema().clone(),
        LiveTableConfig::default().with_tuples_per_block(64),
    )
    .unwrap();
    let base = live.snapshot(); // empty
    QueryService::serve(&base, ServiceConfig::default(), |svc| {
        // Empty snapshot: admission must fail cleanly, not hang.
        let err = svc
            .submit_live(&live, SnapshotRequest::new(0, 1, uniform(GROUPS), config()))
            .unwrap_err();
        assert!(matches!(err, ServiceError::Invalid(_)), "{err}");
        // Bad attribute index.
        let err = svc
            .submit_snapshot(
                Arc::new(live.snapshot()),
                SnapshotRequest::new(9, 1, uniform(GROUPS), config()),
            )
            .unwrap_err();
        assert!(matches!(err, ServiceError::Invalid(_)), "{err}");
        // Bad target arity.
        let err = svc
            .submit_snapshot(
                Arc::new(live.snapshot()),
                SnapshotRequest::new(0, 1, vec![1.0; GROUPS + 1], config()),
            )
            .unwrap_err();
        assert!(matches!(err, ServiceError::Invalid(_)), "{err}");
        // After appending data, the same request shape is admissible.
        for batch in AppendBatches::new(table.clone(), 1_024) {
            live.append_batch(&batch).unwrap();
        }
        let (snap, handle) = svc
            .submit_live(&live, SnapshotRequest::new(0, 1, uniform(GROUPS), config()))
            .expect("live admission after appends");
        assert_eq!(snap.n_rows(), 4_096);
        assert!(matches!(handle.wait(), QueryOutcome::Finished(_)));
    });
}
