//! Cross-executor integration tests: all four executors must return
//! guarantee-satisfying answers on structured synthetic data, and the
//! approximate ones must agree with the exact scan up to the paper's
//! tolerance semantics.

use fastmatch_core::guarantees::GroundTruth;
use fastmatch_core::histsim::{HistSimConfig, RarePruning};
use fastmatch_core::Metric;
use fastmatch_data::gen::{
    conditional_with_planted, conditional_with_planted_pool, generate_table, ColumnGen, ColumnSpec,
};
use fastmatch_data::shapes::{far_pool, uniform};
use fastmatch_engine::exec::{Executor, FastMatchExec, ScanExec, ScanMatchExec, SyncMatchExec};
use fastmatch_engine::query::QueryJob;
use fastmatch_store::backend::{MemBackend, StorageBackend};
use fastmatch_store::bitmap::BitmapIndex;
use fastmatch_store::block::BlockLayout;
use fastmatch_store::live::{LiveTable, LiveTableConfig};
use fastmatch_store::schema::{AttrDef, Schema};
use fastmatch_store::table::Table;
use fastmatch_store::tempfile::{TempBlockDir, TempBlockFile};

mod common;
use common::Served;

/// A 60-candidate dataset with 5 planted near-uniform candidates.
///
/// Sizes follow Zipf(1.2): the planted members (ids ≤ 15) all hold enough
/// tuples for stage-3 reconstruction to be cheaper than a full pass, the
/// tail is sparse enough for stage-1 pruning and block skipping to matter.
fn test_table(rows: usize, seed: u64) -> Table {
    // A tight cluster of five planted matches (τ ≈ 0 … 0.04) and a far
    // background pool (τ ≳ 0.3): the top-k boundary gap is wide, so
    // stage-2 demands stay small relative to candidate sizes once the
    // table is a million-plus rows.
    let dists = conditional_with_planted(
        60,
        &uniform(8),
        &[(0, 0.0), (2, 0.015), (5, 0.03), (9, 0.04), (15, 0.05)],
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

/// Rows for the I/O-reduction tests: large enough that HistSim's (scale-
/// free) sample complexity is well below a full pass.
const IO_TEST_ROWS: usize = 1_500_000;

fn run_all(rows: usize, seed: u64) -> Vec<(String, fastmatch_engine::result::MatchOutput)> {
    let table = test_table(rows, seed);
    let layout = BlockLayout::new(table.n_rows(), 64);
    let bitmap = BitmapIndex::build(&table, 0, &layout);
    let target = uniform(8);
    let job = QueryJob::new(&table, layout, &bitmap, 0, 1, target, config());
    let execs: Vec<Box<dyn Executor>> = vec![
        Box::new(ScanExec),
        Box::new(ScanMatchExec),
        Box::new(SyncMatchExec),
        Box::new(FastMatchExec::with_lookahead(64)),
        Box::new(Served),
    ];
    execs
        .into_iter()
        .map(|e| {
            let out = e
                .run(&job, seed.wrapping_add(1))
                .unwrap_or_else(|_| panic!("{}", e.name()));
            (e.name().to_string(), out)
        })
        .collect()
}

fn ground_truth(table: &Table) -> GroundTruth {
    GroundTruth::from_tuples(
        table
            .column(0)
            .iter()
            .zip(table.column(1))
            .map(|(&z, &x)| (z, x)),
        60,
        8,
        uniform(8),
        Metric::L1,
    )
}

#[test]
fn all_executors_satisfy_guarantees() {
    let rows = 300_000;
    let table = test_table(rows, 11);
    let gt = ground_truth(&table);
    let cfg = config();
    for (name, out) in run_all(rows, 11) {
        let ids = out.candidate_ids();
        assert_eq!(ids.len(), cfg.k, "{name}: wrong k");
        assert!(
            gt.check_separation(&ids, cfg.epsilon, cfg.sigma),
            "{name}: separation violated, ids {ids:?}, true {:?}",
            gt.true_topk(cfg.k, cfg.sigma)
        );
        assert!(
            gt.check_reconstruction(&out.output.matches, cfg.epsilon),
            "{name}: reconstruction violated"
        );
    }
}

#[test]
fn scan_returns_the_exact_topk() {
    let rows = 150_000;
    let table = test_table(rows, 7);
    let gt = ground_truth(&table);
    let layout = BlockLayout::new(table.n_rows(), 64);
    let bitmap = BitmapIndex::build(&table, 0, &layout);
    let job = QueryJob::new(&table, layout, &bitmap, 0, 1, uniform(8), config());
    let out = ScanExec.run(&job, 0).unwrap();
    assert_eq!(out.candidate_ids(), gt.true_topk(5, config().sigma));
    assert!(out.stats.exact_finish);
    assert_eq!(out.stats.io.blocks_read as usize, layout.num_blocks());
}

/// `Scan` decides rarity as the other executors and the ground truth
/// do: 7 rows of 100 are not rare at σ = 0.07, although `0.07 * 100.0`
/// rounds to just above 7. Candidate 0 is the one closest to the
/// target, so pruning it would change the answer.
#[test]
fn scan_keeps_a_candidate_exactly_at_the_rare_threshold() {
    let schema = Schema::new(vec![AttrDef::new("z", 3), AttrDef::new("x", 2)]);
    let mut z = vec![0u32; 7];
    z.extend([1; 50]);
    z.extend([2; 43]);
    // Candidate 0 splits its rows 4 : 3, candidate 1 40 : 10 and
    // candidate 2 38 : 5.
    let mut x = vec![0u32, 1, 0, 1, 0, 1, 0];
    x.extend((0..50).map(|r| u32::from(r % 5 == 0)));
    x.extend((0..43).map(|r| u32::from(r % 10 == 0)));
    let pairs: Vec<(u32, u32)> = z.iter().copied().zip(x.iter().copied()).collect();
    let table = Table::new(schema, vec![z, x]);
    let cfg = HistSimConfig {
        k: 1,
        epsilon: 0.1,
        delta: 0.05,
        sigma: 0.07,
        stage1_samples: 50,
        ..HistSimConfig::default()
    };
    let gt = GroundTruth::from_tuples(pairs, 3, 2, uniform(2), Metric::L1);
    assert_eq!(gt.true_topk(1, cfg.sigma), vec![0]);
    let layout = BlockLayout::new(table.n_rows(), 10);
    let bitmap = BitmapIndex::build(&table, 0, &layout);
    let job = QueryJob::new(&table, layout, &bitmap, 0, 1, uniform(2), cfg);
    for e in [&ScanExec as &dyn Executor, &ScanMatchExec] {
        let out = e.run(&job, 1).unwrap();
        assert_eq!(out.candidate_ids(), vec![0], "{}", e.name());
    }
}

#[test]
fn approximate_executors_read_less_than_scan() {
    let results = run_all(IO_TEST_ROWS, 23);
    let scan_blocks = results[0].1.stats.io.blocks_read;
    for (name, out) in &results[1..] {
        assert!(
            out.stats.io.blocks_read < scan_blocks,
            "{name} read {} blocks, scan read {scan_blocks}",
            out.stats.io.blocks_read
        );
    }
}

#[test]
fn fastmatch_skips_blocks_in_stage2() {
    let results = run_all(IO_TEST_ROWS, 31);
    let fast = &results[3].1;
    assert!(
        fast.stats.io.blocks_skipped > 0,
        "FastMatch never skipped a block"
    );
}

#[test]
fn executors_agree_across_seeds() {
    // The planted top-1 (candidate 0, exact uniform) must always be ranked
    // first by every executor.
    for seed in [1u64, 2, 3] {
        for (name, out) in run_all(200_000, seed) {
            assert_eq!(
                out.candidate_ids()[0],
                0,
                "{name} seed {seed}: wrong best candidate"
            );
        }
    }
}

#[test]
fn tiny_table_degenerates_to_exact() {
    // Table smaller than the stage-1 sample budget: every executor must
    // still terminate and return the true top-k.
    let rows = 5_000;
    let table = test_table(rows, 3);
    let gt = ground_truth(&table);
    let truth = gt.true_topk(5, 0.0);
    let layout = BlockLayout::new(table.n_rows(), 64);
    let bitmap = BitmapIndex::build(&table, 0, &layout);
    let cfg = HistSimConfig {
        sigma: 0.0,
        ..config()
    };
    let job = QueryJob::new(&table, layout, &bitmap, 0, 1, uniform(8), cfg);
    let execs: Vec<Box<dyn Executor>> = vec![
        Box::new(ScanMatchExec),
        Box::new(SyncMatchExec),
        Box::new(FastMatchExec::with_lookahead(16)),
        Box::new(Served),
    ];
    for e in execs {
        let out = e.run(&job, 77).unwrap_or_else(|_| panic!("{}", e.name()));
        let mut ids = out.candidate_ids();
        ids.sort_unstable();
        let mut expect = truth.clone();
        expect.sort_unstable();
        assert_eq!(ids, expect, "{}", e.name());
    }
}

#[test]
fn sigma_zero_disables_pruning() {
    let rows = 100_000;
    let table = test_table(rows, 9);
    let layout = BlockLayout::new(table.n_rows(), 64);
    let bitmap = BitmapIndex::build(&table, 0, &layout);
    let cfg = HistSimConfig {
        sigma: 0.0,
        ..config()
    };
    let job = QueryJob::new(&table, layout, &bitmap, 0, 1, uniform(8), cfg);
    let out = ScanMatchExec.run(&job, 5).unwrap();
    assert_eq!(out.stats.pruned, 0);
}

/// The second matrix dataset: 48 candidates with four planted members
/// and a far background pool — different cardinality, plant structure
/// and Zipf skew than [`test_table`].
fn pool_table(rows: usize, seed: u64) -> Table {
    let dists = conditional_with_planted_pool(
        48,
        &uniform(8),
        &[(0, 0.0), (4, 0.03), (9, 0.05), (17, 0.07)],
        &far_pool(8),
        0.2,
        seed ^ 0x51,
    );
    let specs = vec![
        ColumnSpec::new("z", 48, ColumnGen::PrimaryZipf { s: 1.1 }),
        ColumnSpec::new("x", 8, ColumnGen::Conditional { parent: 0, dists }),
    ];
    generate_table(&specs, rows, seed)
}

/// The executor-equivalence matrix: all four executors and the served
/// query × four storage backends × two datasets × two block layouts ×
/// both stage-1 modes (pruning from the index's row counts, and the
/// paper's sampled test).
/// On the planted fixtures
/// the correct matched set is unambiguous, so every cell must return the
/// *identical* matched set and reach the same guarantee level — which
/// covers every future executor or backend addition by construction (new
/// rows/columns drop into the same loops).
#[test]
fn executor_backend_dataset_layout_matrix() {
    struct Dataset {
        name: &'static str,
        table: Table,
        candidates: usize,
        cfg: HistSimConfig,
    }
    let rows = 100_000;
    let datasets = [
        Dataset {
            name: "planted60",
            table: test_table(rows, 19),
            candidates: 60,
            cfg: config(),
        },
        Dataset {
            name: "pool48",
            table: pool_table(rows, 19),
            candidates: 48,
            cfg: HistSimConfig {
                k: 4,
                epsilon: 0.1,
                delta: 0.05,
                sigma: 0.001,
                stage1_samples: 15_000,
                ..HistSimConfig::default()
            },
        },
    ];
    let executors = || -> Vec<Box<dyn Executor>> {
        vec![
            Box::new(ScanExec),
            Box::new(ScanMatchExec),
            Box::new(SyncMatchExec),
            Box::new(FastMatchExec::with_lookahead(64)),
            Box::new(Served),
        ]
    };
    for ds in &datasets {
        let gt = GroundTruth::from_tuples(
            ds.table
                .column(0)
                .iter()
                .zip(ds.table.column(1))
                .map(|(&z, &x)| (z, x)),
            ds.candidates,
            8,
            uniform(8),
            Metric::L1,
        );
        let mut truth = gt.true_topk(ds.cfg.k, ds.cfg.sigma);
        truth.sort_unstable();
        for tuples_per_block in [64usize, 150] {
            let layout = BlockLayout::new(ds.table.n_rows(), tuples_per_block);
            let bitmap = BitmapIndex::build(&ds.table, 0, &layout);
            // A cache far below the block count forces real disk reads
            // with eviction churn in the file columns of the matrix.
            let scratch = TempBlockFile::new("exec_matrix");
            let file_backend = fastmatch_store::file::FileBackend::create(
                scratch.path(),
                &ds.table,
                tuples_per_block,
            )
            .unwrap()
            .with_cache_blocks(128);
            // A cache smaller than one chunk of a run read (64 blocks ×
            // 2 attributes), so every chunk evicts its own pages while it
            // is being served.
            let file_tiny_cache = fastmatch_store::file::FileBackend::open(scratch.path())
                .unwrap()
                .with_cache_blocks(40);
            let mem_backend = MemBackend::new(&ds.table, layout);
            // The live-snapshot column: the same rows appended (in table
            // order, so the shared bitmap stays exact) into a LiveTable
            // with inline sealing, then snapshotted — every cell runs
            // over a mix of sealed segment files and the in-memory tail.
            let live_dir = TempBlockDir::new("exec_matrix_live");
            let live = LiveTable::new(
                ds.table.schema().clone(),
                LiveTableConfig::default()
                    .with_tuples_per_block(tuples_per_block)
                    .with_blocks_per_segment(16)
                    .with_segment_dir(live_dir.path())
                    .with_background_sealer(false),
            )
            .unwrap();
            let columns: Vec<Vec<u32>> = (0..ds.table.schema().len())
                .map(|a| ds.table.column(a).to_vec())
                .collect();
            live.append_batch(&columns).unwrap();
            let live_snapshot = live.snapshot();
            assert!(
                live.stats().persisted_segments > 0,
                "live column never sealed a segment"
            );
            assert!(
                live_snapshot.tail_rows() > 0,
                "live column has no in-memory tail"
            );
            let backends: [(&str, &dyn StorageBackend); 4] = [
                ("mem", &mem_backend),
                ("file", &file_backend),
                ("file-cache<chunk", &file_tiny_cache),
                ("live-snapshot", &live_snapshot),
            ];
            for (backend_name, backend) in backends {
                for rare in [RarePruning::FromCounts, RarePruning::Sampled] {
                    let cfg = HistSimConfig {
                        rare,
                        ..ds.cfg.clone()
                    };
                    for e in executors() {
                        let cell = format!(
                            "{} × {} × tpb{} × {} × {:?}",
                            e.name(),
                            backend_name,
                            tuples_per_block,
                            ds.name,
                            rare
                        );
                        let job =
                            QueryJob::from_backend(backend, &bitmap, 0, 1, uniform(8), cfg.clone());
                        let out = e
                            .run(&job, 19)
                            .unwrap_or_else(|err| panic!("{cell}: {err}"));
                        let mut ids = out.candidate_ids();
                        ids.sort_unstable();
                        assert_eq!(ids, truth, "{cell}: matched set diverged");
                        // Same guarantee level everywhere: both guarantees
                        // certified (trivially so for the exact cells).
                        assert!(
                            gt.check_separation(&out.candidate_ids(), cfg.epsilon, cfg.sigma),
                            "{cell}: separation violated"
                        );
                        assert!(
                            gt.check_reconstruction(&out.output.matches, cfg.epsilon),
                            "{cell}: reconstruction violated"
                        );
                        if e.name() == "Scan" {
                            assert!(out.stats.exact_finish, "{cell}: Scan must be exact");
                        } else {
                            assert_eq!(out.stats.rare_pruning, rare, "{cell}");
                        }
                        assert!(out.stats.io.blocks_read > 0, "{cell}: no blocks read");
                    }
                }
            }
            let cs = file_backend.cache_stats();
            assert!(cs.misses > 0, "file cells never touched the disk");
            assert!(cs.evictions > 0, "bounded cache never evicted");
        }
    }
}

/// A served query is one task that one worker at a time advances, so a
/// fixed seed replays one schedule on a 2-worker pool: everything a run
/// reports but its wall time is identical across runs, over memory and
/// over files. The table is large enough for stage 2 to skip blocks,
/// where a timing-dependent driver would diverge first.
#[test]
fn served_query_replays_exactly() {
    let table = test_table(600_000, 29);
    let layout = BlockLayout::new(table.n_rows(), 64);
    let bitmap = BitmapIndex::build(&table, 0, &layout);
    let mem = MemBackend::new(&table, layout);
    let tmp = TempBlockFile::new("exec_replay");
    let file = fastmatch_store::file::FileBackend::create(tmp.path(), &table, 64).unwrap();
    let backends: [(&str, &dyn StorageBackend); 2] = [("mem", &mem), ("file", &file)];
    for (name, backend) in backends {
        let job = QueryJob::from_backend(backend, &bitmap, 0, 1, uniform(8), config());
        let replay = || {
            let out = Served.run(&job, 13).unwrap();
            let s = &out.stats;
            let io = (s.io.blocks_read, s.io.blocks_skipped);
            (out.candidate_ids(), s.samples, s.stage2_rounds, io)
        };
        let first = replay();
        assert!(first.3 .1 > 0, "{name}: the run must skip blocks");
        for run in 1..20 {
            assert_eq!(replay(), first, "{name}: run {run} diverged from run 0");
        }
    }
}

#[test]
fn empty_table_errors_instead_of_hanging() {
    let table = test_table(0, 3);
    let layout = BlockLayout::new(0, 64);
    let bitmap = BitmapIndex::build(&table, 0, &layout);
    let job = QueryJob::new(&table, layout, &bitmap, 0, 1, uniform(8), config());
    let execs: Vec<Box<dyn Executor>> = vec![
        Box::new(ScanMatchExec),
        Box::new(SyncMatchExec),
        Box::new(FastMatchExec::with_lookahead(16)),
        Box::new(Served),
    ];
    for e in execs {
        assert!(
            e.run(&job, 1).is_err(),
            "{}: empty table must be a clean error",
            e.name()
        );
    }
}

/// A corrupt page must fail every executor — including the served
/// query — with `CoreError::Storage`, not a panic or a silently wrong
/// answer.
#[test]
fn corrupt_page_fails_all_executors_with_storage_error() {
    let table = test_table(20_000, 5);
    let scratch = TempBlockFile::new("exec_corrupt");
    let path = scratch.path();
    fastmatch_store::file::write_table(path, &table, 64).unwrap();
    // Damage one byte in the middle of the page region.
    let mut bytes = std::fs::read(path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(path, &bytes).unwrap();
    let backend = fastmatch_store::file::FileBackend::open(path).unwrap();
    let bitmap = BitmapIndex::build(&table, 0, &backend.layout());
    let execs: Vec<Box<dyn Executor>> = vec![
        Box::new(ScanExec),
        Box::new(ScanMatchExec),
        Box::new(SyncMatchExec),
        Box::new(FastMatchExec::with_lookahead(64)),
        Box::new(Served),
    ];
    for e in execs {
        // Stage 1 wants every row of this small table, so each executor
        // must reach the damaged block before it can terminate.
        let job = QueryJob::from_backend(&backend, &bitmap, 0, 1, uniform(8), config());
        match e.run(&job, 1) {
            Err(fastmatch_core::error::CoreError::Storage(msg)) => {
                assert!(msg.contains("corrupt"), "{}: {msg}", e.name())
            }
            Err(other) => panic!("{}: wrong error kind: {other}", e.name()),
            Ok(_) => panic!("{}: run over a corrupt file succeeded", e.name()),
        }
    }
}

#[test]
fn lookahead_size_does_not_change_correctness() {
    let rows = 200_000;
    let table = test_table(rows, 13);
    let gt = ground_truth(&table);
    let layout = BlockLayout::new(table.n_rows(), 64);
    let bitmap = BitmapIndex::build(&table, 0, &layout);
    for lookahead in [8usize, 64, 1024, 8192] {
        let job = QueryJob::new(&table, layout, &bitmap, 0, 1, uniform(8), config());
        let out = FastMatchExec::with_lookahead(lookahead)
            .run(&job, 99)
            .unwrap();
        assert!(
            gt.check_separation(&out.candidate_ids(), config().epsilon, config().sigma),
            "lookahead {lookahead}"
        );
    }
}
