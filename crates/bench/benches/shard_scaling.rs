//! Shard-scaling microbenchmark: `ParallelMatch` end-to-end latency (the
//! query alone on a private `QueryService`, one worker per shard) at
//! 1/2/4/8 shards against the single-core `SyncMatch` baseline, in two
//! regimes — pure in-memory (measures the coordination overhead sharding
//! must amortize) and **storage-bound over the real file backend** (the
//! regime sharded ingestion is built for: every block is a checksummed
//! page read through a deliberately small cache, so shards pay fetch
//! latency concurrently while the sequential executors pay it serially).
//!
//! Interpreting results requires knowing the host's core count (printed
//! first): on a single-core host shard workers only time-slice one CPU, so
//! every shard count degenerates to baseline-plus-overhead; wall-clock
//! wins require ≥ 2 physical cores.
//!
//! Scale via `FASTMATCH_BENCH_ROWS` (default 1,000,000 rows); bound the
//! storage regime's page cache via `FASTMATCH_CACHE_BLOCKS` (default 256
//! pages — far below the working set, so reads hit the file, not the
//! cache).

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use fastmatch_core::histsim::HistSimConfig;
use fastmatch_data::gen::{conditional_with_planted_pool, generate_table, ColumnGen, ColumnSpec};
use fastmatch_data::shapes::{far_pool, uniform};
use fastmatch_engine::exec::{Executor, ParallelMatchExec, SyncMatchExec};
use fastmatch_engine::query::QueryJob;
use fastmatch_store::bitmap::BitmapIndex;
use fastmatch_store::block::BlockLayout;
use fastmatch_store::file::FileBackend;
use fastmatch_store::table::Table;

fn rows() -> usize {
    std::env::var("FASTMATCH_BENCH_ROWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000)
        .max(50_000)
}

fn cache_blocks() -> usize {
    std::env::var("FASTMATCH_CACHE_BLOCKS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
        .max(1)
}

fn fixture(rows: usize) -> Table {
    let groups = 8usize;
    let dists = conditional_with_planted_pool(
        64,
        &uniform(groups),
        &[(0, 0.0), (3, 0.02), (7, 0.04), (11, 0.05), (19, 0.06)],
        &far_pool(groups),
        0.2,
        0xf00d,
    );
    let specs = vec![
        ColumnSpec::new("z", 64, ColumnGen::PrimaryZipf { s: 1.1 }),
        ColumnSpec::new(
            "x",
            groups as u32,
            ColumnGen::Conditional { parent: 0, dists },
        ),
    ];
    generate_table(&specs, rows, 0xbeef)
}

fn cfg() -> HistSimConfig {
    HistSimConfig {
        k: 5,
        epsilon: 0.1,
        delta: 0.05,
        sigma: 0.001,
        stage1_samples: 30_000,
        ..HistSimConfig::default()
    }
}

fn bench_shard_scaling(c: &mut Criterion) {
    println!(
        "# host parallelism: {} core(s) — expect shard speedups only with >= 2",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let table = fixture(rows());
    let layout = BlockLayout::with_default_block(table.n_rows());
    let bitmap = BitmapIndex::build(&table, 0, &layout);

    // In-memory regime: ingestion is almost free, so this mostly measures
    // the coordination overhead a parallel executor must amortize.
    let job = QueryJob::new(&table, layout, &bitmap, 0, 1, uniform(8), cfg());
    c.bench_function("mem/sync_match_baseline", |b| {
        b.iter(|| black_box(SyncMatchExec.run(&job, 42).unwrap().candidate_ids()))
    });
    for shards in [1usize, 2, 4, 8] {
        c.bench_function(&format!("mem/parallel_match_{shards}_shards"), |b| {
            b.iter(|| {
                black_box(
                    ParallelMatchExec::with_shards(shards)
                        .run(&job, 42)
                        .unwrap()
                        .candidate_ids(),
                )
            })
        });
    }

    // Storage-bound regime: the same fixture persisted to a real block
    // file (rows are generated iid, so the on-disk order is already a
    // valid uniform permutation), read through a cache far smaller than
    // the working set — every measured run performs actual
    // checksum-verified file reads instead of simulated sleeps.
    // Sequential executors pay the read path serially; shard workers pay
    // it concurrently.
    let path = std::env::temp_dir().join(format!(
        "fastmatch_shard_scaling_{}.fmb",
        std::process::id()
    ));
    let backend = FileBackend::create(&path, &table, layout.tuples_per_block())
        .expect("persisting the bench fixture failed")
        .with_cache_blocks(cache_blocks());
    println!(
        "# storage regime: {} blocks on disk, cache bounded at {} pages",
        layout.num_blocks(),
        cache_blocks()
    );
    let file_job = QueryJob::from_backend(&backend, &bitmap, 0, 1, uniform(8), cfg());
    c.bench_function("storage/sync_match_baseline", |b| {
        b.iter(|| black_box(SyncMatchExec.run(&file_job, 42).unwrap().candidate_ids()))
    });
    for shards in [1usize, 2, 4, 8] {
        c.bench_function(&format!("storage/parallel_match_{shards}_shards"), |b| {
            b.iter(|| {
                black_box(
                    ParallelMatchExec::with_shards(shards)
                        .run(&file_job, 42)
                        .unwrap()
                        .candidate_ids(),
                )
            })
        });
    }
    let cs = backend.cache_stats();
    println!(
        "# storage regime cache: {} hits, {} misses (disk reads), {} evictions",
        cs.hits, cs.misses, cs.evictions
    );
    drop(backend);
    let _ = std::fs::remove_file(&path);
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_shard_scaling
}
criterion_main!(benches);
