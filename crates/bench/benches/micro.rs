//! Criterion microbenchmarks of the algorithmic kernels: hypergeometric
//! P-values (stage 1), Theorem-1 bounds (stage 2/3), distance evaluation,
//! Holm–Bonferroni, bitmap probing and lookahead marking — of the
//! file backend's page load (`file_page_load`, ns per 600-byte page by
//! read path) — and of the per-query costs that grow with |V_Z| or the
//! table: consumption tracking's start (`tracker_init`), one demand
//! publication (`publish`) and an in-memory run read (`mem_run_read`).

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use fastmatch_core::stats::deviation::DeviationBound;
use fastmatch_core::stats::holm_bonferroni::HolmBonferroni;
use fastmatch_core::stats::hypergeometric::underrepresentation_pvalues;
use fastmatch_core::Metric;
use fastmatch_engine::progress::ConsumptionTracker;
use fastmatch_engine::shared::{DemandMode, SharedDemand};
use fastmatch_store::backend::{MemBackend, StorageBackend};
use fastmatch_store::bitmap::BitmapIndex;
use fastmatch_store::block::BlockLayout;
use fastmatch_store::checksum::fnv1a64;
use fastmatch_store::file::FileBackend;
use fastmatch_store::io::BlockReader;
use fastmatch_store::schema::{AttrDef, Schema};
use fastmatch_store::table::Table;
use fastmatch_store::tempfile::TempBlockFile;

fn bench_hypergeometric(c: &mut Criterion) {
    // TAXI-scale stage 1: 7641 candidates, 500k draws from 600M rows.
    let n_is: Vec<u64> = (0..7641u64).map(|i| (i * 37) % 1200).collect();
    c.bench_function("stage1_hypergeometric_pvalues_7641", |b| {
        b.iter(|| {
            underrepresentation_pvalues(
                black_box(&n_is),
                black_box(600_000_000),
                black_box(0.0008),
                black_box(500_000),
            )
        })
    });
}

fn bench_deviation(c: &mut Criterion) {
    let bound = DeviationBound::L1 { groups: 24 };
    c.bench_function("theorem1_samples_needed", |b| {
        b.iter(|| bound.samples_needed(black_box(0.04), black_box(0.003)))
    });
    c.bench_function("theorem1_pvalue", |b| {
        b.iter(|| bound.pvalue(black_box(0.05), black_box(120_000)))
    });
}

fn bench_distance(c: &mut Criterion) {
    let p: Vec<f64> = (0..351).map(|i| (i + 1) as f64).collect();
    let total: f64 = p.iter().sum();
    let p: Vec<f64> = p.iter().map(|x| x / total).collect();
    let q = vec![1.0 / 351.0; 351];
    c.bench_function("l1_distance_351_groups", |b| {
        b.iter(|| Metric::L1.eval(black_box(&p), black_box(&q)))
    });
    c.bench_function("l2_distance_351_groups", |b| {
        b.iter(|| Metric::L2.eval(black_box(&p), black_box(&q)))
    });
}

fn bench_holm_bonferroni(c: &mut Criterion) {
    let pvals: Vec<f64> = (0..2110)
        .map(|i| ((i * 811) % 1000) as f64 / 1000.0)
        .collect();
    c.bench_function("holm_bonferroni_2110", |b| {
        b.iter(|| HolmBonferroni::test(black_box(&pvals), 0.0033))
    });
}

fn bitmap_fixture() -> (BitmapIndex, usize) {
    // 2000 candidates over 10_000 blocks of 150 tuples.
    let rows = 1_500_000usize;
    let col: Vec<u32> = (0..rows)
        .map(|r| ((r * 2654435761) % 2000) as u32)
        .collect();
    let t = Table::new(Schema::new(vec![AttrDef::new("z", 2000)]), vec![col]);
    let layout = BlockLayout::new(rows, 150);
    let nb = layout.num_blocks();
    (BitmapIndex::build(&t, 0, &layout), nb)
}

fn bench_bitmap(c: &mut Criterion) {
    let (idx, nb) = bitmap_fixture();
    c.bench_function("bitmap_probe_algorithm2_style", |b| {
        // per-block, per-candidate probing of 64 active candidates
        let active: Vec<u32> = (0..64).map(|i| i * 31).collect();
        b.iter(|| {
            let mut hits = 0u32;
            for blk in 0..256usize {
                for &cand in &active {
                    if idx.block_has(cand, blk) {
                        hits += 1;
                        break;
                    }
                }
            }
            hits
        })
    });
    c.bench_function("bitmap_mark_lookahead_algorithm3_style", |b| {
        let active: Vec<u32> = (0..64).map(|i| i * 31).collect();
        let mut marks = vec![false; 1024];
        b.iter(|| {
            marks.iter_mut().for_each(|m| *m = false);
            for &cand in &active {
                idx.mark_active_range(cand, black_box(nb / 2), &mut marks);
            }
            marks.iter().filter(|&&m| m).count()
        })
    });
}

/// ns per page of the file backend's read paths over a page-cached
/// file of the paper's 600-byte pages. Every iteration loads the same
/// `PAGES` pages, so the printed time divided by `PAGES` is the figure;
/// the three miss paths run against a cache too small to ever hit. The
/// file is 3.2 MB, so the whole group is smoke-sized as it stands.
fn bench_file_page_load(c: &mut Criterion) {
    const TPB: usize = 150;
    let rows = 400_000usize;
    let cols: Vec<Vec<u32>> = (0..2u32)
        .map(|a| {
            (0..rows as u32)
                .map(|r| r.wrapping_mul(40503 + a) % 97)
                .collect()
        })
        .collect();
    let table = Table::new(
        Schema::new(vec![AttrDef::new("z", 97), AttrDef::new("x", 97)]),
        cols,
    );
    let scratch = TempBlockFile::new("micro_page_load");
    let open = |cache_pages: usize| {
        FileBackend::create(scratch.path(), &table, TPB)
            .expect("persist failed")
            .with_cache_blocks(cache_pages)
    };
    let nb = table.n_rows().div_ceil(TPB);
    const BLOCKS: usize = 1024;
    const PAGES: usize = 2 * BLOCKS;
    let (mut zs, mut xs) = (Vec::new(), Vec::new());

    // What one page costs before any of this PR's batching: the
    // single-stream checksum alone, and the single-page read.
    let page = vec![0x5au8; TPB * 4];
    c.bench_function("file_page_load/serial_fnv1a64_only_x2048", |b| {
        b.iter(|| (0..PAGES as u64).fold(0, |acc, i| acc ^ fnv1a64(i, black_box(&page))))
    });
    let cold = open(8);
    let mut start = 0usize;
    let mut next_window = move || {
        // A fresh window each iteration: nothing of it is still cached.
        start = (start + BLOCKS) % (nb - BLOCKS);
        start
    };
    c.bench_function("file_page_load/miss_single_page_x2048", |b| {
        b.iter(|| {
            let s = next_window();
            for blk in s..s + BLOCKS {
                cold.read_block_into(blk, 0, &mut zs).expect("read failed");
                cold.read_block_into(blk, 1, &mut xs).expect("read failed");
            }
        })
    });
    c.bench_function("file_page_load/miss_pair_path_x2048", |b| {
        b.iter(|| {
            let s = next_window();
            for blk in s..s + BLOCKS {
                cold.read_block_pair_into(blk, 0, 1, &mut zs, &mut xs)
                    .expect("read failed");
            }
        })
    });
    c.bench_function("file_page_load/miss_run_path_x2048", |b| {
        b.iter(|| {
            let s = next_window();
            cold.read_run_pair_into(s..s + BLOCKS, 0, 1, &mut zs, &mut xs, &mut |_, z, _, _| {
                black_box(z);
                true
            })
            .expect("read failed")
        })
    });
    drop(cold);
    let warm = open(2 * nb.next_multiple_of(8));
    for blk in 0..BLOCKS {
        warm.read_block_pair_into(blk, 0, 1, &mut zs, &mut xs)
            .expect("warm-up failed");
    }
    c.bench_function("file_page_load/hit_pair_path_x2048", |b| {
        b.iter(|| {
            for blk in 0..BLOCKS {
                warm.read_block_pair_into(blk, 0, 1, &mut zs, &mut xs)
                    .expect("read failed");
            }
        })
    });
    c.bench_function("file_page_load/hit_run_path_x2048", |b| {
        b.iter(|| {
            warm.read_run_pair_into(0..BLOCKS, 0, 1, &mut zs, &mut xs, &mut |_, z, _, _| {
                black_box(z);
                true
            })
            .expect("read failed")
        })
    });
}

/// TAXI's |V_Z| = 7 641 Locations over 2 M rows of 150-tuple blocks
/// (13 334 blocks, a 12.7 MB bitmap): what the block-counted
/// `ConsumptionTracker` pays to start (the executors' driver copies
/// `rows_with_value` instead, the same |V_Z| lookups), and what one
/// demand publication costs — every count, or 0 for 16 candidates that
/// ran out since the last one.
fn bench_demand(c: &mut Criterion) {
    const CANDIDATES: u32 = 7641;
    let rows = 2_000_000usize;
    let col: Vec<u32> = (0..rows as u64)
        .map(|r| (r.wrapping_mul(2654435761) % u64::from(CANDIDATES)) as u32)
        .collect();
    let t = Table::new(Schema::new(vec![AttrDef::new("z", CANDIDATES)]), vec![col]);
    let bitmap = BitmapIndex::build(&t, 0, &BlockLayout::new(rows, 150));
    drop(t);
    c.bench_function("tracker_init/7641", |b| {
        b.iter(|| ConsumptionTracker::new(black_box(&bitmap)))
    });
    let shared = SharedDemand::new(CANDIDATES as usize);
    let remaining: Vec<u64> = (0..u64::from(CANDIDATES)).map(|c| c % 5).collect();
    c.bench_function("publish/7641_full", |b| {
        b.iter(|| shared.publish(DemandMode::AnyActive, Some(black_box(&remaining))))
    });
    let deactivated: Vec<u32> = (0..16).map(|i| i * 477).collect();
    c.bench_function("publish/7641_deactivations", |b| {
        b.iter(|| shared.publish_deactivations(DemandMode::AnyActive, black_box(&deactivated)))
    });
}

/// An in-memory run read of 1 024 blocks of 150 tuples, two attributes:
/// through a `MemBackend` behind `&dyn StorageBackend` (how the repo
/// benchmark's executors reach an in-memory table) and through the
/// reader's own in-memory source. The printed time divided by 1 024 is
/// the per-block figure.
fn bench_mem_run_read(c: &mut Criterion) {
    const BLOCKS: usize = 1024;
    let rows = BLOCKS * 150;
    let cols: Vec<Vec<u32>> = (0..2u32)
        .map(|a| {
            (0..rows as u32)
                .map(|r| r.wrapping_mul(40503 + a) % 97)
                .collect()
        })
        .collect();
    let t = Table::new(
        Schema::new(vec![AttrDef::new("z", 97), AttrDef::new("x", 97)]),
        cols,
    );
    let layout = BlockLayout::new(rows, 150);
    let backend = MemBackend::new(&t, layout);
    let readers = [
        (
            "mem_run_read/mem_backend_x1024",
            BlockReader::over_backend(&backend),
        ),
        (
            "mem_run_read/source_mem_x1024",
            BlockReader::new(&t, layout),
        ),
    ];
    for (name, mut reader) in readers {
        c.bench_function(name, |b| {
            b.iter(|| {
                reader
                    .read_run(0..BLOCKS, 0, 1, |_, z, x| {
                        black_box((z, x));
                        true
                    })
                    .expect("in-memory reads cannot fail")
            })
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_hypergeometric, bench_deviation, bench_distance, bench_holm_bonferroni, bench_bitmap, bench_file_page_load, bench_demand, bench_mem_run_read
}
criterion_main!(benches);
