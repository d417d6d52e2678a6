//! Cache-eviction stress test: many threads hammer one bounded
//! `FileBackend` block cache with overlapping block sets while the cache
//! is held far below the working set, so the clock-eviction path churns
//! constantly under concurrency — exactly what the multi-query service
//! does to it. Every read must come back checksum-verified and byte-for-
//! byte correct; the counters must show the cache actually collapsed.
//!
//! The cache bound is taken from `FASTMATCH_CACHE_BLOCKS` (default 24
//! pages) so CI can pin it; the access pattern is seeded and fixed.

use fastmatch_store::backend::{PageOrigin, StorageBackend};
use fastmatch_store::file::FileBackend;
use fastmatch_store::schema::{AttrDef, Schema};
use fastmatch_store::table::Table;
use fastmatch_store::tempfile::TempBlockFile;

fn cache_blocks() -> usize {
    std::env::var("FASTMATCH_CACHE_BLOCKS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24)
        .max(1)
}

/// Deterministic two-attribute fixture whose per-block contents are
/// recomputable from the row index alone (for independent verification).
fn fixture(rows: usize) -> Table {
    let schema = Schema::new(vec![AttrDef::new("z", 13), AttrDef::new("x", 7)]);
    let z: Vec<u32> = (0..rows as u32)
        .map(|r| r.wrapping_mul(2654435761) % 13)
        .collect();
    let x: Vec<u32> = (0..rows as u32)
        .map(|r| r.wrapping_mul(40503) % 7)
        .collect();
    Table::new(schema, vec![z, x])
}

#[test]
fn concurrent_eviction_churn_never_corrupts_reads() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 12;
    let rows = 48_000; // 600 blocks of 80 per attribute
    let tpb = 80usize;
    let table = fixture(rows);
    let scratch = TempBlockFile::new("cache_stress");
    let cache = cache_blocks();
    let backend = FileBackend::create(scratch.path(), &table, tpb)
        .unwrap()
        .with_cache_blocks(cache);
    let layout = backend.layout();
    let nb = layout.num_blocks();
    assert!(
        cache < nb,
        "the cache bound ({cache}) must sit below the working set ({nb} blocks/attr)"
    );

    std::thread::scope(|scope| {
        for w in 0..THREADS {
            let backend = &backend;
            let table = &table;
            scope.spawn(move || {
                let mut buf = Vec::new();
                // Each thread walks a different arithmetic progression,
                // overlapping every other thread's block set, alternating
                // attributes — maximal contention on the shared rings.
                let stride = 1 + w;
                for round in 0..ROUNDS {
                    let mut b = (w * 37 + round * 11) % nb;
                    for step in 0..nb {
                        let attr = (w + round + step) % 2;
                        let origin = backend.read_block_into(b, attr, &mut buf).unwrap();
                        assert!(
                            matches!(origin, PageOrigin::CacheHit | PageOrigin::CacheMiss),
                            "file pages must be attributed to the cache tier"
                        );
                        assert_eq!(
                            buf.as_slice(),
                            &table.column(attr)[layout.rows_of_block(b)],
                            "thread {w} round {round}: block {b} attr {attr} corrupted"
                        );
                        b = (b + stride) % nb;
                    }
                }
            });
        }
    });

    let cs = backend.cache_stats();
    let total_reads = (THREADS * ROUNDS * nb) as u64;
    assert_eq!(
        cs.hits + cs.misses,
        total_reads,
        "every read must be counted"
    );
    assert!(cs.misses > 0, "a cache below the working set must miss");
    assert!(cs.evictions > 0, "churn must evict");
    assert!(
        cs.pressure > 0,
        "overlapping working sets past capacity must revoke second chances"
    );
    assert!(
        cs.hit_rate() < 0.9,
        "a {cache}-page cache under a {nb}-block working set cannot mostly hit \
         (hit rate {:.3})",
        cs.hit_rate()
    );
}

/// The same churn through `BlockReader`s (the engine's read path), half
/// of the passes as run reads, plus one direct backend run per thread:
/// the per-reader `IoStats` attribution and the direct reads' own origin
/// tally must account for every page exactly. Every page is a hit or a
/// miss — nothing reports `PrefetchedHit`, and the two prefetch counters
/// `CacheStats` keeps for old callers stay 0.
#[test]
fn reader_attribution_is_exact_under_churn() {
    let rows = 12_000;
    let tpb = 60usize;
    let table = fixture(rows);
    let scratch = TempBlockFile::new("cache_stress_reader");
    let backend = FileBackend::create(scratch.path(), &table, tpb)
        .unwrap()
        .with_cache_blocks(16);
    let nb = backend.layout().num_blocks();

    let results: Vec<(fastmatch_store::io::IoStats, [u64; 2])> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|w| {
                let backend = &backend;
                scope.spawn(move || {
                    let mut reader = fastmatch_store::io::BlockReader::over_backend(backend);
                    for round in 0..3 {
                        if (w + round) % 2 == 1 {
                            // Half the passes go through the run path —
                            // the same blocks, as two wrapping runs.
                            let first = (w * 13 + round * 7) % nb;
                            for run in [first..nb, 0..first] {
                                reader.read_run(run, 0, 1, |_, _, _| true).unwrap();
                            }
                            continue;
                        }
                        for b in 0..nb {
                            let bb = (b + w * 13 + round * 7) % nb;
                            reader.block_slices(bb, 0, 1);
                        }
                    }
                    let mut direct = [0u64; 2]; // [hits, misses]
                    let (mut zs, mut xs) = (Vec::new(), Vec::new());
                    backend
                        .read_run_pair_into(
                            0..nb,
                            0,
                            1,
                            &mut zs,
                            &mut xs,
                            &mut |b, _, _, origins| {
                                for origin in origins {
                                    match origin {
                                        PageOrigin::CacheHit => direct[0] += 1,
                                        PageOrigin::CacheMiss => direct[1] += 1,
                                        other => panic!("block {b}: file page reported {other:?}"),
                                    }
                                }
                                true
                            },
                        )
                        .unwrap();
                    (reader.stats(), direct)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut hit = 0u64;
    let mut miss = 0u64;
    for (s, [direct_hit, direct_miss]) in &results {
        assert_eq!(s.blocks_read, 3 * nb as u64);
        assert_eq!(
            s.pages_cache_hit + s.pages_cache_miss,
            2 * s.blocks_read,
            "each block-pair read is exactly two attributed pages"
        );
        assert_eq!(direct_hit + direct_miss, 2 * nb as u64);
        hit += s.pages_cache_hit + direct_hit;
        miss += s.pages_cache_miss + direct_miss;
    }
    let cs = backend.cache_stats();
    assert_eq!(
        cs.hits, hit,
        "per-reader hits must sum to the global counter"
    );
    assert_eq!(
        cs.misses, miss,
        "per-reader misses must sum to the global counter"
    );
    assert_eq!(
        (cs.pages_prefetched, cs.prefetched_hits),
        (0, 0),
        "nothing loads pages ahead of demand"
    );
}
