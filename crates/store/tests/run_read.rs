//! Run ≡ blocks: a run read delivers exactly what the per-block path
//! delivers — same blocks, same order, same codes, same accounting —
//! for every backend that serves one: [`FileBackend`] (chunked
//! positioned reads, lane verification, cache smaller than a chunk or
//! larger than the file), [`MemBackend`] (the trait's default loop) and
//! a live [`Snapshot`] that forwards a run piecewise to file segments,
//! in-memory segments and its tail.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fastmatch_store::backend::{MemBackend, StorageBackend};
use fastmatch_store::block::BlockLayout;
use fastmatch_store::file::{FileBackend, RUN_CHUNK_BLOCKS};
use fastmatch_store::io::{BlockReader, IoStats};
use fastmatch_store::live::{LiveTable, LiveTableConfig};
use fastmatch_store::schema::{AttrDef, Schema};
use fastmatch_store::table::Table;
use fastmatch_store::tempfile::{TempBlockDir, TempBlockFile};

/// Three attributes, so the two a query reads are not the whole schema
/// and need not be adjacent in the file.
fn table(rows: usize, seed: u64) -> Table {
    let schema = Schema::new(vec![
        AttrDef::new("z", 31),
        AttrDef::new("pad", 5),
        AttrDef::new("x", 7),
    ]);
    let mut rng = StdRng::seed_from_u64(seed);
    let cols = [31u32, 5, 7]
        .iter()
        .map(|&card| (0..rows).map(|_| rng.gen_range(0..card)).collect())
        .collect();
    Table::new(schema, cols)
}

/// `count` runs inside `0..nb`: random ones plus, where the table is
/// long enough, runs pinned across a chunk boundary and the whole range.
fn runs(nb: usize, count: usize, rng: &mut StdRng) -> Vec<std::ops::Range<usize>> {
    let mut out = vec![0..nb, 0..0];
    if nb > RUN_CHUNK_BLOCKS + 2 {
        out.push(RUN_CHUNK_BLOCKS - 2..RUN_CHUNK_BLOCKS + 2);
        out.push(RUN_CHUNK_BLOCKS - 1..nb);
    }
    for _ in 0..count {
        let start = rng.gen_range(0..nb);
        out.push(start..rng.gen_range(start..nb + 1));
    }
    out
}

/// Reads `run` both ways through fresh readers over `backend` and checks
/// each against the table; returns the run reader's statistics.
fn assert_run_equals_blocks(
    backend: &dyn StorageBackend,
    truth: &Table,
    run: std::ops::Range<usize>,
    (z, x): (usize, usize),
) -> IoStats {
    let layout = backend.layout();
    let mut by_run = BlockReader::over_backend(backend);
    let mut next = run.start;
    by_run
        .read_run(run.clone(), z, x, |b, zs, xs| {
            assert_eq!(b, next, "blocks must arrive in order, each once");
            next += 1;
            assert_eq!(zs, &truth.column(z)[layout.rows_of_block(b)], "z of {b}");
            assert_eq!(xs, &truth.column(x)[layout.rows_of_block(b)], "x of {b}");
            true
        })
        .unwrap();
    assert_eq!(next, run.end.max(run.start), "the whole run is delivered");

    let mut by_block = BlockReader::over_backend(backend);
    for b in run.clone() {
        let (zs, xs) = by_block.try_block_slices(b, z, x).unwrap();
        assert_eq!(zs, &truth.column(z)[layout.rows_of_block(b)]);
        assert_eq!(xs, &truth.column(x)[layout.rows_of_block(b)]);
    }
    let (r, p) = (by_run.stats(), by_block.stats());
    assert_eq!(r.blocks_read, run.len() as u64);
    assert_eq!(
        (r.blocks_read, r.tuples_read),
        (p.blocks_read, p.tuples_read)
    );
    assert_eq!(
        r.pages_cache_hit + r.pages_cache_miss,
        p.pages_cache_hit + p.pages_cache_miss,
        "a run attributes as many pages as its blocks read one by one"
    );
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// `FileBackend` and `MemBackend`, any geometry (short tail block
    /// included), cache of one page, of eight, or of the whole file.
    #[test]
    fn file_and_mem_runs_equal_blocks(
        rows in 1usize..2600,
        tpb in 1usize..24,
        cache_kind in 0usize..3,
        seed in 0u64..10_000,
    ) {
        let t = table(rows, seed);
        let layout = BlockLayout::new(rows, tpb);
        let nb = layout.num_blocks();
        let cache = [1, 8, 3 * nb.next_multiple_of(8)][cache_kind];
        let scratch = TempBlockFile::new("run_read");
        let file = FileBackend::create(scratch.path(), &t, tpb).unwrap().with_cache_blocks(cache);
        let mem = MemBackend::new(&t, layout);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x51);
        for run in runs(nb, 6, &mut rng) {
            let before = file.cache_stats();
            let io = assert_run_equals_blocks(&file, &t, run.clone(), (0, 2));
            prop_assert_eq!(io.pages_cache_hit + io.pages_cache_miss, 2 * io.blocks_read);
            // The run reader and the block reader each delivered the run
            // once; the backend's demand counters saw exactly that.
            let cs = file.cache_stats().since(before);
            prop_assert_eq!(cs.hits + cs.misses, 4 * run.len() as u64);
            let io = assert_run_equals_blocks(&mem, &t, run, (2, 0));
            prop_assert_eq!(io.pages_cache_hit + io.pages_cache_miss, 0);
        }
    }

    /// A visitor that stops mid-chunk is charged for the blocks it was
    /// given — by the reader and by the backend's counters — however
    /// many the backend had fetched.
    #[test]
    fn stopping_mid_chunk_counts_blocks_delivered(
        tpb in 1usize..12,
        give in 1usize..150,
        seed in 0u64..10_000,
    ) {
        let rows = 160 * tpb - tpb / 2;
        let t = table(rows, seed);
        let scratch = TempBlockFile::new("run_read_stop");
        let file = FileBackend::create(scratch.path(), &t, tpb).unwrap().with_cache_blocks(8);
        let mut reader = BlockReader::over_backend(&file);
        let mut given = 0usize;
        reader
            .read_run(3..160, 2, 0, |_, _, _| {
                given += 1;
                given < give
            })
            .unwrap();
        prop_assert_eq!(given, give);
        let io = reader.stats();
        prop_assert_eq!(io.blocks_read, give as u64);
        prop_assert_eq!(io.pages_cache_hit + io.pages_cache_miss, 2 * give as u64);
        let cs = file.cache_stats();
        prop_assert_eq!(cs.hits + cs.misses, 2 * give as u64);
    }
}

/// A snapshot whose sealed part is file segments, then in-memory
/// segments (their seals failed: the segment directory was moved away),
/// then a tail — so one run crosses every kind of boundary.
#[test]
fn snapshot_runs_equal_blocks_across_file_mem_and_tail() {
    for (tpb, blocks_per_segment, seed) in [(7usize, 5usize, 1u64), (16, 70, 2), (150, 8, 3)] {
        let rows_per_segment = tpb * blocks_per_segment;
        let rows = rows_per_segment * 7 + 2 * tpb + tpb / 2;
        let t = table(rows, seed);
        let dir = TempBlockDir::new("run_read_live");
        let segments = dir.path().join("segments");
        std::fs::create_dir(&segments).unwrap();
        let live = LiveTable::new(
            t.schema().clone(),
            LiveTableConfig::default()
                .with_tuples_per_block(tpb)
                .with_blocks_per_segment(blocks_per_segment)
                .with_coalesce_segments(1)
                .with_background_sealer(false)
                .with_segment_dir(&segments),
        )
        .unwrap();
        let append = |rows: std::ops::Range<usize>| {
            let cols: Vec<Vec<u32>> = (0..3).map(|a| t.column(a)[rows.clone()].to_vec()).collect();
            live.append_batch(&cols).unwrap();
        };
        append(0..4 * rows_per_segment);
        std::fs::rename(&segments, dir.path().join("moved-away")).unwrap();
        append(4 * rows_per_segment..rows);
        let stats = live.stats();
        assert_eq!(stats.persisted_segments, 4, "{stats:?}");
        assert_eq!(stats.seal_errors, 3, "{stats:?}");

        let snap = live.snapshot();
        assert_eq!(snap.num_segments(), 7);
        assert!(snap.tail_rows() > 0);
        let nb = snap.layout().num_blocks();
        let mut rng = StdRng::seed_from_u64(seed);
        for run in runs(nb, 12, &mut rng) {
            let io = assert_run_equals_blocks(&snap, &t, run.clone(), (0, 2));
            // Only the blocks of the four file segments have cache pages.
            let on_file = run
                .end
                .min(4 * blocks_per_segment)
                .saturating_sub(run.start);
            assert_eq!(
                io.pages_cache_hit + io.pages_cache_miss,
                2 * on_file as u64,
                "{run:?}"
            );
        }
        // A stop inside a file segment, inside a memory segment and
        // inside the tail each end the run where the visitor said.
        for stop_at in [blocks_per_segment + 1, 5 * blocks_per_segment + 1, nb - 1] {
            let mut reader = BlockReader::over_backend(&snap);
            let mut last = None;
            reader
                .read_run(0..nb, 0, 2, |b, _, _| {
                    last = Some(b);
                    b < stop_at
                })
                .unwrap();
            assert_eq!(last, Some(stop_at));
            assert_eq!(reader.stats().blocks_read, stop_at as u64 + 1);
        }
    }
}
