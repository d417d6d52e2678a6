//! Property-based tests for the storage substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fastmatch_store::backend::{PageOrigin, StorageBackend};
use fastmatch_store::bitmap::BitmapIndex;
use fastmatch_store::block::BlockLayout;
use fastmatch_store::file::{FileBackend, RUN_CHUNK_BLOCKS};
use fastmatch_store::schema::{AttrDef, Schema};
use fastmatch_store::shuffle::shuffle_table;
use fastmatch_store::table::Table;
use fastmatch_store::tempfile::TempBlockFile;

/// One block as a read delivered it: id, both columns, page origins.
type Delivered = (usize, Vec<u32>, Vec<u32>, [PageOrigin; 2]);

fn arb_table(max_rows: usize, card: u32) -> impl Strategy<Value = Table> {
    prop::collection::vec(0..card, 1..max_rows).prop_map(move |col| {
        let schema = Schema::new(vec![AttrDef::new("a", card)]);
        Table::new(schema, vec![col])
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Shuffling preserves the multiset of values exactly.
    #[test]
    fn shuffle_preserves_multiset(table in arb_table(400, 12), seed in 0u64..100) {
        let shuffled = shuffle_table(&table, seed);
        prop_assert_eq!(shuffled.n_rows(), table.n_rows());
        let mut a = table.column(0).to_vec();
        let mut b = shuffled.column(0).to_vec();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    /// A bitmap bit is set iff the block actually contains the value, and
    /// a value's block count is the popcount of its row.
    #[test]
    fn bitmap_matches_block_contents(
        table in arb_table(300, 9),
        bs in 1usize..40,
    ) {
        let layout = BlockLayout::new(table.n_rows(), bs);
        let idx = BitmapIndex::build(&table, 0, &layout);
        let mut blocks_with = [0usize; 9];
        for b in 0..layout.num_blocks() {
            for v in 0..9u32 {
                let truth = layout.rows_of_block(b).any(|r| table.code(0, r) == v);
                prop_assert_eq!(idx.block_has(v, b), truth, "v={} b={}", v, b);
                blocks_with[v as usize] += usize::from(truth);
            }
        }
        for (v, &n) in blocks_with.iter().enumerate() {
            prop_assert_eq!(idx.blocks_with_value(v as u32), n, "v={}", v);
        }
    }

    /// Lookahead marking agrees with per-block probing at every offset:
    /// windows of up to 200 blocks (so up to four words) from
    /// word-unaligned starts, windows running past the end of the index
    /// or starting beyond it, any subset of values, ORed into a window
    /// that already holds marks — which stay.
    #[test]
    fn lookahead_equals_probing(
        table in arb_table(700, 6),
        bs in 1usize..6,
        start_frac in 0.0f64..1.1,
        window in 1usize..200,
        active_bits in 0u32..64,
        seed in 0u64..1_000_000,
    ) {
        let layout = BlockLayout::new(table.n_rows(), bs);
        let idx = BitmapIndex::build(&table, 0, &layout);
        let nb = layout.num_blocks();
        let start = (nb as f64 * start_frac) as usize;
        let active: Vec<u32> = (0..6).filter(|v| active_bits >> v & 1 == 1).collect();
        let rng = &mut StdRng::seed_from_u64(seed);
        let before: Vec<bool> = (0..window).map(|_| rng.gen_range(0..4u32) == 0).collect();
        let mut marks = before.clone();
        for &v in &active {
            idx.mark_active_range(v, start, &mut marks);
        }
        for (i, &m) in marks.iter().enumerate() {
            let b = start + i;
            let any = b < nb && active.iter().any(|&v| idx.block_has(v, b));
            prop_assert_eq!(m, before[i] || any, "block {} from {}", b, start);
        }
    }

    /// The word kernel under `lookahead_equals_probing`: ORing values'
    /// rows into a window bitset sets bit `j` of word `k` iff block
    /// `start + 64k + j` holds one of them, keeps every bit already set,
    /// and sets none at or past the end of the index — from aligned and
    /// unaligned starts, over windows of up to five words.
    #[test]
    fn or_window_equals_probing(
        table in arb_table(700, 6),
        bs in 1usize..6,
        start_frac in 0.0f64..1.1,
        aligned in 0u32..4,
        words in 1usize..6,
        active_bits in 0u32..64,
        seed in 0u64..1_000_000,
    ) {
        let layout = BlockLayout::new(table.n_rows(), bs);
        let idx = BitmapIndex::build(&table, 0, &layout);
        let nb = layout.num_blocks();
        let mut start = (nb as f64 * start_frac) as usize;
        if aligned == 0 {
            start -= start % 64;
        }
        let active: Vec<u32> = (0..6).filter(|v| active_bits >> v & 1 == 1).collect();
        let rng = &mut StdRng::seed_from_u64(seed);
        let before: Vec<u64> = (0..words).map(|_| rng.gen_range(0..u64::MAX) & rng.gen_range(0..u64::MAX)).collect();
        let mut out = before.clone();
        for &v in &active {
            idx.or_window(v, start, &mut out);
        }
        for i in 0..64 * words {
            let b = start + i;
            let bit = |w: &[u64]| w[i / 64] >> (i % 64) & 1 == 1;
            let any = b < nb && active.iter().any(|&v| idx.block_has(v, b));
            prop_assert_eq!(bit(&out), bit(&before) || any, "block {} from {}", b, start);
        }
    }

    /// Block layout partitions rows exactly.
    #[test]
    fn layout_partitions_rows(n in 1usize..2000, bs in 1usize..100) {
        let layout = BlockLayout::new(n, bs);
        let mut covered = 0usize;
        let mut prev_end = 0usize;
        for b in 0..layout.num_blocks() {
            let r = layout.rows_of_block(b);
            prop_assert_eq!(r.start, prev_end);
            prev_end = r.end;
            covered += r.len();
        }
        prop_assert_eq!(covered, n);
        prop_assert_eq!(prev_end, n);
    }

    /// A run read equals block-by-block reads through the cache: it
    /// delivers exactly what block-by-block pair reads deliver — the
    /// same codes, the same `PageOrigin` per page — and leaves the same
    /// `CacheStats`. Runs start at 16 consecutive offsets (so at every
    /// offset modulo the cache's shard count), are 1 to
    /// `RUN_CHUNK_BLOCKS` blocks long, may end on the file's short last
    /// block, and read attribute pairs in either order or one attribute
    /// twice. Two caches: one holding the whole file, partly warmed
    /// through both backends alike (hits and misses mixed in a chunk),
    /// and one smaller than the run, so reading the run evicts. There the
    /// run's pages start cold and its two attributes differ, which is
    /// where the two read orders must agree: a block read fills its
    /// pages before the next block is probed, while a chunk probes all
    /// its pages first and fills them attribute by attribute.
    #[test]
    fn run_reads_equal_block_reads_through_the_cache(
        len in 1usize..RUN_CHUNK_BLOCKS + 1,
        base in 0usize..120,
        to_end in 0u32..3,
        attrs in (0usize..4).prop_map(|i| [(0, 1), (1, 0), (2, 0), (1, 1)][i]),
        evicting in 0u32..2,
        warm in prop::collection::vec(0usize..1000, 0..60),
    ) {
        const TPB: usize = 6;
        const BLOCKS: usize = 150;
        let rows = (BLOCKS - 1) * TPB + 4;
        let cols: Vec<Vec<u32>> = (0..3u32)
            .map(|a| (0..rows as u32).map(|r| r.wrapping_mul(2654435761 + a) % 1000).collect())
            .collect();
        let schema = Schema::new((0..3).map(|a| AttrDef::new(format!("a{a}"), 1000)).collect());
        let table = Table::new(schema, cols);
        let file = TempBlockFile::new("run_vs_blocks");
        let (z, x) = attrs;
        prop_assume!(evicting == 0 || z != x);
        FileBackend::create(file.path(), &table, TPB).unwrap();
        for offset in 0..16 {
            let (start, end) = if to_end == 0 {
                (BLOCKS.saturating_sub(len), BLOCKS)
            } else {
                let start = (base + offset).min(BLOCKS - 1);
                (start, (start + len).min(BLOCKS))
            };
            let cache = if evicting == 1 { (2 * (end - start) / 3).max(1) } else { 16 * BLOCKS };
            let open = || FileBackend::open(file.path()).unwrap().with_cache_blocks(cache);
            let (run, blocks) = (open(), open());
            let (mut zs, mut xs) = (Vec::new(), Vec::new());
            for &w in &warm {
                let b = w % BLOCKS;
                if evicting == 0 || !(start..end).contains(&b) {
                    for be in [&run, &blocks] {
                        be.read_block_pair_into(b, z, x, &mut zs, &mut xs).unwrap();
                    }
                }
            }
            prop_assert_eq!(run.cache_stats(), blocks.cache_stats());

            let mut got: Vec<Delivered> = Vec::new();
            let (mut rz, mut rx) = (Vec::new(), Vec::new());
            let done = run
                .read_run_pair_into(start..end, z, x, &mut rz, &mut rx, &mut |b, zc, xc, o| {
                    got.push((b, zc.to_vec(), xc.to_vec(), o));
                    true
                })
                .unwrap();
            prop_assert!(done);
            let want: Vec<_> = (start..end)
                .map(|b| {
                    let o = blocks.read_block_pair_into(b, z, x, &mut zs, &mut xs).unwrap();
                    (b, zs.clone(), xs.clone(), o)
                })
                .collect();
            prop_assert_eq!(&got, &want, "run {}..{}", start, end);
            let layout = blocks.layout();
            for (b, zc, xc, _) in &got {
                prop_assert_eq!(zc.as_slice(), &table.column(z)[layout.rows_of_block(*b)]);
                prop_assert_eq!(xc.as_slice(), &table.column(x)[layout.rows_of_block(*b)]);
            }
            prop_assert_eq!(run.cache_stats(), blocks.cache_stats(), "run {}..{}", start, end);
        }
    }
}
