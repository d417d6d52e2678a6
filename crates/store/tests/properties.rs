//! Property-based tests for the storage substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fastmatch_store::bitmap::BitmapIndex;
use fastmatch_store::block::BlockLayout;
use fastmatch_store::schema::{AttrDef, Schema};
use fastmatch_store::shuffle::shuffle_table;
use fastmatch_store::table::Table;

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
}
