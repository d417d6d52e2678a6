//! Property-based tests for the storage substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fastmatch_store::binning::Binner;
use fastmatch_store::bitmap::BitmapIndex;
use fastmatch_store::block::BlockLayout;
use fastmatch_store::density::{estimate_block_count, DensityMap};
use fastmatch_store::live::ZoneMap;
use fastmatch_store::predicate::Predicate;
use fastmatch_store::schema::{AttrDef, Schema};
use fastmatch_store::shuffle::shuffle_table;
use fastmatch_store::table::Table;

/// A random AND/OR/Eq tree of bounded depth. Leaves reference any of
/// `attrs` attributes with any code below `card`; connectives may be
/// empty (`And([])` ≡ true, `Or([])` ≡ false), covering the degenerate
/// corners of the conservativeness contract.
fn arb_predicate_tree(rng: &mut StdRng, attrs: usize, card: u32, depth: usize) -> Predicate {
    if depth == 0 || rng.gen_range(0..3u32) == 0 {
        return Predicate::eq(rng.gen_range(0..attrs), rng.gen_range(0..card));
    }
    let arity = rng.gen_range(0..4usize);
    let parts = (0..arity)
        .map(|_| arb_predicate_tree(rng, attrs, card, depth - 1))
        .collect();
    if rng.gen_range(0..2u32) == 0 {
        Predicate::And(parts)
    } else {
        Predicate::Or(parts)
    }
}

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

    /// Block-level predicate tests never produce false negatives, and
    /// density-map estimates always upper-bound true counts.
    #[test]
    fn predicate_and_density_are_conservative(
        a_col in prop::collection::vec(0u32..4, 30..200),
        b_col_seed in 0u32..4,
        bs in 2usize..25,
        v1 in 0u32..4,
        v2 in 0u32..4,
    ) {
        let n = a_col.len();
        let b_col: Vec<u32> = a_col.iter().map(|&a| (a + b_col_seed) % 4).collect();
        let schema = Schema::new(vec![AttrDef::new("a", 4), AttrDef::new("b", 4)]);
        let table = Table::new(schema, vec![a_col, b_col]);
        let layout = BlockLayout::new(n, bs);
        let idx_a = BitmapIndex::build(&table, 0, &layout);
        let idx_b = BitmapIndex::build(&table, 1, &layout);
        let d_a = DensityMap::build(&table, 0, &layout);
        let d_b = DensityMap::build(&table, 1, &layout);

        let preds = vec![
            Predicate::eq(0, v1),
            Predicate::And(vec![Predicate::eq(0, v1), Predicate::eq(1, v2)]),
            Predicate::Or(vec![Predicate::eq(0, v1), Predicate::eq(1, v2)]),
        ];
        let indexes = [(0usize, &idx_a), (1usize, &idx_b)];
        let maps = [&d_a, &d_b];
        for p in &preds {
            for b in 0..layout.num_blocks() {
                let truth = layout
                    .rows_of_block(b)
                    .filter(|&r| p.matches_row(&table, r))
                    .count() as u32;
                if truth > 0 {
                    prop_assert!(p.may_match_block(&indexes, b), "{p:?} block {b}");
                }
                let est = estimate_block_count(p, &maps, &layout, b);
                prop_assert!(est >= truth, "{p:?} block {b}: est {est} < {truth}");
            }
        }
    }

    /// Arbitrary AND/OR/Eq predicate *trees* (not just the three fixed
    /// shapes above) over multi-attribute tables with only *partial*
    /// index coverage: the bitmap-based block test must never reject a
    /// block that contains a row-level match. This is the contract the
    /// AnyActive ladder and every block-skipping policy stand on — a
    /// false negative here silently drops matching tuples.
    #[test]
    fn random_predicate_trees_are_block_conservative(
        cols in prop::collection::vec(prop::collection::vec(0u32..5, 40..160), 3usize),
        bs in 1usize..30,
        tree_seed in 0u64..1_000_000,
        indexed_mask in 1usize..8, // nonempty subset of the 3 attributes
    ) {
        let n = cols[0].len();
        // Ragged columns can come out of independent vec strategies;
        // truncate to the shortest so the table is well-formed.
        let shortest = cols.iter().map(|c| c.len()).min().unwrap().min(n);
        let cols: Vec<Vec<u32>> = cols.iter().map(|c| c[..shortest].to_vec()).collect();
        let schema = Schema::new(vec![
            AttrDef::new("a", 5),
            AttrDef::new("b", 5),
            AttrDef::new("c", 5),
        ]);
        let table = Table::new(schema, cols);
        let layout = BlockLayout::new(shortest, bs);
        let built: Vec<BitmapIndex> = (0..3)
            .map(|a| BitmapIndex::build(&table, a, &layout))
            .collect();
        let indexes: Vec<(usize, &BitmapIndex)> = (0..3)
            .filter(|a| indexed_mask >> a & 1 == 1)
            .map(|a| (a, &built[a]))
            .collect();

        let mut rng = StdRng::seed_from_u64(tree_seed);
        for _ in 0..8 {
            let p = arb_predicate_tree(&mut rng, 3, 5, 3);
            for b in 0..layout.num_blocks() {
                let truth = layout.rows_of_block(b).any(|r| p.matches_row(&table, r));
                if truth {
                    prop_assert!(
                        p.may_match_block(&indexes, b),
                        "false negative: {p:?} block {b} (indexed {indexed_mask:#05b})"
                    );
                }
                // With *full* index coverage, Eq leaves are exact; whole
                // trees may still over-approximate (AND of bits set by
                // different rows), which is allowed — only the false
                // negative direction is a bug.
            }
        }
    }

    /// Zone maps are sound summaries and conservative filters: every
    /// block's min/max/count bounds exactly cover its rows, point and
    /// range probes never reject a block that holds a match, and
    /// predicate trees tested through zones
    /// ([`Predicate::may_match_block_zones`]) never produce a false
    /// negative — the same contract as the bitmap block test, which is
    /// what lets block-skipping policies consult whichever summary an
    /// attribute has.
    #[test]
    fn zone_maps_are_sound_and_block_conservative(
        cols in prop::collection::vec(prop::collection::vec(0u32..7, 40..160), 2usize),
        bs in 1usize..30,
        tree_seed in 0u64..1_000_000,
        lo in 0u32..7,
        span in 0u32..7,
    ) {
        let shortest = cols.iter().map(|c| c.len()).min().unwrap();
        let cols: Vec<Vec<u32>> = cols.iter().map(|c| c[..shortest].to_vec()).collect();
        let schema = Schema::new(vec![AttrDef::new("a", 7), AttrDef::new("b", 7)]);
        let table = Table::new(schema, cols);
        let layout = BlockLayout::new(shortest, bs);
        let built: Vec<ZoneMap> = (0..2).map(|a| ZoneMap::build(&table, a, &layout)).collect();

        // Soundness: bounds tight enough to cover every row, counts exact.
        let hi = lo.saturating_add(span).min(6);
        for (attr, zm) in built.iter().enumerate() {
            prop_assert_eq!(zm.num_blocks(), layout.num_blocks());
            for b in 0..layout.num_blocks() {
                let rows = layout.rows_of_block(b);
                prop_assert_eq!(zm.count(b) as usize, rows.len());
                let (zmin, zmax) = zm.min_max(b).expect("no block is empty");
                let mut any_in_range = false;
                for r in rows {
                    let v = table.code(attr, r);
                    prop_assert!(zmin <= v && v <= zmax, "attr {} block {}", attr, b);
                    // Point and range probes may not reject present values.
                    prop_assert!(zm.may_contain(b, v));
                    any_in_range |= lo <= v && v <= hi;
                }
                if any_in_range {
                    prop_assert!(zm.may_overlap(b, lo, hi), "attr {} block {}", attr, b);
                }
            }
        }

        // Conservativeness for whole predicate trees through the zone path.
        let zones: Vec<(usize, &ZoneMap)> = built.iter().enumerate().collect();
        let mut rng = StdRng::seed_from_u64(tree_seed);
        for _ in 0..8 {
            let p = arb_predicate_tree(&mut rng, 2, 7, 3);
            for b in 0..layout.num_blocks() {
                let truth = layout.rows_of_block(b).any(|r| p.matches_row(&table, r));
                if truth {
                    prop_assert!(
                        p.may_match_block_zones(&zones, b),
                        "zone false negative: {:?} block {}", p, b
                    );
                }
            }
        }
    }

    /// Binning: every value maps into range, and the bin's interval
    /// contains the value (up to clamping).
    #[test]
    fn binner_code_in_range(
        lo in -100.0f64..0.0,
        width in 1.0f64..50.0,
        bins in 1u32..64,
        v in -200.0f64..200.0,
    ) {
        let binner = Binner::equal_width(lo, lo + width, bins);
        let code = binner.code(v);
        prop_assert!(code < bins);
        if v > lo && v < lo + width {
            let (blo, bhi) = binner.bin_range(code);
            prop_assert!(v >= blo - 1e-9 && v <= bhi + 1e-9);
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
