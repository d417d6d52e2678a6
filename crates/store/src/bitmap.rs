//! One-bit-per-(value, block) bitmap indexes (paper §4.1).
//!
//! For an attribute `A` and each attribute value `v`, the index stores one
//! bit per block: bit `b` is set iff block `b` contains at least one tuple
//! with `A = v`. This lets the sampling engine test "does this block
//! contain samples for candidate `v`?" in O(1), which is the primitive the
//! AnyActive block selection policy is built on. Storing a bit per *block*
//! (not per tuple, as earlier systems did) makes the index orders of
//! magnitude smaller.
//!
//! [`BitmapIndex::mark_active_range`] is the cache-conscious lookahead
//! primitive of Algorithm 3: for one candidate it ORs a whole range of
//! blocks into a mark array, consuming each cache line of the bitmap once,
//! instead of the bit-at-a-time access pattern of Algorithm 2 that evicts
//! the line between candidates.
//!
//! The index also holds each value's block count (the popcount of its
//! row) and row count (how many tuples carry it), both computed in the
//! pass that builds the index, so [`BitmapIndex::blocks_with_value`] and
//! [`BitmapIndex::rows_with_value`] — the latter consumption tracking's
//! starting point, read for every candidate of every query — are
//! lookups, not passes over the data.

use crate::block::BlockLayout;
use crate::table::Table;

/// Per-value, per-block presence bitmap for a single attribute.
#[derive(Debug, Clone)]
pub struct BitmapIndex {
    num_values: usize,
    num_blocks: usize,
    /// Words per value row.
    stride: usize,
    /// `words[v * stride + w]` holds blocks `64w .. 64w+63` for value `v`.
    words: Vec<u64>,
    /// `block_counts[v]` = set bits of value `v`'s row.
    block_counts: Vec<usize>,
    /// `row_counts[v]` = tuples with value `v`.
    row_counts: Vec<u64>,
}

impl BitmapIndex {
    /// Builds the index for `attr` of `table` under the given layout.
    pub fn build(table: &Table, attr: usize, layout: &BlockLayout) -> Self {
        assert_eq!(table.n_rows(), layout.n_rows(), "layout/table mismatch");
        let num_values = table.cardinality(attr) as usize;
        let num_blocks = layout.num_blocks();
        let stride = num_blocks.div_ceil(64);
        let mut words = vec![0u64; num_values * stride];
        let mut row_counts = vec![0u64; num_values];
        let col = table.column(attr);
        for b in 0..num_blocks {
            let (word, bit) = (b / 64, b % 64);
            for r in layout.rows_of_block(b) {
                let v = col[r] as usize;
                words[v * stride + word] |= 1u64 << bit;
                row_counts[v] += 1;
            }
        }
        let block_counts = popcounts(&words, num_values, stride);
        BitmapIndex {
            num_values,
            num_blocks,
            stride,
            words,
            block_counts,
            row_counts,
        }
    }

    /// Assembles an index directly from per-value presence rows — the
    /// constructor behind [`crate::live`]'s incrementally maintained
    /// bitmaps, where bits are set at append time instead of by a table
    /// scan. `rows[v]` holds the presence words of value `v` (bit `b%64`
    /// of word `b/64` ⇔ some row with value `v` lies in block `b`); rows
    /// shorter than the stride are zero-padded, longer ones must carry no
    /// bits at or beyond `num_blocks`. `block_counts[v]` is the number of
    /// bits set in `rows[v]` and `row_counts[v]` the number of tuples
    /// with value `v`, both kept by the caller as it sets bits, so no
    /// popcount runs here.
    ///
    /// # Panics
    /// Panics if `rows.len()`, `block_counts.len()` or `row_counts.len()`
    /// differs from `num_values`,
    /// or a row sets a bit for a block `>= num_blocks` (the caller handed
    /// over bits from rows that are not part of the index's view).
    pub(crate) fn from_value_rows(
        num_values: usize,
        num_blocks: usize,
        rows: &[Vec<u64>],
        block_counts: Vec<usize>,
        row_counts: Vec<u64>,
    ) -> Self {
        assert_eq!(rows.len(), num_values, "one presence row per value");
        assert_eq!(block_counts.len(), num_values, "one block count per value");
        assert_eq!(row_counts.len(), num_values, "one row count per value");
        let stride = num_blocks.div_ceil(64);
        let mut words = vec![0u64; num_values * stride];
        for (v, row) in rows.iter().enumerate() {
            for (w, &bits) in row.iter().enumerate() {
                if w >= stride {
                    assert_eq!(bits, 0, "value {v} has bits beyond block {num_blocks}");
                    continue;
                }
                if w + 1 == stride && !num_blocks.is_multiple_of(64) {
                    let valid = (1u64 << (num_blocks % 64)) - 1;
                    assert_eq!(
                        bits & !valid,
                        0,
                        "value {v} has bits beyond block {num_blocks}"
                    );
                }
                words[v * stride + w] = bits;
            }
        }
        debug_assert_eq!(
            block_counts,
            popcounts(&words, num_values, stride),
            "stale block counts"
        );
        BitmapIndex {
            num_values,
            num_blocks,
            stride,
            words,
            block_counts,
            row_counts,
        }
    }

    /// Number of distinct values indexed.
    pub fn num_values(&self) -> usize {
        self.num_values
    }

    /// Number of blocks indexed.
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    /// Whether block `b` contains at least one tuple with the value `v`.
    #[inline]
    pub fn block_has(&self, v: u32, b: usize) -> bool {
        debug_assert!((v as usize) < self.num_values && b < self.num_blocks);
        let (word, bit) = (b / 64, b % 64);
        self.words[v as usize * self.stride + word] >> bit & 1 == 1
    }

    /// ORs the presence bits of value `v` for blocks
    /// `start .. start + marks.len()` into `marks` (Algorithm 3's inner
    /// loop). Blocks beyond the end of the index leave their mark slot
    /// untouched.
    pub fn mark_active_range(&self, v: u32, start: usize, marks: &mut [bool]) {
        let row = &self.words[v as usize * self.stride..(v as usize + 1) * self.stride];
        let end = (start + marks.len()).min(self.num_blocks);
        let mut b = start;
        while b < end {
            let word = row[b / 64];
            if word == 0 {
                // skip the rest of this word in one step
                b = (b / 64 + 1) * 64;
                continue;
            }
            if word >> (b % 64) & 1 == 1 {
                marks[b - start] = true;
            }
            b += 1;
        }
    }

    /// Index memory footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Number of blocks containing value `v` (the popcount of its row,
    /// kept since the index was built).
    pub fn blocks_with_value(&self, v: u32) -> usize {
        self.block_counts[v as usize]
    }

    /// Number of tuples with value `v` — the candidate's population
    /// `Nᵢ`, kept since the index was built.
    pub fn rows_with_value(&self, v: u32) -> u64 {
        self.row_counts[v as usize]
    }
}

/// The popcount of each of the `num_values` value rows of `words`, each
/// `stride` words long (none, over zero blocks).
fn popcounts(words: &[u64], num_values: usize, stride: usize) -> Vec<usize> {
    (0..num_values)
        .map(|v| {
            let row = &words[v * stride..(v + 1) * stride];
            row.iter().map(|w| w.count_ones() as usize).sum()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{AttrDef, Schema};

    fn table_with_pattern() -> (Table, BlockLayout) {
        // 40 rows, block size 10 ⇒ 4 blocks.
        // value 0: rows 0..10 (block 0 only)
        // value 1: rows 10..20 and row 35 (blocks 1, 3)
        // value 2: everywhere else (blocks 2, 3)
        let mut col = Vec::with_capacity(40);
        for r in 0..40u32 {
            let v = if r < 10 {
                0
            } else if r < 20 || r == 35 {
                1
            } else {
                2
            };
            col.push(v);
        }
        let schema = Schema::new(vec![AttrDef::new("z", 3)]);
        let t = Table::new(schema, vec![col]);
        let l = BlockLayout::new(40, 10);
        (t, l)
    }

    #[test]
    fn bits_reflect_block_membership() {
        let (t, l) = table_with_pattern();
        let idx = BitmapIndex::build(&t, 0, &l);
        assert_eq!(idx.num_blocks(), 4);
        assert_eq!(idx.num_values(), 3);
        assert!(idx.block_has(0, 0));
        assert!(!idx.block_has(0, 1));
        assert!(!idx.block_has(0, 2));
        assert!(!idx.block_has(0, 3));
        assert!(idx.block_has(1, 1));
        assert!(idx.block_has(1, 3));
        assert!(!idx.block_has(1, 0));
        assert!(idx.block_has(2, 2));
        assert!(idx.block_has(2, 3));
    }

    #[test]
    fn blocks_with_value_counts() {
        let (t, l) = table_with_pattern();
        let idx = BitmapIndex::build(&t, 0, &l);
        assert_eq!(idx.blocks_with_value(0), 1);
        assert_eq!(idx.blocks_with_value(1), 2);
        assert_eq!(idx.blocks_with_value(2), 2);
        assert_eq!(
            (0..3).map(|v| idx.rows_with_value(v)).collect::<Vec<_>>(),
            t.value_counts(0)
        );
        assert_eq!(t.value_counts(0), vec![10, 11, 19]);
    }

    #[test]
    fn mark_active_range_matches_block_has() {
        let (t, l) = table_with_pattern();
        let idx = BitmapIndex::build(&t, 0, &l);
        for v in 0..3u32 {
            let mut marks = vec![false; 4];
            idx.mark_active_range(v, 0, &mut marks);
            for (b, &m) in marks.iter().enumerate() {
                assert_eq!(m, idx.block_has(v, b), "v={v} b={b}");
            }
        }
    }

    #[test]
    fn mark_active_range_respects_window() {
        let (t, l) = table_with_pattern();
        let idx = BitmapIndex::build(&t, 0, &l);
        // window [1, 3): value 1 present in block 1, absent in block 2
        let mut marks = vec![false; 2];
        idx.mark_active_range(1, 1, &mut marks);
        assert_eq!(marks, vec![true, false]);
    }

    #[test]
    fn mark_active_range_ors_rather_than_overwrites() {
        let (t, l) = table_with_pattern();
        let idx = BitmapIndex::build(&t, 0, &l);
        let mut marks = vec![false; 4];
        idx.mark_active_range(0, 0, &mut marks); // block 0
        idx.mark_active_range(2, 0, &mut marks); // blocks 2, 3
        assert_eq!(marks, vec![true, false, true, true]);
    }

    #[test]
    fn window_past_end_is_safe() {
        let (t, l) = table_with_pattern();
        let idx = BitmapIndex::build(&t, 0, &l);
        let mut marks = vec![false; 10];
        idx.mark_active_range(2, 2, &mut marks);
        assert_eq!(&marks[..2], &[true, true]);
        assert!(marks[2..].iter().all(|&m| !m));
    }

    #[test]
    fn large_block_count_crosses_word_boundaries() {
        // 1000 rows, 1-row blocks ⇒ 1000 blocks > 64: exercises multi-word
        // rows and the skip-zero-word fast path.
        let n = 1000usize;
        let col: Vec<u32> = (0..n as u32)
            .map(|r| if r % 97 == 0 { 1 } else { 0 })
            .collect();
        let schema = Schema::new(vec![AttrDef::new("z", 2)]);
        let t = Table::new(schema, vec![col]);
        let l = BlockLayout::new(n, 1);
        let idx = BitmapIndex::build(&t, 0, &l);
        let mut marks = vec![false; n];
        idx.mark_active_range(1, 0, &mut marks);
        for (b, &m) in marks.iter().enumerate() {
            assert_eq!(m, b % 97 == 0, "b = {b}");
            assert_eq!(idx.block_has(1, b), b % 97 == 0);
        }
    }

    #[test]
    fn size_is_one_bit_per_value_block() {
        let (t, l) = table_with_pattern();
        let idx = BitmapIndex::build(&t, 0, &l);
        // 3 values × 1 word stride
        assert_eq!(idx.size_bytes(), 3 * 8);
    }
}
