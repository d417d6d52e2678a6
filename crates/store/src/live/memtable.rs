//! The append-side in-memory delta of a [`crate::live::LiveTable`].
//!
//! A memtable is the *active* delta: plain columnar code vectors that
//! rows are pushed into under the live table's state lock, bounded at
//! one segment's worth of rows. When it fills, the live table freezes it
//! into an immutable [`crate::table::Table`] and starts a fresh one; the
//! frozen delta then gets sealed to a checksummed segment file off the
//! append path (see [`crate::live::segment`]).
//!
//! Alongside the memtable lives one [`LiveBitmap`] per attribute: the
//! incrementally maintained twin of [`crate::bitmap::BitmapIndex`],
//! updated bit-by-bit as rows arrive so a snapshot can hand out an
//! *exact* per-(value, block) presence index without ever re-scanning
//! the data.

/// The active delta: one growing code vector per attribute, capped at
/// the live table's rows-per-segment.
#[derive(Debug)]
pub(crate) struct MemTable {
    columns: Vec<Vec<u32>>,
    capacity_rows: usize,
}

impl MemTable {
    /// An empty delta for `n_attrs` attributes, reserving space for
    /// `capacity_rows` rows per column.
    pub fn new(n_attrs: usize, capacity_rows: usize) -> Self {
        MemTable {
            columns: (0..n_attrs)
                .map(|_| Vec::with_capacity(capacity_rows))
                .collect(),
            capacity_rows,
        }
    }

    /// Rows currently buffered.
    pub fn rows(&self) -> usize {
        self.columns.first().map_or(0, |c| c.len())
    }

    /// Rows that still fit before the delta is full.
    pub fn room(&self) -> usize {
        self.capacity_rows - self.rows()
    }

    /// Appends `take` rows of `cols` starting at row offset `off`.
    /// Callers have validated arity and codes and checked [`Self::room`].
    pub fn extend(&mut self, cols: &[&[u32]], off: usize, take: usize) {
        debug_assert_eq!(cols.len(), self.columns.len(), "arity checked upstream");
        debug_assert!(take <= self.room(), "capacity checked upstream");
        for (col, src) in self.columns.iter_mut().zip(cols) {
            col.extend_from_slice(&src[off..off + take]);
        }
    }

    /// The buffered columns (for snapshot tail copies).
    pub fn columns(&self) -> &[Vec<u32>] {
        &self.columns
    }

    /// Takes the full delta's columns out, leaving a fresh empty delta
    /// in place.
    ///
    /// # Panics
    /// Panics unless the delta is exactly full.
    pub fn take_full(&mut self) -> Vec<Vec<u32>> {
        assert_eq!(self.rows(), self.capacity_rows, "delta must be full");
        self.columns
            .iter_mut()
            .map(|c| std::mem::replace(c, Vec::with_capacity(self.capacity_rows)))
            .collect()
    }
}

/// One attribute's incrementally maintained per-(value, block) presence
/// bits. Unlike [`crate::bitmap::BitmapIndex`] the per-value rows grow
/// independently as blocks appear, so setting a bit never re-lays-out
/// the whole index; a snapshot assembles the fixed-stride form on
/// demand.
#[derive(Debug)]
pub(crate) struct LiveBitmap {
    /// `rows[v][b / 64] >> (b % 64) & 1` ⇔ block `b` holds value `v`.
    rows: Vec<Vec<u64>>,
    /// `counts[v]` = bits set in `rows[v]`, kept as they go from 0 to 1
    /// so that freezing runs no popcount under the append lock.
    counts: Vec<usize>,
}

impl LiveBitmap {
    /// An all-zero bitmap for `num_values` dictionary codes.
    pub fn new(num_values: u32) -> Self {
        LiveBitmap {
            rows: (0..num_values).map(|_| Vec::new()).collect(),
            counts: vec![0; num_values as usize],
        }
    }

    /// Marks value `v` present in block `b`.
    #[inline]
    pub fn set(&mut self, v: u32, b: usize) {
        let row = &mut self.rows[v as usize];
        let w = b / 64;
        if row.len() <= w {
            row.resize(w + 1, 0);
        }
        let bit = 1u64 << (b % 64);
        self.counts[v as usize] += usize::from(row[w] & bit == 0);
        row[w] |= bit;
    }

    /// Assembles the frozen [`crate::bitmap::BitmapIndex`] covering the
    /// first `num_blocks` blocks. All set bits must lie below
    /// `num_blocks` — guaranteed when called under the same lock that
    /// serializes [`Self::set`] with row appends.
    pub fn freeze(&self, num_blocks: usize) -> crate::bitmap::BitmapIndex {
        crate::bitmap::BitmapIndex::from_value_rows(
            self.rows.len(),
            num_blocks,
            &self.rows,
            self.counts.clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memtable_fills_and_resets() {
        let mut m = MemTable::new(2, 4);
        assert_eq!(m.rows(), 0);
        assert_eq!(m.room(), 4);
        let a = [1u32, 2, 3, 4];
        let b = [5u32, 6, 7, 8];
        m.extend(&[&a[..], &b[..]], 0, 3);
        assert_eq!(m.rows(), 3);
        m.extend(&[&a[..], &b[..]], 3, 1);
        assert_eq!(m.room(), 0);
        let cols = m.take_full();
        assert_eq!(cols, vec![vec![1, 2, 3, 4], vec![5, 6, 7, 8]]);
        assert_eq!(m.rows(), 0);
        assert_eq!(m.room(), 4);
    }

    #[test]
    #[should_panic(expected = "delta must be full")]
    fn taking_a_partial_delta_panics() {
        let mut m = MemTable::new(1, 4);
        let a = [0u32];
        m.extend(&[&a[..]], 0, 1);
        m.take_full();
    }

    #[test]
    fn live_bitmap_freezes_to_exact_index() {
        let mut bm = LiveBitmap::new(3);
        bm.set(0, 0);
        bm.set(2, 0);
        bm.set(1, 70); // crosses the first word boundary
        let idx = bm.freeze(71);
        assert_eq!(idx.num_values(), 3);
        assert_eq!(idx.num_blocks(), 71);
        assert!(idx.block_has(0, 0));
        assert!(!idx.block_has(1, 0));
        assert!(idx.block_has(2, 0));
        assert!(idx.block_has(1, 70));
        assert!(!idx.block_has(1, 69));
    }

    #[test]
    fn frozen_block_counts_are_row_popcounts() {
        let mut bm = LiveBitmap::new(3);
        for (v, b) in [(0, 5), (0, 5), (0, 63), (0, 64), (1, 2), (1, 2), (1, 2)] {
            bm.set(v, b); // (0, 5) and (1, 2) set the same bit again
        }
        let idx = bm.freeze(65);
        for v in 0..3u32 {
            let popcount = (0..65).filter(|&b| idx.block_has(v, b)).count();
            assert_eq!(idx.blocks_with_value(v), popcount, "v {v}");
        }
        assert_eq!(
            (0..3).map(|v| idx.blocks_with_value(v)).collect::<Vec<_>>(),
            vec![3, 1, 0]
        );
    }

    #[test]
    fn freeze_of_shorter_view_keeps_prefix() {
        // A frozen index may cover fewer blocks than another value has
        // words for — only bits at/after num_blocks are forbidden.
        let mut bm = LiveBitmap::new(2);
        bm.set(0, 3);
        let idx = bm.freeze(4);
        assert!(idx.block_has(0, 3));
        assert!(!idx.block_has(1, 3));
    }

    #[test]
    #[should_panic(expected = "bits beyond block")]
    fn freeze_rejects_bits_past_the_view() {
        let mut bm = LiveBitmap::new(1);
        bm.set(0, 9);
        bm.freeze(8);
    }
}
