//! Block-selection policies (paper §4.2, Challenge 3).
//!
//! The *AnyActive* policy reads a block iff it contains at least one tuple
//! of an *active* candidate (one that still needs samples this round).
//! The paper gives it as Algorithm 2 — per block, probe each active
//! candidate's bitmap until one hits, which `SyncMatch` does inline — and
//! as Algorithm 3, [`mark_lookahead`]: per *window* of blocks, OR each
//! active candidate's bitmap row into a mark window. The window is a
//! bitset and the OR runs a word at a time
//! ([`BitmapIndex::or_window`]), so marking `w` blocks for `a` active
//! candidates costs at most `a · ⌈w/64⌉` word ORs — 4 per candidate for
//! the service's 256-block window — and stops early once every block
//! the caller still cares about is marked, because no further OR can
//! change those marks.

use fastmatch_store::bitmap::BitmapIndex;

/// Algorithm 3: ORs into the window bitset `marks` (bit `j` of word `k`
/// stands for block `start + 64k + j`) the blocks that contain at least
/// one active candidate. `open` has the same shape and says which of the
/// window's blocks matter: once every block set in `open` is marked, the
/// remaining candidates are not consulted. Marks on `open` blocks are
/// therefore exactly those of ORing every candidate; marks elsewhere may
/// be fewer. Bits for blocks beyond the bitmap's block count are left
/// as they were.
pub fn mark_lookahead<'a>(
    bitmap: &BitmapIndex,
    active: impl IntoIterator<Item = &'a u32>,
    start: usize,
    open: &[u64],
    marks: &mut [u64],
) {
    debug_assert_eq!(open.len(), marks.len(), "open and marks cover one window");
    for &c in active {
        if marks.iter().zip(open).all(|(&m, &o)| o & !m == 0) {
            return;
        }
        bitmap.or_window(c, start, marks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastmatch_store::block::BlockLayout;
    use fastmatch_store::schema::{AttrDef, Schema};
    use fastmatch_store::table::Table;

    /// 8 blocks of 4 rows; candidate c appears only in block c (c < 8).
    fn diagonal_table() -> (Table, BlockLayout) {
        let col: Vec<u32> = (0..32).map(|r| r / 4).collect();
        let schema = Schema::new(vec![AttrDef::new("z", 8)]);
        (Table::new(schema, vec![col]), BlockLayout::new(32, 4))
    }

    fn bits(marks: &[u64], len: usize) -> Vec<bool> {
        (0..len)
            .map(|i| marks[i / 64] >> (i % 64) & 1 == 1)
            .collect()
    }

    #[test]
    fn lookahead_matches_block_has() {
        let (t, l) = diagonal_table();
        let idx = BitmapIndex::build(&t, 0, &l);
        let active = vec![1u32, 3, 6];
        let mut marks = [0u64];
        mark_lookahead(&idx, &active, 0, &[!0], &mut marks);
        for (b, m) in bits(&marks, 64).into_iter().enumerate() {
            let expect = b < 8 && active.iter().any(|&c| idx.block_has(c, b));
            assert_eq!(m, expect, "block {b}");
        }
    }

    #[test]
    fn lookahead_window_offset() {
        let (t, l) = diagonal_table();
        let idx = BitmapIndex::build(&t, 0, &l);
        let mut marks = [0u64];
        mark_lookahead(&idx, &[4u32], 3, &[0b111], &mut marks);
        assert_eq!(bits(&marks, 3), vec![false, true, false]); // block 4 at offset 1
    }

    #[test]
    fn saturated_window_stops_marking_without_changing_open_marks() {
        let (t, l) = diagonal_table();
        let idx = BitmapIndex::build(&t, 0, &l);
        // Only blocks 2 and 5 are open; candidate 2 and 5 mark both, so
        // candidate 7 is never consulted — and block 7 stays unmarked.
        let open = [1u64 << 2 | 1 << 5];
        let mut marks = [0u64];
        mark_lookahead(&idx, &[2u32, 5, 7], 0, &open, &mut marks);
        assert_eq!(marks, [open[0]]);
        // With every block open the same candidates mark block 7 too.
        let mut all = [0u64];
        mark_lookahead(&idx, &[2u32, 5, 7], 0, &[!0], &mut all);
        assert_eq!(all[0] & open[0], marks[0]);
        assert_eq!(all, [1u64 << 2 | 1 << 5 | 1 << 7]);
        // Nothing open: nothing consulted.
        let mut none = [0u64];
        mark_lookahead(&idx, &[1u32], 0, &[0], &mut none);
        assert_eq!(none, [0]);
    }
}
