//! Per-candidate consumption tracking by blocks, for drivers outside
//! this crate.
//!
//! Executors sample without replacement by never re-reading a block. A
//! candidate whose every block has been read is *fully consumed*: its
//! counts are exact, it can never yield more samples, and HistSim must be
//! told (`mark_exact`) so demand on it is dropped. [`ConsumptionTracker`]
//! detects this the moment the candidate's last block is read, using the
//! per-candidate block counts from the bitmap index. Deduplication of
//! candidates within a block is done with per-candidate block stamps
//! (blocks are never re-read, so a block id is a unique stamp), at O(1)
//! per tuple.
//!
//! The executors no longer use it: HistSim counts each candidate's rows
//! read, and their shared driver compares that with the index's row
//! count (`BitmapIndex::rows_with_value`) for the candidates with demand
//! at each settlement and for every candidate at each phase boundary.
//! The tracker stays only for the repo benchmark's trace walker, which
//! imports it, and goes when that walker does.

use fastmatch_store::bitmap::BitmapIndex;

/// Tracks how many unread blocks still contain each candidate.
#[derive(Debug)]
pub struct ConsumptionTracker {
    blocks_left: Vec<u32>,
    /// `block id + 1` of the last block in which the candidate was
    /// counted; 0 = never seen.
    last_stamp: Vec<u32>,
}

impl ConsumptionTracker {
    /// Initializes from the block counts the bitmap index keeps: one
    /// lookup per candidate, whatever the table's size.
    pub fn new(bitmap: &BitmapIndex) -> Self {
        let blocks_left = (0..bitmap.num_values() as u32)
            .map(|c| bitmap.blocks_with_value(c) as u32)
            .collect();
        ConsumptionTracker {
            last_stamp: vec![0; bitmap.num_values()],
            blocks_left,
        }
    }

    /// Records that block `block_id` (never previously read) has been
    /// read, with the given tuple candidates. Each distinct candidate's
    /// remaining-block count is decremented once; `on_consumed(c)` fires
    /// for every candidate that just ran out of unread blocks.
    #[inline]
    pub fn block_read(
        &mut self,
        block_id: usize,
        candidates_in_block: &[u32],
        mut on_consumed: impl FnMut(u32),
    ) {
        let stamp = block_id as u32 + 1;
        for &c in candidates_in_block {
            let ci = c as usize;
            if self.last_stamp[ci] != stamp {
                self.last_stamp[ci] = stamp;
                let left = &mut self.blocks_left[ci];
                debug_assert!(*left > 0, "candidate {c} read in more blocks than indexed");
                *left -= 1;
                if *left == 0 {
                    on_consumed(c);
                }
            }
        }
    }

    /// Number of unread blocks still containing candidate `c`.
    pub fn blocks_left(&self, c: u32) -> u32 {
        self.blocks_left[c as usize]
    }

    /// Candidates that never had any block (zero tuples in the data).
    pub fn never_present(&self) -> impl Iterator<Item = u32> + '_ {
        self.blocks_left
            .iter()
            .enumerate()
            .filter(|(_, &n)| n == 0)
            .map(|(c, _)| c as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastmatch_store::block::BlockLayout;
    use fastmatch_store::schema::{AttrDef, Schema};
    use fastmatch_store::table::Table;

    fn tracker() -> ConsumptionTracker {
        // candidate 0 in blocks 0,1; candidate 1 in block 1; candidate 2
        // nowhere (cardinality 3, never appears).
        let col = vec![0, 0, 0, 1, 0, 1];
        let schema = Schema::new(vec![AttrDef::new("z", 3)]);
        let t = Table::new(schema, vec![col]);
        let l = BlockLayout::new(6, 3);
        let idx = fastmatch_store::bitmap::BitmapIndex::build(&t, 0, &l);
        ConsumptionTracker::new(&idx)
    }

    #[test]
    fn initial_counts_from_bitmap() {
        let tr = tracker();
        assert_eq!(tr.blocks_left(0), 2);
        assert_eq!(tr.blocks_left(1), 1);
        assert_eq!(tr.blocks_left(2), 0);
        assert_eq!(tr.never_present().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn consumption_fires_on_last_block() {
        let mut tr = tracker();
        let mut consumed = Vec::new();
        tr.block_read(0, &[0, 0, 0], |c| consumed.push(c));
        assert!(consumed.is_empty());
        assert_eq!(tr.blocks_left(0), 1);
        tr.block_read(1, &[1, 0, 1], |c| consumed.push(c));
        consumed.sort_unstable();
        assert_eq!(consumed, vec![0, 1]);
        assert_eq!(tr.blocks_left(0), 0);
    }

    #[test]
    fn duplicates_in_block_count_once() {
        let mut tr = tracker();
        let mut consumed = Vec::new();
        tr.block_read(1, &[1, 1, 1], |c| consumed.push(c));
        assert_eq!(consumed, vec![1]);
        assert_eq!(tr.blocks_left(1), 0);
    }

    #[test]
    fn stamps_distinguish_blocks() {
        let mut tr = tracker();
        let mut consumed = Vec::new();
        // candidate 0 appears in two different blocks: both decrements
        // must land even though the tuple values are identical.
        tr.block_read(0, &[0], |c| consumed.push(c));
        tr.block_read(1, &[0], |c| consumed.push(c));
        assert_eq!(consumed, vec![0]);
        assert_eq!(tr.blocks_left(0), 0);
    }
}
