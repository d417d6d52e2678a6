//! Background compaction of live-table segment files.
//!
//! Coalescing at seal time bounds how many deltas one *write* merges,
//! but a long-lived table still accumulates segment files — and every
//! file costs a block cache, an open descriptor, and a header probe at
//! recovery. Compaction closes that end of the lifecycle: whenever the
//! number of *file-backed* entries exceeds the configured fan-in
//! ([`crate::live::LiveTableConfig::compact_fan_in`]), an adjacent run
//! of small files is merged into one and the run's entries are swapped
//! for a single file-backed entry — the same splice-under-the-state-lock
//! protocol the sealer uses for its `Mem → File` swap, so snapshots are
//! never torn: outstanding snapshot `Arc`s keep the old backends (and,
//! on Unix, their unlinked files) alive until they drop.
//!
//! Crash safety rides on the same two primitives as sealing:
//!
//! 1. the merged file is written with
//!    [`crate::file::write_table_atomic`] *over the first member's
//!    name* (rename is atomic; the old inode stays readable through
//!    already-open descriptors), and
//! 2. the remaining members are unlinked only **after** the in-memory
//!    swap and a directory fsync. A crash between the rename and the
//!    unlinks leaves the merged file plus stale members whose delta
//!    ids it *shadows* — recovery detects exactly this (a file whose
//!    first delta is below the next expected id) and sweeps it.
//!
//! Rows are never reordered, so block contents and bitmaps are
//! compaction-invariant — the equivalence test in
//! `store/tests/live.rs` pins this down blockwise under concurrent
//! appenders.
//!
//! Scheduling: one background thread per table (started when both a
//! segment directory and a fan-in are configured with a background
//! sealer), woken by `CompactShared::poke` after every successful
//! seal; with an inline sealer, compaction runs inline after the seal.
//! [`crate::live::LiveTable::compact_now`] drives the same loop
//! synchronously; a gate mutex serializes the two.

use std::ops::Range;
use std::sync::{Condvar, Mutex};

/// Picks the next adjacent run of segment *files* to merge, or `None`
/// when the table is already within budget. `entries` is the live
/// table's entry vector reduced to block counts: `Some(blocks)` for a
/// file-backed entry, `None` for one still in memory (compaction never
/// touches those — the sealer owns them). A merge is due only while
/// more than `fan_in` files exist; among all windows of up to `fan_in`
/// adjacent files the cheapest (fewest total blocks) is chosen, ties
/// to the left — so repeated application converges with minimal write
/// amplification and bounds the steady-state file count at `fan_in`.
///
/// Pure so the `wal_recovery` model and unit tests can exhaust it;
/// the returned range indexes `entries`.
pub fn pick_compaction(entries: &[Option<usize>], fan_in: usize) -> Option<Range<usize>> {
    if fan_in < 2 {
        return None;
    }
    let files = entries.iter().filter(|e| e.is_some()).count();
    if files <= fan_in {
        return None;
    }
    let mut best: Option<(usize, Range<usize>)> = None;
    let mut i = 0usize;
    while i < entries.len() {
        if entries[i].is_none() {
            i += 1;
            continue;
        }
        let start = i;
        while i < entries.len() && entries[i].is_some() {
            i += 1;
        }
        let w = fan_in.min(i - start);
        if w < 2 {
            continue;
        }
        for s in start..=(i - w) {
            let total: usize = entries[s..s + w].iter().map(|e| e.unwrap_or(0)).sum();
            if best.as_ref().is_none_or(|(b, _)| total < *b) {
                best = Some((total, s..s + w));
            }
        }
    }
    best.map(|(_, r)| r)
}

/// Wakeup channel between sealers and the background compactor thread:
/// a level-triggered "work may exist" flag under a condvar, so pokes
/// coalesce while a merge is in flight and shutdown is prompt.
#[derive(Debug, Default)]
pub(crate) struct CompactShared {
    signal: Mutex<CompactSignal>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct CompactSignal {
    wake: bool,
    shutdown: bool,
}

impl CompactShared {
    pub fn new() -> Self {
        CompactShared::default()
    }

    /// Signals that the file set may have grown past budget.
    pub fn poke(&self) {
        let mut g = self
            .signal
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        g.wake = true;
        self.cv.notify_one();
    }

    /// Asks the compactor thread to exit after its current merge.
    pub fn shutdown(&self) {
        let mut g = self
            .signal
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        g.shutdown = true;
        self.cv.notify_all();
    }

    /// Blocks until poked or shut down; returns whether the caller
    /// should run (another pass) rather than exit.
    pub fn wait(&self) -> bool {
        let mut g = self
            .signal
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        while !g.wake && !g.shutdown {
            g = self
                .cv
                .wait(g)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        g.wake = false;
        !g.shutdown
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_merge_within_budget() {
        assert_eq!(pick_compaction(&[], 4), None);
        assert_eq!(pick_compaction(&[Some(1); 4], 4), None);
        assert_eq!(pick_compaction(&[Some(1), None, Some(2)], 4), None);
        // fan_in < 2 can never merge.
        assert_eq!(pick_compaction(&[Some(1); 8], 1), None);
        assert_eq!(pick_compaction(&[Some(1); 8], 0), None);
    }

    #[test]
    fn cheapest_adjacent_window_wins_ties_to_the_left() {
        // 5 files over budget 2: windows of 2; (1,1) at the end is
        // cheapest.
        let e = [Some(4), Some(4), Some(4), Some(1), Some(1)];
        assert_eq!(pick_compaction(&e, 2), Some(3..5));
        // Tie between [0..2] and [1..3]: leftmost.
        let t = [Some(2), Some(2), Some(2), Some(9)];
        assert_eq!(pick_compaction(&t, 2), Some(0..2));
    }

    #[test]
    fn mem_entries_break_runs() {
        // Budget 2, three files but split by a Mem entry: only the
        // adjacent pair merges.
        let e = [Some(1), None, Some(5), Some(5)];
        assert_eq!(pick_compaction(&e, 2), Some(2..4));
        // A lone file between Mem entries can never be in a window.
        let lone = [None, Some(1), None, Some(1), None, Some(1)];
        assert_eq!(pick_compaction(&lone, 2), None);
    }

    #[test]
    fn window_width_caps_at_fan_in() {
        let e = [Some(1); 6];
        assert_eq!(pick_compaction(&e, 4), Some(0..4));
    }

    #[test]
    fn poke_wakes_and_shutdown_stops() {
        let shared = std::sync::Arc::new(CompactShared::new());
        let worker = std::sync::Arc::clone(&shared);
        let handle = std::thread::spawn(move || {
            let mut passes = 0;
            while worker.wait() {
                passes += 1;
            }
            passes
        });
        shared.poke();
        // Wait until the poke is consumed, then stop.
        loop {
            let consumed = {
                let g = shared.signal.lock().unwrap();
                !g.wake
            };
            if consumed {
                break;
            }
            std::thread::yield_now();
        }
        shared.shutdown();
        assert!(handle.join().unwrap() >= 1);
    }
}
