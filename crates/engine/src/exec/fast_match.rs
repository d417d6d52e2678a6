//! `FastMatch`: AnyActive block selection with cache-conscious lookahead
//! (paper §4).
//!
//! Figure 6's three stages run one after the other on the calling
//! thread, one lookahead window at a time:
//!
//! * **marking** steps one [`ShardWalk`] over the whole table in windows
//!   of `lookahead` blocks (the same walk the query service drives) —
//!   Algorithm 3 marks each window for reading or skipping as a bitset
//!   under HistSim's current demand, one word OR per 64 blocks per
//!   active candidate ([`BitmapIndex::or_window`]: 16 per candidate for
//!   the default 1024-block window), and stops consulting candidates
//!   once every unvisited block of the window is marked;
//! * **I/O** reads each marked run of the window *as a run*
//!   ([`BlockReader::read_run`]) and reads nothing ahead: the file
//!   backend fetches it one positioned read per attribute and 64-block
//!   chunk, the in-memory backend lends the table's own slices; unmarked
//!   runs are counted as skipped;
//! * **ingestion** is the visitor the run read calls per block: HistSim's
//!   fused kernel, `Scan`'s two increments per tuple (counts and rows
//!   read are current at once). Every `SETTLE_EVERY` blocks (at once
//!   when stage 1's tuples are in; further apart while thousands of
//!   candidates hold demand, since a settlement loads one row count per
//!   active candidate) it settles them — demand and row-counted
//!   consumption — and advances the stages; the next window's marking
//!   reads which candidates are still active from HistSim's demand.
//!
//! A window is marked once, before any of its blocks is read, so its
//! marks are at most one window stale: a candidate whose demand runs out
//! while its window is being read still has its marked blocks in that
//! window read — the freshness/decoupling trade-off of §4.2 Challenge 4.
//! Stale marks only deliver extra valid samples, so correctness is
//! unaffected; only efficiency is at stake. With no second thread, a run
//! replays exactly at a fixed seed.
//!
//! Fresh marks leave many one-block gaps between marked runs once few
//! candidates hold demand, and each gap splits a read in two (on the
//! file backend, one more positioned read per attribute) and comes back
//! as a one-block read in a later pass if demand moves onto it. The walk
//! therefore also marks such lone gaps
//! ([`ShardWalk::reading_lone_gaps`]): a 1 M-row TAXI query over the
//! file reads its 6 667 blocks in about 470 runs instead of 1 900.

use fastmatch_core::error::{CoreError, Result};
#[cfg(doc)]
use fastmatch_store::bitmap::BitmapIndex;
#[cfg(doc)]
use fastmatch_store::io::BlockReader;

use crate::exec::driver::Driver;
use crate::exec::walk::{ShardWalk, Step};
use crate::exec::{start_block, storage_err, Executor};
use crate::query::QueryJob;
use crate::result::MatchOutput;

/// Default lookahead window (paper default, §5.2).
pub const DEFAULT_LOOKAHEAD: usize = 1024;

/// How often (in blocks read) the statistics engine settles what it has
/// ingested and brings per-candidate demand up to date. Staleness of a
/// few blocks is negligible next to the lookahead window itself.
const SETTLE_EVERY: u64 = 16;

/// Active candidates per block read that a settlement may cost. A
/// settlement loads one row count per active candidate, so while more
/// than `SETTLE_EVERY × ACTIVE_PER_BLOCK` candidates hold demand (TAXI's
/// `Location` at 1 M rows, whose stage 1 of 10 000 samples prunes few of
/// its 7 641 values, starts stage 2 with about 4 000), settlements are
/// spaced to `active / ACTIVE_PER_BLOCK` blocks, which keeps their cost
/// under one load per two tuples read. Phase ends are still seen within
/// `SETTLE_EVERY − 1` blocks once few candidates are left.
const ACTIVE_PER_BLOCK: u64 = 64;

/// Blocks read between settlements while `active` candidates hold
/// demand.
fn settle_every(active: usize) -> u64 {
    SETTLE_EVERY.max(active as u64 / ACTIVE_PER_BLOCK)
}

/// The full FastMatch executor.
#[derive(Debug, Clone, Copy)]
pub struct FastMatchExec {
    /// Lookahead window in blocks.
    pub lookahead: usize,
}

impl Default for FastMatchExec {
    fn default() -> Self {
        FastMatchExec {
            lookahead: DEFAULT_LOOKAHEAD,
        }
    }
}

impl FastMatchExec {
    /// Creates the executor with a custom lookahead window.
    pub fn with_lookahead(lookahead: usize) -> Self {
        assert!(lookahead > 0, "lookahead must be positive");
        FastMatchExec { lookahead }
    }
}

impl Executor for FastMatchExec {
    fn name(&self) -> &'static str {
        "FastMatch"
    }

    fn run(&self, job: &QueryJob<'_>, seed: u64) -> Result<MatchOutput> {
        let mut d = Driver::new(job)?;
        let mut reader = job.reader();
        let nb = job.layout.num_blocks();
        let mut walk = ShardWalk::new(
            0..nb,
            start_block(nb, seed),
            self.lookahead,
            job.num_candidates(),
        )
        .reading_lone_gaps();
        let mut reads_since_settle = 0u64;

        // The initial phase may already be satisfied (degenerate configs).
        d.advance()?;
        while !d.hs.is_done() {
            // Mark the next window under the demand of the last advance,
            // then read its marked runs into the statistics engine.
            let mut failure = Ok(());
            let marked = walk.mark(&job.bitmap, d.hs.demand());
            let step = marked.unwrap_or_else(|| {
                walk.hand_out(usize::MAX, |run, marked| {
                    if !marked {
                        reader.skip_blocks(run.len() as u64);
                        return true;
                    }
                    let read = reader.read_run(run, job.z_attr, job.x_attr, |_, zs, xs| {
                        d.ingest_block(zs, xs);
                        reads_since_settle += 1;
                        if d.hs.io_satisfied()
                            || reads_since_settle >= settle_every(d.hs.active_count())
                        {
                            reads_since_settle = 0;
                            failure = d.advance().map(|_| ());
                        }
                        failure.is_ok() && !d.hs.is_done()
                    });
                    if let Err(e) = read {
                        failure = Err(storage_err(e));
                    }
                    failure.is_ok() && !d.hs.is_done()
                })
            });
            failure?;
            match step {
                Step::Window | Step::Stop => {}
                Step::PassEnd { fruitless, .. } => {
                    // Demand on a candidate implies unread blocks holding
                    // it, so a pass that marked nothing must be followed
                    // by a phase step; otherwise the next pass would find
                    // nothing either.
                    let stepped = d.advance()?;
                    if fruitless && !stepped && !d.hs.is_done() {
                        return Err(CoreError::PhaseViolation(
                            "no readable blocks for outstanding demand".into(),
                        ));
                    }
                }
                Step::Exhausted => d.finish_exhausted()?,
            }
        }
        d.finish(reader.stats())
    }
}
