//! `FastMatch`: AnyActive block selection with asynchronous,
//! cache-conscious lookahead (paper §4).
//!
//! Two threads, mirroring Figure 6:
//!
//! * the **sampling engine** (lookahead thread) steps one
//!   [`ShardWalk`] over the whole table in windows of `lookahead`
//!   blocks — Algorithm 3 marks each window for reading or skipping as a
//!   bitset, one word OR per 64 blocks per active candidate
//!   ([`BitmapIndex::or_window`]: 16 per candidate for the default
//!   1024-block window), and stops consulting candidates once every
//!   unvisited block of the window is marked — and streams each window's
//!   decisions through a bounded channel;
//! * the **I/O manager + statistics engine** (caller thread) reads each
//!   marked run *as a run* ([`BlockReader::read_run`]), ingests its
//!   blocks into HistSim one at a time, and every `PUBLISH_EVERY`
//!   blocks (at once when stage 1's tuples are in) settles them —
//!   totals, demand and row-counted consumption, once per distinct
//!   candidate of those blocks — advances its stages, and publishes
//!   which candidates are still active through [`SharedDemand`]: every
//!   count after a stage or round boundary, otherwise only the
//!   candidates that have run out since. A stage-2/3 phase end is
//!   therefore seen at most `PUBLISH_EVERY − 1` blocks late; the extra
//!   blocks are valid samples, like a stale mark.
//!
//! Of Figure 6's three stages, **marking** (`ShardWalk::step`, the same
//! walk the query service drives, and with it `ParallelMatch`) runs at
//! most two windows ahead of I/O (below). **I/O** is a demand read of
//! the marked run and reads nothing ahead: the file backend fetches it
//! one positioned read per attribute and 64-block chunk, the in-memory
//! backend lends the table's own slices. **Ingestion** is the visitor
//! the run read calls per block.
//!
//! The channel carries one message per marked window and holds two, so
//! block selection runs at most two windows (`2 × lookahead` blocks)
//! ahead of I/O — the freshness/decoupling trade-off of §4.2 Challenge 4.
//! Active states seen by the sampling engine may be slightly stale;
//! correctness is unaffected (stale reads only deliver extra valid
//! samples), only efficiency is at stake.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;

use fastmatch_core::error::{CoreError, Result};
use fastmatch_store::bitmap::BitmapIndex;
#[cfg(doc)]
use fastmatch_store::io::BlockReader;
use fastmatch_store::io::IoStats;

use crate::exec::driver::Driver;
use crate::exec::walk::{ShardWalk, Step};
use crate::exec::{start_block, storage_err, Executor};
use crate::query::QueryJob;
use crate::result::MatchOutput;
use crate::shared::{DemandMode, SharedDemand};

/// Default lookahead window (paper default, §5.2).
pub const DEFAULT_LOOKAHEAD: usize = 1024;

/// How often (in blocks read) the I/O thread settles what it has
/// ingested and republishes per-candidate demand. Staleness of a few
/// blocks is negligible next to the lookahead window itself.
const PUBLISH_EVERY: u64 = 16;

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

/// Messages from the sampling engine to the I/O manager — one batch per
/// marked lookahead window, so channel traffic (and any backpressure
/// parking) is amortized over the whole window.
enum Msg {
    /// One window's decisions: contiguous `(start, len)` runs of blocks to
    /// read, plus the number of blocks the window skipped.
    Batch {
        /// Contiguous block runs to read, in scan order.
        runs: Vec<(u32, u32)>,
        /// Blocks skipped by AnyActive in this window.
        skipped: u32,
    },
    /// A full pass over the block sequence finished.
    PassEnd,
    /// Every block has been marked for reading at some point: the table is
    /// fully consumed once the channel drains.
    Exhausted,
}

impl Executor for FastMatchExec {
    fn name(&self) -> &'static str {
        "FastMatch"
    }

    fn run(&self, job: &QueryJob<'_>, seed: u64) -> Result<MatchOutput> {
        let mut d = Driver::new(job)?;

        let nb = job.layout.num_blocks();
        let start = start_block(nb, seed);
        let shared = Arc::new(SharedDemand::new(job.num_candidates()));
        shared.set_mode(DemandMode::ReadAll); // stage 1

        // One message per lookahead window; capacity 2 keeps the sampling
        // engine at most two windows ahead of I/O (§4.2 Challenge 4's
        // freshness bound).
        let (tx, rx) = sync_channel::<Msg>(2);
        let walk = ShardWalk::new(0..nb, start, self.lookahead, job.num_candidates());
        let shared_for_marker = Arc::clone(&shared);

        let mut result: Option<Result<IoStats>> = None;
        std::thread::scope(|scope| {
            scope.spawn(move || {
                sampling_engine(&job.bitmap, &shared_for_marker, tx, walk);
            });
            let r = io_and_stats_loop(job, &mut d, &shared, rx);
            shared.set_mode(DemandMode::Stop);
            result = Some(r);
        });
        result.expect("scope completed").and_then(|io| d.finish(io))
    }
}

/// The lookahead thread: steps the walk one `lookahead` window at a time
/// and ships each window's decisions as one message — marked runs in the
/// shape the I/O manager reads them in, skipped blocks as a count.
fn sampling_engine(
    bitmap: &BitmapIndex,
    shared: &SharedDemand,
    tx: SyncSender<Msg>,
    mut walk: ShardWalk,
) {
    loop {
        let mut runs: Vec<(u32, u32)> = Vec::new();
        let mut skipped = 0u32;
        let step = walk.step(bitmap, shared, usize::MAX, |run, marked| {
            if marked {
                runs.push((run.start as u32, run.len() as u32));
            } else {
                skipped += run.len() as u32;
            }
            true
        });
        if (!runs.is_empty() || skipped > 0) && tx.send(Msg::Batch { runs, skipped }).is_err() {
            break;
        }
        match step {
            Step::Window => {}
            Step::PassEnd { fruitless, epoch } => {
                if tx.send(Msg::PassEnd).is_err() {
                    break;
                }
                if fruitless {
                    shared.wait_past(epoch);
                }
            }
            Step::Exhausted => {
                let _ = tx.send(Msg::Exhausted);
                break;
            }
            Step::Stop => break,
        }
    }
}

/// The I/O manager + statistics engine on the caller thread. Returns the
/// run's I/O accounting; the caller packages it via [`Driver::finish`].
fn io_and_stats_loop(
    job: &QueryJob<'_>,
    d: &mut Driver,
    shared: &SharedDemand,
    rx: Receiver<Msg>,
) -> Result<IoStats> {
    let mut reader = job.reader();
    let mut reads_since_publish = 0u64;
    let mut had_read_since_pass_end = true;
    let mut idle_passes = 0u32;

    // The initial phase may already be satisfied (degenerate configs).
    d.advance_and_publish(shared)?;

    while !d.hs.is_done() {
        let msg = match rx.recv() {
            Ok(m) => m,
            Err(_) => {
                return Err(CoreError::PhaseViolation(
                    "sampling engine terminated early".into(),
                ))
            }
        };
        match msg {
            Msg::Batch { runs, skipped } => {
                reader.skip_blocks(skipped as u64);
                for (start, len) in runs {
                    had_read_since_pass_end = true;
                    if d.hs.is_done() {
                        break;
                    }
                    let run = start as usize..(start + len) as usize;
                    let mut published = Ok(false);
                    reader
                        .read_run(run, job.z_attr, job.x_attr, |_, zs, xs| {
                            d.ingest_block(zs, xs);
                            reads_since_publish += 1;
                            if d.hs.io_satisfied() || reads_since_publish >= PUBLISH_EVERY {
                                published = d.advance_and_publish(shared);
                                reads_since_publish = 0;
                            }
                            published.is_ok() && !d.hs.is_done()
                        })
                        .map_err(storage_err)?;
                    published?;
                }
            }
            Msg::PassEnd => {
                d.advance_and_publish(shared)?;
                if had_read_since_pass_end {
                    idle_passes = 0;
                } else {
                    // Several idle passes in a row can be legitimate: the
                    // sampling engine may queue PassEnd messages faster
                    // than fresh demand propagates to it. Only a long
                    // sustained streak (the engine polls for a new epoch
                    // every 20 µs after an idle pass) indicates a genuine
                    // bug.
                    idle_passes += 1;
                    if idle_passes >= 1000 && !d.hs.is_done() {
                        return Err(CoreError::PhaseViolation(
                            "no readable blocks for outstanding demand".into(),
                        ));
                    }
                }
                had_read_since_pass_end = false;
            }
            Msg::Exhausted => {
                d.advance_and_publish(shared)?;
                d.finish_exhausted()?;
            }
        }
    }
    shared.set_mode(DemandMode::Stop);
    drop(rx); // unblock the sampling engine

    Ok(reader.stats())
}
