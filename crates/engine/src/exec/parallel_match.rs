//! `ParallelMatch`: shard-parallel ingestion over mergeable accumulators.
//!
//! FastMatch (paper §4) decouples *block selection* from the statistics
//! engine but still funnels every tuple through one ingesting core.
//! `ParallelMatch` removes that ceiling by splitting ingestion itself:
//!
//! * `N` **shard workers** each own a disjoint contiguous block range
//!   (a [`ShardedBlockReader`]), step the same [`ShardWalk`] over it that
//!   FastMatch's sampling engine steps over the whole table (Figure 6's
//!   marking stage, Algorithm 3), read the marked runs themselves (its
//!   I/O stage) and fold their tuples (ingestion) into phase-free
//!   [`HistAccumulator`] deltas — no locks, no shared mutable state;
//! * the **statistics engine** (caller thread) receives accumulator
//!   batches over a bounded channel, merges them into the authoritative
//!   [`HistSim`](fastmatch_core::histsim::HistSim) via the shared
//!   [`Driver`], advances phases, and publishes fresh per-candidate demand
//!   through [`SharedDemand`] — the same phase/demand protocol every other
//!   executor honors.
//!
//! Workers see demand snapshots that may be slightly stale, exactly like
//! FastMatch's lookahead thread: stale reads only deliver extra valid
//! samples (the table is pre-permuted, so any block set is a uniform
//! without-replacement sample), trading a bounded amount of over-reading
//! for never stalling any core. Each worker multi-passes its shard so
//! blocks skipped under one round's demand stay eligible for later
//! rounds; a worker whose shard is fully consumed reports exhaustion and
//! exits. When every shard is exhausted the table has been fully
//! consumed and the run finishes with exact results.

use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::Arc;

use fastmatch_core::error::{CoreError, Result};
use fastmatch_store::io::{IoStats, ShardedBlockReader};

use crate::exec::driver::{Driver, ShardBatch};
use crate::exec::walk::{ShardWalk, Step};
use crate::exec::Executor;
use crate::query::QueryJob;
use crate::result::MatchOutput;
use crate::shared::{DemandMode, SharedDemand};

/// Default number of shard workers: the machine's parallelism, capped —
/// beyond a handful of cores the statistics engine's merge becomes the
/// bottleneck before ingestion does.
pub const DEFAULT_SHARDS: usize = 4;

/// Blocks accumulated per batch message. Larger batches amortize channel
/// and merge overhead; smaller ones bound demand staleness and stage
/// overshoot. 32 blocks ≈ 4800 tuples at the paper's block size.
const BATCH_BLOCKS: usize = 32;

/// The shard-parallel executor.
#[derive(Debug, Clone, Copy)]
pub struct ParallelMatchExec {
    /// Number of shard workers (and block-range shards).
    pub shards: usize,
}

impl Default for ParallelMatchExec {
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(DEFAULT_SHARDS);
        ParallelMatchExec {
            shards: cores.clamp(1, 8),
        }
    }
}

impl ParallelMatchExec {
    /// Creates the executor with a fixed shard count.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn with_shards(shards: usize) -> Self {
        assert!(shards > 0, "shard count must be positive");
        ParallelMatchExec { shards }
    }
}

/// One message from a shard worker to the statistics engine. Idle and
/// exit messages carry the worker's index so the statistics engine can
/// track exactly which workers are parked versus gone — counting
/// anonymous messages is not enough (see `stats_loop`).
enum Msg {
    /// Worker `.0`'s next batch of ingested blocks. The statistics engine
    /// merges it and hands the storage back over the worker's return
    /// channel, so a run allocates a few batches per worker, not one per
    /// message.
    Batch(usize, ShardBatch),
    /// Worker `.0` finished a full pass over its shard without reading a
    /// single block and is parking until demand changes.
    IdlePass(usize),
    /// Worker `.0`'s shard is fully consumed (or was empty); it has
    /// exited.
    ShardExhausted(usize),
    /// A worker hit a storage failure (I/O error, corrupt page) and has
    /// exited; the run must fail with this error.
    Failed(CoreError),
}

impl Executor for ParallelMatchExec {
    fn name(&self) -> &'static str {
        "ParallelMatch"
    }

    fn run(&self, job: &QueryJob<'_>, seed: u64) -> Result<MatchOutput> {
        let mut d = Driver::new(job)?;
        let nb = job.layout.num_blocks();
        // Never spawn more workers than blocks: the extra shards would be
        // empty. (An empty shard is still handled gracefully by
        // `shard_worker` — it reports exhaustion and exits immediately —
        // but correctness should not depend on this clamp alone.)
        let shards = self.shards.min(nb).max(1);

        let shared = Arc::new(SharedDemand::new(job.num_candidates()));
        shared.set_mode(DemandMode::ReadAll); // stage 1

        // Bounded to 2 in-flight batches per worker: backpressure keeps
        // workers from racing arbitrarily far ahead of the merge.
        let (tx, rx) = sync_channel::<Msg>(2 * shards);
        let reader = job.reader();

        let mut result: Option<Result<()>> = None;
        let mut io = IoStats::default();
        std::thread::scope(|scope| {
            let mut recycle = Vec::with_capacity(shards);
            let handles: Vec<_> = (0..shards)
                .map(|w| {
                    let (back_tx, back_rx) = channel::<ShardBatch>();
                    recycle.push(back_tx);
                    let shard_reader = reader.shard(w, shards);
                    let tx = tx.clone();
                    let shared = Arc::clone(&shared);
                    let link = (tx, back_rx);
                    scope.spawn(move || shard_worker(job, w, shard_reader, &shared, link, seed))
                })
                .collect();
            drop(tx); // the statistics engine holds only the receiver
            let r = stats_loop(&mut d, &shared, rx, &recycle);
            shared.set_mode(DemandMode::Stop);
            // Workers are unblocked (receiver dropped, mode = Stop): join
            // them and aggregate the per-shard I/O accounting, wasted
            // reads included — the same accounting basis as FastMatch.
            io = handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .sum();
            result = Some(r);
        });
        result.expect("scope completed")?;
        d.finish(io)
    }
}

/// One shard worker: steps a [`ShardWalk`] over its block range (rotated
/// by a `seed`-derived start, so the seed varies the sample), reads each
/// marked run into
/// the current accumulator batch and ships a batch every
/// [`BATCH_BLOCKS`]. Returns the shard's I/O accounting.
///
/// An **empty** shard (possible when a caller shards a reader more ways
/// than there are blocks) reports exhaustion and exits immediately — it
/// must never park waiting for an epoch, because with nothing to read no
/// demand change could ever release it.
fn shard_worker(
    job: &QueryJob<'_>,
    w: usize,
    mut reader: ShardedBlockReader<'_>,
    shared: &SharedDemand,
    (tx, recycled): (SyncSender<Msg>, Receiver<ShardBatch>),
    seed: u64,
) -> IoStats {
    let nc = job.num_candidates();
    let ng = job.num_groups();
    let mut walk = ShardWalk::for_shard(reader.blocks(), w, seed, nc);

    let mut batch = ShardBatch::new(nc, ng);
    // Ships the current batch and continues on recycled storage (cleared
    // here, off the statistics thread) when the statistics engine has
    // already handed one back. `false` once the receiver is gone.
    let send = |batch: &mut ShardBatch| {
        let next = match recycled.try_recv() {
            Ok(mut used) => {
                used.clear();
                used
            }
            Err(_) => ShardBatch::new(nc, ng),
        };
        tx.send(Msg::Batch(w, std::mem::replace(batch, next)))
            .is_ok()
    };

    loop {
        // Marked runs are read as runs (the backend fetches them together
        // and reads ahead within them), unmarked ones skipped through the
        // range-validated bulk API.
        let step = walk.step(&job.bitmap, shared, usize::MAX, |run, marked| {
            if !marked {
                reader.skip_blocks(run);
                return true;
            }
            let mut receiver_gone = false;
            let read = reader.read_run(run, job.z_attr, job.x_attr, |b, zs, xs| {
                batch.push_block(b, zs, xs);
                receiver_gone = batch.len() >= BATCH_BLOCKS && !send(&mut batch);
                !receiver_gone
            });
            // A storage failure (I/O error, corrupt page) ends the worker
            // and fails the whole run through the statistics engine —
            // same error contract as the sequential executors, no panic.
            if let Err(e) = read {
                let _ = tx.send(Msg::Failed(crate::exec::storage_err(e)));
                return false;
            }
            !receiver_gone
        });
        // Flush a finished pass's partial batch so the statistics engine
        // always sees completed passes promptly.
        if matches!(step, Step::PassEnd { .. } | Step::Exhausted)
            && batch.len() > 0
            && !send(&mut batch)
        {
            break;
        }
        match step {
            // Nothing readable under the demand snapshot this pass saw:
            // tell the statistics engine (its stuck-detection valve) and
            // wait for a new epoch (or stop) instead of re-marking
            // identical state.
            Step::PassEnd {
                fruitless: true,
                epoch,
            } => {
                if tx.send(Msg::IdlePass(w)).is_err() {
                    break;
                }
                shared.wait_past(epoch);
            }
            Step::Window | Step::PassEnd { .. } => {}
            Step::Exhausted => {
                let _ = tx.send(Msg::ShardExhausted(w));
                break;
            }
            Step::Stop => break,
        }
    }
    reader.stats()
}

/// The statistics engine: merges worker batches into the state machine and
/// republishes demand. I/O accounting lives in the per-shard readers and
/// is aggregated by the caller after joining the workers.
fn stats_loop(
    d: &mut Driver,
    shared: &SharedDemand,
    rx: Receiver<Msg>,
    recycle: &[Sender<ShardBatch>],
) -> Result<()> {
    let shards = recycle.len();
    // Per-worker liveness: which workers have exited (shard consumed or
    // empty) and which are currently parked after an idle pass. Both are
    // tracked by worker id — an anonymous tally would go stale the moment
    // a worker exits, which is exactly how the old accounting could
    // deadlock: with the last live workers already parked, a late
    // `ShardExhausted` shrank the live count without re-running the
    // all-parked check, so nobody ever bumped the epoch again.
    let mut exhausted = vec![false; shards];
    let mut idle = vec![false; shards];
    // Stuck-detection valve (the parallel analogue of the sequential
    // executors' idle-pass check): when every live worker is parked with
    // no merge in between, demand should be impossible — a candidate
    // needing samples implies an unread block in some shard. Re-publish
    // to give workers a fresh epoch, and fail loudly rather than hang if
    // that happens repeatedly. The valve only errors; it must never
    // silently degrade the run (e.g. by forcing an exact finish the data
    // does not justify).
    let mut stuck_rounds = 0u32;

    // The initial phase may already be satisfied (degenerate configs).
    d.advance_and_publish(shared)?;

    while !d.hs.is_done() {
        let msg = match rx.recv() {
            Ok(m) => m,
            Err(_) => {
                // All workers exited. Only a full set of exhaustion
                // reports makes finishing exact sound; anything else is a
                // protocol bug that must not masquerade as completion.
                if exhausted.iter().all(|&e| e) {
                    d.finish_exhausted()?;
                    break;
                }
                return Err(CoreError::PhaseViolation(
                    "shard workers exited with open demand and unconsumed blocks".into(),
                ));
            }
        };
        match msg {
            Msg::Batch(w, batch) => {
                // The merge below republishes (bumping the epoch), which
                // wakes every parked worker for a fresh pass.
                idle.iter_mut().for_each(|f| *f = false);
                stuck_rounds = 0;
                d.merge_batch(&batch);
                d.advance_and_publish(shared)?;
                // A worker that already exited just drops it.
                let _ = recycle[w].send(batch);
            }
            Msg::IdlePass(w) => {
                idle[w] = true;
                wake_if_all_parked(d, shared, &mut idle, &exhausted, &mut stuck_rounds)?;
            }
            Msg::ShardExhausted(w) => {
                exhausted[w] = true;
                idle[w] = false;
                if exhausted.iter().all(|&e| e) {
                    if !d.hs.is_done() {
                        d.finish_exhausted()?;
                    }
                } else {
                    // The live set shrank: the remaining workers may all
                    // be parked already, so the all-parked check must be
                    // re-evaluated here too.
                    wake_if_all_parked(d, shared, &mut idle, &exhausted, &mut stuck_rounds)?;
                }
            }
            // A storage failure in any shard fails the run with that
            // error; the caller's cleanup (Stop + receiver drop) unwinds
            // the surviving workers.
            Msg::Failed(e) => return Err(e),
        }
    }
    shared.set_mode(DemandMode::Stop);
    drop(rx); // unblock workers parked on a full channel

    Ok(())
}

/// The park/exit tally decision: is every still-live worker parked?
///
/// Extracted as a pure function because this predicate *is* the PR-2
/// deadlock fix: it must be evaluated against the by-id `idle` /
/// `exhausted` sets (and re-evaluated whenever the live set shrinks),
/// not against an anonymous running count. Both call sites —
/// `wake_if_all_parked` here and the quantum scheduler's analogue in
/// `service/state.rs` — and `fastmatch-check`'s `park_exit` model (which
/// keeps the historical anonymous tally as a mutation and shows it
/// deadlocks) share this definition. Invariant name in DESIGN.md:
/// `all-parked-implies-wake`.
pub fn all_live_parked(idle: &[bool], exhausted: &[bool]) -> bool {
    debug_assert_eq!(idle.len(), exhausted.len());
    let live = exhausted.iter().filter(|&&e| !e).count();
    if live == 0 {
        return false;
    }
    let parked = idle
        .iter()
        .zip(exhausted)
        .filter(|&(&i, &e)| i && !e)
        .count();
    parked >= live
}

/// If every still-live worker is parked after an idle pass, republish the
/// demand snapshot (bumping the epoch wakes them all) and count a stuck
/// round; after too many consecutive stuck rounds, fail loudly.
fn wake_if_all_parked(
    d: &mut Driver,
    shared: &SharedDemand,
    idle: &mut [bool],
    exhausted: &[bool],
    stuck_rounds: &mut u32,
) -> Result<()> {
    if !all_live_parked(idle, exhausted) {
        return Ok(());
    }
    idle.iter_mut().for_each(|f| *f = false);
    *stuck_rounds += 1;
    if *stuck_rounds >= 16 {
        return Err(CoreError::PhaseViolation(
            "no readable blocks for outstanding demand".into(),
        ));
    }
    d.advance_and_publish(shared)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastmatch_core::histsim::HistSimConfig;
    use fastmatch_store::bitmap::BitmapIndex;
    use fastmatch_store::block::BlockLayout;
    use fastmatch_store::schema::{AttrDef, Schema};
    use fastmatch_store::table::Table;

    #[test]
    fn all_live_parked_tracks_identity_not_counts() {
        // No workers / all exhausted: nothing to wake.
        assert!(!all_live_parked(&[], &[]));
        assert!(!all_live_parked(&[false, false], &[true, true]));
        // The PR-2 scenario: one worker parked, the other exhausted —
        // the live set is exactly the parked set, so a wake is due.
        assert!(all_live_parked(&[true, false], &[false, true]));
        // A live, running worker means no wake yet.
        assert!(!all_live_parked(&[true, false], &[false, false]));
        // A stale idle flag on an exhausted worker must not count
        // toward the parked tally (identity, not anonymous counts).
        assert!(!all_live_parked(&[false, true], &[false, true]));
    }

    /// An empty shard (shard count > block count, below the executor's
    /// clamp) must make the worker report exhaustion and return at once —
    /// never park on an epoch that cannot change for it.
    #[test]
    fn empty_shard_worker_reports_exhaustion_and_exits() {
        let schema = Schema::new(vec![AttrDef::new("z", 2), AttrDef::new("x", 2)]);
        let table = Table::new(schema, vec![vec![0, 1, 0, 1, 0, 1], vec![0, 0, 1, 1, 0, 1]]);
        let layout = BlockLayout::new(6, 3); // 2 blocks
        let bitmap = BitmapIndex::build(&table, 0, &layout);
        let job = QueryJob::new(
            &table,
            layout,
            &bitmap,
            0,
            1,
            vec![0.5, 0.5],
            HistSimConfig::default(),
        );
        let shared = SharedDemand::new(job.num_candidates());
        let (tx, rx) = sync_channel::<Msg>(4);
        let reader = job.reader().shard(3, 4); // of 2 blocks: empty
        assert_eq!(reader.num_blocks(), 0);
        // Never publish any demand: a parking worker would hang forever,
        // so returning at all proves the early exit.
        let stats = shard_worker(&job, 3, reader, &shared, (tx, channel().1), 0);
        assert_eq!(stats, IoStats::default());
        match rx.try_recv() {
            Ok(Msg::ShardExhausted(3)) => {}
            other => panic!(
                "expected ShardExhausted(3), got {:?}",
                other.map(|m| match m {
                    Msg::Batch(..) => "Batch",
                    Msg::IdlePass(_) => "IdlePass",
                    Msg::ShardExhausted(_) => "ShardExhausted",
                    Msg::Failed(_) => "Failed",
                })
            ),
        }
    }
}
