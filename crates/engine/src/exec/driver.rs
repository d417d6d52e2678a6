//! The shared statistics-engine driver.
//!
//! Every executor that runs the HistSim protocol repeats the same
//! scaffolding: build the state machine, mark never-present candidates
//! exact, feed it samples while tracking per-candidate consumption,
//! advance phases whenever demand is met, publish fresh demand to any
//! sampling-engine threads, and package the output with run statistics.
//! [`Driver`] owns exactly that scaffolding so `ScanMatch`/`SyncMatch`
//! (sequential), `FastMatch` (async lookahead) and the query service
//! (sharded quanta, which `ParallelMatch` runs on) differ only in *how
//! blocks are chosen and delivered*, not in how HistSim is driven.

use std::time::Instant;

use fastmatch_core::error::Result;
use fastmatch_core::histsim::{HistAccumulator, HistSim, PhaseKind};
use fastmatch_store::io::IoStats;

use crate::progress::ConsumptionTracker;
use crate::query::QueryJob;
use crate::result::{MatchOutput, RunStats};
use crate::shared::{DemandMode, SharedDemand};

/// What one service quantum has ingested since its last merge: the
/// phase-free count deltas of every block read, plus each block's id and
/// raw candidate codes so the statistics side can maintain consumption
/// tracking without re-reading the block. Cleared and reused by its
/// owner — steady-state pushes allocate nothing.
#[derive(Debug)]
pub(crate) struct ShardBatch {
    /// Count deltas of every pushed block.
    pub acc: HistAccumulator,
    /// `(block id, end of its codes in zs)` per pushed block, in read
    /// order.
    blocks: Vec<(u32, usize)>,
    /// The pushed blocks' candidate codes, concatenated
    /// ([`ConsumptionTracker::block_read`] de-duplicates).
    zs: Vec<u32>,
}

impl ShardBatch {
    /// An empty batch over a `num_candidates × groups` domain.
    pub fn new(num_candidates: usize, groups: usize) -> Self {
        ShardBatch {
            acc: HistAccumulator::new(num_candidates, groups),
            blocks: Vec::new(),
            zs: Vec::new(),
        }
    }

    /// The per-block ingestion step of a quantum: one pass of the
    /// accumulate kernel over block `b`'s tuples, and a note of which
    /// candidates it held.
    #[inline]
    pub fn push_block(&mut self, b: usize, zs: &[u32], xs: &[u32]) {
        self.acc.accumulate(zs, xs);
        self.zs.extend_from_slice(zs);
        self.blocks.push((b as u32, self.zs.len()));
    }

    /// Blocks pushed since the last [`Self::clear`].
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Empties the batch, keeping its storage.
    pub fn clear(&mut self) {
        self.acc.clear();
        self.blocks.clear();
        self.zs.clear();
    }
}

/// The statistics engine shared by all HistSim executors: the state
/// machine plus consumption tracking and run-stats packaging.
#[derive(Debug)]
pub(crate) struct Driver {
    /// The state machine being driven.
    pub hs: HistSim,
    tracker: ConsumptionTracker,
    /// Candidates the block being ingested just ran out of (reused).
    consumed: Vec<u32>,
    t0: Instant,
}

impl Driver {
    /// Builds the state machine for `job` and marks candidates that never
    /// occur in the data as exact (they can yield no samples).
    pub fn new(job: &QueryJob<'_>) -> Result<Self> {
        let t0 = Instant::now();
        let mut hs = HistSim::new(
            job.cfg.clone(),
            job.num_candidates(),
            job.num_groups(),
            job.n_rows() as u64,
            &job.target,
        )?;
        let tracker = ConsumptionTracker::new(&job.bitmap);
        let absent: Vec<u32> = tracker.never_present().collect();
        for c in absent {
            hs.mark_exact(c);
        }
        Ok(Driver {
            hs,
            tracker,
            consumed: Vec::new(),
            t0,
        })
    }

    /// Ingests one read block and updates consumption tracking — the
    /// synchronous ingestion path. The block's tuples are traversed
    /// exactly once, by [`HistSim::ingest_block`]; the distinct-candidate
    /// list it returns drives consumption tracking in `O(distinct)`.
    #[inline]
    pub fn ingest_block(&mut self, b: usize, zs: &[u32], xs: &[u32]) {
        let consumed = &mut self.consumed;
        self.tracker
            .block_read(b, self.hs.ingest_block(zs, xs), |c| consumed.push(c));
        for c in consumed.drain(..) {
            self.hs.mark_exact(c);
        }
    }

    /// Merges a shard batch: folds the accumulated deltas into the state
    /// machine and updates consumption tracking from the per-block
    /// candidate codes — the parallel ingestion path.
    pub fn merge_batch(&mut self, batch: &ShardBatch) {
        self.hs.merge_ref(&batch.acc);
        let hs = &mut self.hs;
        let mut from = 0;
        for &(b, to) in &batch.blocks {
            self.tracker
                .block_read(b as usize, &batch.zs[from..to], |c| hs.mark_exact(c));
            from = to;
        }
    }

    /// Advances the state machine through every phase whose demand is
    /// already satisfied; `true` if that completed at least one phase or
    /// stage-2 round.
    pub fn advance(&mut self) -> Result<bool> {
        let mut stepped = false;
        while self.hs.io_satisfied() && !self.hs.is_done() {
            self.hs.complete_io_phase(false)?;
            stepped = true;
        }
        Ok(stepped)
    }

    /// [`Self::advance`], then publishes the resulting demand snapshot for
    /// sampling-engine / shard-worker threads — as one atomic publication
    /// (single epoch bump), so a woken reader never sees a fresh mode
    /// with stale demand or vice versa.
    pub fn advance_and_publish(&mut self, shared: &SharedDemand) -> Result<bool> {
        let stepped = self.advance()?;
        match self.hs.phase() {
            PhaseKind::Stage1 => shared.publish(DemandMode::ReadAll, None),
            PhaseKind::Stage2 | PhaseKind::Stage3 => {
                shared.publish(DemandMode::AnyActive, Some(self.hs.remaining_slice()));
            }
            PhaseKind::Done => shared.publish(DemandMode::Stop, None),
        }
        Ok(stepped)
    }

    /// Finishes the run in exact mode: the entire table has been consumed.
    pub fn finish_exhausted(&mut self) -> Result<()> {
        self.advance()?;
        if !self.hs.is_done() {
            self.hs.complete_io_phase(true)?;
        }
        Ok(())
    }

    /// Extracts the output and packages it with run statistics.
    pub fn finish(self, io: IoStats) -> Result<MatchOutput> {
        let output = self.hs.output()?;
        let stats = RunStats {
            wall: self.t0.elapsed(),
            io,
            stage2_rounds: output.diagnostics.stage2_rounds,
            samples: output.diagnostics.total_samples,
            exact_finish: output.diagnostics.exact_finish,
            pruned: output.diagnostics.pruned_candidates,
        };
        Ok(MatchOutput { output, stats })
    }
}
