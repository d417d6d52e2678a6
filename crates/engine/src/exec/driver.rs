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
use crate::shared::{needs_full_publication, DemandMode, SharedDemand};

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
    /// The phase [`Self::advance_and_publish`] last published (`None`
    /// before the first publication).
    published_phase: Option<PhaseKind>,
    /// How many of [`HistSim::deactivated`] that publication covered.
    published_deactivations: usize,
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
            published_phase: None,
            published_deactivations: 0,
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
    /// stage-2 round. A driver that publishes demand advances only
    /// through [`Self::advance_and_publish`] (and, at the very end,
    /// [`Self::finish_exhausted`]), so that no step goes unpublished.
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
    /// with stale demand or vice versa. The per-candidate counts go out
    /// in full only when [`needs_full_publication`] says demand may have
    /// risen; otherwise only the candidates deactivated since the last
    /// publication are zeroed, which keeps the published active set
    /// equal to HistSim's at a cost of O(deactivations), not O(|V_Z|).
    pub fn advance_and_publish(&mut self, shared: &SharedDemand) -> Result<bool> {
        let stepped = self.advance()?;
        let phase = self.hs.phase();
        let deactivated = self.hs.deactivated();
        match phase {
            PhaseKind::Stage1 => shared.publish(DemandMode::ReadAll, None),
            PhaseKind::Stage2 | PhaseKind::Stage3 => {
                if needs_full_publication(stepped, self.published_phase, phase) {
                    shared.publish(DemandMode::AnyActive, Some(self.hs.remaining_slice()));
                } else {
                    let since = &deactivated[self.published_deactivations..];
                    shared.publish_deactivations(DemandMode::AnyActive, since);
                }
            }
            PhaseKind::Done => shared.publish(DemandMode::Stop, None),
        }
        self.published_phase = Some(phase);
        self.published_deactivations = deactivated.len();
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

#[cfg(test)]
mod tests {
    use super::*;
    use fastmatch_core::histsim::HistSimConfig;
    use fastmatch_store::bitmap::BitmapIndex;
    use fastmatch_store::block::BlockLayout;
    use fastmatch_store::schema::{AttrDef, Schema};
    use fastmatch_store::table::Table;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// What the publications of one run went through.
    #[derive(Default)]
    struct Seen {
        /// Publications made in stage 1, 2 and 3.
        by_stage: [usize; 3],
        /// Publications after which a candidate whose demand was dropped
        /// by `mark_exact` (consumed, still short of its demand) was
        /// listed as deactivated.
        exact_drops: usize,
    }

    /// Publishes and checks that the published active set is HistSim's.
    fn publish_and_check(d: &mut Driver, shared: &SharedDemand, seen: &mut Seen, seed: u64) {
        d.advance_and_publish(shared).unwrap();
        match d.hs.phase() {
            PhaseKind::Stage1 => seen.by_stage[0] += 1,
            PhaseKind::Stage2 => seen.by_stage[1] += 1,
            PhaseKind::Stage3 => seen.by_stage[2] += 1,
            PhaseKind::Done => return,
        }
        let hs = &d.hs;
        if hs.deactivated().iter().any(|&c| hs.is_exact(c)) {
            seen.exact_drops += 1;
        }
        for c in 0..shared.len() {
            assert_eq!(
                shared.is_active(c),
                hs.is_active(c as u32),
                "seed {seed}: candidate {c} in {:?}",
                hs.phase()
            );
        }
    }

    /// One random query, read once through in rotated order on the
    /// `ingest_block` path or in `merge_batch` batches, publishing after
    /// a random number of blocks each time.
    fn run(seed: u64, batched: bool, seen: &mut Seen) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let candidates = rng.gen_range(2..10u32);
        let groups = rng.gen_range(2..5u32);
        let rows = rng.gen_range(300..3_000usize);
        // Skewed towards low codes, so high codes are rare and run out of
        // blocks mid-phase, short of their demand.
        let z = (0..rows)
            .map(|_| (rng.gen::<f64>().powi(3) * candidates as f64) as u32)
            .collect();
        let x = (0..rows).map(|_| rng.gen_range(0..groups)).collect();
        let schema = Schema::new(vec![
            AttrDef::new("z", candidates),
            AttrDef::new("x", groups),
        ]);
        let table = Table::new(schema, vec![z, x]);
        let layout = BlockLayout::new(rows, rng.gen_range(1..16));
        let bitmap = BitmapIndex::build(&table, 0, &layout);
        let cfg = HistSimConfig {
            k: rng.gen_range(1..3),
            epsilon: rng.gen_range(0.2..0.5),
            delta: 0.05,
            sigma: 0.0,
            stage1_samples: rng.gen_range(20..200),
            ..HistSimConfig::default()
        };
        let target = (0..groups).map(|g| 1.0 + g as f64).collect();
        let job = QueryJob::new(&table, layout, &bitmap, 0, 1, target, cfg);
        let mut d = Driver::new(&job).unwrap();
        let shared = SharedDemand::new(job.num_candidates());
        publish_and_check(&mut d, &shared, seen, seed);

        let mut reader = job.reader();
        let nb = layout.num_blocks();
        let start = rng.gen_range(0..nb);
        let mut batch = ShardBatch::new(job.num_candidates(), job.num_groups());
        let mut until_publish = rng.gen_range(1..24usize);
        for b in (start..nb).chain(0..start) {
            if d.hs.is_done() {
                break;
            }
            let (zs, xs) = reader.block_slices(b, 0, 1);
            if batched {
                batch.push_block(b, zs, xs);
            } else {
                d.ingest_block(b, zs, xs);
            }
            until_publish -= 1;
            if until_publish == 0 {
                d.merge_batch(&batch);
                batch.clear();
                publish_and_check(&mut d, &shared, seen, seed);
                until_publish = rng.gen_range(1..24usize);
            }
        }
        if !d.hs.is_done() {
            d.merge_batch(&batch);
            publish_and_check(&mut d, &shared, seen, seed);
            d.finish_exhausted().unwrap();
        }
        assert!(d.hs.is_done());
    }

    /// After every `advance_and_publish` — full or deactivation-only —
    /// the published active set equals HistSim's, over random tables,
    /// through all three stages, on both ingestion paths.
    #[test]
    fn published_active_set_tracks_histsim() {
        for batched in [false, true] {
            let mut seen = Seen::default();
            for seed in 0..60 {
                run(seed, batched, &mut seen);
            }
            let path = if batched {
                "merge_batch"
            } else {
                "ingest_block"
            };
            assert!(
                seen.by_stage.iter().all(|&n| n > 0),
                "{path}: publications per stage {:?}",
                seen.by_stage
            );
            assert!(
                seen.exact_drops > 0,
                "{path}: no demand dropped by mark_exact"
            );
        }
    }
}
