//! The shared statistics-engine driver.
//!
//! Every executor that runs the HistSim protocol repeats the same
//! scaffolding: build the state machine, mark never-present candidates
//! exact, feed it samples while tracking per-candidate consumption,
//! advance phases whenever demand is met, and package the output with
//! run statistics. The walk that marks blocks reads the demand it leaves
//! straight from [`HistSim::demand`].
//! [`Driver`] owns exactly that scaffolding so `ScanMatch`/`SyncMatch`
//! (sequential), `FastMatch` (lookahead marking) and the query service
//! (scheduled quanta) differ only in *how blocks are chosen and
//! delivered*, not in how HistSim is driven.
//!
//! Consumption is counted in rows. Executors sample without replacement
//! by never re-reading a block, so a candidate whose rows read reach the
//! bitmap index's row count for it is *fully consumed*: its counts are
//! exact, it can yield no more samples, and HistSim is told
//! ([`HistSim::mark_exact`]) so demand on it is dropped. HistSim counts
//! every candidate's rows read on every ingestion path, so the driver
//! keeps only the index's counts: each settlement ([`HistSim::settle`])
//! walks the candidates that still have demand, in `O(active
//! candidates)`, and compares them for each one whose rows read reached
//! its goal or its row total (a settlement after a single block,
//! [`HistSim::settle_block`], looks only at that block's candidates);
//! each phase boundary ([`HistSim::sweep`]) compares them for every
//! candidate, before the phase's test reads the exact marks. The same
//! counts go to [`HistSim::with_row_counts`], so that stage 1 prunes the
//! rare candidates from them unless the query declares the paper's
//! sampled test.

use std::time::Instant;

use fastmatch_core::error::Result;
use fastmatch_core::histsim::HistSim;
use fastmatch_store::io::IoStats;

use crate::query::QueryJob;
use crate::result::{MatchOutput, RunStats};

/// The statistics engine shared by all HistSim executors: the state
/// machine plus consumption tracking and run-stats packaging.
#[derive(Debug)]
pub(crate) struct Driver {
    /// The state machine being driven.
    pub hs: HistSim,
    /// Rows per candidate, as the bitmap index counts them.
    rows: Vec<u64>,
    t0: Instant,
}

/// Rows of candidate `c` not yet read, when `read` of its `rows` have
/// been.
///
/// # Panics
/// Panics, in every build, if more rows were read than the index
/// counted: a block read twice or an under-counting index. Wrapping
/// instead would keep the candidate "unread" forever and its demand
/// open.
#[inline]
fn unread(rows: &[u64], c: u32, read: u64) -> u64 {
    let rows = rows[c as usize];
    assert!(
        read <= rows,
        "candidate {c}: {read} rows read but the index counts only {rows}"
    );
    rows - read
}

impl Driver {
    /// Builds the state machine for `job`, hands it the index's row
    /// counts (stage 1 prunes from them unless the config declares
    /// [`fastmatch_core::histsim::RarePruning::Sampled`]), and marks
    /// candidates that never occur in the data as exact (they can yield
    /// no samples). Fails if the index's counts do not describe the
    /// job's table.
    pub fn new(job: &QueryJob<'_>) -> Result<Self> {
        let t0 = Instant::now();
        let rows: Vec<u64> = (0..job.bitmap.num_values() as u32)
            .map(|c| job.bitmap.rows_with_value(c))
            .collect();
        let mut hs = HistSim::new(
            job.cfg.clone(),
            job.num_candidates(),
            job.num_groups(),
            job.n_rows() as u64,
            &job.target,
        )?
        .with_row_counts(&rows)?;
        hs.sweep(|c, read| unread(&rows, c, read));
        Ok(Driver { hs, rows, t0 })
    }

    /// Ingests the codes of a read block — the path of `FastMatch` and of
    /// the service, a block at a time as the run read delivers it. The
    /// tuples are traversed exactly once, by
    /// [`HistSim::ingest_block`]; demand and consumption are settled
    /// when the driver next advances.
    #[inline]
    pub fn ingest_block(&mut self, zs: &[u32], xs: &[u32]) {
        self.hs.ingest_block(zs, xs);
    }

    /// Ingests one read block and settles it at once — the path of the
    /// executors that settle before every block (`ScanMatch`,
    /// `SyncMatch`). Only the block's candidates can have changed, so the
    /// settlement ([`HistSim::settle_block`]) looks at those and not at
    /// the whole active set; the next [`Self::advance`] has nothing left
    /// to settle.
    pub fn read_block(&mut self, zs: &[u32], xs: &[u32]) {
        self.hs.ingest_block(zs, xs);
        let rows = &self.rows;
        self.hs.settle_block(zs, |c, read| unread(rows, c, read));
    }

    /// Settles, then advances the state machine through every phase
    /// whose demand is already satisfied, each after the sweep that
    /// marks exact every candidate read out; `true` if that completed at
    /// least one phase or stage-2 round. Only an advance changes which
    /// candidates are active — [`Self::ingest_block`] does not — so a
    /// walk marking between two advances marks under the state the first
    /// one left.
    pub fn advance(&mut self) -> Result<bool> {
        let rows = &self.rows;
        self.hs.settle(|c, read| unread(rows, c, read));
        let mut stepped = false;
        while self.hs.io_satisfied() && !self.hs.is_done() {
            self.hs.sweep(|c, read| unread(rows, c, read));
            self.hs.complete_io_phase(false)?;
            stepped = true;
        }
        Ok(stepped)
    }

    /// Finishes the run in exact mode: the entire table has been consumed.
    pub fn finish_exhausted(&mut self) -> Result<()> {
        self.advance()?;
        if !self.hs.is_done() {
            let rows = &self.rows;
            self.hs.sweep(|c, read| unread(rows, c, read));
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
            rare_pruning: output.diagnostics.rare_pruning,
        };
        Ok(MatchOutput { output, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastmatch_core::histsim::{HistSimConfig, PhaseKind};
    use fastmatch_store::bitmap::BitmapIndex;
    use fastmatch_store::block::BlockLayout;
    use fastmatch_store::schema::{AttrDef, Schema};
    use fastmatch_store::table::Table;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// What the advances of one run went through.
    #[derive(Default)]
    struct Seen {
        /// Advances that left the run in stage 1, 2 and 3.
        by_stage: [usize; 3],
        /// Advances after which a candidate that had demand before lost
        /// it to `mark_exact` (consumed, still short of its demand).
        exact_drops: usize,
    }

    /// What a walk marks under: the phase, and in stages 2 and 3 which
    /// candidates are active.
    fn marking_view(hs: &HistSim) -> (PhaseKind, Vec<bool>) {
        let n = hs.remaining_slice().len() as u32;
        (hs.phase(), (0..n).map(|c| hs.is_active(c)).collect())
    }

    /// Checks that nothing since the last advance moved what a walk
    /// marks under, then advances and returns the new view.
    fn check_and_advance(
        d: &mut Driver,
        last: &(PhaseKind, Vec<bool>),
        seen: &mut Seen,
        seed: u64,
    ) -> (PhaseKind, Vec<bool>) {
        assert_eq!(
            &marking_view(&d.hs),
            last,
            "seed {seed}: moved by ingestion"
        );
        d.advance().unwrap();
        let now = marking_view(&d.hs);
        match now.0 {
            PhaseKind::Stage1 => seen.by_stage[0] += 1,
            PhaseKind::Stage2 => seen.by_stage[1] += 1,
            PhaseKind::Stage3 => seen.by_stage[2] += 1,
            PhaseKind::Done => return now,
        }
        let dropped = (0..now.1.len()).any(|c| last.1[c] && !now.1[c] && d.hs.is_exact(c as u32));
        if last.0 == now.0 && dropped {
            seen.exact_drops += 1;
        }
        now
    }

    /// One random query, read once through in rotated order, block by
    /// block or — the service's shape — with the codes of the blocks
    /// between two advances buffered and ingested in one call, advancing
    /// after a random number of blocks each time.
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
        let view = marking_view(&d.hs);
        let mut view = check_and_advance(&mut d, &view, seen, seed);

        let mut reader = job.reader();
        let nb = layout.num_blocks();
        let start = rng.gen_range(0..nb);
        let (mut zbuf, mut xbuf) = (Vec::new(), Vec::new());
        let mut until_advance = rng.gen_range(1..24usize);
        for b in (start..nb).chain(0..start) {
            if d.hs.is_done() {
                break;
            }
            let (zs, xs) = reader.block_slices(b, 0, 1);
            if batched {
                zbuf.extend_from_slice(zs);
                xbuf.extend_from_slice(xs);
            } else {
                d.ingest_block(zs, xs);
            }
            until_advance -= 1;
            if until_advance == 0 {
                d.ingest_block(&zbuf, &xbuf);
                zbuf.clear();
                xbuf.clear();
                view = check_and_advance(&mut d, &view, seen, seed);
                until_advance = rng.gen_range(1..24usize);
            }
        }
        if !d.hs.is_done() {
            d.ingest_block(&zbuf, &xbuf);
            check_and_advance(&mut d, &view, seen, seed);
            d.finish_exhausted().unwrap();
        }
        assert!(d.hs.is_done());
    }

    /// Ingesting blocks moves neither the phase nor the active set: only
    /// an advance does. Both drivers mark windows between advances from
    /// [`HistSim::demand`], so each window is marked under the state of
    /// the last advance, over random tables, through all three stages,
    /// on both ingestion paths.
    #[test]
    fn only_an_advance_moves_what_the_walk_marks_under() {
        for batched in [false, true] {
            let mut seen = Seen::default();
            for seed in 0..60 {
                run(seed, batched, &mut seen);
            }
            let path = if batched { "buffered" } else { "per block" };
            assert!(
                seen.by_stage.iter().all(|&n| n > 0),
                "{path}: advances per stage {:?}",
                seen.by_stage
            );
            assert!(
                seen.exact_drops > 0,
                "{path}: no demand dropped by mark_exact"
            );
        }
    }

    /// A table of 300 ten-row blocks read in order, built so that one
    /// candidate of each kind runs out mid-table: 0 fills every block, 1
    /// (as common as 0 where it occurs) is spread over blocks 0..200,
    /// 2 is rare — two rows, in blocks 250 and 260, pruned by stage 1 —
    /// and 3 never occurs.
    fn consumption_job_parts() -> (Table, BlockLayout, BitmapIndex, HistSimConfig) {
        let rows = 3_000usize;
        let z = (0..rows)
            .map(|r| match r {
                2_505 | 2_607 => 2,
                r if r < 2_000 && r % 2 == 1 => 1,
                _ => 0,
            })
            .collect();
        let x = (0..rows).map(|r| (r / 2 % 2) as u32).collect();
        let schema = Schema::new(vec![AttrDef::new("z", 4), AttrDef::new("x", 2)]);
        let table = Table::new(schema, vec![z, x]);
        let layout = BlockLayout::new(rows, 10);
        let bitmap = BitmapIndex::build(&table, 0, &layout);
        let cfg = HistSimConfig {
            k: 1,
            epsilon: 0.02,
            delta: 0.05,
            sigma: 0.05,
            stage1_samples: 500,
            ..HistSimConfig::default()
        };
        (table, layout, bitmap, cfg)
    }

    /// Row-counted consumption fires `mark_exact` for a candidate with
    /// demand at the settlement or merge that reads its last row — not
    /// one before, and not later — and for any other candidate at the
    /// next phase boundary, never early, on both ingestion paths: for a
    /// candidate spread over many blocks, for a pruned candidate (whose
    /// tuples count for nothing but are still read), and from the start
    /// for one that never occurs.
    #[test]
    fn row_counted_consumption_marks_exact_at_the_last_row() {
        let (table, layout, bitmap, cfg) = consumption_job_parts();
        let totals = table.value_counts(0);
        for batched in [false, true] {
            let job = QueryJob::new(&table, layout, &bitmap, 0, 1, vec![1.0, 1.0], cfg.clone());
            let mut d = Driver::new(&job).unwrap();
            assert!(d.hs.is_exact(3), "never present: exact from the start");
            let mut reader = job.reader();
            let (mut zbuf, mut xbuf) = (Vec::new(), Vec::new());
            let mut read = [0u64; 4];
            let mut settlements = 0;
            for b in 0..layout.num_blocks() {
                let (zs, xs) = reader.block_slices(b, 0, 1);
                for &c in zs {
                    read[c as usize] += 1;
                }
                if batched {
                    zbuf.extend_from_slice(zs);
                    xbuf.extend_from_slice(xs);
                    if b % 3 != 2 {
                        continue;
                    }
                    d.ingest_block(&zbuf, &xbuf);
                    zbuf.clear();
                    xbuf.clear();
                } else {
                    d.ingest_block(zs, xs);
                    if b % 3 != 2 {
                        continue;
                    }
                }
                let in_stage1 = d.hs.phase() == PhaseKind::Stage1;
                let had_demand: Vec<bool> = (0..3).map(|c| d.hs.is_active(c)).collect();
                let stepped = d.advance().unwrap();
                settlements += 1;
                for c in 0..3u32 {
                    let out = read[c as usize] == totals[c as usize];
                    let exact = d.hs.is_exact(c);
                    let cell = format!("batched {batched}, block {b}, candidate {c}");
                    assert!(!exact || out, "{cell}: marked before its last row");
                    if in_stage1 || stepped || had_demand[c as usize] {
                        assert_eq!(exact, out, "{cell}");
                    }
                }
                if d.hs.is_done() {
                    break;
                }
            }
            if !d.hs.is_done() {
                d.finish_exhausted().unwrap();
            }
            assert!(d.hs.is_pruned(2), "batched {batched}: 2 was not pruned");
            assert!(
                d.hs.is_exact(1) && d.hs.is_exact(2),
                "batched {batched}: ended after {settlements} settlements, before 1 and 2 ran out"
            );
        }
    }

    /// Reading more rows of a candidate than the index counted panics in
    /// release builds too, whether a walk settles it or the block's own
    /// settlement (`read_block`) does: the block-counted tracker only
    /// `debug_assert!`ed it, so an under-counting index wrapped a `u32`
    /// and kept the candidate's demand open for good. Stage 1 has no
    /// active set, so each of its settlements checks every candidate.
    #[test]
    fn row_count_underflow_panics_in_all_builds() {
        let (table, layout, bitmap, cfg) = consumption_job_parts();
        for by_block in [false, true] {
            let job = QueryJob::new(&table, layout, &bitmap, 0, 1, vec![1.0, 1.0], cfg.clone());
            let mut d = Driver::new(&job).unwrap();
            let mut reader = job.reader();
            // Block 250 holds one of candidate 2's two rows: the third
            // read of it is one row more than the index counted.
            let (zs, xs) = reader.block_slices(250, 0, 1);
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                for _ in 0..3 {
                    if by_block {
                        d.read_block(zs, xs);
                    } else {
                        d.ingest_block(zs, xs);
                    }
                    d.advance().unwrap();
                }
            }));
            let msg = r.expect_err("a block read again must not pass");
            let msg = msg.downcast_ref::<String>().expect("formatted message");
            assert!(
                msg.contains("candidate 2: 3 rows read but the index counts only 2"),
                "{msg}"
            );
        }
    }

    /// An index that under-counts a candidate nobody is waiting for is
    /// caught by the next phase boundary, whether a walk settles each
    /// block or the block's own settlement (`read_block`) does: neither
    /// asks about a candidate without demand, but the sweep before
    /// each phase's test asks about all of them. Candidate 1 (every
    /// tuple on group 0, far from the uniform target) meets its stage-2
    /// demand within a few blocks and stops being active; its 600 rows
    /// all lie in blocks 0..120, read in order, and the index counts
    /// one fewer.
    #[test]
    fn undercounted_idle_candidate_panics_by_the_next_phase_boundary() {
        let rows = 6_000usize;
        let z: Vec<u32> = (0..rows)
            .map(|r| u32::from(r < 1_200 && r % 2 == 1))
            .collect();
        let x = (0..rows)
            .map(|r| if z[r] == 1 { 0 } else { (r / 2 % 2) as u32 })
            .collect();
        let schema = Schema::new(vec![AttrDef::new("z", 2), AttrDef::new("x", 2)]);
        let mut short = z.clone();
        short[1_199] = 0;
        let table = Table::new(schema.clone(), vec![z, x]);
        let layout = BlockLayout::new(rows, 10);
        let short = Table::new(schema, vec![short, table.column(1).to_vec()]);
        let bitmap = BitmapIndex::build(&short, 0, &layout);
        let cfg = HistSimConfig {
            k: 1,
            epsilon: 0.05,
            delta: 0.05,
            sigma: 0.0,
            stage1_samples: 200,
            ..HistSimConfig::default()
        };
        for by_block in [false, true] {
            let job = QueryJob::new(&table, layout, &bitmap, 0, 1, vec![1.0, 1.0], cfg.clone());
            let mut d = Driver::new(&job).unwrap();
            let mut reader = job.reader();
            let (mut boundaries, mut over_read_at) = (0, None);
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                for b in 0..layout.num_blocks() {
                    let (zs, xs) = reader.block_slices(b, 0, 1);
                    if by_block {
                        d.read_block(zs, xs);
                    } else {
                        d.ingest_block(zs, xs);
                    }
                    if b == 119 {
                        assert!(
                            !d.hs.is_active(1),
                            "by_block {by_block}: 1 still has demand"
                        );
                        assert_ne!(d.hs.phase(), PhaseKind::Stage1);
                        over_read_at = Some(boundaries);
                    }
                    boundaries += usize::from(d.advance().unwrap());
                    if d.hs.is_done() {
                        break;
                    }
                }
                d.finish_exhausted().unwrap();
            }));
            let msg = r.expect_err("an under-counting index must not pass");
            let msg = msg.downcast_ref::<String>().expect("formatted message");
            assert!(
                msg.contains("candidate 1: 600 rows read but the index counts only 599"),
                "by_block {by_block}: {msg}"
            );
            assert_eq!(
                over_read_at,
                Some(boundaries),
                "by_block {by_block}: a phase completed after the over-read"
            );
        }
    }
}
