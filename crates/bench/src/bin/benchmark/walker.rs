//! The benchmark-owned reference walker: one top-k histogram-matching
//! query driven to completion on the calling thread, built only from
//! public calls, with a [`Probe`] hook at every layer boundary.
//!
//! It follows `FastMatchExec`'s structure — AnyActive marking per
//! lookahead window (`BitmapIndex::mark_active_range`, Algorithm 3),
//! then for every marked block `StorageBackend::read_block_pair_into` →
//! `HistAccumulator::accumulate` → `HistSim::merge_ref` → consumption
//! tracking, with `HistSim::complete_io_phase` whenever demand is met or
//! every [`ADVANCE_EVERY`] blocks — but on one thread, so demand is
//! always fresh and the run is deterministic in its seed. The executors'
//! own walkers are crate-internal; this one exists so per-layer time can
//! be measured from outside without touching product code. The workloads
//! that use it check its output against exact ground truth and report
//! how often its matched set equals `SyncMatchExec`'s.

use fastmatch_core::histsim::{HistAccumulator, HistSim, HistSimConfig, HistSimOutput, PhaseKind};
use fastmatch_engine::exec::FastMatchExec;
use fastmatch_engine::progress::ConsumptionTracker;
use fastmatch_store::backend::StorageBackend;
use fastmatch_store::bitmap::BitmapIndex;

use crate::trace::{Layer, Probe};

/// Blocks between demand refreshes while demand is unmet — the value of
/// `FastMatchExec`'s internal `PUBLISH_EVERY`.
pub const ADVANCE_EVERY: u32 = 16;

/// One query, as the walker needs it.
#[derive(Debug, Clone, Copy)]
pub struct Walk<'a> {
    pub backend: &'a dyn StorageBackend,
    pub bitmap: &'a BitmapIndex,
    pub z: usize,
    pub x: usize,
    pub target: &'a [f64],
    pub cfg: &'a HistSimConfig,
    pub seed: u64,
}

/// What a walk produced, with the counts taken at the layer boundaries.
#[derive(Debug)]
pub struct Walked {
    pub output: HistSimOutput,
    pub blocks_read: u64,
    pub blocks_skipped: u64,
    /// Blocks whose read/skip decision came from bitmap marking.
    pub blocks_marked: u64,
    pub tuples: u64,
}

/// SplitMix64: the benchmark's seed derivation (run seeds, start blocks).
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Completes every I/O phase whose demand is already met.
fn advance<P: Probe>(hs: &mut HistSim, probe: &mut P) -> Result<(), String> {
    while hs.io_satisfied() && !hs.is_done() {
        let t0 = probe.now();
        hs.complete_io_phase(false).map_err(|e| e.to_string())?;
        let t1 = probe.now();
        probe.stats_round(t0, t1);
    }
    Ok(())
}

/// Runs one query to completion.
pub fn walk<P: Probe>(w: &Walk<'_>, probe: &mut P) -> Result<Walked, String> {
    let t0 = probe.now();
    let layout = w.backend.layout();
    let nb = layout.num_blocks();
    let vz = w.backend.cardinality(w.z) as usize;
    let vx = w.backend.cardinality(w.x) as usize;
    let mut hs = HistSim::new(w.cfg.clone(), vz, vx, layout.n_rows() as u64, w.target)
        .map_err(|e| e.to_string())?;
    let mut tracker = ConsumptionTracker::new(w.bitmap);
    let absent: Vec<u32> = tracker.never_present().collect();
    for c in absent {
        hs.mark_exact(c);
    }
    let mut acc = HistAccumulator::new(vz, vx);
    let lookahead = FastMatchExec::default().lookahead;
    let mut marks = vec![false; lookahead];
    let mut visited = vec![false; nb];
    let (mut zs, mut xs) = (Vec::new(), Vec::new());
    let t1 = probe.now();
    probe.span(Layer::EngineExec, t0, t1);

    let mut out = Walked {
        output: HistSimOutput {
            matches: Vec::new(),
            diagnostics: Default::default(),
        },
        blocks_read: 0,
        blocks_skipped: 0,
        blocks_marked: 0,
        tuples: 0,
    };
    let start = if nb == 0 {
        0
    } else {
        (splitmix(w.seed) % nb as u64) as usize
    };
    let mut visited_count = 0usize;
    let mut since_advance = 0u32;

    advance(&mut hs, probe)?;
    'passes: while !hs.is_done() {
        let mut read_this_pass = false;
        let mut off = 0usize;
        while off < nb {
            let win = lookahead.min(nb - off);
            if hs.phase() == PhaseKind::Stage1 {
                marks[..win].fill(true);
            } else {
                // The window's offsets map to at most two contiguous
                // block ranges (wrap at nb).
                let t0 = probe.now();
                marks[..win].fill(false);
                let s0 = (start + off) % nb;
                let first = win.min(nb - s0);
                for (c, &need) in hs.remaining_slice().iter().enumerate() {
                    if need > 0 {
                        w.bitmap
                            .mark_active_range(c as u32, s0, &mut marks[..first]);
                        if first < win {
                            w.bitmap
                                .mark_active_range(c as u32, 0, &mut marks[first..win]);
                        }
                    }
                }
                let t1 = probe.now();
                probe.span(Layer::StoreBitmap, t0, t1);
                out.blocks_marked += win as u64;
            }
            for (i, &marked) in marks[..win].iter().enumerate() {
                let b = (start + off + i) % nb;
                if visited[b] {
                    continue;
                }
                if !marked {
                    out.blocks_skipped += 1;
                    continue;
                }
                visited[b] = true;
                visited_count += 1;
                read_this_pass = true;

                let t0 = probe.now();
                let origin = w
                    .backend
                    .read_block_pair_into(b, w.z, w.x, &mut zs, &mut xs)
                    .map_err(|e| e.to_string())?;
                let t1 = probe.now();
                probe.read(origin, t0, t1);
                acc.accumulate(&zs, &xs);
                let t2 = probe.now();
                probe.span(Layer::CoreAccumulate, t1, t2);
                hs.merge_ref(&acc);
                let t3 = probe.now();
                probe.span(Layer::CoreMerge, t2, t3);
                tracker.block_read(b, acc.touched(), |c| hs.mark_exact(c));
                acc.clear();
                let t4 = probe.now();
                probe.span(Layer::EngineExec, t3, t4);

                out.blocks_read += 1;
                out.tuples += zs.len() as u64;
                since_advance += 1;
                if hs.io_satisfied() || since_advance >= ADVANCE_EVERY {
                    advance(&mut hs, probe)?;
                    since_advance = 0;
                    if hs.is_done() {
                        break 'passes;
                    }
                }
            }
            off += win;
        }
        advance(&mut hs, probe)?;
        if hs.is_done() {
            break;
        }
        if visited_count == nb {
            // The whole table is consumed: finish exactly.
            let t0 = probe.now();
            hs.complete_io_phase(true).map_err(|e| e.to_string())?;
            let t1 = probe.now();
            probe.stats_round(t0, t1);
            break;
        }
        if !read_this_pass {
            // Demand on a candidate implies unread blocks containing it.
            return Err("walker: no readable blocks for outstanding demand".into());
        }
    }

    let t0 = probe.now();
    out.output = hs.output().map_err(|e| e.to_string())?;
    let t1 = probe.now();
    probe.span(Layer::EngineExec, t0, t1);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Off, Tracer};
    use fastmatch_data::gen::{conditional_with_planted, generate_table, ColumnGen, ColumnSpec};
    use fastmatch_data::shapes::uniform;
    use fastmatch_engine::exec::{Executor, SyncMatchExec};
    use fastmatch_engine::query::QueryJob;
    use fastmatch_store::backend::MemBackend;
    use fastmatch_store::block::BlockLayout;

    #[test]
    fn walker_matches_syncmatch_and_is_probe_independent() {
        let dists =
            conditional_with_planted(40, &uniform(6), &[(0, 0.0), (3, 0.02), (7, 0.04)], 0.25, 11);
        let specs = vec![
            ColumnSpec::new("z", 40, ColumnGen::PrimaryZipf { s: 1.1 }),
            ColumnSpec::new("x", 6, ColumnGen::Conditional { parent: 0, dists }),
        ];
        let table = generate_table(&specs, 60_000, 5);
        let layout = BlockLayout::with_default_block(table.n_rows());
        let bitmap = BitmapIndex::build(&table, 0, &layout);
        let mem = MemBackend::new(&table, layout);
        let cfg = HistSimConfig {
            k: 3,
            epsilon: 0.1,
            delta: 0.05,
            sigma: 0.01,
            stage1_samples: 10_000,
            ..HistSimConfig::default()
        };
        let target = uniform(6);
        let w = Walk {
            backend: &mem,
            bitmap: &bitmap,
            z: 0,
            x: 1,
            target: &target,
            cfg: &cfg,
            seed: 9,
        };
        let plain = walk(&w, &mut Off).unwrap();
        let mut tracer = Tracer::new(std::time::Instant::now());
        let traced = walk(&w, &mut tracer).unwrap();
        assert_eq!(plain.output.candidate_ids(), traced.output.candidate_ids());
        assert_eq!(plain.blocks_read, traced.blocks_read);
        assert_eq!(
            tracer.layer(Layer::CoreAccumulate).count,
            traced.blocks_read
        );
        assert_eq!(tracer.layer(Layer::CoreMerge).count, traced.blocks_read);
        assert!(tracer.layer(Layer::CoreStatsRound).count >= 1);

        let job = QueryJob::from_backend(&mem, &bitmap, 0, 1, target.clone(), cfg.clone());
        let mut want = SyncMatchExec.run(&job, 9).unwrap().candidate_ids();
        let mut got = plain.output.candidate_ids();
        want.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, want);
        assert_eq!(got, vec![0, 3, 7]);
    }
}
