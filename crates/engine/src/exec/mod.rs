//! Query executors.
//!
//! [`Executor`] is the common interface; the implementations extend the
//! §5.2 comparison ladder (each adds exactly one mechanism):
//! `Scan` → `ScanMatch` (approximation) → `SyncMatch` (AnyActive block
//! skipping) → `FastMatch` (asynchronous cache-conscious lookahead).
//! [`crate::service::QueryService`] runs many queries at once, each
//! through the same walk and statistics engine as `FastMatch`.
//!
//! All HistSim executors drive the state machine through the shared
//! `driver::Driver` (crate-internal); they differ only in how blocks are
//! selected and delivered to it.

pub(crate) mod driver;
mod fast_match;
mod scan;
mod scan_match;
mod sync_match;
pub(crate) mod walk;

pub use fast_match::FastMatchExec;
pub use scan::ScanExec;
pub use scan_match::ScanMatchExec;
pub use sync_match::SyncMatchExec;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fastmatch_core::error::{CoreError, Result};
use fastmatch_core::histsim::PhaseKind;
use fastmatch_store::error::StoreError;

use crate::exec::driver::Driver;
use crate::query::QueryJob;
use crate::result::MatchOutput;

/// Maps a storage-layer failure into the engine's error domain.
pub(crate) fn storage_err(e: StoreError) -> CoreError {
    CoreError::Storage(e.to_string())
}

/// A query executor: runs one top-k histogram-matching query to
/// completion. `seed` controls the random scan start position (each run of
/// an approximate executor starts from a random offset in the permuted
/// data, as in §5.2).
pub trait Executor {
    /// Human-readable executor name (used in experiment tables).
    fn name(&self) -> &'static str;

    /// Runs the query.
    fn run(&self, job: &QueryJob<'_>, seed: u64) -> Result<MatchOutput>;
}

/// Picks the random start block for a run.
pub(crate) fn start_block(num_blocks: usize, seed: u64) -> usize {
    if num_blocks == 0 {
        return 0;
    }
    StdRng::seed_from_u64(seed).gen_range(0..num_blocks)
}

/// Per-block read/skip decision for the synchronous executors.
pub(crate) enum BlockPolicy {
    /// Read every unread block (ScanMatch).
    ReadAll,
    /// Probe active candidates' bitmaps per block, Algorithm 2 style
    /// (SyncMatch).
    SyncAnyActive,
}

/// The shared synchronous driver behind `ScanMatch` and `SyncMatch`: a
/// wrap-around multi-pass cursor over blocks, ingesting read blocks into
/// HistSim and advancing its phases as demand is met.
pub(crate) fn run_sequential(
    job: &QueryJob<'_>,
    seed: u64,
    policy: BlockPolicy,
) -> Result<MatchOutput> {
    let mut d = Driver::new(job)?;
    let mut reader = job.reader();

    let nb = job.layout.num_blocks();
    let start = start_block(nb, seed);
    let mut read = vec![false; nb];
    let mut blocks_read_total = 0usize;
    let mut idle_passes = 0u32;

    'outer: loop {
        let mut pass_had_reads = false;
        for off in 0..nb {
            let b = (start + off) % nb;
            if read[b] {
                continue;
            }
            d.advance()?;
            if d.hs.is_done() {
                break 'outer;
            }
            let do_read = match d.hs.phase() {
                PhaseKind::Stage1 => true,
                PhaseKind::Stage2 | PhaseKind::Stage3 => match policy {
                    BlockPolicy::ReadAll => true,
                    BlockPolicy::SyncAnyActive => {
                        // Honest Algorithm 2: probe one candidate bitmap at
                        // a time until a hit — the cache-hostile pattern
                        // whose cost §5.4 quantifies.
                        (0..job.num_candidates() as u32)
                            .any(|c| d.hs.is_active(c) && job.bitmap.block_has(c, b))
                    }
                },
                PhaseKind::Done => break 'outer,
            };
            if do_read {
                let (zs, xs) = reader
                    .try_block_slices(b, job.z_attr, job.x_attr)
                    .map_err(storage_err)?;
                d.read_block(zs, xs);
                read[b] = true;
                blocks_read_total += 1;
                pass_had_reads = true;
            } else {
                reader.skip_block(b);
            }
        }
        d.advance()?;
        if d.hs.is_done() {
            break;
        }
        if blocks_read_total == nb {
            d.finish_exhausted()?;
            break;
        }
        idle_passes = if pass_had_reads { 0 } else { idle_passes + 1 };
        if idle_passes >= 2 {
            // Should be impossible: demand on a candidate implies unread
            // blocks containing it. Fail loudly rather than spin.
            return Err(CoreError::PhaseViolation(
                "no readable blocks for outstanding demand".into(),
            ));
        }
    }

    d.finish(reader.stats())
}
