//! `ParallelMatch`: one query on a private [`QueryService`].
//!
//! FastMatch (paper §4) decouples *block selection* from the statistics
//! engine on one sampling thread. `ParallelMatch` runs the sampling
//! side on several, with the machinery the query service runs for every
//! query it serves: the job is admitted as the only query of a service
//! with one worker per shard. Each shard task steps a
//! [`ShardWalk`](crate::exec::walk::ShardWalk) over its disjoint block
//! range (Figure 6's marking stage, Algorithm 3), reads the marked runs
//! (its I/O stage, verification included) into its worker's code
//! buffer, and hands a quantum's codes to the query's driver in one
//! call of the fused kernel, which settles, advances phases and
//! republishes demand. Reads, verification and marking are parallel;
//! ingestion has one holder at a time, the engine mutex. A shard with
//! nothing readable parks until the demand epoch moves. Stale demand
//! snapshots only deliver extra valid samples (the table is
//! pre-permuted, so any block set is a uniform without-replacement
//! sample), and when every shard is exhausted the run finishes exact,
//! as every executor does.

use fastmatch_core::error::{CoreError, Result};

use crate::exec::Executor;
use crate::query::QueryJob;
use crate::result::MatchOutput;
use crate::service::{run_job, QueryOutcome, ServiceConfig, ServiceError};

/// The shard-parallel executor.
#[derive(Debug, Clone, Copy)]
pub struct ParallelMatchExec {
    /// Number of shards, and of service workers running them.
    pub shards: usize,
}

impl Default for ParallelMatchExec {
    /// One shard per worker of the service's default pool: one per core,
    /// at most 8.
    fn default() -> Self {
        Self::with_shards(ServiceConfig::default().workers)
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

impl Executor for ParallelMatchExec {
    fn name(&self) -> &'static str {
        "ParallelMatch"
    }

    fn run(&self, job: &QueryJob<'_>, seed: u64) -> Result<MatchOutput> {
        // Never more shards (or workers) than blocks.
        let shards = self.shards.min(job.layout.num_blocks()).max(1);
        let config = ServiceConfig {
            workers: shards,
            shards_per_query: shards,
            max_admitted: 1,
            ..ServiceConfig::default()
        };
        match run_job(job, config, seed) {
            Ok(QueryOutcome::Finished(out)) => Ok(out),
            Ok(QueryOutcome::Failed(e)) | Err(ServiceError::Invalid(e)) => Err(e),
            other => Err(CoreError::PhaseViolation(format!("unfinished: {other:?}"))),
        }
    }
}
