//! Executor outputs: matches plus run statistics.

use std::time::Duration;

use fastmatch_core::histsim::{HistSimOutput, RarePruning};
use fastmatch_store::io::IoStats;

/// Statistics of one executor run.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// End-to-end wall-clock time.
    pub wall: Duration,
    /// Block/tuple accounting.
    pub io: IoStats,
    /// Stage-2 rounds HistSim executed.
    pub stage2_rounds: u32,
    /// Total samples ingested.
    pub samples: u64,
    /// Whether the run degenerated to an exact full pass.
    pub exact_finish: bool,
    /// Candidates pruned in stage 1.
    pub pruned: usize,
    /// How stage 1 decided which candidates are rare (`Scan`: from the
    /// exact counts it reads).
    pub rare_pruning: RarePruning,
}

/// The result of running a query through an executor.
#[derive(Debug, Clone)]
pub struct MatchOutput {
    /// HistSim output (matches in ascending distance order).
    pub output: HistSimOutput,
    /// Run statistics.
    pub stats: RunStats,
}

impl MatchOutput {
    /// Candidate ids of the matches, closest first.
    pub fn candidate_ids(&self) -> Vec<u32> {
        self.output.candidate_ids()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastmatch_core::histsim::Diagnostics;

    #[test]
    fn candidate_ids_passthrough() {
        let out = MatchOutput {
            output: HistSimOutput {
                matches: vec![],
                diagnostics: Diagnostics::default(),
            },
            stats: RunStats::default(),
        };
        assert!(out.candidate_ids().is_empty());
        assert_eq!(out.stats.io.blocks_read, 0);
    }
}
