//! # fastmatch
//!
//! End-to-end reproduction of **FastMatch / HistSim** — *"Adaptive
//! Sampling for Rapidly Matching Histograms"* (Macke, Zhang, Huang,
//! Parameswaran; VLDB 2018).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`core`] (`fastmatch-core`) — the HistSim algorithm and its
//!   statistical machinery;
//! * [`store`] (`fastmatch-store`) — the columnar block storage substrate
//!   with bitmap indexes and pluggable backends (in-memory tables or
//!   checksummed on-disk block files behind a bounded block cache);
//! * [`data`] (`fastmatch-data`) — synthetic evaluation datasets and the
//!   Table 3 query workload;
//! * [`engine`] (`fastmatch-engine`) — the `Scan` / `ScanMatch` /
//!   `SyncMatch` / `FastMatch` executors, plus the
//!   multi-query `QueryService` scheduler (many concurrent queries over
//!   one shared backend, with progressive results, cancellation and
//!   deadlines).
//!
//! ## Quickstart
//!
//! ```
//! use fastmatch::prelude::*;
//!
//! // Histograms of 4 groups for 3 candidates; candidate 1 matches the
//! // uniform target.
//! let hists = vec![
//!     vec![900u64, 100, 0, 0],
//!     vec![250, 250, 250, 250],
//!     vec![0, 0, 500, 500],
//! ];
//! let tuples = tuples_from_histograms(&hists);
//! let n = tuples.len() as u64;
//! let cfg = HistSimConfig {
//!     k: 1,
//!     epsilon: 0.2,
//!     delta: 0.05,
//!     sigma: 0.0,
//!     stage1_samples: 100,
//!     ..HistSimConfig::default()
//! };
//! let mut hs = HistSim::new(cfg, 3, 4, n, &[0.25; 4]).unwrap();
//! let mut sampler = MemorySampler::new(tuples, 3, 42);
//! let out = sampler.run(&mut hs).unwrap();
//! assert_eq!(out.candidate_ids(), vec![1]);
//! // Built without row counts, HistSim runs the paper's sampled stage 1.
//! assert_eq!(out.diagnostics.rare_pruning, RarePruning::Sampled);
//! ```
//!
//! See `examples/` for realistic end-to-end scenarios over the storage
//! engine, and `DESIGN.md` / `EXPERIMENTS.md` for the reproduction notes.

#![forbid(unsafe_code)]

pub use fastmatch_core as core;
pub use fastmatch_data as data;
pub use fastmatch_engine as engine;
pub use fastmatch_store as store;

/// One-stop imports for applications.
pub mod prelude {
    pub use fastmatch_core::histsim::{
        HistSim, HistSimConfig, HistSimOutput, MatchedCandidate, RarePruning,
    };
    pub use fastmatch_core::sampler::{tuples_from_histograms, MemorySampler, Sample};
    pub use fastmatch_core::{guarantees::GroundTruth, Histogram, Metric};
    pub use fastmatch_engine::exec::{
        Executor, FastMatchExec, ScanExec, ScanMatchExec, SyncMatchExec,
    };
    pub use fastmatch_engine::query::QueryJob;
    pub use fastmatch_engine::result::MatchOutput;
    pub use fastmatch_engine::service::{
        GuaranteeState, QueryHandle, QueryOutcome, QueryProgress, QueryRequest, QueryService,
        ServiceConfig, ServiceError, SnapshotRequest,
    };
    pub use fastmatch_store::{
        BitmapIndex, BlockLayout, FileBackend, LiveStats, LiveTable, LiveTableConfig, MemBackend,
        Snapshot, StorageBackend, StoreError, Table, TempBlockDir, TempBlockFile,
    };
}
