//! # fastmatch-engine
//!
//! The FastMatch system (paper §4): executors that drive the HistSim
//! state machine over the block storage substrate.
//!
//! Four executors extend the paper's §5.2 comparison lineup; each differs
//! from the next in exactly one mechanism, so comparing adjacent pairs
//! isolates one design decision:
//!
//! * [`exec::ScanExec`] — exact full scan (no approximation);
//! * [`exec::ScanMatchExec`] — HistSim termination, sequential blocks, no
//!   skipping (adds *approximation*);
//! * [`exec::SyncMatchExec`] — AnyActive block selection applied
//!   synchronously per block, Algorithm 2 style (adds *block skipping*);
//! * [`exec::FastMatchExec`] — AnyActive with cache-conscious lookahead:
//!   each window is marked a word at a time before its blocks are read,
//!   Algorithm 3 style (adds *lookahead marking*).
//!
//! All approximate executors provide the same Guarantee 1/2 semantics; they
//! differ only in how fast they reach HistSim's termination conditions.
//!
//! On top of the single-query executors, [`service::QueryService`] serves
//! **many queries concurrently** over one shared storage backend: a
//! bounded worker pool multiplexes the queries' ingestion quanta, with
//! per-query progressive results, cooperative cancellation, deadlines and
//! attributed I/O — see the [`service`] module docs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod exec;
pub mod policy;
pub mod progress;
pub mod query;
pub mod result;
pub mod service;

pub use exec::{Executor, FastMatchExec, ScanExec, ScanMatchExec, SyncMatchExec};
pub use query::QueryJob;
pub use result::{MatchOutput, RunStats};
pub use service::{
    GuaranteeState, QueryHandle, QueryOutcome, QueryProgress, QueryRequest, QueryService,
    ServiceConfig, ServiceError, SnapshotRequest,
};
