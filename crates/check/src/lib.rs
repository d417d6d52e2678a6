//! In-repo model checker for FastMatch's concurrency core.
//!
//! The engine and store rely on hand-rolled synchronization protocols —
//! the shared scheduler's admission and stealing, and the live-table
//! append → freeze → seal → snapshot lifecycle with its WAL recovery.
//! Unit tests exercise a handful of interleavings of each;
//! this crate exhaustively enumerates *all* interleavings at small
//! scopes, loom-style, with no external dependencies:
//!
//! * [`explorer::Model`] — a protocol written as an explicit state
//!   machine: enumerable [`explorer::Step`]s, named invariants checked
//!   after every step, and quiescence conditions (liveness) checked at
//!   terminal states.
//! * [`explorer::Explorer`] — bounded exhaustive DFS over
//!   interleavings with state-hash pruning for small scopes, plus a
//!   seeded random-walk mode for bigger ones; on a violation the
//!   failing schedule is shrunk and replayed into a step-by-step trace.
//! * [`models`] — three models that mirror the real code path for path,
//!   sharing the extracted pure step functions
//!   ([`fastmatch_engine::service::queue_scan_order`],
//!   [`fastmatch_store::live::build_seg_starts`], …) so the model and
//!   the implementation cannot drift apart silently.
//!
//! Plausible bugs in the live table's seal and recovery are kept as
//! test-only mutations; the checker demonstrably re-finds each (see the
//! `finds_*` tests), which is the evidence that it would catch their
//! recurrence.
//!
//! See DESIGN.md § "Concurrency protocols" for the prose version of
//! every invariant checked here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod explorer;
pub mod models;

pub use explorer::{Explorer, Failure, Model, Step, Violation};
