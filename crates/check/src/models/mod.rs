//! The three protocol models, each mirroring one concurrency core of
//! the real system path for path:
//!
//! * [`admission_steal`] — the service's admission bound and its
//!   per-worker queues with stealing, one task per query
//!   ([`fastmatch_engine::service::queue_scan_order`],
//!   [`fastmatch_engine::service::admission_has_capacity`]).
//! * [`live_lifecycle`] — the live table's append → freeze →
//!   install-before-seal → snapshot lifecycle
//!   ([`fastmatch_store::live`]).
//! * [`wal_recovery`] — the WAL → seal → crash → recovery side of the
//!   same lifecycle ([`fastmatch_store::live::wal`]).
//!
//! Every model imports the extracted pure step functions the real code
//! executes, so protocol drift between implementation and model shows
//! up as a compile error or a checker violation, not silence. Each
//! also carries test-only mutations that reintroduce a historical (or
//! plausible) bug; the `finds_*` unit tests assert the explorer
//! catches them.

pub mod admission_steal;
pub mod live_lifecycle;
pub mod wal_recovery;

pub use admission_steal::AdmissionSteal;
pub use live_lifecycle::LiveLifecycle;
pub use wal_recovery::WalRecovery;
