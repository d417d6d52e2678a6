//! # fastmatch-store
//!
//! The storage substrate FastMatch runs on (paper §4): a column-oriented
//! in-memory engine with
//!
//! * dictionary-encoded columns grouped into a [`table::Table`];
//! * a fixed block granularity ([`block::BlockLayout`]) at which all I/O
//!   requests are serviced;
//! * the random-permutation preprocessing step that turns sequential block
//!   scans into uniform without-replacement samples ([`shuffle`]);
//! * one-bit-per-(value, block) bitmap indexes used by the AnyActive block
//!   selection policy ([`bitmap::BitmapIndex`]);
//! * a pluggable storage abstraction ([`backend::StorageBackend`]) with
//!   two implementations — the in-memory table view
//!   ([`backend::MemBackend`]) and a checksummed on-disk columnar block
//!   file ([`file::FileBackend`]) with a bounded, sharded block cache,
//!   read a page, a block pair or a whole run of blocks at a time
//!   ([`backend::StorageBackend::read_run_pair_into`]: one positioned
//!   read per attribute and chunk, page checksums verified in lanes —
//!   [`checksum`]), on demand only and with no background threads — plus
//!   fallible storage errors ([`error::StoreError`]);
//! * **live tables** ([`live::LiveTable`]): append ingestion into an
//!   in-memory delta that seals into immutable checksummed segments,
//!   serving cheap snapshot-isolated [`live::Snapshot`] views that
//!   implement the same [`backend::StorageBackend`] reading contract —
//!   queries run unchanged over a point-in-time view while writers keep
//!   appending;
//! * a block reader over any backend that accounts blocks read/skipped
//!   and tuples touched, with an optional simulated per-block latency so
//!   storage-media cost models can be explored ([`io::BlockReader`]),
//!   block by block or a marked run at a time.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backend;
pub mod bitmap;
pub mod block;
pub mod checksum;
pub mod error;
pub mod file;
pub mod io;
pub mod live;
pub mod schema;
pub mod shuffle;
pub mod table;
pub mod tempfile;

pub use backend::{MemBackend, PageOrigin, StorageBackend};
pub use bitmap::BitmapIndex;
pub use block::BlockLayout;
pub use error::StoreError;
pub use file::{write_table, write_table_atomic, CacheStats, FileBackend};
pub use io::{BlockReader, IoStats};
pub use live::{LiveStats, LiveTable, LiveTableConfig, Snapshot};
pub use schema::{AttrDef, Schema};
pub use table::Table;
pub use tempfile::{TempBlockDir, TempBlockFile};
