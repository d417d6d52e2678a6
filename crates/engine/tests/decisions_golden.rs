//! Pinned decisions: what the deterministic HistSim executors decide on
//! the nine Table 3 queries, to the block, in both stage-1 modes.
//!
//! Each cell runs one query (40 000 rows of its synthetic dataset,
//! generated from `seed`) with `seed` as the run's start seed, through
//! `ScanMatch`, `SyncMatch`, `FastMatch` and a one-worker
//! `QueryService`, over `MemBackend` and over a persisted `FileBackend`.
//! The cell records the matched ids in output order, the samples taken,
//! the stage-2 rounds, the blocks read and skipped, and whether the run
//! ended by exhausting the table. All four executors replay exactly at
//! a fixed seed, so any change to ingestion, settlement, consumption
//! counting or marking that moves one decision moves a line here.
//!
//! [`GOLDEN`] pins the paper's sampled stage 1 ([`RarePruning::Sampled`]);
//! [`GOLDEN_FROM_COUNTS`] pins the same cells with stage 1 pruning from
//! the index's exact row counts ([`RarePruning::FromCounts`], the
//! default).
//!
//! `FastMatch` runs with a [`LOOKAHEAD`]-block window. The default
//! window (1 024 blocks) would cover a whole 267-block table, so it
//! would mark one window under stage 1, which marks every block, and the
//! cells would pin a scan; one word of bitmap per candidate per window makes its
//! rows pin marking and skipping too.
//!
//! The table is meant to change only on purpose. A change to the
//! statistics (known candidate sizes, an exact tail, anytime-valid
//! stage-2 tests) asks for different samples and regenerates it: run
//! this test, check that the new decisions are the intended ones, and
//! paste the table it prints on a mismatch over [`GOLDEN`] or
//! [`GOLDEN_FROM_COUNTS`].

use fastmatch_core::histsim::{HistSimConfig, RarePruning};
use fastmatch_data::queries::all_queries;
use fastmatch_engine::exec::{Executor, FastMatchExec, ScanMatchExec, SyncMatchExec};
use fastmatch_engine::query::QueryJob;
use fastmatch_engine::result::MatchOutput;
use fastmatch_engine::service::{QueryRequest, QueryService, ServiceConfig};
use fastmatch_store::backend::{MemBackend, StorageBackend};
use fastmatch_store::bitmap::BitmapIndex;
use fastmatch_store::block::{BlockLayout, DEFAULT_TUPLES_PER_BLOCK};
use fastmatch_store::file::FileBackend;
use fastmatch_store::tempfile::TempBlockFile;

const ROWS: usize = 40_000;
const SEEDS: [u64; 2] = [1, 2];
/// `FastMatch`'s lookahead window in blocks.
const LOOKAHEAD: usize = 64;

/// One line per cell, sampled stage 1: `query seed executor backend |
/// ids | samples rounds read skipped exact`.
const GOLDEN: &[&str] = &[
    "flights-q1 1 ScanMatch mem | [0, 1, 2, 4, 3, 8, 6, 7, 9, 5] | 38847 1 266 0 false",
    "flights-q1 1 SyncMatch mem | [0, 1, 4, 2, 7, 3, 8, 9, 6, 5] | 26579 1 182 84 false",
    "flights-q1 1 FastMatch mem | [0, 1, 4, 2, 3, 8, 6, 7, 9, 5] | 35623 1 244 23 false",
    "flights-q1 1 Service mem | [0, 2, 1, 4, 3, 6, 9, 5, 7, 8] | 27352 1 192 0 false",
    "flights-q1 1 ScanMatch file | [0, 1, 2, 4, 3, 8, 6, 7, 9, 5] | 38847 1 266 0 false",
    "flights-q1 1 SyncMatch file | [0, 1, 4, 2, 7, 3, 8, 9, 6, 5] | 26579 1 182 84 false",
    "flights-q1 1 FastMatch file | [0, 1, 4, 2, 3, 8, 6, 7, 9, 5] | 35623 1 244 23 false",
    "flights-q1 1 Service file | [0, 2, 1, 4, 3, 6, 9, 5, 7, 8] | 27352 1 192 0 false",
    "flights-q2 1 ScanMatch mem | [71, 29, 50, 64, 36, 19, 14, 13, 43, 57] | 38994 2 267 0 false",
    "flights-q2 1 SyncMatch mem | [71, 29, 50, 64, 36, 19, 14, 13, 57, 16] | 38994 2 267 79 false",
    "flights-q2 1 FastMatch mem | [71, 29, 50, 64, 36, 19, 14, 13, 43, 57] | 38994 2 267 23 false",
    "flights-q2 1 Service mem | [29, 50, 36, 19, 14, 13, 43, 15, 16, 20] | 37809 1 267 0 false",
    "flights-q2 1 ScanMatch file | [71, 29, 50, 64, 36, 19, 14, 13, 43, 57] | 38994 2 267 0 false",
    "flights-q2 1 SyncMatch file | [71, 29, 50, 64, 36, 19, 14, 13, 57, 16] | 38994 2 267 79 false",
    "flights-q2 1 FastMatch file | [71, 29, 50, 64, 36, 19, 14, 13, 43, 57] | 38994 2 267 23 false",
    "flights-q2 1 Service file | [29, 50, 36, 19, 14, 13, 43, 15, 16, 20] | 37809 1 267 0 false",
    "flights-q3 1 ScanMatch mem | [9, 1, 3, 7, 5] | 8018 1 55 0 false",
    "flights-q3 1 SyncMatch mem | [9, 1, 3, 7, 5] | 8018 1 55 0 false",
    "flights-q3 1 FastMatch mem | [9, 3, 1, 7, 5] | 9039 1 62 0 false",
    "flights-q3 1 Service mem | [5, 3, 9, 1, 7] | 18532 1 128 0 false",
    "flights-q3 1 ScanMatch file | [9, 1, 3, 7, 5] | 8018 1 55 0 false",
    "flights-q3 1 SyncMatch file | [9, 1, 3, 7, 5] | 8018 1 55 0 false",
    "flights-q3 1 FastMatch file | [9, 3, 1, 7, 5] | 9039 1 62 0 false",
    "flights-q3 1 Service file | [5, 3, 9, 1, 7] | 18532 1 128 0 false",
    "flights-q4 1 ScanMatch mem | [4, 12, 2, 1, 14, 8, 10, 6, 0, 3] | 38994 2 267 0 false",
    "flights-q4 1 SyncMatch mem | [4, 12, 2, 1, 14, 8, 10, 6, 0, 3] | 38994 2 267 79 false",
    "flights-q4 1 FastMatch mem | [4, 12, 2, 1, 14, 8, 10, 6, 0, 3] | 38994 2 267 23 false",
    "flights-q4 1 Service mem | [4, 12, 2, 1, 8, 10, 6, 0, 3, 5] | 37809 1 267 0 false",
    "flights-q4 1 ScanMatch file | [4, 12, 2, 1, 14, 8, 10, 6, 0, 3] | 38994 2 267 0 false",
    "flights-q4 1 SyncMatch file | [4, 12, 2, 1, 14, 8, 10, 6, 0, 3] | 38994 2 267 79 false",
    "flights-q4 1 FastMatch file | [4, 12, 2, 1, 14, 8, 10, 6, 0, 3] | 38994 2 267 23 false",
    "flights-q4 1 Service file | [4, 12, 2, 1, 8, 10, 6, 0, 3, 5] | 37809 1 267 0 false",
    "police-q1 1 ScanMatch mem | [0, 6, 8, 2, 1, 7, 5, 3, 4, 98] | 33412 2 228 0 false",
    "police-q1 1 SyncMatch mem | [6, 0, 2, 1, 8, 7, 5, 3, 4, 98] | 17337 2 118 110 false",
    "police-q1 1 FastMatch mem | [0, 8, 1, 2, 6, 7, 3, 5, 4, 98] | 30193 2 206 30 false",
    "police-q1 1 Service mem | [6, 0, 1, 2, 8, 7, 3, 4, 5, 9] | 18811 1 128 0 false",
    "police-q1 1 ScanMatch file | [0, 6, 8, 2, 1, 7, 5, 3, 4, 98] | 33412 2 228 0 false",
    "police-q1 1 SyncMatch file | [6, 0, 2, 1, 8, 7, 5, 3, 4, 98] | 17337 2 118 110 false",
    "police-q1 1 FastMatch file | [0, 8, 1, 2, 6, 7, 3, 5, 4, 98] | 30193 2 206 30 false",
    "police-q1 1 Service file | [6, 0, 1, 2, 8, 7, 3, 4, 5, 9] | 18811 1 128 0 false",
    "police-q2 1 ScanMatch mem | [4, 0, 5, 1, 3, 8, 6, 7, 2, 10] | 9063 1 62 0 false",
    "police-q2 1 SyncMatch mem | [4, 0, 5, 1, 3, 8, 6, 7, 2, 10] | 9063 1 62 0 false",
    "police-q2 1 FastMatch mem | [4, 0, 5, 1, 3, 8, 6, 7, 2, 10] | 9063 1 62 0 false",
    "police-q2 1 Service mem | [0, 2, 1, 6, 8, 3, 5, 4, 7, 9] | 18811 1 128 0 false",
    "police-q2 1 ScanMatch file | [4, 0, 5, 1, 3, 8, 6, 7, 2, 10] | 9063 1 62 0 false",
    "police-q2 1 SyncMatch file | [4, 0, 5, 1, 3, 8, 6, 7, 2, 10] | 9063 1 62 0 false",
    "police-q2 1 FastMatch file | [4, 0, 5, 1, 3, 8, 6, 7, 2, 10] | 9063 1 62 0 false",
    "police-q2 1 Service file | [0, 2, 1, 6, 8, 3, 5, 4, 7, 9] | 18811 1 128 0 false",
    "police-q3 1 ScanMatch mem | [142, 154, 158, 0, 166] | 39400 2 263 0 false",
    "police-q3 1 SyncMatch mem | [3, 195, 243, 240, 399] | 25450 2 170 148 false",
    "police-q3 1 FastMatch mem | [154, 158, 232, 166, 195] | 29800 2 199 68 false",
    "police-q3 1 Service mem | [1, 0, 3, 2, 4] | 17747 1 128 0 false",
    "police-q3 1 ScanMatch file | [142, 154, 158, 0, 166] | 39400 2 263 0 false",
    "police-q3 1 SyncMatch file | [3, 195, 243, 240, 399] | 25450 2 170 148 false",
    "police-q3 1 FastMatch file | [154, 158, 232, 166, 195] | 29800 2 199 68 false",
    "police-q3 1 Service file | [1, 0, 3, 2, 4] | 17747 1 128 0 false",
    "taxi-q1 1 ScanMatch mem | [1, 2, 6, 4, 0, 3, 8, 9, 10, 12] | 40000 1 267 0 false",
    "taxi-q1 1 SyncMatch mem | [1, 2, 6, 4, 0, 3, 5, 7, 8, 9] | 40000 2 267 3 false",
    "taxi-q1 1 FastMatch mem | [1, 2, 6, 4, 0, 3, 8, 9, 10, 12] | 40000 1 267 0 false",
    "taxi-q1 1 Service mem | [1, 4, 2, 6, 0, 5, 3, 8, 7, 9] | 34934 1 256 0 false",
    "taxi-q1 1 ScanMatch file | [1, 2, 6, 4, 0, 3, 8, 9, 10, 12] | 40000 1 267 0 false",
    "taxi-q1 1 SyncMatch file | [1, 2, 6, 4, 0, 3, 5, 7, 8, 9] | 40000 2 267 3 false",
    "taxi-q1 1 FastMatch file | [1, 2, 6, 4, 0, 3, 8, 9, 10, 12] | 40000 1 267 0 false",
    "taxi-q1 1 Service file | [1, 4, 2, 6, 0, 5, 3, 8, 7, 9] | 34934 1 256 0 false",
    "taxi-q2 1 ScanMatch mem | [0, 10, 6, 3, 2, 4, 8, 5, 1, 7] | 40000 1 267 0 false",
    "taxi-q2 1 SyncMatch mem | [0, 10, 6, 3, 2, 4, 8, 5, 1, 7] | 40000 2 267 8 false",
    "taxi-q2 1 FastMatch mem | [0, 10, 6, 3, 2, 4, 8, 5, 1, 7] | 40000 1 267 0 false",
    "taxi-q2 1 Service mem | [0, 3, 6, 2, 10, 4, 8, 1, 5, 7] | 26483 1 192 0 false",
    "taxi-q2 1 ScanMatch file | [0, 10, 6, 3, 2, 4, 8, 5, 1, 7] | 40000 1 267 0 false",
    "taxi-q2 1 SyncMatch file | [0, 10, 6, 3, 2, 4, 8, 5, 1, 7] | 40000 2 267 8 false",
    "taxi-q2 1 FastMatch file | [0, 10, 6, 3, 2, 4, 8, 5, 1, 7] | 40000 1 267 0 false",
    "taxi-q2 1 Service file | [0, 3, 6, 2, 10, 4, 8, 1, 5, 7] | 26483 1 192 0 false",
    "flights-q1 2 ScanMatch mem | [0, 2, 8, 3, 9, 1, 4, 7, 6, 12] | 11435 1 78 0 false",
    "flights-q1 2 SyncMatch mem | [0, 2, 8, 3, 9, 1, 4, 7, 6, 12] | 11435 1 78 0 false",
    "flights-q1 2 FastMatch mem | [0, 2, 8, 3, 9, 1, 4, 7, 6, 12] | 11435 1 78 0 false",
    "flights-q1 2 Service mem | [0, 1, 4, 2, 8, 5, 3, 9, 7, 6] | 27480 1 192 0 false",
    "flights-q1 2 ScanMatch file | [0, 2, 8, 3, 9, 1, 4, 7, 6, 12] | 11435 1 78 0 false",
    "flights-q1 2 SyncMatch file | [0, 2, 8, 3, 9, 1, 4, 7, 6, 12] | 11435 1 78 0 false",
    "flights-q1 2 FastMatch file | [0, 2, 8, 3, 9, 1, 4, 7, 6, 12] | 11435 1 78 0 false",
    "flights-q1 2 Service file | [0, 1, 4, 2, 8, 5, 3, 9, 7, 6] | 27480 1 192 0 false",
    "flights-q2 2 ScanMatch mem | [29, 24, 36, 64, 14, 17, 18, 20, 50, 66] | 39130 2 267 0 false",
    "flights-q2 2 SyncMatch mem | [29, 24, 36, 64, 14, 18, 13, 20, 50, 66] | 39130 2 267 10 false",
    "flights-q2 2 FastMatch mem | [29, 24, 36, 64, 14, 17, 18, 20, 50, 66] | 39130 2 267 26 false",
    "flights-q2 2 Service mem | [29, 24, 14, 17, 13, 43, 15, 19, 31, 42] | 38022 1 267 0 false",
    "flights-q2 2 ScanMatch file | [29, 24, 36, 64, 14, 17, 18, 20, 50, 66] | 39130 2 267 0 false",
    "flights-q2 2 SyncMatch file | [29, 24, 36, 64, 14, 18, 13, 20, 50, 66] | 39130 2 267 10 false",
    "flights-q2 2 FastMatch file | [29, 24, 36, 64, 14, 17, 18, 20, 50, 66] | 39130 2 267 26 false",
    "flights-q2 2 Service file | [29, 24, 14, 17, 13, 43, 15, 19, 31, 42] | 38022 1 267 0 false",
    "flights-q3 2 ScanMatch mem | [3, 7, 5, 1, 9] | 6639 1 45 0 false",
    "flights-q3 2 SyncMatch mem | [3, 7, 5, 1, 9] | 6639 1 45 0 false",
    "flights-q3 2 FastMatch mem | [3, 7, 5, 1, 9] | 6788 1 46 0 false",
    "flights-q3 2 Service mem | [3, 1, 7, 9, 5] | 18525 1 128 0 false",
    "flights-q3 2 ScanMatch file | [3, 7, 5, 1, 9] | 6639 1 45 0 false",
    "flights-q3 2 SyncMatch file | [3, 7, 5, 1, 9] | 6639 1 45 0 false",
    "flights-q3 2 FastMatch file | [3, 7, 5, 1, 9] | 6788 1 46 0 false",
    "flights-q3 2 Service file | [3, 1, 7, 9, 5] | 18525 1 128 0 false",
    "flights-q4 2 ScanMatch mem | [12, 10, 14, 4, 1, 6, 3, 2, 8, 0] | 39130 2 267 0 false",
    "flights-q4 2 SyncMatch mem | [12, 10, 14, 4, 1, 6, 3, 2, 8, 0] | 39130 2 267 10 false",
    "flights-q4 2 FastMatch mem | [12, 10, 14, 4, 1, 6, 3, 2, 8, 0] | 39130 2 267 26 false",
    "flights-q4 2 Service mem | [12, 10, 14, 4, 6, 3, 2, 8, 0, 5] | 38022 1 267 0 false",
    "flights-q4 2 ScanMatch file | [12, 10, 14, 4, 1, 6, 3, 2, 8, 0] | 39130 2 267 0 false",
    "flights-q4 2 SyncMatch file | [12, 10, 14, 4, 1, 6, 3, 2, 8, 0] | 39130 2 267 10 false",
    "flights-q4 2 FastMatch file | [12, 10, 14, 4, 1, 6, 3, 2, 8, 0] | 39130 2 267 26 false",
    "flights-q4 2 Service file | [12, 10, 14, 4, 6, 3, 2, 8, 0, 5] | 38022 1 267 0 false",
    "police-q1 2 ScanMatch mem | [1, 2, 0, 8, 7, 5, 3, 4, 6, 9] | 29115 2 198 0 false",
    "police-q1 2 SyncMatch mem | [0, 2, 8, 1, 7, 6, 5, 4, 3, 9] | 16907 2 115 89 false",
    "police-q1 2 FastMatch mem | [2, 8, 0, 1, 4, 7, 5, 6, 3, 9] | 23227 2 158 79 false",
    "police-q1 2 Service mem | [0, 2, 1, 7, 8, 6, 4, 3, 5, 9] | 18753 1 128 0 false",
    "police-q1 2 ScanMatch file | [1, 2, 0, 8, 7, 5, 3, 4, 6, 9] | 29115 2 198 0 false",
    "police-q1 2 SyncMatch file | [0, 2, 8, 1, 7, 6, 5, 4, 3, 9] | 16907 2 115 89 false",
    "police-q1 2 FastMatch file | [2, 8, 0, 1, 4, 7, 5, 6, 3, 9] | 23227 2 158 79 false",
    "police-q1 2 Service file | [0, 2, 1, 7, 8, 6, 4, 3, 5, 9] | 18753 1 128 0 false",
    "police-q2 2 ScanMatch mem | [8, 3, 5, 2, 1, 4, 6, 0, 7, 9] | 7398 1 50 0 false",
    "police-q2 2 SyncMatch mem | [8, 3, 5, 2, 1, 4, 6, 0, 7, 9] | 7398 1 50 0 false",
    "police-q2 2 FastMatch mem | [8, 3, 4, 0, 1, 5, 2, 7, 6, 9] | 9172 1 62 0 false",
    "police-q2 2 Service mem | [1, 2, 8, 0, 3, 4, 5, 7, 6, 9] | 18753 1 128 0 false",
    "police-q2 2 ScanMatch file | [8, 3, 5, 2, 1, 4, 6, 0, 7, 9] | 7398 1 50 0 false",
    "police-q2 2 SyncMatch file | [8, 3, 5, 2, 1, 4, 6, 0, 7, 9] | 7398 1 50 0 false",
    "police-q2 2 FastMatch file | [8, 3, 4, 0, 1, 5, 2, 7, 6, 9] | 9172 1 62 0 false",
    "police-q2 2 Service file | [1, 2, 8, 0, 3, 4, 5, 7, 6, 9] | 18753 1 128 0 false",
    "police-q3 2 ScanMatch mem | [116, 145, 156, 213, 214] | 37150 2 248 0 false",
    "police-q3 2 SyncMatch mem | [145, 1116, 1332, 4, 1551] | 19900 2 133 292 false",
    "police-q3 2 FastMatch mem | [145, 1116, 772, 1145, 1307] | 16750 2 112 313 false",
    "police-q3 2 Service mem | [2, 0, 4, 1, 3] | 17723 1 128 0 false",
    "police-q3 2 ScanMatch file | [116, 145, 156, 213, 214] | 37150 2 248 0 false",
    "police-q3 2 SyncMatch file | [145, 1116, 1332, 4, 1551] | 19900 2 133 292 false",
    "police-q3 2 FastMatch file | [145, 1116, 772, 1145, 1307] | 16750 2 112 313 false",
    "police-q3 2 Service file | [2, 0, 4, 1, 3] | 17723 1 128 0 false",
    "taxi-q1 2 ScanMatch mem | [3, 6, 0, 2, 1, 7, 5, 9, 8, 11] | 40000 1 267 0 false",
    "taxi-q1 2 SyncMatch mem | [3, 6, 0, 2, 1, 4, 7, 5, 9, 8] | 40000 2 267 2 false",
    "taxi-q1 2 FastMatch mem | [3, 6, 0, 2, 1, 7, 5, 9, 8, 11] | 40000 1 267 0 false",
    "taxi-q1 2 Service mem | [3, 0, 6, 1, 4, 2, 5, 7, 9, 8] | 34895 1 256 1 false",
    "taxi-q1 2 ScanMatch file | [3, 6, 0, 2, 1, 7, 5, 9, 8, 11] | 40000 1 267 0 false",
    "taxi-q1 2 SyncMatch file | [3, 6, 0, 2, 1, 4, 7, 5, 9, 8] | 40000 2 267 2 false",
    "taxi-q1 2 FastMatch file | [3, 6, 0, 2, 1, 7, 5, 9, 8, 11] | 40000 1 267 0 false",
    "taxi-q1 2 Service file | [3, 0, 6, 1, 4, 2, 5, 7, 9, 8] | 34895 1 256 1 false",
    "taxi-q2 2 ScanMatch mem | [0, 2, 4, 7, 10, 3, 5, 6, 8, 1] | 12250 1 82 0 false",
    "taxi-q2 2 SyncMatch mem | [0, 2, 4, 7, 10, 3, 5, 6, 8, 1] | 12250 1 82 0 false",
    "taxi-q2 2 FastMatch mem | [0, 2, 4, 7, 10, 3, 5, 6, 1, 8] | 14050 1 94 0 false",
    "taxi-q2 2 Service mem | [0, 2, 3, 4, 6, 7, 10, 5, 1, 8] | 26451 1 192 0 false",
    "taxi-q2 2 ScanMatch file | [0, 2, 4, 7, 10, 3, 5, 6, 8, 1] | 12250 1 82 0 false",
    "taxi-q2 2 SyncMatch file | [0, 2, 4, 7, 10, 3, 5, 6, 8, 1] | 12250 1 82 0 false",
    "taxi-q2 2 FastMatch file | [0, 2, 4, 7, 10, 3, 5, 6, 1, 8] | 14050 1 94 0 false",
    "taxi-q2 2 Service file | [0, 2, 3, 4, 6, 7, 10, 5, 1, 8] | 26451 1 192 0 false",
];

/// The cells of [`GOLDEN`] with stage 1 pruning from exact row counts.
const GOLDEN_FROM_COUNTS: &[&str] = &[
    "flights-q1 1 ScanMatch mem | [0, 1, 4, 8, 7, 6, 5, 3, 9, 2] | 13611 1 105 0 false",
    "flights-q1 1 SyncMatch mem | [0, 1, 4, 7, 8, 3, 6, 9, 5, 2] | 13366 1 103 2 false",
    "flights-q1 1 FastMatch mem | [0, 1, 4, 7, 8, 3, 6, 5, 9, 2] | 14249 1 110 0 false",
    "flights-q1 1 Service mem | [0, 2, 1, 4, 3, 6, 9, 5, 7, 8] | 25840 1 192 0 false",
    "flights-q1 1 ScanMatch file | [0, 1, 4, 8, 7, 6, 5, 3, 9, 2] | 13611 1 105 0 false",
    "flights-q1 1 SyncMatch file | [0, 1, 4, 7, 8, 3, 6, 9, 5, 2] | 13366 1 103 2 false",
    "flights-q1 1 FastMatch file | [0, 1, 4, 7, 8, 3, 6, 5, 9, 2] | 14249 1 110 0 false",
    "flights-q1 1 Service file | [0, 2, 1, 4, 3, 6, 9, 5, 7, 8] | 25840 1 192 0 false",
    "flights-q2 1 ScanMatch mem | [29, 19, 14, 13, 17, 15, 16, 22, 18, 28] | 34234 2 267 0 false",
    "flights-q2 1 SyncMatch mem | [29, 19, 14, 13, 17, 15, 16, 22, 18, 28] | 34234 2 267 2 false",
    "flights-q2 1 FastMatch mem | [29, 19, 14, 13, 17, 15, 16, 22, 18, 28] | 34234 2 267 0 false",
    "flights-q2 1 Service mem | [29, 19, 14, 13, 17, 15, 16, 20, 18, 35] | 35407 1 267 0 false",
    "flights-q2 1 ScanMatch file | [29, 19, 14, 13, 17, 15, 16, 22, 18, 28] | 34234 2 267 0 false",
    "flights-q2 1 SyncMatch file | [29, 19, 14, 13, 17, 15, 16, 22, 18, 28] | 34234 2 267 2 false",
    "flights-q2 1 FastMatch file | [29, 19, 14, 13, 17, 15, 16, 22, 18, 28] | 34234 2 267 0 false",
    "flights-q2 1 Service file | [29, 19, 14, 13, 17, 15, 16, 20, 18, 35] | 35407 1 267 0 false",
    "flights-q3 1 ScanMatch mem | [9, 1, 3, 7, 5] | 7287 1 55 0 false",
    "flights-q3 1 SyncMatch mem | [9, 1, 3, 7, 5] | 7287 1 55 0 false",
    "flights-q3 1 FastMatch mem | [9, 3, 1, 7, 5] | 8143 1 62 0 false",
    "flights-q3 1 Service mem | [5, 3, 9, 1, 7] | 17764 1 128 0 false",
    "flights-q3 1 ScanMatch file | [9, 1, 3, 7, 5] | 7287 1 55 0 false",
    "flights-q3 1 SyncMatch file | [9, 1, 3, 7, 5] | 7287 1 55 0 false",
    "flights-q3 1 FastMatch file | [9, 3, 1, 7, 5] | 8143 1 62 0 false",
    "flights-q3 1 Service file | [5, 3, 9, 1, 7] | 17764 1 128 0 false",
    "flights-q4 1 ScanMatch mem | [4, 12, 2, 1, 14, 8, 10, 6, 0, 3] | 34234 2 267 0 false",
    "flights-q4 1 SyncMatch mem | [4, 12, 2, 1, 14, 8, 10, 6, 0, 3] | 34234 2 267 2 false",
    "flights-q4 1 FastMatch mem | [4, 12, 2, 1, 14, 8, 10, 6, 0, 3] | 34234 2 267 0 false",
    "flights-q4 1 Service mem | [4, 12, 2, 1, 8, 10, 6, 0, 3, 5] | 35407 1 267 0 false",
    "flights-q4 1 ScanMatch file | [4, 12, 2, 1, 14, 8, 10, 6, 0, 3] | 34234 2 267 0 false",
    "flights-q4 1 SyncMatch file | [4, 12, 2, 1, 14, 8, 10, 6, 0, 3] | 34234 2 267 2 false",
    "flights-q4 1 FastMatch file | [4, 12, 2, 1, 14, 8, 10, 6, 0, 3] | 34234 2 267 0 false",
    "flights-q4 1 Service file | [4, 12, 2, 1, 8, 10, 6, 0, 3, 5] | 35407 1 267 0 false",
    "police-q1 1 ScanMatch mem | [0, 1, 2, 8, 6, 7, 5, 3, 4, 9] | 5946 1 44 0 false",
    "police-q1 1 SyncMatch mem | [0, 1, 2, 8, 6, 7, 5, 3, 4, 9] | 5946 1 44 0 false",
    "police-q1 1 FastMatch mem | [0, 1, 2, 8, 6, 7, 5, 3, 4, 9] | 6203 1 46 0 false",
    "police-q1 1 Service mem | [6, 0, 1, 2, 8, 7, 3, 4, 5, 9] | 17835 1 128 0 false",
    "police-q1 1 ScanMatch file | [0, 1, 2, 8, 6, 7, 5, 3, 4, 9] | 5946 1 44 0 false",
    "police-q1 1 SyncMatch file | [0, 1, 2, 8, 6, 7, 5, 3, 4, 9] | 5946 1 44 0 false",
    "police-q1 1 FastMatch file | [0, 1, 2, 8, 6, 7, 5, 3, 4, 9] | 6203 1 46 0 false",
    "police-q1 1 Service file | [6, 0, 1, 2, 8, 7, 3, 4, 5, 9] | 17835 1 128 0 false",
    "police-q2 1 ScanMatch mem | [4, 0, 5, 1, 3, 6, 8, 2, 7, 10] | 7194 1 54 0 false",
    "police-q2 1 SyncMatch mem | [4, 0, 5, 1, 3, 6, 8, 2, 7, 10] | 7194 1 54 0 false",
    "police-q2 1 FastMatch mem | [4, 0, 5, 1, 3, 8, 6, 7, 2, 10] | 8192 1 62 0 false",
    "police-q2 1 Service mem | [0, 2, 1, 6, 8, 3, 5, 4, 7, 9] | 17835 1 128 0 false",
    "police-q2 1 ScanMatch file | [4, 0, 5, 1, 3, 6, 8, 2, 7, 10] | 7194 1 54 0 false",
    "police-q2 1 SyncMatch file | [4, 0, 5, 1, 3, 6, 8, 2, 7, 10] | 7194 1 54 0 false",
    "police-q2 1 FastMatch file | [4, 0, 5, 1, 3, 8, 6, 7, 2, 10] | 8192 1 62 0 false",
    "police-q2 1 Service file | [0, 2, 1, 6, 8, 3, 5, 4, 7, 9] | 17835 1 128 0 false",
    "police-q3 1 ScanMatch mem | [3, 4, 1, 0, 2] | 6100 1 49 0 false",
    "police-q3 1 SyncMatch mem | [3, 4, 1, 0, 2] | 6100 1 49 0 false",
    "police-q3 1 FastMatch mem | [3, 4, 1, 0, 2] | 7521 1 62 0 false",
    "police-q3 1 Service mem | [1, 0, 3, 2, 4] | 16912 1 128 0 false",
    "police-q3 1 ScanMatch file | [3, 4, 1, 0, 2] | 6100 1 49 0 false",
    "police-q3 1 SyncMatch file | [3, 4, 1, 0, 2] | 6100 1 49 0 false",
    "police-q3 1 FastMatch file | [3, 4, 1, 0, 2] | 7521 1 62 0 false",
    "police-q3 1 Service file | [1, 0, 3, 2, 4] | 16912 1 128 0 false",
    "taxi-q1 1 ScanMatch mem | [1, 6, 4, 2, 0, 3, 5, 8, 7, 9] | 28402 2 236 0 false",
    "taxi-q1 1 SyncMatch mem | [1, 6, 4, 0, 2, 3, 5, 8, 7, 9] | 27927 2 232 2 false",
    "taxi-q1 1 FastMatch mem | [1, 2, 6, 0, 4, 3, 5, 8, 7, 9] | 30518 2 254 0 false",
    "taxi-q1 1 Service mem | [1, 4, 2, 6, 0, 5, 3, 8, 7, 9] | 32330 1 256 0 false",
    "taxi-q1 1 ScanMatch file | [1, 6, 4, 2, 0, 3, 5, 8, 7, 9] | 28402 2 236 0 false",
    "taxi-q1 1 SyncMatch file | [1, 6, 4, 0, 2, 3, 5, 8, 7, 9] | 27927 2 232 2 false",
    "taxi-q1 1 FastMatch file | [1, 2, 6, 0, 4, 3, 5, 8, 7, 9] | 30518 2 254 0 false",
    "taxi-q1 1 Service file | [1, 4, 2, 6, 0, 5, 3, 8, 7, 9] | 32330 1 256 0 false",
    "taxi-q2 1 ScanMatch mem | [0, 10, 6, 2, 5, 3, 4, 8, 1, 7] | 12841 1 105 0 false",
    "taxi-q2 1 SyncMatch mem | [10, 0, 2, 6, 5, 3, 4, 8, 7, 1] | 12148 1 99 6 false",
    "taxi-q2 1 FastMatch mem | [10, 0, 2, 5, 6, 3, 4, 8, 7, 1] | 13431 1 110 0 false",
    "taxi-q2 1 Service mem | [0, 3, 6, 2, 10, 4, 8, 1, 5, 7] | 24738 1 192 0 false",
    "taxi-q2 1 ScanMatch file | [0, 10, 6, 2, 5, 3, 4, 8, 1, 7] | 12841 1 105 0 false",
    "taxi-q2 1 SyncMatch file | [10, 0, 2, 6, 5, 3, 4, 8, 7, 1] | 12148 1 99 6 false",
    "taxi-q2 1 FastMatch file | [10, 0, 2, 5, 6, 3, 4, 8, 7, 1] | 13431 1 110 0 false",
    "taxi-q2 1 Service file | [0, 3, 6, 2, 10, 4, 8, 1, 5, 7] | 24738 1 192 0 false",
    "flights-q1 2 ScanMatch mem | [0, 2, 8, 3, 9, 1, 4, 7, 6, 12] | 10176 1 78 0 false",
    "flights-q1 2 SyncMatch mem | [0, 2, 8, 3, 9, 1, 4, 7, 6, 12] | 10176 1 78 0 false",
    "flights-q1 2 FastMatch mem | [0, 2, 8, 3, 9, 1, 4, 7, 6, 12] | 10176 1 78 0 false",
    "flights-q1 2 Service mem | [0, 1, 4, 2, 8, 5, 3, 9, 7, 6] | 25829 1 192 0 false",
    "flights-q1 2 ScanMatch file | [0, 2, 8, 3, 9, 1, 4, 7, 6, 12] | 10176 1 78 0 false",
    "flights-q1 2 SyncMatch file | [0, 2, 8, 3, 9, 1, 4, 7, 6, 12] | 10176 1 78 0 false",
    "flights-q1 2 FastMatch file | [0, 2, 8, 3, 9, 1, 4, 7, 6, 12] | 10176 1 78 0 false",
    "flights-q1 2 Service file | [0, 1, 4, 2, 8, 5, 3, 9, 7, 6] | 25829 1 192 0 false",
    "flights-q2 2 ScanMatch mem | [29, 24, 14, 17, 18, 13, 16, 20, 15, 21] | 34219 2 267 0 false",
    "flights-q2 2 SyncMatch mem | [29, 24, 14, 17, 18, 13, 16, 20, 15, 21] | 34219 2 267 1 false",
    "flights-q2 2 FastMatch mem | [29, 24, 14, 17, 18, 13, 16, 20, 15, 21] | 34219 2 267 0 false",
    "flights-q2 2 Service mem | [29, 24, 14, 17, 13, 16, 15, 19, 22, 31] | 35420 1 267 0 false",
    "flights-q2 2 ScanMatch file | [29, 24, 14, 17, 18, 13, 16, 20, 15, 21] | 34219 2 267 0 false",
    "flights-q2 2 SyncMatch file | [29, 24, 14, 17, 18, 13, 16, 20, 15, 21] | 34219 2 267 1 false",
    "flights-q2 2 FastMatch file | [29, 24, 14, 17, 18, 13, 16, 20, 15, 21] | 34219 2 267 0 false",
    "flights-q2 2 Service file | [29, 24, 14, 17, 13, 16, 15, 19, 22, 31] | 35420 1 267 0 false",
    "flights-q3 2 ScanMatch mem | [3, 7, 5, 1, 9] | 6013 1 45 0 false",
    "flights-q3 2 SyncMatch mem | [3, 7, 5, 1, 9] | 6013 1 45 0 false",
    "flights-q3 2 FastMatch mem | [3, 7, 5, 1, 9] | 6146 1 46 0 false",
    "flights-q3 2 Service mem | [3, 1, 7, 9, 5] | 17710 1 128 0 false",
    "flights-q3 2 ScanMatch file | [3, 7, 5, 1, 9] | 6013 1 45 0 false",
    "flights-q3 2 SyncMatch file | [3, 7, 5, 1, 9] | 6013 1 45 0 false",
    "flights-q3 2 FastMatch file | [3, 7, 5, 1, 9] | 6146 1 46 0 false",
    "flights-q3 2 Service file | [3, 1, 7, 9, 5] | 17710 1 128 0 false",
    "flights-q4 2 ScanMatch mem | [12, 10, 14, 4, 1, 6, 3, 2, 8, 0] | 34219 2 267 0 false",
    "flights-q4 2 SyncMatch mem | [12, 10, 14, 4, 1, 6, 3, 2, 8, 0] | 34219 2 267 1 false",
    "flights-q4 2 FastMatch mem | [12, 10, 14, 4, 1, 6, 3, 2, 8, 0] | 34219 2 267 0 false",
    "flights-q4 2 Service mem | [12, 10, 14, 4, 6, 3, 2, 8, 0, 5] | 35420 1 267 0 false",
    "flights-q4 2 ScanMatch file | [12, 10, 14, 4, 1, 6, 3, 2, 8, 0] | 34219 2 267 0 false",
    "flights-q4 2 SyncMatch file | [12, 10, 14, 4, 1, 6, 3, 2, 8, 0] | 34219 2 267 1 false",
    "flights-q4 2 FastMatch file | [12, 10, 14, 4, 1, 6, 3, 2, 8, 0] | 34219 2 267 0 false",
    "flights-q4 2 Service file | [12, 10, 14, 4, 6, 3, 2, 8, 0, 5] | 35420 1 267 0 false",
    "police-q1 2 ScanMatch mem | [7, 8, 6, 0, 1, 3, 5, 4, 2, 9] | 4397 1 32 0 false",
    "police-q1 2 SyncMatch mem | [7, 8, 6, 0, 1, 3, 5, 4, 2, 9] | 4397 1 32 0 false",
    "police-q1 2 FastMatch mem | [8, 7, 0, 5, 4, 6, 1, 2, 3, 9] | 6176 1 46 0 false",
    "police-q1 2 Service mem | [0, 2, 1, 7, 8, 6, 4, 3, 5, 9] | 17780 1 128 0 false",
    "police-q1 2 ScanMatch file | [7, 8, 6, 0, 1, 3, 5, 4, 2, 9] | 4397 1 32 0 false",
    "police-q1 2 SyncMatch file | [7, 8, 6, 0, 1, 3, 5, 4, 2, 9] | 4397 1 32 0 false",
    "police-q1 2 FastMatch file | [8, 7, 0, 5, 4, 6, 1, 2, 3, 9] | 6176 1 46 0 false",
    "police-q1 2 Service file | [0, 2, 1, 7, 8, 6, 4, 3, 5, 9] | 17780 1 128 0 false",
    "police-q2 2 ScanMatch mem | [8, 3, 5, 2, 1, 4, 6, 0, 7, 9] | 6692 1 50 0 false",
    "police-q2 2 SyncMatch mem | [8, 3, 5, 2, 1, 4, 6, 0, 7, 9] | 6692 1 50 0 false",
    "police-q2 2 FastMatch mem | [8, 3, 4, 0, 1, 5, 2, 7, 6, 9] | 8240 1 62 0 false",
    "police-q2 2 Service mem | [1, 2, 8, 0, 3, 4, 5, 7, 6, 9] | 17780 1 128 0 false",
    "police-q2 2 ScanMatch file | [8, 3, 5, 2, 1, 4, 6, 0, 7, 9] | 6692 1 50 0 false",
    "police-q2 2 SyncMatch file | [8, 3, 5, 2, 1, 4, 6, 0, 7, 9] | 6692 1 50 0 false",
    "police-q2 2 FastMatch file | [8, 3, 4, 0, 1, 5, 2, 7, 6, 9] | 8240 1 62 0 false",
    "police-q2 2 Service file | [1, 2, 8, 0, 3, 4, 5, 7, 6, 9] | 17780 1 128 0 false",
    "police-q3 2 ScanMatch mem | [2, 3, 1, 4, 0] | 4473 1 35 0 false",
    "police-q3 2 SyncMatch mem | [2, 3, 1, 4, 0] | 4473 1 35 0 false",
    "police-q3 2 FastMatch mem | [4, 0, 3, 1, 2] | 5701 1 46 0 false",
    "police-q3 2 Service mem | [2, 0, 4, 1, 3] | 16828 1 128 0 false",
    "police-q3 2 ScanMatch file | [2, 3, 1, 4, 0] | 4473 1 35 0 false",
    "police-q3 2 SyncMatch file | [2, 3, 1, 4, 0] | 4473 1 35 0 false",
    "police-q3 2 FastMatch file | [4, 0, 3, 1, 2] | 5701 1 46 0 false",
    "police-q3 2 Service file | [2, 0, 4, 1, 3] | 16828 1 128 0 false",
    "taxi-q1 2 ScanMatch mem | [3, 0, 2, 1, 4, 6, 7, 5, 9, 8] | 28271 2 235 0 false",
    "taxi-q1 2 SyncMatch mem | [3, 1, 2, 0, 4, 7, 6, 5, 9, 8] | 27454 2 228 3 false",
    "taxi-q1 2 FastMatch mem | [3, 2, 0, 6, 1, 4, 7, 5, 9, 8] | 30527 2 254 0 false",
    "taxi-q1 2 Service mem | [3, 0, 6, 1, 4, 2, 5, 7, 9, 8] | 32380 1 256 1 false",
    "taxi-q1 2 ScanMatch file | [3, 0, 2, 1, 4, 6, 7, 5, 9, 8] | 28271 2 235 0 false",
    "taxi-q1 2 SyncMatch file | [3, 1, 2, 0, 4, 7, 6, 5, 9, 8] | 27454 2 228 3 false",
    "taxi-q1 2 FastMatch file | [3, 2, 0, 6, 1, 4, 7, 5, 9, 8] | 30527 2 254 0 false",
    "taxi-q1 2 Service file | [3, 0, 6, 1, 4, 2, 5, 7, 9, 8] | 32380 1 256 1 false",
    "taxi-q2 2 ScanMatch mem | [0, 2, 4, 7, 10, 3, 5, 6, 8, 1] | 10103 1 82 0 false",
    "taxi-q2 2 SyncMatch mem | [0, 2, 4, 7, 10, 3, 5, 6, 8, 1] | 10103 1 82 0 false",
    "taxi-q2 2 FastMatch mem | [0, 2, 4, 7, 10, 3, 5, 6, 1, 8] | 11515 1 94 0 false",
    "taxi-q2 2 Service mem | [0, 2, 3, 4, 6, 7, 10, 5, 1, 8] | 24740 1 192 0 false",
    "taxi-q2 2 ScanMatch file | [0, 2, 4, 7, 10, 3, 5, 6, 8, 1] | 10103 1 82 0 false",
    "taxi-q2 2 SyncMatch file | [0, 2, 4, 7, 10, 3, 5, 6, 8, 1] | 10103 1 82 0 false",
    "taxi-q2 2 FastMatch file | [0, 2, 4, 7, 10, 3, 5, 6, 1, 8] | 11515 1 94 0 false",
    "taxi-q2 2 Service file | [0, 2, 3, 4, 6, 7, 10, 5, 1, 8] | 24740 1 192 0 false",
];

/// A configuration under which 40 000 rows are enough to decide early:
/// at §5.2's ε and δ every query reads the whole table, and such a
/// table pins nothing. Here most cells prune in stage 1, stop before
/// the last block, and some skip blocks or run several stage-2 rounds.
/// Stage 1 runs the paper's sampled test; [`GOLDEN_FROM_COUNTS`] swaps
/// in `rare` alone.
fn config(k: usize) -> HistSimConfig {
    HistSimConfig {
        k,
        epsilon: 1.0,
        delta: 0.1,
        sigma: 0.005,
        stage1_samples: 2_000,
        rare: RarePruning::Sampled,
        ..HistSimConfig::default()
    }
}

fn line(cell: &str, out: &MatchOutput) -> String {
    let s = &out.stats;
    format!(
        "{cell} | {:?} | {} {} {} {} {}",
        out.candidate_ids(),
        s.samples,
        s.stage2_rounds,
        s.io.blocks_read,
        s.io.blocks_skipped,
        s.exact_finish
    )
}

/// Every cell's line with stage 1 in mode `rare`.
fn decisions(rare: RarePruning) -> Vec<String> {
    let mut lines = Vec::new();
    for seed in SEEDS {
        let mut specs = all_queries();
        specs.sort_by_key(|q| q.dataset.name());
        for group in specs.chunk_by(|a, b| a.dataset == b.dataset) {
            let table = group[0].dataset.generate(ROWS, seed);
            let layout = BlockLayout::with_default_block(table.n_rows());
            let file = TempBlockFile::new("decisions_golden");
            let file_backend = FileBackend::create(file.path(), &table, DEFAULT_TUPLES_PER_BLOCK)
                .unwrap()
                .with_cache_blocks(4 * layout.num_blocks());
            let mem_backend = MemBackend::new(&table, layout);
            let backends: [(&str, &dyn StorageBackend); 2] =
                [("mem", &mem_backend), ("file", &file_backend)];
            for spec in group {
                let (z, x) = (spec.z_attr(&table), spec.x_attr(&table));
                let bitmap = BitmapIndex::build(&table, z, &layout);
                let (target, _) = spec.resolve_target(&table);
                let cfg = HistSimConfig {
                    rare,
                    ..config(spec.k)
                };
                for (name, backend) in backends {
                    let fast_match = FastMatchExec::with_lookahead(LOOKAHEAD);
                    let execs: [&dyn Executor; 3] = [&ScanMatchExec, &SyncMatchExec, &fast_match];
                    for e in execs {
                        let job = QueryJob::from_backend(
                            backend,
                            &bitmap,
                            z,
                            x,
                            target.clone(),
                            cfg.clone(),
                        );
                        let cell = format!("{} {seed} {} {name}", spec.id, e.name());
                        let out = e
                            .run(&job, seed)
                            .unwrap_or_else(|err| panic!("{cell}: {err}"));
                        assert_eq!(out.stats.rare_pruning, rare, "{cell}");
                        lines.push(line(&cell, &out));
                    }
                    let svc_cfg = ServiceConfig::default().with_workers(1);
                    let outcome = QueryService::serve(backend, svc_cfg, |svc| {
                        svc.submit(
                            QueryRequest::new(&bitmap, z, x, target.clone(), cfg.clone())
                                .with_seed(seed),
                        )
                        .unwrap()
                        .wait()
                    });
                    let cell = format!("{} {seed} Service {name}", spec.id);
                    let out = outcome
                        .finished()
                        .unwrap_or_else(|| panic!("{cell}: {outcome:?}"));
                    assert_eq!(out.stats.rare_pruning, rare, "{cell}");
                    lines.push(line(&cell, out));
                }
            }
        }
    }
    lines
}

fn assert_pinned(lines: Vec<String>, golden: &[&str]) {
    if lines != golden {
        let table: String = lines.iter().map(|l| format!("    {l:?},\n")).collect();
        panic!("decisions moved; the table this tree produces is:\n{table}");
    }
}

#[test]
fn decisions_match_the_pinned_table() {
    assert_pinned(decisions(RarePruning::Sampled), GOLDEN);
}

#[test]
fn known_count_decisions_match_the_pinned_table() {
    assert_pinned(decisions(RarePruning::FromCounts), GOLDEN_FROM_COUNTS);
}
