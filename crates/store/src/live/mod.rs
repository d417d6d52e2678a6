//! Live tables: append ingestion with snapshot-isolated reads.
//!
//! Everything else in this crate assumes a table that is written once
//! and frozen. [`LiveTable`] is the mutable front of the store: an
//! HTAP-style split between an append-friendly write path and the
//! immutable, scan-optimized representation every reader already
//! understands.
//!
//! ```text
//!  appenders ──► memtable (active delta, ≤ 1 segment of rows)
//!                   │ full
//!                   ▼
//!              frozen delta (immutable in-memory Table) ──installed──► entries[i] = Mem
//!                   │ sealer (background thread or inline)
//!                   ▼
//!              segment file (write_table: checksummed pages) ──swap──► entries[i] = File
//!
//!  snapshot() ──► Snapshot { entries Arc-cloned, tail copied, bitmaps frozen }
//!                   = StorageBackend: executors / readers / service run unchanged
//! ```
//!
//! The pieces:
//!
//! * **Appends** ([`LiveTable::append_row`] / [`LiveTable::append_batch`])
//!   go into an in-memory delta (the `memtable` module, crate-internal)
//!   under one state mutex; concurrent appenders serialize there and
//!   nowhere else.
//!   Per-attribute presence bitmaps are maintained bit-by-bit in the
//!   same critical section, so snapshots never scan data to build their
//!   [`crate::bitmap::BitmapIndex`].
//! * **Sealing** — a delta that reaches `blocks_per_segment ×
//!   tuples_per_block` rows is *frozen* (installed immediately as an
//!   immutable in-memory segment, so no snapshot ever has a gap) and
//!   then *sealed*: written through the existing block-file writer
//!   ([`crate::file::write_table`] — same page format, position-keyed
//!   checksums) and re-opened as a [`crate::file::FileBackend`] that
//!   replaces the in-memory copy. Sealing runs on a background sealer
//!   thread by default ([`LiveTableConfig::background_sealer`]) or
//!   inline on the appender that filled the delta; a seal failure keeps
//!   the in-memory segment serving reads and is only *counted*
//!   ([`LiveStats::seal_errors`]) — durability degrades, correctness
//!   does not.
//!   Under backlog the sealer *coalesces* adjacent frozen deltas (up
//!   to [`LiveTableConfig::coalesce_segments`]) into one large
//!   sequential write, keeping persistence off the query path.
//! * **Ingest budgets** ([`LiveTableConfig::with_append_budget`]) bound
//!   appender throughput with a token bucket: over-budget appends
//!   sleep, releasing cores to concurrent queries — the software
//!   analogue of dedicating update-propagation resources in an HTAP
//!   design.
//! * **Snapshots** ([`LiveTable::snapshot`]) are the read contract: a
//!   sealed-segment watermark plus a frozen tail, implementing
//!   [`crate::backend::StorageBackend`] — see [`snapshot`].
//!
//! Block geometry invariant: sealed segments hold only *full* blocks,
//! so the global block id space is `segment-major` and a snapshot's
//! [`crate::block::BlockLayout`] is the ordinary "all blocks full except
//! possibly the last" shape every reader assumes.

pub mod compact;
pub(crate) mod memtable;
pub(crate) mod segment;
pub mod snapshot;
pub mod wal;
pub mod zone;

pub use snapshot::Snapshot;
pub use zone::ZoneMap;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::backend::StorageBackend;
use crate::block::DEFAULT_TUPLES_PER_BLOCK;
use crate::error::{Result, StoreError};
use crate::file::{fsync_dir, FileBackend};
use crate::live::compact::{pick_compaction, CompactShared};
use crate::live::memtable::{LiveBitmap, MemTable};
use crate::live::segment::{SegmentEntry, SegmentWriter};
use crate::live::wal::{
    durable_prefix_rows, replay_split, rotation_base, WalWriter, DEFAULT_WAL_SYNC_EVERY, WAL_FILE,
};
use crate::live::zone::LiveZones;
use crate::schema::Schema;
use crate::table::Table;

/// Acquires a mutex, proceeding through poisoning: every structure
/// these locks guard is either repaired by counters staying monotone
/// or only read for immutable `Arc`s, so a panicked peer must degrade
/// service, not wedge it.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Default sealed-segment size, in blocks (64 × the paper's 150-tuple
/// blocks = 9,600 rows per segment).
pub const DEFAULT_BLOCKS_PER_SEGMENT: usize = 64;

/// Default per-segment block-cache capacity, in pages. Deliberately far
/// below [`crate::file::DEFAULT_CACHE_BLOCKS`]: a live table accumulates
/// many `FileBackend`s, and their caches are additive.
pub const DEFAULT_SEGMENT_CACHE_BLOCKS: usize = 256;

/// Default cap on how many frozen deltas one sealed segment file may
/// coalesce (see [`LiveTableConfig::coalesce_segments`]).
pub const DEFAULT_COALESCE_SEGMENTS: usize = 4;

/// Builds the block-offset table of a snapshot from its per-segment
/// block counts: one start per segment plus a sentinel equal to the
/// total sealed block count, strictly increasing. Extracted so the
/// `live_lifecycle` model in `fastmatch-check` constructs watermarks
/// with exactly the arithmetic [`LiveTable::snapshot`] uses (invariant
/// `snapshot-is-prefix`).
pub fn build_seg_starts(seg_blocks: impl IntoIterator<Item = usize>) -> Vec<usize> {
    let mut starts = vec![0usize];
    for blocks in seg_blocks {
        starts.push(starts.last().copied().unwrap_or(0) + blocks);
    }
    starts
}

/// In-memory bytes a snapshot pins beyond sealed files: `mem_rows`
/// rows of still-in-memory frozen segments it Arc-shares plus
/// `tail_rows` rows of its owned tail copy, `n_attrs` u32 columns
/// each. The charge taken at snapshot time must equal the release on
/// the pin's `Drop` — the `live_lifecycle` model's `pin-balance`
/// invariant — so both sides call this one function.
pub fn snapshot_pinned_bytes(mem_rows: usize, tail_rows: usize, n_attrs: usize) -> u64 {
    ((mem_rows + tail_rows) * n_attrs * std::mem::size_of::<u32>()) as u64
}

/// Construction parameters of a [`LiveTable`].
#[derive(Debug, Clone)]
pub struct LiveTableConfig {
    /// Block granularity (must match what queries expect).
    pub tuples_per_block: usize,
    /// Full blocks per sealed segment.
    pub blocks_per_segment: usize,
    /// Where sealed segment files go. `None` keeps every segment in
    /// memory (no persistence, no sealer thread) — the pure-HTAP-cache
    /// mode tests and short-lived sessions use. The directory must
    /// exist; files in it are owned by the caller (they are *not*
    /// removed when the table drops).
    pub segment_dir: Option<PathBuf>,
    /// Seal on a dedicated background thread (`true`, default) so
    /// appenders never block on disk I/O, or inline on the appender
    /// that filled the delta (`false`, deterministic — useful in tests).
    pub background_sealer: bool,
    /// Block-cache capacity of each re-opened segment backend.
    pub segment_cache_blocks: usize,
    /// Appender budget, in rows per second. `None` (default) leaves
    /// appends unthrottled; `Some(rate)` puts every append through a
    /// token bucket so a free-running writer cannot monopolize the box —
    /// the ingest half of HTAP resource isolation. Appends that exceed
    /// the budget *sleep* (releasing the CPU to queries) until the
    /// bucket refills; waits are surfaced through
    /// [`LiveStats::throttled_appends`] / [`LiveStats::throttle_wait_ns`].
    pub append_budget_rows_per_sec: Option<u64>,
    /// Cap on how many *adjacent* frozen deltas one seal may merge into
    /// a single segment file. Under backlog (deltas freezing faster than
    /// the sealer drains them) coalescing turns k small writes into one
    /// large sequential write, so the sealer steals fewer cycles from
    /// queries. `1` disables coalescing (one file per delta, the
    /// pre-coalescing behavior); must be ≥ 1.
    pub coalesce_segments: usize,
    /// Whether appends are write-ahead logged (requires a segment
    /// directory; ignored without one). Defaults to `true`: with the
    /// WAL, every group-fsynced append survives a crash and
    /// [`LiveTable::open`] replays the unsealed tail. Turning it off
    /// restores the pre-WAL behavior — rows past the last sealed
    /// segment die with the process.
    pub wal_enabled: bool,
    /// Group-fsync interval of the WAL, in records: `1` fsyncs every
    /// record (strictest), `n` after every `n`th, `0` never (the OS
    /// flushes). A crash can lose at most the unsynced suffix; it can
    /// never corrupt the durable prefix (see [`wal`]).
    pub wal_sync_every: usize,
    /// Segment-file compaction fan-in. `None` (default) never merges
    /// sealed files; `Some(n)` keeps the table at ≤ `n` segment files
    /// by merging adjacent runs of up to `n` small files into one (see
    /// [`compact`]). Must be ≥ 2; requires a segment directory. With a
    /// background sealer the merges run on a dedicated compactor
    /// thread; with an inline sealer they run inline after each seal.
    pub compact_fan_in: Option<usize>,
}

impl Default for LiveTableConfig {
    fn default() -> Self {
        LiveTableConfig {
            tuples_per_block: DEFAULT_TUPLES_PER_BLOCK,
            blocks_per_segment: DEFAULT_BLOCKS_PER_SEGMENT,
            segment_dir: None,
            background_sealer: true,
            segment_cache_blocks: DEFAULT_SEGMENT_CACHE_BLOCKS,
            append_budget_rows_per_sec: None,
            coalesce_segments: DEFAULT_COALESCE_SEGMENTS,
            wal_enabled: true,
            wal_sync_every: DEFAULT_WAL_SYNC_EVERY,
            compact_fan_in: None,
        }
    }
}

impl LiveTableConfig {
    /// Sets the block granularity.
    pub fn with_tuples_per_block(mut self, tpb: usize) -> Self {
        self.tuples_per_block = tpb;
        self
    }

    /// Sets the segment size in blocks.
    pub fn with_blocks_per_segment(mut self, blocks: usize) -> Self {
        self.blocks_per_segment = blocks;
        self
    }

    /// Enables persistence: sealed segments are written under `dir`.
    pub fn with_segment_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.segment_dir = Some(dir.into());
        self
    }

    /// Chooses between the background sealer thread (`true`) and inline
    /// sealing on the appender (`false`).
    pub fn with_background_sealer(mut self, background: bool) -> Self {
        self.background_sealer = background;
        self
    }

    /// Bounds appenders to `rows_per_sec` through a token bucket.
    pub fn with_append_budget(mut self, rows_per_sec: u64) -> Self {
        self.append_budget_rows_per_sec = Some(rows_per_sec);
        self
    }

    /// Sets the delta-coalescing cap (`1` disables coalescing).
    pub fn with_coalesce_segments(mut self, deltas: usize) -> Self {
        self.coalesce_segments = deltas;
        self
    }

    /// Enables or disables write-ahead logging of appends.
    pub fn with_wal(mut self, enabled: bool) -> Self {
        self.wal_enabled = enabled;
        self
    }

    /// Sets the WAL group-fsync interval, in records (`1` = every
    /// record, `0` = never).
    pub fn with_wal_sync_every(mut self, records: usize) -> Self {
        self.wal_sync_every = records;
        self
    }

    /// Enables segment-file compaction with the given fan-in (≥ 2).
    pub fn with_compaction(mut self, fan_in: usize) -> Self {
        self.compact_fan_in = Some(fan_in);
        self
    }
}

/// Counters (and one gauge) describing a live table's life so far. All
/// fields except `pinned_snapshot_bytes` are monotone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LiveStats {
    /// Rows appended in total.
    pub rows: u64,
    /// Deltas frozen into immutable segments (either representation).
    pub frozen_segments: u64,
    /// Deltas persisted to disk and swapped to their file form. A
    /// coalesced seal persists several deltas with one write, so this
    /// can exceed the number of segment *files*.
    pub persisted_segments: u64,
    /// Deltas whose seal failed (the run kept serving from memory).
    pub seal_errors: u64,
    /// Snapshots taken.
    pub snapshots: u64,
    /// Deltas that were merged into multi-delta segment files (counts
    /// every member of a coalesced run; singleton seals don't count).
    pub coalesced_deltas: u64,
    /// Append calls that slept at least once in the token bucket.
    pub throttled_appends: u64,
    /// Total nanoseconds appenders spent sleeping in the token bucket.
    pub throttle_wait_ns: u64,
    /// Gauge: bytes of in-memory data (frozen-but-unsealed segments +
    /// tail copies) currently kept alive by outstanding snapshots. An
    /// upper bound on what snapshot retention costs beyond the table's
    /// own working set; falls as snapshots drop.
    pub pinned_snapshot_bytes: u64,
    /// Records appended to the write-ahead log.
    pub wal_records: u64,
    /// Fsyncs the WAL has issued (group syncs plus rotation syncs).
    pub wal_syncs: u64,
    /// WAL truncations performed (one per seal that rotated the log).
    pub wal_rotations: u64,
    /// WAL operations that failed (create, append, rotate, or an
    /// unusable log at recovery). The table keeps serving — durability
    /// degrades, correctness does not — mirroring `seal_errors`.
    pub wal_errors: u64,
    /// Rows [`LiveTable::open`] replayed from the WAL back into the
    /// table (rows already covered by recovered segment files are not
    /// counted — they were never lost).
    pub recovered_rows: u64,
    /// Wall-clock nanoseconds [`LiveTable::open`] spent scanning
    /// segment files, verifying checksums, rebuilding indexes and
    /// replaying the WAL.
    pub recovery_ns: u64,
    /// Segment files [`LiveTable::open`] rejected as torn or corrupt
    /// (checksum failure, bad geometry, or unreachable behind a gap).
    /// Their rows are re-served from the WAL where it covers them.
    pub recovered_torn_segments: u64,
    /// Compaction merges performed.
    pub compactions: u64,
    /// Segment files consumed by compaction merges (each merge turns
    /// ≥ 2 files into 1).
    pub compacted_segments: u64,
    /// Compaction attempts that failed (counted, never propagated: the
    /// uncompacted files keep serving).
    pub compact_errors: u64,
}

/// Shared core of one live table (append state + counters); the sealer
/// thread holds its own `Arc`.
#[derive(Debug)]
struct LiveInner {
    schema: Schema,
    tuples_per_block: usize,
    blocks_per_segment: usize,
    rows_per_segment: usize,
    coalesce_segments: usize,
    compact_fan_in: Option<usize>,
    writer: Option<SegmentWriter>,
    budget: Option<Mutex<TokenBucket>>,
    state: Mutex<LiveState>,
    /// The write-ahead log, when enabled and creatable. Locked *after*
    /// the state lock (appends log inside the state critical section so
    /// the log's order is the append order); never the other way.
    wal: Mutex<Option<WalWriter>>,
    /// Group-fsync interval rotation re-creates the log with.
    wal_sync_every: usize,
    /// Serializes compaction passes (the background thread against
    /// [`LiveTable::compact_now`]); acquired before the state lock is
    /// taken and released between passes.
    compact_gate: Mutex<()>,
    /// Wakeup channel to the compactor thread, when one runs.
    compact: Option<Arc<CompactShared>>,
    rows: AtomicU64,
    frozen: AtomicU64,
    persisted: AtomicU64,
    seal_errors: AtomicU64,
    snapshots: AtomicU64,
    coalesced: AtomicU64,
    throttled: AtomicU64,
    throttle_wait_ns: AtomicU64,
    wal_records: AtomicU64,
    wal_syncs: AtomicU64,
    wal_rotations: AtomicU64,
    wal_errors: AtomicU64,
    recovered_rows: AtomicU64,
    recovery_ns: AtomicU64,
    recovered_torn: AtomicU64,
    compactions: AtomicU64,
    compacted_segments: AtomicU64,
    compact_errors: AtomicU64,
    /// Shared with [`snapshot::SnapshotPin`]s, which can outlive the
    /// table; hence the extra `Arc`.
    pinned: Arc<AtomicU64>,
}

/// Everything the append lock guards.
#[derive(Debug)]
struct LiveState {
    entries: Vec<LiveSegment>,
    mem: MemTable,
    bitmaps: Vec<LiveBitmap>,
    /// Per-attribute per-block min/max/count bounds, maintained in the
    /// same critical section as `bitmaps` (see [`zone`]).
    zones: Vec<LiveZones>,
    /// Rows covered by `entries`.
    sealed_rows: usize,
}

/// One sealed entry of the live table. Entries start life as single
/// frozen deltas; a coalescing seal replaces an adjacent run of them
/// with one file-backed entry spanning `deltas` deltas — so entries
/// have *variable* block counts and are keyed by their first delta id
/// (strictly increasing across the vector).
#[derive(Debug, Clone)]
struct LiveSegment {
    /// Id of the first frozen delta this entry covers (delta ids are
    /// assigned in freeze order and never reused); also names the
    /// segment file (`segment-{first_delta:06}.fmb`).
    first_delta: u64,
    /// Full blocks this entry spans (`deltas × blocks_per_segment`).
    blocks: usize,
    repr: SegmentEntry,
}

/// One frozen delta awaiting its seal.
struct SealJob {
    delta: u64,
    table: Arc<Table>,
}

/// Deficit-style token bucket bounding append throughput. A request is
/// granted whenever the balance is non-negative and then charged in
/// full (so one oversized batch may drive the balance negative); later
/// requests sleep until refill repays the debt. Sleeping — rather than
/// spinning or failing — is the point: it yields the core to queries.
#[derive(Debug)]
struct TokenBucket {
    /// Refill rate, rows per second.
    rate: f64,
    /// Balance cap: how many rows may burst after an idle stretch.
    burst: f64,
    tokens: f64,
    last: Instant,
}

impl TokenBucket {
    fn new(rows_per_sec: u64) -> Self {
        let rate = rows_per_sec as f64;
        TokenBucket {
            rate,
            burst: (rate / 100.0).max(1024.0),
            tokens: 0.0,
            last: Instant::now(),
        }
    }

    /// Refills from elapsed time; returns `None` when `rows` was
    /// granted, else how long to sleep before retrying.
    fn grant(&mut self, rows: usize) -> Option<Duration> {
        let now = Instant::now();
        let dt = now.duration_since(self.last).as_secs_f64();
        self.last = now;
        self.tokens = (self.tokens + dt * self.rate).min(self.burst);
        if self.tokens >= 0.0 {
            self.tokens -= rows as f64;
            None
        } else {
            // Sleep in bounded slices so wakeups track refill closely
            // even when the debt is large.
            Some(Duration::from_secs_f64(
                (-self.tokens / self.rate).clamp(1e-4, 0.05),
            ))
        }
    }
}

/// The background sealer, when configured.
#[derive(Debug)]
struct Sealer {
    tx: Option<Sender<SealJob>>,
    join: Option<JoinHandle<()>>,
}

/// The background compactor, when configured.
#[derive(Debug)]
struct Compactor {
    shared: Arc<CompactShared>,
    join: Option<JoinHandle<()>>,
}

/// State the directory scan of [`LiveTable::open`] recovered, seeding
/// the shared constructor.
struct Recovered {
    entries: Vec<LiveSegment>,
    bitmaps: Vec<LiveBitmap>,
    zones: Vec<LiveZones>,
    sealed_rows: usize,
    /// Deltas the recovered entries cover (the next delta id).
    deltas: u64,
    torn_segments: u64,
}

impl Recovered {
    fn empty(schema: &Schema) -> Self {
        Recovered {
            entries: Vec::new(),
            bitmaps: schema
                .attrs()
                .iter()
                .map(|a| LiveBitmap::new(a.cardinality))
                .collect(),
            zones: schema.attrs().iter().map(|_| LiveZones::new()).collect(),
            sealed_rows: 0,
            deltas: 0,
            torn_segments: 0,
        }
    }
}

/// An append-only table serving snapshot-isolated readers; see the
/// [module docs](self).
#[derive(Debug)]
pub struct LiveTable {
    inner: Arc<LiveInner>,
    sealer: Option<Sealer>,
    compactor: Option<Compactor>,
}

impl LiveTable {
    /// Creates an empty live table.
    ///
    /// # Errors
    /// Rejects empty schemas, zero block/segment sizes, zero-sized
    /// segment caches and degenerate compaction fan-ins as
    /// [`StoreError::Invalid`].
    pub fn new(schema: Schema, config: LiveTableConfig) -> Result<Self> {
        validate_config(&schema, &config)?;
        Self::build(schema, config, None)
    }

    /// Re-opens a live table from its segment directory after a crash
    /// or clean shutdown: enumerates `segment-*.fmb` files in delta
    /// order, fully verifies each (header, schema, geometry and every
    /// page checksum — rebuilding the presence bitmaps and zone maps
    /// from the decoded codes), then replays the WAL tail into the
    /// memtable and resumes serving. Recovery never panics on damaged
    /// input:
    ///
    /// * a torn or corrupt segment file ends the recovered prefix —
    ///   it and every later file are counted in
    ///   [`LiveStats::recovered_torn_segments`] and their rows are
    ///   re-served from the WAL where its lag covers them;
    /// * stale files shadowed by a crashed compaction (first delta
    ///   below the recovered watermark) are swept, as are `*.tmp`
    ///   staging leftovers;
    /// * a torn WAL tail or an unusable WAL is counted in
    ///   [`LiveStats::wal_errors`] and the valid prefix is kept.
    ///
    /// Rows replayed and the time recovery took are reported through
    /// [`LiveStats::recovered_rows`] / [`LiveStats::recovery_ns`].
    ///
    /// # Errors
    /// Configuration errors as in [`Self::new`] (a segment directory is
    /// required here), plus I/O errors listing the directory. Damaged
    /// *contents* are recovered around, never propagated.
    pub fn open(schema: Schema, config: LiveTableConfig) -> Result<Self> {
        let t0 = Instant::now();
        let rows_per_segment = validate_config(&schema, &config)?;
        let Some(dir) = config.segment_dir.clone() else {
            return Err(StoreError::Invalid(
                "open() requires a segment directory".into(),
            ));
        };
        let scan = scan_segment_dir(&schema, &config, &dir, rows_per_segment)?;
        // Read the old log back *before* build() truncates it. A WAL
        // that exists but cannot be trusted (bad header) or that ends
        // torn is counted, never fatal.
        let wal_path = dir.join(WAL_FILE);
        let mut wal_faults = 0u64;
        let old_wal = if config.wal_enabled && wal_path.exists() {
            match wal::replay(&wal_path, schema.len()) {
                Ok(r) => {
                    if r.torn_tail {
                        wal_faults += 1;
                    }
                    Some(r)
                }
                Err(_) => {
                    wal_faults += 1;
                    None
                }
            }
        } else {
            // A stale log must not outlive a table that no longer
            // writes one: rows past its base would replay as garbage
            // on a later re-enable.
            if !config.wal_enabled {
                let _ = std::fs::remove_file(&wal_path);
            }
            None
        };
        let torn_segments = scan.torn_segments;
        let sealed = scan.sealed_rows as u64;
        let table = Self::build(schema, config, Some(scan))?;
        let inner = &*table.inner;
        inner
            .recovered_torn
            .fetch_add(torn_segments, Ordering::Relaxed);
        inner.wal_errors.fetch_add(wal_faults, Ordering::Relaxed);
        if let Some(r) = old_wal {
            if r.base_rows > sealed {
                // The lag did not cover how much the directory lost
                // (more than one trailing run torn): attaching the log
                // would leave a hole in the row order. Keep the sealed
                // prefix, count the loss.
                inner.wal_errors.fetch_add(1, Ordering::Relaxed);
            } else {
                let mut cursor = r.base_rows;
                for rec in &r.records {
                    let len = rec.first().map_or(0, |c| c.len()) as u64;
                    let (skip, take) = replay_split(cursor, len, sealed);
                    cursor += len;
                    if take == 0 {
                        continue;
                    }
                    let cols: Vec<&[u32]> = rec
                        .iter()
                        .map(|c| &c[skip as usize..(skip + take) as usize])
                        .collect();
                    if table.validate_codes(&cols).is_err() {
                        // Checksummed yet out-of-dictionary: the log
                        // belongs to a different schema generation.
                        inner.wal_errors.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                    // Replayed rows go through the normal append path —
                    // re-logged to the fresh WAL, re-frozen and
                    // re-sealed when they fill deltas — minus the
                    // throttle: recovery is not ingest.
                    table.append_inner(&cols, take as usize);
                    inner.recovered_rows.fetch_add(take, Ordering::Relaxed);
                }
                debug_assert_eq!(cursor, r.base_rows + r.rows, "replay walked every record");
            }
        }
        inner
            .recovery_ns
            .store(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        Ok(table)
    }

    /// Shared constructor behind [`Self::new`] (empty state) and
    /// [`Self::open`] (recovered state). Creates the fresh WAL — which
    /// truncates any previous log, so `open` replays first — and
    /// spawns the sealer and compactor threads.
    fn build(
        schema: Schema,
        config: LiveTableConfig,
        recovered: Option<Recovered>,
    ) -> Result<Self> {
        let rows_per_segment = config
            .tuples_per_block
            .checked_mul(config.blocks_per_segment)
            .ok_or_else(|| StoreError::Invalid("segment size overflows".into()))?;
        let rec = recovered.unwrap_or_else(|| Recovered::empty(&schema));
        let writer = config.segment_dir.as_ref().map(|dir| {
            SegmentWriter::new(
                dir.clone(),
                config.tuples_per_block,
                config.segment_cache_blocks,
            )
        });
        let n_attrs = schema.len();
        let mut wal_errors = 0u64;
        let mut wal_syncs = 0u64;
        let wal = match (&config.segment_dir, config.wal_enabled) {
            (Some(dir), true) => {
                match WalWriter::create(
                    &dir.join(WAL_FILE),
                    rec.sealed_rows as u64,
                    n_attrs,
                    config.wal_sync_every,
                ) {
                    Ok(w) => {
                        wal_syncs = w.syncs();
                        Some(w)
                    }
                    Err(_) => {
                        // No log, degraded durability — same contract
                        // as a failed seal: counted, still serving.
                        wal_errors = 1;
                        None
                    }
                }
            }
            _ => None,
        };
        let compact_shared =
            (writer.is_some() && config.compact_fan_in.is_some() && config.background_sealer)
                .then(|| Arc::new(CompactShared::new()));
        let inner = Arc::new(LiveInner {
            schema,
            tuples_per_block: config.tuples_per_block,
            blocks_per_segment: config.blocks_per_segment,
            rows_per_segment,
            coalesce_segments: config.coalesce_segments,
            compact_fan_in: config.compact_fan_in,
            writer,
            budget: config
                .append_budget_rows_per_sec
                .map(|rate| Mutex::new(TokenBucket::new(rate))),
            state: Mutex::new(LiveState {
                entries: rec.entries,
                mem: MemTable::new(n_attrs, rows_per_segment),
                bitmaps: rec.bitmaps,
                zones: rec.zones,
                sealed_rows: rec.sealed_rows,
            }),
            wal: Mutex::new(wal),
            wal_sync_every: config.wal_sync_every,
            compact_gate: Mutex::new(()),
            compact: compact_shared,
            rows: AtomicU64::new(rec.sealed_rows as u64),
            frozen: AtomicU64::new(rec.deltas),
            persisted: AtomicU64::new(rec.deltas),
            seal_errors: AtomicU64::new(0),
            snapshots: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            throttled: AtomicU64::new(0),
            throttle_wait_ns: AtomicU64::new(0),
            wal_records: AtomicU64::new(0),
            wal_syncs: AtomicU64::new(wal_syncs),
            wal_rotations: AtomicU64::new(0),
            wal_errors: AtomicU64::new(wal_errors),
            recovered_rows: AtomicU64::new(0),
            recovery_ns: AtomicU64::new(0),
            recovered_torn: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            compacted_segments: AtomicU64::new(0),
            compact_errors: AtomicU64::new(0),
            pinned: Arc::new(AtomicU64::new(0)),
        });
        let sealer = (inner.writer.is_some() && config.background_sealer).then(|| {
            let (tx, rx) = channel::<SealJob>();
            let worker = Arc::clone(&inner);
            let join = std::thread::spawn(move || worker.sealer_loop(&rx));
            Sealer {
                tx: Some(tx),
                join: Some(join),
            }
        });
        let compactor = inner.compact.as_ref().map(|shared| {
            let worker = Arc::clone(&inner);
            let on_duty = Arc::clone(shared);
            let join = std::thread::spawn(move || worker.compactor_loop(&on_duty));
            Compactor {
                shared: Arc::clone(shared),
                join: Some(join),
            }
        });
        Ok(LiveTable {
            inner,
            sealer,
            compactor,
        })
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.inner.schema
    }

    /// Block granularity.
    pub fn tuples_per_block(&self) -> usize {
        self.inner.tuples_per_block
    }

    /// Rows per sealed segment.
    pub fn rows_per_segment(&self) -> usize {
        self.inner.rows_per_segment
    }

    /// Rows appended so far (a racy-but-monotone convenience; use
    /// [`Self::snapshot`] for a consistent view).
    pub fn n_rows(&self) -> u64 {
        self.inner.rows.load(Ordering::Relaxed)
    }

    /// Current counters.
    pub fn stats(&self) -> LiveStats {
        LiveStats {
            rows: self.inner.rows.load(Ordering::Relaxed),
            frozen_segments: self.inner.frozen.load(Ordering::Relaxed),
            persisted_segments: self.inner.persisted.load(Ordering::Relaxed),
            seal_errors: self.inner.seal_errors.load(Ordering::Relaxed),
            snapshots: self.inner.snapshots.load(Ordering::Relaxed),
            coalesced_deltas: self.inner.coalesced.load(Ordering::Relaxed),
            throttled_appends: self.inner.throttled.load(Ordering::Relaxed),
            throttle_wait_ns: self.inner.throttle_wait_ns.load(Ordering::Relaxed),
            pinned_snapshot_bytes: self.inner.pinned.load(Ordering::Relaxed),
            wal_records: self.inner.wal_records.load(Ordering::Relaxed),
            wal_syncs: self.inner.wal_syncs.load(Ordering::Relaxed),
            wal_rotations: self.inner.wal_rotations.load(Ordering::Relaxed),
            wal_errors: self.inner.wal_errors.load(Ordering::Relaxed),
            recovered_rows: self.inner.recovered_rows.load(Ordering::Relaxed),
            recovery_ns: self.inner.recovery_ns.load(Ordering::Relaxed),
            recovered_torn_segments: self.inner.recovered_torn.load(Ordering::Relaxed),
            compactions: self.inner.compactions.load(Ordering::Relaxed),
            compacted_segments: self.inner.compacted_segments.load(Ordering::Relaxed),
            compact_errors: self.inner.compact_errors.load(Ordering::Relaxed),
        }
    }

    /// Sealed entries currently backed by a segment file. Compaction
    /// bounds this at the configured fan-in once the backlog drains.
    pub fn num_segment_files(&self) -> usize {
        let s = lock_unpoisoned(&self.inner.state);
        s.entries
            .iter()
            .filter(|e| matches!(e.repr, SegmentEntry::File(_)))
            .count()
    }

    /// Runs compaction synchronously until no merge is due; returns
    /// the number of merges performed. A no-op unless
    /// [`LiveTableConfig::compact_fan_in`] is configured. Safe to call
    /// concurrently with appenders, queriers and the background
    /// compactor — a gate mutex serializes passes.
    pub fn compact_now(&self) -> u64 {
        self.inner.compact_passes()
    }

    /// Appends one row (one code per attribute, in schema order).
    /// Returns the row's global index. Safe to call from many threads;
    /// rows interleave in lock-acquisition order.
    ///
    /// # Errors
    /// [`StoreError::Invalid`] on wrong arity or out-of-dictionary
    /// codes; nothing is appended.
    pub fn append_row(&self, row: &[u32]) -> Result<u64> {
        if row.len() != self.inner.schema.len() {
            return Err(StoreError::Invalid(format!(
                "row has {} codes, schema has {} attributes",
                row.len(),
                self.inner.schema.len()
            )));
        }
        let cols: Vec<&[u32]> = row.iter().map(std::slice::from_ref).collect();
        self.append_checked(&cols, 1).map(|r| r.start)
    }

    /// Appends a columnar batch (one code vector per attribute, equal
    /// lengths). Returns the global row range the batch occupies. The
    /// batch is appended *atomically in order*: its rows are contiguous
    /// in the append sequence even under concurrent appenders.
    ///
    /// # Errors
    /// [`StoreError::Invalid`] on wrong arity, ragged columns or
    /// out-of-dictionary codes; nothing is appended.
    pub fn append_batch(&self, columns: &[Vec<u32>]) -> Result<std::ops::Range<u64>> {
        if columns.len() != self.inner.schema.len() {
            return Err(StoreError::Invalid(format!(
                "batch has {} columns, schema has {} attributes",
                columns.len(),
                self.inner.schema.len()
            )));
        }
        let rows = columns.first().map_or(0, |c| c.len());
        if columns.iter().any(|c| c.len() != rows) {
            return Err(StoreError::Invalid("ragged batch columns".into()));
        }
        let cols: Vec<&[u32]> = columns.iter().map(|c| c.as_slice()).collect();
        self.append_checked(&cols, rows)
    }

    /// Rejects out-of-dictionary codes (used by the public appenders
    /// and by WAL replay — checksummed records can still belong to a
    /// different schema generation).
    fn validate_codes(&self, cols: &[&[u32]]) -> Result<()> {
        for (a, col) in cols.iter().enumerate() {
            let card = self.inner.schema.attr(a).cardinality;
            if let Some(&bad) = col.iter().find(|&&v| v >= card) {
                return Err(StoreError::Invalid(format!(
                    "code {bad} out of dictionary for attribute {a} (cardinality {card})"
                )));
            }
        }
        Ok(())
    }

    /// Shared append path: validates codes, pays the ingest budget,
    /// then applies the batch.
    fn append_checked(&self, cols: &[&[u32]], rows: usize) -> Result<std::ops::Range<u64>> {
        self.validate_codes(cols)?;
        self.inner.throttle(rows);
        Ok(self.append_inner(cols, rows))
    }

    /// Locked append body, shared by the public appenders and WAL
    /// replay: logs the batch to the WAL *first* (same critical
    /// section — the log's order is the append order), then copies
    /// `rows` rows of `cols` into the delta, maintaining bitmaps and
    /// zone maps and freezing (and dispatching seals for) every delta
    /// that fills on the way. Codes must be validated already.
    fn append_inner(&self, cols: &[&[u32]], rows: usize) -> std::ops::Range<u64> {
        let inner = &*self.inner;
        let tpb = inner.tuples_per_block;
        let mut frozen: Vec<SealJob> = Vec::new();
        let first = {
            let mut s = inner.state.lock().unwrap();
            inner.wal_log(cols, rows);
            let first = s.sealed_rows + s.mem.rows();
            let mut off = 0usize;
            while off < rows {
                let take = s.mem.room().min(rows - off);
                let base = s.sealed_rows + s.mem.rows();
                s.mem.extend(cols, off, take);
                {
                    let LiveState { bitmaps, zones, .. } = &mut *s;
                    for (a, col) in cols.iter().enumerate() {
                        let bm = &mut bitmaps[a];
                        let zs = &mut zones[a];
                        for (i, &v) in col[off..off + take].iter().enumerate() {
                            let b = (base + i) / tpb;
                            bm.set(v, b);
                            zs.note(b, v);
                        }
                    }
                }
                off += take;
                if s.mem.room() == 0 {
                    let table = Arc::new(Table::new(inner.schema.clone(), s.mem.take_full()));
                    let delta = inner.frozen.fetch_add(1, Ordering::Relaxed);
                    s.entries.push(LiveSegment {
                        first_delta: delta,
                        blocks: inner.blocks_per_segment,
                        repr: SegmentEntry::Mem(Arc::clone(&table)),
                    });
                    s.sealed_rows += inner.rows_per_segment;
                    frozen.push(SealJob { delta, table });
                }
            }
            first
        };
        inner.rows.fetch_add(rows as u64, Ordering::Relaxed);
        // Persistence happens with the lock released: on the sealer
        // thread when one exists, else right here on the appender.
        if inner.writer.is_some() && !frozen.is_empty() {
            match &self.sealer {
                Some(Sealer { tx: Some(tx), .. }) => {
                    // A send can only fail after shutdown began, at
                    // which point the in-memory segment is the final
                    // (still fully readable) form.
                    for job in frozen {
                        let _ = tx.send(job);
                    }
                }
                _ => {
                    // Inline sealing coalesces too: deltas frozen by one
                    // append call are adjacent by construction.
                    let mut run = frozen.into_iter().peekable();
                    while run.peek().is_some() {
                        let chunk: Vec<SealJob> =
                            run.by_ref().take(inner.coalesce_segments).collect();
                        inner.seal_run(chunk);
                    }
                }
            }
        }
        first as u64..(first + rows) as u64
    }

    /// Takes a consistent point-in-time snapshot; see
    /// [`snapshot::Snapshot`]. Cost is one tail copy (at most one
    /// segment of rows) plus one bitmap freeze per attribute — no data
    /// scan, no quiescing of writers.
    pub fn snapshot(&self) -> Snapshot {
        let inner = &*self.inner;
        let s = inner.state.lock().unwrap();
        let n_rows = s.sealed_rows + s.mem.rows();
        let num_blocks = n_rows.div_ceil(inner.tuples_per_block);
        let bitmaps = s
            .bitmaps
            .iter()
            .map(|bm| Arc::new(bm.freeze(num_blocks)))
            .collect();
        let zones = s
            .zones
            .iter()
            .map(|z| Arc::new(z.freeze(num_blocks)))
            .collect();
        let seg_starts = build_seg_starts(s.entries.iter().map(|seg| seg.blocks));
        let mut entries = Vec::with_capacity(s.entries.len());
        let mut mem_rows = 0usize;
        for seg in &s.entries {
            if let SegmentEntry::Mem(t) = &seg.repr {
                mem_rows += t.n_rows();
            }
            entries.push(seg.repr.clone());
        }
        // Bytes this snapshot keeps alive beyond sealed files: frozen
        // in-memory segments (shared until the sealer swaps them — the
        // snapshot's Arc then pins the copy) plus its owned tail copy.
        let pinned_bytes = snapshot_pinned_bytes(mem_rows, s.mem.rows(), inner.schema.len());
        let snap = Snapshot {
            schema: inner.schema.clone(),
            tuples_per_block: inner.tuples_per_block,
            entries,
            seg_starts,
            sealed_rows: s.sealed_rows,
            tail: s.mem.columns().to_vec(),
            n_rows,
            num_blocks,
            bitmaps,
            zones,
            pin: Arc::new(snapshot::SnapshotPin::new(
                pinned_bytes,
                Arc::clone(&inner.pinned),
            )),
        };
        drop(s);
        inner.snapshots.fetch_add(1, Ordering::Relaxed);
        snap
    }
}

impl LiveInner {
    /// Sleeps in the token bucket until `rows` more appended rows fit
    /// the configured budget. No-op without a budget.
    fn throttle(&self, rows: usize) {
        let Some(bucket) = &self.budget else { return };
        if rows == 0 {
            return;
        }
        let mut waited_ns = 0u64;
        loop {
            let wait = bucket.lock().unwrap().grant(rows);
            match wait {
                None => break,
                Some(d) => {
                    let t0 = Instant::now();
                    std::thread::sleep(d);
                    waited_ns += t0.elapsed().as_nanos() as u64;
                }
            }
        }
        if waited_ns > 0 {
            self.throttled.fetch_add(1, Ordering::Relaxed);
            self.throttle_wait_ns
                .fetch_add(waited_ns, Ordering::Relaxed);
        }
    }

    /// Background sealer body: drains jobs, opportunistically batching
    /// each with the adjacent deltas already queued behind it (up to
    /// `coalesce_segments`) so a backlog collapses into few large
    /// sequential writes. Runs until the channel hangs up *and* drains —
    /// mpsc delivers everything sent before the hangup.
    fn sealer_loop(&self, rx: &Receiver<SealJob>) {
        let mut pending: Option<SealJob> = None;
        loop {
            let first = match pending.take() {
                Some(job) => job,
                None => match rx.recv() {
                    Ok(job) => job,
                    Err(_) => break,
                },
            };
            let mut run = vec![first];
            while run.len() < self.coalesce_segments {
                match rx.try_recv() {
                    // Concurrent appenders may publish out of freeze
                    // order; only an exactly-adjacent delta extends the
                    // run, anything else starts the next one.
                    Ok(job) if job.delta == run.last().unwrap().delta + 1 => run.push(job),
                    Ok(job) => {
                        pending = Some(job);
                        break;
                    }
                    Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => break,
                }
            }
            self.seal_run(run);
        }
    }

    /// Persists one run of adjacent frozen deltas as a single segment
    /// file and swaps their entries for one file-backed entry. Failures
    /// are counted, never propagated: the in-memory segments keep
    /// serving every snapshot correctly.
    fn seal_run(&self, jobs: Vec<SealJob>) {
        let writer = self.writer.as_ref().expect("seal without a segment dir");
        let first = jobs[0].delta;
        debug_assert!(jobs.windows(2).all(|w| w[1].delta == w[0].delta + 1));
        let merged;
        let table: &Table = if jobs.len() == 1 {
            &jobs[0].table
        } else {
            let total = jobs.len() * self.rows_per_segment;
            let mut cols: Vec<Vec<u32>> = (0..self.schema.len())
                .map(|_| Vec::with_capacity(total))
                .collect();
            for job in &jobs {
                for (a, col) in cols.iter_mut().enumerate() {
                    col.extend_from_slice(job.table.column(a));
                }
            }
            merged = Table::new(self.schema.clone(), cols);
            &merged
        };
        match writer.seal(first as usize, table) {
            Ok(backend) => {
                let k = jobs.len();
                let mut s = self.state.lock().unwrap();
                let pos = s.entries.partition_point(|e| e.first_delta < first);
                debug_assert!(
                    s.entries[pos].first_delta == first,
                    "sealed run must still be present as Mem entries"
                );
                let blocks: usize = s.entries[pos..pos + k].iter().map(|e| e.blocks).sum();
                let run_start: usize = s.entries[..pos].iter().map(|e| e.blocks).sum::<usize>()
                    * self.tuples_per_block;
                s.entries.splice(
                    pos..pos + k,
                    [LiveSegment {
                        first_delta: first,
                        blocks,
                        repr: SegmentEntry::File(backend),
                    }],
                );
                // The run is durable (atomic write + dir fsync): trim
                // the WAL while still holding the lock, so no append
                // can slip between the splice and the rotation.
                self.rotate_wal_after_seal(&s, pos, table, run_start);
                drop(s);
                self.persisted.fetch_add(k as u64, Ordering::Relaxed);
                if k >= 2 {
                    self.coalesced.fetch_add(k as u64, Ordering::Relaxed);
                }
                self.compact_after_seal();
            }
            Err(_) => {
                self.seal_errors
                    .fetch_add(jobs.len() as u64, Ordering::Relaxed);
            }
        }
    }

    /// Logs one append batch to the WAL, if one is running. Called
    /// under the state lock; failures are counted, never propagated.
    fn wal_log(&self, cols: &[&[u32]], rows: usize) {
        if rows == 0 {
            return;
        }
        let mut wal = lock_unpoisoned(&self.wal);
        let Some(w) = wal.as_mut() else { return };
        let syncs_before = w.syncs();
        match w.append(cols, 0, rows) {
            Ok(()) => {
                self.wal_records.fetch_add(1, Ordering::Relaxed);
                self.wal_syncs
                    .fetch_add(w.syncs() - syncs_before, Ordering::Relaxed);
            }
            Err(_) => {
                self.wal_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Truncates the WAL after a seal landed durably. `pos` indexes the
    /// just-spliced file entry (whose rows start at global row
    /// `run_start` and whose data is still at hand as `run_table`).
    /// The new base follows [`rotation_base`]'s one-run lag: the
    /// newest sealed run's rows stay in the log until the *next* seal,
    /// so a torn last segment file remains recoverable. Rotation is
    /// skipped — log intact, just longer — whenever the retained rows
    /// cannot all be reconstructed from memory: a seal-error hole
    /// below `run_start`, or file-backed entries after it.
    fn rotate_wal_after_seal(
        &self,
        s: &LiveState,
        pos: usize,
        run_table: &Table,
        run_start: usize,
    ) {
        let mut wal = lock_unpoisoned(&self.wal);
        let Some(w) = wal.as_mut() else { return };
        let durable = durable_prefix_rows(s.entries.iter().map(|e| {
            (
                e.blocks * self.tuples_per_block,
                matches!(e.repr, SegmentEntry::File(_)),
            )
        })) as u64;
        let new_base = rotation_base(w.base_rows(), durable, run_table.n_rows() as u64);
        if new_base <= w.base_rows() || new_base < run_start as u64 {
            return;
        }
        let n_attrs = self.schema.len();
        let mut records: Vec<Vec<&[u32]>> = Vec::new();
        let off = (new_base as usize) - run_start;
        if off < run_table.n_rows() {
            records.push((0..n_attrs).map(|a| &run_table.column(a)[off..]).collect());
        }
        for e in &s.entries[pos + 1..] {
            match &e.repr {
                SegmentEntry::Mem(t) => {
                    records.push((0..n_attrs).map(|a| t.column(a)).collect());
                }
                // A file past the durable prefix means an earlier seal
                // failed and left a hole; its in-memory rows are gone,
                // so the old log must stay whole.
                SegmentEntry::File(_) => return,
            }
        }
        records.push(s.mem.columns().iter().map(|c| c.as_slice()).collect());
        let path = w.path().to_path_buf();
        match WalWriter::rotate_to(&path, new_base, n_attrs, self.wal_sync_every, &records) {
            Ok(next) => {
                debug_assert_eq!(
                    next.base_rows() + next.rows(),
                    (s.sealed_rows + s.mem.rows()) as u64,
                    "rotated log must cover exactly the rows past its base"
                );
                self.wal_syncs.fetch_add(next.syncs(), Ordering::Relaxed);
                self.wal_rotations.fetch_add(1, Ordering::Relaxed);
                *w = next;
            }
            Err(_) => {
                // The old log is still complete at its path; durability
                // is unchanged, only truncation was missed.
                self.wal_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Post-seal compaction hook: wake the compactor thread when one
    /// runs, else (inline sealer) compact right here.
    fn compact_after_seal(&self) {
        if self.compact_fan_in.is_none() {
            return;
        }
        match &self.compact {
            Some(shared) => shared.poke(),
            None => {
                self.compact_passes();
            }
        }
    }

    /// Body of the background compactor thread.
    fn compactor_loop(&self, shared: &CompactShared) {
        while shared.wait() {
            self.compact_passes();
        }
    }

    /// Runs compaction merges under the gate until none is due (or one
    /// fails); returns how many happened.
    fn compact_passes(&self) -> u64 {
        let _gate = lock_unpoisoned(&self.compact_gate);
        let mut merges = 0u64;
        while self.compact_once() {
            merges += 1;
        }
        merges
    }

    /// One compaction merge, if due: picks the cheapest adjacent run
    /// of segment files ([`pick_compaction`]), rewrites it as one file
    /// over the first member's name, swaps the run's entries for the
    /// merged one under the state lock, and unlinks the shadowed
    /// member files only after a directory fsync — see [`compact`] for
    /// the crash argument. Failures are counted, never propagated.
    fn compact_once(&self) -> bool {
        let (Some(fan_in), Some(writer)) = (self.compact_fan_in, self.writer.as_ref()) else {
            return false;
        };
        let members: Vec<LiveSegment> = {
            let s = lock_unpoisoned(&self.state);
            let files: Vec<Option<usize>> = s
                .entries
                .iter()
                .map(|e| match &e.repr {
                    SegmentEntry::File(_) => Some(e.blocks),
                    SegmentEntry::Mem(_) => None,
                })
                .collect();
            let Some(range) = pick_compaction(&files, fan_in) else {
                return false;
            };
            s.entries[range].to_vec()
        };
        match self.merge_members(writer, &members) {
            Ok(()) => {
                self.compactions.fetch_add(1, Ordering::Relaxed);
                self.compacted_segments
                    .fetch_add(members.len() as u64, Ordering::Relaxed);
                true
            }
            Err(_) => {
                self.compact_errors.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// The merge itself: read every member block (lock released — the
    /// members are immutable), write the merged file atomically over
    /// the first member's name, then swap under the state lock after
    /// verifying the window is untouched. Snapshot `Arc`s keep the old
    /// backends (and their unlinked inodes) readable until they drop.
    fn merge_members(&self, writer: &SegmentWriter, members: &[LiveSegment]) -> Result<()> {
        let first = members[0].first_delta;
        let total_blocks: usize = members.iter().map(|m| m.blocks).sum();
        let mut cols: Vec<Vec<u32>> = (0..self.schema.len())
            .map(|_| Vec::with_capacity(total_blocks * self.tuples_per_block))
            .collect();
        let mut buf = Vec::new();
        for m in members {
            let SegmentEntry::File(be) = &m.repr else {
                return Err(StoreError::Invalid(
                    "compaction member is not file-backed".into(),
                ));
            };
            for (a, col) in cols.iter_mut().enumerate() {
                for b in 0..m.blocks {
                    be.read_block_into(b, a, &mut buf)?;
                    col.extend_from_slice(&buf);
                }
            }
        }
        let merged = Table::new(self.schema.clone(), cols);
        let backend = writer.seal(first as usize, &merged)?;
        let old_paths: Vec<PathBuf> = members[1..]
            .iter()
            .map(|m| writer.path_of(m.first_delta as usize))
            .collect();
        {
            let mut s = lock_unpoisoned(&self.state);
            let pos = s.entries.partition_point(|e| e.first_delta < first);
            let intact = s.entries.get(pos..pos + members.len()).is_some_and(|w| {
                w.iter().zip(members).all(|(e, m)| {
                    e.first_delta == m.first_delta
                        && e.blocks == m.blocks
                        && matches!(e.repr, SegmentEntry::File(_))
                })
            });
            if !intact {
                // Only another compactor could have touched these, and
                // the gate forbids that — treat it as a failed merge
                // rather than corrupting the entry order.
                return Err(StoreError::Invalid(
                    "compaction window changed underfoot".into(),
                ));
            }
            s.entries.splice(
                pos..pos + members.len(),
                [LiveSegment {
                    first_delta: first,
                    blocks: total_blocks,
                    repr: SegmentEntry::File(backend),
                }],
            );
        }
        // The swap is visible and the merged file durable (seal ends
        // with a dir fsync); only now may the shadowed members go.
        for p in &old_paths {
            let _ = std::fs::remove_file(p);
        }
        let _ = fsync_dir(writer.dir());
        Ok(())
    }
}

impl Drop for LiveTable {
    fn drop(&mut self) {
        if let Some(sealer) = &mut self.sealer {
            // Hang up the channel, then wait for in-flight seals so no
            // half-written segment file outlives the table.
            sealer.tx.take();
            if let Some(join) = sealer.join.take() {
                let _ = join.join();
            }
        }
        // After the sealer: seals poke the compactor, so this order
        // lets the last seal's merge run before shutdown is observed.
        if let Some(compactor) = &mut self.compactor {
            compactor.shared.shutdown();
            if let Some(join) = compactor.join.take() {
                let _ = join.join();
            }
        }
    }
}

/// Shared construction-time validation; returns the segment size in
/// rows.
fn validate_config(schema: &Schema, config: &LiveTableConfig) -> Result<usize> {
    if schema.is_empty() {
        return Err(StoreError::Invalid("schema must have attributes".into()));
    }
    if config.tuples_per_block == 0 || config.blocks_per_segment == 0 {
        return Err(StoreError::Invalid(
            "block and segment sizes must be positive".into(),
        ));
    }
    if config.segment_cache_blocks == 0 {
        return Err(StoreError::Invalid("segment cache must be positive".into()));
    }
    if config.coalesce_segments == 0 {
        return Err(StoreError::Invalid(
            "coalesce_segments must be at least 1".into(),
        ));
    }
    if config.append_budget_rows_per_sec == Some(0) {
        return Err(StoreError::Invalid("append budget must be positive".into()));
    }
    if let Some(fan_in) = config.compact_fan_in {
        if fan_in < 2 {
            return Err(StoreError::Invalid(
                "compaction fan-in must be at least 2".into(),
            ));
        }
        if config.segment_dir.is_none() {
            return Err(StoreError::Invalid(
                "compaction requires a segment directory".into(),
            ));
        }
    }
    config
        .tuples_per_block
        .checked_mul(config.blocks_per_segment)
        .ok_or_else(|| StoreError::Invalid("segment size overflows".into()))
}

/// Parses a segment file name (`segment-NNNNNN.fmb`) to its first
/// delta id.
fn segment_index(name: &str) -> Option<usize> {
    let digits = name.strip_prefix("segment-")?.strip_suffix(".fmb")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Directory-scan half of [`LiveTable::open`]: walks segment files in
/// delta order, loading each fully-verified one into the recovered
/// state and stopping at the first torn/corrupt/unreachable file. See
/// `open`'s docs for the exact sweep rules.
fn scan_segment_dir(
    schema: &Schema,
    config: &LiveTableConfig,
    dir: &Path,
    rows_per_segment: usize,
) -> Result<Recovered> {
    let mut found: Vec<(usize, PathBuf)> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.ends_with(".tmp") {
            // Staging leftovers of a crashed atomic write: never
            // observable data, always safe to sweep.
            let _ = std::fs::remove_file(entry.path());
            continue;
        }
        if let Some(index) = segment_index(name) {
            found.push((index, entry.path()));
        }
    }
    found.sort();
    let mut rec = Recovered::empty(schema);
    let mut torn = 0u64;
    let mut expected = 0usize;
    let mut it = found.into_iter();
    while let Some((index, path)) = it.next() {
        if index < expected {
            // Shadowed by a merged file that already covers these
            // deltas — a compaction crashed between its rename and its
            // unlinks. Finish the unlink for it.
            let _ = std::fs::remove_file(&path);
            continue;
        }
        if index > expected {
            // A gap: this file and everything after it cannot be
            // placed contiguously in the row order; those rows are
            // only recoverable from the WAL.
            torn += 1 + it.count() as u64;
            break;
        }
        match load_segment(schema, config, index, &path, rows_per_segment, &mut rec) {
            Ok(deltas) => expected += deltas,
            Err(_) => {
                // Torn or corrupt: the recovered prefix ends here.
                torn += 1 + it.count() as u64;
                break;
            }
        }
    }
    rec.deltas = expected as u64;
    rec.torn_segments = torn;
    Ok(rec)
}

/// Opens and *fully verifies* one segment file — header, schema,
/// block geometry, whole-delta row count, and every page checksum (by
/// decoding every block) — then folds its codes into the recovered
/// bitmaps and zone maps and appends its entry. Returns how many
/// deltas the file covers. Any error means "treat as torn"; `rec` is
/// only touched once the whole file has verified.
fn load_segment(
    schema: &Schema,
    config: &LiveTableConfig,
    index: usize,
    path: &Path,
    rows_per_segment: usize,
    rec: &mut Recovered,
) -> Result<usize> {
    let be = FileBackend::open(path)?.with_cache_blocks(config.segment_cache_blocks);
    if be.schema() != schema {
        return Err(StoreError::Format(format!(
            "segment {index} schema does not match the table"
        )));
    }
    let tpb = config.tuples_per_block;
    if be.layout().tuples_per_block() != tpb {
        return Err(StoreError::Format(format!(
            "segment {index} block size does not match the table"
        )));
    }
    let n_rows = be.n_rows();
    if n_rows == 0 || n_rows % rows_per_segment != 0 {
        return Err(StoreError::Format(format!(
            "segment {index} holds {n_rows} rows, not a whole number of deltas"
        )));
    }
    let blocks = n_rows / tpb;
    let mut cols: Vec<Vec<u32>> = Vec::with_capacity(schema.len());
    let mut buf = Vec::new();
    for a in 0..schema.len() {
        let card = schema.attr(a).cardinality;
        let mut col = Vec::with_capacity(n_rows);
        for b in 0..blocks {
            be.read_block_into(b, a, &mut buf)?;
            if let Some(&bad) = buf.iter().find(|&&v| v >= card) {
                return Err(StoreError::Format(format!(
                    "segment {index} code {bad} out of dictionary for attribute {a}"
                )));
            }
            col.extend_from_slice(&buf);
        }
        cols.push(col);
    }
    // Everything verified; fold into the live indexes.
    let base_block = rec.sealed_rows / tpb;
    for (a, col) in cols.iter().enumerate() {
        let bm = &mut rec.bitmaps[a];
        let zs = &mut rec.zones[a];
        for (i, &v) in col.iter().enumerate() {
            let b = base_block + i / tpb;
            bm.set(v, b);
            zs.note(b, v);
        }
    }
    rec.entries.push(LiveSegment {
        first_delta: index as u64,
        blocks,
        repr: SegmentEntry::File(Arc::new(be)),
    });
    rec.sealed_rows += n_rows;
    Ok(blocks / config.blocks_per_segment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::StorageBackend;
    use crate::schema::AttrDef;
    use crate::tempfile::TempBlockDir;

    fn schema() -> Schema {
        Schema::new(vec![AttrDef::new("z", 6), AttrDef::new("x", 4)])
    }

    fn cfg_mem(tpb: usize, bps: usize) -> LiveTableConfig {
        LiveTableConfig::default()
            .with_tuples_per_block(tpb)
            .with_blocks_per_segment(bps)
    }

    /// Rows whose two codes are derived from one counter, so torn rows
    /// are detectable.
    fn row_of(k: u64) -> [u32; 2] {
        [(k % 6) as u32, ((k * 7) % 4) as u32]
    }

    #[test]
    fn seg_starts_and_pin_arithmetic() {
        assert_eq!(build_seg_starts([]), vec![0]);
        assert_eq!(build_seg_starts([2, 2, 5]), vec![0, 2, 4, 9]);
        for (starts, b, want) in [
            (vec![0usize, 2, 4, 9], 0usize, 0usize),
            (vec![0, 2, 4, 9], 1, 0),
            (vec![0, 2, 4, 9], 2, 1),
            (vec![0, 2, 4, 9], 8, 2),
        ] {
            assert_eq!(snapshot::locate_segment(&starts, b), want);
        }
        // 10 rows × 2 attrs × 4 bytes, split any way between frozen
        // memory and tail.
        assert_eq!(snapshot_pinned_bytes(8, 2, 2), 80);
        assert_eq!(snapshot_pinned_bytes(0, 10, 2), 80);
    }

    #[test]
    fn appends_roll_into_segments_and_tail() {
        let lt = LiveTable::new(schema(), cfg_mem(4, 2)).unwrap(); // 8 rows/segment
        for k in 0..19u64 {
            let id = lt.append_row(&row_of(k)).unwrap();
            assert_eq!(id, k);
        }
        let st = lt.stats();
        assert_eq!(st.rows, 19);
        assert_eq!(st.frozen_segments, 2);
        assert_eq!(st.persisted_segments, 0, "no dir, nothing persists");
        let snap = lt.snapshot();
        assert_eq!(snap.n_rows(), 19);
        assert_eq!(snap.sealed_rows(), 16);
        assert_eq!(snap.tail_rows(), 3);
        assert_eq!(snap.layout().num_blocks(), 5);
        let t = snap.to_table().unwrap();
        for k in 0..19u64 {
            let want = row_of(k);
            assert_eq!(t.code(0, k as usize), want[0]);
            assert_eq!(t.code(1, k as usize), want[1]);
        }
    }

    #[test]
    fn batch_appends_are_contiguous_and_split_across_segments() {
        let lt = LiveTable::new(schema(), cfg_mem(3, 2)).unwrap(); // 6 rows/segment
        let ks: Vec<u64> = (0..14).collect();
        let cols = vec![
            ks.iter().map(|&k| row_of(k)[0]).collect::<Vec<_>>(),
            ks.iter().map(|&k| row_of(k)[1]).collect::<Vec<_>>(),
        ];
        let range = lt.append_batch(&cols).unwrap();
        assert_eq!(range, 0..14);
        assert_eq!(lt.stats().frozen_segments, 2);
        let snap = lt.snapshot();
        let t = snap.to_table().unwrap();
        assert_eq!(t.column(0), &cols[0][..]);
        assert_eq!(t.column(1), &cols[1][..]);
    }

    #[test]
    fn invalid_appends_are_rejected_without_side_effects() {
        let lt = LiveTable::new(schema(), cfg_mem(4, 2)).unwrap();
        assert!(matches!(lt.append_row(&[0]), Err(StoreError::Invalid(_))));
        assert!(matches!(
            lt.append_row(&[6, 0]), // z cardinality is 6
            Err(StoreError::Invalid(_))
        ));
        assert!(matches!(
            lt.append_batch(&[vec![0, 1], vec![0]]),
            Err(StoreError::Invalid(_))
        ));
        assert_eq!(lt.n_rows(), 0);
        assert_eq!(lt.snapshot().n_rows(), 0);
    }

    #[test]
    fn construction_rejects_degenerate_configs() {
        assert!(LiveTable::new(Schema::default(), cfg_mem(4, 2)).is_err());
        assert!(LiveTable::new(schema(), cfg_mem(0, 2)).is_err());
        assert!(LiveTable::new(schema(), cfg_mem(4, 0)).is_err());
    }

    #[test]
    fn snapshots_are_isolated_from_later_appends() {
        let lt = LiveTable::new(schema(), cfg_mem(4, 2)).unwrap();
        for k in 0..10u64 {
            lt.append_row(&row_of(k)).unwrap();
        }
        let snap = lt.snapshot();
        let before = snap.to_table().unwrap();
        for k in 10..40u64 {
            lt.append_row(&row_of(k)).unwrap();
        }
        assert_eq!(snap.n_rows(), 10, "snapshot must not grow");
        assert_eq!(snap.to_table().unwrap(), before);
        assert_eq!(lt.snapshot().n_rows(), 40);
    }

    #[test]
    fn inline_sealing_persists_segments_and_preserves_reads() {
        let dir = TempBlockDir::new("live_inline");
        let cfg = cfg_mem(4, 2)
            .with_segment_dir(dir.path())
            .with_background_sealer(false);
        let lt = LiveTable::new(schema(), cfg).unwrap();
        for k in 0..20u64 {
            lt.append_row(&row_of(k)).unwrap();
        }
        let st = lt.stats();
        assert_eq!(st.frozen_segments, 2);
        assert_eq!(st.persisted_segments, 2, "inline sealing is synchronous");
        assert_eq!(st.seal_errors, 0);
        assert!(dir.path().join("segment-000000.fmb").exists());
        assert!(dir.path().join("segment-000001.fmb").exists());
        let snap = lt.snapshot();
        assert_eq!(snap.num_segments(), 2);
        let t = snap.to_table().unwrap();
        for k in 0..20u64 {
            assert_eq!(t.code(0, k as usize), row_of(k)[0]);
        }
    }

    #[test]
    fn background_sealer_converts_segments_eventually() {
        let dir = TempBlockDir::new("live_bg");
        let cfg = cfg_mem(4, 2).with_segment_dir(dir.path());
        let lt = LiveTable::new(schema(), cfg).unwrap();
        for k in 0..17u64 {
            lt.append_row(&row_of(k)).unwrap();
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while lt.stats().persisted_segments < 2 {
            assert!(
                std::time::Instant::now() < deadline,
                "sealer stalled: {:?}",
                lt.stats()
            );
            std::thread::yield_now();
        }
        // Reads after the Mem → File swap still see identical data.
        let t = lt.snapshot().to_table().unwrap();
        for k in 0..17u64 {
            assert_eq!(t.code(1, k as usize), row_of(k)[1]);
        }
    }

    #[test]
    fn drop_joins_the_sealer_after_finishing_queued_seals() {
        let dir = TempBlockDir::new("live_dropseal");
        // coalesce=1 keeps one file per delta, so the filenames the
        // joined sealer must have produced are deterministic.
        let cfg = cfg_mem(4, 2)
            .with_segment_dir(dir.path())
            .with_coalesce_segments(1);
        let lt = LiveTable::new(schema(), cfg).unwrap();
        for k in 0..16u64 {
            lt.append_row(&row_of(k)).unwrap();
        }
        drop(lt); // must join, not leak, the sealer thread
        assert!(dir.path().join("segment-000000.fmb").exists());
        assert!(dir.path().join("segment-000001.fmb").exists());
    }

    #[test]
    fn seal_failures_keep_serving_from_memory() {
        let dir = TempBlockDir::new("live_sealfail");
        let missing = dir.path().join("no-such-subdir");
        let cfg = cfg_mem(4, 1)
            .with_segment_dir(&missing)
            .with_background_sealer(false);
        let lt = LiveTable::new(schema(), cfg).unwrap();
        for k in 0..9u64 {
            lt.append_row(&row_of(k)).unwrap();
        }
        let st = lt.stats();
        assert_eq!(st.frozen_segments, 2);
        assert_eq!(st.persisted_segments, 0);
        assert_eq!(st.seal_errors, 2);
        let t = lt.snapshot().to_table().unwrap();
        assert_eq!(t.n_rows(), 9);
        for k in 0..9u64 {
            assert_eq!(t.code(0, k as usize), row_of(k)[0]);
        }
    }

    #[test]
    fn inline_sealer_coalesces_adjacent_deltas_from_one_batch() {
        let dir = TempBlockDir::new("live_coalesce");
        // 4 rows per delta; a 40-row batch freezes 10 deltas in one
        // call, which the inline sealer groups into runs of ≤ 4.
        let cfg = cfg_mem(4, 1)
            .with_segment_dir(dir.path())
            .with_background_sealer(false)
            .with_coalesce_segments(4);
        let lt = LiveTable::new(schema(), cfg).unwrap();
        let ks: Vec<u64> = (0..40).collect();
        let cols = vec![
            ks.iter().map(|&k| row_of(k)[0]).collect::<Vec<_>>(),
            ks.iter().map(|&k| row_of(k)[1]).collect::<Vec<_>>(),
        ];
        lt.append_batch(&cols).unwrap();
        let st = lt.stats();
        assert_eq!(st.frozen_segments, 10);
        assert_eq!(st.persisted_segments, 10);
        assert_eq!(st.coalesced_deltas, 10, "runs of 4+4+2 all coalesce");
        assert_eq!(st.seal_errors, 0);
        // Files are named by their run's first delta id.
        for present in [0, 4, 8] {
            assert!(dir
                .path()
                .join(format!("segment-{present:06}.fmb"))
                .exists());
        }
        for absent in [1, 2, 3, 5, 6, 7, 9] {
            assert!(!dir.path().join(format!("segment-{absent:06}.fmb")).exists());
        }
        // Reads over the variable-size segments are unchanged, both
        // materialized and blockwise.
        let snap = lt.snapshot();
        assert_eq!(snap.num_segments(), 3);
        let t = snap.to_table().unwrap();
        assert_eq!(t.column(0), &cols[0][..]);
        assert_eq!(t.column(1), &cols[1][..]);
        let layout = snap.layout();
        let mut buf = Vec::new();
        for attr in 0..2 {
            for b in 0..layout.num_blocks() {
                snap.read_block_into(b, attr, &mut buf).unwrap();
                assert_eq!(buf.as_slice(), &t.column(attr)[layout.rows_of_block(b)]);
            }
        }
    }

    #[test]
    fn background_sealer_coalesces_under_backlog_without_data_loss() {
        let dir = TempBlockDir::new("live_bg_coalesce");
        let cfg = cfg_mem(4, 1)
            .with_segment_dir(dir.path())
            .with_coalesce_segments(4);
        let lt = LiveTable::new(schema(), cfg).unwrap();
        let ks: Vec<u64> = (0..48).collect();
        let cols = vec![
            ks.iter().map(|&k| row_of(k)[0]).collect::<Vec<_>>(),
            ks.iter().map(|&k| row_of(k)[1]).collect::<Vec<_>>(),
        ];
        lt.append_batch(&cols).unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while lt.stats().persisted_segments < 12 {
            assert!(
                std::time::Instant::now() < deadline,
                "sealer stalled: {:?}",
                lt.stats()
            );
            std::thread::yield_now();
        }
        // Whether any runs coalesced depends on queue timing; the data
        // and the delta accounting must be exact either way.
        let st = lt.stats();
        assert_eq!(st.frozen_segments, 12);
        assert_eq!(st.persisted_segments, 12);
        assert_eq!(st.seal_errors, 0);
        let t = lt.snapshot().to_table().unwrap();
        assert_eq!(t.column(0), &cols[0][..]);
        assert_eq!(t.column(1), &cols[1][..]);
    }

    #[test]
    fn append_budget_throttles_and_counts_waits() {
        // 20k rows/s with a 1,024-row burst: appending 8,192 rows must
        // sleep for roughly (8192 - burst - final deficit grant)/rate ≳
        // 0.25 s. Assert half that to stay robust on loaded CI.
        let cfg = cfg_mem(64, 4).with_append_budget(20_000);
        let lt = LiveTable::new(schema(), cfg).unwrap();
        let t0 = std::time::Instant::now();
        for chunk in 0..4u64 {
            let ks: Vec<u64> = (chunk * 2048..(chunk + 1) * 2048).collect();
            let cols = vec![
                ks.iter().map(|&k| row_of(k)[0]).collect::<Vec<_>>(),
                ks.iter().map(|&k| row_of(k)[1]).collect::<Vec<_>>(),
            ];
            lt.append_batch(&cols).unwrap();
        }
        let elapsed = t0.elapsed();
        let st = lt.stats();
        assert_eq!(st.rows, 8192);
        assert!(st.throttled_appends >= 1, "no append ever waited: {st:?}");
        assert!(st.throttle_wait_ns > 0);
        assert!(
            elapsed >= std::time::Duration::from_millis(125),
            "8192 rows at 20k rows/s finished in {elapsed:?}"
        );
    }

    #[test]
    fn zero_budget_and_zero_coalesce_are_rejected() {
        assert!(LiveTable::new(schema(), cfg_mem(4, 2).with_append_budget(0)).is_err());
        assert!(LiveTable::new(schema(), cfg_mem(4, 2).with_coalesce_segments(0)).is_err());
    }

    #[test]
    fn snapshots_pin_memory_bytes_until_dropped() {
        let lt = LiveTable::new(schema(), cfg_mem(4, 2)).unwrap(); // 8 rows/segment
        for k in 0..10u64 {
            lt.append_row(&row_of(k)).unwrap();
        }
        assert_eq!(lt.stats().pinned_snapshot_bytes, 0);
        // 8 rows frozen in memory + 2 tail rows, 2 attrs × 4 bytes.
        let snap = lt.snapshot();
        let want = 10 * 2 * 4;
        assert_eq!(snap.pinned_bytes(), want);
        assert_eq!(lt.stats().pinned_snapshot_bytes, want);
        // Clones share the pin: no double charge, released once.
        let clone = snap.clone();
        assert_eq!(lt.stats().pinned_snapshot_bytes, want);
        drop(snap);
        assert_eq!(lt.stats().pinned_snapshot_bytes, want);
        // A second snapshot adds its own charge.
        let snap2 = lt.snapshot();
        assert_eq!(
            lt.stats().pinned_snapshot_bytes,
            want + snap2.pinned_bytes()
        );
        drop(snap2);
        drop(clone);
        assert_eq!(lt.stats().pinned_snapshot_bytes, 0);
    }

    #[test]
    fn snapshot_bitmaps_match_a_scan_built_index() {
        let lt = LiveTable::new(schema(), cfg_mem(3, 2)).unwrap();
        for k in 0..25u64 {
            lt.append_row(&row_of(k)).unwrap();
        }
        let snap = lt.snapshot();
        let t = snap.to_table().unwrap();
        let layout = snap.layout();
        for attr in 0..2 {
            let want = crate::bitmap::BitmapIndex::build(&t, attr, &layout);
            let got = snap.bitmap(attr);
            assert_eq!(got.num_blocks(), want.num_blocks());
            assert_eq!(got.num_values(), want.num_values());
            for v in 0..got.num_values() as u32 {
                for b in 0..layout.num_blocks() {
                    assert_eq!(
                        got.block_has(v, b),
                        want.block_has(v, b),
                        "attr {attr} v {v} b {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_snapshot_has_no_blocks() {
        let lt = LiveTable::new(schema(), cfg_mem(4, 2)).unwrap();
        let snap = lt.snapshot();
        assert_eq!(snap.n_rows(), 0);
        assert_eq!(snap.layout().num_blocks(), 0);
        assert_eq!(snap.to_table().unwrap().n_rows(), 0);
    }

    #[test]
    fn snapshot_reads_match_blockwise() {
        let dir = TempBlockDir::new("live_blockwise");
        let cfg = cfg_mem(4, 2)
            .with_segment_dir(dir.path())
            .with_background_sealer(false);
        let lt = LiveTable::new(schema(), cfg).unwrap();
        for k in 0..21u64 {
            lt.append_row(&row_of(k)).unwrap();
        }
        let snap = lt.snapshot();
        let t = snap.to_table().unwrap();
        let layout = snap.layout();
        let mut buf = Vec::new();
        for attr in 0..2 {
            for b in 0..layout.num_blocks() {
                snap.read_block_into(b, attr, &mut buf).unwrap();
                assert_eq!(buf.as_slice(), &t.column(attr)[layout.rows_of_block(b)]);
            }
        }
    }

    #[test]
    fn wal_logs_appends_and_rotates_on_seal() {
        let dir = TempBlockDir::new("live_wal");
        let cfg = cfg_mem(4, 2) // 8 rows/segment
            .with_segment_dir(dir.path())
            .with_background_sealer(false)
            .with_wal_sync_every(1);
        let lt = LiveTable::new(schema(), cfg).unwrap();
        assert!(dir.path().join(WAL_FILE).exists());
        for k in 0..5u64 {
            lt.append_row(&row_of(k)).unwrap();
        }
        let st = lt.stats();
        assert_eq!(st.wal_records, 5);
        assert_eq!(st.wal_errors, 0);
        assert_eq!(st.wal_rotations, 0, "nothing sealed yet");
        let r = wal::replay(&dir.path().join(WAL_FILE), 2).unwrap();
        assert_eq!(r.base_rows, 0);
        assert_eq!(r.rows, 5);
        // Fill past two seals: the second rotation lags one run, so the
        // log's base is the start of the newest sealed run.
        for k in 5..17u64 {
            lt.append_row(&row_of(k)).unwrap();
        }
        let st = lt.stats();
        assert_eq!(st.persisted_segments, 2);
        assert!(st.wal_rotations >= 1);
        assert_eq!(st.wal_errors, 0);
        let r = wal::replay(&dir.path().join(WAL_FILE), 2).unwrap();
        assert_eq!(r.base_rows, 8, "lag-one: newest sealed run stays logged");
        assert_eq!(r.base_rows + r.rows, 17, "log covers every row past base");
    }

    #[test]
    fn wal_can_be_disabled() {
        let dir = TempBlockDir::new("live_nowal");
        let cfg = cfg_mem(4, 2)
            .with_segment_dir(dir.path())
            .with_background_sealer(false)
            .with_wal(false);
        let lt = LiveTable::new(schema(), cfg).unwrap();
        lt.append_row(&row_of(0)).unwrap();
        assert!(!dir.path().join(WAL_FILE).exists());
        assert_eq!(lt.stats().wal_records, 0);
    }

    #[test]
    fn open_restores_rows_segments_and_indexes() {
        let dir = TempBlockDir::new("live_reopen");
        let cfg = cfg_mem(4, 2)
            .with_segment_dir(dir.path())
            .with_background_sealer(false)
            .with_wal_sync_every(1);
        {
            let lt = LiveTable::new(schema(), cfg.clone()).unwrap();
            for k in 0..21u64 {
                lt.append_row(&row_of(k)).unwrap();
            }
        }
        let lt = LiveTable::open(schema(), cfg).unwrap();
        let st = lt.stats();
        assert_eq!(st.rows, 21);
        assert_eq!(st.recovered_rows, 5, "rows 16..21 came from the WAL");
        assert_eq!(st.recovered_torn_segments, 0);
        assert_eq!(st.wal_errors, 0);
        assert!(st.recovery_ns > 0);
        let snap = lt.snapshot();
        let t = snap.to_table().unwrap();
        for k in 0..21u64 {
            assert_eq!(t.code(0, k as usize), row_of(k)[0]);
            assert_eq!(t.code(1, k as usize), row_of(k)[1]);
        }
        // Rebuilt indexes equal scan-built ones, block counts included.
        let layout = snap.layout();
        for attr in 0..2 {
            let want_bm = crate::bitmap::BitmapIndex::build(&t, attr, &layout);
            let got_bm = snap.bitmap(attr);
            for v in 0..got_bm.num_values() as u32 {
                let mut popcount = 0;
                for b in 0..layout.num_blocks() {
                    assert_eq!(got_bm.block_has(v, b), want_bm.block_has(v, b));
                    popcount += usize::from(got_bm.block_has(v, b));
                }
                assert_eq!(got_bm.blocks_with_value(v), popcount, "attr {attr} v {v}");
                assert_eq!(got_bm.blocks_with_value(v), want_bm.blocks_with_value(v));
            }
            assert_eq!(snap.zone_map(attr), &ZoneMap::build(&t, attr, &layout));
        }
        // The table keeps working after recovery: delta ids continue.
        for k in 21..40u64 {
            lt.append_row(&row_of(k)).unwrap();
        }
        assert_eq!(lt.snapshot().n_rows(), 40);
        assert_eq!(lt.stats().seal_errors, 0);
    }

    /// Per-value row counts equal an exact count of the data on every
    /// path a `BitmapIndex` is made by: a scan-built index, a snapshot
    /// after appends that cross seals (counted by `LiveBitmap::set` at
    /// append time), and a cold reopen (counted again while recovery
    /// folds each verified segment and the WAL tail into fresh bitmaps).
    #[test]
    fn bitmap_row_counts_equal_value_counts_through_seal_and_reopen() {
        let skewed = |k: u64| [((k * k + k / 5) % 6) as u32, ((k * 3) % 4) as u32];
        let check = |snap: &Snapshot, rows: u64, path: &str| {
            let t = snap.to_table().unwrap();
            assert_eq!(t.n_rows() as u64, rows, "{path}");
            for attr in 0..2 {
                let want = t.value_counts(attr);
                let scanned = crate::bitmap::BitmapIndex::build(&t, attr, &snap.layout());
                let got = snap.bitmap(attr);
                for v in 0..got.num_values() as u32 {
                    assert_eq!(scanned.rows_with_value(v), want[v as usize], "build");
                    assert_eq!(
                        got.rows_with_value(v),
                        want[v as usize],
                        "{path}: attr {attr} v {v}"
                    );
                }
            }
        };
        let dir = TempBlockDir::new("live_row_counts");
        let cfg = cfg_mem(4, 2)
            .with_segment_dir(dir.path())
            .with_background_sealer(false)
            .with_wal_sync_every(1);
        {
            let lt = LiveTable::new(schema(), cfg.clone()).unwrap();
            for k in 0..27u64 {
                lt.append_row(&skewed(k)).unwrap();
            }
            assert!(lt.stats().persisted_segments >= 3, "appends crossed seals");
            check(&lt.snapshot(), 27, "live snapshot");
        }
        let lt = LiveTable::open(schema(), cfg).unwrap();
        assert!(lt.stats().recovered_rows > 0, "some rows came from the WAL");
        check(&lt.snapshot(), 27, "cold reopen");
    }

    #[test]
    fn open_of_an_empty_dir_is_a_fresh_table() {
        let dir = TempBlockDir::new("live_open_empty");
        let cfg = cfg_mem(4, 2).with_segment_dir(dir.path());
        let lt = LiveTable::open(schema(), cfg).unwrap();
        assert_eq!(lt.n_rows(), 0);
        assert_eq!(lt.stats().recovered_rows, 0);
        lt.append_row(&row_of(0)).unwrap();
        assert_eq!(lt.snapshot().n_rows(), 1);
        // But no directory at all is a configuration error.
        assert!(matches!(
            LiveTable::open(schema(), cfg_mem(4, 2)),
            Err(StoreError::Invalid(_))
        ));
    }

    #[test]
    fn open_survives_a_torn_last_segment_via_the_wal_lag() {
        let dir = TempBlockDir::new("live_torn_seg");
        let cfg = cfg_mem(4, 2)
            .with_segment_dir(dir.path())
            .with_background_sealer(false)
            .with_coalesce_segments(1)
            .with_wal_sync_every(1);
        {
            let lt = LiveTable::new(schema(), cfg.clone()).unwrap();
            for k in 0..19u64 {
                lt.append_row(&row_of(k)).unwrap();
            }
        }
        // Tear the newest segment file mid-page. Its 8 rows are still
        // in the WAL (lag-one rotation), so nothing durable is lost.
        let torn = dir.path().join("segment-000001.fmb");
        let bytes = std::fs::read(&torn).unwrap();
        std::fs::write(&torn, &bytes[..bytes.len() / 2]).unwrap();
        let lt = LiveTable::open(schema(), cfg).unwrap();
        let st = lt.stats();
        assert_eq!(st.recovered_torn_segments, 1);
        assert_eq!(st.rows, 19);
        assert_eq!(st.recovered_rows, 11, "8 torn + 3 tail rows replayed");
        let t = lt.snapshot().to_table().unwrap();
        for k in 0..19u64 {
            assert_eq!(t.code(0, k as usize), row_of(k)[0]);
        }
    }

    #[test]
    fn inline_compaction_bounds_segment_files() {
        let dir = TempBlockDir::new("live_compact_inline");
        let cfg = cfg_mem(4, 1) // 4 rows/delta
            .with_segment_dir(dir.path())
            .with_background_sealer(false)
            .with_coalesce_segments(1)
            .with_compaction(2);
        let lt = LiveTable::new(schema(), cfg).unwrap();
        let before = lt.snapshot();
        for k in 0..24u64 {
            lt.append_row(&row_of(k)).unwrap();
        }
        let st = lt.stats();
        assert_eq!(st.frozen_segments, 6);
        assert!(st.compactions >= 1, "6 files must have merged: {st:?}");
        assert_eq!(st.compact_errors, 0);
        assert!(lt.num_segment_files() <= 2, "fan-in bounds the file count");
        // Merged data is bit-identical, blockwise.
        let snap = lt.snapshot();
        let t = snap.to_table().unwrap();
        let layout = snap.layout();
        let mut buf = Vec::new();
        for attr in 0..2 {
            for b in 0..layout.num_blocks() {
                snap.read_block_into(b, attr, &mut buf).unwrap();
                assert_eq!(buf.as_slice(), &t.column(attr)[layout.rows_of_block(b)]);
            }
        }
        for k in 0..24u64 {
            assert_eq!(t.code(1, k as usize), row_of(k)[1]);
        }
        // Old snapshots still read the pre-compaction backends.
        assert_eq!(before.n_rows(), 0);
        drop(before);
        // And a reopen sees only the merged files.
        drop(lt);
        let reopened = LiveTable::open(
            schema(),
            cfg_mem(4, 1)
                .with_segment_dir(dir.path())
                .with_background_sealer(false)
                .with_coalesce_segments(1)
                .with_compaction(2),
        )
        .unwrap();
        assert_eq!(reopened.stats().recovered_torn_segments, 0);
        assert_eq!(reopened.snapshot().to_table().unwrap(), t);
    }

    #[test]
    fn compact_now_is_explicit_and_counted() {
        let dir = TempBlockDir::new("live_compact_now");
        // No automatic trigger path: fan_in set but sealing inline with
        // compaction disabled first — use a config without compaction,
        // then reopen with it and compact explicitly.
        let plain = cfg_mem(4, 1)
            .with_segment_dir(dir.path())
            .with_background_sealer(false)
            .with_coalesce_segments(1);
        {
            let lt = LiveTable::new(schema(), plain.clone()).unwrap();
            for k in 0..16u64 {
                lt.append_row(&row_of(k)).unwrap();
            }
            assert_eq!(lt.num_segment_files(), 4);
            assert_eq!(lt.compact_now(), 0, "compaction not configured");
        }
        let lt = LiveTable::open(schema(), plain.with_compaction(3)).unwrap();
        assert_eq!(lt.num_segment_files(), 4);
        let merges = lt.compact_now();
        assert!(merges >= 1);
        assert!(lt.num_segment_files() <= 3);
        assert_eq!(lt.stats().compactions, merges);
        let t = lt.snapshot().to_table().unwrap();
        for k in 0..16u64 {
            assert_eq!(t.code(0, k as usize), row_of(k)[0]);
        }
    }

    #[test]
    fn degenerate_lifecycle_configs_are_rejected() {
        assert!(matches!(
            LiveTable::new(schema(), cfg_mem(4, 2).with_compaction(1)),
            Err(StoreError::Invalid(_))
        ));
        // Compaction without a directory is refused outright.
        assert!(matches!(
            LiveTable::new(schema(), cfg_mem(4, 2).with_compaction(4)),
            Err(StoreError::Invalid(_))
        ));
    }

    #[test]
    fn snapshot_zone_maps_match_a_scan_built_reference() {
        let lt = LiveTable::new(schema(), cfg_mem(3, 2)).unwrap();
        for k in 0..25u64 {
            lt.append_row(&row_of(k)).unwrap();
        }
        let snap = lt.snapshot();
        let t = snap.to_table().unwrap();
        let layout = snap.layout();
        for attr in 0..2 {
            assert_eq!(snap.zone_map(attr), &ZoneMap::build(&t, attr, &layout));
            assert_eq!(&*snap.zone_map_arc(attr), snap.zone_map(attr));
        }
    }

    #[test]
    fn concurrent_appenders_never_tear_rows() {
        let lt = LiveTable::new(schema(), cfg_mem(5, 2)).unwrap();
        std::thread::scope(|scope| {
            for w in 0..4u64 {
                let lt = &lt;
                scope.spawn(move || {
                    for i in 0..500u64 {
                        lt.append_row(&row_of(w * 10_000 + i)).unwrap();
                    }
                });
            }
            // Snapshots race the appenders; every row they see must be
            // internally consistent.
            for _ in 0..20 {
                let t = lt.snapshot().to_table().unwrap();
                for r in 0..t.n_rows() {
                    let z = t.code(0, r) as u64;
                    let x = t.code(1, r);
                    // row_of(k): z = k % 6, x = (k*7) % 4. For every k
                    // with k % 6 == z there is exactly one x residue per
                    // (z mod 4 cycle); verify membership in the valid set.
                    let valid = (0..24u64)
                        .filter(|k| k % 6 == z)
                        .map(|k| ((k * 7) % 4) as u32)
                        .collect::<std::collections::HashSet<_>>();
                    assert!(valid.contains(&x), "torn row {r}: z={z} x={x}");
                }
            }
        });
        let final_t = lt.snapshot().to_table().unwrap();
        assert_eq!(final_t.n_rows(), 2000);
    }
}
