//! Recovery: [`LiveTable::open`] and the one rule it decides by.
//!
//! `open` reads the directory once. It loads the `segment-*.fmb` files
//! in delta order, verifying every page, and stops at the first file
//! that fails to load or at a gap in the delta ids. The rows loaded by
//! then are the *sealed rows*; the failing file and every later one are
//! *dropped*. It then reads the log and decides with [`open_verdict`]:
//! replay the log past the sealed rows, or refuse the directory.
//!
//! Replay loses nothing. A log whose base is at or below the sealed rows
//! holds every row past its base that was durable: a seal leaves the log
//! fsynced through the sealed run, and the lag-one rotation
//! ([`super::wal::rotation_base`]) keeps the newest sealed run logged.
//! So the dropped files' rows are all in the log. Anything else (a
//! dropped file the log does not reach, or a log that cannot be read)
//! is a refusal: `open` returns the failing file's own error with the
//! file's name added, and the directory is left byte-for-byte as it was.
//!
//! Only after a Replay verdict does the directory change: `.tmp`
//! leftovers, files shadowed by a crashed compaction and the dropped
//! files are removed, and the log is *replaced* (temp file, fsync,
//! rename) by one carrying exactly the records replayed, so a crash
//! inside `open` leaves either the old log or the new one.

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use crate::backend::StorageBackend;
use crate::error::{Result, StoreError};
use crate::file::FileBackend;
use crate::live::memtable::LiveBitmap;
use crate::live::segment::SegmentEntry;
use crate::live::wal::{self, replay_split, WalWriter, WAL_FILE};
use crate::live::{validate_codes, validate_config, LiveSegment, LiveTable, LiveTableConfig};
use crate::schema::Schema;

/// What [`LiveTable::open`] does with a scanned directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Serve the sealed rows and replay the log past them.
    Replay,
    /// Return the failing file's error and change nothing.
    Refuse,
}

/// The recovery rule. `sealed_rows` are the rows of the segment files
/// loaded before the scan stopped, `files_dropped` the segment files at
/// or after the stop, and `log_base` the first row of a readable log
/// (`None` when there is no log file). Replay when the log reaches back
/// to the sealed rows, or when there is no log and nothing was dropped;
/// refuse in every other case. The `wal_recovery` model in
/// `fastmatch-check` imports this function (invariant
/// `open-is-lossless-or-refuses-unchanged`).
pub fn open_verdict(sealed_rows: u64, files_dropped: usize, log_base: Option<u64>) -> Verdict {
    match log_base {
        Some(base) if base <= sealed_rows => Verdict::Replay,
        None if files_dropped == 0 => Verdict::Replay,
        _ => Verdict::Refuse,
    }
}

/// What the directory scan found; it seeds the shared constructor.
#[derive(Default)]
pub(super) struct Recovered {
    pub(super) entries: Vec<LiveSegment>,
    pub(super) bitmaps: Vec<LiveBitmap>,
    pub(super) sealed_rows: usize,
    /// Deltas the loaded entries cover (the next delta id).
    pub(super) deltas: u64,
    /// Why the scan stopped before the last segment file, naming it.
    stop: Option<StoreError>,
    /// Segment files at or after the stop.
    dropped: Vec<PathBuf>,
    /// `.tmp` leftovers and files shadowed by a crashed compaction.
    stale: Vec<PathBuf>,
}

impl Recovered {
    pub(super) fn empty(schema: &Schema) -> Self {
        let bitmaps = schema.attrs().iter();
        Recovered {
            bitmaps: bitmaps.map(|a| LiveBitmap::new(a.cardinality)).collect(),
            ..Recovered::default()
        }
    }
}

impl LiveTable {
    /// Re-opens a live table from its segment directory after a crash
    /// or a clean shutdown. It loads the segment files in delta order,
    /// verifying each whole (header, schema, geometry and every page
    /// checksum, rebuilding the presence bitmaps from the decoded
    /// codes), then replays the log past them and resumes serving.
    ///
    /// `open` has two outcomes (see [the module docs](self)):
    ///
    /// * every row that was durable comes back. A torn or damaged
    ///   trailing segment file whose rows the log covers is dropped and
    ///   counted in [`super::LiveStats::recovered_torn_segments`]; a log
    ///   record that fails its checksum ends the replay and is counted
    ///   in [`super::LiveStats::wal_errors`] (a torn unsynced tail looks
    ///   the same in this format);
    /// * or it returns an error and the directory is left byte-for-byte
    ///   as it was.
    ///
    /// Rows replayed and the time recovery took are reported through
    /// [`super::LiveStats::recovered_rows`] and
    /// [`super::LiveStats::recovery_ns`].
    ///
    /// # Errors
    /// Configuration errors as in [`Self::new`] (a segment directory is
    /// required here) and I/O errors listing the directory. A refused
    /// directory returns the failing file's own error with the file's
    /// name added: [`StoreError::Corrupt`] with the attribute and block
    /// of a page that failed its checksum, [`StoreError::Format`] naming
    /// the magic found and the magic expected for a file of another
    /// format version (such as the FNV-1a formats `FMCOL001` and
    /// `FMWAL001`), or a bad header.
    pub fn open(schema: Schema, config: LiveTableConfig) -> Result<Self> {
        let t0 = Instant::now();
        let rows_per_segment = validate_config(&schema, &config)?;
        let Some(dir) = config.segment_dir.clone() else {
            return Err(StoreError::Invalid(
                "open() requires a segment directory".into(),
            ));
        };
        let rec = scan_segment_dir(&schema, &config, &dir, rows_per_segment)?;
        let wal_path = dir.join(WAL_FILE);
        let log = wal_path
            .exists()
            .then(|| wal::replay(&wal_path, schema.len()).map_err(|e| named(e, &wal_path)))
            .transpose()?;
        let sealed = rec.sealed_rows as u64;
        let log_base = log.as_ref().map(|l| l.base_rows);
        if open_verdict(sealed, rec.dropped.len(), log_base) == Verdict::Refuse {
            return Err(rec.stop.unwrap_or_else(|| {
                let base = log_base.unwrap_or_default();
                let msg = format!("log starts at row {base}, segment files end at row {sealed}");
                named(StoreError::Format(msg), &wal_path)
            }));
        }
        for path in rec.stale.iter().chain(&rec.dropped) {
            let _ = std::fs::remove_file(path);
        }
        // The records to carry: the log's checksummed prefix, cut at a
        // record with codes outside the dictionaries (a log of another
        // schema). A log that ends below the sealed rows adds nothing.
        let mut wal_faults = 0u64;
        let mut base = sealed;
        let mut carried: Vec<Vec<&[u32]>> = Vec::new();
        if let Some(l) = &log {
            wal_faults += u64::from(l.torn_tail);
            let mut end = l.base_rows;
            for cols in &l.records {
                let cols: Vec<&[u32]> = cols.iter().map(Vec::as_slice).collect();
                if validate_codes(&schema, &cols).is_err() {
                    wal_faults += 1;
                    break;
                }
                end += cols.first().map_or(0, |c| c.len()) as u64;
                carried.push(cols);
            }
            if end >= sealed {
                base = l.base_rows;
            } else {
                carried.clear();
            }
        }
        let installed = WalWriter::rotate_to(
            &wal_path,
            base,
            schema.len(),
            config.wal_sync_every,
            &carried,
        );
        let torn = rec.dropped.len() as u64;
        let table = Self::build(schema, config, rows_per_segment, rec);
        // The table has no log yet, so replayed rows are not logged
        // twice; they freeze and seal like any append.
        let mut cursor = base;
        for cols in &carried {
            let len = cols.first().map_or(0, |c| c.len()) as u64;
            let (skip, take) = replay_split(cursor, len, sealed);
            cursor += len;
            if take > 0 {
                let tail: Vec<&[u32]> = cols.iter().map(|c| &c[skip as usize..]).collect();
                table.append_inner(&tail, take as usize);
            }
        }
        let inner = &*table.inner;
        inner.attach_wal(installed);
        inner.recovered_torn.fetch_add(torn, Ordering::Relaxed);
        inner.wal_errors.fetch_add(wal_faults, Ordering::Relaxed);
        inner
            .recovered_rows
            .fetch_add(cursor.saturating_sub(sealed), Ordering::Relaxed);
        inner
            .recovery_ns
            .store(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        Ok(table)
    }
}

/// `e` with the name of the file it came from added to its message;
/// the variant, and a corrupt page's attribute and block, are kept.
fn named(mut e: StoreError, path: &Path) -> StoreError {
    let name = path.file_name().unwrap_or_default().to_string_lossy();
    match &mut e {
        StoreError::Io(io) => *io = std::io::Error::new(io.kind(), format!("{name}: {io}")),
        StoreError::Format(msg)
        | StoreError::Invalid(msg)
        | StoreError::Corrupt { detail: msg, .. } => {
            *msg = format!("{name}: {msg}");
        }
    }
    e
}

/// Parses a segment file name (`segment-NNNNNN.fmb`) to its first
/// delta id.
pub(super) fn segment_index(name: &str) -> Option<usize> {
    let digits = name.strip_prefix("segment-")?.strip_suffix(".fmb")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// The directory pass of [`LiveTable::open`]: loads segment files in
/// delta order until the first that fails to load or the first gap,
/// and lists what a Replay verdict would remove. Touches nothing.
fn scan_segment_dir(
    schema: &Schema,
    config: &LiveTableConfig,
    dir: &Path,
    rows_per_segment: usize,
) -> Result<Recovered> {
    let mut rec = Recovered::empty(schema);
    let mut found: Vec<(usize, PathBuf)> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.ends_with(".tmp") {
            rec.stale.push(entry.path());
        } else if let Some(index) = segment_index(name) {
            found.push((index, entry.path()));
        }
    }
    found.sort();
    let mut expected = 0usize;
    let mut it = found.into_iter();
    while let Some((index, path)) = it.next() {
        if index < expected {
            // Shadowed by a merged file that already covers these
            // deltas: a compaction crashed between its rename and its
            // unlinks.
            rec.stale.push(path);
            continue;
        }
        let loaded = if index > expected {
            Err(StoreError::Format(format!(
                "follows a gap: segment-{expected:06}.fmb is missing"
            )))
        } else {
            load_segment(schema, config, index, &path, rows_per_segment, &mut rec)
        };
        match loaded {
            Ok(deltas) => expected += deltas,
            Err(e) => {
                rec.stop = Some(named(e, &path));
                rec.dropped.push(path);
                rec.dropped.extend(it.map(|(_, p)| p));
                break;
            }
        }
    }
    rec.deltas = expected as u64;
    Ok(rec)
}

/// Opens and *fully verifies* one segment file — header, schema,
/// block geometry, whole-delta row count, and every page checksum (by
/// decoding every block) — then folds its codes into the recovered
/// bitmaps and appends its entry. Returns how many deltas the file
/// covers. `rec` is only touched once the whole file has verified.
fn load_segment(
    schema: &Schema,
    config: &LiveTableConfig,
    index: usize,
    path: &Path,
    rows_per_segment: usize,
    rec: &mut Recovered,
) -> Result<usize> {
    let be = FileBackend::open(path)?.with_cache_blocks(config.segment_cache_blocks);
    let (tpb, n_rows) = (config.tuples_per_block, be.n_rows());
    if be.schema() != schema
        || be.layout().tuples_per_block() != tpb
        || n_rows == 0
        || n_rows % rows_per_segment != 0
    {
        return Err(StoreError::Format(format!(
            "schema, block size or {n_rows} rows do not fit the table's deltas"
        )));
    }
    let blocks = n_rows / tpb;
    let mut cols: Vec<Vec<u32>> = Vec::with_capacity(schema.len());
    let mut buf = Vec::new();
    for a in 0..schema.len() {
        let mut col = Vec::with_capacity(n_rows);
        for b in 0..blocks {
            be.read_block_into(b, a, &mut buf)?;
            col.extend_from_slice(&buf);
        }
        cols.push(col);
    }
    validate_codes(schema, &cols.iter().map(Vec::as_slice).collect::<Vec<_>>())?;
    // Everything verified; fold into the live indexes.
    let base_block = rec.sealed_rows / tpb;
    for (a, col) in cols.iter().enumerate() {
        let bm = &mut rec.bitmaps[a];
        for (i, &v) in col.iter().enumerate() {
            bm.set(v, base_block + i / tpb);
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
