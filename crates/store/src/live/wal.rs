//! Write-ahead log of a [`crate::live::LiveTable`].
//!
//! Sealed segments are durable the moment their atomic rename lands
//! (see [`crate::file::write_table_atomic`]); everything after the
//! sealed watermark — frozen-but-unsealed deltas and the active
//! memtable tail — lives only in memory. The WAL closes that gap:
//! every append is logged as one checksummed record *before* it is
//! applied to the memtable, so [`crate::live::LiveTable::open`] can
//! replay the tail after a crash.
//!
//! ```text
//! ┌────────────────────────────────────────────────────────────┐
//! │ magic "FMWAL002"  base_rows:u64  n_attrs:u32  checksum:u64 │
//! ├────────────────────────────────────────────────────────────┤
//! │ record 0: n_rows:u32  codes (n_attrs × n_rows × u32 LE)    │
//! │           checksum:u64 (sum64, keyed by record seq)        │
//! │ record 1: …                                                │
//! └────────────────────────────────────────────────────────────┘
//! ```
//!
//! All integers are little-endian. `base_rows` is the global row index
//! of the first logged row: rows below it were durably sealed when the
//! log was (re)written, so replay adds `base_rows` to its running
//! cursor and skips any row the recovered segments already cover
//! ([`replay_split`]). Header and records are checksummed by the block
//! file's [`sum64`], records keyed by *sequence number* so a record
//! copied to another slot fails verification just like a misplaced
//! page. A log with another magic — `FMWAL001`, the FNV-1a format,
//! included — is refused; there is no reader for an older format.
//!
//! **Group fsync** — `sync_every = n` fsyncs after every `n`th record
//! (`1` = every record, the strictest setting; `0` never fsyncs and
//! leaves flushing to the OS). A crash may therefore lose up to the
//! unsynced suffix of records; what it can never do is corrupt the
//! durable prefix, because a torn or half-flushed record fails its
//! checksum and replay stops *there*, treating everything before it as
//! the recovered prefix (`WalReplay::torn_tail`).
//!
//! **Truncation by rotation** — the WAL would grow forever if seals
//! never trimmed it. After a seal run lands durably the live table
//! rewrites the log: a fresh file at `wal.fmw.tmp` carrying only the
//! rows past the *previous* durable watermark ([`rotation_base`] — the
//! lag keeps the newest sealed segment covered, so a torn last segment
//! file is still recoverable from the WAL), fsynced, renamed over
//! `wal.fmw`, directory fsynced. A crash at any point leaves either
//! the old complete log or the new complete log — never neither.
//!
//! The pure decision functions ([`durable_prefix_rows`],
//! [`rotation_base`], [`replay_split`], and recovery's
//! [`crate::live::recover::open_verdict`]) are shared with the
//! `wal_recovery` model in `fastmatch-check`, which explores
//! crash/replay interleavings against the invariants
//! `recovered-prefix-is-durable-prefix`, `no-replayed-row-lost`,
//! `seal-truncation-never-drops-unsealed-rows` and
//! `open-is-lossless-or-refuses-unchanged`.

use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::checksum::{sum64, BASIS};
use crate::error::{Result, StoreError};
use crate::file::{fsync_dir, le_u32, le_u64, magic_error, tmp_sibling};

/// WAL file magic: identifies format and version.
pub(crate) const WAL_MAGIC: &[u8; 8] = b"FMWAL002";

/// The WAL's file name inside a segment directory. Public so crash
/// tests and operational tooling can find (and deliberately damage)
/// the log without hard-coding the name.
pub const WAL_FILE: &str = "wal.fmw";

/// Default group-fsync interval, in records (see
/// [`crate::live::LiveTableConfig::wal_sync_every`]).
pub const DEFAULT_WAL_SYNC_EVERY: usize = 64;

/// Serialized header length: magic + base_rows + n_attrs + checksum.
const HEADER_LEN: usize = 8 + 8 + 4 + 8;

/// Checksum basis of record `seq`: sequence-keyed the way page
/// checksums are position-keyed, and disjoint from the header basis.
fn record_basis(seq: u64) -> u64 {
    BASIS ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x57414c
}

// ------------------------------------------------------------- decisions

/// Rows covered by the leading run of *durably sealed* segments, given
/// each entry's `(rows, sealed)` in table order. Seals complete in
/// delta order, so in production the run is simply "File entries until
/// the first Mem one" — but the prefix rule, not the scheduler, is
/// what recovery may rely on, which is why the `wal_recovery` model
/// imports this exact function.
pub fn durable_prefix_rows(entries: impl IntoIterator<Item = (usize, bool)>) -> usize {
    let mut rows = 0usize;
    for (r, sealed) in entries {
        if !sealed {
            break;
        }
        rows += r;
    }
    rows
}

/// The base (first retained global row) the WAL rotates to after a
/// seal: one sealed run *behind* the current durable watermark, and
/// never backwards. `durable_rows` is the watermark after the seal,
/// `just_sealed_rows` the rows that seal added to it. Lagging by one
/// run means the newest segment file's rows stay in the log until the
/// *next* seal confirms the directory state — so a torn last segment
/// (crash mid-rename, bit rot) is still recoverable from the WAL, at
/// the cost of one extra run of retained records.
pub fn rotation_base(old_base: u64, durable_rows: u64, just_sealed_rows: u64) -> u64 {
    old_base.max(durable_rows.saturating_sub(just_sealed_rows))
}

/// Splits one replayed record into `(skip, take)`: the record's rows
/// span `[record_start, record_start + record_rows)` in global row
/// order, and rows below `sealed_rows` are already served by recovered
/// segment files, so only the remainder re-enters the memtable.
pub fn replay_split(record_start: u64, record_rows: u64, sealed_rows: u64) -> (u64, u64) {
    let skip = sealed_rows.saturating_sub(record_start).min(record_rows);
    (skip, record_rows - skip)
}

// ---------------------------------------------------------------- writer

/// The append-side handle on one WAL file. All methods are `&mut`: the
/// live table serializes WAL access under its state lock, which is the
/// same ordering the log's contents must reflect.
#[derive(Debug)]
pub(crate) struct WalWriter {
    file: File,
    path: PathBuf,
    n_attrs: usize,
    sync_every: usize,
    base_rows: u64,
    /// Rows logged since `base_rows`.
    rows: u64,
    /// Records written (the next record's checksum key).
    seq: u64,
    /// Records since the last fsync (counted at every interval, so a
    /// seal can sync a log that never group-fsyncs).
    since_sync: usize,
    /// Fsyncs issued (group syncs + rotation syncs), for stats.
    syncs: u64,
}

impl WalWriter {
    /// Installs a log at `path` with the given base, carrying the given
    /// records (one per retained batch; column slices in schema order),
    /// via the same temp + fsync + rename + dir-fsync staging as
    /// segment files — a crash leaves old log or new log, never
    /// neither. Returns the writer for the new file. Creating a table,
    /// reopening one and rotating after a seal all install the log this
    /// way, so `wal.fmw` is only ever replaced, never rewritten.
    pub fn rotate_to(
        path: &Path,
        base_rows: u64,
        n_attrs: usize,
        sync_every: usize,
        records: &[Vec<&[u32]>],
    ) -> Result<WalWriter> {
        let tmp = tmp_sibling(path);
        let staged = (|| -> Result<WalWriter> {
            let mut file = File::create(&tmp)?;
            file.write_all(&header_bytes(base_rows, n_attrs))?;
            // No group fsync while staging: one fsync covers the file.
            let mut writer = WalWriter {
                file,
                path: path.to_path_buf(),
                n_attrs,
                sync_every: 0,
                base_rows,
                rows: 0,
                seq: 0,
                since_sync: 0,
                syncs: 1,
            };
            for cols in records {
                let len = cols.first().map_or(0, |c| c.len());
                writer.append(cols, 0, len)?;
            }
            writer.file.sync_all()?;
            std::fs::rename(&tmp, path)?;
            Ok(writer)
        })();
        let mut writer = match staged {
            Ok(w) => w,
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                return Err(e);
            }
        };
        if let Some(dir) = path.parent() {
            fsync_dir(dir)?;
        }
        writer.sync_every = sync_every;
        writer.since_sync = 0;
        Ok(writer)
    }

    /// Logs `len` rows of `cols` (starting at row offset `off`) as one
    /// record, group-fsyncing per the configured interval. Zero rows
    /// log nothing.
    pub fn append(&mut self, cols: &[&[u32]], off: usize, len: usize) -> Result<()> {
        if len == 0 {
            return Ok(());
        }
        if cols.len() != self.n_attrs {
            return Err(StoreError::Invalid(format!(
                "WAL record has {} columns, log expects {}",
                cols.len(),
                self.n_attrs
            )));
        }
        let mut rec = Vec::with_capacity(4 + self.n_attrs * len * 4 + 8);
        rec.extend_from_slice(&(len as u32).to_le_bytes());
        for col in cols {
            for &code in &col[off..off + len] {
                rec.extend_from_slice(&code.to_le_bytes());
            }
        }
        let ck = sum64(record_basis(self.seq), &rec);
        rec.extend_from_slice(&ck.to_le_bytes());
        self.file.write_all(&rec)?;
        self.seq += 1;
        self.rows += len as u64;
        self.since_sync += 1;
        if self.sync_every > 0 && self.since_sync >= self.sync_every {
            self.sync()?;
        }
        Ok(())
    }

    /// Fsyncs the records logged since the last fsync, if any.
    fn sync(&mut self) -> Result<()> {
        if self.since_sync > 0 {
            self.file.sync_data()?;
            self.since_sync = 0;
            self.syncs += 1;
        }
        Ok(())
    }

    /// Makes every logged record durable after a seal: rotates to the
    /// given base and records (see [`Self::rotate_to`]) when a rotation
    /// is due, else fsyncs the log in place. A failed rotation still
    /// fsyncs the old log before returning its error. `syncs` keeps
    /// counting across a rotation.
    pub fn sync_after_seal(&mut self, rotation: Option<(u64, Vec<Vec<&[u32]>>)>) -> Result<()> {
        let Some((base, records)) = rotation else {
            return self.sync();
        };
        match Self::rotate_to(&self.path, base, self.n_attrs, self.sync_every, &records) {
            Ok(next) => {
                let syncs = self.syncs;
                *self = next;
                self.syncs += syncs;
                Ok(())
            }
            Err(e) => {
                let _ = self.sync();
                Err(e)
            }
        }
    }

    /// The first global row this log covers.
    pub fn base_rows(&self) -> u64 {
        self.base_rows
    }

    /// Rows logged since the base.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Fsyncs issued so far on this log.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }
}

/// Serialized header for a log with the given base.
fn header_bytes(base_rows: u64, n_attrs: usize) -> Vec<u8> {
    let mut h = Vec::with_capacity(HEADER_LEN);
    h.extend_from_slice(WAL_MAGIC);
    h.extend_from_slice(&base_rows.to_le_bytes());
    h.extend_from_slice(&(n_attrs as u32).to_le_bytes());
    let ck = sum64(BASIS, &h);
    h.extend_from_slice(&ck.to_le_bytes());
    h
}

// ---------------------------------------------------------------- replay

/// The outcome of reading a WAL back: the valid record prefix plus how
/// the scan ended.
#[derive(Debug)]
pub(crate) struct WalReplay {
    /// Global row index of the first logged row.
    pub base_rows: u64,
    /// Decoded records in log order: one set of columns each, all of
    /// them checksum-verified.
    pub records: Vec<Vec<Vec<u32>>>,
    /// Whether the scan stopped at a torn/corrupt suffix (crash while
    /// appending) rather than clean end-of-file. The valid prefix is
    /// still good — a torn tail was by definition not yet durable.
    pub torn_tail: bool,
}

/// Reads the log at `path` back, verifying the header strictly (a log
/// whose *header* cannot be trusted yields [`StoreError::Format`], and
/// `LiveTable::open` refuses the directory) and the records leniently:
/// the first record that is short, oversized or checksum-corrupt ends
/// the scan with [`WalReplay::torn_tail`] set, and everything before
/// it is returned.
pub(crate) fn replay(path: &Path, n_attrs: usize) -> Result<WalReplay> {
    let bytes = std::fs::read(path)?;
    if bytes.len() < HEADER_LEN {
        return Err(StoreError::Format("truncated WAL header".into()));
    }
    let (head, body) = bytes.split_at(HEADER_LEN);
    if &head[..8] != WAL_MAGIC {
        return Err(magic_error(&head[..8], WAL_MAGIC));
    }
    let stored = le_u64(&head[HEADER_LEN - 8..]);
    let computed = sum64(BASIS, &head[..HEADER_LEN - 8]);
    if stored != computed {
        return Err(StoreError::Format(format!(
            "WAL header checksum mismatch (stored {stored:#x}, computed {computed:#x})"
        )));
    }
    let base_rows = le_u64(&head[8..16]);
    let file_attrs = le_u32(&head[16..20]) as usize;
    if file_attrs != n_attrs {
        return Err(StoreError::Format(format!(
            "WAL logs {file_attrs} attributes, table has {n_attrs}"
        )));
    }
    let mut records = Vec::new();
    let mut torn_tail = false;
    let mut cursor = 0usize;
    let mut seq = 0u64;
    while cursor < body.len() {
        // Frame check before any allocation: a garbage length must not
        // become an allocation, just a torn tail.
        let Some(len_bytes) = body.get(cursor..cursor + 4) else {
            torn_tail = true;
            break;
        };
        let n_rows = le_u32(len_bytes) as usize;
        let payload = 4 + n_attrs * n_rows * 4;
        let Some(rec) = body.get(cursor..cursor + payload + 8) else {
            torn_tail = true;
            break;
        };
        let (data, ck) = rec.split_at(payload);
        let stored = le_u64(ck);
        if stored != sum64(record_basis(seq), data) {
            torn_tail = true;
            break;
        }
        let mut cols: Vec<Vec<u32>> = Vec::with_capacity(n_attrs);
        let codes = &data[4..];
        for a in 0..n_attrs {
            let col_bytes = &codes[a * n_rows * 4..(a + 1) * n_rows * 4];
            cols.push(col_bytes.chunks_exact(4).map(le_u32).collect());
        }
        records.push(cols);
        cursor += payload + 8;
        seq += 1;
    }
    Ok(WalReplay {
        base_rows,
        records,
        torn_tail,
    })
}

#[cfg(test)]
impl WalReplay {
    /// Rows across `records`.
    pub(crate) fn rows(&self) -> u64 {
        self.records.iter().map(|r| r[0].len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempfile::TempBlockDir;

    fn wal_path(dir: &TempBlockDir) -> PathBuf {
        dir.path().join(WAL_FILE)
    }

    #[test]
    fn decision_functions_agree_with_their_contracts() {
        assert_eq!(durable_prefix_rows([]), 0);
        assert_eq!(durable_prefix_rows([(8, true), (8, true), (8, false)]), 16);
        assert_eq!(
            durable_prefix_rows([(8, false), (8, true)]),
            0,
            "a hole ends the durable prefix even with sealed entries behind it"
        );
        // Lag-one truncation: after sealing 8 rows onto a 16-row
        // watermark, the log keeps the newest 8 sealed rows.
        assert_eq!(rotation_base(0, 24, 8), 16);
        // Never backwards, even if accounting says so.
        assert_eq!(rotation_base(20, 24, 8), 20);
        assert_eq!(rotation_base(0, 8, 8), 0);
        // Record split around the sealed watermark.
        assert_eq!(replay_split(0, 10, 0), (0, 10));
        assert_eq!(replay_split(0, 10, 4), (4, 6));
        assert_eq!(replay_split(0, 10, 10), (10, 0));
        assert_eq!(replay_split(16, 10, 4), (0, 10));
        assert_eq!(replay_split(16, 10, 20), (4, 6));
    }

    #[test]
    fn log_roundtrips_records_in_order() {
        let dir = TempBlockDir::new("wal_roundtrip");
        let path = wal_path(&dir);
        let mut w = WalWriter::rotate_to(&path, 7, 2, 1, &[]).unwrap();
        w.append(&[&[1, 2, 3], &[4, 5, 0]], 0, 3).unwrap();
        w.append(&[&[9], &[1]], 0, 1).unwrap();
        w.append(&[&[], &[]], 0, 0).unwrap(); // no-op, no record
        assert_eq!(w.rows(), 4);
        let r = replay(&path, 2).unwrap();
        assert_eq!(r.base_rows, 7);
        assert!(!r.torn_tail);
        assert_eq!(r.rows(), 4);
        assert_eq!(r.records.len(), 2);
        assert_eq!(r.records[0], vec![vec![1, 2, 3], vec![4, 5, 0]]);
        assert_eq!(r.records[1], vec![vec![9], vec![1]]);
    }

    #[test]
    fn offset_append_logs_the_requested_rows_only() {
        let dir = TempBlockDir::new("wal_offset");
        let path = wal_path(&dir);
        let mut w = WalWriter::rotate_to(&path, 0, 1, 0, &[]).unwrap();
        w.append(&[&[10, 11, 12, 13]], 1, 2).unwrap();
        let r = replay(&path, 1).unwrap();
        assert_eq!(r.records, vec![vec![vec![11, 12]]]);
    }

    #[test]
    fn torn_tail_keeps_the_valid_prefix() {
        let dir = TempBlockDir::new("wal_torn");
        let path = wal_path(&dir);
        let mut w = WalWriter::rotate_to(&path, 0, 2, 1, &[]).unwrap();
        w.append(&[&[1, 2], &[3, 4]], 0, 2).unwrap();
        w.append(&[&[5], &[6]], 0, 1).unwrap();
        drop(w);
        // Crash mid-write of the second record: truncate into it.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let r = replay(&path, 2).unwrap();
        assert!(r.torn_tail);
        assert_eq!(r.records.len(), 1);
        assert_eq!(r.rows(), 2);
        // Corrupt (not short) tail: flip a payload byte of the last
        // record; the checksum must reject it the same way.
        let mut bytes2 = bytes.clone();
        let n = bytes2.len();
        bytes2[n - 10] ^= 0xff;
        std::fs::write(&path, &bytes2).unwrap();
        let r2 = replay(&path, 2).unwrap();
        assert!(r2.torn_tail);
        assert_eq!(r2.records.len(), 1);
    }

    #[test]
    fn garbage_length_prefix_is_a_torn_tail_not_an_allocation() {
        let dir = TempBlockDir::new("wal_garbage");
        let path = wal_path(&dir);
        let mut w = WalWriter::rotate_to(&path, 0, 2, 1, &[]).unwrap();
        w.append(&[&[1], &[2]], 0, 1).unwrap();
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // absurd n_rows
        bytes.extend_from_slice(&[0u8; 16]);
        std::fs::write(&path, &bytes).unwrap();
        let r = replay(&path, 2).unwrap();
        assert!(r.torn_tail);
        assert_eq!(r.records.len(), 1);
    }

    #[test]
    fn corrupt_header_is_a_format_error() {
        let dir = TempBlockDir::new("wal_badheader");
        let path = wal_path(&dir);
        let w = WalWriter::rotate_to(&path, 3, 2, 1, &[]).unwrap();
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[9] ^= 0x01; // base_rows field
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(replay(&path, 2), Err(StoreError::Format(_))));
        // Attribute-count mismatch is also refused outright.
        WalWriter::rotate_to(&path, 3, 2, 1, &[]).unwrap();
        assert!(matches!(replay(&path, 5), Err(StoreError::Format(_))));
    }

    #[test]
    fn records_are_sequence_keyed() {
        // Swapping two verbatim records must fail the checksum of the
        // one that moved, exactly like a misplaced page.
        let dir = TempBlockDir::new("wal_seqkey");
        let path = wal_path(&dir);
        let mut w = WalWriter::rotate_to(&path, 0, 1, 1, &[]).unwrap();
        w.append(&[&[1]], 0, 1).unwrap();
        w.append(&[&[2]], 0, 1).unwrap();
        drop(w);
        let bytes = std::fs::read(&path).unwrap();
        let rec_len = 4 + 4 + 8;
        let body = HEADER_LEN;
        let mut swapped = bytes.clone();
        swapped[body..body + rec_len].copy_from_slice(&bytes[body + rec_len..body + 2 * rec_len]);
        swapped[body + rec_len..body + 2 * rec_len].copy_from_slice(&bytes[body..body + rec_len]);
        std::fs::write(&path, &swapped).unwrap();
        let r = replay(&path, 1).unwrap();
        assert!(r.torn_tail, "swapped record must fail its sequence key");
        assert!(r.records.is_empty());
    }

    #[test]
    fn rotation_replaces_the_log_atomically() {
        let dir = TempBlockDir::new("wal_rotate");
        let path = wal_path(&dir);
        let mut w = WalWriter::rotate_to(&path, 0, 2, 1, &[]).unwrap();
        for k in 0..6u32 {
            w.append(&[&[k], &[k + 100]], 0, 1).unwrap();
        }
        // Rotate to base 4, retaining rows 4 and 5 as one record.
        let retained: Vec<Vec<&[u32]>> = vec![vec![&[4u32, 5][..], &[104u32, 105][..]]];
        let w2 = WalWriter::rotate_to(&path, 4, 2, 1, &retained).unwrap();
        assert_eq!(w2.base_rows(), 4);
        assert_eq!(w2.rows(), 2);
        assert_eq!(w2.path, path);
        assert!(!tmp_sibling(&path).exists());
        let r = replay(&path, 2).unwrap();
        assert_eq!(r.base_rows, 4);
        assert_eq!(r.records, vec![vec![vec![4, 5], vec![104, 105]]]);
        // The returned writer appends to the *rotated* file.
        let mut w2 = w2;
        w2.append(&[&[6], &[106]], 0, 1).unwrap();
        let r2 = replay(&path, 2).unwrap();
        assert_eq!(r2.rows(), 3);
        assert!(!r2.torn_tail);
    }

    #[test]
    fn group_fsync_counts_syncs() {
        let dir = TempBlockDir::new("wal_group");
        let path = wal_path(&dir);
        let mut w = WalWriter::rotate_to(&path, 0, 1, 3, &[]).unwrap();
        let created_syncs = w.syncs();
        for k in 0..7u32 {
            w.append(&[&[k]], 0, 1).unwrap();
        }
        // 7 records at sync_every=3 → 2 group syncs (after 3 and 6).
        assert_eq!(w.syncs() - created_syncs, 2);
        // sync_every=0 never syncs on append.
        let mut w0 = WalWriter::rotate_to(&path, 0, 1, 0, &[]).unwrap();
        let base = w0.syncs();
        for k in 0..5u32 {
            w0.append(&[&[k]], 0, 1).unwrap();
        }
        assert_eq!(w0.syncs(), base);
    }
}
