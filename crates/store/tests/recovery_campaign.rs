//! Recovery is lossless or it refuses, leaving the directory unchanged.
//!
//! The directory under test is the smallest that has every part
//! recovery reads: three sealed segments of 8 rows (4-row blocks, two
//! per segment), a log whose lag-one base is row 16 and which holds the
//! last sealed run and the 3-row tail, and a `.tmp` staging leftover
//! that only a replaying open may sweep.
//!
//! * Regressions: a corrupt first segment, a missing middle segment and
//!   a bad log header are each refused, naming the file, with the
//!   directory unchanged; with the damage undone the directory reopens
//!   whole.
//! * `open` replaces the log and never rewrites it in place: a handle
//!   held on the old log reads the same bytes after `open`.
//! * The campaign: every single-bit flip of every byte of the three
//!   segment files and the log, each opened from a fresh copy. A flip
//!   in a segment or in the log header must open with all 27 rows or be
//!   refused with the directory byte-identical. A flip in a log
//!   *record* cannot be told from a torn unsynced tail in this format,
//!   so there the open must yield an exact prefix of the rows with
//!   `wal_errors` ≥ 1. Every lossless open is then appended to and
//!   reopened, which must return exactly the old rows and the new ones:
//!   no file the first open dropped may come back.

use std::collections::BTreeMap;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;
use std::time::Instant;

use fastmatch_store::error::StoreError;
use fastmatch_store::live::wal::WAL_FILE;
use fastmatch_store::live::{LiveTable, LiveTableConfig};
use fastmatch_store::schema::{AttrDef, Schema};
use fastmatch_store::table::Table;
use fastmatch_store::tempfile::TempBlockDir;

fn schema() -> Schema {
    Schema::new(vec![AttrDef::new("z", 8), AttrDef::new("x", 16)])
}

fn row(i: u32) -> [u32; 2] {
    [i % 8, (i * 5) % 16]
}

const ROWS: u32 = 27;
const SEGMENTS: [&str; 3] = [
    "segment-000000.fmb",
    "segment-000001.fmb",
    "segment-000002.fmb",
];
const STAGING: &str = "segment-000003.fmb.tmp";
/// Bytes of the log header (magic, base, attribute count, checksum).
const WAL_HEADER: usize = 28;

fn config(dir: &Path) -> LiveTableConfig {
    LiveTableConfig::default()
        .with_tuples_per_block(4)
        .with_blocks_per_segment(2)
        .with_coalesce_segments(1)
        .with_background_sealer(false)
        .with_wal_sync_every(1)
        .with_segment_dir(dir)
}

/// Writes the 27-row directory into `dir`; returns its rows.
fn seed(dir: &Path) -> Table {
    let live = LiveTable::new(schema(), config(dir)).unwrap();
    for i in 0..ROWS {
        live.append_row(&row(i)).unwrap();
    }
    let rows = live.snapshot().to_table().unwrap();
    drop(live);
    std::fs::write(dir.join(STAGING), b"staging").unwrap();
    rows
}

/// Every file of `dir` by name, with its bytes.
fn contents(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let name = e.file_name().into_string().unwrap();
            (name, std::fs::read(e.path()).unwrap())
        })
        .collect()
}

/// Makes `dir` hold exactly `files`.
fn restore(dir: &Path, files: &BTreeMap<String, Vec<u8>>) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap();
    for (name, bytes) in files {
        std::fs::write(dir.join(name), bytes).unwrap();
    }
}

/// Asserts that `open` refuses `dir` with an error naming `file`, that
/// the directory is unchanged, and returns the error.
fn refused_unchanged(dir: &Path, file: &str) -> StoreError {
    let before = contents(dir);
    let e = LiveTable::open(schema(), config(dir))
        .err()
        .unwrap_or_else(|| panic!("{file}: the damaged directory opened"));
    assert!(e.to_string().contains(file), "{file} not named: {e}");
    assert!(before == contents(dir), "{file}: the directory changed");
    e
}

/// Reopens `dir` and asserts it holds exactly `reference`.
fn reopens_whole(dir: &Path, reference: &Table) {
    let live = LiveTable::open(schema(), config(dir)).unwrap();
    assert_eq!(&live.snapshot().to_table().unwrap(), reference);
}

/// One flipped code byte in the first segment's last page used to
/// reopen the directory with 0 rows and cut the log to its header.
#[test]
fn a_corrupt_first_segment_is_refused_unchanged() {
    let dir = TempBlockDir::new("regress_corrupt_first");
    let reference = seed(dir.path());
    let path = dir.path().join(SEGMENTS[0]);
    let good = std::fs::read(&path).unwrap();
    let mut bad = good.clone();
    // The page checksum is the file's final 8 bytes; this is a code.
    let at = bad.len() - 12;
    bad[at] ^= 0x01;
    std::fs::write(&path, &bad).unwrap();
    let e = refused_unchanged(dir.path(), SEGMENTS[0]);
    assert!(matches!(e, StoreError::Corrupt { .. }), "{e}");
    std::fs::write(&path, &good).unwrap();
    reopens_whole(dir.path(), &reference);
}

#[test]
fn a_gap_the_log_does_not_cover_is_refused_unchanged() {
    let dir = TempBlockDir::new("regress_gap");
    let reference = seed(dir.path());
    let path = dir.path().join(SEGMENTS[1]);
    let good = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    let e = refused_unchanged(dir.path(), SEGMENTS[1]);
    assert!(matches!(e, StoreError::Format(_)), "{e}");
    std::fs::write(&path, &good).unwrap();
    reopens_whole(dir.path(), &reference);
}

#[test]
fn a_bad_log_header_is_refused_unchanged() {
    let dir = TempBlockDir::new("regress_wal_header");
    let reference = seed(dir.path());
    let path = dir.path().join(WAL_FILE);
    let good = std::fs::read(&path).unwrap();
    let mut bad = good.clone();
    bad[9] ^= 0x01; // the base row
    std::fs::write(&path, &bad).unwrap();
    let e = refused_unchanged(dir.path(), WAL_FILE);
    assert!(matches!(e, StoreError::Format(_)), "{e}");
    std::fs::write(&path, &good).unwrap();
    reopens_whole(dir.path(), &reference);
}

#[test]
fn open_replaces_the_log_and_never_rewrites_it_in_place() {
    let dir = TempBlockDir::new("wal_replaced");
    let reference = seed(dir.path());
    let path = dir.path().join(WAL_FILE);
    let before = std::fs::read(&path).unwrap();
    let mut held = std::fs::File::open(&path).unwrap();
    let live = LiveTable::open(schema(), config(dir.path())).unwrap();
    assert_eq!(live.snapshot().to_table().unwrap(), reference);
    let mut after = Vec::new();
    held.seek(SeekFrom::Start(0)).unwrap();
    held.read_to_end(&mut after).unwrap();
    assert!(before == after, "the old log was rewritten in place");
    // The installed log carries the same rows from the same base.
    drop(live);
    assert_eq!(std::fs::read(&path).unwrap(), before);
}

/// Where a flipped byte sits, for the outcome table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Region {
    Segment,
    WalHeader,
    WalRecord,
}

/// What one open did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Outcome {
    /// Every row, in order.
    Lossless,
    /// Refused, the directory byte-identical.
    RefusedUnchanged,
    /// An exact prefix of the rows, with `wal_errors` ≥ 1.
    PrefixWithWalError,
    /// Opened with a row lost, invented or out of order, or without
    /// counting the loss.
    WrongRows,
    /// Refused, but the directory changed.
    RefusedChanged,
    /// A lossless open whose append-and-reopen did not return exactly
    /// the old rows and the new ones.
    StaleAfterReopen,
}

fn is_prefix(got: &Table, reference: &Table) -> bool {
    let n = got.n_rows();
    n <= reference.n_rows() && (0..2).all(|a| got.column(a) == &reference.column(a)[..n])
}

/// Opens `dir` (which holds `before`) and classifies the outcome.
fn classify(dir: &Path, before: &BTreeMap<String, Vec<u8>>, reference: &Table) -> Outcome {
    let live = match LiveTable::open(schema(), config(dir)) {
        Ok(live) => live,
        Err(_) if contents(dir) == *before => return Outcome::RefusedUnchanged,
        Err(_) => return Outcome::RefusedChanged,
    };
    let got = live.snapshot().to_table().unwrap();
    if got == *reference {
        // Append one more delta and reopen: the rows must be exactly the
        // reference and the new ones.
        for i in ROWS..ROWS + 8 {
            live.append_row(&row(i)).unwrap();
        }
        drop(live);
        let Ok(again) = LiveTable::open(schema(), config(dir)) else {
            return Outcome::StaleAfterReopen;
        };
        let t = again.snapshot().to_table().unwrap();
        let whole = t.n_rows() == (ROWS + 8) as usize
            && is_prefix(reference, &t)
            && (ROWS..ROWS + 8).all(|i| {
                let want = row(i);
                t.code(0, i as usize) == want[0] && t.code(1, i as usize) == want[1]
            });
        return if whole {
            Outcome::Lossless
        } else {
            Outcome::StaleAfterReopen
        };
    }
    if is_prefix(&got, reference) && live.stats().wal_errors >= 1 {
        Outcome::PrefixWithWalError
    } else {
        Outcome::WrongRows
    }
}

#[test]
fn every_bit_flip_opens_lossless_or_refuses_unchanged() {
    let seed_dir = TempBlockDir::new("campaign_seed");
    let reference = seed(seed_dir.path());
    let seed_files = contents(seed_dir.path());
    let work = TempBlockDir::new("campaign_img");
    let targets: Vec<&str> = SEGMENTS.iter().copied().chain([WAL_FILE]).collect();
    let t0 = Instant::now();
    let mut table: BTreeMap<(Region, Outcome), usize> = BTreeMap::new();
    let mut bad: Vec<String> = Vec::new();
    let mut opens = 0usize;
    for &file in &targets {
        let len = seed_files[file].len();
        for at in 0..len {
            for bit in 0..8 {
                let mut files = seed_files.clone();
                files.get_mut(file).unwrap()[at] ^= 1 << bit;
                restore(work.path(), &files);
                let outcome = classify(work.path(), &files, &reference);
                opens += 1;
                let region = match (file == WAL_FILE, at < WAL_HEADER) {
                    (false, _) => Region::Segment,
                    (true, true) => Region::WalHeader,
                    (true, false) => Region::WalRecord,
                };
                *table.entry((region, outcome)).or_default() += 1;
                let allowed = match region {
                    Region::WalRecord => outcome == Outcome::PrefixWithWalError,
                    _ => matches!(outcome, Outcome::Lossless | Outcome::RefusedUnchanged),
                };
                if !allowed {
                    bad.push(format!("{file} byte {at} bit {bit}: {outcome:?}"));
                }
            }
        }
    }
    let bytes: usize = targets.iter().map(|f| seed_files[*f].len()).sum();
    println!(
        "recovery campaign: {} files, {bytes} bytes, {opens} opens, {:.2} s",
        targets.len(),
        t0.elapsed().as_secs_f64()
    );
    for ((region, outcome), n) in &table {
        println!("  {region:?} {outcome:?}: {n}");
    }
    assert_eq!(opens, bytes * 8);
    assert!(
        bad.is_empty(),
        "{} opens outside their class, first: {:?}",
        bad.len(),
        &bad[..bad.len().min(5)]
    );
}
