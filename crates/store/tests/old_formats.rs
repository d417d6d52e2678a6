//! Files of another format version are refused unless the log covers
//! them.
//!
//! `FMCOL001` block files and `FMWAL001` logs carried FNV-1a checksums;
//! this build reads only `FMCOL002` and `FMWAL002`. Opening an older
//! block file is a `StoreError::Format` naming the magic found and the
//! magic expected. A live directory is judged by the one recovery rule:
//! an older log, or an older segment the log does not cover, is refused
//! with that error and the directory is left byte-for-byte as it was;
//! an older *last* segment beside a current log that covers it is a
//! torn last file like any other and reopens with no row lost. The old
//! files are made by overwriting the first 8 bytes of freshly written
//! ones.

use std::collections::BTreeMap;
use std::path::Path;

use fastmatch_store::error::StoreError;
use fastmatch_store::file::{write_table, FileBackend};
use fastmatch_store::live::wal::WAL_FILE;
use fastmatch_store::live::{LiveTable, LiveTableConfig};
use fastmatch_store::schema::{AttrDef, Schema};
use fastmatch_store::table::Table;
use fastmatch_store::tempfile::{TempBlockDir, TempBlockFile};

fn schema() -> Schema {
    Schema::new(vec![AttrDef::new("z", 8), AttrDef::new("x", 16)])
}

/// Overwrites the first 8 bytes of the file at `path` with `magic`.
fn set_magic(path: &Path, magic: &[u8; 8]) {
    let mut bytes = std::fs::read(path).unwrap();
    bytes[..8].copy_from_slice(magic);
    std::fs::write(path, &bytes).unwrap();
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

/// Asserts `e` is a format error naming both magics.
fn names_both(e: StoreError, found: &str, expected: &str) {
    let StoreError::Format(msg) = e else {
        panic!("want a format error, got {e}");
    };
    assert!(
        msg.contains(found) && msg.contains(expected),
        "want {found} and {expected} named: {msg}"
    );
}

#[test]
fn an_fmcol001_block_file_is_refused_naming_both_magics() {
    let t = Table::new(schema(), vec![vec![1, 2, 3, 4, 5], vec![0, 9, 8, 7, 6]]);
    let scratch = TempBlockFile::new("old_block_file");
    write_table(scratch.path(), &t, 2).unwrap();
    FileBackend::open(scratch.path()).unwrap();
    set_magic(scratch.path(), b"FMCOL001");
    names_both(
        FileBackend::open(scratch.path()).unwrap_err(),
        "FMCOL001",
        "FMCOL002",
    );
}

/// A directory of three sealed segments, a log holding the last sealed
/// run and the 3-row tail, and a staging leftover recovery would sweep.
fn seed(dir: &Path) -> LiveTableConfig {
    let cfg = LiveTableConfig::default()
        .with_tuples_per_block(4)
        .with_blocks_per_segment(2)
        .with_coalesce_segments(1)
        .with_background_sealer(false)
        .with_wal_sync_every(1)
        .with_segment_dir(dir);
    let live = LiveTable::new(schema(), cfg.clone()).unwrap();
    for i in 0..27u32 {
        live.append_row(&[i % 8, (i * 5) % 16]).unwrap();
    }
    drop(live);
    std::fs::write(dir.join("segment-000003.fmb.tmp"), b"staging").unwrap();
    cfg
}

#[test]
fn a_live_directory_with_an_older_segment_or_log_is_refused_unchanged() {
    for (file, old, new) in [
        ("segment-000000.fmb", b"FMCOL001", "FMCOL002"),
        (WAL_FILE, b"FMWAL001", "FMWAL002"),
    ] {
        let dir = TempBlockDir::new("old_live_dir");
        let cfg = seed(dir.path());
        let current = std::fs::read(dir.path().join(file)).unwrap();
        set_magic(&dir.path().join(file), old);
        let before = contents(dir.path());
        let e = LiveTable::open(schema(), cfg.clone()).err().unwrap();
        names_both(e, std::str::from_utf8(old).unwrap(), new);
        assert!(
            before == contents(dir.path()),
            "{file}: the directory changed"
        );
        // Nothing was lost: with its magic back, the directory reopens
        // whole.
        std::fs::write(dir.path().join(file), &current).unwrap();
        let live = LiveTable::open(schema(), cfg).unwrap();
        assert_eq!(live.n_rows(), 27, "{file}");
        assert_eq!(live.stats().recovered_torn_segments, 0, "{file}");
        assert_eq!(live.stats().wal_errors, 0, "{file}");
    }
}

#[test]
fn an_older_last_segment_beside_a_covering_log_is_recovered_losslessly() {
    let dir = TempBlockDir::new("old_last_segment");
    let cfg = seed(dir.path());
    set_magic(&dir.path().join("segment-000002.fmb"), b"FMCOL001");
    let live = LiveTable::open(schema(), cfg.clone()).unwrap();
    assert_eq!(
        live.n_rows(),
        27,
        "the log's lag re-serves the last segment"
    );
    assert_eq!(live.stats().recovered_torn_segments, 1);
    let rows = live.snapshot().to_table().unwrap();
    for i in 0..27u32 {
        assert_eq!(rows.code(0, i as usize), i % 8, "row {i}");
        assert_eq!(rows.code(1, i as usize), (i * 5) % 16, "row {i}");
    }
    drop(live);
    // The replay re-sealed the segment in the current format.
    let live = LiveTable::open(schema(), cfg).unwrap();
    assert_eq!(live.n_rows(), 27);
    assert_eq!(live.stats().recovered_torn_segments, 0);
}

#[test]
fn a_segment_with_foreign_magic_bytes_is_still_torn_not_refused() {
    // Any damage to the last segment, a foreign magic included, is
    // recovered around when the log covers its rows.
    let dir = TempBlockDir::new("foreign_magic");
    let cfg = seed(dir.path());
    set_magic(&dir.path().join("segment-000002.fmb"), b"XXXXXXXX");
    let live = LiveTable::open(schema(), cfg).unwrap();
    assert_eq!(live.stats().recovered_torn_segments, 1);
    assert_eq!(
        live.n_rows(),
        27,
        "the WAL's lag re-serves the last segment"
    );
}
