//! Live-table integration: snapshot isolation under concurrent append
//! load — the soak test CI runs with fixed seeds — plus the crash side
//! of the storage lifecycle: injected torn segments and corrupt WAL
//! tails must recover every durable row with exact accounting, and
//! compaction must be invisible to readers (blockwise bit-identical
//! snapshots) while bounding the segment-file count.
//!
//! The unit tests inside `live/` cover the mechanics (segment rolls,
//! sealing, bitmap freezing). These tests attack the *concurrency
//! contract*: a snapshot taken at any instant, with appenders running
//! full speed and segments sealing underneath, is a consistent prefix
//! of the append order — per-appender subsequences intact, bitmaps
//! exact, sealed and in-memory representations indistinguishable.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};

use fastmatch_store::backend::StorageBackend;
use fastmatch_store::bitmap::BitmapIndex;
use fastmatch_store::live::wal::WAL_FILE;
use fastmatch_store::live::{LiveTable, LiveTableConfig, Snapshot};
use fastmatch_store::schema::{AttrDef, Schema};
use fastmatch_store::table::Table;
use fastmatch_store::tempfile::TempBlockDir;

/// Appender `w`'s `i`-th row: `z` carries the appender id, `x` the
/// position in a per-appender deterministic payload sequence — so any
/// snapshot can be checked for *per-appender prefix consistency*: the
/// `x` codes of appender `w`'s rows, in snapshot order, must equal the
/// first `n_w` elements of `w`'s payload sequence.
fn payload(w: u32, i: u64) -> u32 {
    ((i as u32).wrapping_mul(5).wrapping_add(w * 3)) % 16
}

fn soak_schema() -> Schema {
    Schema::new(vec![AttrDef::new("who", 8), AttrDef::new("seq", 16)])
}

/// Runs the soak under one configuration and returns the table for
/// configuration-specific follow-up assertions (the soak itself checks
/// that the final snapshot saw every appended row).
fn run_soak(cfg: LiveTableConfig, appenders: u32, rows_each: u64, batch: usize) -> LiveTable {
    let live = LiveTable::new(soak_schema(), cfg).unwrap();
    let stop_snapshots = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let appender_handles: Vec<_> = (0..appenders)
            .map(|w| {
                let live = &live;
                scope.spawn(move || {
                    let mut i = 0u64;
                    while i < rows_each {
                        let take = (batch as u64).min(rows_each - i) as usize;
                        let who = vec![w; take];
                        let seq: Vec<u32> = (0..take as u64).map(|j| payload(w, i + j)).collect();
                        live.append_batch(&[who, seq]).unwrap();
                        i += take as u64;
                    }
                })
            })
            .collect();
        // Snapshot queriers racing the appenders: every snapshot must be
        // per-appender prefix-consistent and bitmap-exact.
        for q in 0..2 {
            let live = &live;
            let stop = &stop_snapshots;
            scope.spawn(move || {
                let mut checked = 0usize;
                while !stop.load(Ordering::Relaxed) || checked == 0 {
                    let snap = live.snapshot();
                    let t = snap.to_table().unwrap();
                    let mut next: Vec<u64> = vec![0; 8];
                    for r in 0..t.n_rows() {
                        let w = t.code(0, r);
                        let x = t.code(1, r);
                        let i = next[w as usize];
                        assert_eq!(
                            x,
                            payload(w, i),
                            "querier {q}: appender {w} row {i} out of order at snapshot row {r}"
                        );
                        next[w as usize] += 1;
                    }
                    // Batches are atomic: each appender's visible count is
                    // a whole number of batches, except its final partial.
                    for (w, &n) in next.iter().enumerate() {
                        assert!(
                            n % batch as u64 == 0 || n == rows_each,
                            "querier {q}: appender {w} shows {n} rows (batch {batch})"
                        );
                    }
                    // Bitmap exactness on a sampled block.
                    let layout = snap.layout();
                    if layout.num_blocks() > 0 {
                        let b = checked % layout.num_blocks();
                        for v in 0..8u32 {
                            let truth = layout.rows_of_block(b).any(|r| t.code(0, r) == v);
                            assert_eq!(snap.bitmap(0).block_has(v, b), truth, "v {v} block {b}");
                        }
                    }
                    checked += 1;
                }
                assert!(checked > 0);
            });
        }
        // Keep the queriers snapshotting for the appenders' whole
        // lifetime, then release them.
        for h in appender_handles {
            h.join().unwrap();
        }
        stop_snapshots.store(true, Ordering::Relaxed);
    });
    let final_snap = live.snapshot();
    let t = final_snap.to_table().unwrap();
    assert_eq!(t.n_rows() as u64, appenders as u64 * rows_each);
    // Final multiset: every appender contributed its full sequence.
    let mut counts = [0u64; 8];
    for r in 0..t.n_rows() {
        counts[t.code(0, r) as usize] += 1;
    }
    for (w, &count) in counts.iter().enumerate().take(appenders as usize) {
        assert_eq!(count, rows_each, "appender {w} lost rows");
    }
    live
}

#[test]
fn soak_memory_only() {
    let cfg = LiveTableConfig::default()
        .with_tuples_per_block(32)
        .with_blocks_per_segment(4);
    run_soak(cfg, 4, 3_000, 37);
}

#[test]
fn soak_with_background_sealing() {
    let dir = TempBlockDir::new("live_soak_bg");
    let cfg = LiveTableConfig::default()
        .with_tuples_per_block(32)
        .with_blocks_per_segment(4)
        .with_segment_dir(dir.path());
    let live = run_soak(cfg, 4, 3_000, 41);
    assert_eq!(live.n_rows(), 12_000);
}

#[test]
fn soak_with_inline_sealing() {
    let dir = TempBlockDir::new("live_soak_inline");
    let cfg = LiveTableConfig::default()
        .with_tuples_per_block(32)
        .with_blocks_per_segment(4)
        .with_segment_dir(dir.path())
        .with_background_sealer(false);
    run_soak(cfg, 3, 2_000, 29);
}

/// Sealed (file) and in-memory segments must be indistinguishable to a
/// reader: force both representations for the *same* data and compare
/// blockwise, bitmaps included.
#[test]
fn sealed_and_memory_views_are_bit_identical() {
    let dir = TempBlockDir::new("live_views");
    let mk = |persist: bool| {
        let mut cfg = LiveTableConfig::default()
            .with_tuples_per_block(16)
            .with_blocks_per_segment(3)
            .with_background_sealer(false);
        if persist {
            cfg = cfg.with_segment_dir(dir.path());
        }
        let live = LiveTable::new(soak_schema(), cfg).unwrap();
        for i in 0..500u64 {
            live.append_row(&[(i % 8) as u32, payload((i % 8) as u32, i)])
                .unwrap();
        }
        live
    };
    let persisted = mk(true);
    let memory = mk(false);
    assert!(persisted.stats().persisted_segments > 0);
    assert_eq!(memory.stats().persisted_segments, 0);
    let (sp, sm) = (persisted.snapshot(), memory.snapshot());
    assert_eq!(sp.n_rows(), sm.n_rows());
    let layout = sp.layout();
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for attr in 0..2 {
        for blk in 0..layout.num_blocks() {
            sp.read_block_into(blk, attr, &mut a).unwrap();
            sm.read_block_into(blk, attr, &mut b).unwrap();
            assert_eq!(a, b, "attr {attr} block {blk}");
        }
    }
}

/// Compaction racing the soak: appenders, snapshot queriers, the
/// background sealer *and* the background compactor all run at once.
/// Every snapshot the queriers take is prefix-checked row by row
/// through the block-read path (`to_table` goes through
/// `read_block_into` for file-backed entries), so a compaction swap
/// that tore, reordered or duplicated rows would fail the soak — this
/// is the blockwise-equivalence half of the compaction contract. The
/// second half is the bound: after the dust settles, one explicit
/// drive caps the file count at the fan-in.
#[test]
fn soak_with_compaction_is_invisible_to_readers_and_bounds_files() {
    let dir = TempBlockDir::new("live_soak_compact");
    let fan_in = 3;
    let cfg = LiveTableConfig::default()
        .with_tuples_per_block(32)
        .with_blocks_per_segment(4)
        .with_coalesce_segments(1) // many small files → compaction pressure
        .with_segment_dir(dir.path())
        .with_compaction(fan_in);
    let live = run_soak(cfg.clone(), 3, 2_000, 43);
    // The sealer runs behind the appenders; let it drain so compaction
    // has the full file set to work with.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while live.stats().persisted_segments < live.stats().frozen_segments {
        assert!(
            std::time::Instant::now() < deadline,
            "sealer never drained: {:?}",
            live.stats()
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    live.compact_now();
    let stats = live.stats();
    assert!(stats.compactions > 0, "compactor never ran: {stats:?}");
    assert!(
        stats.compacted_segments >= 2 * stats.compactions,
        "every compaction merges at least two members: {stats:?}"
    );
    assert!(
        stats.snapshots > 0,
        "the soak's readers pin snapshots: {stats:?}"
    );
    assert_eq!(stats.compact_errors, 0, "{stats:?}");
    assert_eq!(stats.seal_errors, 0, "{stats:?}");
    assert!(
        live.num_segment_files() <= fan_in,
        "{} files exceed fan-in {fan_in}",
        live.num_segment_files()
    );
    // Compaction + clean shutdown + recovery round-trips the exact
    // table: the reopened state is bit-identical, rows in append order.
    let reference = live.snapshot().to_table().unwrap();
    drop(live);
    let reopened = LiveTable::open(soak_schema(), cfg).unwrap();
    let recovered = reopened.snapshot().to_table().unwrap();
    assert_eq!(recovered.n_rows(), reference.n_rows());
    for attr in 0..2 {
        assert_eq!(
            recovered.column(attr),
            reference.column(attr),
            "attr {attr}"
        );
    }
}

// ---------------------------------------------------------------- crashes

/// Copies every regular file of `src` into the fresh directory `dst` —
/// the "frozen at the crash instant" disk image the recovery tests
/// mutilate, so each injection starts from the same durable state.
fn clone_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

/// Asserts a recovered table is exactly the first `n_rows` of the
/// pre-crash reference — same order, every column.
fn assert_is_prefix(recovered: &Table, reference: &Table) {
    let n = recovered.n_rows();
    assert!(n <= reference.n_rows(), "recovered {n} rows > reference");
    for attr in 0..reference.schema().len() {
        assert_eq!(
            recovered.column(attr),
            &reference.column(attr)[..n],
            "attr {attr} diverges from the durable prefix"
        );
    }
}

/// Asserts a snapshot's frozen bitmaps equal scan-built indexes over
/// its materialization, for every attribute and value: block bits,
/// per-value block counts and per-value row counts. After a recovery
/// this pins that a segment's codes are folded in only once it has
/// verified whole: a torn segment folded before its rows replay from
/// the WAL would count those rows twice.
fn assert_indexes_exact(snap: &Snapshot) {
    let t = snap.to_table().unwrap();
    let layout = snap.layout();
    for attr in 0..t.schema().len() {
        let want = BitmapIndex::build(&t, attr, &layout);
        let got = snap.bitmap(attr);
        assert_eq!(got.num_values(), want.num_values());
        for v in 0..got.num_values() as u32 {
            for blk in 0..layout.num_blocks() {
                assert_eq!(
                    got.block_has(v, blk),
                    want.block_has(v, blk),
                    "attr {attr} v {v}"
                );
            }
            assert_eq!(
                got.blocks_with_value(v),
                want.blocks_with_value(v),
                "attr {attr} v {v}"
            );
            assert_eq!(
                got.rows_with_value(v),
                want.rows_with_value(v),
                "attr {attr} v {v}"
            );
        }
    }
}

/// Seeds a small fully-durable table (inline sealer, per-record WAL
/// fsync) on disk, returns its config and the pre-crash reference.
fn seed_crash_table(dir: &Path, rows: u64) -> (LiveTableConfig, Table) {
    let cfg = LiveTableConfig::default()
        .with_tuples_per_block(4)
        .with_blocks_per_segment(2)
        .with_coalesce_segments(1)
        .with_background_sealer(false)
        .with_wal_sync_every(1)
        .with_segment_dir(dir);
    let live = LiveTable::new(soak_schema(), cfg.clone()).unwrap();
    for i in 0..rows {
        let w = (i % 8) as u32;
        live.append_row(&[w, payload(w, i)]).unwrap();
    }
    let reference = live.snapshot().to_table().unwrap();
    assert!(
        live.stats().wal_syncs >= rows,
        "per-record fsync cadence: every append syncs the WAL"
    );
    drop(live);
    (cfg, reference)
}

/// Truncates a file to half its length.
fn tear_in_half(path: &Path) {
    let len = std::fs::metadata(path).unwrap().len();
    std::fs::File::options()
        .write(true)
        .open(path)
        .unwrap()
        .set_len(len / 2)
        .unwrap();
}

/// Flips one code byte of a block file's last page (the page's
/// checksum is the file's final 8 bytes), leaving every earlier page
/// intact.
fn rot_last_page(path: &Path) {
    let mut bytes = std::fs::read(path).unwrap();
    let at = bytes.len() - 12;
    bytes[at] ^= 0x01;
    std::fs::write(path, &bytes).unwrap();
}

/// Crash injection, part 1: the *last segment file* is torn mid-page
/// (rename completed but the sectors behind it were lost) or, in a
/// second image, has one rotten byte in its last page. The WAL's
/// lag-one rotation keeps the newest sealed run's rows in the log, so
/// recovery must still produce **every** appended row: the damaged file
/// is detected, counted, skipped, and its rows replayed from the WAL.
/// In the rotten image every page before the last decodes, so the
/// index check also catches a fold of the file's codes before the
/// whole file has verified.
#[test]
fn recovery_survives_a_torn_last_segment_with_nothing_lost() {
    let seed = TempBlockDir::new("crash_torn_seed");
    // 27 rows → segments 0..=2 on disk (24 rows), 3 in the memtable;
    // WAL base lags one run (16), covering rows 16..27.
    let (cfg, reference) = seed_crash_table(seed.path(), 27);
    for (name, damage) in [("torn", tear_in_half as fn(&Path)), ("rot", rot_last_page)] {
        let crash = TempBlockDir::new(&format!("crash_{name}_img"));
        clone_dir(seed.path(), crash.path());
        damage(&crash.path().join("segment-000002.fmb"));

        let cfg = cfg.clone().with_segment_dir(crash.path());
        let live = LiveTable::open(soak_schema(), cfg).unwrap();
        let stats = live.stats();
        assert_eq!(stats.recovered_torn_segments, 1, "{name}: {stats:?}");
        assert_eq!(stats.wal_errors, 0, "{name}: {stats:?}");
        assert_eq!(
            stats.recovered_rows, 11,
            "{name}: rows 16..27 replay from the WAL"
        );
        assert_eq!(
            live.n_rows(),
            27,
            "{name}: the damaged segment cost nothing"
        );
        let snap = live.snapshot();
        let recovered = snap.to_table().unwrap();
        assert_eq!(recovered.n_rows(), reference.n_rows());
        assert_is_prefix(&recovered, &reference);
        assert_indexes_exact(&snap);
    }
}

/// Crash injection, part 2: the WAL itself is damaged — truncated
/// mid-record and, separately, a flipped byte in a record body. Both
/// must be *detected* (checksum, counted in `wal_errors`), recovery
/// must keep every sealed row plus the intact WAL prefix, and the
/// result must be an exact prefix of the pre-crash table. Never a
/// panic, never a torn or invented row.
#[test]
fn recovery_survives_a_corrupt_wal_tail_with_exact_accounting() {
    let seed = TempBlockDir::new("crash_wal_seed");
    let (cfg, reference) = seed_crash_table(seed.path(), 27);

    // Truncation: chop 5 bytes off the end — the final one-row record
    // is torn, everything before it replays.
    let trunc = TempBlockDir::new("crash_wal_trunc");
    clone_dir(seed.path(), trunc.path());
    let wal = trunc.path().join(WAL_FILE);
    let len = std::fs::metadata(&wal).unwrap().len();
    std::fs::File::options()
        .write(true)
        .open(&wal)
        .unwrap()
        .set_len(len - 5)
        .unwrap();
    let live = LiveTable::open(soak_schema(), cfg.clone().with_segment_dir(trunc.path())).unwrap();
    let stats = live.stats();
    assert!(
        stats.wal_errors >= 1,
        "torn tail must be counted: {stats:?}"
    );
    assert_eq!(stats.recovered_torn_segments, 0, "{stats:?}");
    assert_eq!(live.n_rows(), 26, "only the torn final record is lost");
    let snap = live.snapshot();
    assert_is_prefix(&snap.to_table().unwrap(), &reference);
    assert_indexes_exact(&snap);
    drop(live);

    // Corruption: flip one byte deep in the record region. The damaged
    // record fails its checksum; replay keeps the prefix before it and
    // counts the fault. Sealed rows (0..24) are untouched either way.
    let flip = TempBlockDir::new("crash_wal_flip");
    clone_dir(seed.path(), flip.path());
    let wal = flip.path().join(WAL_FILE);
    let mut bytes = std::fs::read(&wal).unwrap();
    let at = bytes.len() * 3 / 4;
    bytes[at] ^= 0x40;
    std::fs::write(&wal, &bytes).unwrap();
    let live = LiveTable::open(soak_schema(), cfg.with_segment_dir(flip.path())).unwrap();
    let stats = live.stats();
    assert!(
        stats.wal_errors >= 1,
        "corruption must be counted: {stats:?}"
    );
    let n = live.n_rows();
    assert!(
        (24..27).contains(&n),
        "sealed rows survive, the corrupt tail does not: {n}"
    );
    let snap = live.snapshot();
    assert_is_prefix(&snap.to_table().unwrap(), &reference);
    assert_indexes_exact(&snap);
}

/// Crash injection, part 3 — the exhaustive sweep: a WAL-only table
/// (nothing sealed) truncated at **every possible byte length**. For
/// each cut inside the records the recovered table must be exactly the
/// longest run of whole records that fits — never a panic, never a row
/// beyond the durable prefix, never a lost row before it, and a counted
/// fault whenever the cut lands mid-record. A cut inside the header
/// leaves a log that cannot be read; the log is only ever installed
/// whole (temp file, fsync, rename), so that is damage, not a crash
/// artifact, and `open` refuses it, naming the log, with the directory
/// unchanged.
#[test]
fn wal_truncated_at_every_byte_recovers_the_exact_durable_prefix() {
    let seed = TempBlockDir::new("crash_sweep_seed");
    let rows = 20u64;
    let cfg = LiveTableConfig::default()
        .with_tuples_per_block(8)
        .with_blocks_per_segment(64) // 512 rows/segment: nothing seals
        .with_background_sealer(false)
        .with_wal_sync_every(1)
        .with_segment_dir(seed.path());
    let live = LiveTable::new(soak_schema(), cfg.clone()).unwrap();
    for i in 0..rows {
        let w = (i % 8) as u32;
        live.append_row(&[w, payload(w, i)]).unwrap();
    }
    let reference = live.snapshot().to_table().unwrap();
    drop(live);
    let image = std::fs::read(seed.path().join(WAL_FILE)).unwrap();

    // WAL geometry (checked, so the sweep's expectations stay honest):
    // 28-byte header, then per append_row one record of
    // 4 (n_rows) + 2 attrs × 4 (codes) + 8 (checksum) = 20 bytes.
    const HEADER: usize = 28;
    const RECORD: usize = 20;
    assert_eq!(image.len(), HEADER + rows as usize * RECORD);

    let dir = TempBlockDir::new("crash_sweep_img");
    for cut in 0..=image.len() {
        let img = dir.path().join(format!("cut-{cut:03}"));
        std::fs::create_dir_all(&img).unwrap();
        std::fs::write(img.join(WAL_FILE), &image[..cut]).unwrap();
        let opened = LiveTable::open(soak_schema(), cfg.clone().with_segment_dir(&img));
        if cut < HEADER {
            let e = opened
                .err()
                .unwrap_or_else(|| panic!("cut at byte {cut}: opened"));
            assert!(e.to_string().contains(WAL_FILE), "cut at byte {cut}: {e}");
            assert_eq!(std::fs::read(img.join(WAL_FILE)).unwrap(), &image[..cut]);
            continue;
        }
        let live = opened.unwrap();
        let want = ((cut - HEADER) / RECORD).min(rows as usize);
        assert_eq!(live.n_rows() as usize, want, "cut at byte {cut}");
        let whole = (cut - HEADER).is_multiple_of(RECORD);
        assert_eq!(
            live.stats().wal_errors >= 1,
            !whole,
            "cut at byte {cut}: a partial header or record is a counted fault"
        );
        assert_is_prefix(&live.snapshot().to_table().unwrap(), &reference);
    }
}

/// A snapshot's frozen bitmap equals a scan-built index over its
/// materialization — bits, per-value block and row counts — under
/// ongoing appends, for every attribute.
#[test]
fn snapshot_bitmaps_are_exact_under_load() {
    let live = LiveTable::new(
        soak_schema(),
        LiveTableConfig::default()
            .with_tuples_per_block(16)
            .with_blocks_per_segment(2),
    )
    .unwrap();
    std::thread::scope(|scope| {
        let handle = {
            let live = &live;
            scope.spawn(move || {
                for i in 0..4_000u64 {
                    let w = (i % 8) as u32;
                    live.append_row(&[w, payload(w, i)]).unwrap();
                }
            })
        };
        for _ in 0..10 {
            assert_indexes_exact(&live.snapshot());
        }
        handle.join().unwrap();
    });
}
