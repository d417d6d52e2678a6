//! Teardown-order hazards: the store's two nontrivial `Drop` impls
//! (`LiveTable` → sealer hangup-and-join, `SnapshotPin` → gauge release)
//! exercised at their worst moments — mid-seal, with clones racing
//! drops, and with the snapshot outliving its table.

use std::sync::atomic::{AtomicUsize, Ordering};

use fastmatch_store::backend::StorageBackend;
use fastmatch_store::file::FileBackend;
use fastmatch_store::live::wal::WAL_FILE;
use fastmatch_store::live::{LiveTable, LiveTableConfig};
use fastmatch_store::schema::{AttrDef, Schema};
use fastmatch_store::tempfile::TempBlockDir;

fn schema() -> Schema {
    Schema::new(vec![AttrDef::new("z", 6), AttrDef::new("x", 4)])
}

fn row_of(k: u64) -> [u32; 2] {
    [(k % 6) as u32, ((k * 7) % 4) as u32]
}

/// Dropping a live table while the background sealer still holds
/// queued jobs must hang up, join, and leave no half-written segment
/// file behind: every segment file must reopen clean (the WAL is not
/// a block file — recovery, not `FileBackend`, reads it), and the
/// directory as a whole must reopen with every appended row.
#[test]
fn live_table_drop_mid_seal_leaves_only_complete_segments() {
    for round in 0..8 {
        let dir = TempBlockDir::new(&format!("drop_mid_seal_{round}"));
        let path = dir.path().to_path_buf();
        let cfg = LiveTableConfig::default()
            .with_tuples_per_block(4)
            .with_blocks_per_segment(2)
            .with_segment_dir(&path)
            .with_background_sealer(true);
        {
            let lt = LiveTable::new(schema(), cfg.clone()).unwrap();
            // 10 full deltas: the sealer cannot possibly have drained
            // them all by the time we drop.
            for k in 0..80u64 {
                lt.append_row(&row_of(k)).unwrap();
            }
        } // <- drop while seal jobs are queued / in flight
        for entry in std::fs::read_dir(&path).unwrap() {
            let file = entry.unwrap().path();
            if file.file_name().is_some_and(|n| n == WAL_FILE) {
                continue;
            }
            let be = FileBackend::open(&file)
                .unwrap_or_else(|e| panic!("{} is torn after drop: {e}", file.display()));
            assert!(be.n_rows() > 0);
        }
        let reopened = LiveTable::open(schema(), cfg).unwrap();
        assert_eq!(reopened.n_rows(), 80, "clean drop must persist every row");
    }
}

/// Snapshot clones share one pin; concurrent clone/drop churn from
/// many threads must release the gauge exactly once per snapshot —
/// back to zero, no double release (underflow would wrap the gauge to
/// huge values).
#[test]
fn snapshot_pin_balances_under_concurrent_clone_drop() {
    let lt = LiveTable::new(
        schema(),
        LiveTableConfig::default()
            .with_tuples_per_block(4)
            .with_blocks_per_segment(2),
    )
    .unwrap();
    for k in 0..20u64 {
        lt.append_row(&row_of(k)).unwrap();
    }
    let expected = lt.snapshot().pinned_bytes();
    assert_eq!(lt.stats().pinned_snapshot_bytes, 0);
    let churns = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let lt = &lt;
            let churns = &churns;
            scope.spawn(move || {
                for _ in 0..50 {
                    let snap = lt.snapshot();
                    let clones: Vec<_> = (0..3).map(|_| snap.clone()).collect();
                    assert_eq!(snap.pinned_bytes(), expected);
                    drop(snap);
                    drop(clones);
                    churns.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(churns.load(Ordering::Relaxed), 200);
    assert_eq!(
        lt.stats().pinned_snapshot_bytes,
        0,
        "every pin must be released exactly once"
    );
}

/// A snapshot must outlive its table: the pin's gauge is shared by
/// `Arc`, so the late drop writes to a gauge nobody reads — not to
/// freed memory, and without panicking.
#[test]
fn snapshot_outlives_dropped_table() {
    let snap = {
        let lt = LiveTable::new(
            schema(),
            LiveTableConfig::default()
                .with_tuples_per_block(4)
                .with_blocks_per_segment(2),
        )
        .unwrap();
        for k in 0..13u64 {
            lt.append_row(&row_of(k)).unwrap();
        }
        lt.snapshot()
    }; // table (and sealer) gone
    assert_eq!(snap.n_rows(), 13);
    let t = snap.to_table().unwrap();
    for r in 0..13u64 {
        assert_eq!(t.code(0, r as usize), row_of(r)[0]);
        assert_eq!(t.code(1, r as usize), row_of(r)[1]);
    }
    let clone = snap.clone();
    drop(snap);
    drop(clone); // final pin release hits the orphaned gauge
}
