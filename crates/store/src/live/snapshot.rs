//! Point-in-time snapshots of a [`crate::live::LiveTable`].
//!
//! A snapshot is the live table's unit of read isolation: a *watermark*
//! over the sealed segments (an `Arc` clone per segment — no data is
//! copied) plus a frozen copy of the active delta's tail (at most one
//! segment's worth of rows) and the exact per-attribute
//! [`BitmapIndex`]es covering precisely those rows. It implements
//! [`StorageBackend`], so everything built on the reading contract —
//! all four executors, [`crate::io::BlockReader`], run reads, the
//! engine's query service — runs over a snapshot **unchanged**, while
//! writers keep appending to the live table underneath.
//!
//! Consistency argument: every sealed segment is immutable from the
//! moment it is frozen, the tail is copied under the same lock that
//! serializes appends, and the bitmaps are frozen from the same locked
//! state — so a snapshot is a *prefix of the append order*, bit-for-bit
//! equal to the table a serial writer would have produced after the
//! same rows, and never observes a torn row or a half-published
//! segment. The `Mem → File` swap the sealer performs afterwards never
//! touches a snapshot: it holds its own `Arc`s.
//!
//! Segments are *variable-sized* in blocks: the sealer may coalesce a
//! run of adjacent deltas into one file, so a snapshot carries the
//! block offset where each entry starts (`seg_starts`) instead of
//! assuming one fixed segment width.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::backend::{BlockVisitor, PageOrigin, StorageBackend};
use crate::bitmap::BitmapIndex;
use crate::block::BlockLayout;
use crate::error::Result;
use crate::live::segment::SegmentEntry;
use crate::schema::Schema;
use crate::table::Table;

/// Accounting token charged against a live table's
/// `pinned_snapshot_bytes` gauge for the in-memory bytes one snapshot
/// keeps alive (frozen-but-unsealed segments plus its tail copy).
/// Shared by all clones of the snapshot — the charge is released once,
/// when the last clone drops, even if the table is already gone.
#[derive(Debug)]
pub(crate) struct SnapshotPin {
    bytes: u64,
    gauge: Arc<AtomicU64>,
}

impl SnapshotPin {
    pub(crate) fn new(bytes: u64, gauge: Arc<AtomicU64>) -> Self {
        gauge.fetch_add(bytes, Ordering::Relaxed);
        SnapshotPin { bytes, gauge }
    }
}

impl Drop for SnapshotPin {
    fn drop(&mut self) {
        self.gauge.fetch_sub(self.bytes, Ordering::Relaxed);
    }
}

/// Maps a global sealed block id to the index of the segment that owns
/// it. `seg_starts` is a snapshot's block-offset table — one start per
/// segment plus a total-blocks sentinel, strictly increasing (see
/// [`crate::live::build_seg_starts`]) — and `b` must be below the
/// sentinel. Extracted so `Snapshot::locate` and the
/// `live_lifecycle` model in `fastmatch-check` resolve blocks with the
/// same arithmetic (invariant `snapshot-is-prefix`).
pub fn locate_segment(seg_starts: &[usize], b: usize) -> usize {
    debug_assert!(seg_starts.len() >= 2, "seg_starts carries a sentinel");
    debug_assert!(b < *seg_starts.last().unwrap_or(&0), "block is sealed");
    seg_starts.partition_point(|&s| s <= b) - 1
}

/// A consistent, immutable view of a live table at one instant; see the
/// [module docs](self). Cheap to clone relative to the data: segments
/// are shared by `Arc`, only the tail columns and bitmaps are owned.
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub(crate) schema: Schema,
    pub(crate) tuples_per_block: usize,
    pub(crate) entries: Vec<SegmentEntry>,
    /// Block offset where each entry starts, plus one sentinel equal to
    /// the total sealed block count (`entries.len() + 1` elements;
    /// strictly increasing). Entries span differing block counts once
    /// the sealer has coalesced deltas.
    pub(crate) seg_starts: Vec<usize>,
    /// Rows covered by `entries`.
    pub(crate) sealed_rows: usize,
    /// Frozen copy of the active delta at snapshot time (one column per
    /// attribute; all rows past `sealed_rows`).
    pub(crate) tail: Vec<Vec<u32>>,
    pub(crate) n_rows: usize,
    /// Blocks covering `n_rows` (sealed + tail), fixed at snapshot time.
    pub(crate) num_blocks: usize,
    /// Exact presence indexes over this snapshot's rows, one per
    /// attribute, shared so a service can hand them to `'static` tasks.
    pub(crate) bitmaps: Vec<Arc<BitmapIndex>>,
    /// Retention accounting; see [`SnapshotPin`].
    pub(crate) pin: Arc<SnapshotPin>,
}

impl Snapshot {
    /// Rows in this snapshot (sealed + tail).
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Rows covered by sealed segments (the snapshot's watermark).
    pub fn sealed_rows(&self) -> usize {
        self.sealed_rows
    }

    /// Rows in the frozen tail (appended but not yet sealed at snapshot
    /// time).
    pub fn tail_rows(&self) -> usize {
        self.n_rows - self.sealed_rows
    }

    /// Sealed segments visible to this snapshot. A coalesced seal
    /// merges several deltas into one segment, so this can be smaller
    /// than the number of deltas frozen.
    pub fn num_segments(&self) -> usize {
        self.entries.len()
    }

    /// In-memory bytes this snapshot is charged for in its parent
    /// table's `pinned_snapshot_bytes` gauge.
    pub fn pinned_bytes(&self) -> u64 {
        self.pin.bytes
    }

    /// The exact per-(value, block) presence index of one attribute,
    /// frozen at snapshot time under the append lock — equal to
    /// [`BitmapIndex::build`] over the materialized snapshot.
    pub fn bitmap(&self, attr: usize) -> &BitmapIndex {
        &self.bitmaps[attr]
    }

    /// Shared-ownership form of [`Self::bitmap`], for `'static` query
    /// jobs that must co-own their index.
    pub fn bitmap_arc(&self, attr: usize) -> Arc<BitmapIndex> {
        Arc::clone(&self.bitmaps[attr])
    }

    /// Materializes the snapshot into one in-memory [`Table`] — the
    /// "frozen copy at the same watermark" that consistency tests
    /// compare executor runs against. Reads every sealed page (and so
    /// can fail on storage errors).
    pub fn to_table(&self) -> Result<Table> {
        let mut columns: Vec<Vec<u32>> = (0..self.schema.len())
            .map(|_| Vec::with_capacity(self.n_rows))
            .collect();
        let mut buf = Vec::new();
        for (attr, col) in columns.iter_mut().enumerate() {
            for (i, entry) in self.entries.iter().enumerate() {
                match entry {
                    SegmentEntry::Mem(t) => col.extend_from_slice(t.column(attr)),
                    SegmentEntry::File(be) => {
                        for b in 0..self.seg_starts[i + 1] - self.seg_starts[i] {
                            be.read_block_into(b, attr, &mut buf)?;
                            col.extend_from_slice(&buf);
                        }
                    }
                }
            }
            col.extend_from_slice(&self.tail[attr]);
        }
        Ok(Table::new(self.schema.clone(), columns))
    }

    /// Total sealed blocks (block offset where the tail begins).
    fn sealed_blocks(&self) -> usize {
        *self.seg_starts.last().expect("seg_starts has a sentinel")
    }

    /// Maps a global block id to its location.
    fn locate(&self, b: usize) -> BlockHome<'_> {
        if b < self.sealed_blocks() {
            let seg = locate_segment(&self.seg_starts, b);
            BlockHome::Segment {
                entry: &self.entries[seg],
                local: b - self.seg_starts[seg],
            }
        } else {
            let start = b * self.tuples_per_block - self.sealed_rows;
            let end = ((b + 1) * self.tuples_per_block).min(self.n_rows) - self.sealed_rows;
            BlockHome::Tail { rows: start..end }
        }
    }
}

enum BlockHome<'s> {
    Segment {
        entry: &'s SegmentEntry,
        local: usize,
    },
    Tail {
        rows: Range<usize>,
    },
}

impl StorageBackend for Snapshot {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn layout(&self) -> BlockLayout {
        BlockLayout::new(self.n_rows, self.tuples_per_block)
    }

    fn read_block_into(&self, b: usize, attr: usize, out: &mut Vec<u32>) -> Result<PageOrigin> {
        assert!(attr < self.schema.len(), "attribute {attr} out of range");
        assert!(b < self.num_blocks, "block {b} out of range");
        match self.locate(b) {
            BlockHome::Segment {
                entry: SegmentEntry::Mem(t),
                local,
            } => {
                let tpb = self.tuples_per_block;
                out.clear();
                out.extend_from_slice(&t.column(attr)[local * tpb..(local + 1) * tpb]);
                Ok(PageOrigin::Memory)
            }
            BlockHome::Segment {
                entry: SegmentEntry::File(be),
                local,
            } => be.read_block_into(local, attr, out),
            BlockHome::Tail { rows } => {
                out.clear();
                out.extend_from_slice(&self.tail[attr][rows]);
                Ok(PageOrigin::Memory)
            }
        }
    }

    fn read_run_pair_into(
        &self,
        blocks: Range<usize>,
        z_attr: usize,
        x_attr: usize,
        zs: &mut Vec<u32>,
        xs: &mut Vec<u32>,
        visit: &mut BlockVisitor<'_>,
    ) -> Result<bool> {
        assert!(blocks.end <= self.num_blocks, "run {blocks:?} out of range");
        // Forward the run piecewise to whatever it spans: file segments
        // serve their part as a run of their own (local block ids), and
        // in-memory segments and the tail lend their columns directly.
        let tpb = self.tuples_per_block;
        let mut b = blocks.start;
        while b < blocks.end {
            let seg = (b < self.sealed_blocks()).then(|| locate_segment(&self.seg_starts, b));
            let piece_end = seg.map_or(blocks.end, |i| self.seg_starts[i + 1].min(blocks.end));
            let (z, x, first_row) = match seg.map(|i| (&self.entries[i], self.seg_starts[i])) {
                Some((SegmentEntry::File(be), start)) => {
                    let local = b - start..piece_end - start;
                    let mut globalize = |lb: usize, zs: &[u32], xs: &[u32], origins| {
                        visit(lb + start, zs, xs, origins)
                    };
                    if !be.read_run_pair_into(local, z_attr, x_attr, zs, xs, &mut globalize)? {
                        return Ok(false);
                    }
                    b = piece_end;
                    continue;
                }
                Some((SegmentEntry::Mem(t), start)) => {
                    (t.column(z_attr), t.column(x_attr), start * tpb)
                }
                None => (
                    self.tail[z_attr].as_slice(),
                    self.tail[x_attr].as_slice(),
                    self.sealed_rows,
                ),
            };
            for b in b..piece_end {
                let rows = b * tpb - first_row..((b + 1) * tpb).min(self.n_rows) - first_row;
                if !visit(b, &z[rows.clone()], &x[rows], [PageOrigin::Memory; 2]) {
                    return Ok(false);
                }
            }
            b = piece_end;
        }
        Ok(true)
    }
}
