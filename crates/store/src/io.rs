//! The block I/O manager (paper §4.1).
//!
//! All data access goes through [`BlockReader`], which services requests at
//! block granularity and accounts for what was read versus skipped. A
//! reader runs over any [`StorageBackend`]: the in-memory table view (the
//! seed regime, with an optional simulated per-block latency so the
//! relative cost of I/O versus decision-making can be studied on fast
//! in-memory data) or a real backend such as
//! [`crate::file::FileBackend`], where block reads are disk reads through
//! a bounded cache and can fail ([`BlockReader::try_block_slices`]).
//!
//! Blocks are requested one at a time ([`BlockReader::try_block_slices`],
//! for executors that decide block by block) or as a contiguous **run**
//! ([`BlockReader::read_run`], for executors that marked a window ahead
//! of reading it). A run delivers the same blocks, in the same order,
//! with the same accounting — [`IoStats::blocks_read`] counts blocks
//! *delivered* to the visitor, the page counters count two pages per
//! delivered block — but lets a backend fetch them together, a chunk of
//! blocks per read call, instead of one block at a time.

use std::ops::Range;
use std::sync::Arc;

use crate::backend::{MemBackend, PageOrigin, StorageBackend};
use crate::block::BlockLayout;
use crate::error::Result;
use crate::table::Table;

/// I/O accounting: how much data a run touched, and — when the source is
/// a cached backend — how the shared cache treated this reader's pages.
///
/// The cache fields attribute *shared*-cache behavior to the reader that
/// experienced it: two queries hammering one [`crate::file::FileBackend`]
/// each see their own hit/miss split even though the cache itself only
/// keeps global counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Blocks fully read.
    pub blocks_read: u64,
    /// Skip *events*: one per block a block-selection policy passed over
    /// unread, counted again on every pass that passes over it. A block
    /// skipped in one pass and read in a later one counts here *and* in
    /// [`Self::blocks_read`], so this is not "table blocks − blocks
    /// read", and `blocks_read + blocks_skipped` can exceed the table.
    pub blocks_skipped: u64,
    /// Tuples delivered to the consumer.
    pub tuples_read: u64,
    /// Attribute pages this reader got from the backend's cache.
    pub pages_cache_hit: u64,
    /// Attribute pages this reader's requests fetched from the medium.
    pub pages_cache_miss: u64,
}

impl IoStats {
    /// Blocks read per block visit, read or skipped (1.0 when nothing was
    /// visited); see [`Self::blocks_skipped`] for what a visit is.
    pub fn read_fraction(&self) -> f64 {
        let total = self.blocks_read + self.blocks_skipped;
        if total == 0 {
            1.0
        } else {
            self.blocks_read as f64 / total as f64
        }
    }

    /// This reader's cache hit rate (1.0 when no cached backend was
    /// involved — an uncached source never misses).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.pages_cache_hit + self.pages_cache_miss;
        if total == 0 {
            1.0
        } else {
            self.pages_cache_hit as f64 / total as f64
        }
    }

    /// Accounts one delivered block of `tuples` tuples whose two pages
    /// came from `origins`.
    fn note_block(&mut self, tuples: usize, origins: [PageOrigin; 2]) {
        for origin in origins {
            match origin {
                PageOrigin::CacheHit | PageOrigin::PrefetchedHit => self.pages_cache_hit += 1,
                PageOrigin::CacheMiss => self.pages_cache_miss += 1,
                PageOrigin::Memory => {}
            }
        }
        self.blocks_read += 1;
        self.tuples_read += tuples as u64;
    }
}

/// Where a reader's blocks come from. References or `Arc` handles only —
/// cheap to clone, so cloning a reader never duplicates data.
#[derive(Debug, Clone)]
enum Source<'a> {
    /// Direct in-memory table access: `block_slices` and `read_run` are
    /// zero-copy.
    Mem(&'a Table),
    /// Any pluggable backend: pages are read into the reader's scratch
    /// buffers (and may fail).
    Backend(&'a dyn StorageBackend),
    /// A shared-ownership backend: the reader co-owns the source, so it
    /// can outlive the scope that created it (the seam live-table
    /// snapshots ride through — a query service can admit a query over a
    /// snapshot taken *inside* its serve scope).
    Shared(Arc<dyn StorageBackend>),
}

/// Synchronous block reader over a storage source with a fixed layout.
/// Cloning yields an independent reader over the same (shared, immutable)
/// data.
#[derive(Debug, Clone)]
pub struct BlockReader<'a> {
    source: Source<'a>,
    layout: BlockLayout,
    stats: IoStats,
    /// Scratch pages for backend reads (empty on the in-memory path).
    zbuf: Vec<u32>,
    xbuf: Vec<u32>,
}

impl<'a> BlockReader<'a> {
    /// Creates a reader over an in-memory `table` with the given layout.
    pub fn new(table: &'a Table, layout: BlockLayout) -> Self {
        assert_eq!(table.n_rows(), layout.n_rows(), "layout/table mismatch");
        BlockReader {
            source: Source::Mem(table),
            layout,
            stats: IoStats::default(),
            zbuf: Vec::new(),
            xbuf: Vec::new(),
        }
    }

    /// Creates a reader over any [`StorageBackend`], taking the layout
    /// from the backend.
    pub fn over_backend(backend: &'a dyn StorageBackend) -> Self {
        BlockReader {
            layout: backend.layout(),
            source: Source::Backend(backend),
            stats: IoStats::default(),
            zbuf: Vec::new(),
            xbuf: Vec::new(),
        }
    }

    /// Creates a reader that co-owns its backend: the `'static` twin of
    /// [`Self::over_backend`] for sources the caller cannot keep borrowed
    /// long enough — e.g. a live-table snapshot taken mid-serve and
    /// handed to scheduler tasks that outlive the submitting scope.
    pub fn over_shared(backend: Arc<dyn StorageBackend>) -> BlockReader<'static> {
        BlockReader {
            layout: backend.layout(),
            source: Source::Shared(backend),
            stats: IoStats::default(),
            zbuf: Vec::new(),
            xbuf: Vec::new(),
        }
    }

    /// The layout in use.
    pub fn layout(&self) -> &BlockLayout {
        &self.layout
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    /// Reads block `b`, invoking `visit(z_code, x_code)` for every tuple,
    /// where codes come from the two given attributes. Returns the number
    /// of tuples visited.
    ///
    /// # Panics
    /// Panics if the storage read fails (see [`Self::try_block_slices`]
    /// for the fallible path).
    #[inline]
    pub fn read_block_pair(
        &mut self,
        b: usize,
        z_attr: usize,
        x_attr: usize,
        mut visit: impl FnMut(u32, u32),
    ) -> usize {
        let (z, x) = self.block_slices(b, z_attr, x_attr);
        for (&zc, &xc) in z.iter().zip(x) {
            visit(zc, xc);
        }
        z.len()
    }

    /// Reads block `b`, returning the raw code slices of the two given
    /// attributes (aligned row-wise) — zero-copy on the in-memory path,
    /// served from the reader's scratch pages on backend paths.
    ///
    /// # Panics
    /// Panics if the storage read fails; hot loops that cannot propagate
    /// errors use this, everything else should prefer
    /// [`Self::try_block_slices`].
    #[inline]
    pub fn block_slices(&mut self, b: usize, z_attr: usize, x_attr: usize) -> (&[u32], &[u32]) {
        match self.try_block_slices(b, z_attr, x_attr) {
            Ok(pair) => pair,
            Err(e) => panic!("storage read of block {b} failed: {e}"),
        }
    }

    /// Fallible twin of [`Self::block_slices`]: storage-level failures
    /// (I/O errors, corrupt pages) surface as `Err` instead of a panic.
    /// Statistics are only updated on success.
    #[inline]
    pub fn try_block_slices(
        &mut self,
        b: usize,
        z_attr: usize,
        x_attr: usize,
    ) -> Result<(&[u32], &[u32])> {
        let backend: &dyn StorageBackend = match &self.source {
            Source::Mem(table) => {
                let table: &'a Table = table;
                let range = self.layout.rows_of_block(b);
                let z = &table.column(z_attr)[range.clone()];
                let x = &table.column(x_attr)[range];
                self.stats.note_block(z.len(), [PageOrigin::Memory; 2]);
                return Ok((z, x));
            }
            Source::Backend(backend) => *backend,
            Source::Shared(backend) => &**backend,
        };
        let origins =
            backend.read_block_pair_into(b, z_attr, x_attr, &mut self.zbuf, &mut self.xbuf)?;
        self.stats.note_block(self.zbuf.len(), origins);
        Ok((&self.zbuf, &self.xbuf))
    }

    /// Reads the contiguous run `blocks`, calling `visit(b, z codes, x
    /// codes)` for each block in order until it returns `false` or the
    /// run ends — block for block what [`Self::try_block_slices`] would
    /// have delivered (zero-copy on the in-memory path). Statistics
    /// count the blocks `visit` was given, however many the backend
    /// fetched to serve them. A storage failure surfaces after every
    /// block before the failing one has been delivered.
    pub fn read_run(
        &mut self,
        blocks: Range<usize>,
        z_attr: usize,
        x_attr: usize,
        mut visit: impl FnMut(usize, &[u32], &[u32]) -> bool,
    ) -> Result<()> {
        let stats = &mut self.stats;
        let mut deliver = |b: usize, zs: &[u32], xs: &[u32], origins: [PageOrigin; 2]| {
            stats.note_block(zs.len(), origins);
            visit(b, zs, xs)
        };
        let backend: &dyn StorageBackend = match &self.source {
            Source::Mem(table) => {
                MemBackend::new(table, self.layout).lend_run(blocks, z_attr, x_attr, deliver);
                return Ok(());
            }
            Source::Backend(backend) => *backend,
            Source::Shared(backend) => &**backend,
        };
        backend
            .read_run_pair_into(
                blocks,
                z_attr,
                x_attr,
                &mut self.zbuf,
                &mut self.xbuf,
                &mut deliver,
            )
            .map(|_| ())
    }

    /// Records that block `b` was deliberately skipped.
    #[inline]
    pub fn skip_block(&mut self, _b: usize) {
        self.stats.blocks_skipped += 1;
    }

    /// Records `n` skipped blocks at once (used when a marked lookahead
    /// window's unmarked runs are accounted in bulk).
    #[inline]
    pub fn skip_blocks(&mut self, n: u64) {
        self.stats.blocks_skipped += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{AttrDef, Schema};

    fn table() -> Table {
        let schema = Schema::new(vec![AttrDef::new("z", 4), AttrDef::new("x", 4)]);
        let z: Vec<u32> = (0..20).map(|r| r % 4).collect();
        let x: Vec<u32> = (0..20).map(|r| (r / 5) % 4).collect();
        Table::new(schema, vec![z, x])
    }

    #[test]
    fn reads_deliver_aligned_pairs() {
        let t = table();
        let mut reader = BlockReader::new(&t, BlockLayout::new(20, 5));
        let mut seen = Vec::new();
        let n = reader.read_block_pair(1, 0, 1, |z, x| seen.push((z, x)));
        assert_eq!(n, 5);
        // block 1 covers rows 5..10: z = r % 4, x = 1
        let expected: Vec<(u32, u32)> = (5..10).map(|r| (r % 4, 1)).collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn stats_track_reads_and_skips() {
        let t = table();
        let mut reader = BlockReader::new(&t, BlockLayout::new(20, 5));
        reader.read_block_pair(0, 0, 1, |_, _| {});
        reader.read_block_pair(2, 0, 1, |_, _| {});
        reader.skip_block(1);
        let s = reader.stats();
        assert_eq!(s.blocks_read, 2);
        assert_eq!(s.blocks_skipped, 1);
        assert_eq!(s.tuples_read, 10);
        assert!((s.read_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn short_tail_block() {
        let t = table();
        let mut reader = BlockReader::new(&t, BlockLayout::new(20, 7));
        let mut n_seen = 0;
        let n = reader.read_block_pair(2, 0, 1, |_, _| n_seen += 1);
        assert_eq!(n, 6); // rows 14..20
        assert_eq!(n_seen, 6);
    }

    #[test]
    fn empty_stats_read_fraction() {
        let t = table();
        let reader = BlockReader::new(&t, BlockLayout::new(20, 5));
        assert_eq!(reader.stats().read_fraction(), 1.0);
    }

    #[test]
    fn mem_backend_runs_lend_what_the_in_memory_source_lends() {
        let t = table();
        let layout = BlockLayout::new(20, 3); // 7 blocks, the last short
        let backend = MemBackend::new(&t, layout);
        for stop_after in [1, 3, 6, usize::MAX] {
            let mut runs = Vec::new();
            for mut reader in [
                BlockReader::new(&t, layout),
                BlockReader::over_backend(&backend),
            ] {
                reader.skip_block(0);
                let mut delivered = Vec::new();
                reader
                    .read_run(1..7, 0, 1, |b, zs, xs| {
                        // The table's own memory, not a copy of it.
                        let rows = layout.rows_of_block(b);
                        assert_eq!(zs.as_ptr(), t.column(0)[rows.clone()].as_ptr());
                        assert_eq!(xs.as_ptr(), t.column(1)[rows.clone()].as_ptr());
                        assert_eq!((zs.len(), xs.len()), (rows.len(), rows.len()));
                        delivered.push(b);
                        delivered.len() < stop_after
                    })
                    .unwrap();
                runs.push((delivered, reader.stats()));
            }
            assert_eq!(runs[0], runs[1], "stop after {stop_after}");
            let (delivered, stats) = &runs[0];
            assert_eq!(delivered.len(), stop_after.min(6));
            assert_eq!(stats.blocks_read, delivered.len() as u64);
            assert_eq!(stats.blocks_skipped, 1);
            assert_eq!((stats.pages_cache_hit, stats.pages_cache_miss), (0, 0));
        }
    }
}
