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
//!
//! For multi-core executors, [`BlockReader::shard`] splits the block
//! sequence into `n` disjoint contiguous ranges, each served by its own
//! [`ShardedBlockReader`] with independent [`IoStats`]; per-shard stats
//! aggregate back into a whole-run view with [`IoStats::merge`] (or `+=`).

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

    /// Folds another accounting record into this one (shard aggregation).
    pub fn merge(&mut self, other: IoStats) {
        self.blocks_read += other.blocks_read;
        self.blocks_skipped += other.blocks_skipped;
        self.tuples_read += other.tuples_read;
        self.pages_cache_hit += other.pages_cache_hit;
        self.pages_cache_miss += other.pages_cache_miss;
    }

    /// The per-field difference `self − other`; `other` must be an
    /// earlier snapshot of the same accounting stream (every counter
    /// monotone ≤ `self`'s). Used to charge one scheduling quantum's I/O
    /// to its query without zeroing the underlying reader.
    ///
    /// # Panics
    /// Panics — in **all** build profiles — if any field of `other`
    /// exceeds `self`'s. A misordered snapshot would otherwise wrap the
    /// `u64` subtraction and silently corrupt every downstream per-query
    /// attribution, so it must fail loudly rather than only under
    /// `debug_assertions`.
    pub fn since(&self, other: IoStats) -> IoStats {
        assert!(
            self.blocks_read >= other.blocks_read
                && self.blocks_skipped >= other.blocks_skipped
                && self.tuples_read >= other.tuples_read
                && self.pages_cache_hit >= other.pages_cache_hit
                && self.pages_cache_miss >= other.pages_cache_miss,
            "IoStats::since with a later snapshot: {self:?} since {other:?}"
        );
        IoStats {
            blocks_read: self.blocks_read - other.blocks_read,
            blocks_skipped: self.blocks_skipped - other.blocks_skipped,
            tuples_read: self.tuples_read - other.tuples_read,
            pages_cache_hit: self.pages_cache_hit - other.pages_cache_hit,
            pages_cache_miss: self.pages_cache_miss - other.pages_cache_miss,
        }
    }
}

impl std::ops::AddAssign for IoStats {
    fn add_assign(&mut self, other: IoStats) {
        self.merge(other);
    }
}

impl std::iter::Sum for IoStats {
    fn sum<I: Iterator<Item = IoStats>>(iter: I) -> IoStats {
        let mut total = IoStats::default();
        for s in iter {
            total.merge(s);
        }
        total
    }
}

/// Where a reader's blocks come from. References or `Arc` handles only —
/// cheap to clone, so sharding and cloning a reader never duplicates
/// data.
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
/// data; use [`BlockReader::shard`] for views with zeroed statistics.
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

    /// Returns shard `index` of `of`: an independent reader restricted to
    /// a contiguous range of blocks, with zeroed statistics. The `of`
    /// shards partition `0..num_blocks` exactly (sizes differ by at most
    /// one), so concurrent shard readers never touch the same block.
    ///
    /// # Panics
    /// Panics unless `index < of`.
    pub fn shard(&self, index: usize, of: usize) -> ShardedBlockReader<'a> {
        assert!(of > 0, "shard count must be positive");
        assert!(index < of, "shard index {index} out of {of}");
        let nb = self.layout.num_blocks();
        let base = nb / of;
        let rem = nb % of;
        let start = index * base + index.min(rem);
        let len = base + usize::from(index < rem);
        let mut inner = self.clone();
        inner.stats = IoStats::default();
        ShardedBlockReader {
            inner,
            blocks: start..start + len,
        }
    }
}

/// A [`BlockReader`] view restricted to one shard's contiguous block
/// range, created by [`BlockReader::shard`]. Accesses outside the range
/// panic, so disjointness across concurrent shard workers is enforced,
/// not just intended. Statistics are per shard; aggregate them with
/// [`IoStats::merge`].
#[derive(Debug, Clone)]
pub struct ShardedBlockReader<'a> {
    inner: BlockReader<'a>,
    blocks: Range<usize>,
}

impl<'a> ShardedBlockReader<'a> {
    /// The block ids this shard owns.
    pub fn blocks(&self) -> Range<usize> {
        self.blocks.clone()
    }

    /// Number of blocks in the shard.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Whether block `b` belongs to this shard.
    pub fn contains(&self, b: usize) -> bool {
        self.blocks.contains(&b)
    }

    /// The layout in use.
    pub fn layout(&self) -> &BlockLayout {
        self.inner.layout()
    }

    /// This shard's accumulated statistics.
    pub fn stats(&self) -> IoStats {
        self.inner.stats()
    }

    /// Reads block `b` (which must belong to the shard), returning the raw
    /// code slices of the two given attributes. See
    /// [`BlockReader::block_slices`].
    ///
    /// # Panics
    /// Panics if `b` lies outside the shard's range, or if the storage
    /// read fails (see [`Self::try_block_slices`]).
    #[inline]
    pub fn block_slices(&mut self, b: usize, z_attr: usize, x_attr: usize) -> (&[u32], &[u32]) {
        assert!(
            self.blocks.contains(&b),
            "block {b} outside shard range {:?}",
            self.blocks
        );
        self.inner.block_slices(b, z_attr, x_attr)
    }

    /// Fallible twin of [`Self::block_slices`].
    ///
    /// # Panics
    /// Panics if `b` lies outside the shard's range (a caller bug, unlike
    /// a storage failure).
    #[inline]
    pub fn try_block_slices(
        &mut self,
        b: usize,
        z_attr: usize,
        x_attr: usize,
    ) -> Result<(&[u32], &[u32])> {
        assert!(
            self.blocks.contains(&b),
            "block {b} outside shard range {:?}",
            self.blocks
        );
        self.inner.try_block_slices(b, z_attr, x_attr)
    }

    /// Reads a contiguous run of the shard's blocks; see
    /// [`BlockReader::read_run`].
    ///
    /// # Panics
    /// Panics if any block of a non-empty `blocks` lies outside the
    /// shard's range.
    pub fn read_run(
        &mut self,
        blocks: Range<usize>,
        z_attr: usize,
        x_attr: usize,
        visit: impl FnMut(usize, &[u32], &[u32]) -> bool,
    ) -> Result<()> {
        assert!(
            blocks.is_empty()
                || (blocks.start >= self.blocks.start && blocks.end <= self.blocks.end),
            "blocks {blocks:?} outside shard range {:?}",
            self.blocks
        );
        self.inner.read_run(blocks, z_attr, x_attr, visit)
    }

    /// Records that block `b` (which must belong to the shard) was
    /// deliberately skipped.
    ///
    /// # Panics
    /// Panics if `b` lies outside the shard's range.
    #[inline]
    pub fn skip_block(&mut self, b: usize) {
        assert!(
            self.blocks.contains(&b),
            "block {b} outside shard range {:?}",
            self.blocks
        );
        self.inner.skip_block(b);
    }

    /// Bulk twin of [`Self::skip_block`]: records a whole contiguous run
    /// of deliberately skipped blocks at once, with the same shard-range
    /// validation — so window-granular skip accounting from lookahead
    /// marking neither loops per block nor bypasses the range check via
    /// the inner reader. An empty range is a no-op.
    ///
    /// # Panics
    /// Panics if any block of a non-empty `blocks` lies outside the
    /// shard's range.
    #[inline]
    pub fn skip_blocks(&mut self, blocks: Range<usize>) {
        if blocks.is_empty() {
            return;
        }
        assert!(
            blocks.start >= self.blocks.start && blocks.end <= self.blocks.end,
            "blocks {blocks:?} outside shard range {:?}",
            self.blocks
        );
        self.inner.skip_blocks(blocks.len() as u64);
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
    fn shards_partition_blocks_exactly() {
        let t = table();
        for nb_size in [3usize, 5, 7] {
            let reader = BlockReader::new(&t, BlockLayout::new(20, nb_size));
            let nb = reader.layout().num_blocks();
            for of in 1..=6usize {
                let mut covered = vec![false; nb];
                let mut prev_end = 0usize;
                for i in 0..of {
                    let s = reader.shard(i, of);
                    let r = s.blocks();
                    assert_eq!(r.start, prev_end, "shard {i}/{of} not contiguous");
                    prev_end = r.end;
                    for b in r {
                        assert!(!covered[b], "block {b} covered twice");
                        covered[b] = true;
                    }
                }
                assert_eq!(prev_end, nb);
                assert!(covered.iter().all(|&c| c), "of = {of}");
            }
        }
    }

    #[test]
    fn shard_sizes_differ_by_at_most_one() {
        let t = table();
        let reader = BlockReader::new(&t, BlockLayout::new(20, 3)); // 7 blocks
        let sizes: Vec<usize> = (0..3).map(|i| reader.shard(i, 3).num_blocks()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 7);
        assert_eq!(
            *sizes.iter().max().unwrap() - *sizes.iter().min().unwrap(),
            1
        );
    }

    #[test]
    fn per_shard_stats_aggregate_to_sequential_totals() {
        let t = table();
        let layout = BlockLayout::new(20, 5); // 4 blocks
                                              // Sequential reference: read blocks 0, 2, 3; skip 1.
        let mut seq = BlockReader::new(&t, layout);
        for b in [0usize, 2, 3] {
            seq.block_slices(b, 0, 1);
        }
        seq.skip_block(1);
        // Sharded: 2 shards of 2 blocks, same read/skip pattern.
        let reader = BlockReader::new(&t, layout);
        let mut s0 = reader.shard(0, 2);
        let mut s1 = reader.shard(1, 2);
        s0.block_slices(0, 0, 1);
        s0.skip_block(1);
        s1.block_slices(2, 0, 1);
        s1.block_slices(3, 0, 1);
        let total: IoStats = [s0.stats(), s1.stats()].into_iter().sum();
        assert_eq!(total, seq.stats());
        let mut merged = s0.stats();
        merged += s1.stats();
        assert_eq!(merged, total);
    }

    #[test]
    fn shard_delivers_same_slices_as_whole_reader() {
        let t = table();
        let layout = BlockLayout::new(20, 7);
        let mut whole = BlockReader::new(&t, layout);
        let mut shard = BlockReader::new(&t, layout).shard(1, 3); // owns block 1
        let (wz, wx) = whole.block_slices(1, 0, 1);
        let (wz, wx) = (wz.to_vec(), wx.to_vec());
        let (sz, sx) = shard.block_slices(1, 0, 1);
        assert_eq!(wz, sz);
        assert_eq!(wx, sx);
    }

    #[test]
    #[should_panic(expected = "outside shard range")]
    fn shard_rejects_foreign_blocks() {
        let t = table();
        let mut s = BlockReader::new(&t, BlockLayout::new(20, 5)).shard(0, 2);
        s.block_slices(3, 0, 1);
    }

    #[test]
    #[should_panic(expected = "shard index")]
    fn shard_index_must_be_in_range() {
        let t = table();
        BlockReader::new(&t, BlockLayout::new(20, 5)).shard(2, 2);
    }

    #[test]
    fn since_subtracts_fieldwise() {
        let t = table();
        let layout = BlockLayout::new(20, 5);
        let mut reader = BlockReader::new(&t, layout);
        reader.block_slices(0, 0, 1);
        let snap = reader.stats();
        reader.block_slices(1, 0, 1);
        reader.skip_block(2);
        let delta = reader.stats().since(snap);
        assert_eq!(delta.blocks_read, 1);
        assert_eq!(delta.blocks_skipped, 1);
        assert_eq!(delta.tuples_read, 5);
    }

    /// The monotonicity guard must hold in *release* builds too: this
    /// test runs under every profile, and CI additionally executes it
    /// with `--release` — a wrapped subtraction instead of a panic here
    /// means per-query attribution is being silently corrupted.
    #[test]
    #[should_panic(expected = "later snapshot")]
    fn since_panics_on_misordered_snapshots_in_all_builds() {
        let earlier = IoStats::default();
        let later = IoStats {
            blocks_read: 3,
            ..IoStats::default()
        };
        let _ = earlier.since(later);
    }

    #[test]
    fn shard_skip_blocks_accounts_in_bulk() {
        let t = table();
        let layout = BlockLayout::new(20, 5); // 4 blocks
        let mut s = BlockReader::new(&t, layout).shard(0, 1);
        s.skip_blocks(1..4);
        s.skip_blocks(2..2); // empty: no-op, even though degenerate
        assert_eq!(s.stats().blocks_skipped, 3);
    }

    #[test]
    #[should_panic(expected = "outside shard range")]
    fn shard_skip_blocks_rejects_foreign_ranges() {
        let t = table();
        let mut s = BlockReader::new(&t, BlockLayout::new(20, 5)).shard(0, 2);
        s.skip_blocks(1..3); // block 2 belongs to shard 1
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
