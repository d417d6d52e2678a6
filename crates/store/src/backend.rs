//! The pluggable storage abstraction behind all block I/O.
//!
//! [`StorageBackend`] is the seam between the executors and the physical
//! representation of a table: everything above it ([`crate::io::BlockReader`],
//! the engine's executors) requests *blocks of dictionary codes* and never
//! learns whether those codes live in RAM ([`MemBackend`]), in a
//! checksummed column file ([`crate::file::FileBackend`]), or — in the
//! future — behind an mmap or async fetch path. Backends are read-side
//! shared state: they take `&self` and must be [`Sync`], because the
//! sharded executors hit one backend from many worker threads at once.
//! Every read is a demand read: the trait has no readahead hint, and a
//! run read ([`StorageBackend::read_run_pair_into`]) already tells a
//! backend which blocks are wanted together.

use crate::block::BlockLayout;
use crate::error::Result;
use crate::schema::Schema;
use crate::table::Table;

/// Where a page read was served from — the attribution a backend reports
/// per read so shared-cache behavior can be charged to the reader (and,
/// through [`crate::io::IoStats`], to the query) that caused it.
///
/// `Memory` is for backends with no cache tier at all (the in-memory
/// table view): such reads are neither hits nor misses and are not
/// counted toward cache accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageOrigin {
    /// Served directly from an in-memory representation (no cache tier).
    Memory,
    /// Served from the backend's block cache.
    CacheHit,
    /// Never produced: no backend in this crate loads pages ahead of
    /// demand. Kept for callers that still match on it; count it as a
    /// [`Self::CacheHit`].
    PrefetchedHit,
    /// Fetched from the underlying medium (disk, network, …).
    CacheMiss,
}

/// What a run read ([`StorageBackend::read_run_pair_into`]) hands each
/// block to: `(block id, z codes, x codes, [z page origin, x page
/// origin]) -> keep going?`.
pub type BlockVisitor<'a> = dyn FnMut(usize, &[u32], &[u32], [PageOrigin; 2]) -> bool + 'a;

/// A source of table blocks: schema + block geometry + a fallible
/// block-page read primitive.
///
/// Implementations must be safe to share across threads (`Send + Sync`);
/// reads of distinct or identical blocks may happen concurrently, and
/// shared-ownership readers ([`crate::io::BlockReader::over_shared`])
/// move `Arc`-wrapped backends between worker threads.
pub trait StorageBackend: Send + Sync + std::fmt::Debug {
    /// The stored table's schema (attribute names and cardinalities).
    fn schema(&self) -> &Schema;

    /// The block geometry the data is stored under.
    fn layout(&self) -> BlockLayout;

    /// Reads the codes of attribute `attr` in block `b` into `out`
    /// (cleared first). On success `out` holds exactly
    /// `layout().block_len(b)` codes, and the returned [`PageOrigin`]
    /// says where the page came from (cache attribution).
    fn read_block_into(&self, b: usize, attr: usize, out: &mut Vec<u32>) -> Result<PageOrigin>;

    /// Reads the aligned code pages of two attributes of block `b` — the
    /// shape every histogram-matching executor consumes. Returns the
    /// per-page origins `[z page, x page]`.
    fn read_block_pair_into(
        &self,
        b: usize,
        z_attr: usize,
        x_attr: usize,
        zs: &mut Vec<u32>,
        xs: &mut Vec<u32>,
    ) -> Result<[PageOrigin; 2]> {
        let oz = self.read_block_into(b, z_attr, zs)?;
        let ox = self.read_block_into(b, x_attr, xs)?;
        Ok([oz, ox])
    }

    /// Reads a contiguous **run** of blocks, delivering them to `visit`
    /// one at a time and in order: `visit(b, z codes, x codes, origins)`
    /// sees exactly what [`Self::read_block_pair_into`] would have
    /// produced for block `b`, and returns whether to go on. `zs`/`xs`
    /// are working storage (contents unspecified afterwards). Returns
    /// `Ok(true)` when the whole run was delivered and `Ok(false)` when
    /// the visitor stopped it; blocks after a stop are never delivered,
    /// and neither are blocks from a failing one on — every block
    /// *before* a failure is delivered intact first.
    ///
    /// The contract is the per-block one, block for block; what a
    /// backend gains is the knowledge that the blocks are wanted
    /// *together*. The default implementation is the loop over
    /// [`Self::read_block_pair_into`]; [`crate::file::FileBackend`]
    /// serves a run with one positioned read per attribute and chunk,
    /// and [`MemBackend`] lends the table's column slices without
    /// copying them.
    fn read_run_pair_into(
        &self,
        blocks: std::ops::Range<usize>,
        z_attr: usize,
        x_attr: usize,
        zs: &mut Vec<u32>,
        xs: &mut Vec<u32>,
        visit: &mut BlockVisitor<'_>,
    ) -> Result<bool> {
        for b in blocks {
            let origins = self.read_block_pair_into(b, z_attr, x_attr, zs, xs)?;
            if !visit(b, zs, xs, origins) {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Number of rows stored.
    fn n_rows(&self) -> usize {
        self.layout().n_rows()
    }

    /// Cardinality of one attribute (shorthand over [`Self::schema`]).
    fn cardinality(&self, attr: usize) -> u32 {
        self.schema().attr(attr).cardinality
    }
}

/// The in-memory backend: a view over a [`Table`] under a chosen layout.
///
/// This is the seed system's original storage regime, now behind the
/// trait. Page and pair reads copy column slices into the caller's
/// buffers; a run read lends the slices themselves.
#[derive(Debug, Clone, Copy)]
pub struct MemBackend<'a> {
    table: &'a Table,
    layout: BlockLayout,
}

impl<'a> MemBackend<'a> {
    /// Creates a view of `table` under `layout`.
    ///
    /// # Panics
    /// Panics if the layout's row count disagrees with the table's.
    pub fn new(table: &'a Table, layout: BlockLayout) -> Self {
        assert_eq!(table.n_rows(), layout.n_rows(), "layout/table mismatch");
        MemBackend { table, layout }
    }

    /// The underlying table.
    pub fn table(&self) -> &'a Table {
        self.table
    }

    /// Lends the blocks of the run `blocks` to `visit`, in order, as
    /// borrowed column slices, until it returns `false`. Returns whether
    /// the whole run was delivered. The run path of both this backend
    /// and [`crate::io::BlockReader`]'s in-memory source.
    #[inline]
    pub(crate) fn lend_run(
        &self,
        blocks: std::ops::Range<usize>,
        z_attr: usize,
        x_attr: usize,
        mut visit: impl FnMut(usize, &[u32], &[u32], [PageOrigin; 2]) -> bool,
    ) -> bool {
        let (z, x) = (self.table.column(z_attr), self.table.column(x_attr));
        for b in blocks {
            let range = self.layout.rows_of_block(b);
            if !visit(b, &z[range.clone()], &x[range], [PageOrigin::Memory; 2]) {
                return false;
            }
        }
        true
    }
}

impl StorageBackend for MemBackend<'_> {
    fn schema(&self) -> &Schema {
        self.table.schema()
    }

    fn layout(&self) -> BlockLayout {
        self.layout
    }

    fn read_block_into(&self, b: usize, attr: usize, out: &mut Vec<u32>) -> Result<PageOrigin> {
        let range = self.layout.rows_of_block(b);
        out.clear();
        out.extend_from_slice(&self.table.column(attr)[range]);
        Ok(PageOrigin::Memory)
    }

    fn read_run_pair_into(
        &self,
        blocks: std::ops::Range<usize>,
        z_attr: usize,
        x_attr: usize,
        _zs: &mut Vec<u32>,
        _xs: &mut Vec<u32>,
        visit: &mut BlockVisitor<'_>,
    ) -> Result<bool> {
        Ok(self.lend_run(blocks, z_attr, x_attr, visit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttrDef;

    fn table() -> Table {
        let schema = Schema::new(vec![AttrDef::new("z", 4), AttrDef::new("x", 2)]);
        let z: Vec<u32> = (0..10).map(|r| r % 4).collect();
        let x: Vec<u32> = (0..10).map(|r| r % 2).collect();
        Table::new(schema, vec![z, x])
    }

    #[test]
    fn mem_backend_reads_match_columns() {
        let t = table();
        let layout = BlockLayout::new(10, 4);
        let be = MemBackend::new(&t, layout);
        assert_eq!(be.n_rows(), 10);
        assert_eq!(be.cardinality(0), 4);
        let mut buf = Vec::new();
        for b in 0..layout.num_blocks() {
            be.read_block_into(b, 0, &mut buf).unwrap();
            assert_eq!(buf.as_slice(), &t.column(0)[layout.rows_of_block(b)]);
        }
    }

    #[test]
    fn pair_reads_are_row_aligned() {
        let t = table();
        let be = MemBackend::new(&t, BlockLayout::new(10, 3));
        let (mut zs, mut xs) = (Vec::new(), Vec::new());
        be.read_block_pair_into(1, 0, 1, &mut zs, &mut xs).unwrap();
        assert_eq!(zs, &t.column(0)[3..6]);
        assert_eq!(xs, &t.column(1)[3..6]);
    }

    #[test]
    #[should_panic(expected = "layout/table mismatch")]
    fn mismatched_layout_panics() {
        let t = table();
        MemBackend::new(&t, BlockLayout::new(12, 4));
    }
}
