//! A fully prepared query: storage source, layout, index, target and
//! parameters.

use std::sync::Arc;

use fastmatch_core::histsim::HistSimConfig;
use fastmatch_store::backend::{MemBackend, StorageBackend};
use fastmatch_store::bitmap::BitmapIndex;
use fastmatch_store::block::BlockLayout;
use fastmatch_store::io::BlockReader;
use fastmatch_store::live::Snapshot;
use fastmatch_store::table::Table;

/// Where a job's blocks come from: the in-memory table (seed regime),
/// any pluggable [`StorageBackend`] (e.g. the file-backed columnar
/// store), or a shared-ownership backend the job co-owns (live-table
/// snapshots handed to `'static` service tasks).
#[derive(Debug, Clone)]
enum Source<'a> {
    Mem(&'a Table),
    Backend(&'a dyn StorageBackend),
    Shared(Arc<dyn StorageBackend>),
}

/// The bitmap index a job consults: borrowed from the caller (the
/// classic path) or co-owned (snapshot queries, whose index lives inside
/// the snapshot the job shares). Derefs to [`BitmapIndex`], so policy
/// code is oblivious to the distinction.
#[derive(Debug, Clone)]
pub enum BitmapHandle<'a> {
    /// Caller-owned index.
    Borrowed(&'a BitmapIndex),
    /// Shared index (e.g. [`Snapshot::bitmap_arc`]).
    Shared(Arc<BitmapIndex>),
}

impl std::ops::Deref for BitmapHandle<'_> {
    type Target = BitmapIndex;

    fn deref(&self) -> &BitmapIndex {
        match self {
            BitmapHandle::Borrowed(b) => b,
            BitmapHandle::Shared(b) => b,
        }
    }
}

/// Everything an executor needs to run one top-k histogram-matching query.
///
/// The data is expected to be pre-shuffled (the store's permutation
/// preprocessing — applied before persisting, for file-backed sources);
/// the bitmap index must cover the candidate attribute under the same
/// layout.
#[derive(Debug, Clone)]
pub struct QueryJob<'a> {
    /// The (shuffled) data source.
    source: Source<'a>,
    /// Block granularity.
    pub layout: BlockLayout,
    /// Bitmap index over the candidate attribute.
    pub bitmap: BitmapHandle<'a>,
    /// Candidate attribute (`Z`) index.
    pub z_attr: usize,
    /// Grouping attribute (`X`) index.
    pub x_attr: usize,
    /// Normalized visual target `q̄` (length `|V_X|`).
    pub target: Vec<f64>,
    /// HistSim parameters.
    pub cfg: HistSimConfig,
}

impl<'a> QueryJob<'a> {
    /// Builds a job over an in-memory table, validating that the layout
    /// and index agree with the table and that the target matches the
    /// grouping cardinality.
    pub fn new(
        table: &'a Table,
        layout: BlockLayout,
        bitmap: &'a BitmapIndex,
        z_attr: usize,
        x_attr: usize,
        target: Vec<f64>,
        cfg: HistSimConfig,
    ) -> Self {
        assert_eq!(layout.n_rows(), table.n_rows(), "layout/table mismatch");
        Self::with_source(
            Source::Mem(table),
            layout,
            BitmapHandle::Borrowed(bitmap),
            z_attr,
            x_attr,
            target,
            cfg,
        )
    }

    /// Builds a job over any storage backend (the layout is the one the
    /// data was stored under), with the same validations as
    /// [`Self::new`].
    pub fn from_backend(
        backend: &'a dyn StorageBackend,
        bitmap: &'a BitmapIndex,
        z_attr: usize,
        x_attr: usize,
        target: Vec<f64>,
        cfg: HistSimConfig,
    ) -> Self {
        Self::with_source(
            Source::Backend(backend),
            backend.layout(),
            BitmapHandle::Borrowed(bitmap),
            z_attr,
            x_attr,
            target,
            cfg,
        )
    }

    /// Builds a job over a live-table [`Snapshot`], using the exact
    /// bitmap index the snapshot froze at capture time — no external
    /// index to build or keep in sync. Same validations as
    /// [`Self::new`] (they hold by construction here).
    pub fn from_snapshot(
        snapshot: &'a Snapshot,
        z_attr: usize,
        x_attr: usize,
        target: Vec<f64>,
        cfg: HistSimConfig,
    ) -> Self {
        Self::with_source(
            Source::Backend(snapshot),
            snapshot.layout(),
            BitmapHandle::Borrowed(snapshot.bitmap(z_attr)),
            z_attr,
            x_attr,
            target,
            cfg,
        )
    }

    /// The co-owning form of [`Self::from_snapshot`]: the job holds the
    /// snapshot (and its bitmap) by `Arc`, so it is `'static` and can be
    /// handed to scheduler tasks that outlive the scope that took the
    /// snapshot — the admission path of
    /// [`crate::service::QueryService::submit_snapshot`].
    pub fn from_snapshot_shared(
        snapshot: Arc<Snapshot>,
        z_attr: usize,
        x_attr: usize,
        target: Vec<f64>,
        cfg: HistSimConfig,
    ) -> QueryJob<'static> {
        QueryJob::with_source(
            Source::Shared(Arc::clone(&snapshot) as Arc<dyn StorageBackend>),
            snapshot.layout(),
            BitmapHandle::Shared(snapshot.bitmap_arc(z_attr)),
            z_attr,
            x_attr,
            target,
            cfg,
        )
    }

    fn with_source(
        source: Source<'a>,
        layout: BlockLayout,
        bitmap: BitmapHandle<'a>,
        z_attr: usize,
        x_attr: usize,
        target: Vec<f64>,
        cfg: HistSimConfig,
    ) -> Self {
        let job = QueryJob {
            source,
            layout,
            bitmap,
            z_attr,
            x_attr,
            target,
            cfg,
        };
        assert_eq!(
            job.bitmap.num_blocks(),
            layout.num_blocks(),
            "bitmap/layout mismatch"
        );
        assert_eq!(
            job.bitmap.num_values(),
            job.cardinality(z_attr) as usize,
            "bitmap must index the candidate attribute"
        );
        assert_eq!(
            job.target.len(),
            job.cardinality(x_attr) as usize,
            "target arity must equal |V_X|"
        );
        job
    }

    /// Number of rows in the data source.
    pub fn n_rows(&self) -> usize {
        self.layout.n_rows()
    }

    /// Cardinality of one attribute of the source.
    pub fn cardinality(&self, attr: usize) -> u32 {
        match &self.source {
            Source::Mem(table) => table.cardinality(attr),
            Source::Backend(backend) => backend.cardinality(attr),
            Source::Shared(backend) => backend.cardinality(attr),
        }
    }

    /// Candidate cardinality `|V_Z|`.
    pub fn num_candidates(&self) -> usize {
        self.cardinality(self.z_attr) as usize
    }

    /// Grouping cardinality `|V_X|`.
    pub fn num_groups(&self) -> usize {
        self.cardinality(self.x_attr) as usize
    }

    /// A fresh block reader over the job's source. Executors obtain all
    /// their I/O through this, so they run unchanged over any storage
    /// regime.
    pub fn reader(&self) -> BlockReader<'a> {
        match &self.source {
            Source::Mem(table) => BlockReader::new(table, self.layout),
            Source::Backend(backend) => BlockReader::over_backend(*backend),
            Source::Shared(backend) => BlockReader::over_shared(Arc::clone(backend)),
        }
    }

    /// Calls `f` with the job's source as a [`StorageBackend`] (a
    /// [`MemBackend`] view of an in-memory table), e.g. to serve the
    /// job's query on a [`QueryService`](crate::service::QueryService).
    /// The job's own reads keep their source.
    pub fn with_backend<R>(&self, f: impl FnOnce(&dyn StorageBackend) -> R) -> R {
        match &self.source {
            Source::Mem(table) => f(&MemBackend::new(table, self.layout)),
            Source::Backend(backend) => f(*backend),
            Source::Shared(backend) => f(&**backend),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastmatch_store::file::FileBackend;
    use fastmatch_store::schema::{AttrDef, Schema};

    fn table() -> Table {
        let schema = Schema::new(vec![AttrDef::new("z", 3), AttrDef::new("x", 2)]);
        Table::new(schema, vec![vec![0, 1, 2, 0], vec![0, 1, 0, 1]])
    }

    #[test]
    fn job_construction_validates() {
        let t = table();
        let layout = BlockLayout::new(4, 2);
        let idx = BitmapIndex::build(&t, 0, &layout);
        let job = QueryJob::new(
            &t,
            layout,
            &idx,
            0,
            1,
            vec![0.5, 0.5],
            HistSimConfig::default(),
        );
        assert_eq!(job.num_candidates(), 3);
        assert_eq!(job.num_groups(), 2);
        assert_eq!(job.n_rows(), 4);
    }

    #[test]
    fn job_reader_serves_table_blocks() {
        let t = table();
        let layout = BlockLayout::new(4, 2);
        let idx = BitmapIndex::build(&t, 0, &layout);
        let job = QueryJob::new(
            &t,
            layout,
            &idx,
            0,
            1,
            vec![0.5, 0.5],
            HistSimConfig::default(),
        );
        let mut r = job.reader();
        let (zs, xs) = r.block_slices(1, 0, 1);
        assert_eq!(zs, &[2, 0]);
        assert_eq!(xs, &[0, 1]);
    }

    #[test]
    fn backend_job_mirrors_memory_job() {
        let t = table();
        let layout = BlockLayout::new(4, 2);
        let idx = BitmapIndex::build(&t, 0, &layout);
        // RAII guard: the block file is removed even if an assertion
        // below panics first.
        let scratch = fastmatch_store::tempfile::TempBlockFile::new("queryjob");
        let be = FileBackend::create(scratch.path(), &t, 2).unwrap();
        let job = QueryJob::from_backend(&be, &idx, 0, 1, vec![0.5, 0.5], HistSimConfig::default());
        assert_eq!(job.num_candidates(), 3);
        assert_eq!(job.num_groups(), 2);
        let mut r = job.reader();
        let (zs, xs) = r.block_slices(1, 0, 1);
        assert_eq!(zs, &[2, 0]);
        assert_eq!(xs, &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "target arity")]
    fn wrong_target_arity_panics() {
        let t = table();
        let layout = BlockLayout::new(4, 2);
        let idx = BitmapIndex::build(&t, 0, &layout);
        QueryJob::new(
            &t,
            layout,
            &idx,
            0,
            1,
            vec![0.5, 0.25, 0.25],
            HistSimConfig::default(),
        );
    }

    #[test]
    #[should_panic(expected = "bitmap must index")]
    fn bitmap_attribute_mismatch_panics() {
        let t = table();
        let layout = BlockLayout::new(4, 2);
        let idx = BitmapIndex::build(&t, 1, &layout); // wrong attribute
        QueryJob::new(
            &t,
            layout,
            &idx,
            0,
            1,
            vec![0.5, 0.5],
            HistSimConfig::default(),
        );
    }
}
