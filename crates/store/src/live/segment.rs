//! Sealed segments of a [`crate::live::LiveTable`].
//!
//! A segment is one full delta's worth of rows, immutable from the
//! moment it is frozen. It exists in one of two representations:
//!
//! * [`SegmentEntry::Mem`] — the frozen delta itself, an in-memory
//!   [`Table`]. This is what a freeze installs *immediately*, under the
//!   state lock, so snapshots taken at any instant see a prefix of the
//!   append order with no gap while persistence is in flight.
//! * [`SegmentEntry::File`] — the persisted form: the same rows written
//!   through the existing block-file writer ([`crate::file::write_table`],
//!   position-keyed checksums and all) and re-opened as a
//!   [`FileBackend`]. The sealer swaps `Mem → File` in place; snapshots
//!   holding the old `Arc` keep reading the in-memory copy until they
//!   drop.
//!
//! Because deltas freeze only when exactly full, every sealed segment
//! holds `blocks_per_segment` *full* blocks — which is what lets a
//! snapshot present all segments plus the tail as one contiguous
//! [`crate::block::BlockLayout`] (only the final tail block may be
//! short).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::error::Result;
use crate::file::{write_table_atomic, FileBackend};
use crate::table::Table;

/// One sealed (immutable) segment, in whichever representation it
/// currently has. Cloning clones the `Arc`, not the data.
#[derive(Debug, Clone)]
pub(crate) enum SegmentEntry {
    /// Frozen delta, not yet persisted (or never persisted: a live table
    /// without a segment directory keeps all segments in this form).
    Mem(Arc<Table>),
    /// Persisted and re-opened through the checksummed block-file path.
    File(Arc<FileBackend>),
}

impl SegmentEntry {
    /// Rows of this segment (both forms hold exactly one full delta).
    #[cfg(test)]
    pub fn n_rows(&self) -> usize {
        match self {
            SegmentEntry::Mem(t) => t.n_rows(),
            SegmentEntry::File(be) => {
                use crate::backend::StorageBackend;
                be.n_rows()
            }
        }
    }
}

/// How segment files of one live table are produced: destination paths,
/// block geometry, and the cache bound each re-opened [`FileBackend`]
/// gets.
#[derive(Debug, Clone)]
pub(crate) struct SegmentWriter {
    dir: PathBuf,
    tuples_per_block: usize,
    cache_blocks: usize,
}

impl SegmentWriter {
    pub fn new(dir: PathBuf, tuples_per_block: usize, cache_blocks: usize) -> Self {
        SegmentWriter {
            dir,
            tuples_per_block,
            cache_blocks,
        }
    }

    /// The directory segment files live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file path of segment `index`.
    pub fn path_of(&self, index: usize) -> PathBuf {
        self.dir.join(format!("segment-{index:06}.fmb"))
    }

    /// Persists one frozen delta as segment `index` and re-opens it as
    /// a backend. The write is crash-safe
    /// ([`crate::file::write_table_atomic`]: temp file, fsync, rename,
    /// directory fsync), so the segment name only ever holds a
    /// complete, durable file — a crash mid-seal leaves at worst a
    /// `.tmp` that recovery sweeps away. Failure never removes what is
    /// at the final name: before the rename that is the *previous*
    /// occupant (compaction seals over a live member's name), and
    /// after it a complete file that merely failed to re-open — either
    /// way recovery knows better than a blind unlink here.
    pub fn seal(&self, index: usize, table: &Table) -> Result<Arc<FileBackend>> {
        let path = self.path_of(index);
        write_table_atomic(&path, table, self.tuples_per_block)
            .and_then(|_| self.open(&path))
            .map(Arc::new)
    }

    fn open(&self, path: &Path) -> Result<FileBackend> {
        Ok(FileBackend::open(path)?.with_cache_blocks(self.cache_blocks))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::StorageBackend;
    use crate::schema::{AttrDef, Schema};
    use crate::tempfile::TempBlockDir;

    fn delta() -> Table {
        let schema = Schema::new(vec![AttrDef::new("z", 5), AttrDef::new("x", 3)]);
        let z: Vec<u32> = (0..40).map(|r| r % 5).collect();
        let x: Vec<u32> = (0..40).map(|r| r % 3).collect();
        Table::new(schema, vec![z, x])
    }

    #[test]
    fn seal_roundtrips_every_page() {
        let dir = TempBlockDir::new("seg_seal");
        let w = SegmentWriter::new(dir.path().to_path_buf(), 10, 64);
        let t = delta();
        let be = w.seal(3, &t).unwrap();
        assert!(w.path_of(3).exists());
        assert_eq!(be.n_rows(), 40);
        let mut buf = Vec::new();
        for a in 0..2 {
            for b in 0..4 {
                be.read_block_into(b, a, &mut buf).unwrap();
                assert_eq!(buf.as_slice(), &t.column(a)[b * 10..(b + 1) * 10]);
            }
        }
    }

    #[test]
    fn seal_failure_leaves_no_file_at_the_final_name() {
        // Point the writer at a path that cannot be created.
        let dir = TempBlockDir::new("seg_fail");
        let missing = dir.path().join("nonexistent-subdir");
        let w = SegmentWriter::new(missing.clone(), 10, 64);
        let err = w.seal(0, &delta());
        assert!(err.is_err());
        assert!(!missing.join("segment-000000.fmb").exists());
    }

    #[test]
    fn entry_rows_agree_across_forms() {
        let dir = TempBlockDir::new("seg_forms");
        let w = SegmentWriter::new(dir.path().to_path_buf(), 10, 64);
        let t = Arc::new(delta());
        let mem = SegmentEntry::Mem(Arc::clone(&t));
        let file = SegmentEntry::File(w.seal(0, &t).unwrap());
        assert_eq!(mem.n_rows(), file.n_rows());
    }
}
