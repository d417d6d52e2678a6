//! Inputs shared by the Table 3 workloads: generated datasets, bitmap
//! indexes, prepared queries with exact ground truth, and (for the file
//! regimes) the persisted block files. Everything is a function of the
//! run's `--seed`; nothing reads the environment.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use fastmatch_core::guarantees::GroundTruth;
use fastmatch_core::histogram::Histogram;
use fastmatch_core::histsim::{HistSimConfig, HistSimOutput};
use fastmatch_core::Metric;
use fastmatch_data::datasets::DatasetId;
use fastmatch_data::queries::QuerySpec;
use fastmatch_store::backend::{MemBackend, StorageBackend};
use fastmatch_store::bitmap::BitmapIndex;
use fastmatch_store::block::{BlockLayout, DEFAULT_TUPLES_PER_BLOCK};
use fastmatch_store::file::FileBackend;
use fastmatch_store::table::Table;

/// A scratch directory under `./.bench_tmp/`, removed (recursively) on
/// drop. The benchmark may only write inside its checkout, so block
/// files and segment directories live here and not in the system temp
/// directory.
#[derive(Debug)]
pub struct Scratch {
    path: PathBuf,
}

static NEXT_SCRATCH: AtomicUsize = AtomicUsize::new(0);

impl Scratch {
    pub fn new(tag: &str) -> Result<Scratch, String> {
        let path = PathBuf::from(".bench_tmp").join(format!(
            "{tag}-{}-{}",
            std::process::id(),
            NEXT_SCRATCH.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(Scratch { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes of every regular file directly inside the directory.
    pub fn file_bytes(&self) -> u64 {
        std::fs::read_dir(&self.path)
            .map(|rd| {
                rd.filter_map(|e| e.ok()?.metadata().ok())
                    .filter(|m| m.is_file())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Succeeds only once the last scratch directory is gone.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

/// How a fixture's datasets are stored.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Storage {
    /// `MemBackend` over the generated table: reads are slice copies.
    Mem,
    /// A persisted block file behind `FileBackend` with default prefetch
    /// workers, its clock cache holding `cache_frac` of the pages a query
    /// touches (two attribute pages per block). The generated table is
    /// dropped once indexes and ground truth are built.
    File { cache_frac: f64 },
    /// Like `File`, but the cache holds every page of the file and is
    /// warmed (each page of every queried attribute read once).
    FileWarm,
}

/// One generated dataset under one storage regime.
#[derive(Debug)]
pub struct Dataset {
    pub id: DatasetId,
    pub layout: BlockLayout,
    table: Option<Table>,
    file: Option<FileBackend>,
    /// Cache capacity in pages (0 for `Storage::Mem`).
    pub cache_pages: usize,
    /// `(attribute, index)` for every candidate attribute queried.
    bitmaps: Vec<(usize, BitmapIndex)>,
}

impl Dataset {
    pub fn file(&self) -> Option<&FileBackend> {
        self.file.as_ref()
    }
}

/// A Table 3 query resolved against the generated data.
#[derive(Debug)]
pub struct Prepared {
    pub id: &'static str,
    /// Index into [`Fixture::datasets`].
    pub dataset: usize,
    pub z: usize,
    pub x: usize,
    pub target: Vec<f64>,
    pub truth: GroundTruth,
    pub cfg: HistSimConfig,
}

impl Prepared {
    /// Guarantee 1 (separation) and Guarantee 2 (reconstruction) of an
    /// approximate result, against exact ground truth.
    pub fn guarantees_hold(&self, out: &HistSimOutput) -> bool {
        self.truth
            .check_separation(&out.candidate_ids(), self.cfg.epsilon, self.cfg.sigma)
            && self
                .truth
                .check_reconstruction(&out.matches, self.cfg.eps_reconstruction())
    }

    /// An exact executor's result must satisfy both guarantees with no
    /// slack beyond float rounding.
    pub fn is_exact(&self, out: &HistSimOutput) -> bool {
        self.truth
            .check_separation(&out.candidate_ids(), 1e-9, self.cfg.sigma)
            && self.truth.check_reconstruction(&out.matches, 1e-9)
    }
}

/// Datasets plus prepared queries.
#[derive(Debug)]
pub struct Fixture {
    pub datasets: Vec<Dataset>,
    pub queries: Vec<Prepared>,
    /// Bytes of the persisted block files (0 for `Storage::Mem`).
    pub file_bytes: u64,
    _scratch: Option<Scratch>,
}

/// Stage-1 sample count for a table of `rows` rows: 1 % of the data,
/// bounded to `[10⁴, 5·10⁵]` — "a small fraction" (paper footnote 1) at
/// every scale.
pub fn stage1_samples(rows: usize) -> u64 {
    (rows as u64 / 100).clamp(10_000, 500_000).min(rows as u64)
}

impl Fixture {
    /// Generates the datasets `specs` run on (`rows` rows each, from
    /// `seed`), stores them under `storage`, builds one bitmap index per
    /// queried candidate attribute and resolves every query (target,
    /// §5.2 default parameters, exact ground truth).
    pub fn build(
        specs: &[QuerySpec],
        rows: usize,
        seed: u64,
        storage: Storage,
    ) -> Result<Fixture, String> {
        let scratch = match storage {
            Storage::Mem => None,
            _ => Some(Scratch::new("table4")?),
        };
        let mut datasets: Vec<Dataset> = Vec::new();
        let mut queries = Vec::new();
        for spec in specs {
            let ds = match datasets.iter().position(|d| d.id == spec.dataset) {
                Some(i) => i,
                None => {
                    let table = spec.dataset.generate(rows, seed);
                    datasets.push(Dataset {
                        id: spec.dataset,
                        layout: BlockLayout::with_default_block(table.n_rows()),
                        table: Some(table),
                        file: None,
                        cache_pages: 0,
                        bitmaps: Vec::new(),
                    });
                    datasets.len() - 1
                }
            };
            let d = &mut datasets[ds];
            let table = d.table.as_ref().expect("tables live until storage is set");
            let (z, x) = (spec.z_attr(table), spec.x_attr(table));
            if !d.bitmaps.iter().any(|(a, _)| *a == z) {
                d.bitmaps.push((z, BitmapIndex::build(table, z, &d.layout)));
            }
            let (target, _) = spec.resolve_target(table);
            let vx = table.cardinality(x) as usize;
            let ct = table.crosstab(z, x);
            let hists = (0..table.cardinality(z) as usize)
                .map(|c| Histogram::from_counts(ct[c * vx..(c + 1) * vx].to_vec()))
                .collect();
            queries.push(Prepared {
                id: spec.id,
                dataset: ds,
                z,
                x,
                truth: GroundTruth::new(hists, target.clone(), Metric::L1),
                target,
                cfg: HistSimConfig {
                    k: spec.k,
                    stage1_samples: stage1_samples(rows),
                    ..HistSimConfig::default()
                },
            });
        }

        let mut file_bytes = 0;
        if let Some(scratch) = &scratch {
            for d in &mut datasets {
                let table = d.table.take().expect("table present before persisting");
                let path = scratch.path().join(format!("{}.fmb", d.id.name()));
                let nb = d.layout.num_blocks();
                d.cache_pages = match storage {
                    Storage::File { cache_frac } => {
                        ((2 * nb) as f64 * cache_frac).ceil().max(1.0) as usize
                    }
                    // Every page of the file. The cache shards pages by
                    // block id modulo 8, so round the block count up to a
                    // multiple of 8 or the fuller shards would evict.
                    _ => nb.next_multiple_of(8) * table.schema().len(),
                };
                let be = FileBackend::create(&path, &table, DEFAULT_TUPLES_PER_BLOCK)
                    .map_err(|e| format!("persisting {}: {e}", d.id.name()))?
                    .with_cache_blocks(d.cache_pages);
                file_bytes += std::fs::metadata(&path).map_or(0, |m| m.len());
                d.file = Some(be);
            }
            if storage == Storage::FileWarm {
                let mut buf = Vec::new();
                for q in &queries {
                    let be = datasets[q.dataset].file.as_ref().expect("just persisted");
                    for b in 0..be.layout().num_blocks() {
                        for attr in [q.z, q.x] {
                            be.read_block_into(b, attr, &mut buf)
                                .map_err(|e| format!("warming {}: {e}", q.id))?;
                        }
                    }
                }
            }
        }
        Ok(Fixture {
            datasets,
            queries,
            file_bytes,
            _scratch: scratch,
        })
    }

    /// `MemBackend` views of the datasets that are held in memory (one
    /// slot per dataset). Borrowed from the fixture, so callers keep the
    /// vector alive next to it and resolve backends with
    /// [`Self::backend`].
    pub fn mem_views(&self) -> Vec<Option<MemBackend<'_>>> {
        self.datasets
            .iter()
            .map(|d| d.table.as_ref().map(|t| MemBackend::new(t, d.layout)))
            .collect()
    }

    /// The backend queries on dataset `ds` read through.
    pub fn backend<'a>(
        &'a self,
        views: &'a [Option<MemBackend<'a>>],
        ds: usize,
    ) -> &'a dyn StorageBackend {
        match (&self.datasets[ds].file, &views[ds]) {
            (Some(file), _) => file,
            (None, Some(mem)) => mem,
            (None, None) => unreachable!("a dataset is in memory or on file"),
        }
    }

    /// The bitmap index over query `q`'s candidate attribute.
    pub fn bitmap(&self, q: &Prepared) -> &BitmapIndex {
        self.datasets[q.dataset]
            .bitmaps
            .iter()
            .find(|(a, _)| *a == q.z)
            .map(|(_, b)| b)
            .expect("built in Fixture::build")
    }

    /// One line per dataset for the report header.
    pub fn describe(&self) -> String {
        self.datasets
            .iter()
            .map(|d| {
                format!(
                    "{} {} rows / {} blocks{}",
                    d.id.name(),
                    d.layout.n_rows(),
                    d.layout.num_blocks(),
                    if d.file.is_some() {
                        format!(" / cache {} pages", d.cache_pages)
                    } else {
                        String::new()
                    }
                )
            })
            .collect::<Vec<_>>()
            .join("; ")
    }
}
