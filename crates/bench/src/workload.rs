//! Workload preparation: datasets, indexes and prepared queries, built
//! once per harness process.

use std::collections::HashMap;
use std::time::Instant;

use fastmatch_core::guarantees::GroundTruth;
use fastmatch_core::histogram::Histogram;
use fastmatch_core::histsim::HistSimConfig;
use fastmatch_core::Metric;
use fastmatch_data::datasets::DatasetId;
use fastmatch_data::queries::QuerySpec;
use fastmatch_store::bitmap::BitmapIndex;
use fastmatch_store::block::BlockLayout;
use fastmatch_store::table::Table;

use crate::env::BenchEnv;

/// A query prepared against generated data: resolved attributes, bitmap
/// index, target and ground truth.
pub struct Prepared {
    /// The query definition.
    pub spec: QuerySpec,
    /// Candidate attribute index.
    pub z: usize,
    /// Grouping attribute index.
    pub x: usize,
    /// Normalized visual target.
    pub target: Vec<f64>,
    /// The candidate the target was derived from, if any.
    pub target_candidate: Option<u32>,
    /// Exact ground truth for guarantee checking and Δd.
    pub truth: GroundTruth,
}

/// Generated datasets plus prepared queries.
pub struct Workload {
    env: BenchEnv,
    tables: HashMap<DatasetId, Table>,
    layouts: HashMap<DatasetId, BlockLayout>,
    bitmaps: HashMap<(DatasetId, usize), BitmapIndex>,
}

impl Workload {
    /// Generates every dataset needed by `queries` (at `env` scale) and
    /// builds bitmap indexes for their candidate attributes. Progress is
    /// printed since generation takes a few seconds at full scale.
    pub fn prepare(env: BenchEnv, queries: &[QuerySpec]) -> Self {
        let mut w = Workload {
            env,
            tables: HashMap::new(),
            layouts: HashMap::new(),
            bitmaps: HashMap::new(),
        };
        for q in queries {
            if !w.tables.contains_key(&q.dataset) {
                let t0 = Instant::now();
                let table = q.dataset.generate(env.rows, env.seed);
                let layout = BlockLayout::with_default_block(table.n_rows());
                eprintln!(
                    "# generated {} ({} rows, {:.1} MiB) in {:.2?}",
                    q.dataset.name(),
                    table.n_rows(),
                    table.size_bytes() as f64 / (1024.0 * 1024.0),
                    t0.elapsed()
                );
                w.layouts.insert(q.dataset, layout);
                w.tables.insert(q.dataset, table);
            }
        }
        for q in queries {
            let table = &w.tables[&q.dataset];
            let z = q.z_attr(table);
            if !w.bitmaps.contains_key(&(q.dataset, z)) {
                let t0 = Instant::now();
                let bm = BitmapIndex::build(table, z, &w.layouts[&q.dataset]);
                eprintln!(
                    "# built bitmap for {}.{} ({:.1} KiB) in {:.2?}",
                    q.dataset.name(),
                    q.z,
                    bm.size_bytes() as f64 / 1024.0,
                    t0.elapsed()
                );
                w.bitmaps.insert((q.dataset, z), bm);
            }
        }
        w
    }

    /// The scale parameters in use.
    pub fn env(&self) -> BenchEnv {
        self.env
    }

    /// The generated table for a dataset.
    pub fn table(&self, id: DatasetId) -> &Table {
        &self.tables[&id]
    }

    /// The block layout for a dataset.
    pub fn layout(&self, id: DatasetId) -> BlockLayout {
        self.layouts[&id]
    }

    /// The bitmap index for `(dataset, candidate attribute)`.
    pub fn bitmap(&self, id: DatasetId, z: usize) -> &BitmapIndex {
        &self.bitmaps[&(id, z)]
    }

    /// Resolves one query: target, attributes and exact ground truth.
    pub fn prepare_query(&self, spec: &QuerySpec) -> Prepared {
        let table = self.table(spec.dataset);
        let z = spec.z_attr(table);
        let x = spec.x_attr(table);
        let (target, target_candidate) = spec.resolve_target(table);
        let vx = table.cardinality(x) as usize;
        let ct = table.crosstab(z, x);
        let hists: Vec<Histogram> = (0..table.cardinality(z) as usize)
            .map(|c| Histogram::from_counts(ct[c * vx..(c + 1) * vx].to_vec()))
            .collect();
        let truth = GroundTruth::new(hists, target.clone(), Metric::L1);
        Prepared {
            spec: spec.clone(),
            z,
            x,
            target,
            target_candidate,
            truth,
        }
    }

    /// The default experiment configuration of §5.2 for a query, at this
    /// workload's scale.
    pub fn default_config(&self, p: &Prepared) -> HistSimConfig {
        HistSimConfig {
            k: p.spec.k,
            stage1_samples: self.env.stage1_samples(),
            ..HistSimConfig::default()
        }
    }

    /// Builds an in-memory `QueryJob` for an executor run.
    pub fn job<'a>(
        &'a self,
        p: &'a Prepared,
        cfg: HistSimConfig,
    ) -> fastmatch_engine::query::QueryJob<'a> {
        let table = self.table(p.spec.dataset);
        fastmatch_engine::query::QueryJob::new(
            table,
            self.layout(p.spec.dataset),
            self.bitmap(p.spec.dataset, p.z),
            p.z,
            p.x,
            p.target.clone(),
            cfg,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastmatch_data::queries::all_queries;

    #[test]
    fn prepare_small_workload() {
        let env = BenchEnv {
            rows: 20_000,
            runs: 1,
            sweep_runs: 1,
            seed: 1,
        };
        let queries: Vec<QuerySpec> = all_queries()
            .into_iter()
            .filter(|q| q.dataset == DatasetId::Police)
            .collect();
        let w = Workload::prepare(env, &queries);
        for q in &queries {
            let p = w.prepare_query(q);
            assert_eq!(p.target.len(), w.table(q.dataset).cardinality(p.x) as usize);
            let cfg = w.default_config(&p);
            let job = w.job(&p, cfg);
            assert!(job.num_candidates() > 0);
        }
    }
}
