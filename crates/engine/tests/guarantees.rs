//! Guarantees 1 and 2 against exact ground truth, in both stage-1 modes.
//!
//! Each of the nine Table 3 queries runs over 40 000 rows of its
//! synthetic dataset (generated once, from seed 1) through `SyncMatch`
//! and `FastMatch` (64-block lookahead), once per run seed, with stage 1
//! pruning from the index's exact row counts
//! ([`RarePruning::FromCounts`]) and with the paper's sampled test
//! ([`RarePruning::Sampled`]). A run violates the guarantees when its
//! output fails separation (Guarantee 1) or reconstruction (Guarantee 2)
//! against [`GroundTruth`]. HistSim bounds the chance of that by δ per
//! run, so every (query, executor, mode) cell must count at most δ·runs
//! violations.
//!
//! The tier-1 test runs a slice of 20 seeds; the ignored one runs 200,
//! in a release build:
//! `cargo test --release -q -p fastmatch-engine --test guarantees -- --ignored`.

use std::ops::Range;

use fastmatch_core::guarantees::GroundTruth;
use fastmatch_core::histogram::Histogram;
use fastmatch_core::histsim::{rare_threshold, HistSimConfig, RarePruning};
use fastmatch_core::Metric;
use fastmatch_data::queries::all_queries;
use fastmatch_engine::exec::{Executor, FastMatchExec, SyncMatchExec};
use fastmatch_engine::query::QueryJob;
use fastmatch_store::bitmap::BitmapIndex;
use fastmatch_store::block::BlockLayout;

const ROWS: usize = 40_000;
const DATA_SEED: u64 = 1;
const DELTA: f64 = 0.2;
const SIGMA: f64 = 0.005;

/// δ = 0.2, and the ε of `decisions_golden`: at 40 000 rows a smaller ε
/// reads every block of most queries, which tests nothing, while at
/// ε = 1 (of ℓ1's 2) six of the nine queries stop well before the last
/// block in both modes, so the runs are approximate and could fail.
/// σ = 0.005 (a threshold of 200 rows) makes known-count stage 1 prune
/// values that occur on every query; 2 000 stage-1 samples put 10
/// expected rows of a threshold candidate in the sample, too few for
/// the sampled test to prune it.
fn config(k: usize, rare: RarePruning) -> HistSimConfig {
    HistSimConfig {
        k,
        epsilon: 1.0,
        delta: DELTA,
        sigma: SIGMA,
        stage1_samples: 2_000,
        rare,
        ..HistSimConfig::default()
    }
}

/// Tallies of one (query, executor, mode) cell.
#[derive(Default)]
struct Cell {
    runs: u64,
    violations: u64,
    exact_finishes: u64,
    blocks_read: u64,
}

fn campaign(seeds: Range<u64>) {
    let mut specs = all_queries();
    specs.sort_by_key(|q| q.dataset.name());
    let executors: [&dyn Executor; 2] = [&SyncMatchExec, &FastMatchExec::with_lookahead(64)];
    let mut failures = Vec::new();
    let mut pruning_queries = 0;
    for group in specs.chunk_by(|a, b| a.dataset == b.dataset) {
        let table = group[0].dataset.generate(ROWS, DATA_SEED);
        let layout = BlockLayout::with_default_block(table.n_rows());
        for spec in group {
            let (z, x) = (spec.z_attr(&table), spec.x_attr(&table));
            let bitmap = BitmapIndex::build(&table, z, &layout);
            let (target, _) = spec.resolve_target(&table);
            let vx = table.cardinality(x) as usize;
            let ct = table.crosstab(z, x);
            let hists: Vec<Histogram> = ct
                .chunks(vx)
                .map(|row| Histogram::from_counts(row.to_vec()))
                .collect();
            let truth = GroundTruth::new(hists, target.clone(), Metric::L1);
            // Known-count stage 1 must prune exactly the rare values; the
            // query counts towards the test's power if some of them occur.
            let threshold = rare_threshold(SIGMA, ROWS as u64);
            let rows = table.value_counts(z);
            let rare = rows.iter().filter(|&&n| n < threshold).count();
            if rows.iter().any(|&n| n > 0 && n < threshold) {
                pruning_queries += 1;
            }
            for mode in [RarePruning::FromCounts, RarePruning::Sampled] {
                let cfg = config(spec.k, mode);
                for e in executors {
                    let mut cell = Cell::default();
                    for seed in seeds.clone() {
                        let job = QueryJob::new(
                            &table,
                            layout,
                            &bitmap,
                            z,
                            x,
                            target.clone(),
                            cfg.clone(),
                        );
                        let out = e
                            .run(&job, seed)
                            .unwrap_or_else(|err| panic!("{} {}: {err}", spec.id, e.name()));
                        assert_eq!(out.stats.rare_pruning, mode);
                        if mode == RarePruning::FromCounts && !out.stats.exact_finish {
                            assert_eq!(out.stats.pruned, rare, "{} seed {seed}", spec.id);
                        }
                        let ids = out.candidate_ids();
                        let sep = truth.check_separation(&ids, cfg.epsilon, cfg.sigma);
                        let rec = truth
                            .check_reconstruction(&out.output.matches, cfg.eps_reconstruction());
                        cell.runs += 1;
                        cell.violations += u64::from(!(sep && rec));
                        cell.exact_finishes += u64::from(out.stats.exact_finish);
                        cell.blocks_read += out.stats.io.blocks_read;
                    }
                    let name = format!("{} {} {mode:?}", spec.id, e.name());
                    println!(
                        "{name}: {}/{} violations, {} exact finishes, {:.2} of the blocks read, {rare} rare values",
                        cell.violations,
                        cell.runs,
                        cell.exact_finishes,
                        cell.blocks_read as f64 / (cell.runs * layout.num_blocks() as u64) as f64
                    );
                    if cell.violations as f64 > DELTA * cell.runs as f64 {
                        failures.push(format!("{name}: {}/{}", cell.violations, cell.runs));
                    }
                }
            }
        }
    }
    assert!(failures.is_empty(), "violation rate above δ: {failures:?}");
    assert!(
        pruning_queries >= 5,
        "known-count stage 1 prunes an occurring value on only {pruning_queries} of 9 queries"
    );
}

#[test]
fn guarantees_hold_in_both_stage1_modes() {
    campaign(0..20);
}

#[test]
#[ignore = "200 seeds per query and mode; run in a release build"]
fn guarantees_hold_in_both_stage1_modes_over_200_seeds() {
    campaign(0..200);
}
