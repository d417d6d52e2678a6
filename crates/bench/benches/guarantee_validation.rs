//! **§5.4 guarantee validation** — counts Guarantee 1/2 violations across
//! repeated runs of every approximate executor on every query.
//!
//! δ = 0.01 bounds the per-run violation probability; the paper observed
//! zero violations across all runs and concludes δ is a loose bound.
//! `FASTMATCH_RUNS` scales the repetitions (the paper used 30).
//!
//! Every query has two rows, one per stage-1 mode: `counts` prunes rare
//! candidates from the index's exact row counts (the default), `sampled`
//! runs the paper's hypergeometric test, which is what the paper ran.

use fastmatch_bench::report::render_table;
use fastmatch_bench::{measure, BenchEnv, Workload};
use fastmatch_core::histsim::{HistSimConfig, RarePruning};
use fastmatch_engine::exec::{Executor, FastMatchExec, ScanMatchExec, SyncMatchExec};

fn main() {
    let env = BenchEnv::from_env();
    let queries = fastmatch_data::all_queries();
    let w = Workload::prepare(env, &queries);
    let runs = env.runs.max(3);
    println!(
        "== Guarantee validation: violations / runs (delta = 0.01, eps = 0.04, {} runs each) ==\n",
        runs
    );
    let execs: Vec<Box<dyn Executor>> = vec![
        Box::new(ScanMatchExec),
        Box::new(SyncMatchExec),
        Box::new(FastMatchExec::default()),
    ];
    let mut rows = Vec::new();
    let mut grand_viol = 0u64;
    let mut grand_runs = 0u64;
    for q in &queries {
        let p = w.prepare_query(q);
        for (mode, rare) in [
            ("counts", RarePruning::FromCounts),
            ("sampled", RarePruning::Sampled),
        ] {
            let cfg = HistSimConfig {
                rare,
                ..w.default_config(&p)
            };
            let mut row = vec![q.id.to_string(), mode.to_string()];
            for e in &execs {
                let m = measure(&w, &p, &cfg, e.as_ref(), runs, env.seed ^ 0x6a4);
                row.push(format!("{}/{}", m.violations, m.runs));
                grand_viol += m.violations;
                grand_runs += m.runs;
            }
            rows.push(row);
        }
    }
    println!(
        "{}",
        render_table(
            &["Query", "Stage 1", "ScanMatch", "SyncMatch", "FastMatch"],
            &rows
        )
    );
    println!(
        "total: {grand_viol}/{grand_runs} (expected << delta * runs = {:.1}; paper observed 0)",
        0.01 * grand_runs as f64
    );
}
