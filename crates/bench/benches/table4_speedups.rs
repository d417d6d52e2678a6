//! **Table 4** — average query speedups and latencies.
//!
//! For all nine queries, runs `Scan` plus the three approximate
//! executors at the §5.2 default settings (δ = 0.01, ε = 0.04,
//! σ = 0.0008, lookahead = 1024) and prints speedups over `Scan` with raw
//! latencies, exactly like the paper's Table 4. Also reports guarantee
//! violations (the paper observed none across all runs).
//!
//! Every query has two rows, one per stage-1 mode: `counts` prunes rare
//! candidates from the index's exact row counts (the default), `sampled`
//! runs the paper's hypergeometric test, which is what the paper ran.

use fastmatch_bench::report::{render_table, secs};
use fastmatch_bench::{measure, BenchEnv, Workload};
use fastmatch_core::histsim::{HistSimConfig, RarePruning};
use fastmatch_engine::exec::{Executor, FastMatchExec, ScanExec, ScanMatchExec, SyncMatchExec};

fn main() {
    let env = BenchEnv::from_env();
    let queries = fastmatch_data::all_queries();
    let w = Workload::prepare(env, &queries);

    println!("== Table 4: average speedups over Scan (raw latency in s) ==");
    println!(
        "   rows = {}, runs = {}, eps = 0.04, delta = 0.01, sigma = 0.0008\n",
        env.rows, env.runs
    );

    let approx: Vec<Box<dyn Executor>> = vec![
        Box::new(ScanMatchExec),
        Box::new(SyncMatchExec),
        Box::new(FastMatchExec::default()),
    ];

    let mut rows = Vec::new();
    let mut total_violations = 0;
    let mut total_runs = 0;
    for q in &queries {
        let p = w.prepare_query(q);
        let scan = measure(&w, &p, &w.default_config(&p), &ScanExec, env.runs, env.seed);
        let scan_s = scan.avg_wall.as_secs_f64();
        let total_blocks = w.layout(q.dataset).num_blocks() as f64;
        for (mode, rare) in [
            ("counts", RarePruning::FromCounts),
            ("sampled", RarePruning::Sampled),
        ] {
            let cfg = HistSimConfig {
                rare,
                ..w.default_config(&p)
            };
            let mut row = vec![q.id.to_string(), mode.to_string(), secs(scan.avg_wall)];
            for e in &approx {
                let m = measure(&w, &p, &cfg, e.as_ref(), env.runs, env.seed ^ 0x5150);
                let speedup = scan_s / m.avg_wall.as_secs_f64();
                // Hardware-independent I/O speedup: blocks Scan reads over
                // blocks this executor reads.
                let io_speedup = total_blocks / m.avg_blocks_read.max(1.0);
                row.push(format!(
                    "{:.2}x wall / {:.1}x I/O ({})",
                    speedup,
                    io_speedup,
                    secs(m.avg_wall),
                ));
                total_violations += m.violations;
                total_runs += m.runs;
            }
            rows.push(row);
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "Query",
                "Stage 1",
                "Scan(s)",
                "ScanMatch",
                "SyncMatch",
                "FastMatch"
            ],
            &rows
        )
    );
    println!(
        "guarantee violations: {total_violations} / {total_runs} approximate runs (paper: 0; bound: delta = 0.01)"
    );
}
