//! Developer diagnostic: traces HistSim phase transitions and per-round
//! demands for one query at full scale.
//!
//! ```text
//! cargo run --release -p fastmatch-bench --bin trace_query -- police-q1
//! ```

use fastmatch_bench::{BenchEnv, Workload};
use fastmatch_core::histsim::HistSim;

fn main() {
    let query_id = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "police-q1".into());
    let env = BenchEnv::from_env();
    let queries: Vec<_> = fastmatch_data::all_queries()
        .into_iter()
        .filter(|q| q.id == query_id)
        .collect();
    assert!(!queries.is_empty(), "unknown query {query_id}");
    let w = Workload::prepare(env, &queries);
    let p = w.prepare_query(&queries[0]);
    let cfg = w.default_config(&p);
    eprintln!(
        "query {query_id}: |VZ|={} |VX|={} k={} m={}",
        w.table(p.spec.dataset).cardinality(p.z),
        w.table(p.spec.dataset).cardinality(p.x),
        cfg.k,
        cfg.stage1_samples
    );

    // Manual sequential drive with instrumentation.
    let table = w.table(p.spec.dataset);
    let n = table.n_rows();
    let mut hs = HistSim::new(
        cfg.clone(),
        table.cardinality(p.z) as usize,
        table.cardinality(p.x) as usize,
        n as u64,
        &p.target,
    )
    .unwrap();
    let zs = table.column(p.z);
    let xs = table.column(p.x);
    let counts = table.value_counts(p.z);
    let mut pos = 0usize;
    while !hs.is_done() && pos < n {
        while !hs.io_satisfied() && pos < n {
            let end = (pos + 4096).min(n);
            hs.ingest_block(&zs[pos..end], &xs[pos..end]);
            hs.settle(|_, _| {});
            pos += end - pos;
        }
        if !hs.io_satisfied() {
            eprintln!("EXHAUSTED at pos {pos}");
            hs.complete_io_phase(true).unwrap();
            break;
        }
        let before = hs.phase();
        hs.complete_io_phase(false).unwrap();
        let demands: Vec<(usize, u64, u64)> = hs
            .remaining_slice()
            .iter()
            .enumerate()
            .filter(|(_, &r)| r > 0)
            .map(|(c, &r)| (c, r, counts[c]))
            .collect();
        let heaviest: Vec<_> = {
            let mut d = demands.clone();
            d.sort_by_key(|&(_, need, have)| {
                std::cmp::Reverse(((need as f64 / have.max(1) as f64) * 1e6) as u64)
            });
            d.truncate(6);
            d
        };
        eprintln!(
            "{before:?} -> {:?} @pos {pos} ({:.1}% of data) rounds={} pruned={} active={} heaviest(need/have)={heaviest:?}",
            hs.phase(),
            100.0 * pos as f64 / n as f64,
            hs.diagnostics().stage2_rounds,
            hs.diagnostics().pruned_candidates,
            demands.len(),
        );
    }
    eprintln!("final: {:?}", hs.diagnostics());
}
