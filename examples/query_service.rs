//! Serving many concurrent queries from one shared file-backed store:
//! persist a synthetic dataset once, then push a mixed batch of top-k
//! histogram-matching queries through `QueryService` — one bounded
//! worker pool, one shared block cache — with progressive results, a
//! cancelled query and a deadline-bounded one in the mix.
//!
//! ```text
//! cargo run --release --example query_service
//! ```

use std::time::Duration;

use fastmatch::prelude::*;
use fastmatch_data::gen::{conditional_with_planted_pool, generate_table, ColumnGen, ColumnSpec};
use fastmatch_data::persist::persist_shuffled;
use fastmatch_data::shapes::{far_pool, uniform};

fn main() {
    // --- 1. Offline: generate, shuffle, persist one shared dataset.
    let groups = 8usize;
    let dists = conditional_with_planted_pool(
        64,
        &uniform(groups),
        &[(0, 0.0), (3, 0.03), (11, 0.05), (20, 0.07)],
        &far_pool(groups),
        0.18,
        5,
    );
    let specs = vec![
        ColumnSpec::new("z", 64, ColumnGen::PrimaryZipf { s: 1.1 }),
        ColumnSpec::new(
            "x",
            groups as u32,
            ColumnGen::Conditional { parent: 0, dists },
        ),
    ];
    let table = generate_table(&specs, 600_000, 11);
    let scratch = TempBlockFile::new("service_example");
    persist_shuffled(&table, 150, 0xd15c, scratch.path()).expect("persist failed");

    // One backend, one deliberately small cache: this is the shared
    // resource every admitted query contends for.
    let backend = FileBackend::open(scratch.path())
        .expect("open failed")
        .with_cache_blocks(512);
    let layout = backend.layout();
    let shuffled = {
        let mut z = Vec::with_capacity(backend.n_rows());
        let mut x = Vec::with_capacity(backend.n_rows());
        let mut buf = Vec::new();
        for b in 0..layout.num_blocks() {
            backend.read_block_into(b, 0, &mut buf).expect("z page");
            z.extend_from_slice(&buf);
            backend.read_block_into(b, 1, &mut buf).expect("x page");
            x.extend_from_slice(&buf);
        }
        Table::new(table.schema().clone(), vec![z, x])
    };
    let bitmap = BitmapIndex::build(&shuffled, 0, &layout);
    drop((table, shuffled));

    let cfg = HistSimConfig {
        k: 4,
        epsilon: 0.1,
        delta: 0.05,
        sigma: 0.001,
        stage1_samples: 25_000,
        ..HistSimConfig::default()
    };

    // --- 2. Online: a service session over the shared backend.
    let service_cfg = ServiceConfig::default();
    println!(
        "service: {} workers, quantum {} blocks",
        service_cfg.workers, service_cfg.quantum_blocks
    );
    QueryService::serve(&backend, service_cfg, |svc| {
        // Eight ordinary queries with distinct seeds…
        let handles: Vec<QueryHandle> = (0..8)
            .map(|i| {
                svc.submit(
                    QueryRequest::new(&bitmap, 0, 1, uniform(groups), cfg.clone())
                        .with_seed(100 + i),
                )
                .expect("admission failed")
            })
            .collect();
        // …plus one the client cancels and one with a hopeless deadline.
        let cancelled = svc
            .submit(QueryRequest::new(&bitmap, 0, 1, uniform(groups), cfg.clone()).with_seed(900))
            .expect("admission failed");
        cancelled.cancel();
        let deadlined = svc
            .submit(
                QueryRequest::new(&bitmap, 0, 1, uniform(groups), cfg.clone())
                    .with_seed(901)
                    .with_deadline(Duration::ZERO),
            )
            .expect("admission failed");

        // Progressive peek while the batch is in flight.
        let p = handles[0].progress();
        println!(
            "query 0 in flight: phase {:?}, guarantee {:?}, preview {:?}",
            p.phase, p.guarantee, p.current_topk
        );

        let mut reference: Option<Vec<u32>> = None;
        for (i, h) in handles.iter().enumerate() {
            match h.wait() {
                QueryOutcome::Finished(out) => {
                    let mut ids = out.candidate_ids();
                    println!(
                        "query {i}: {:?} in {:>7.2} ms — {} blocks read, cache hit rate {:.0}%",
                        ids,
                        out.stats.wall.as_secs_f64() * 1e3,
                        out.stats.io.blocks_read,
                        out.stats.io.cache_hit_rate() * 100.0
                    );
                    ids.sort_unstable();
                    match &reference {
                        None => reference = Some(ids),
                        Some(r) => assert_eq!(&ids, r, "concurrent queries must agree"),
                    }
                }
                other => panic!("query {i} did not finish: {other:?}"),
            }
        }
        match cancelled.wait() {
            QueryOutcome::Cancelled => println!("cancelled query resolved as Cancelled"),
            QueryOutcome::Finished(_) => {
                println!("cancelled query finished before the flag landed")
            }
            other => panic!("unexpected outcome for cancelled query: {other:?}"),
        }
        match deadlined.wait() {
            QueryOutcome::DeadlineExpired => println!("deadline query resolved as DeadlineExpired"),
            other => panic!("unexpected outcome for deadline query: {other:?}"),
        }
    });

    let cs = backend.cache_stats();
    println!(
        "shared cache after the batch: {} hits, {} disk reads, {} evictions, pressure {}",
        cs.hits, cs.misses, cs.evictions, cs.pressure
    );
    println!("all concurrent queries agree on the matched set");
}
