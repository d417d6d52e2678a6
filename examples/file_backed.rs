//! Querying a persisted dataset: generate a synthetic table, shuffle and
//! persist it as a checksummed block file, then run the executor ladder
//! and a served query directly against the file through a bounded block
//! cache — no table in memory at query time.
//!
//! ```text
//! cargo run --release --example file_backed
//! ```

use fastmatch::prelude::*;
use fastmatch_data::gen::{conditional_with_planted_pool, generate_table, ColumnGen, ColumnSpec};
use fastmatch_data::persist::persist_shuffled;
use fastmatch_data::shapes::{far_pool, uniform};

fn main() {
    // --- 1. Offline preprocessing: generate, shuffle, persist.
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
    let table = generate_table(&specs, 800_000, 11);
    let path = std::env::temp_dir().join(format!("fastmatch_example_{}.fmb", std::process::id()));
    let bytes = persist_shuffled(&table, 150, 0xd15c, &path).expect("persist failed");
    println!(
        "persisted {} rows ({:.1} MiB) to {}",
        table.n_rows(),
        bytes as f64 / (1024.0 * 1024.0),
        path.display()
    );

    // --- 2. Open the file with a bounded cache; the index is built once
    //        from the on-disk blocks (the offline half of §4.1).
    let backend = FileBackend::open(&path)
        .expect("open failed")
        .with_cache_blocks(512);
    let layout = backend.layout();
    // Reassemble the candidate column from disk to build the bitmap —
    // the original table is no longer needed from here on.
    let shuffled = {
        let mut z = Vec::with_capacity(backend.n_rows());
        let mut x = Vec::with_capacity(backend.n_rows());
        let mut buf = Vec::new();
        for b in 0..layout.num_blocks() {
            backend
                .read_block_into(b, 0, &mut buf)
                .expect("read z page");
            z.extend_from_slice(&buf);
            backend
                .read_block_into(b, 1, &mut buf)
                .expect("read x page");
            x.extend_from_slice(&buf);
        }
        Table::new(table.schema().clone(), vec![z, x])
    };
    let bitmap = BitmapIndex::build(&shuffled, 0, &layout);
    drop(table);

    let cfg = HistSimConfig {
        k: 4,
        epsilon: 0.1,
        delta: 0.05,
        sigma: 0.001,
        stage1_samples: 25_000,
        ..HistSimConfig::default()
    };

    // --- 3. The executor ladder, entirely over the file backend, then
    // the same query served on a 2-worker `QueryService`.
    let execs: Vec<Box<dyn Executor>> =
        vec![Box::new(SyncMatchExec), Box::new(FastMatchExec::default())];
    let mut runs: Vec<(&str, MatchOutput)> = execs
        .iter()
        .map(|e| {
            let job = QueryJob::from_backend(&backend, &bitmap, 0, 1, uniform(groups), cfg.clone());
            let out = e
                .run(&job, 17)
                .unwrap_or_else(|err| panic!("{}: {err}", e.name()));
            (e.name(), out)
        })
        .collect();
    let served = QueryService::serve(&backend, ServiceConfig::default().with_workers(2), |svc| {
        svc.submit(QueryRequest::new(&bitmap, 0, 1, uniform(groups), cfg.clone()).with_seed(17))
            .expect("admission failed")
            .wait()
    });
    let served = served.finished().expect("the served query failed").clone();
    runs.push(("Service", served));
    let mut reference: Option<Vec<u32>> = None;
    for (name, out) in runs {
        println!(
            "{:<13}: {:>8.2} ms, {} blocks read / {} skipped, matches {:?}",
            name,
            out.stats.wall.as_secs_f64() * 1e3,
            out.stats.io.blocks_read,
            out.stats.io.blocks_skipped,
            out.candidate_ids()
        );
        let mut ids = out.candidate_ids();
        ids.sort_unstable();
        match &reference {
            None => reference = Some(ids),
            Some(r) => assert_eq!(&ids, r, "matched sets must agree across executors"),
        }
    }
    let cs = backend.cache_stats();
    println!(
        "block cache: {} hits, {} disk reads, {} evictions",
        cs.hits, cs.misses, cs.evictions
    );
    std::fs::remove_file(&path).ok();
    println!("all file-backed runs agree");
}
