//! End-to-end smoke test for the file-backed storage path, run as its own
//! CI step: build a small synthetic dataset on disk (in `$TMPDIR`), serve
//! a query against the file on a 2-worker `QueryService`, and require
//! matched-set agreement with the in-memory `SyncMatch` baseline.

use fastmatch::prelude::*;
use fastmatch_data::gen::{conditional_with_planted_pool, generate_table, ColumnGen, ColumnSpec};
use fastmatch_data::shapes::{far_pool, uniform};
use fastmatch_store::shuffle::shuffle_table;

#[test]
fn served_query_over_files_agrees_with_sync_match() {
    let groups = 8usize;
    let dists = conditional_with_planted_pool(
        48,
        &uniform(groups),
        &[(0, 0.0), (4, 0.03), (9, 0.05), (17, 0.07)],
        &far_pool(groups),
        0.2,
        0x51,
    );
    let specs = vec![
        ColumnSpec::new("z", 48, ColumnGen::PrimaryZipf { s: 1.1 }),
        ColumnSpec::new(
            "x",
            groups as u32,
            ColumnGen::Conditional { parent: 0, dists },
        ),
    ];
    // Shuffle before persisting, as the real preprocessing pipeline does.
    let table = shuffle_table(&generate_table(&specs, 120_000, 7), 0xfeed);
    let layout = BlockLayout::new(table.n_rows(), 150);
    let bitmap = BitmapIndex::build(&table, 0, &layout);
    let cfg = HistSimConfig {
        k: 4,
        epsilon: 0.1,
        delta: 0.05,
        sigma: 0.001,
        stage1_samples: 15_000,
        ..HistSimConfig::default()
    };

    // RAII guard: the block file is removed even when an assertion
    // panics before the end of the test.
    let scratch = TempBlockFile::new("smoke");
    let backend = FileBackend::create(scratch.path(), &table, 150)
        .expect("persisting the dataset failed")
        .with_cache_blocks(64);

    let mem_job = QueryJob::new(&table, layout, &bitmap, 0, 1, uniform(groups), cfg.clone());
    let sync = SyncMatchExec.run(&mem_job, 3).expect("SyncMatch failed");

    let outcome = QueryService::serve(&backend, ServiceConfig::default().with_workers(2), |svc| {
        let req = QueryRequest::new(&bitmap, 0, 1, uniform(groups), cfg).with_seed(3);
        svc.submit(req).unwrap().wait()
    });
    let served = outcome
        .finished()
        .expect("the served query over files failed");

    let mut sync_ids = sync.candidate_ids();
    let mut served_ids = served.candidate_ids();
    sync_ids.sort_unstable();
    served_ids.sort_unstable();
    assert_eq!(
        served_ids, sync_ids,
        "the file-backed served query must find the matched set of the in-memory baseline"
    );
    assert!(served.stats.io.blocks_read > 0);
    assert!(
        backend.cache_stats().misses > 0,
        "the run must have performed real file reads"
    );
}
