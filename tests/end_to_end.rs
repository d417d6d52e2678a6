//! Cross-crate integration tests over the facade: the full pipeline from
//! synthetic data generation through storage, indexing and every executor,
//! validated against exact ground truth.

use fastmatch::prelude::*;
use fastmatch_data::gen::{conditional_with_planted_pool, generate_table, ColumnGen, ColumnSpec};
use fastmatch_data::queries::all_queries;
use fastmatch_data::shapes::{far_pool, uniform};

fn planted_table(rows: usize, seed: u64) -> fastmatch_store::Table {
    let dists = conditional_with_planted_pool(
        50,
        &uniform(6),
        &[(0, 0.0), (3, 0.04), (7, 0.09), (12, 0.35)],
        &far_pool(6),
        0.15,
        seed ^ 0x77,
    );
    let specs = vec![
        ColumnSpec::new("z", 50, ColumnGen::PrimaryZipf { s: 1.0 }),
        ColumnSpec::new("x", 6, ColumnGen::Conditional { parent: 0, dists }),
    ];
    generate_table(&specs, rows, seed)
}

fn truth_for(table: &fastmatch_store::Table) -> GroundTruth {
    GroundTruth::from_tuples(
        table
            .column(0)
            .iter()
            .zip(table.column(1))
            .map(|(&z, &x)| (z, x)),
        50,
        6,
        uniform(6),
        Metric::L1,
    )
}

fn cfg() -> HistSimConfig {
    HistSimConfig {
        k: 3,
        epsilon: 0.1,
        delta: 0.05,
        sigma: 0.001,
        stage1_samples: 15_000,
        ..HistSimConfig::default()
    }
}

#[test]
fn full_pipeline_all_executors() {
    let table = planted_table(300_000, 1);
    let truth = truth_for(&table);
    let layout = BlockLayout::with_default_block(table.n_rows());
    let bitmap = BitmapIndex::build(&table, 0, &layout);
    let execs: Vec<Box<dyn Executor>> = vec![
        Box::new(ScanExec),
        Box::new(ScanMatchExec),
        Box::new(SyncMatchExec),
        Box::new(FastMatchExec::default()),
    ];
    let mut runs: Vec<(&str, MatchOutput)> = execs
        .iter()
        .map(|e| {
            let job = QueryJob::new(&table, layout, &bitmap, 0, 1, uniform(6), cfg());
            let out = e.run(&job, 5).unwrap_or_else(|_| panic!("{}", e.name()));
            (e.name(), out)
        })
        .collect();
    // The served column: the same query on a 2-worker `QueryService`.
    let backend = MemBackend::new(&table, layout);
    let served = QueryService::serve(&backend, ServiceConfig::default().with_workers(2), |svc| {
        let req = QueryRequest::new(&bitmap, 0, 1, uniform(6), cfg()).with_seed(5);
        svc.submit(req).unwrap().wait()
    });
    runs.push(("Service", served.finished().expect("Service").clone()));
    for (name, out) in runs {
        assert_eq!(out.candidate_ids()[0], 0, "{name}");
        assert!(
            truth.check_separation(&out.candidate_ids(), 0.1, 0.001),
            "{name}"
        );
        assert!(
            truth.check_reconstruction(&out.output.matches, 0.1),
            "{name}"
        );
    }
}

#[test]
fn repeated_runs_respect_delta() {
    // 20 runs with distinct seeds: the number of guarantee violations must
    // stay far below what even δ = 0.05 would permit (the bound is loose,
    // as the paper also observes — they saw zero violations).
    let table = planted_table(200_000, 2);
    let truth = truth_for(&table);
    let layout = BlockLayout::with_default_block(table.n_rows());
    let bitmap = BitmapIndex::build(&table, 0, &layout);
    let mut violations = 0;
    for seed in 0..20u64 {
        let job = QueryJob::new(&table, layout, &bitmap, 0, 1, uniform(6), cfg());
        let out = FastMatchExec::default().run(&job, seed).unwrap();
        let ok = truth.check_separation(&out.candidate_ids(), 0.1, 0.001)
            && truth.check_reconstruction(&out.output.matches, 0.1);
        if !ok {
            violations += 1;
        }
    }
    assert!(violations <= 2, "{violations}/20 runs violated guarantees");
}

#[test]
fn delta_d_stays_small() {
    let table = planted_table(250_000, 3);
    let truth = truth_for(&table);
    let layout = BlockLayout::with_default_block(table.n_rows());
    let bitmap = BitmapIndex::build(&table, 0, &layout);
    let job = QueryJob::new(&table, layout, &bitmap, 0, 1, uniform(6), cfg());
    let out = ScanMatchExec.run(&job, 9).unwrap();
    let dd = truth.delta_d(&out.output.matches, 0.001);
    assert!(dd.abs() < 0.25, "delta_d = {dd}");
}

#[test]
fn paper_workload_smoke() {
    // Every Table 3 query runs end-to-end at smoke scale and satisfies
    // its guarantees (runs degenerate to exact at this size, which is the
    // correct fallback behaviour).
    let rows = 60_000;
    let queries = all_queries();
    let mut tables = std::collections::HashMap::new();
    for q in &queries {
        tables
            .entry(q.dataset)
            .or_insert_with(|| q.dataset.generate(rows, 4));
    }
    for q in &queries {
        let table = &tables[&q.dataset];
        let z = q.z_attr(table);
        let x = q.x_attr(table);
        let (target, _) = q.resolve_target(table);
        let layout = BlockLayout::with_default_block(table.n_rows());
        let bitmap = BitmapIndex::build(table, z, &layout);
        let cfg = HistSimConfig {
            k: q.k,
            stage1_samples: 10_000,
            ..HistSimConfig::default()
        };
        let job = QueryJob::new(table, layout, &bitmap, z, x, target.clone(), cfg.clone());
        let out = ScanMatchExec
            .run(&job, 3)
            .unwrap_or_else(|e| panic!("{}: {e}", q.id));
        assert_eq!(out.candidate_ids().len(), q.k, "{}", q.id);

        let vx = table.cardinality(x) as usize;
        let truth = GroundTruth::from_tuples(
            table
                .column(z)
                .iter()
                .zip(table.column(x))
                .map(|(&a, &b)| (a, b)),
            table.cardinality(z) as usize,
            vx,
            target,
            Metric::L1,
        );
        assert!(
            truth.check_separation(&out.candidate_ids(), cfg.epsilon, cfg.sigma),
            "{}: separation",
            q.id
        );
        assert!(
            truth.check_reconstruction(&out.output.matches, cfg.epsilon),
            "{}: reconstruction",
            q.id
        );
    }
}

#[test]
fn facade_reexports_are_usable() {
    // The prelude's types compose: build a tiny run through fastmatch::core.
    use fastmatch::core::sampler::tuples_from_histograms;
    let hists = vec![vec![30u64, 30], vec![60, 0]];
    let tuples = tuples_from_histograms(&hists);
    let mut hs = fastmatch::core::HistSim::new(
        HistSimConfig {
            k: 1,
            epsilon: 0.3,
            delta: 0.1,
            sigma: 0.0,
            stage1_samples: 30,
            ..HistSimConfig::default()
        },
        2,
        2,
        120,
        &[0.5, 0.5],
    )
    .unwrap();
    let mut sampler = MemorySampler::new(tuples, 2, 0);
    let out = sampler.run(&mut hs).unwrap();
    assert_eq!(out.candidate_ids(), vec![0]);
}
