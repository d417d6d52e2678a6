//! End-to-end tests of the configuration-driven Appendix A extensions
//! (A.1.5, A.2.1–A.2.3) through the in-memory sampling driver.

use fastmatch_core::histsim::{HistSim, HistSimConfig, HistSimOutput, RarePruning};
use fastmatch_core::sampler::{tuples_from_histograms, MemorySampler};
use fastmatch_core::Metric;

/// 14 candidates over 4 groups: a cluster of 7 close to uniform (planted
/// counts), then a wide gap, then far candidates.
fn clustered_hists() -> Vec<Vec<u64>> {
    let mut hists = Vec::new();
    // 7 near-uniform candidates with slightly increasing skew
    for i in 0..7u64 {
        let d = i * 12;
        hists.push(vec![2000 + d, 2000 - d, 2000 + d, 2000 - d]);
    }
    // 7 far candidates, strongly peaked
    for i in 0..7usize {
        let mut h = vec![160u64; 4];
        h[i % 4] = 7520;
        hists.push(h);
    }
    hists
}

fn run(cfg: HistSimConfig, hists: &[Vec<u64>], seed: u64) -> HistSimOutput {
    let tuples = tuples_from_histograms(hists);
    let n = tuples.len() as u64;
    let mut hs = HistSim::new(cfg, hists.len(), 4, n, &[0.25; 4]).unwrap();
    let mut sampler = MemorySampler::new(tuples, hists.len(), seed);
    sampler.run(&mut hs).unwrap()
}

#[test]
fn k_range_picks_the_natural_cluster() {
    // Appendix A.2.3: with k ∈ [4, 10] permitted and a 7-candidate cluster
    // followed by a big gap, the algorithm should settle on k = 7.
    let cfg = HistSimConfig {
        k: 0,
        k_range: Some((4, 10)),
        epsilon: 0.15,
        delta: 0.05,
        sigma: 0.0,
        stage1_samples: 5_000,
        ..HistSimConfig::default()
    };
    let out = run(cfg, &clustered_hists(), 3);
    assert_eq!(
        out.diagnostics.effective_k, 7,
        "chose k = {}",
        out.diagnostics.effective_k
    );
    let mut ids = out.candidate_ids();
    ids.sort_unstable();
    assert_eq!(ids, (0..7).collect::<Vec<u32>>());
}

#[test]
fn k_range_respects_bounds() {
    let cfg = HistSimConfig {
        k: 0,
        k_range: Some((2, 3)),
        epsilon: 0.15,
        delta: 0.05,
        sigma: 0.0,
        stage1_samples: 5_000,
        ..HistSimConfig::default()
    };
    let out = run(cfg, &clustered_hists(), 4);
    assert!(
        (2..=3).contains(&out.matches.len()),
        "returned {} matches",
        out.matches.len()
    );
}

#[test]
fn dual_epsilon_tightens_reconstruction_only() {
    // Appendix A.2.1: a small ε₂ forces more stage-3 samples per member
    // without changing the separation semantics. A generous ε keeps the
    // stage-2 demands small so the stage-3 difference is observable, and
    // candidates are scaled up so neither run consumes them fully.
    let hists: Vec<Vec<u64>> = clustered_hists()
        .into_iter()
        .map(|h| h.into_iter().map(|c| c * 5).collect())
        .collect();
    let loose = HistSimConfig {
        k: 2,
        epsilon: 0.3,
        epsilon_reconstruction: None,
        delta: 0.05,
        sigma: 0.0,
        stage1_samples: 4_000,
        ..HistSimConfig::default()
    };
    let tight = HistSimConfig {
        epsilon_reconstruction: Some(0.05),
        ..loose.clone()
    };
    let out_loose = run(loose, &hists, 5);
    let out_tight = run(tight, &hists, 5);
    assert_eq!(out_loose.candidate_ids(), out_tight.candidate_ids());
    let min_samples = |o: &HistSimOutput| o.matches.iter().map(|m| m.samples).min().unwrap();
    assert!(
        min_samples(&out_tight) > min_samples(&out_loose),
        "tight ε₂ must demand more reconstruction samples ({} vs {})",
        min_samples(&out_tight),
        min_samples(&out_loose)
    );
}

#[test]
fn l2_metric_runs_end_to_end() {
    // Appendix A.2.2: the ℓ2 bound variant identifies the near-uniform
    // cluster. The seven cluster members are only ≈ 0.003 apart in ℓ2 —
    // far below ε — so any of them is a separation-correct top-1; which
    // one wins is sampling noise, not semantics.
    let cfg = HistSimConfig {
        k: 1,
        metric: Metric::L2,
        epsilon: 0.1,
        delta: 0.05,
        sigma: 0.0,
        stage1_samples: 5_000,
        ..HistSimConfig::default()
    };
    let out = run(cfg, &clustered_hists(), 6);
    assert_eq!(out.matches.len(), 1);
    assert!(out.candidate_ids()[0] < 7, "got {:?}", out.candidate_ids());
}

#[test]
fn unseen_mass_test_reports_when_domain_sampled_enough() {
    // Appendix A.1.5: with a meaningful σ and plenty of stage-1 samples,
    // the dummy-candidate test certifies that fully unseen candidates are
    // collectively rare.
    let cfg = HistSimConfig {
        k: 2,
        epsilon: 0.2,
        delta: 0.05,
        sigma: 0.01,
        stage1_samples: 20_000,
        test_unseen_mass: true,
        ..HistSimConfig::default()
    };
    let out = run(cfg, &clustered_hists(), 7);
    assert_eq!(out.diagnostics.unseen_mass_rare, Some(true));
    // `MemorySampler` hands HistSim no row counts: stage 1 is sampled.
    assert_eq!(out.diagnostics.rare_pruning, RarePruning::Sampled);
}

#[test]
fn unseen_mass_test_absent_by_default() {
    let cfg = HistSimConfig {
        k: 2,
        epsilon: 0.2,
        delta: 0.05,
        sigma: 0.01,
        stage1_samples: 20_000,
        ..HistSimConfig::default()
    };
    let out = run(cfg, &clustered_hists(), 8);
    assert_eq!(out.diagnostics.unseen_mass_rare, None);
}
