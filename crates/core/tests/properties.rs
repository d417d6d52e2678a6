//! Property-based tests for the statistical core.

use proptest::prelude::*;

use fastmatch_core::guarantees::GroundTruth;
use fastmatch_core::histsim::{HistSim, HistSimConfig};
use fastmatch_core::sampler::{tuples_from_histograms, MemorySampler};
use fastmatch_core::stats::deviation::DeviationBound;
use fastmatch_core::stats::holm_bonferroni::{bonferroni, HolmBonferroni};
use fastmatch_core::stats::hypergeometric;
use fastmatch_core::topk::k_smallest_indices;
use fastmatch_core::Metric;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Theorem 1's ε(n) and n(ε) are mutually inverse and monotone.
    #[test]
    fn deviation_bound_inverse(
        groups in 1usize..400,
        eps in 0.01f64..1.5,
        delta in 1e-6f64..0.5,
    ) {
        let b = DeviationBound::L1 { groups };
        let n = b.samples_needed(eps, delta);
        prop_assert!(b.epsilon(n, delta) <= eps + 1e-12);
        if n > 1 {
            prop_assert!(b.epsilon(n - 1, delta) > eps);
        }
    }

    /// P-values decrease in both ε and n, and are valid probabilities.
    #[test]
    fn deviation_pvalues_monotone(
        groups in 1usize..100,
        eps in 0.01f64..1.0,
        n in 1u64..1_000_000,
    ) {
        let b = DeviationBound::L1 { groups };
        let p = b.pvalue(eps, n);
        prop_assert!((0.0..=1.0).contains(&p));
        prop_assert!(b.pvalue(eps * 1.5, n) <= p + 1e-15);
        prop_assert!(b.pvalue(eps, n * 2) <= p + 1e-15);
    }

    /// Holm–Bonferroni rejects a superset of plain Bonferroni and never
    /// rejects a P-value above the raw level.
    #[test]
    fn holm_dominates_bonferroni(
        pvals in prop::collection::vec(0.0f64..1.0, 1..40),
        level in 0.001f64..0.3,
    ) {
        let hb = HolmBonferroni::test(&pvals, level);
        let bf = bonferroni(&pvals, level);
        for i in 0..pvals.len() {
            if bf[i] {
                prop_assert!(hb.rejected()[i]);
            }
            if hb.rejected()[i] {
                prop_assert!(pvals[i] <= level);
            }
        }
    }

    /// The hypergeometric pmf is a distribution and its prefix CDF is
    /// monotone, matching the shared-computation path.
    #[test]
    fn hypergeometric_consistency(
        n_total in 10u64..4000,
        k_frac in 0.01f64..0.99,
        m_frac in 0.01f64..0.99,
    ) {
        let k = ((n_total as f64 * k_frac) as u64).max(1);
        let m = ((n_total as f64 * m_frac) as u64).max(1);
        let total: f64 = (0..=m.min(k))
            .map(|j| hypergeometric::pmf(j, n_total, k, m))
            .sum();
        prop_assert!((total - 1.0).abs() < 1e-6, "pmf sums to {total}");
        let sigma = k as f64 / n_total as f64;
        let n_is: Vec<u64> = (0..=m.min(k).min(20)).collect();
        let shared = hypergeometric::underrepresentation_pvalues(&n_is, n_total, sigma, m);
        for w in shared.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-12);
        }
        for (i, &ni) in n_is.iter().enumerate() {
            let direct = hypergeometric::cdf_lower(ni, n_total, (sigma * n_total as f64).ceil() as u64, m);
            prop_assert!((shared[i] - direct).abs() < 1e-9);
        }
    }

    /// ℓ1 distance between random distributions is symmetric, bounded by
    /// 2, and satisfies the triangle inequality.
    #[test]
    fn l1_metric_axioms(
        a in prop::collection::vec(0.01f64..1.0, 2..30),
        b in prop::collection::vec(0.01f64..1.0, 2..30),
        c in prop::collection::vec(0.01f64..1.0, 2..30),
    ) {
        let n = a.len().min(b.len()).min(c.len());
        let norm = |v: &[f64]| -> Vec<f64> {
            let s: f64 = v[..n].iter().sum();
            v[..n].iter().map(|x| x / s).collect()
        };
        let (pa, pb, pc) = (norm(&a), norm(&b), norm(&c));
        let d = |x: &[f64], y: &[f64]| Metric::L1.eval(x, y);
        prop_assert!((d(&pa, &pb) - d(&pb, &pa)).abs() < 1e-12);
        prop_assert!(d(&pa, &pb) <= 2.0 + 1e-12);
        prop_assert!(d(&pa, &pc) <= d(&pa, &pb) + d(&pb, &pc) + 1e-12);
    }

    /// k-smallest selection returns ascending values and exactly the
    /// smallest eligible entries.
    #[test]
    fn k_smallest_is_correct(
        values in prop::collection::vec(0.0f64..10.0, 1..50),
        k in 1usize..10,
    ) {
        let eligible = vec![true; values.len()];
        let picked = k_smallest_indices(&values, k, &eligible);
        prop_assert_eq!(picked.len(), k.min(values.len()));
        for w in picked.windows(2) {
            prop_assert!(values[w[0]] <= values[w[1]]);
        }
        if let Some(&worst) = picked.last() {
            let picked_set: std::collections::HashSet<_> = picked.iter().copied().collect();
            for (i, &v) in values.iter().enumerate() {
                if !picked_set.contains(&i) {
                    prop_assert!(v >= values[worst] - 1e-12);
                }
            }
        }
    }

    /// End-to-end HistSim on random small instances: when the sampler is
    /// allowed to exhaust the data, the output must satisfy both
    /// guarantees against exact ground truth — regardless of the data.
    #[test]
    fn histsim_guarantees_on_random_instances(
        hist_rows in prop::collection::vec(
            prop::collection::vec(0u64..80, 4),
            3..12
        ),
        seed in 0u64..1000,
        k in 1usize..4,
    ) {
        let total: u64 = hist_rows.iter().flatten().sum();
        prop_assume!(total > 0);
        let groups = 4;
        let cfg = HistSimConfig {
            k,
            epsilon: 0.25,
            delta: 0.1,
            sigma: 0.0,
            stage1_samples: (total / 3).max(1),
            ..HistSimConfig::default()
        };
        let target = [0.25f64; 4];
        let tuples = tuples_from_histograms(&hist_rows);
        let mut sampler = MemorySampler::new(tuples.clone(), hist_rows.len(), seed);
        let mut hs = HistSim::new(cfg.clone(), hist_rows.len(), groups, total, &target).unwrap();
        let out = sampler.run(&mut hs).unwrap();

        let truth = GroundTruth::from_tuples(
            tuples.iter().map(|s| (s.candidate, s.group)),
            hist_rows.len(),
            groups,
            target.to_vec(),
            Metric::L1,
        );
        prop_assert!(
            truth.check_separation(&out.candidate_ids(), cfg.epsilon, cfg.sigma),
            "separation violated: got {:?}, true {:?}",
            out.candidate_ids(),
            truth.true_topk(k, 0.0)
        );
        prop_assert!(truth.check_reconstruction(&out.matches, cfg.epsilon));
    }
}
