//! Configuration for a HistSim run.

use crate::distance::Metric;
use crate::error::{CoreError, Result};
use crate::stats::deviation::DeviationBound;

/// User-facing parameters of Problem 1 (`TOP-K-SIMILAR`) plus the knobs the
/// paper treats as system constants.
#[derive(Debug, Clone)]
pub struct HistSimConfig {
    /// Number of matching histograms to retrieve.
    pub k: usize,
    /// Approximation error upper bound ε used for the separation guarantee
    /// (Guarantee 1), and — unless [`Self::epsilon_reconstruction`] is set —
    /// for the reconstruction guarantee too.
    pub epsilon: f64,
    /// Appendix A.2.1: a distinct ε₂ for the reconstruction guarantee
    /// (Guarantee 2). `None` means ε₂ = ε.
    pub epsilon_reconstruction: Option<f64>,
    /// Error probability upper bound δ: both guarantees hold simultaneously
    /// with probability greater than `1 − δ`.
    pub delta: f64,
    /// Minimum selectivity threshold σ: candidates with `Nᵢ/N < σ` may be
    /// pruned in stage 1. σ = 0 disables pruning (the §5.4 pathology).
    pub sigma: f64,
    /// Number of uniform samples `m` taken during stage 1. The paper uses
    /// `5·10⁵`; it should be large enough to detect rare candidates but a
    /// small fraction of the data (footnote 1).
    pub stage1_samples: u64,
    /// Distance metric. Only [`Metric::L1`] (the paper's choice) and
    /// [`Metric::L2`] (Appendix A.2.2) admit the deviation bounds HistSim
    /// needs; other metrics are rejected at validation.
    pub metric: Metric,
    /// Appendix A.2.3: permit any number of matches within `[k_lo, k_hi]`,
    /// letting the algorithm pick the easiest split. Overrides `k`.
    pub k_range: Option<(usize, usize)>,
    /// Appendix A.1.5: when the candidate domain is not known up front, add
    /// a "dummy" stage-1 test certifying that *unseen* candidates are
    /// collectively rare.
    pub test_unseen_mass: bool,
    /// Safety factor on the per-round stage-2 sample targets `n′ᵢ`.
    ///
    /// Eq. 1 (§4.2 Challenge 2) solves Theorem 1 so that the *expected*
    /// P-value of each test lands exactly at `δ_upper` — a round then
    /// fails with roughly even odds per candidate, and with many
    /// candidates the simultaneous test almost never rejects. Scaling the
    /// targets by 4 (equivalently halving the assumed deviation `ε′ᵢ`)
    /// puts the expected P-value far below the threshold so rounds
    /// terminate in 1–2 attempts, matching the paper's reported 4–5 round
    /// worst case. Set to 1.0 for the literal Eq. 1 behaviour.
    pub round_multiplier: f64,
    /// How stage 1 decides which candidates are rare: from the exact row
    /// counts a driver hands over with [`super::HistSim::with_row_counts`]
    /// (the default), or by the paper's sampled test. A run given no
    /// counts runs the sampled test whatever this says.
    pub rare: RarePruning,
}

/// How stage 1 prunes rare candidates (`Nᵢ/N < σ`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RarePruning {
    /// Prune exactly the candidates whose known row count is below
    /// [`super::rare_threshold`]. Stage 1's samples are still drawn for
    /// stage 2's first estimates, but no test is run and no error is
    /// made, so Guarantees 1 and 2 hold a fortiori.
    #[default]
    FromCounts,
    /// The paper's stage 1 (§3, Algorithm 1): a hypergeometric
    /// underrepresentation test per candidate under Holm–Bonferroni at
    /// level δ/3, plus Appendix A.1.5's unseen-mass test when enabled.
    Sampled,
}

impl Default for HistSimConfig {
    /// The default experimental settings of §5.2: `k = 10`, `ε = 0.04`,
    /// `δ = 0.01`, `σ = 0.0008`, `m = 5·10⁵`, ℓ1 distance — with one
    /// deviation: stage 1 prunes from exact row counts when the driver
    /// has them ([`RarePruning::FromCounts`]), where §5.2 tests a sample.
    /// [`RarePruning::Sampled`] is the paper's stage 1.
    fn default() -> Self {
        HistSimConfig {
            k: 10,
            epsilon: 0.04,
            epsilon_reconstruction: None,
            delta: 0.01,
            sigma: 0.0008,
            stage1_samples: 500_000,
            metric: Metric::L1,
            k_range: None,
            test_unseen_mass: false,
            round_multiplier: 4.0,
            rare: RarePruning::FromCounts,
        }
    }
}

impl HistSimConfig {
    /// Validates parameter domains and returns the deviation bound the
    /// metric admits.
    pub fn validate(&self, groups: usize) -> Result<DeviationBound> {
        if self.k == 0 && self.k_range.is_none() {
            return Err(CoreError::InvalidConfig("k must be at least 1".into()));
        }
        if !self.epsilon.is_finite() || self.epsilon <= 0.0 {
            return Err(CoreError::InvalidConfig("epsilon must be positive".into()));
        }
        if let Some(e2) = self.epsilon_reconstruction {
            if !e2.is_finite() || e2 <= 0.0 {
                return Err(CoreError::InvalidConfig(
                    "epsilon_reconstruction must be positive".into(),
                ));
            }
        }
        if !(self.delta > 0.0 && self.delta < 1.0) {
            return Err(CoreError::InvalidConfig("delta must lie in (0, 1)".into()));
        }
        if !(0.0..=1.0).contains(&self.sigma) {
            return Err(CoreError::InvalidConfig("sigma must lie in [0, 1]".into()));
        }
        if self.stage1_samples == 0 {
            return Err(CoreError::InvalidConfig(
                "stage1_samples must be positive".into(),
            ));
        }
        if !self.round_multiplier.is_finite() || self.round_multiplier < 1.0 {
            return Err(CoreError::InvalidConfig(
                "round_multiplier must be at least 1".into(),
            ));
        }
        if let Some((lo, hi)) = self.k_range {
            if lo == 0 || lo > hi {
                return Err(CoreError::InvalidConfig(
                    "k_range must satisfy 1 ≤ lo ≤ hi".into(),
                ));
            }
        }
        if groups == 0 {
            return Err(CoreError::InvalidConfig(
                "histograms must have at least one group".into(),
            ));
        }
        match self.metric {
            Metric::L1 => Ok(DeviationBound::L1 { groups }),
            Metric::L2 => Ok(DeviationBound::L2),
            other => Err(CoreError::InvalidConfig(format!(
                "metric {:?} has no deviation bound; use L1 or L2",
                other
            ))),
        }
    }

    /// The reconstruction tolerance ε₂ (falls back to ε).
    pub fn eps_reconstruction(&self) -> f64 {
        self.epsilon_reconstruction.unwrap_or(self.epsilon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_settings() {
        let c = HistSimConfig::default();
        assert_eq!(c.k, 10);
        assert_eq!(c.epsilon, 0.04);
        assert_eq!(c.delta, 0.01);
        assert_eq!(c.sigma, 0.0008);
        assert_eq!(c.stage1_samples, 500_000);
        assert_eq!(c.metric, Metric::L1);
        // The one deviation from §5.2: rare candidates are pruned from
        // exact counts when the driver has them, not by a sampled test.
        assert_eq!(c.rare, RarePruning::FromCounts);
        assert!(c.validate(24).is_ok());
    }

    #[test]
    fn rejects_bad_parameters() {
        let base = HistSimConfig::default();
        let cases: Vec<HistSimConfig> = vec![
            HistSimConfig {
                k: 0,
                ..base.clone()
            },
            HistSimConfig {
                epsilon: 0.0,
                ..base.clone()
            },
            HistSimConfig {
                epsilon: -1.0,
                ..base.clone()
            },
            HistSimConfig {
                delta: 0.0,
                ..base.clone()
            },
            HistSimConfig {
                delta: 1.0,
                ..base.clone()
            },
            HistSimConfig {
                sigma: -0.1,
                ..base.clone()
            },
            HistSimConfig {
                sigma: 1.5,
                ..base.clone()
            },
            HistSimConfig {
                stage1_samples: 0,
                ..base.clone()
            },
            HistSimConfig {
                k_range: Some((0, 3)),
                ..base.clone()
            },
            HistSimConfig {
                k_range: Some((5, 2)),
                ..base.clone()
            },
            HistSimConfig {
                epsilon_reconstruction: Some(0.0),
                ..base.clone()
            },
            HistSimConfig {
                metric: Metric::KlDivergence,
                ..base.clone()
            },
            HistSimConfig {
                metric: Metric::TotalVariation,
                ..base
            },
        ];
        for c in cases {
            assert!(c.validate(24).is_err(), "{c:?} should be invalid");
        }
    }

    #[test]
    fn zero_groups_rejected() {
        assert!(HistSimConfig::default().validate(0).is_err());
    }

    #[test]
    fn k_zero_allowed_with_range() {
        let c = HistSimConfig {
            k: 0,
            k_range: Some((2, 5)),
            ..HistSimConfig::default()
        };
        assert!(c.validate(24).is_ok());
    }

    #[test]
    fn l2_metric_selects_l2_bound() {
        let c = HistSimConfig {
            metric: Metric::L2,
            ..HistSimConfig::default()
        };
        assert_eq!(c.validate(24).unwrap(), DeviationBound::L2);
    }

    #[test]
    fn eps_reconstruction_fallback() {
        let mut c = HistSimConfig::default();
        assert_eq!(c.eps_reconstruction(), c.epsilon);
        c.epsilon_reconstruction = Some(0.1);
        assert_eq!(c.eps_reconstruction(), 0.1);
    }
}
