//! The one percentile/summary implementation of the benchmark.
//!
//! Every timing the benchmark reports goes through [`Summary`], which
//! carries its sample count and refuses a percentile the sample cannot
//! support: `p` is reported only when at least [`MIN_BEYOND`] samples lie
//! beyond it (`n · (1 − p) ≥ 10`), otherwise the caller gets the maximum
//! instead and the report says so. Raw samples are kept so the `--out`
//! file can store them next to the summary.

use crate::json::Value;

/// Samples that must lie beyond a percentile for it to be quoted.
pub const MIN_BEYOND: f64 = 10.0;

/// What a tail request resolved to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tail {
    /// The requested percentile; enough samples lie beyond it.
    Percentile(f64),
    /// Too few samples: the maximum, reported *instead of* the percentile.
    MaxInstead(f64),
}

/// Sorted samples of one quantity plus the figures derived from them.
#[derive(Debug, Clone)]
pub struct Summary {
    sorted: Vec<f64>,
}

impl Summary {
    /// Summarises `samples`; `None` when there are none (or any is NaN,
    /// which would make every order statistic meaningless).
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() || samples.iter().any(|s| s.is_nan()) {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN excluded above"));
        Some(Summary { sorted })
    }

    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    pub fn max(&self) -> f64 {
        self.sorted[self.sorted.len() - 1]
    }

    pub fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// Linear-interpolated quantile, `q` in `[0, 1]`.
    fn quantile(&self, q: f64) -> f64 {
        let pos = q * (self.sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        self.sorted[lo] + (self.sorted[hi] - self.sorted[lo]) * (pos - lo as f64)
    }

    pub fn p50(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The `q` tail (e.g. `0.95`), or the maximum when fewer than
    /// [`MIN_BEYOND`] samples lie beyond it.
    pub fn tail(&self, q: f64) -> Tail {
        if self.sorted.len() as f64 * (1.0 - q) >= MIN_BEYOND {
            Tail::Percentile(self.quantile(q))
        } else {
            Tail::MaxInstead(self.max())
        }
    }

    /// `{n, p50, max, mean, samples}` for the `--out` file.
    pub fn to_json(&self) -> Value {
        Value::obj(vec![
            ("n", Value::Num(self.n() as f64)),
            ("p50", Value::Num(self.p50())),
            ("max", Value::Num(self.max())),
            ("mean", Value::Num(self.mean())),
            ("samples", Value::nums(&self.sorted)),
        ])
    }
}

/// Median of a few repetitions (set-up times, section ratios).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.p50())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!(s.n(), 4);
        assert_eq!(s.p50(), 2.5);
        assert_eq!(s.max(), 4.0);
        assert_eq!(s.mean(), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let few: Vec<f64> = (0..199).map(f64::from).collect();
        assert_eq!(
            Summary::of(&few).unwrap().tail(0.95),
            Tail::MaxInstead(198.0)
        );
        let enough: Vec<f64> = (0..200).map(f64::from).collect();
        assert!(matches!(
            Summary::of(&enough).unwrap().tail(0.95),
            Tail::Percentile(v) if (v - 189.05).abs() < 1e-9
        ));
        // p99 needs a thousand.
        assert!(matches!(
            Summary::of(&enough).unwrap().tail(0.99),
            Tail::MaxInstead(_)
        ));
    }

    #[test]
    fn empty_and_nan_are_refused() {
        assert!(Summary::of(&[]).is_none());
        assert!(Summary::of(&[1.0, f64::NAN]).is_none());
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
