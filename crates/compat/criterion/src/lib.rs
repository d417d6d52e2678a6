//! Offline stand-in for the [`criterion`](https://crates.io/crates/criterion)
//! crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the API subset its `harness = false` benches use:
//! [`Criterion::bench_function`], [`Bencher::iter`], [`black_box`] and the
//! [`criterion_group!`] / [`criterion_main!`] macros. Measurement is a
//! straightforward repeated-sample walltime estimate (median, quartiles
//! and mean of `sample_size` samples, each auto-scaled to a minimum
//! per-sample duration) — no warmup-calibrated statistics, outlier
//! analysis, or HTML reports. A row whose interquartile range exceeds
//! 10 % of its median is flagged `SPREAD`: a move between two such
//! readings smaller than their spread says nothing.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

/// Opaque value barrier preventing the optimizer from deleting benched
/// computations.
#[inline]
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Times one benchmark routine.
#[derive(Debug)]
pub struct Bencher {
    /// Iterations per timed sample (calibrated by the harness).
    iters: u64,
    /// Total elapsed time of the last [`Bencher::iter`] call.
    elapsed: Duration,
}

impl Bencher {
    /// Runs `routine` `iters` times and records the elapsed walltime.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }
}

/// The benchmark harness: collects timing samples and prints a summary
/// line per benchmark.
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 20,
            measurement_time: Duration::from_secs(2),
            warm_up_time: Duration::from_millis(300),
        }
    }
}

impl Criterion {
    /// Sets the number of timing samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = n;
        self
    }

    /// Sets the target total measurement time per benchmark.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    /// Sets the warmup time per benchmark.
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up_time = d;
        self
    }

    /// Runs one benchmark and prints `id ... median/mean per-iteration
    /// time`.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        // Warmup + calibration: find an iteration count whose sample takes
        // roughly measurement_time / sample_size.
        let mut b = Bencher {
            iters: 1,
            elapsed: Duration::ZERO,
        };
        let warm_start = Instant::now();
        loop {
            f(&mut b);
            if warm_start.elapsed() >= self.warm_up_time {
                break;
            }
            if b.elapsed < Duration::from_millis(1) && b.iters < u64::MAX / 2 {
                b.iters *= 2;
            }
        }
        let per_iter = b.elapsed.as_secs_f64() / b.iters as f64;
        let target_sample = self.measurement_time.as_secs_f64() / self.sample_size as f64;
        b.iters = ((target_sample / per_iter.max(1e-12)) as u64).clamp(1, 1_000_000_000);

        let mut samples: Vec<f64> = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            f(&mut b);
            samples.push(b.elapsed.as_secs_f64() / b.iters as f64);
        }
        let s = Summary::of(&mut samples);
        let spread = if s.spread_exceeds(SPREAD_FLAG) {
            format!(
                "  SPREAD: IQR {:.0} % of median",
                100.0 * s.iqr() / s.median
            )
        } else {
            String::new()
        };
        println!(
            "{id:<48} median {:>12}  q1 {:>12}  q3 {:>12}  mean {:>12}  ({} samples x {} iters){spread}",
            format_time(s.median),
            format_time(s.q1),
            format_time(s.q3),
            format_time(s.mean),
            self.sample_size,
            b.iters
        );
        self
    }
}

/// The interquartile range, as a fraction of the median, above which a
/// row is flagged.
const SPREAD_FLAG: f64 = 0.10;

/// Order statistics of one benchmark's per-iteration times.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Summary {
    q1: f64,
    median: f64,
    q3: f64,
    mean: f64,
}

impl Summary {
    /// Sorts `samples` and reads the quartiles at ranks ⌊n/4⌋, ⌊n/2⌋
    /// and ⌊3n/4⌋.
    fn of(samples: &mut [f64]) -> Self {
        assert!(!samples.is_empty(), "no samples");
        samples.sort_by(|a, b| a.partial_cmp(b).expect("times are never NaN"));
        let n = samples.len();
        Summary {
            q1: samples[n / 4],
            median: samples[n / 2],
            q3: samples[3 * n / 4],
            mean: samples.iter().sum::<f64>() / n as f64,
        }
    }

    fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }

    /// Whether the interquartile range exceeds `frac` of the median.
    fn spread_exceeds(&self, frac: f64) -> bool {
        self.iqr() > frac * self.median
    }
}

fn format_time(secs: f64) -> String {
    if secs < 1e-6 {
        format!("{:.2} ns", secs * 1e9)
    } else if secs < 1e-3 {
        format!("{:.2} µs", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.2} ms", secs * 1e3)
    } else {
        format!("{secs:.3} s")
    }
}

/// Declares a benchmark group: a function invoking each target with a
/// shared [`Criterion`] configuration.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $cfg:expr; targets = $($target:path),* $(,)?) => {
        fn $name() {
            let mut c: $crate::Criterion = $cfg;
            $($target(&mut c);)*
        }
    };
    ($name:ident, $($target:path),* $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),*
        }
    };
}

/// Declares the bench binary's `main`, running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),* $(,)?) => {
        fn main() {
            $($group();)*
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_and_reports() {
        let mut c = Criterion::default()
            .sample_size(3)
            .measurement_time(Duration::from_millis(30))
            .warm_up_time(Duration::from_millis(5));
        let mut calls = 0u64;
        c.bench_function("noop", |b| b.iter(|| black_box(1 + 1)));
        c.bench_function("counting", |b| {
            b.iter(|| {
                calls += 1;
                calls
            })
        });
        assert!(calls > 0);
    }

    /// Quartiles come out ordered whatever order the samples came in,
    /// and only a row whose middle half spans more than 10 % of its
    /// median is flagged.
    #[test]
    fn quartiles_are_ordered_and_spread_is_flagged() {
        let mut tight: Vec<f64> = (0..20)
            .map(|i| 100.0 + ((i * 7) % 20) as f64 * 0.2)
            .collect();
        let s = Summary::of(&mut tight);
        assert!(s.q1 <= s.median && s.median <= s.q3, "{s:?}");
        assert!(!s.spread_exceeds(SPREAD_FLAG), "{s:?}");
        let mut wide: Vec<f64> = (0..20)
            .map(|i| 100.0 + ((i * 13) % 20) as f64 * 5.0)
            .collect();
        let s = Summary::of(&mut wide);
        assert!(s.q1 <= s.median && s.median <= s.q3, "{s:?}");
        assert!(s.spread_exceeds(SPREAD_FLAG), "{s:?}");
        let mut one = [3.0];
        let s = Summary::of(&mut one);
        assert_eq!((s.q1, s.median, s.q3), (3.0, 3.0, 3.0));
    }

    #[test]
    fn format_time_scales() {
        assert!(format_time(5e-9).ends_with("ns"));
        assert!(format_time(5e-6).ends_with("µs"));
        assert!(format_time(5e-3).ends_with("ms"));
        assert!(format_time(5.0).ends_with('s'));
    }
}
