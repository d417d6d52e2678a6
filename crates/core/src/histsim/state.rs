//! Per-candidate count state shared by the three HistSim stages.
//!
//! Counts are stored candidate-major in two flat arrays: *cumulative*
//! counts (`r`, `n` — every sample ever taken) and *round-fresh* counts
//! (`r∂`, `n∂` — samples of the current stage-2 round only, so the round's
//! statistical test never reuses data, as §3.4 requires). A pruned
//! candidate's rows still count in its `n` (they were read, which is
//! what consumption tracking needs), but add nothing to its cells or to
//! the running sample total.

use crate::distance::Metric;
use crate::histogram::Histogram;

/// Flat candidate-major count matrices plus distance caches.
#[derive(Debug, Clone)]
pub struct CountState {
    num_candidates: usize,
    groups: usize,
    /// Cumulative per-(candidate, group) counts, `candidate * groups + g`.
    counts: Vec<u64>,
    /// Cumulative per-candidate row counts `nᵢ`.
    n: Vec<u64>,
    /// Round-fresh per-(candidate, group) counts `r∂ᵢ`.
    round_counts: Vec<u64>,
    /// Round-fresh per-candidate row counts `n∂ᵢ`.
    n_round: Vec<u64>,
    /// Cumulative distance estimates `τᵢ` (recomputed on accumulation).
    tau: Vec<f64>,
    /// Running total of the samples recorded for candidates unpruned at
    /// the time (cumulative plus round).
    total: u64,
}

impl CountState {
    /// Creates zeroed state for `num_candidates × groups`.
    pub fn new(num_candidates: usize, groups: usize) -> Self {
        CountState {
            num_candidates,
            groups,
            counts: vec![0; num_candidates * groups],
            n: vec![0; num_candidates],
            round_counts: vec![0; num_candidates * groups],
            n_round: vec![0; num_candidates],
            tau: vec![f64::INFINITY; num_candidates],
            total: 0,
        }
    }

    /// Number of candidates `|V_Z|`.
    pub fn num_candidates(&self) -> usize {
        self.num_candidates
    }

    /// Number of groups `|V_X|`.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// The fused block kernel, `Scan`'s loop plus one weight: records the
    /// tuples `zs[i]`/`xs[i]` into the matrix `round` selects
    /// (round-fresh during stage-2 I/O, cumulative otherwise). Each tuple
    /// adds its candidate's weight (1, or 0 once pruned) to its cell and
    /// to the running total, and 1 to the candidate's row count, so `nᵢ +
    /// n∂ᵢ` counts every row of the candidate ingested, pruned or not.
    ///
    /// # Panics
    /// Panics on length mismatch or out-of-domain codes. The domain is
    /// checked per tuple, at the cost of a bounds check: the weight
    /// lookup is one (and, `weight` and the row counts being equally
    /// long, it covers the row count's too), the group compare the
    /// other. Two vectorized passes over the block before the loop cost
    /// more.
    #[inline]
    pub fn record_block(&mut self, round: bool, zs: &[u32], xs: &[u32], weight: &[u64]) {
        assert_eq!(zs.len(), xs.len(), "column slices must align");
        let groups = self.groups;
        // Plain slices, not the `Vec`s: a store through a borrowed `Vec`
        // might alias its own pointer, which the loop would then reload
        // per tuple (the reason `ScanExec`'s visitor owns slices too).
        let (cells, n): (&mut [u64], &mut [u64]) = if round {
            (&mut self.round_counts, &mut self.n_round)
        } else {
            (&mut self.counts, &mut self.n)
        };
        let weight = &weight[..n.len()];
        let mut kept = 0;
        for (&c, &g) in zs.iter().zip(xs) {
            let ci = c as usize;
            let Some(&w) = weight.get(ci) else {
                panic!("candidate {c} out of domain");
            };
            assert!((g as usize) < groups, "group {g} out of domain");
            cells[ci * groups + g as usize] += w;
            n[ci] += 1;
            kept += w;
        }
        self.total += kept;
    }

    /// The cell matrix the accumulator merge adds its cells to, selected
    /// as in [`Self::record_block`] and indexed `candidate * groups + g`;
    /// the merge then counts each touched candidate's rows once through
    /// [`Self::add_n`].
    #[inline]
    pub fn cells_mut(&mut self, round: bool) -> &mut [u64] {
        if round {
            &mut self.round_counts
        } else {
            &mut self.counts
        }
    }

    /// Adds `added` rows to one candidate's row count in the matrix
    /// selected as in [`Self::record_block`], and `added × weight` to the
    /// running total (the candidate's weight is 0 once pruned).
    #[inline]
    pub fn add_n(&mut self, round: bool, candidate: usize, added: u64, weight: u64) {
        if round {
            self.n_round[candidate] += added;
        } else {
            self.n[candidate] += added;
        }
        self.total += added * weight;
    }

    /// The row counts of the matrix `round` selects (as in
    /// [`Self::record_block`]): `n∂` or `n`.
    #[inline]
    pub fn landed(&self, round: bool) -> &[u64] {
        if round {
            &self.n_round
        } else {
            &self.n
        }
    }

    /// Rows of a candidate ingested so far, `nᵢ + n∂ᵢ`: its samples
    /// while it is unpruned, and every row of it read either way.
    #[inline]
    pub fn read(&self, candidate: usize) -> u64 {
        self.n[candidate] + self.n_round[candidate]
    }

    /// Cumulative sample count `nᵢ`.
    pub fn n(&self, candidate: usize) -> u64 {
        self.n[candidate]
    }

    /// Round-fresh sample count `n∂ᵢ`.
    pub fn n_round(&self, candidate: usize) -> u64 {
        self.n_round[candidate]
    }

    /// Samples of unpruned candidates taken so far (cumulative plus any
    /// un-accumulated round samples) — a running counter, O(1).
    pub fn total_samples(&self) -> u64 {
        self.total
    }

    /// Cumulative per-group counts for one candidate.
    pub fn candidate_counts(&self, candidate: usize) -> &[u64] {
        &self.counts[candidate * self.groups..(candidate + 1) * self.groups]
    }

    /// Cached cumulative distance estimate `τᵢ` (set by
    /// [`Self::refresh_tau`]). `+∞` until first refreshed.
    pub fn tau(&self, candidate: usize) -> f64 {
        self.tau[candidate]
    }

    /// All cached `τᵢ`.
    pub fn taus(&self) -> &[f64] {
        &self.tau
    }

    /// Folds the round-fresh counts into the cumulative counts
    /// (Algorithm 1 lines 15–16) and clears the round state.
    pub fn accumulate_round(&mut self) {
        for (a, b) in self.counts.iter_mut().zip(self.round_counts.iter_mut()) {
            *a += *b;
            *b = 0;
        }
        for (a, b) in self.n.iter_mut().zip(self.n_round.iter_mut()) {
            *a += *b;
            *b = 0;
        }
    }

    /// Recomputes the cumulative distance `τᵢ = d(r̄ᵢ, q̄)` for one
    /// candidate. Candidates with no samples get the metric's upper limit
    /// (they sort last but stay finite so split points stay meaningful).
    pub fn refresh_tau_one(&mut self, candidate: usize, metric: Metric, target: &[f64]) {
        self.tau[candidate] = distance_of_counts(
            self.candidate_counts(candidate),
            self.n[candidate],
            metric,
            target,
        );
    }

    /// Recomputes `τᵢ` for every candidate for which `eligible` is true.
    pub fn refresh_tau(&mut self, metric: Metric, target: &[f64], eligible: &[bool]) {
        for (c, &e) in eligible.iter().enumerate().take(self.num_candidates) {
            if e {
                self.refresh_tau_one(c, metric, target);
            }
        }
    }

    /// Round-fresh distance estimate `τ∂ᵢ` (not cached — used once per
    /// round). Returns `None` when the candidate has no fresh samples.
    pub fn tau_round(&self, candidate: usize, metric: Metric, target: &[f64]) -> Option<f64> {
        let n = self.n_round[candidate];
        if n == 0 {
            return None;
        }
        let counts = &self.round_counts[candidate * self.groups..(candidate + 1) * self.groups];
        Some(distance_of_counts(counts, n, metric, target))
    }

    /// Distance computed over cumulative *plus* in-flight round counts;
    /// exact for candidates whose data has been fully consumed.
    pub fn tau_total(&self, candidate: usize, metric: Metric, target: &[f64]) -> f64 {
        let base = candidate * self.groups;
        let n = self.n[candidate] + self.n_round[candidate];
        if n == 0 {
            return metric.upper_limit().min(f64::MAX);
        }
        let inv = 1.0 / n as f64;
        let mut acc_l1 = 0.0;
        let mut acc_l2 = 0.0;
        for (g, &t) in target.iter().enumerate().take(self.groups) {
            let p = (self.counts[base + g] + self.round_counts[base + g]) as f64 * inv;
            let d = p - t;
            acc_l1 += d.abs();
            acc_l2 += d * d;
        }
        match metric {
            Metric::L1 => acc_l1,
            Metric::L2 => acc_l2.sqrt(),
            Metric::TotalVariation => 0.5 * acc_l1,
            Metric::KlDivergence => {
                // KL needs a dedicated pass; rarely used in the hot path.
                let p: Vec<f64> = (0..self.groups)
                    .map(|g| (self.counts[base + g] + self.round_counts[base + g]) as f64 * inv)
                    .collect();
                crate::distance::kl(&p, target)
            }
        }
    }

    /// Extracts the cumulative histogram (including in-flight round counts)
    /// for output.
    pub fn histogram(&self, candidate: usize) -> Histogram {
        let base = candidate * self.groups;
        let counts = (0..self.groups)
            .map(|g| self.counts[base + g] + self.round_counts[base + g])
            .collect();
        Histogram::from_counts(counts)
    }
}

/// Distance between a raw count vector (with total `n`) and a normalized
/// target, without allocating the normalized vector.
fn distance_of_counts(counts: &[u64], n: u64, metric: Metric, target: &[f64]) -> f64 {
    if n == 0 {
        return metric.upper_limit().min(f64::MAX);
    }
    let inv = 1.0 / n as f64;
    match metric {
        Metric::L1 => counts
            .iter()
            .zip(target)
            .map(|(&c, &t)| (c as f64 * inv - t).abs())
            .sum(),
        Metric::TotalVariation => {
            0.5 * counts
                .iter()
                .zip(target)
                .map(|(&c, &t)| (c as f64 * inv - t).abs())
                .sum::<f64>()
        }
        Metric::L2 => counts
            .iter()
            .zip(target)
            .map(|(&c, &t)| {
                let d = c as f64 * inv - t;
                d * d
            })
            .sum::<f64>()
            .sqrt(),
        Metric::KlDivergence => {
            let p: Vec<f64> = counts.iter().map(|&c| c as f64 * inv).collect();
            crate::distance::kl(&p, target)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records one tuple of an unpruned candidate.
    fn record(s: &mut CountState, round: bool, c: u32, g: u32) {
        let weight = vec![1; s.num_candidates()];
        s.record_block(round, &[c], &[g], &weight);
    }

    #[test]
    fn record_and_totals() {
        let mut s = CountState::new(3, 2);
        record(&mut s, false, 0, 0);
        record(&mut s, false, 0, 1);
        record(&mut s, false, 2, 1);
        assert_eq!(s.n(0), 2);
        assert_eq!(s.n(1), 0);
        assert_eq!(s.n(2), 1);
        assert_eq!(s.candidate_counts(0), &[1, 1]);
        assert_eq!(s.candidate_counts(2), &[0, 1]);
        assert_eq!(s.total_samples(), 3);
    }

    #[test]
    fn bulk_records_equal_repeated_single_records() {
        let mut bulk = CountState::new(2, 3);
        let mut single = CountState::new(2, 3);
        bulk.cells_mut(false)[3] += 2;
        bulk.cells_mut(false)[5] += 1;
        bulk.add_n(false, 1, 3, 1);
        bulk.cells_mut(true)[1] += 4;
        bulk.add_n(true, 0, 4, 1);
        for _ in 0..2 {
            record(&mut single, false, 1, 0);
        }
        record(&mut single, false, 1, 2);
        for _ in 0..4 {
            record(&mut single, true, 0, 1);
        }
        assert_eq!(format!("{bulk:?}"), format!("{single:?}"));
        assert_eq!(bulk.total_samples(), 7);
        bulk.accumulate_round();
        assert_eq!(bulk.total_samples(), 7, "folding a round moves no samples");
        assert_eq!(bulk.n(0), 4);
    }

    /// A pruned candidate's rows are read, not sampled: they count in
    /// its `n`, and nowhere else.
    #[test]
    fn pruned_rows_count_as_read_but_not_as_samples() {
        let mut s = CountState::new(2, 2);
        s.record_block(true, &[0, 1, 1, 0], &[1, 0, 1, 1], &[1, 0]);
        assert_eq!((s.read(0), s.read(1)), (2, 2));
        assert_eq!(s.total_samples(), 2);
        s.accumulate_round();
        assert_eq!(s.candidate_counts(0), &[0, 2]);
        assert_eq!(s.candidate_counts(1), &[0, 0]);
        assert_eq!(s.n(1), 2);
    }

    #[test]
    fn round_counts_are_separate_until_accumulated() {
        let mut s = CountState::new(2, 2);
        record(&mut s, false, 0, 0);
        record(&mut s, true, 0, 1);
        record(&mut s, true, 1, 0);
        assert_eq!(s.n(0), 1);
        assert_eq!(s.n_round(0), 1);
        assert_eq!(s.candidate_counts(0), &[1, 0]);
        s.accumulate_round();
        assert_eq!(s.n(0), 2);
        assert_eq!(s.n_round(0), 0);
        assert_eq!(s.candidate_counts(0), &[1, 1]);
        assert_eq!(s.n(1), 1);
    }

    #[test]
    fn tau_reflects_cumulative_counts() {
        let mut s = CountState::new(1, 2);
        let target = [0.5, 0.5];
        record(&mut s, false, 0, 0);
        record(&mut s, false, 0, 0);
        s.refresh_tau_one(0, Metric::L1, &target);
        // empirical [1, 0] vs [0.5, 0.5] ⇒ l1 = 1.0
        assert!((s.tau(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tau_of_unseen_candidate_is_upper_limit() {
        let mut s = CountState::new(1, 4);
        s.refresh_tau_one(0, Metric::L1, &[0.25; 4]);
        assert_eq!(s.tau(0), 2.0);
    }

    #[test]
    fn tau_round_none_without_fresh_samples() {
        let s = CountState::new(1, 2);
        assert!(s.tau_round(0, Metric::L1, &[0.5, 0.5]).is_none());
    }

    #[test]
    fn tau_round_uses_only_fresh_samples() {
        let mut s = CountState::new(1, 2);
        let target = [0.5, 0.5];
        // cumulative is perfectly balanced...
        record(&mut s, false, 0, 0);
        record(&mut s, false, 0, 1);
        // ...round is skewed
        record(&mut s, true, 0, 0);
        let tr = s.tau_round(0, Metric::L1, &target).unwrap();
        assert!((tr - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tau_total_includes_round() {
        let mut s = CountState::new(1, 2);
        let target = [0.5, 0.5];
        record(&mut s, false, 0, 0);
        record(&mut s, true, 0, 1);
        let t = s.tau_total(0, Metric::L1, &target);
        assert!(t.abs() < 1e-12, "combined counts are balanced, t = {t}");
    }

    #[test]
    fn histogram_extraction_includes_round() {
        let mut s = CountState::new(2, 3);
        record(&mut s, false, 1, 0);
        record(&mut s, true, 1, 2);
        let h = s.histogram(1);
        assert_eq!(h.counts(), &[1, 0, 1]);
    }

    #[test]
    fn distance_matches_metric_eval() {
        let mut s = CountState::new(1, 3);
        let target = [0.2, 0.3, 0.5];
        for g in [0u32, 0, 1, 2, 2, 2] {
            record(&mut s, false, 0, g);
        }
        for m in [Metric::L1, Metric::L2, Metric::TotalVariation] {
            s.refresh_tau_one(0, m, &target);
            let p = s.histogram(0).normalized().unwrap();
            assert!((s.tau(0) - m.eval(&p, &target)).abs() < 1e-12, "{m:?}");
        }
    }
}
