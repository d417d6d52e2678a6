//! Phase-free histogram delta accumulation.
//!
//! [`HistAccumulator`] turns raw `(z, x)` sample batches into
//! per-candidate/per-group *count deltas* without touching any HistSim
//! phase state. That split is what makes multi-core ingestion possible:
//! any number of accumulators can be filled concurrently from disjoint
//! block ranges (no shared mutable state, no locks) and each folded into
//! the authoritative state machine with [`super::HistSim::merge`].
//!
//! Counts are kept dense (candidate-major, like
//! [`super::state::CountState`]) so accumulation itself is two array
//! increments per tuple, plus two *first-touch lists* — the non-zero
//! cells and the candidates with `n > 0` — so that merging and clearing
//! cost `O(non-zero cells)`, never `O(touched × groups)`: a 150-tuple
//! block over a 351-group histogram moves ~150 cells, not ~60 whole rows.
//! Accumulators are meant to be reused: [`HistAccumulator::clear`] zeroes
//! only the listed cells and keeps the backing storage, and
//! [`HistAccumulator::reshape`] lets one buffer serve queries of
//! different domains.

/// A list the hot loops append to *without branching*: every item is
/// written into the next free slot and the length advances only when the
/// item is new (`len += is_new as usize`). First-touch detection is then
/// a compare and an add; as a data-dependent branch it mispredicted about
/// once per distinct candidate per block, which cost more than the two
/// count increments together (EXPERIMENTS.md, PR 15).
#[derive(Clone, Default)]
pub(super) struct Slots<T> {
    buf: Vec<T>,
    len: usize,
}

impl<T: Copy + Default> Slots<T> {
    /// The committed items, in first-touch order.
    pub fn as_slice(&self) -> &[T] {
        &self.buf[..self.len]
    }

    /// Forgets every item, keeping the storage.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// `extra` writable slots past the committed end. Storage only grows
    /// past its high-water mark, so steady-state calls allocate nothing.
    pub fn spare(&mut self, extra: usize) -> &mut [T] {
        let need = self.len + extra;
        if self.buf.len() < need {
            self.buf.resize(need, T::default());
        }
        &mut self.buf[self.len..need]
    }

    /// Commits the first `added` slots handed out by [`Self::spare`].
    pub fn commit(&mut self, added: usize) {
        self.len += added;
    }

    /// Appends one item (the branching form, for the cold paths).
    pub fn push(&mut self, item: T) {
        self.spare(1)[0] = item;
        self.len += 1;
    }
}

/// Checks one block's codes against a `num_candidates × groups` domain
/// **once** (a branch-free max-fold), so the ingestion kernels run
/// without per-tuple asserts. The panic message names the offending
/// code, matching the per-tuple contract.
///
/// # Panics
/// Panics on length mismatch or out-of-domain codes.
pub(super) fn check_block(zs: &[u32], xs: &[u32], num_candidates: usize, groups: usize) {
    assert_eq!(zs.len(), xs.len(), "column slices must align");
    if let (Some(max_c), Some(max_g)) = (zs.iter().copied().max(), xs.iter().copied().max()) {
        assert!(
            (max_c as usize) < num_candidates,
            "candidate {max_c} out of domain"
        );
        assert!((max_g as usize) < groups, "group {max_g} out of domain");
    }
}

/// A mergeable batch of per-candidate/per-group count deltas.
///
/// Order-insensitive by construction: accumulating the same multiset of
/// tuples in any order, across any number of accumulators that are then
/// merged, produces the same deltas — the algebraic property the parallel
/// executor's shard workers rely on.
#[derive(Clone)]
pub struct HistAccumulator {
    num_candidates: usize,
    groups: usize,
    /// Dense per-(candidate, group) deltas, `candidate * groups + g`.
    /// Storage never shrinks ([`Self::reshape`]); everything outside
    /// `cells` is zero.
    counts: Vec<u64>,
    /// Per-candidate delta totals (same storage rule as `counts`).
    n: Vec<u64>,
    /// The non-zero cells as `(candidate, group)`, in first-touch order.
    cells: Slots<(u32, u32)>,
    /// Candidates with `n > 0`, in first-touch order.
    touched: Slots<u32>,
    /// Total tuples accumulated.
    tuples: u64,
}

/// Manual `Debug` over the *logical* state only. The first-touch cell
/// order and the spare storage depend on how an accumulator was driven
/// and reused — including them would break the byte-identical
/// `Debug`-repr equivalence the batch-kernel property tests assert
/// between differently-driven but logically equal states.
impl std::fmt::Debug for HistAccumulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistAccumulator")
            .field("groups", &self.groups)
            .field("counts", &&self.counts[..self.num_candidates * self.groups])
            .field("n", &&self.n[..self.num_candidates])
            .field("touched", &self.touched())
            .field("tuples", &self.tuples)
            .finish()
    }
}

impl HistAccumulator {
    /// Creates a zeroed accumulator for a `num_candidates × groups`
    /// domain.
    pub fn new(num_candidates: usize, groups: usize) -> Self {
        let mut acc = HistAccumulator {
            num_candidates: 0,
            groups: 1,
            counts: Vec::new(),
            n: Vec::new(),
            cells: Slots::default(),
            touched: Slots::default(),
            tuples: 0,
        };
        acc.reshape(num_candidates, groups);
        acc
    }

    /// Re-dimensions an **empty** accumulator to another domain, reusing
    /// its storage: nothing is allocated or zeroed unless the new domain
    /// is larger than any this accumulator has served (a cleared
    /// accumulator is all zeros whatever its shape). This is what lets a
    /// service worker keep one accumulator across the queries it serves.
    ///
    /// # Panics
    /// Panics if the accumulator holds tuples or `groups` is zero.
    pub fn reshape(&mut self, num_candidates: usize, groups: usize) {
        assert!(groups > 0, "histograms must have at least one group");
        assert!(self.is_empty(), "reshape of a non-empty accumulator");
        self.num_candidates = num_candidates;
        self.groups = groups;
        if self.counts.len() < num_candidates * groups {
            self.counts.resize(num_candidates * groups, 0);
        }
        if self.n.len() < num_candidates {
            self.n.resize(num_candidates, 0);
        }
    }

    /// Number of candidates in the domain.
    pub fn num_candidates(&self) -> usize {
        self.num_candidates
    }

    /// Number of groups per histogram.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Total tuples accumulated since the last [`Self::clear`].
    pub fn tuples(&self) -> u64 {
        self.tuples
    }

    /// Whether no tuples have been accumulated.
    pub fn is_empty(&self) -> bool {
        self.tuples == 0
    }

    /// Candidates with at least one accumulated tuple, in first-touch
    /// order.
    pub fn touched(&self) -> &[u32] {
        self.touched.as_slice()
    }

    /// The delta row of one candidate (all `groups` cells).
    pub fn candidate_counts(&self, candidate: usize) -> &[u64] {
        assert!(candidate < self.num_candidates, "candidate out of domain");
        &self.counts[candidate * self.groups..(candidate + 1) * self.groups]
    }

    /// Delta total for one candidate.
    pub fn n(&self, candidate: usize) -> u64 {
        self.n[..self.num_candidates][candidate]
    }

    /// The non-zero cells as `(candidate, group, delta)` — what a merge
    /// has to move.
    pub(super) fn cells(&self) -> impl Iterator<Item = (usize, usize, u64)> + '_ {
        self.cells.as_slice().iter().map(move |&(c, g)| {
            let (c, g) = (c as usize, g as usize);
            (c, g, self.counts[c * self.groups + g])
        })
    }

    /// Accumulates one tuple: candidate `c` observed with group `g` (the
    /// branching form of [`Self::accumulate`]).
    ///
    /// # Panics
    /// Panics if `c`/`g` are outside the declared domain.
    #[inline]
    pub fn accumulate_one(&mut self, c: u32, g: u32) {
        assert!(
            (c as usize) < self.num_candidates,
            "candidate {c} out of domain"
        );
        assert!((g as usize) < self.groups, "group {g} out of domain");
        let cell = &mut self.counts[c as usize * self.groups + g as usize];
        if *cell == 0 {
            self.cells.push((c, g));
        }
        *cell += 1;
        let n = &mut self.n[c as usize];
        if *n == 0 {
            self.touched.push(c);
        }
        *n += 1;
        self.tuples += 1;
    }

    /// Accumulates one block's worth of samples: `zs[i]`/`xs[i]` are the
    /// candidate and group codes of the i-th tuple. Equivalent to calling
    /// [`Self::accumulate_one`] per tuple, but implemented as the batched
    /// ingestion kernel: the whole batch is checked against the domain
    /// once, after which the inner loop is two increments and two
    /// branchless first-touch appends per tuple.
    ///
    /// # Panics
    /// Panics on length mismatch or out-of-domain codes.
    pub fn accumulate(&mut self, zs: &[u32], xs: &[u32]) {
        check_block(zs, xs, self.num_candidates, self.groups);
        let groups = self.groups;
        let cells = self.cells.spare(zs.len());
        let touched = self.touched.spare(zs.len());
        let (mut new_cells, mut new_touched) = (0, 0);
        for (&c, &g) in zs.iter().zip(xs) {
            let cell = &mut self.counts[c as usize * groups + g as usize];
            cells[new_cells] = (c, g);
            new_cells += (*cell == 0) as usize;
            *cell += 1;
            let n = &mut self.n[c as usize];
            touched[new_touched] = c;
            new_touched += (*n == 0) as usize;
            *n += 1;
        }
        self.cells.commit(new_cells);
        self.touched.commit(new_touched);
        self.tuples += zs.len() as u64;
    }

    /// Resets to the zeroed state in `O(non-zero cells)`, keeping the
    /// backing storage for reuse.
    pub fn clear(&mut self) {
        for &(c, g) in self.cells.as_slice() {
            self.counts[c as usize * self.groups + g as usize] = 0;
        }
        for &c in self.touched.as_slice() {
            self.n[c as usize] = 0;
        }
        self.cells.clear();
        self.touched.clear();
        self.tuples = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulate_counts_tuples_and_cells() {
        let mut a = HistAccumulator::new(3, 2);
        a.accumulate(&[0, 2, 0], &[1, 0, 1]);
        assert_eq!(a.tuples(), 3);
        assert_eq!(a.n(0), 2);
        assert_eq!(a.n(1), 0);
        assert_eq!(a.n(2), 1);
        assert_eq!(a.candidate_counts(0), &[0, 2]);
        assert_eq!(a.candidate_counts(2), &[1, 0]);
        assert_eq!(a.touched(), &[0, 2]);
    }

    #[test]
    fn clear_resets_without_shrinking_domain() {
        let mut a = HistAccumulator::new(4, 2);
        a.accumulate(&[3, 3, 1], &[0, 1, 1]);
        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.tuples(), 0);
        assert!(a.touched().is_empty());
        for c in 0..4 {
            assert_eq!(a.n(c), 0);
            assert_eq!(a.candidate_counts(c), &[0, 0]);
        }
        // reusable after clear
        a.accumulate_one(2, 1);
        assert_eq!(a.n(2), 1);
        assert_eq!(a.touched(), &[2]);
    }

    /// One buffer serves domains of different shapes: re-dimensioning a
    /// cleared accumulator within its high-water size keeps the storage
    /// (no allocation, nothing to zero), and stale shape never leaks into
    /// the new one.
    #[test]
    fn reshape_reuses_storage_across_domains() {
        let mut a = HistAccumulator::new(8, 16);
        let storage = a.candidate_counts(0).as_ptr();
        a.accumulate(&[7, 7, 3], &[15, 15, 0]);
        a.clear();
        a.reshape(4, 3);
        assert_eq!((a.num_candidates(), a.groups()), (4, 3));
        a.accumulate(&[3, 0], &[2, 1]);
        assert_eq!(a.candidate_counts(3), &[0, 0, 1]);
        assert_eq!(a.candidate_counts(0), &[0, 1, 0]);
        assert_eq!(a.touched(), &[3, 0]);
        a.clear();
        a.reshape(8, 16);
        assert_eq!(a.candidate_counts(0).as_ptr(), storage);
        assert!((0..8).all(|c| a.n(c) == 0 && a.candidate_counts(c) == [0; 16]));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn reshape_of_a_filled_accumulator_panics() {
        let mut a = HistAccumulator::new(2, 2);
        a.accumulate_one(1, 1);
        a.reshape(3, 3);
    }

    #[test]
    #[should_panic(expected = "out of domain")]
    fn out_of_domain_group_panics() {
        HistAccumulator::new(2, 2).accumulate_one(0, 5);
    }

    /// The documented contract: an out-of-domain *candidate* fails the
    /// same explicit "out of domain" assert as an out-of-domain group —
    /// not a raw slice-index panic leaking internal layout.
    #[test]
    #[should_panic(expected = "out of domain")]
    fn out_of_domain_candidate_panics() {
        HistAccumulator::new(2, 2).accumulate_one(7, 0);
    }

    #[test]
    #[should_panic(expected = "out of domain")]
    fn batch_out_of_domain_candidate_panics() {
        HistAccumulator::new(2, 2).accumulate(&[0, 7], &[0, 0]);
    }

    #[test]
    #[should_panic(expected = "out of domain")]
    fn batch_out_of_domain_group_panics() {
        HistAccumulator::new(2, 2).accumulate(&[0, 1], &[0, 5]);
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn misaligned_slices_panic() {
        HistAccumulator::new(2, 2).accumulate(&[0, 1], &[0]);
    }

    /// A failed batch must not have mutated anything (validation happens
    /// before the first increment), so the accumulator stays usable.
    #[test]
    fn failed_batch_leaves_state_untouched() {
        let mut a = HistAccumulator::new(2, 2);
        a.accumulate_one(1, 1);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            a.accumulate(&[0, 9], &[0, 0]);
        }));
        assert!(r.is_err());
        assert_eq!(a.tuples(), 1);
        assert_eq!(a.n(0), 0);
        assert_eq!(a.n(1), 1);
        assert_eq!(a.touched(), &[1]);
    }
}
