//! The HistSim algorithm (paper §3, Algorithm 1) as a sans-I/O state
//! machine.
//!
//! HistSim proceeds through three stages, each budgeted an error
//! probability of `δ/3`:
//!
//! 1. **Stage 1 — prune rare candidates.** Take `m` uniform samples without
//!    replacement; flag candidates whose observed counts are surprisingly
//!    low under the null `Nᵢ ≥ ⌈σN⌉` (hypergeometric underrepresentation
//!    test + Holm–Bonferroni at level `δ/3`).
//! 2. **Stage 2 — identify the top-k.** In rounds: estimate the matching
//!    set `M` from cumulative distances, pick the split point
//!    `s = ½(max_{i∈M} τᵢ + min_{j∈A∖M} τⱼ)`, draw *fresh* samples until
//!    every candidate meets its per-round target `n′ᵢ` (Eq. 1), and run the
//!    Lemma 4 all-or-nothing test over the Lemma 2 null family at level
//!    `δ/(3·2ᵗ)`. Rejection certifies the separation guarantee.
//! 3. **Stage 3 — reconstruct the top-k.** Top up each member's cumulative
//!    samples to the Theorem 1 bound at level `δ/(3k)` so every output
//!    histogram is within ε of its exact counterpart.
//!
//! The driver (e.g. `fastmatch-engine`'s executors, or the in-memory
//! [`crate::sampler::MemorySampler`]) is responsible for producing samples.
//! The contract:
//!
//! ```text
//! loop {
//!     match histsim.phase() {
//!         Done => break,
//!         _ => {
//!             feed samples per histsim.demand(), via histsim.ingest(...);
//!             when histsim.io_satisfied() (or data exhausted):
//!                 histsim.complete_io_phase(exhausted)
//!         }
//!     }
//! }
//! ```
//!
//! Samples must be uniform draws without replacement from the underlying
//! table; a tuple must never be ingested twice over the whole run. If the
//! driver learns that a candidate's tuples have been fully consumed it
//! should call [`HistSim::mark_exact`]; if the *entire table* has been
//! consumed, pass `exhausted = true` and HistSim finishes with exact
//! results.
//!
//! There are three ingestion paths, all leaving byte-identical state for
//! the same tuples: per tuple ([`HistSim::ingest`]); per block
//! ([`HistSim::ingest_block`], the fused kernel every single-threaded
//! executor uses — it adds the block straight into the phase's count
//! matrix and does the demand bookkeeping once per *distinct* candidate);
//! and, for parallel drivers, phase-free delta *accumulation* on worker
//! threads ([`accumulator::HistAccumulator`]) followed by a phase-aware
//! *merge* on the statistics thread ([`HistSim::merge`]), which moves
//! only the accumulator's non-zero cells.

pub mod accumulator;
pub mod config;
pub mod state;

pub use accumulator::HistAccumulator;
pub use config::HistSimConfig;

use accumulator::{check_block, Slots};

use crate::error::{CoreError, Result};
use crate::histogram::Histogram;
use crate::stats::deviation::DeviationBound;
use crate::stats::holm_bonferroni::HolmBonferroni;
use crate::stats::hypergeometric;
use crate::stats::simultaneous::{simultaneous_test, Decision};
use crate::topk::{choose_k_in_range, k_smallest_indices};
use state::CountState;

/// Which stage the state machine is currently in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhaseKind {
    /// Stage 1: uniform sampling to prune rare candidates.
    Stage1,
    /// Stage 2: round-based top-k identification.
    Stage2,
    /// Stage 3: reconstruction of the identified top-k.
    Stage3,
    /// Terminal state; output is available.
    Done,
}

/// What the algorithm currently needs from its driver.
#[derive(Debug, Clone, Copy)]
pub enum Demand<'a> {
    /// Stage 1: `remaining` more uniform samples (any candidate counts).
    Stage1Uniform {
        /// Number of additional uniform samples requested.
        remaining: u64,
    },
    /// Stage 2 / stage 3: per-candidate outstanding sample counts. A
    /// candidate with `remaining[i] > 0` is **active** in the paper's
    /// AnyActive sense.
    PerCandidate {
        /// Outstanding samples per candidate (0 ⇒ inactive).
        remaining: &'a [u64],
    },
    /// Terminal: no more samples are needed.
    Finished,
}

#[derive(Debug, Clone)]
enum Phase {
    Stage1 {
        taken: u64,
    },
    Stage2 {
        round: u32,
        delta_upper: f64,
        s: f64,
        in_m: Vec<bool>,
    },
    Stage3,
    Done,
}

/// One matched candidate in the output, with its estimated histogram.
#[derive(Debug, Clone)]
pub struct MatchedCandidate {
    /// Candidate index (the dictionary code of the `Z` value).
    pub candidate: u32,
    /// Estimated distance `τᵢ = d(r̄ᵢ, q̄)` from the target.
    pub distance: f64,
    /// The estimated histogram `rᵢ` (reconstruction-guaranteed).
    pub histogram: Histogram,
    /// Number of samples that back the estimate.
    pub samples: u64,
}

/// Run statistics exposed for experiments and debugging.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Diagnostics {
    /// Samples taken during stage 1.
    pub stage1_samples_taken: u64,
    /// Candidates pruned as rare by stage 1.
    pub pruned_candidates: usize,
    /// Stage-2 rounds executed (0 if stage 2 was skipped).
    pub stage2_rounds: u32,
    /// Total samples ingested over all stages.
    pub total_samples: u64,
    /// True when the run ended by consuming the entire table (results are
    /// exact rather than approximate).
    pub exact_finish: bool,
    /// Appendix A.1.5 dummy-candidate verdict: `Some(true)` means unseen
    /// candidates are collectively certified rare.
    pub unseen_mass_rare: Option<bool>,
    /// The `k` actually used (equals `cfg.k` unless `k_range` adapted it).
    pub effective_k: usize,
}

/// The HistSim state machine. See the [module docs](self) for the driving
/// contract.
#[derive(Clone)]
pub struct HistSim {
    cfg: HistSimConfig,
    bound: DeviationBound,
    n_total_rows: u64,
    target: Vec<f64>,
    counts: CountState,
    pruned: Vec<bool>,
    exact: Vec<bool>,
    /// Outstanding per-candidate demand for the current I/O phase.
    remaining: Vec<u64>,
    /// Number of candidates with `remaining > 0`.
    active_count: usize,
    /// Candidates whose `remaining` reached 0 during the current I/O
    /// phase, in that order. Demand rises only when a phase begins, so a
    /// candidate is listed at most once per phase; the list is cleared
    /// when the phase completes.
    deactivated: Vec<u32>,
    phase: Phase,
    members: Vec<u32>,
    diag: Diagnostics,
    /// Distinct candidates of the block last given to
    /// [`Self::ingest_block`], in first-touch order.
    block: Slots<u32>,
    /// Per-candidate tuple counts of the block being ingested; all zero
    /// outside [`Self::ingest_block`].
    block_n: Vec<u64>,
}

/// Manual `Debug` over the *logical* state only: the per-block scratch
/// (`block`, `block_n`) says which block came last, not what has been
/// ingested, and `deactivated` lists candidates in the order the
/// ingestion path met them; either would break the byte-identical
/// `Debug`-repr equivalence the ingestion property tests assert between
/// the three paths.
impl std::fmt::Debug for HistSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistSim")
            .field("cfg", &self.cfg)
            .field("bound", &self.bound)
            .field("n_total_rows", &self.n_total_rows)
            .field("target", &self.target)
            .field("counts", &self.counts)
            .field("pruned", &self.pruned)
            .field("exact", &self.exact)
            .field("remaining", &self.remaining)
            .field("active_count", &self.active_count)
            .field("phase", &self.phase)
            .field("members", &self.members)
            .field("diag", &self.diag)
            .finish()
    }
}

impl HistSim {
    /// Creates a new run over `num_candidates` candidates whose histograms
    /// have `groups` bins, against a table of `n_total_rows` tuples.
    ///
    /// `target` is the visual target `q` as non-negative weights; it is
    /// normalized internally and must have exactly `groups` entries.
    pub fn new(
        cfg: HistSimConfig,
        num_candidates: usize,
        groups: usize,
        n_total_rows: u64,
        target: &[f64],
    ) -> Result<Self> {
        let bound = cfg.validate(groups)?;
        if target.len() != groups {
            return Err(CoreError::InvalidTarget(format!(
                "target has {} entries but histograms have {} groups",
                target.len(),
                groups
            )));
        }
        if num_candidates == 0 {
            return Err(CoreError::InvalidConfig(
                "need at least one candidate".into(),
            ));
        }
        if n_total_rows == 0 {
            return Err(CoreError::InvalidConfig(
                "table must contain at least one row".into(),
            ));
        }
        let target = crate::histogram::normalize_weights(target)?;
        let effective_k = cfg.k;
        Ok(HistSim {
            cfg,
            bound,
            n_total_rows,
            target,
            counts: CountState::new(num_candidates, groups),
            pruned: vec![false; num_candidates],
            exact: vec![false; num_candidates],
            remaining: vec![0; num_candidates],
            active_count: 0,
            deactivated: Vec::new(),
            phase: Phase::Stage1 { taken: 0 },
            members: Vec::new(),
            diag: Diagnostics {
                effective_k,
                ..Diagnostics::default()
            },
            block: Slots::default(),
            block_n: vec![0; num_candidates],
        })
    }

    /// Current phase.
    pub fn phase(&self) -> PhaseKind {
        match self.phase {
            Phase::Stage1 { .. } => PhaseKind::Stage1,
            Phase::Stage2 { .. } => PhaseKind::Stage2,
            Phase::Stage3 => PhaseKind::Stage3,
            Phase::Done => PhaseKind::Done,
        }
    }

    /// What the algorithm needs next from the driver.
    pub fn demand(&self) -> Demand<'_> {
        match &self.phase {
            Phase::Stage1 { taken } => Demand::Stage1Uniform {
                remaining: self.stage1_goal().saturating_sub(*taken),
            },
            Phase::Stage2 { .. } | Phase::Stage3 => Demand::PerCandidate {
                remaining: &self.remaining,
            },
            Phase::Done => Demand::Finished,
        }
    }

    /// Per-candidate outstanding demand (0 during stage 1 and when done).
    pub fn remaining_slice(&self) -> &[u64] {
        &self.remaining
    }

    /// Whether candidate `c` still needs samples in the current I/O phase
    /// — the paper's *active* predicate driving AnyActive block selection.
    #[inline]
    pub fn is_active(&self, c: u32) -> bool {
        self.remaining[c as usize] > 0
    }

    /// The candidates that stopped being [active](Self::is_active) during
    /// the current I/O phase, in the order they did — each at most once,
    /// because demand rises only when a phase begins. Empty in stage 1,
    /// once done, and right after a phase completes. A publisher that
    /// has sent out the whole of [`Self::remaining_slice`] at some point
    /// of the phase keeps the sign of its copy current by zeroing the
    /// entries listed since.
    pub fn deactivated(&self) -> &[u32] {
        &self.deactivated
    }

    /// True when the current I/O phase's demand is fully met and
    /// [`Self::complete_io_phase`] may be called with `exhausted = false`.
    pub fn io_satisfied(&self) -> bool {
        match &self.phase {
            Phase::Stage1 { taken } => *taken >= self.stage1_goal(),
            Phase::Stage2 { .. } | Phase::Stage3 => self.active_count == 0,
            Phase::Done => true,
        }
    }

    fn stage1_goal(&self) -> u64 {
        self.cfg.stage1_samples.min(self.n_total_rows)
    }

    /// Accounts `tuples` incoming samples to the current phase and says
    /// which count matrix they land in: round-fresh (`true`) during
    /// stage-2 I/O, cumulative otherwise.
    ///
    /// # Panics
    /// Panics after completion.
    #[inline]
    fn landing(&mut self, tuples: u64) -> bool {
        match &mut self.phase {
            Phase::Stage1 { taken } => {
                *taken += tuples;
                false
            }
            Phase::Stage2 { .. } => true,
            Phase::Stage3 => false,
            Phase::Done => panic!("ingest after completion"),
        }
    }

    /// Spends `added` fresh samples against candidate `ci`'s outstanding
    /// demand — saturating, because a block or batch may overshoot it —
    /// and lists the candidate as deactivated if that met its demand.
    /// (Takes the fields rather than `&mut self` so callers can hold a
    /// count matrix or the block list across the call.)
    #[inline]
    fn spend(
        remaining: &mut [u64],
        active_count: &mut usize,
        deactivated: &mut Vec<u32>,
        ci: usize,
        added: u64,
    ) {
        let r = &mut remaining[ci];
        if *r > 0 {
            *r = r.saturating_sub(added);
            if *r == 0 {
                *active_count -= 1;
                deactivated.push(ci as u32);
            }
        }
    }

    /// Ingests one sampled tuple: candidate `c` (its `Z` code) observed
    /// with group `g` (its `X` code). Stage 1 has nothing pruned and no
    /// per-candidate demand, so one path serves all three stages.
    ///
    /// # Panics
    /// Panics if `c`/`g` are outside the declared domain (hot path; use
    /// [`Self::try_ingest`] for checked ingestion) or after completion.
    #[inline]
    pub fn ingest(&mut self, c: u32, g: u32) {
        let round = self.landing(1);
        if self.pruned[c as usize] {
            return;
        }
        if round {
            self.counts.record_round(c, g);
        } else {
            self.counts.record_cumulative(c, g);
        }
        Self::spend(
            &mut self.remaining,
            &mut self.active_count,
            &mut self.deactivated,
            c as usize,
            1,
        );
    }

    /// Ingests one block's worth of samples at once: `zs[i]`/`xs[i]` are
    /// the candidate and group codes of the i-th tuple. Equivalent to
    /// calling [`Self::ingest`] per tuple, as one fused kernel whose cost
    /// is `O(tuples)` whatever the histogram width: each tuple is one
    /// increment into the phase's count matrix (pruned candidates add 0,
    /// branch-free) and one into the block's per-candidate tally, whose
    /// zero test lists the candidate on first touch, branch-free; the
    /// totals and the demand are then settled once per distinct
    /// candidate.
    ///
    /// Returns the block's distinct candidates in first-touch order,
    /// pruned ones included — what consumption tracking needs.
    ///
    /// # Panics
    /// Panics on length mismatch, out-of-domain codes, or after
    /// completion.
    pub fn ingest_block(&mut self, zs: &[u32], xs: &[u32]) -> &[u32] {
        let groups = self.counts.groups();
        check_block(zs, xs, self.counts.num_candidates(), groups);
        let round = self.landing(zs.len() as u64);
        self.block.clear();
        let cells = self.counts.cells_mut(round);
        let slots = self.block.spare(zs.len());
        let mut distinct = 0;
        for (&c, &g) in zs.iter().zip(xs) {
            let ci = c as usize;
            cells[ci * groups + g as usize] += u64::from(!self.pruned[ci]);
            let tally = &mut self.block_n[ci];
            slots[distinct] = c;
            distinct += (*tally == 0) as usize;
            *tally += 1;
        }
        self.block.commit(distinct);
        for &c in self.block.as_slice() {
            let ci = c as usize;
            let added = std::mem::take(&mut self.block_n[ci]);
            if !self.pruned[ci] {
                self.counts.add_n(round, ci, added);
                Self::spend(
                    &mut self.remaining,
                    &mut self.active_count,
                    &mut self.deactivated,
                    ci,
                    added,
                );
            }
        }
        self.block.as_slice()
    }

    /// Folds a batch of phase-free count deltas (see [`HistAccumulator`])
    /// into the state machine, consuming the accumulator. Equivalent to
    /// ingesting the accumulated tuples one by one in any order — the
    /// merge half of the shard-parallel ingestion protocol.
    ///
    /// # Panics
    /// Panics if the accumulator's domain differs from this run's, or
    /// after completion.
    pub fn merge(&mut self, acc: HistAccumulator) {
        self.merge_ref(&acc);
    }

    /// [`Self::merge`] by reference, leaving the accumulator intact so
    /// callers can [`HistAccumulator::clear`] and reuse its storage.
    /// Costs `O(non-zero cells)` of the accumulator.
    ///
    /// # Panics
    /// Panics if the accumulator's domain differs from this run's, or
    /// after completion.
    pub fn merge_ref(&mut self, acc: &HistAccumulator) {
        assert_eq!(
            acc.num_candidates(),
            self.counts.num_candidates(),
            "candidate domains must match"
        );
        assert_eq!(
            acc.groups(),
            self.counts.groups(),
            "group domains must match"
        );
        let round = self.landing(acc.tuples());
        let groups = acc.groups();
        let cells = self.counts.cells_mut(round);
        for (c, g, delta) in acc.cells() {
            if !self.pruned[c] {
                cells[c * groups + g] += delta;
            }
        }
        for &c in acc.touched() {
            let ci = c as usize;
            if !self.pruned[ci] {
                let added = acc.n(ci);
                self.counts.add_n(round, ci, added);
                Self::spend(
                    &mut self.remaining,
                    &mut self.active_count,
                    &mut self.deactivated,
                    ci,
                    added,
                );
            }
        }
    }

    /// Checked variant of [`Self::ingest`].
    pub fn try_ingest(&mut self, c: u32, g: u32) -> Result<()> {
        if matches!(self.phase, Phase::Done) {
            return Err(CoreError::PhaseViolation("ingest after completion".into()));
        }
        if (c as usize) >= self.counts.num_candidates() || (g as usize) >= self.counts.groups() {
            return Err(CoreError::SampleOutOfDomain {
                candidate: c,
                group: g,
            });
        }
        self.ingest(c, g);
        Ok(())
    }

    /// Tells the algorithm that candidate `c`'s tuples have been fully
    /// consumed: its counts are now exact, so it needs no further samples
    /// and its hypotheses are decided deterministically.
    pub fn mark_exact(&mut self, c: u32) {
        let ci = c as usize;
        if !self.exact[ci] {
            self.exact[ci] = true;
            if self.remaining[ci] > 0 {
                self.remaining[ci] = 0;
                self.active_count -= 1;
                self.deactivated.push(c);
            }
        }
    }

    /// Whether candidate `c` has been marked exact.
    pub fn is_exact(&self, c: u32) -> bool {
        self.exact[c as usize]
    }

    /// Completes the current I/O phase: runs the stage-appropriate
    /// statistical test and advances the state machine. Pass
    /// `exhausted = true` iff the driver has consumed the entire table, in
    /// which case HistSim finishes immediately with exact results.
    pub fn complete_io_phase(&mut self, exhausted: bool) -> Result<()> {
        if matches!(self.phase, Phase::Done) {
            return Err(CoreError::PhaseViolation(
                "complete_io_phase after completion".into(),
            ));
        }
        if !exhausted && !self.io_satisfied() {
            return Err(CoreError::PhaseViolation(
                "complete_io_phase called before demand was satisfied".into(),
            ));
        }
        self.deactivated.clear();
        if exhausted {
            self.finish_exact();
            return Ok(());
        }
        match &self.phase {
            Phase::Stage1 { taken } => {
                let taken = *taken;
                self.complete_stage1(taken);
            }
            Phase::Stage2 { .. } => self.complete_stage2_round(),
            Phase::Stage3 => self.complete_stage3(),
            Phase::Done => unreachable!(),
        }
        Ok(())
    }

    // ---------------------------------------------------------------- stage 1

    fn complete_stage1(&mut self, taken: u64) {
        self.diag.stage1_samples_taken = taken;
        let n_is: Vec<u64> = (0..self.counts.num_candidates())
            .map(|c| self.counts.n(c))
            .collect();
        let mut pvals = hypergeometric::underrepresentation_pvalues(
            &n_is,
            self.n_total_rows,
            self.cfg.sigma,
            taken,
        );
        // Appendix A.1.5: one extra test for the aggregate of unseen
        // candidates, with observed count 0.
        if self.cfg.test_unseen_mass {
            let dummy = hypergeometric::underrepresentation_pvalues(
                &[0],
                self.n_total_rows,
                self.cfg.sigma,
                taken,
            )[0];
            pvals.push(dummy);
        }
        let hb = HolmBonferroni::test(&pvals, self.cfg.delta / 3.0);
        for c in 0..self.counts.num_candidates() {
            self.pruned[c] = hb.rejected()[c];
        }
        if self.cfg.test_unseen_mass {
            self.diag.unseen_mass_rare = Some(*hb.rejected().last().unwrap());
        }
        self.diag.pruned_candidates = self.pruned.iter().filter(|&&p| p).count();
        self.enter_stage2_or_skip(1, self.cfg.delta / 6.0);
    }

    // ---------------------------------------------------------------- stage 2

    /// Number of unpruned candidates `|A|`.
    fn a_size(&self) -> usize {
        self.pruned.iter().filter(|&&p| !p).count()
    }

    fn unpruned_mask(&self) -> Vec<bool> {
        self.pruned.iter().map(|&p| !p).collect()
    }

    /// Enters a stage-2 round, or skips straight to stage 3 when the
    /// remaining candidate set is no larger than k (separation is vacuous).
    fn enter_stage2_or_skip(&mut self, round: u32, delta_upper: f64) {
        let eligible = self.unpruned_mask();
        self.counts
            .refresh_tau(self.cfg.metric, &self.target, &eligible);

        let k = self.pick_k(&eligible);
        self.diag.effective_k = k;

        if self.a_size() <= k {
            self.members = (0..self.counts.num_candidates() as u32)
                .filter(|&c| !self.pruned[c as usize])
                .collect();
            self.enter_stage3();
            return;
        }

        let m_idx = k_smallest_indices(self.counts.taus(), k, &eligible);
        let mut in_m = vec![false; self.counts.num_candidates()];
        for &i in &m_idx {
            in_m[i] = true;
        }
        let max_m = m_idx
            .iter()
            .map(|&i| self.counts.tau(i))
            .fold(f64::NEG_INFINITY, f64::max);
        let min_rest = (0..self.counts.num_candidates())
            .filter(|&i| eligible[i] && !in_m[i])
            .map(|i| self.counts.tau(i))
            .fold(f64::INFINITY, f64::min);
        let s = 0.5 * (max_m + min_rest);

        // Per-round targets n′ᵢ (Eq. 1) from the assumed deviations ε′ᵢ.
        let eps_half = self.cfg.epsilon / 2.0;
        self.active_count = 0;
        for i in 0..self.counts.num_candidates() {
            self.remaining[i] = 0;
            if !eligible[i] || self.exact[i] {
                continue;
            }
            let tau_i = self.counts.tau(i);
            let base_n = if in_m[i] {
                let eps_p = s + eps_half - tau_i;
                self.bound.samples_needed(eps_p.max(1e-9), delta_upper)
            } else if s - eps_half < 0.0 {
                // The null τ*ⱼ ≤ s − ε/2 < 0 is vacuously false: no samples
                // needed, the P-value is 0 by construction.
                0
            } else {
                let eps_p = tau_i - (s - eps_half);
                self.bound.samples_needed(eps_p.max(1e-9), delta_upper)
            };
            // Eq. 1 with the safety factor (see HistSimConfig docs),
            // capped by progressive refinement: a candidate whose distance
            // estimate rests on few samples may *look* boundary-close out
            // of pure noise (the "uncertain but far" trap of §1 Challenge
            // 1); committing Eq. 1's full 1/ε′² budget to it would be
            // wasted whenever the refined estimate moves away. Limiting
            // each round to quadrupling the candidate's evidence keeps the
            // worst case logarithmic in the true requirement while cutting
            // the noise-driven over-demand. Correctness is unaffected —
            // round targets are heuristics; the tests use actual samples.
            let eq1 = (base_n as f64 * self.cfg.round_multiplier).ceil() as u64;
            let refine_cap = (4 * self.counts.n(i)).max(64);
            let target_n = eq1.min(refine_cap);
            self.remaining[i] = target_n;
            if target_n > 0 {
                self.active_count += 1;
            }
        }
        self.phase = Phase::Stage2 {
            round,
            delta_upper,
            s,
            in_m,
        };
    }

    /// The effective `k` for this round (Appendix A.2.3 adapts it within
    /// the configured range to maximize the split gap).
    fn pick_k(&self, eligible: &[bool]) -> usize {
        match self.cfg.k_range {
            None => self.cfg.k,
            Some((lo, hi)) => {
                let mut taus: Vec<f64> = (0..self.counts.num_candidates())
                    .filter(|&i| eligible[i])
                    .map(|i| self.counts.tau(i))
                    .collect();
                taus.sort_by(|a, b| a.partial_cmp(b).expect("tau must not be NaN"));
                choose_k_in_range(&taus, lo, hi)
            }
        }
    }

    fn complete_stage2_round(&mut self) {
        let (round, delta_upper, s, in_m) = match &self.phase {
            Phase::Stage2 {
                round,
                delta_upper,
                s,
                in_m,
            } => (*round, *delta_upper, *s, in_m.clone()),
            _ => unreachable!(),
        };
        self.diag.stage2_rounds = round;
        let eps_half = self.cfg.epsilon / 2.0;

        let mut pvals = Vec::with_capacity(self.a_size());
        for (i, &in_m_i) in in_m.iter().enumerate().take(self.counts.num_candidates()) {
            if self.pruned[i] {
                continue;
            }
            let p = if self.exact[i] {
                // Counts are exact: the hypothesis is decided, not tested.
                let tau_exact = self.counts.tau_total(i, self.cfg.metric, &self.target);
                let null_false = if in_m_i {
                    tau_exact < s + eps_half
                } else {
                    s - eps_half < 0.0 || tau_exact > s - eps_half
                };
                if null_false {
                    0.0
                } else {
                    1.0
                }
            } else if in_m_i {
                match self.counts.tau_round(i, self.cfg.metric, &self.target) {
                    Some(tr) => {
                        let eps_i = s + eps_half - tr;
                        self.bound.pvalue(eps_i, self.counts.n_round(i))
                    }
                    None => 1.0,
                }
            } else if s - eps_half < 0.0 {
                0.0
            } else {
                match self.counts.tau_round(i, self.cfg.metric, &self.target) {
                    Some(tr) => {
                        let eps_i = tr - (s - eps_half);
                        self.bound.pvalue(eps_i, self.counts.n_round(i))
                    }
                    None => 1.0,
                }
            };
            pvals.push(p);
        }

        let decision = simultaneous_test(pvals.iter().copied(), delta_upper);
        self.counts.accumulate_round();

        match decision {
            Decision::RejectAll => {
                self.members = (0..self.counts.num_candidates() as u32)
                    .filter(|&c| in_m[c as usize])
                    .collect();
                self.enter_stage3();
            }
            Decision::RejectNone => {
                self.enter_stage2_or_skip(round + 1, delta_upper / 2.0);
            }
        }
    }

    // ---------------------------------------------------------------- stage 3

    fn enter_stage3(&mut self) {
        let k = self.members.len();
        self.active_count = 0;
        self.remaining.iter_mut().for_each(|r| *r = 0);
        if k == 0 {
            self.finish(false);
            return;
        }
        // Line 26: nᵢ ≥ (2/ε²)(|V_X| log 2 + log 3k/δ) ⇔ Theorem 1 at
        // per-member level δ/(3k).
        let per_member_delta = self.cfg.delta / (3.0 * k as f64);
        let target_n = self
            .bound
            .samples_needed(self.cfg.eps_reconstruction(), per_member_delta);
        for &c in &self.members {
            let ci = c as usize;
            if self.exact[ci] {
                continue;
            }
            let need = target_n.saturating_sub(self.counts.n(ci));
            self.remaining[ci] = need;
            if need > 0 {
                self.active_count += 1;
            }
        }
        self.phase = Phase::Stage3;
    }

    fn complete_stage3(&mut self) {
        self.finish(false);
    }

    // ---------------------------------------------------------------- finish

    /// Finishes the run with exact semantics: the driver has consumed the
    /// whole table, so counts equal the true histograms. Pruning, top-k
    /// selection and reconstruction all become exact computations.
    fn finish_exact(&mut self) {
        self.counts.accumulate_round();
        // Exact pruning: Nᵢ/N < σ.
        let threshold = (self.cfg.sigma * self.n_total_rows as f64).ceil() as u64;
        for c in 0..self.counts.num_candidates() {
            if self.counts.n(c) < threshold {
                self.pruned[c] = true;
            }
        }
        self.diag.pruned_candidates = self.pruned.iter().filter(|&&p| p).count();
        let eligible = self.unpruned_mask();
        self.counts
            .refresh_tau(self.cfg.metric, &self.target, &eligible);
        let k = self.pick_k(&eligible);
        self.diag.effective_k = k;
        self.members = k_smallest_indices(self.counts.taus(), k, &eligible)
            .into_iter()
            .map(|i| i as u32)
            .collect();
        self.finish(true);
    }

    fn finish(&mut self, exact: bool) {
        self.counts.accumulate_round();
        let eligible = self.unpruned_mask();
        self.counts
            .refresh_tau(self.cfg.metric, &self.target, &eligible);
        self.members.sort_by(|&a, &b| {
            self.counts
                .tau(a as usize)
                .partial_cmp(&self.counts.tau(b as usize))
                .expect("tau must not be NaN")
                .then(a.cmp(&b))
        });
        self.remaining.iter_mut().for_each(|r| *r = 0);
        self.active_count = 0;
        self.diag.exact_finish = exact;
        self.diag.total_samples = self.counts.total_samples();
        self.phase = Phase::Done;
    }

    /// Whether the run has terminated.
    pub fn is_done(&self) -> bool {
        matches!(self.phase, Phase::Done)
    }

    /// Extracts the output. May only be called once the run is done.
    pub fn output(&self) -> Result<HistSimOutput> {
        if !self.is_done() {
            return Err(CoreError::PhaseViolation(
                "output requested before completion".into(),
            ));
        }
        let matches = self
            .members
            .iter()
            .map(|&c| MatchedCandidate {
                candidate: c,
                distance: self.counts.tau(c as usize),
                histogram: self.counts.histogram(c as usize),
                samples: self.counts.n(c as usize),
            })
            .collect();
        Ok(HistSimOutput {
            matches,
            diagnostics: self.diag.clone(),
        })
    }

    /// Whether candidate `c` was pruned by stage 1.
    pub fn is_pruned(&self, c: u32) -> bool {
        self.pruned[c as usize]
    }

    /// The current best *estimate* of the top-k: the `effective_k`
    /// unpruned candidates with the smallest running distance estimates
    /// (cumulative plus in-flight round counts). Once the run is done
    /// this equals the guaranteed output's matched set; before that it is
    /// a progressive, guarantee-free preview — exactly what a serving
    /// layer shows while a query is still refining. One `τ` evaluation
    /// per candidate (`|V_Z|·|V_X|` float operations): call it when the
    /// estimate can have moved materially — a phase or round boundary —
    /// not per merged batch.
    pub fn current_topk(&self) -> Vec<u32> {
        if self.is_done() {
            return self.members.clone();
        }
        let eligible: Vec<bool> = self.pruned.iter().map(|&p| !p).collect();
        let taus: Vec<f64> = (0..self.counts.num_candidates())
            .map(|c| self.counts.tau_total(c, self.cfg.metric, &self.target))
            .collect();
        k_smallest_indices(&taus, self.diag.effective_k, &eligible)
            .into_iter()
            .map(|i| i as u32)
            .collect()
    }

    /// Samples ingested so far over all unpruned candidates — a running
    /// counter, cheap enough for per-quantum progress reporting.
    pub fn samples(&self) -> u64 {
        self.counts.total_samples()
    }

    /// The cumulative sample count for a candidate (diagnostics).
    pub fn samples_for(&self, c: u32) -> u64 {
        self.counts.n(c as usize) + self.counts.n_round(c as usize)
    }

    /// Run diagnostics (valid once done; partially filled before).
    pub fn diagnostics(&self) -> &Diagnostics {
        &self.diag
    }

    /// The normalized target `q̄`.
    pub fn target(&self) -> &[f64] {
        &self.target
    }

    /// Configured parameters.
    pub fn config(&self) -> &HistSimConfig {
        &self.cfg
    }
}

/// Result of a HistSim run: the matched candidates (ascending distance)
/// plus run diagnostics.
#[derive(Debug, Clone)]
pub struct HistSimOutput {
    /// The top-k matches, closest first.
    pub matches: Vec<MatchedCandidate>,
    /// Run statistics.
    pub diagnostics: Diagnostics,
}

impl HistSimOutput {
    /// Candidate ids of the matches, closest first.
    pub fn candidate_ids(&self) -> Vec<u32> {
        self.matches.iter().map(|m| m.candidate).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> HistSimConfig {
        HistSimConfig {
            k: 2,
            epsilon: 0.2,
            delta: 0.05,
            sigma: 0.0,
            stage1_samples: 50,
            ..HistSimConfig::default()
        }
    }

    #[test]
    fn construction_validates_target_length() {
        let cfg = tiny_config();
        assert!(HistSim::new(cfg.clone(), 3, 4, 100, &[0.25; 3]).is_err());
        assert!(HistSim::new(cfg, 3, 4, 100, &[0.25; 4]).is_ok());
    }

    #[test]
    fn construction_rejects_degenerate_domains() {
        let cfg = tiny_config();
        assert!(HistSim::new(cfg.clone(), 0, 4, 100, &[0.25; 4]).is_err());
        assert!(HistSim::new(cfg, 3, 4, 0, &[0.25; 4]).is_err());
    }

    #[test]
    fn starts_in_stage1_with_full_demand() {
        let hs = HistSim::new(tiny_config(), 3, 2, 1000, &[0.5, 0.5]).unwrap();
        assert_eq!(hs.phase(), PhaseKind::Stage1);
        match hs.demand() {
            Demand::Stage1Uniform { remaining } => assert_eq!(remaining, 50),
            other => panic!("unexpected demand {other:?}"),
        }
        assert!(!hs.io_satisfied());
    }

    #[test]
    fn stage1_goal_is_clamped_to_table_size() {
        let hs = HistSim::new(tiny_config(), 3, 2, 20, &[0.5, 0.5]).unwrap();
        match hs.demand() {
            Demand::Stage1Uniform { remaining } => assert_eq!(remaining, 20),
            other => panic!("unexpected demand {other:?}"),
        }
    }

    #[test]
    fn current_topk_tracks_running_estimates() {
        let mut hs = HistSim::new(tiny_config(), 3, 2, 1000, &[0.5, 0.5]).unwrap();
        // Before any samples every candidate sits at the metric's upper
        // limit; ties break by index.
        assert_eq!(hs.current_topk(), vec![0, 1]);
        // Candidate 2 balanced (τ ≈ 0), candidate 1 skewed, candidate 0
        // unseen: the preview must rank 2 first.
        hs.ingest(2, 0);
        hs.ingest(2, 1);
        hs.ingest(1, 0);
        assert_eq!(hs.current_topk()[0], 2);
        assert_eq!(hs.current_topk().len(), 2);
    }

    #[test]
    fn current_topk_equals_output_once_done() {
        let mut hs = HistSim::new(tiny_config(), 2, 2, 10, &[0.5, 0.5]).unwrap();
        for _ in 0..3 {
            hs.ingest(0, 0);
            hs.ingest(0, 1);
        }
        for _ in 0..4 {
            hs.ingest(1, 0);
        }
        hs.complete_io_phase(true).unwrap();
        assert!(hs.is_done());
        assert_eq!(hs.current_topk(), hs.output().unwrap().candidate_ids());
    }

    #[test]
    fn premature_completion_is_rejected() {
        let mut hs = HistSim::new(tiny_config(), 3, 2, 1000, &[0.5, 0.5]).unwrap();
        assert!(hs.complete_io_phase(false).is_err());
    }

    #[test]
    fn exhaustion_finishes_exactly_from_stage1() {
        let mut hs = HistSim::new(tiny_config(), 2, 2, 10, &[0.5, 0.5]).unwrap();
        // Feed the entire (tiny) table: candidate 0 balanced, candidate 1 skewed.
        for _ in 0..3 {
            hs.ingest(0, 0);
            hs.ingest(0, 1);
        }
        for _ in 0..4 {
            hs.ingest(1, 0);
        }
        hs.complete_io_phase(true).unwrap();
        assert!(hs.is_done());
        let out = hs.output().unwrap();
        assert!(out.diagnostics.exact_finish);
        assert_eq!(out.candidate_ids(), vec![0, 1]);
        assert!(out.matches[0].distance < out.matches[1].distance);
    }

    #[test]
    fn try_ingest_checks_domain() {
        let mut hs = HistSim::new(tiny_config(), 2, 2, 100, &[0.5, 0.5]).unwrap();
        assert!(hs.try_ingest(0, 0).is_ok());
        assert!(matches!(
            hs.try_ingest(2, 0),
            Err(CoreError::SampleOutOfDomain { .. })
        ));
        assert!(matches!(
            hs.try_ingest(0, 2),
            Err(CoreError::SampleOutOfDomain { .. })
        ));
    }

    #[test]
    fn output_before_done_is_rejected() {
        let hs = HistSim::new(tiny_config(), 2, 2, 100, &[0.5, 0.5]).unwrap();
        assert!(hs.output().is_err());
    }

    #[test]
    fn skips_stage2_when_candidates_le_k() {
        let cfg = HistSimConfig {
            k: 5,
            stage1_samples: 10,
            sigma: 0.0,
            epsilon: 0.5,
            ..tiny_config()
        };
        let mut hs = HistSim::new(cfg, 2, 2, 10_000, &[0.5, 0.5]).unwrap();
        // stage 1: 10 samples
        for i in 0..10u32 {
            hs.ingest(i % 2, i % 2);
        }
        assert!(hs.io_satisfied());
        hs.complete_io_phase(false).unwrap();
        // |A| = 2 ≤ k = 5 ⇒ straight to stage 3
        assert_eq!(hs.phase(), PhaseKind::Stage3);
        assert_eq!(hs.diagnostics().stage2_rounds, 0);
    }

    #[test]
    fn mark_exact_clears_demand() {
        let cfg = HistSimConfig {
            k: 1,
            stage1_samples: 8,
            sigma: 0.0,
            epsilon: 0.05,
            ..tiny_config()
        };
        let mut hs = HistSim::new(cfg, 3, 2, 100_000, &[0.5, 0.5]).unwrap();
        for i in 0..8u32 {
            hs.ingest(i % 3, (i / 3) % 2);
        }
        hs.complete_io_phase(false).unwrap();
        assert_eq!(hs.phase(), PhaseKind::Stage2);
        // all three candidates should be active with tight epsilon
        let active_before: usize = (0..3).filter(|&c| hs.is_active(c)).count();
        assert!(active_before > 0);
        for c in 0..3 {
            hs.mark_exact(c);
        }
        assert!(hs.io_satisfied());
    }

    #[test]
    fn deactivations_are_listed_once_per_phase() {
        let cfg = HistSimConfig {
            k: 1,
            stage1_samples: 8,
            sigma: 0.0,
            epsilon: 0.05,
            ..tiny_config()
        };
        let mut hs = HistSim::new(cfg, 3, 2, 100_000, &[0.5, 0.5]).unwrap();
        for i in 0..8u32 {
            hs.ingest(i % 3, (i / 3) % 2);
            hs.mark_exact(2); // stage 1 has no demand to drop
        }
        assert!(hs.deactivated().is_empty());
        hs.complete_io_phase(false).unwrap();
        assert_eq!(hs.phase(), PhaseKind::Stage2);
        assert!(hs.deactivated().is_empty());
        let need = hs.remaining_slice()[0];
        assert!(need > 0 && hs.is_active(1));
        // Met by samples (overshooting), then by exhaustion; neither a
        // second sample nor a second `mark_exact` lists it again.
        let zs = vec![0; need as usize + 1];
        hs.ingest_block(&zs, &vec![0; zs.len()]);
        hs.ingest(0, 1);
        hs.mark_exact(1);
        hs.mark_exact(1);
        hs.mark_exact(0);
        assert_eq!(hs.deactivated(), &[0, 1]);
        assert!(hs.io_satisfied());
        hs.complete_io_phase(false).unwrap();
        assert!(hs.deactivated().is_empty(), "cleared at phase completion");
    }

    #[test]
    fn stage2_demands_depend_on_distance_gaps() {
        // Candidates far from the boundary should need fewer samples than
        // candidates near it (Eq. 1: n′ ∝ 1/ε′²).
        let cfg = HistSimConfig {
            k: 1,
            stage1_samples: 400,
            sigma: 0.0,
            epsilon: 0.1,
            ..tiny_config()
        };
        let mut hs = HistSim::new(cfg, 3, 2, 1_000_000, &[1.0, 0.0]).unwrap();
        // candidate 0: identical to target; candidate 1: opposite;
        // candidate 2: halfway.
        for _ in 0..100 {
            hs.ingest(0, 0);
            hs.ingest(1, 1);
            hs.ingest(2, 0);
            hs.ingest(2, 1);
        }
        hs.complete_io_phase(false).unwrap();
        assert_eq!(hs.phase(), PhaseKind::Stage2);
        let r: Vec<u64> = hs.remaining_slice().to_vec();
        // candidate 1 (τ = 2.0) is much further from the split than
        // candidate 2 (τ = 1.0): it needs fewer fresh samples.
        assert!(r[1] < r[2], "far candidate needs fewer samples: {r:?}");
    }

    #[test]
    fn merge_equals_ingest_block_across_phases() {
        // Drive two identical runs — one via ingest_block, one via shard
        // accumulators merged out of order — through stage 1 into stage 2
        // and compare the full state (Debug repr is a faithful dump of
        // every field).
        let cfg = HistSimConfig {
            k: 1,
            stage1_samples: 12,
            sigma: 0.0,
            epsilon: 0.05,
            ..tiny_config()
        };
        let mk = || HistSim::new(cfg.clone(), 3, 2, 100_000, &[0.5, 0.5]).unwrap();
        let zs: Vec<u32> = (0..12u32).map(|i| i % 3).collect();
        let xs: Vec<u32> = (0..12u32).map(|i| (i / 3) % 2).collect();

        let mut seq = mk();
        seq.ingest_block(&zs, &xs);
        let mut par = mk();
        let mut a = HistAccumulator::new(3, 2);
        let mut b = HistAccumulator::new(3, 2);
        a.accumulate(&zs[..5], &xs[..5]);
        b.accumulate(&zs[5..], &xs[5..]);
        par.merge(b);
        par.merge(a);
        assert_eq!(format!("{seq:?}"), format!("{par:?}"));

        seq.complete_io_phase(false).unwrap();
        par.complete_io_phase(false).unwrap();
        assert_eq!(seq.phase(), PhaseKind::Stage2);
        assert_eq!(format!("{seq:?}"), format!("{par:?}"));

        // Stage-2 merge: per-candidate demand decrements saturate the same
        // way in bulk as per tuple.
        let zs2: Vec<u32> = (0..30u32).map(|i| i % 3).collect();
        let xs2: Vec<u32> = (0..30u32).map(|i| i % 2).collect();
        seq.ingest_block(&zs2, &xs2);
        let mut acc = HistAccumulator::new(3, 2);
        acc.accumulate(&zs2, &xs2);
        par.merge(acc);
        assert_eq!(format!("{seq:?}"), format!("{par:?}"));
    }

    #[test]
    fn per_tuple_ingest_equals_merge() {
        // `ingest` is a specialized single-delta path: it must stay
        // byte-identical to accumulating the same tuples and merging.
        let cfg = HistSimConfig {
            k: 1,
            stage1_samples: 6,
            sigma: 0.0,
            epsilon: 0.1,
            ..tiny_config()
        };
        let mk = || HistSim::new(cfg.clone(), 3, 2, 10_000, &[0.5, 0.5]).unwrap();
        let tuples = [(0u32, 0u32), (1, 1), (2, 0), (0, 1), (1, 0), (2, 1)];
        let mut a = mk();
        let mut b = mk();
        for &(c, g) in &tuples {
            a.ingest(c, g);
        }
        let mut acc = HistAccumulator::new(3, 2);
        for &(c, g) in &tuples {
            acc.accumulate_one(c, g);
        }
        b.merge(acc);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        a.complete_io_phase(false).unwrap();
        b.complete_io_phase(false).unwrap();
        // stage 2: per-tuple decrements vs one bulk decrement
        for _ in 0..20 {
            for &(c, g) in &tuples {
                a.ingest(c, g);
            }
        }
        let mut acc = HistAccumulator::new(3, 2);
        for _ in 0..20 {
            for &(c, g) in &tuples {
                acc.accumulate_one(c, g);
            }
        }
        b.merge(acc);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn merge_after_done_panics() {
        let mut hs = HistSim::new(tiny_config(), 2, 2, 4, &[0.5, 0.5]).unwrap();
        hs.ingest(0, 0);
        hs.complete_io_phase(true).unwrap();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut hs2 = hs.clone();
            hs2.merge(HistAccumulator::new(2, 2));
        }));
        assert!(r.is_err());
    }

    #[test]
    fn merge_rejects_mismatched_domains() {
        let mut hs = HistSim::new(tiny_config(), 2, 2, 100, &[0.5, 0.5]).unwrap();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            hs.merge(HistAccumulator::new(3, 2));
        }));
        assert!(r.is_err());
    }

    #[test]
    fn ingest_after_done_panics() {
        let mut hs = HistSim::new(tiny_config(), 2, 2, 4, &[0.5, 0.5]).unwrap();
        hs.ingest(0, 0);
        hs.ingest(1, 1);
        hs.complete_io_phase(true).unwrap();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut hs2 = hs.clone();
            hs2.ingest(0, 0);
        }));
        assert!(r.is_err());
    }
}
