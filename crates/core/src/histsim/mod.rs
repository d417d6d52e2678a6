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
//! should call [`HistSim::mark_exact`] (or let [`HistSim::settle`] and
//! [`HistSim::sweep`] do it from per-candidate row counts); if the
//! *entire table* has been
//! consumed, pass `exhausted = true` and HistSim finishes with exact
//! results.
//!
//! There are three ingestion paths, all leaving byte-identical counts
//! for the same tuples: per tuple ([`HistSim::ingest`]); per block
//! ([`HistSim::ingest_block`], the fused kernel every executor and the
//! query service use — the service hands it a quantum's blocks at
//! once); and phase-free delta *accumulation*
//! ([`accumulator::HistAccumulator`]) followed by a phase-aware *merge*
//! ([`HistSim::merge`]), which only the repo benchmark's trace walker
//! still calls. Every path counts each candidate's rows read (`nᵢ + n∂ᵢ`),
//! pruned candidates included, so a driver that knows how many rows
//! each candidate has can tell when one is read out.
//!
//! The fused kernel is `Scan`'s loop plus one weight: per tuple, one
//! increment of its cell by the candidate's 0/1 weight (0 once pruned)
//! and one of its row count. Counts and totals are therefore always
//! current; only the demand waits. [`HistSim::settle`] brings it up to
//! date by walking the candidates that still have demand — not the
//! candidates the blocks touched — with one row-count load each: a
//! candidate whose rows read reached its goal or its row total is
//! checked, leaves the active set, and is marked exact if the driver
//! reports it read out. Until then [`HistSim::io_satisfied`] answers for
//! stage 2/3 as of the last settlement, and the phase's tests,
//! [`HistSim::current_topk`] and [`HistSim::output`] refuse to run on
//! unsettled blocks (a panic in every build). A driver that settles
//! after every block calls [`HistSim::settle_block`] instead, which
//! checks only that block's candidates. At a phase boundary the driver
//! calls [`HistSim::sweep`], which marks exact every candidate read out
//! so far, with demand or without.

pub mod accumulator;
pub mod config;
pub mod state;

pub use accumulator::HistAccumulator;
pub use config::HistSimConfig;

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
    /// Per-candidate weight of a sampled tuple: 1, or 0 once the
    /// candidate is pruned (its tuples are then read, not sampled).
    weight: Vec<u64>,
    exact: Vec<bool>,
    /// Outstanding per-candidate demand for the current I/O phase; for
    /// blocks given to [`Self::ingest_block`], as of the candidate's last
    /// check (see [`Self::remaining_slice`]).
    remaining: Vec<u64>,
    /// Rows read (`nᵢ + n∂ᵢ`) at which each candidate given demand in the
    /// current I/O phase meets it: `remaining = goal − read`, floored at 0.
    goal: Vec<u64>,
    /// Number of candidates with `remaining > 0`.
    active_count: usize,
    /// The candidates given demand in the current I/O phase that had it
    /// left when a settlement last checked them — a superset of the
    /// active ones, since [`Self::mark_exact`], merges and per-tuple
    /// ingestion deactivate without removing; settlement drops those
    /// when it next checks them.
    active: Vec<u32>,
    /// Per candidate on the active list, the count the phase's tuples
    /// land in (`n∂ᵢ` in stage 2, `nᵢ` in stage 3) below which it can
    /// have neither met its demand nor been read out, as of its last
    /// check: its goal, or its rows read plus unread, whichever is less.
    /// 0 until first checked; `u64::MAX` once off the list.
    check_at: Vec<u64>,
    /// Positions in `active` a settlement found due for a check
    /// (scratch, kept for its storage).
    due: Vec<u32>,
    /// Candidates whose `remaining` reached 0 during the current I/O
    /// phase, in that order. Demand rises only when a phase begins, so a
    /// candidate is listed at most once per phase; the list is cleared
    /// when the phase completes.
    deactivated: Vec<u32>,
    phase: Phase,
    members: Vec<u32>,
    diag: Diagnostics,
    /// Whether blocks came through [`Self::ingest_block`] since the last
    /// [`Self::settle`].
    block_pending: bool,
    /// How many more tuples, by any path, can certainly neither meet an
    /// active candidate's demand nor read it out: the smallest distance
    /// from a listed candidate's count to its `check_at` at the last
    /// walk, less the tuples since. While it is positive a settlement
    /// has nothing to do. 0 when a phase begins.
    slack: u64,
    /// Tuples that came in, by any path, since the last settlement.
    since_settled: u64,
}

/// Manual `Debug` over the *logical* state only. `remaining` is left
/// out because the fused path brings a candidate's count up to date
/// only when a settlement checks it, so between checks the paths may
/// hold different values; `goal` and the row counts, which are printed,
/// determine it. `active` and `deactivated` list candidates in the
/// order the ingestion path met them, and `check_at`, `slack` and the
/// settlement flags are bookkeeping. Any of these would break the
/// byte-identical `Debug`-repr equivalence the ingestion property tests
/// assert between the three paths.
impl std::fmt::Debug for HistSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistSim")
            .field("cfg", &self.cfg)
            .field("bound", &self.bound)
            .field("n_total_rows", &self.n_total_rows)
            .field("target", &self.target)
            .field("counts", &self.counts)
            .field("weight", &self.weight)
            .field("exact", &self.exact)
            .field("goal", &self.goal)
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
            weight: vec![1; num_candidates],
            exact: vec![false; num_candidates],
            remaining: vec![0; num_candidates],
            goal: vec![0; num_candidates],
            active_count: 0,
            active: Vec::new(),
            check_at: vec![u64::MAX; num_candidates],
            due: Vec::new(),
            deactivated: Vec::new(),
            phase: Phase::Stage1 { taken: 0 },
            members: Vec::new(),
            diag: Diagnostics {
                effective_k,
                ..Diagnostics::default()
            },
            block_pending: false,
            slack: 0,
            since_settled: 0,
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
    /// Whether a candidate's count is 0 — whether it is
    /// [active](Self::is_active) — is current as of the last
    /// [`Self::settle`] on every path. On the fused path a nonzero count
    /// is brought up to date only when a settlement checks the candidate
    /// (when it may have met its demand or run out of rows), so between
    /// checks it may be larger than the true outstanding demand; merges
    /// and per-tuple ingestion keep it current.
    pub fn remaining_slice(&self) -> &[u64] {
        &self.remaining
    }

    /// Number of [active](Self::is_active) candidates, as of the last
    /// settlement on the fused path.
    pub fn active_count(&self) -> usize {
        self.active_count
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
    /// Stage 1 counts tuples as they are ingested; in stages 2 and 3 the
    /// answer is as of the last [`Self::settle`].
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
        self.slack = self.slack.saturating_sub(tuples);
        self.since_settled += tuples;
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

    /// Brings candidate `ci`'s outstanding demand up to date with its
    /// rows read, listing it as deactivated if that met its goal. A
    /// no-op for a candidate without demand.
    #[inline]
    fn refresh(&mut self, ci: usize) {
        if self.remaining[ci] > 0 {
            self.remaining[ci] = self.goal[ci].saturating_sub(self.counts.read(ci));
            if self.remaining[ci] == 0 {
                self.active_count -= 1;
                self.deactivated.push(ci as u32);
            }
        }
    }

    /// Ingests one sampled tuple: candidate `c` (its `Z` code) observed
    /// with group `g` (its `X` code). Totals and demand are current
    /// when it returns.
    ///
    /// # Panics
    /// Panics if `c`/`g` are outside the declared domain (use
    /// [`Self::try_ingest`] for a `Result`) or after completion.
    #[inline]
    pub fn ingest(&mut self, c: u32, g: u32) {
        let round = self.landing(1);
        self.counts.record_block(round, &[c], &[g], &self.weight);
        self.refresh(c as usize);
    }

    /// Ingests one block's worth of samples at once: `zs[i]`/`xs[i]` are
    /// the candidate and group codes of the i-th tuple. Followed by
    /// [`Self::settle`], equivalent to calling [`Self::ingest`] per
    /// tuple. The fused kernel is `Scan`'s two increments per tuple, the
    /// first weighted: the tuple's count cell in the phase's matrix gains
    /// its candidate's 0/1 weight (0 once pruned, branch-free), and the
    /// candidate's row count gains 1. Counts and totals are current when
    /// it returns; demand waits for the next settlement.
    ///
    /// # Panics
    /// Panics on length mismatch, out-of-domain codes, or after
    /// completion.
    pub fn ingest_block(&mut self, zs: &[u32], xs: &[u32]) {
        let round = self.landing(zs.len() as u64);
        self.counts.record_block(round, zs, xs, &self.weight);
        self.block_pending = true;
    }

    /// Settles the blocks ingested since the last settlement. In stages
    /// 2 and 3 it walks the active list — the candidates that had demand
    /// left when last checked — comparing each one's row count with the
    /// count at which it could next change: its goal, or its rows read
    /// plus unread at its last check, whichever is less. A candidate
    /// short of that is left alone. One that reached it is checked: if
    /// the driver reports it read out — `unread(candidate, rows read)`
    /// returns 0 — it is marked exact; otherwise its outstanding demand
    /// becomes its goal less its rows read, and it leaves the list when
    /// that is 0. (A candidate a merge or [`Self::mark_exact`]
    /// deactivated stays listed until it reaches its check, which is what
    /// keeps the three ingestion paths' exact marks equal.) A new phase
    /// checks every listed candidate once. In stage 1, which has no
    /// per-candidate demand, it asks `unread` about every candidate.
    /// Costs one row-count load per listed candidate in stages 2 and 3,
    /// plus a check per candidate due, and `O(|V_Z|)` in stage 1.
    ///
    /// It returns at once when fewer tuples came in since the last walk
    /// than the smallest distance from a listed candidate's row count to
    /// its check: then no active candidate can have met its demand or
    /// been read out, so the active set is already exact.
    pub fn settle(&mut self, mut unread: impl FnMut(u32, u64) -> u64) {
        self.block_pending = false;
        self.since_settled = 0;
        if self.slack > 0 {
            return;
        }
        match self.phase {
            Phase::Stage1 { .. } => self.sweep(unread),
            Phase::Stage2 { .. } | Phase::Stage3 => {
                // A phase's tuples land in one of the two row counts (the
                // round's in stage 2, the cumulative one in stage 3) and
                // the other stays put, so one load tells whether a
                // candidate has reached its check. The scan for those
                // that have is a tight loop of its own; the checks then
                // visit only them.
                let round = matches!(self.phase, Phase::Stage2 { .. });
                let landed = self.counts.landed(round);
                let mut slack = u64::MAX;
                let mut dropped = false;
                self.due.clear();
                for (i, &c) in self.active.iter().enumerate() {
                    let (l, at) = (landed[c as usize], self.check_at[c as usize]);
                    if at == u64::MAX {
                        dropped = true;
                    } else if l < at {
                        slack = slack.min(at - l);
                    } else {
                        self.due.push(i as u32);
                    }
                }
                for k in 0..self.due.len() {
                    let c = self.active[self.due[k] as usize];
                    self.check(c, round, &mut unread);
                    let at = self.check_at[c as usize];
                    if at == u64::MAX {
                        dropped = true;
                    } else {
                        slack = slack.min(at - self.counts.landed(round)[c as usize]);
                    }
                }
                if dropped {
                    let check_at = &self.check_at;
                    self.active.retain(|&c| check_at[c as usize] != u64::MAX);
                }
                self.slack = if self.active.is_empty() { 0 } else { slack };
            }
            Phase::Done => {}
        }
    }

    /// Settles the one block ingested through [`Self::ingest_block`]
    /// since the last settlement, by checking only the candidates its
    /// tuples name — the only ones whose counts moved — as
    /// [`Self::settle`] would check them. The result is the same as
    /// [`Self::settle`]'s, at a cost of one block rather than one active
    /// set: what a driver that settles before every block needs when
    /// thousands of candidates hold demand.
    ///
    /// # Panics
    /// Panics if tuples other than `zs`'s came in since the last
    /// settlement.
    pub fn settle_block(&mut self, zs: &[u32], mut unread: impl FnMut(u32, u64) -> u64) {
        assert_eq!(
            self.since_settled,
            zs.len() as u64,
            "settle_block after more than its block"
        );
        self.block_pending = false;
        match self.phase {
            Phase::Stage1 { .. } => {
                for &c in zs {
                    if unread(c, self.counts.read(c as usize)) == 0 {
                        self.mark_exact(c);
                    }
                }
            }
            Phase::Stage2 { .. } | Phase::Stage3 => {
                let round = matches!(self.phase, Phase::Stage2 { .. });
                for &c in zs {
                    let ci = c as usize;
                    if self.counts.landed(round)[ci] >= self.check_at[ci] {
                        self.check(c, round, &mut unread);
                    }
                }
            }
            Phase::Done => {}
        }
        // Nothing has come in since: a settlement before the next tuple
        // has nothing to do.
        self.slack = self.slack.max(1);
        self.since_settled = 0;
    }

    /// Checks one candidate on the active list: marks it exact if
    /// `unread` reports it read out, otherwise brings its outstanding
    /// demand up to date; then sets when it must next be checked, or
    /// takes it off the list if it is no longer active.
    fn check(&mut self, c: u32, round: bool, unread: &mut impl FnMut(u32, u64) -> u64) {
        let ci = c as usize;
        let read = self.counts.read(ci);
        let left = unread(c, read);
        if left == 0 {
            self.mark_exact(c);
        } else {
            self.refresh(ci);
        }
        self.check_at[ci] = if self.remaining[ci] == 0 {
            u64::MAX
        } else {
            let landed = self.counts.landed(round)[ci];
            self.goal[ci].min(read.saturating_add(left)) - (read - landed)
        };
    }

    /// Marks exact every candidate that `unread(candidate, rows read)`
    /// reports read out (returns 0), with demand or without: the
    /// phase-boundary sweep a driver runs before
    /// [`Self::complete_io_phase`], since a settlement looks only at the
    /// active candidates and a test decides exact candidates' hypotheses
    /// outright. Costs `O(|V_Z|)`.
    pub fn sweep(&mut self, mut unread: impl FnMut(u32, u64) -> u64) {
        for c in 0..self.counts.num_candidates() {
            if unread(c as u32, self.counts.read(c)) == 0 {
                self.mark_exact(c as u32);
            }
        }
    }

    /// Panics, in every build, if blocks ingested through
    /// [`Self::ingest_block`] are waiting for [`Self::settle`]: `what`
    /// would read an active set that lags the counts.
    fn assert_settled(&self, what: &str) {
        assert!(
            !self.block_pending,
            "{what} with unsettled blocks: call HistSim::settle first"
        );
    }

    /// Folds a batch of phase-free count deltas (see [`HistAccumulator`])
    /// into the state machine, consuming the accumulator. Equivalent to
    /// ingesting the accumulated tuples one by one in any order.
    ///
    /// # Panics
    /// Panics if the accumulator's domain differs from this run's, or
    /// after completion.
    pub fn merge(&mut self, acc: HistAccumulator) {
        self.merge_ref(&acc);
    }

    /// [`Self::merge`] by reference, leaving the accumulator intact so
    /// callers can [`HistAccumulator::clear`] and reuse its storage.
    /// Costs `O(non-zero cells)` of the accumulator. Totals and demand
    /// are current when it returns. No product path calls it; it stays
    /// public and unchanged for the repo benchmark's trace walker, and
    /// goes with it (ROADMAP item 7).
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
            if self.weight[c] != 0 {
                cells[c * groups + g] += delta;
            }
        }
        for &c in acc.touched() {
            let ci = c as usize;
            self.counts.add_n(round, ci, acc.n(ci), self.weight[ci]);
            self.refresh(ci);
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
    ///
    /// # Panics
    /// Panics if blocks are waiting for [`Self::settle`].
    pub fn complete_io_phase(&mut self, exhausted: bool) -> Result<()> {
        self.assert_settled("complete_io_phase");
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
            self.weight[c] = u64::from(!hb.rejected()[c]);
        }
        if self.cfg.test_unseen_mass {
            self.diag.unseen_mass_rare = Some(*hb.rejected().last().unwrap());
        }
        self.diag.pruned_candidates = self.weight.iter().filter(|&&w| w == 0).count();
        self.enter_stage2_or_skip(1, self.cfg.delta / 6.0);
    }

    // ---------------------------------------------------------------- stage 2

    /// Number of unpruned candidates `|A|`.
    fn a_size(&self) -> usize {
        self.weight.iter().filter(|&&w| w != 0).count()
    }

    fn unpruned_mask(&self) -> Vec<bool> {
        self.weight.iter().map(|&w| w != 0).collect()
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
                .filter(|&c| self.weight[c as usize] != 0)
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
        self.clear_demand();
        for i in 0..self.counts.num_candidates() {
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
            self.open_demand(i, eq1.min(refine_cap));
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
            if self.weight[i] == 0 {
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
        self.clear_demand();
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
        for i in 0..self.members.len() {
            let ci = self.members[i] as usize;
            if !self.exact[ci] {
                self.open_demand(ci, target_n.saturating_sub(self.counts.n(ci)));
            }
        }
        self.phase = Phase::Stage3;
    }

    /// Drops every candidate's demand, as a phase begins or the run ends.
    fn clear_demand(&mut self) {
        self.remaining.iter_mut().for_each(|r| *r = 0);
        self.active_count = 0;
        for &c in &self.active {
            self.check_at[c as usize] = u64::MAX;
        }
        self.active.clear();
        self.slack = 0;
    }

    /// Gives candidate `ci` a demand of `need` more samples in the phase
    /// being entered.
    fn open_demand(&mut self, ci: usize, need: u64) {
        self.remaining[ci] = need;
        self.goal[ci] = self.counts.read(ci) + need;
        if need > 0 {
            self.active_count += 1;
            self.active.push(ci as u32);
            self.check_at[ci] = 0;
        }
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
                self.weight[c] = 0;
            }
        }
        self.diag.pruned_candidates = self.weight.iter().filter(|&&w| w == 0).count();
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
        self.clear_demand();
        self.diag.exact_finish = exact;
        self.diag.total_samples = self.counts.total_samples();
        self.phase = Phase::Done;
    }

    /// Whether the run has terminated.
    pub fn is_done(&self) -> bool {
        matches!(self.phase, Phase::Done)
    }

    /// Extracts the output. May only be called once the run is done.
    ///
    /// # Panics
    /// Panics if blocks are waiting for [`Self::settle`].
    pub fn output(&self) -> Result<HistSimOutput> {
        self.assert_settled("output");
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
        self.weight[c as usize] == 0
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
    ///
    /// # Panics
    /// Panics if blocks are waiting for [`Self::settle`].
    pub fn current_topk(&self) -> Vec<u32> {
        self.assert_settled("current_topk");
        if self.is_done() {
            return self.members.clone();
        }
        let eligible = self.unpruned_mask();
        let taus: Vec<f64> = (0..self.counts.num_candidates())
            .map(|c| self.counts.tau_total(c, self.cfg.metric, &self.target))
            .collect();
        k_smallest_indices(&taus, self.diag.effective_k, &eligible)
            .into_iter()
            .map(|i| i as u32)
            .collect()
    }

    /// Samples taken so far over all unpruned candidates — a running
    /// counter, cheap enough for per-quantum progress reporting.
    pub fn samples(&self) -> u64 {
        self.counts.total_samples()
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
        hs.settle(|_, _| u64::MAX);
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
        seq.settle(|_, _| u64::MAX);
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
        seq.settle(|_, _| u64::MAX);
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

    /// Counts are current as soon as a block is in, a pruned candidate's
    /// rows included; settlement asks about every candidate in stage 1
    /// and only about the active ones after, sets demand from goal and
    /// rows read, and marks exact what the driver reports read out.
    #[test]
    fn settlement_walks_the_active_set() {
        let cfg = HistSimConfig {
            k: 1,
            stage1_samples: 4,
            sigma: 0.0,
            epsilon: 0.05,
            ..tiny_config()
        };
        let mut hs = HistSim::new(cfg, 4, 2, 100_000, &[0.5, 0.5]).unwrap();
        hs.ingest_block(&[2, 0, 2], &[0, 1, 1]);
        hs.ingest_block(&[1, 2], &[0, 0]);
        assert_eq!(hs.samples(), 5, "totals do not wait for the settlement");
        assert!(hs.io_satisfied(), "stage 1 counts tuples as they come");
        let mut asked = Vec::new();
        hs.settle(|c, read| {
            asked.push((c, read));
            if c == 3 {
                0
            } else {
                u64::MAX
            }
        });
        assert_eq!(asked, vec![(0, 1), (1, 1), (2, 3), (3, 0)]);
        assert!(hs.is_exact(3), "read out in stage 1");
        hs.complete_io_phase(false).unwrap();
        assert_eq!(hs.phase(), PhaseKind::Stage2);
        assert!((0..3).all(|c| hs.is_active(c)) && !hs.is_active(3));

        hs.weight[1] = 0; // as if stage 1 had found it rare
        hs.mark_exact(2); // deactivated, but on the active list until a walk
        let need = hs.remaining_slice()[0];
        hs.ingest_block(&[1, 0, 1], &[0, 0, 1]);
        assert_eq!(hs.counts.read(1), 3, "a pruned candidate's rows are read");
        assert_eq!(hs.samples(), 6, "but add no samples");
        assert_eq!(hs.remaining_slice()[0], need, "demand waits");
        // Candidate 0 has five rows left; the others never run out.
        let rows0 = hs.counts.read(0) + 5;
        let unread = |c: u32, read: u64| {
            if c == 0 {
                rows0 - read
            } else {
                u64::MAX - read
            }
        };
        let mut asked = Vec::new();
        hs.settle(|c, read| {
            asked.push((c, read));
            unread(c, read)
        });
        assert_eq!(
            asked,
            vec![(0, 2), (1, 3), (2, 3)],
            "the active list, not the block"
        );
        assert_eq!(hs.remaining_slice()[0], need - 1);
        let listed = |hs: &HistSim| hs.active.clone();
        assert_eq!(listed(&hs), vec![0, 1], "mark_exact's drop leaves the list");

        // Until candidate 0's last row no walk has anything to decide.
        assert_eq!(hs.slack, 5);
        hs.ingest_block(&[0; 4], &[1; 4]);
        hs.settle(|c, read| panic!("walked at {c} {read}"));
        assert!(hs.is_active(0) && !hs.block_pending);
        assert_eq!(hs.remaining_slice()[0], need - 1, "counts wait for a check");
        // Its last row: exact and inactive at the next walk, which checks
        // no candidate short of its check.
        hs.ingest_block(&[0], &[1]);
        let mut asked = Vec::new();
        hs.settle(|c, read| {
            asked.push(c);
            unread(c, read)
        });
        assert_eq!(asked, vec![0]);
        assert!(hs.is_exact(0) && !hs.is_active(0));
        assert_eq!(hs.deactivated(), &[2, 0]);
        assert_eq!(listed(&hs), vec![1]);
    }

    /// Every check that reads totals or demand refuses unsettled blocks
    /// in release builds too: a lagging active set would end a phase
    /// late, or test it on counts its totals do not match.
    #[test]
    fn unsettled_read_panics_in_all_builds() {
        let mut hs = HistSim::new(tiny_config(), 2, 2, 10, &[0.5, 0.5]).unwrap();
        hs.ingest_block(&[0, 1], &[0, 1]);
        for (what, read) in [
            (
                "complete_io_phase",
                Box::new(|hs: &mut HistSim| {
                    let _ = hs.complete_io_phase(true);
                }) as Box<dyn Fn(&mut HistSim)>,
            ),
            (
                "current_topk",
                Box::new(|hs: &mut HistSim| {
                    hs.current_topk();
                }),
            ),
            (
                "output",
                Box::new(|hs: &mut HistSim| {
                    let _ = hs.output();
                }),
            ),
        ] {
            let mut probe = hs.clone();
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| read(&mut probe)));
            let msg = r.expect_err(what);
            let msg = msg.downcast_ref::<String>().expect("formatted message");
            assert!(msg.contains(what) && msg.contains("unsettled"), "{msg}");
        }
        hs.settle(|_, _| u64::MAX);
        hs.complete_io_phase(true).unwrap();
        assert_eq!(hs.current_topk(), hs.output().unwrap().candidate_ids());
    }

    /// The fused kernel checks the domain in its loop and names the
    /// offending code, as the accumulator's batch check does.
    #[test]
    #[should_panic(expected = "candidate 7 out of domain")]
    fn ingest_block_out_of_domain_candidate_panics() {
        let mut hs = HistSim::new(tiny_config(), 2, 2, 100, &[0.5, 0.5]).unwrap();
        hs.ingest_block(&[0, 7], &[0, 0]);
    }

    #[test]
    #[should_panic(expected = "group 5 out of domain")]
    fn ingest_block_out_of_domain_group_panics() {
        let mut hs = HistSim::new(tiny_config(), 2, 2, 100, &[0.5, 0.5]).unwrap();
        hs.ingest_block(&[0, 1], &[0, 5]);
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
