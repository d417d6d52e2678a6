//! Model of the lock-free demand publication protocol
//! ([`fastmatch_engine::shared::SharedDemand`]) and of what its
//! publisher, `Driver::advance_and_publish`, stores in it.
//!
//! One publisher runs `rounds` publications, each executing the real
//! [`PUBLISH_ORDER`] action list (remaining → mode → epoch). Before each
//! one it plays the driver over `CANDIDATES` (2) candidates: ingestion
//! deactivates active candidates one at a time (HistSim's
//! `deactivated` list), then `advance` completes the phase if no
//! candidate is active — into a new stage-2 round, stage 3 or done;
//! the first two raise every candidate's demand again — or leaves it
//! running. The `StoreRemaining` action then stores every count (a full
//! publication) or zeroes the counts of the candidates deactivated
//! since the previous publication (a deactivation publication), as the
//! real [`needs_full_publication`] decides. The run starts in stage 2
//! with every candidate active and nothing published: stage 1
//! publishes no counts, and the step out of it is a step like any
//! other. Parked readers wait on the epoch and, when woken, read the
//! snapshot; polling readers read mode then demand without touching
//! the epoch. Rounds double as ghost values: `rem_round` / `mode_round` track
//! *which publication's* stores are currently visible, and every epoch
//! bump records a *claim* — the round it announces as complete. The
//! named invariants (DESIGN.md § "Concurrency protocols"):
//!
//! * `wake-sees-complete-mode` — a reader woken at epoch `e` observes
//!   a mode at least as new as the round bump `e` claimed.
//! * `wake-sees-complete-demand` — likewise for the per-candidate
//!   demand counts.
//! * `mode-implies-demand` — a polling reader that observes round
//!   `r`'s mode observes demand from round ≥ `r` (the release-store
//!   pairing in the real code).
//! * `one-bump-per-publish` — at quiescence the epoch equals the
//!   number of publications (exactly one bump each).
//! * `published-activity-matches-demand` — when a publication in stage
//!   2 or 3 completes, the candidates whose published count is non-zero
//!   are exactly the ones the ghost HistSim holds active.
//!
//! The historical PR-2 protocol bumped the epoch in both `set_mode`
//! and `publish_remaining`; `DemandPublish::with_two_bump_publish`
//! reintroduces that order and the `finds_pr2_two_bump_publish_bug`
//! test asserts the explorer re-finds the race.
//! `DemandPublish::with_sparse_after_round_change` decides full versus
//! deactivation publications by the phase alone, so the publication
//! after a stage-2 round completes zeroes the new round's (empty)
//! deactivation list instead of re-sending the demand that rose;
//! `finds_sparse_publication_after_round_change` asserts the explorer
//! finds a candidate left published inactive.

use fastmatch_core::histsim::PhaseKind;
use fastmatch_engine::shared::{needs_full_publication, PublishAction, PUBLISH_ORDER};

use crate::explorer::{Model, Step, Violation};

/// Candidates the ghost driver tracks.
const CANDIDATES: usize = 2;

/// The full-versus-deactivation decision the publisher runs:
/// `(stepped, last published phase, phase) -> full?`.
type FullRule = fn(bool, Option<PhaseKind>, PhaseKind) -> bool;

/// Publisher step ids: a publication action, `advance` outcomes, and
/// (from [`DEACTIVATE`] on) the deactivation of one candidate.
const ACTION: usize = 0;
const ADVANCE_OPEN: usize = 1;
const NEXT_ROUND: usize = 2;
const ENTER_STAGE3: usize = 3;
const FINISH: usize = 4;
const DEACTIVATE: usize = 5;

/// Reader lifecycle. `Parked` readers are woken only by an epoch they
/// have not seen; `Woken` readers read the snapshot next.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Reader {
    /// Waiting for `epoch > seen`.
    Parked {
        /// Epoch the reader went to sleep at.
        seen: u32,
    },
    /// Woken at `epoch`, holding the waking bump's completeness claim.
    Woken {
        /// Epoch observed at wake.
        epoch: u32,
        /// Round the waking bump claimed complete.
        claim: u32,
    },
}

/// Full protocol state; see the module docs for the ghost encoding.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct State {
    /// Publisher program counter (index into rounds × order).
    pc: usize,
    /// Round whose `remaining` stores are visible (0 = none yet).
    rem_round: u32,
    /// Round whose mode store is visible.
    mode_round: u32,
    /// Epoch counter (number of bumps so far).
    epoch: u32,
    /// `claims[i]` = round bump `i + 1` announced as complete.
    claims: Vec<u32>,
    /// Parked readers.
    readers: Vec<Reader>,
    /// Poller program counter (2 steps per poll).
    poll_pc: usize,
    /// Mode round the poller saw in its half-finished poll.
    poll_mode: Option<u32>,
    /// Last completed wake observation: (claim, mode_round, rem_round).
    wake_obs: Option<(u32, u32, u32)>,
    /// Last completed poll observation: (mode_round, rem_round).
    poll_obs: Option<(u32, u32)>,
    /// Driver ghost: this round's `advance` has run, so the
    /// publication's actions come next.
    advanced: bool,
    /// HistSim's phase.
    phase: PhaseKind,
    /// HistSim's active set (`remaining > 0`).
    active: [bool; CANDIDATES],
    /// HistSim's deactivation list for the current phase.
    deactivated: Vec<u8>,
    /// Whether this round's `advance` completed a phase.
    stepped: bool,
    /// The phase the driver last published (`None` before the first).
    published_phase: Option<PhaseKind>,
    /// How much of `deactivated` the last publication covered.
    published_deactivations: usize,
    /// Which candidates' published counts are non-zero.
    published: [bool; CANDIDATES],
    /// A stage-2/3 publication just completed: (published, active).
    publish_obs: Option<([bool; CANDIDATES], [bool; CANDIDATES])>,
}

/// The demand publication model. Construct with [`DemandPublish::new`]
/// for the real protocol order.
#[derive(Debug)]
pub struct DemandPublish {
    rounds: u32,
    parked_readers: usize,
    polls: usize,
    /// Per-round publisher action list — [`PUBLISH_ORDER`] unless a
    /// test mutation replaced it.
    order: Vec<PublishAction>,
    /// [`needs_full_publication`] unless a test mutation replaced it.
    full: FullRule,
}

impl DemandPublish {
    /// The real protocol: each publication runs [`PUBLISH_ORDER`].
    pub fn new(rounds: u32, parked_readers: usize, polls: usize) -> Self {
        DemandPublish {
            rounds,
            parked_readers,
            polls,
            order: PUBLISH_ORDER.to_vec(),
            full: needs_full_publication,
        }
    }

    /// Historical PR-2 mutation: `set_mode` and `publish_remaining`
    /// each bump the epoch, so one logical publication bumps twice and
    /// the first bump lands before the demand stores.
    #[cfg(test)]
    pub fn with_two_bump_publish(rounds: u32, parked_readers: usize, polls: usize) -> Self {
        DemandPublish {
            rounds,
            parked_readers,
            polls,
            order: vec![
                PublishAction::StoreMode,
                PublishAction::BumpEpoch,
                PublishAction::StoreRemaining,
                PublishAction::BumpEpoch,
            ],
            full: needs_full_publication,
        }
    }

    /// Mutation: publishes in full only when the phase *kind* changed,
    /// not after a stage-2 round — a round completion then goes out as
    /// a deactivation publication and demand that rose stays unpublished.
    #[cfg(test)]
    pub fn with_sparse_after_round_change(
        rounds: u32,
        parked_readers: usize,
        polls: usize,
    ) -> Self {
        DemandPublish {
            full: |_stepped, last, phase| last != Some(phase),
            ..Self::new(rounds, parked_readers, polls)
        }
    }

    /// Bumps per publication under the configured order (1 for the
    /// real protocol).
    fn bumps_per_round(&self) -> u32 {
        self.order
            .iter()
            .filter(|a| **a == PublishAction::BumpEpoch)
            .count() as u32
    }

    /// Actor ids: 0 = publisher, 1..=parked = parked readers, then the
    /// poller.
    fn poller_actor(&self) -> usize {
        1 + self.parked_readers
    }

    /// The driver's steps before round `round`'s publication: deactivate
    /// any active candidate, or run `advance` — which completes the
    /// phase exactly when no candidate is active.
    fn driver_steps(&self, s: &State, round: usize, steps: &mut Vec<Step>) {
        for c in (0..CANDIDATES).filter(|&c| s.active[c]) {
            steps.push(Step::new(
                0,
                DEACTIVATE + c,
                format!("deactivate c{c} r{round}"),
            ));
        }
        let satisfied = !s.active.contains(&true);
        let outcomes: &[(usize, &str)] = match s.phase {
            PhaseKind::Stage2 if satisfied => {
                &[(NEXT_ROUND, "next round"), (ENTER_STAGE3, "stage 3")]
            }
            PhaseKind::Stage3 if satisfied => &[(FINISH, "done")],
            _ => &[(ADVANCE_OPEN, "no step")],
        };
        for &(id, what) in outcomes {
            steps.push(Step::new(0, id, format!("advance: {what} r{round}")));
        }
    }

    /// The `StoreRemaining` action of a publication, as
    /// `advance_and_publish` does it: counts only in stage 2/3, all of
    /// them or the deactivations since the last publication.
    fn store_remaining(&self, n: &mut State) {
        if matches!(n.phase, PhaseKind::Stage2 | PhaseKind::Stage3) {
            if (self.full)(n.stepped, n.published_phase, n.phase) {
                n.published = n.active;
            } else {
                let since = n.deactivated.get(n.published_deactivations..);
                for &c in since.unwrap_or_default() {
                    n.published[c as usize] = false;
                }
            }
        }
        n.published_phase = Some(n.phase);
        n.published_deactivations = n.deactivated.len();
    }
}

impl Model for DemandPublish {
    type State = State;

    fn name(&self) -> &'static str {
        "demand_publish"
    }

    fn initial(&self) -> State {
        State {
            pc: 0,
            rem_round: 0,
            mode_round: 0,
            epoch: 0,
            claims: Vec::new(),
            readers: vec![Reader::Parked { seen: 0 }; self.parked_readers],
            poll_pc: 0,
            poll_mode: None,
            wake_obs: None,
            poll_obs: None,
            advanced: false,
            phase: PhaseKind::Stage2,
            active: [true; CANDIDATES],
            deactivated: Vec::new(),
            stepped: false,
            published_phase: None,
            published_deactivations: 0,
            published: [false; CANDIDATES],
            publish_obs: None,
        }
    }

    fn enabled(&self, s: &State) -> Vec<Step> {
        let mut steps = Vec::new();
        let program_len = self.rounds as usize * self.order.len();
        if s.pc < program_len {
            let round = s.pc / self.order.len() + 1;
            if s.pc.is_multiple_of(self.order.len()) && !s.advanced {
                self.driver_steps(s, round, &mut steps);
            } else {
                let label = match self.order[s.pc % self.order.len()] {
                    PublishAction::StoreRemaining => format!("store-remaining r{round}"),
                    PublishAction::StoreMode => format!("store-mode r{round}"),
                    PublishAction::BumpEpoch => format!("bump-epoch r{round}"),
                };
                steps.push(Step::new(0, ACTION, label));
            }
        }
        for (i, reader) in s.readers.iter().enumerate() {
            match reader {
                Reader::Parked { seen } if s.epoch > *seen => {
                    steps.push(Step::new(1 + i, 0, format!("wake e{}", s.epoch)));
                }
                Reader::Parked { .. } => {}
                Reader::Woken { .. } => {
                    steps.push(Step::new(1 + i, 1, "read-snapshot"));
                }
            }
        }
        if s.poll_pc < 2 * self.polls {
            let (id, label) = if s.poll_pc.is_multiple_of(2) {
                (0, "poll-mode")
            } else {
                (1, "poll-remaining")
            };
            steps.push(Step::new(self.poller_actor(), id, label));
        }
        steps
    }

    fn apply(&self, s: &State, step: &Step) -> State {
        let mut n = s.clone();
        // Observations are one-shot: clear last step's so `check` only
        // ever judges the transition that just happened.
        n.wake_obs = None;
        n.poll_obs = None;
        n.publish_obs = None;
        if step.actor == 0 && step.id >= DEACTIVATE {
            let c = step.id - DEACTIVATE;
            n.active[c] = false;
            n.deactivated.push(c as u8);
        } else if step.actor == 0 && step.id != ACTION {
            n.advanced = true;
            n.stepped = step.id != ADVANCE_OPEN;
            if n.stepped {
                n.deactivated.clear();
                n.phase = match step.id {
                    NEXT_ROUND => PhaseKind::Stage2,
                    ENTER_STAGE3 => PhaseKind::Stage3,
                    _ => PhaseKind::Done,
                };
                n.active = [n.phase != PhaseKind::Done; CANDIDATES];
            }
        } else if step.actor == 0 {
            let round = (s.pc / self.order.len() + 1) as u32;
            match self.order[s.pc % self.order.len()] {
                PublishAction::StoreRemaining => {
                    n.rem_round = round;
                    self.store_remaining(&mut n);
                }
                PublishAction::StoreMode => n.mode_round = round,
                PublishAction::BumpEpoch => {
                    n.epoch += 1;
                    n.claims.push(round);
                }
            }
            n.pc += 1;
            if n.pc.is_multiple_of(self.order.len()) {
                n.advanced = false;
                if matches!(n.phase, PhaseKind::Stage2 | PhaseKind::Stage3) {
                    n.publish_obs = Some((n.published, n.active));
                }
            }
        } else if step.actor == self.poller_actor() {
            if step.id == 0 {
                n.poll_mode = Some(s.mode_round);
            } else {
                n.poll_obs = Some((s.poll_mode.unwrap_or(0), s.rem_round));
                n.poll_mode = None;
            }
            n.poll_pc += 1;
        } else {
            let r = step.actor - 1;
            n.readers[r] = match (&s.readers[r], step.id) {
                (Reader::Parked { .. }, 0) => Reader::Woken {
                    epoch: s.epoch,
                    claim: s.claims[s.epoch as usize - 1],
                },
                (Reader::Woken { epoch, claim }, 1) => {
                    n.wake_obs = Some((*claim, s.mode_round, s.rem_round));
                    Reader::Parked { seen: *epoch }
                }
                other => unreachable!("reader step {:?} in state {:?}", step, other),
            };
        }
        n
    }

    fn check(&self, s: &State) -> Result<(), Violation> {
        if let Some((claim, mode, rem)) = s.wake_obs {
            if mode < claim {
                return Err(Violation::new(
                    "wake-sees-complete-mode",
                    format!(
                        "woken by a bump claiming round {claim}, observed mode of round {mode}"
                    ),
                ));
            }
            if rem < claim {
                return Err(Violation::new(
                    "wake-sees-complete-demand",
                    format!(
                        "woken by a bump claiming round {claim}, observed demand of round {rem}"
                    ),
                ));
            }
        }
        if let Some((mode, rem)) = s.poll_obs {
            if rem < mode {
                return Err(Violation::new(
                    "mode-implies-demand",
                    format!("polled mode of round {mode} but demand of round {rem}"),
                ));
            }
        }
        if let Some((published, active)) = s.publish_obs {
            if published != active {
                return Err(Violation::new(
                    "published-activity-matches-demand",
                    format!(
                        "published active set {published:?}, HistSim's {active:?} in {:?}",
                        s.phase
                    ),
                ));
            }
        }
        Ok(())
    }

    fn check_quiescent(&self, s: &State) -> Result<(), Violation> {
        let want = self.rounds * self.bumps_per_round();
        if s.epoch != want {
            return Err(Violation::new(
                "one-bump-per-publish",
                format!(
                    "{} publications ended at epoch {} (expected {want})",
                    self.rounds, s.epoch
                ),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::Explorer;

    #[test]
    fn current_protocol_is_race_free() {
        let stats = Explorer::new(DemandPublish::new(2, 2, 2))
            .explore()
            .unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(stats.truncated, 0, "scope must be fully explored");
        assert!(stats.quiescent >= 1);
    }

    #[test]
    fn finds_pr2_two_bump_publish_bug() {
        // Parked readers only: the poller would also flag the mutated
        // order, but the historical symptom was a *woken* worker acting
        // on a half-published snapshot.
        let failure = Explorer::new(DemandPublish::with_two_bump_publish(2, 1, 0))
            .explore()
            .expect_err("the two-bump publish race must be found");
        assert_eq!(failure.violation.invariant, "wake-sees-complete-demand");
        assert!(
            !failure.trace.is_empty(),
            "failure must carry the schedule that exposes the race"
        );
    }

    #[test]
    fn two_bump_mutation_also_breaks_polling_readers() {
        let failure = Explorer::new(DemandPublish::with_two_bump_publish(2, 0, 2))
            .explore()
            .expect_err("mode published before demand must be observable");
        assert_eq!(failure.violation.invariant, "mode-implies-demand");
    }

    #[test]
    fn deactivation_publications_keep_the_active_set_exact() {
        // Publisher alone, over every driver history of five
        // publications: rounds, stage changes and deactivations in any
        // order between them.
        let stats = Explorer::new(DemandPublish::new(5, 0, 0))
            .explore()
            .unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(stats.truncated, 0, "scope must be fully explored");
    }

    #[test]
    fn finds_sparse_publication_after_round_change() {
        // Three publications suffice: a deactivation goes out sparsely,
        // then a round completes and raises that candidate's demand.
        let failure = Explorer::new(DemandPublish::with_sparse_after_round_change(3, 0, 0))
            .explore()
            .expect_err("a round change published sparsely must be found");
        assert_eq!(
            failure.violation.invariant,
            "published-activity-matches-demand"
        );
    }

    #[test]
    fn walk_mode_agrees_with_exhaustion() {
        let stats = Explorer::new(DemandPublish::new(2, 2, 2))
            .walk(0xd3_ad_b3_3f, 500)
            .unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(stats.schedules, 500);
        let failure = Explorer::new(DemandPublish::with_two_bump_publish(2, 1, 0))
            .walk(0xd3_ad_b3_3f, 500)
            .expect_err("soak mode must also find the historical race");
        assert_eq!(failure.violation.invariant, "wake-sees-complete-demand");
    }
}
