//! Lock-free demand state between a query's statistics engine and its
//! readers (paper §4.2, Challenge 4).
//!
//! The reader is the demand-marked walk (`exec::walk::ShardWalk`),
//! which needs each candidate's *active* status to apply AnyActive
//! selection to its next window and reads the demand epoch when a pass
//! begins. FastMatch and the query service both step the walk on the
//! thread that owns the statistics engine, so no reader runs
//! concurrently with a publication today; the ordering below is what a
//! concurrent reader would need, and the `demand_publish` model keeps
//! checking it. The statistics engine owns the authoritative HistSim
//! demand and publishes snapshots here.
//! Freshness is deliberately relaxed: a window marked under a snapshot
//! that has since moved only delivers extra valid samples.
//!
//! ## Publication ordering
//!
//! Each publication is a *complete* snapshot: per-candidate `remaining`
//! is stored first, the mode second, and the `epoch` counter is bumped
//! **last**, exactly once, with release ordering. A reader that parks on
//! the epoch and wakes on a new value therefore always observes the full
//! publication that bumped it — never a fresh epoch paired with a stale
//! mode or stale demand. (The original protocol bumped the epoch once in
//! `set_mode` and once in a separate `publish_remaining`, so a worker
//! woken by the first bump could act on a half-published snapshot —
//! re-reading an entire pass under a stale `ReadAll`, or seeing
//! `AnyActive` with the previous round's counts. The regression test in
//! `tests/demand_ordering.rs` fails under that ordering.)
//!
//! ## Full and deactivation publications
//!
//! Readers act on the *sign* of each count only (AnyActive asks "is
//! `remaining > 0`?"), so a publisher need not resend every count each
//! time. A **full** publication ([`SharedDemand::publish`]) stores all
//! of them; a **deactivation** publication
//! ([`SharedDemand::publish_deactivations`]) stores 0 for just the
//! candidates whose demand ran out since the previous one, and costs
//! what the demand changed, not |V_Z|. Within a phase (a stage, or one
//! stage-2 round) demand only falls, so deactivations keep the sign of
//! every published count equal to HistSim's. Demand rises only when a
//! phase or round completes, and [`needs_full_publication`] makes the
//! publication after that, like the first one, full. Both kinds follow
//! [`PUBLISH_ORDER`] with one epoch bump. Between full publications a
//! published non-zero count is stale in magnitude; only its sign is
//! exact.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

use fastmatch_core::histsim::PhaseKind;

/// Demand mode published to the walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DemandMode {
    /// Read every unread block (stage 1 and exact fallback).
    ReadAll,
    /// Apply AnyActive selection with the published per-candidate demand.
    AnyActive,
    /// The run is over; the walk hands out nothing more.
    Stop,
}

/// One primitive store of a demand publication. [`SharedDemand::publish`]
/// executes these in exactly the order of [`PUBLISH_ORDER`]; the
/// `demand_publish` model in `fastmatch-check` enumerates interleavings
/// of the same actions against parked and polling readers, so the order
/// here and the order the model checks cannot drift apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PublishAction {
    /// Store every per-candidate `remaining` count (relaxed; the later
    /// release store orders them for readers).
    StoreRemaining,
    /// Store the mode flag (release, so mode-polling readers also see
    /// the demand published with or before the mode they read).
    StoreMode,
    /// Bump the epoch counter once, with release ordering — the *only*
    /// bump of the publication, and always the final action.
    BumpEpoch,
}

/// The load-bearing publication order: `remaining → mode → epoch`, one
/// epoch bump per publication, last. Checked by `fastmatch-check`'s
/// `demand_publish` model (invariants `wake-sees-complete-mode`,
/// `wake-sees-complete-demand`, `mode-implies-demand`,
/// `one-bump-per-publish`); the historical PR-2 two-bump ordering is
/// kept there as a mutation and demonstrably violates them.
pub const PUBLISH_ORDER: [PublishAction; 3] = [
    PublishAction::StoreRemaining,
    PublishAction::StoreMode,
    PublishAction::BumpEpoch,
];

/// Encodes a [`DemandMode`] into its published `u8` representation.
/// Extracted (with [`decode_mode`]) so the model and the real snapshot
/// agree on the wire form by construction.
pub const fn encode_mode(mode: DemandMode) -> u8 {
    match mode {
        DemandMode::ReadAll => 0,
        DemandMode::AnyActive => 1,
        DemandMode::Stop => 2,
    }
}

/// Decodes a published `u8` back into its [`DemandMode`]. Unknown values
/// decode to `Stop`: a reader confronted with a representation it does
/// not understand must wind down, never spin.
pub const fn decode_mode(v: u8) -> DemandMode {
    match v {
        0 => DemandMode::ReadAll,
        1 => DemandMode::AnyActive,
        _ => DemandMode::Stop,
    }
}

/// Whether the next publication must store every per-candidate count
/// (`true`) or may store 0 for the candidates deactivated since the last
/// one (`false`): full after the state machine `stepped` over a phase or
/// stage-2 round boundary, and whenever the `phase` differs from the one
/// last published (`None` before the first publication). Those are the
/// only points where demand can rise. Extracted so the `demand_publish`
/// model in `fastmatch-check` decides with the same function.
pub fn needs_full_publication(
    stepped: bool,
    last_published_phase: Option<PhaseKind>,
    phase: PhaseKind,
) -> bool {
    stepped || last_published_phase != Some(phase)
}

/// Shared demand snapshot: a mode flag plus per-candidate outstanding
/// sample counts (0 ⇒ inactive; see the module docs for why only the
/// sign is exact between full publications).
#[derive(Debug)]
pub struct SharedDemand {
    mode: AtomicU8,
    epoch: AtomicU64,
    remaining: Vec<AtomicU64>,
}

impl SharedDemand {
    /// Creates the snapshot in `ReadAll` mode with zero demand.
    pub fn new(num_candidates: usize) -> Self {
        SharedDemand {
            mode: AtomicU8::new(0),
            epoch: AtomicU64::new(0),
            remaining: (0..num_candidates).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Publishes one complete demand snapshot: the per-candidate
    /// `remaining` counts (when the mode uses them), then the mode, then a
    /// **single** release-ordered epoch bump. Readers woken by the new
    /// epoch are guaranteed to see the whole snapshot; see the module
    /// docs for why the order is load-bearing.
    ///
    /// # Panics
    /// Panics — in every build profile — unless `remaining` has one count
    /// per candidate. A short slice would otherwise leave the counts past
    /// its end at their old values, stale demand readers go on acting on.
    pub fn publish(&self, mode: DemandMode, remaining: Option<&[u64]>) {
        if let Some(rem) = remaining {
            assert_eq!(
                rem.len(),
                self.remaining.len(),
                "published demand must cover every candidate"
            );
        }
        self.publish_with(mode, |slots| {
            for (slot, &v) in slots.iter().zip(remaining.unwrap_or_default()) {
                slot.store(v, Ordering::Relaxed);
            }
        });
    }

    /// Publishes a deactivation snapshot: stores 0 for each candidate of
    /// `deactivated`, leaving every other count as last published, then
    /// the mode, then one epoch bump — [`PUBLISH_ORDER`] as for
    /// [`Self::publish`]. Keeps the published active set exact when
    /// `deactivated` lists every candidate whose demand ran out since the
    /// previous publication and demand has not risen since the last full
    /// one (see [`needs_full_publication`]).
    ///
    /// # Panics
    /// Panics if a listed candidate is out of range.
    pub fn publish_deactivations(&self, mode: DemandMode, deactivated: &[u32]) {
        self.publish_with(mode, |slots| {
            for &c in deactivated {
                slots[c as usize].store(0, Ordering::Relaxed);
            }
        });
    }

    /// Runs [`PUBLISH_ORDER`], storing the counts with `store_remaining`.
    fn publish_with(&self, mode: DemandMode, store_remaining: impl Fn(&[AtomicU64])) {
        for action in PUBLISH_ORDER {
            match action {
                PublishAction::StoreRemaining => store_remaining(&self.remaining),
                // Release on the mode store so even readers that poll
                // `mode()` without touching the epoch observe the demand
                // published with (or before) the mode they see.
                PublishAction::StoreMode => self.mode.store(encode_mode(mode), Ordering::Release),
                PublishAction::BumpEpoch => {
                    self.epoch.fetch_add(1, Ordering::Release);
                }
            }
        }
    }

    /// Publishes a mode-only snapshot (`ReadAll` / `Stop`), leaving the
    /// per-candidate counts untouched.
    pub fn set_mode(&self, mode: DemandMode) {
        self.publish(mode, None);
    }

    /// Monotone counter bumped exactly once per publication; lets an idle
    /// reader wait for *new* demand instead of re-scanning unchanged
    /// state.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Reads the current mode.
    pub fn mode(&self) -> DemandMode {
        decode_mode(self.mode.load(Ordering::Acquire))
    }

    /// Whether candidate `c` is currently active (possibly stale).
    #[inline]
    pub fn is_active(&self, c: usize) -> bool {
        self.remaining[c].load(Ordering::Relaxed) > 0
    }

    /// The published outstanding count for candidate `c` (possibly
    /// stale). Between full publications it is exact only in sign: a
    /// deactivation publication zeroes a count, but nothing lowers a
    /// non-zero one until the next full publication.
    #[inline]
    pub fn remaining(&self, c: usize) -> u64 {
        self.remaining[c].load(Ordering::Relaxed)
    }

    /// Overwrites `out` with a snapshot of the active candidate ids
    /// (taken per lookahead window, into the walk's reused buffer).
    pub fn active_into(&self, out: &mut Vec<u32>) {
        out.clear();
        let active = self.remaining.iter().enumerate();
        out.extend(
            active
                .filter(|(_, r)| r.load(Ordering::Relaxed) > 0)
                .map(|(c, _)| c as u32),
        );
    }

    /// Number of candidates tracked.
    pub fn len(&self) -> usize {
        self.remaining.len()
    }

    /// Whether the snapshot tracks no candidates.
    pub fn is_empty(&self) -> bool {
        self.remaining.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_order_ends_with_a_single_bump() {
        // The model checks interleavings of this exact order; the real
        // protocol's side of the contract is that the bump is unique and
        // final.
        let bumps = PUBLISH_ORDER
            .iter()
            .filter(|a| **a == PublishAction::BumpEpoch)
            .count();
        assert_eq!(bumps, 1);
        assert_eq!(*PUBLISH_ORDER.last().unwrap(), PublishAction::BumpEpoch);
    }

    #[test]
    fn mode_codec_roundtrips() {
        for m in [DemandMode::ReadAll, DemandMode::AnyActive, DemandMode::Stop] {
            assert_eq!(decode_mode(encode_mode(m)), m);
        }
        // Unknown representations decode to Stop, never to a live mode.
        assert_eq!(decode_mode(7), DemandMode::Stop);
    }

    #[test]
    fn mode_roundtrip() {
        let s = SharedDemand::new(3);
        assert_eq!(s.mode(), DemandMode::ReadAll);
        s.set_mode(DemandMode::AnyActive);
        assert_eq!(s.mode(), DemandMode::AnyActive);
        s.set_mode(DemandMode::Stop);
        assert_eq!(s.mode(), DemandMode::Stop);
    }

    #[test]
    fn demand_publication() {
        let s = SharedDemand::new(4);
        let mut active = vec![9];
        s.active_into(&mut active);
        assert!(active.is_empty());
        s.publish(DemandMode::AnyActive, Some(&[0, 5, 0, 2]));
        assert!(!s.is_active(0));
        assert!(s.is_active(1));
        assert_eq!(s.remaining(1), 5);
        s.active_into(&mut active);
        assert_eq!(active, vec![1, 3]);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn each_publication_bumps_epoch_once() {
        let s = SharedDemand::new(2);
        let e0 = s.epoch();
        s.publish(DemandMode::AnyActive, Some(&[1, 2]));
        assert_eq!(s.epoch(), e0 + 1);
        s.set_mode(DemandMode::ReadAll);
        assert_eq!(s.epoch(), e0 + 2);
        s.publish_deactivations(DemandMode::AnyActive, &[]);
        assert_eq!(s.epoch(), e0 + 3);
    }

    #[test]
    fn deactivation_publication_zeroes_only_the_listed_counts() {
        let s = SharedDemand::new(4);
        s.publish(DemandMode::AnyActive, Some(&[3, 5, 0, 2]));
        s.publish_deactivations(DemandMode::AnyActive, &[3, 2]);
        let counts: Vec<u64> = (0..4).map(|c| s.remaining(c)).collect();
        assert_eq!(counts, vec![3, 5, 0, 0]);
        assert_eq!(s.mode(), DemandMode::AnyActive);
    }

    #[test]
    fn full_publication_after_any_step_or_phase_change() {
        use PhaseKind::*;
        assert!(needs_full_publication(false, None, Stage1), "first");
        assert!(needs_full_publication(true, Some(Stage2), Stage2), "round");
        assert!(needs_full_publication(false, Some(Stage2), Stage3));
        assert!(!needs_full_publication(false, Some(Stage2), Stage2));
        assert!(!needs_full_publication(false, Some(Stage3), Stage3));
    }

    /// Must fire in release builds too; CI also runs it with `--release`.
    #[test]
    #[should_panic(expected = "published demand must cover every candidate")]
    fn short_demand_slice_panics_in_all_builds() {
        let s = SharedDemand::new(3);
        s.publish(DemandMode::AnyActive, Some(&[1, 2]));
    }

    #[test]
    fn cross_thread_visibility() {
        use std::sync::Arc;
        let s = Arc::new(SharedDemand::new(2));
        let s2 = Arc::clone(&s);
        let h = std::thread::spawn(move || {
            s2.publish(DemandMode::AnyActive, Some(&[7, 0]));
        });
        h.join().unwrap();
        assert_eq!(s.mode(), DemandMode::AnyActive);
        assert!(s.is_active(0));
    }
}
