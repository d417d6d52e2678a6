//! Per-query handles: progressive results, cancellation and final
//! outcomes.
//!
//! A [`QueryHandle`] is the client's view of one admitted query. It is
//! `'static` (no borrow of the service, the backend or the bitmap), so a
//! client thread can hold handles, poll [`QueryHandle::progress`] for the
//! current top-k preview and guarantee state, request cooperative
//! cancellation, and block on [`QueryHandle::wait`] for the final
//! [`QueryOutcome`] — all while the service's workers keep multiplexing
//! other queries.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};

use fastmatch_core::error::CoreError;
use fastmatch_core::histsim::PhaseKind;
use fastmatch_store::io::IoStats;

use crate::result::MatchOutput;

/// How much of HistSim's ε–δ contract the current (or final) result
/// carries. Derived from the phase the state machine has reached: each
/// stage *completes* by certifying one more piece of the contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuaranteeState {
    /// Stage 1 in progress: the preview is a raw estimate; rare
    /// candidates have not even been pruned yet.
    None,
    /// Stage 2 in progress: the preview is the current round's matching
    /// set, not yet certified to be the true top-k.
    Separating,
    /// Stage 3 in progress: the matched *set* is certified (Guarantee 1
    /// holds at level δ); member histograms are still being topped up to
    /// the reconstruction bound.
    Separated,
    /// Terminal: both guarantees hold (separation and ε-reconstruction).
    Full,
    /// Terminal: the whole table was consumed — results are exact, which
    /// is strictly stronger than [`GuaranteeState::Full`].
    Exact,
}

impl GuaranteeState {
    /// Maps the state machine's phase (plus the exact-finish flag, once
    /// done) to the guarantee the client may rely on.
    pub(crate) fn from_phase(phase: PhaseKind, exact_finish: bool) -> Self {
        match phase {
            PhaseKind::Stage1 => GuaranteeState::None,
            PhaseKind::Stage2 => GuaranteeState::Separating,
            PhaseKind::Stage3 => GuaranteeState::Separated,
            PhaseKind::Done => {
                if exact_finish {
                    GuaranteeState::Exact
                } else {
                    GuaranteeState::Full
                }
            }
        }
    }
}

/// A progressive snapshot of one running query. `phase`, `guarantee`,
/// `samples` and `io` are refreshed after every ingested quantum;
/// `current_topk` when an ingested quantum completes a phase or a stage-2
/// round (and at completion), since recomputing the preview is a
/// `|V_Z|·|V_X|` pass and its ranking moves materially only there.
#[derive(Debug, Clone)]
pub struct QueryProgress {
    /// The stage the query's state machine is in.
    pub phase: PhaseKind,
    /// The guarantee attached to `current_topk` right now.
    pub guarantee: GuaranteeState,
    /// The best estimate of the top-k (closest first) as of the last
    /// phase or round boundary. Empty until stage 1 completes.
    pub current_topk: Vec<u32>,
    /// Samples ingested so far.
    pub samples: u64,
    /// I/O attributed to this query so far — including its private view
    /// of the *shared* cache (`pages_cache_hit` / `pages_cache_miss`).
    pub io: IoStats,
}

impl QueryProgress {
    pub(crate) fn initial() -> Self {
        QueryProgress {
            phase: PhaseKind::Stage1,
            guarantee: GuaranteeState::None,
            current_topk: Vec::new(),
            samples: 0,
            io: IoStats::default(),
        }
    }
}

/// How one admitted query ended.
#[derive(Debug, Clone)]
pub enum QueryOutcome {
    /// The run terminated through HistSim (guarantee-satisfying, or exact
    /// after consuming the whole table). Per-query I/O attribution is in
    /// `stats.io`.
    Finished(MatchOutput),
    /// The client cancelled the query (or the service shut down first).
    Cancelled,
    /// The query's deadline expired before it finished.
    DeadlineExpired,
    /// The run failed (storage error, phase violation).
    Failed(CoreError),
}

impl QueryOutcome {
    /// The finished output, if the query completed normally.
    pub fn finished(&self) -> Option<&MatchOutput> {
        match self {
            QueryOutcome::Finished(out) => Some(out),
            _ => None,
        }
    }
}

/// Handle-side shared state: cancellation flag, latest progress snapshot
/// and the final outcome, all `'static` so handles outlive the scope that
/// produced them.
#[derive(Debug)]
pub(crate) struct QueryShared {
    id: u64,
    cancel: AtomicBool,
    inner: Mutex<HandleInner>,
    cv: Condvar,
}

#[derive(Debug)]
struct HandleInner {
    progress: QueryProgress,
    outcome: Option<QueryOutcome>,
}

impl QueryShared {
    pub(crate) fn new(id: u64) -> Self {
        QueryShared {
            id,
            cancel: AtomicBool::new(false),
            inner: Mutex::new(HandleInner {
                progress: QueryProgress::initial(),
                outcome: None,
            }),
            cv: Condvar::new(),
        }
    }

    pub(crate) fn cancel_requested(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }

    /// Updates the progressive snapshot; `topk: None` keeps the last
    /// preview.
    pub(crate) fn set_progress(
        &self,
        phase: PhaseKind,
        guarantee: GuaranteeState,
        samples: u64,
        io: IoStats,
        topk: Option<Vec<u32>>,
    ) {
        let mut inner = self.inner.lock().unwrap();
        // Never regress a terminal snapshot (a late quantum's update must
        // not overwrite the outcome-time progress).
        if inner.outcome.is_none() {
            let p = &mut inner.progress;
            (p.phase, p.guarantee, p.samples, p.io) = (phase, guarantee, samples, io);
            if let Some(topk) = topk {
                p.current_topk = topk;
            }
        }
    }

    /// Publishes the terminal outcome. `progress` replaces the snapshot
    /// only for finished queries; for cancelled/expired/failed ones the
    /// last progressive snapshot is kept (it is the client's best-effort
    /// answer) with just its I/O brought up to the final attribution.
    pub(crate) fn publish_outcome(
        &self,
        progress: Option<QueryProgress>,
        final_io: IoStats,
        outcome: QueryOutcome,
    ) {
        let mut inner = self.inner.lock().unwrap();
        debug_assert!(inner.outcome.is_none(), "outcome published twice");
        match progress {
            Some(p) => inner.progress = p,
            None => inner.progress.io = final_io,
        }
        inner.outcome = Some(outcome);
        self.cv.notify_all();
    }
}

/// The client's handle to one admitted query.
#[derive(Debug, Clone)]
pub struct QueryHandle {
    pub(crate) shared: std::sync::Arc<QueryShared>,
}

impl QueryHandle {
    /// The service-assigned query id (unique per service instance).
    pub fn id(&self) -> u64 {
        self.shared.id
    }

    /// The latest progress snapshot (current top-k + guarantee state +
    /// attributed I/O). Cheap: clones one small struct under a mutex.
    pub fn progress(&self) -> QueryProgress {
        self.shared.inner.lock().unwrap().progress.clone()
    }

    /// Requests cooperative cancellation. Workers observe the flag at
    /// their next scheduling quantum; the outcome becomes
    /// [`QueryOutcome::Cancelled`] unless the query terminated first.
    /// Idempotent; never blocks.
    pub fn cancel(&self) {
        self.shared.cancel.store(true, Ordering::Relaxed);
    }

    /// Whether the final outcome is available.
    pub fn is_done(&self) -> bool {
        self.shared.inner.lock().unwrap().outcome.is_some()
    }

    /// The final outcome, if available (non-blocking).
    pub fn try_outcome(&self) -> Option<QueryOutcome> {
        self.shared.inner.lock().unwrap().outcome.clone()
    }

    /// Blocks until the query reaches a terminal state and returns the
    /// outcome.
    pub fn wait(&self) -> QueryOutcome {
        let mut inner = self.shared.inner.lock().unwrap();
        loop {
            if let Some(out) = &inner.outcome {
                return out.clone();
            }
            inner = self.shared.cv.wait(inner).unwrap();
        }
    }
}
