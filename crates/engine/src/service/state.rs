//! Service internals: per-query state, shard tasks and the scheduler.
//!
//! One admitted query is decomposed into `shards_per_query` *shard
//! tasks*, each owning a disjoint contiguous block range of the shared
//! backend (a [`ShardedBlockReader`]) plus the [`ShardWalk`] that keeps
//! its place in it. Tasks are the scheduler's unit of work: each worker
//! pops FIFO from its own ready queue (stealing from a sibling's queue
//! when its own runs dry), runs one bounded ingestion quantum, and
//! requeues the task at its home queue's tail — so concurrent queries
//! interleave at quantum granularity over one pool instead of each
//! spawning its own threads. Stealing is safe because a task is
//! self-contained: it owns its reader and walk outright and every
//! cross-task effect (ingestion, demand publication) is serialized by the
//! query's engine mutex, so *which* worker runs a quantum is immaterial.
//!
//! A task that completes a full pass over its shard without finding a
//! readable block under the query's current demand snapshot *parks*:
//! it leaves the ready queue and is only re-enqueued when the query's
//! demand epoch changes (a sibling shard ingested, or the stuck valve
//! republished). Parking is what keeps fruitless shards from burning
//! pool capacity that other queries could use.
//!
//! Lock order (strict, deadlock-free): a query's engine mutex may be
//! taken before the scheduler's queue mutex, never after; the handle
//! mutex ([`super::handle::QueryShared`]) may be taken under the
//! engine mutex (progress publication from the quantum loop), never
//! the other way around, and never under the queue mutex.
//! `fastmatch-lint`'s `lock_order` check extracts this graph from the
//! source on every CI push (`crates/lint/LOCK_ORDER.dot`).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use fastmatch_core::error::CoreError;
use fastmatch_store::io::{IoStats, ShardedBlockReader};

use crate::exec::driver::Driver;
use crate::exec::walk::ShardWalk;
use crate::query::QueryJob;
use crate::service::handle::QueryShared;
use crate::shared::SharedDemand;

/// Why a query stopped making progress (set once, under the engine
/// mutex; the *last retiring shard* converts it into the published
/// [`super::QueryOutcome`]).
#[derive(Debug)]
pub(crate) enum Verdict {
    /// HistSim terminated (guarantees met, or exact after exhaustion).
    Completed,
    /// Cancelled by the client or by service shutdown.
    Cancelled,
    /// The deadline expired before termination.
    DeadlineExpired,
    /// The run failed.
    Failed(CoreError),
}

/// The mutable heart of one query: the HistSim driver plus aggregated
/// per-query accounting. Guarded by [`QueryState::engine`].
#[derive(Debug)]
pub(crate) struct EngineState {
    /// The statistics engine; taken (`None`) by the last retiring shard.
    pub driver: Option<Driver>,
    /// I/O attributed to this query so far (flushed from shard readers
    /// at every quantum boundary).
    pub io: IoStats,
    /// Shards not yet retired.
    pub live_shards: usize,
    /// Consecutive all-parked valve rounds without an ingested quantum in
    /// between.
    pub stuck_rounds: u32,
    /// Terminal reason, once known.
    pub verdict: Option<Verdict>,
}

impl EngineState {
    /// Records the terminal reason if none is set yet (first writer
    /// wins: a cancel racing a completion must not overwrite it).
    pub fn set_verdict(&mut self, verdict: Verdict) {
        if self.verdict.is_none() {
            self.verdict = Some(verdict);
        }
    }
}

/// Everything the workers share about one admitted query.
#[derive(Debug)]
pub(crate) struct QueryState<'a> {
    /// Service-assigned id.
    pub id: u64,
    /// The prepared query (holds the backend + bitmap references).
    pub job: QueryJob<'a>,
    /// Demand snapshot published to all of this query's shard tasks —
    /// the same protocol FastMatch's sampling engine follows.
    pub demand: SharedDemand,
    /// Driver + accounting, under the query's engine mutex.
    pub engine: Mutex<EngineState>,
    /// Handle-side shared state (`'static`).
    pub shared: Arc<QueryShared>,
    /// Absolute deadline, if the request set one.
    pub deadline: Option<Instant>,
    /// Mirror of `EngineState::live_shards` readable without the engine
    /// mutex — the scheduler's all-parked check runs under the *queue*
    /// mutex, which by the lock order must not take the engine mutex.
    pub live_shards_hint: AtomicUsize,
}

impl QueryState<'_> {
    /// Whether the query is past its deadline.
    pub fn deadline_expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// One schedulable unit: a shard of one query, with its resumable walk.
/// Owned by exactly one of {ready queue, parked list, a worker}
/// at any time, so none of its fields need locks.
#[derive(Debug)]
pub(crate) struct ShardTask<'a> {
    /// The query this shard belongs to.
    pub query: Arc<QueryState<'a>>,
    /// Reader over this shard's contiguous block range, with per-shard
    /// [`IoStats`].
    pub reader: ShardedBlockReader<'a>,
    /// The multi-pass demand-marked walk over the reader's range, kept
    /// across quanta: each quantum resumes where the last one stopped.
    pub walk: ShardWalk,
    /// The part of `reader.stats()` already charged to the query.
    pub flushed: IoStats,
    /// Home worker queue (round-robin at admission). The task prefers
    /// its home worker — quantum-to-quantum cache affinity — but any
    /// idle worker may steal it.
    pub home: usize,
}

impl<'a> ShardTask<'a> {
    /// Flushes the reader stats accrued since the last flush into the
    /// query's aggregate (caller holds the engine mutex).
    pub fn flush_io(&mut self, eng: &mut EngineState) {
        let stats = self.reader.stats();
        eng.io.merge(stats.since(self.flushed));
        self.flushed = stats;
    }
}

/// The order in which worker `own` of `n` scans the per-worker ready
/// queues: its own queue first, then every sibling queue round-robin
/// from its right neighbor.
///
/// Extracted as a pure function because this scan order *is* the
/// scheduler's liveness contract, shared verbatim with
/// `fastmatch-check`'s `admission_steal` model: every worker serves
/// every queue, so a task re-enqueued after its home worker exited is
/// never stranded (invariant `shutdown-drains-all-queues`) and whichever
/// worker a wakeup reaches can run the task it announces (invariant
/// `no-lost-wakeup`).
pub fn queue_scan_order(own: usize, n: usize) -> impl Iterator<Item = usize> {
    let own = own.min(n.saturating_sub(1));
    (0..n).map(move |off| (own + off) % n)
}

/// Whether a query with `live` still-unretired shards, `parked` of them
/// currently parked, has its *entire* live set parked — the condition
/// that must trigger the stuck valve, after a park and again after a
/// retire shrinks the live set. Shared with the `admission_steal`
/// model (invariants `all-parked-implies-wake`,
/// `no-all-parked-deadlock`); the `live == 0` case is "query already
/// fully retired", where there is nobody left to wake.
pub fn all_shards_parked(parked: usize, live: usize) -> bool {
    live > 0 && parked >= live
}

/// Whether the admission CAS loop may take another slot: `active`
/// admitted-and-not-terminal queries against the configured bound.
/// Shared with the `admission_steal` model's invariant
/// `admission-bounded` — the bound must hold on every interleaving of
/// concurrent submits, which is why the caller retries on CAS failure
/// instead of load-then-increment.
pub fn admission_has_capacity(active: usize, limit: usize) -> bool {
    active < limit
}

/// A parked task. The epoch whose fruitless pass parked it is *not*
/// kept: `wake_query` wakes a query's parked tasks unconditionally on
/// any epoch bump, and the park-vs-requeue decision is made once, under
/// the queue lock, in [`Scheduler::park`].
#[derive(Debug)]
struct ParkedTask<'a> {
    task: ShardTask<'a>,
}

/// Scheduler-level counters, exposed through
/// [`super::QueryService::sched_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Scheduling quanta executed across all workers and queries.
    pub quanta: u64,
    /// Tasks a worker popped from another worker's queue because its
    /// own had run dry.
    pub steals: u64,
}

#[derive(Debug)]
struct SchedState<'a> {
    /// One FIFO ready queue per worker; tasks land on their home queue
    /// and idle workers steal from others when theirs runs dry.
    queues: Vec<VecDeque<ShardTask<'a>>>,
    parked: Vec<ParkedTask<'a>>,
    shutdown: bool,
}

/// The shared scheduler: per-worker FIFO ready queues with
/// work-stealing, and one parked list for the whole service.
#[derive(Debug)]
pub(crate) struct Scheduler<'a> {
    state: Mutex<SchedState<'a>>,
    cv: Condvar,
    quanta: AtomicU64,
    steals: AtomicU64,
}

impl<'a> Scheduler<'a> {
    pub fn new(workers: usize) -> Self {
        Scheduler {
            state: Mutex::new(SchedState {
                queues: (0..workers).map(|_| VecDeque::new()).collect(),
                parked: Vec::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
            quanta: AtomicU64::new(0),
            steals: AtomicU64::new(0),
        }
    }

    /// Whether shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.state.lock().unwrap().shutdown
    }

    /// Counts one executed scheduling quantum.
    pub fn note_quantum(&self) {
        self.quanta.fetch_add(1, Ordering::Relaxed);
    }

    /// Current scheduler counters.
    pub fn stats(&self) -> SchedStats {
        SchedStats {
            quanta: self.quanta.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
        }
    }

    /// Appends a runnable task at its home queue's tail (FIFO ⇒ quanta
    /// of different queries round-robin within a queue).
    pub fn enqueue(&self, task: ShardTask<'a>) {
        let mut s = self.state.lock().unwrap();
        let home = task.home.min(s.queues.len() - 1);
        s.queues[home].push_back(task);
        drop(s);
        // Every worker serves every queue, so whichever one wakes can run
        // this task and `notify_one` would not strand it (the model's
        // `notify_one_with_stealing_is_safe`). `notify_all` stays: it
        // needs no single-consumer argument on the `wakeup` lint's
        // allowlist, and the pool is a handful of threads.
        self.cv.notify_all();
    }

    /// Blocks for worker `worker`'s next runnable task — from its own
    /// queue first, else from the first non-empty queue scanning
    /// round-robin from its right neighbor. `None` once shutdown is
    /// requested *and* every queue has drained (parked tasks are moved
    /// to ready by [`Self::shutdown`], so nothing is stranded).
    pub fn pop(&self, worker: usize) -> Option<ShardTask<'a>> {
        let mut s = self.state.lock().unwrap();
        loop {
            let n = s.queues.len();
            let own = worker.min(n - 1);
            // The scan order is the extracted [`queue_scan_order`] the
            // model checks.
            for q in queue_scan_order(own, n) {
                if let Some(task) = s.queues[q].pop_front() {
                    if q != own && !s.shutdown {
                        self.steals.fetch_add(1, Ordering::Relaxed);
                    }
                    return Some(task);
                }
            }
            if s.shutdown {
                return None;
            }
            s = self.cv.wait(s).unwrap();
        }
    }

    /// Parks a task whose last full pass found nothing readable under
    /// demand epoch `pass_epoch`. If the query's epoch has already moved
    /// on, the task is re-enqueued instead (the wake it would wait for
    /// already happened — checking under the queue lock closes the
    /// lost-wakeup window). Returns `true` when, after parking, every
    /// still-live shard of the query is parked — the caller must then
    /// run the stuck valve.
    pub fn park(&self, task: ShardTask<'a>, pass_epoch: u64) -> bool {
        let query = Arc::clone(&task.query);
        let mut s = self.state.lock().unwrap();
        if s.shutdown || query.demand.epoch() != pass_epoch {
            let home = task.home.min(s.queues.len() - 1);
            s.queues[home].push_back(task);
            drop(s);
            self.cv.notify_all();
            return false;
        }
        s.parked.push(ParkedTask { task });
        let parked = s
            .parked
            .iter()
            .filter(|p| p.task.query.id == query.id)
            .count();
        all_shards_parked(parked, query.live_shards_hint.load(Ordering::Relaxed))
    }

    /// Whether every one of the query's `live` still-unretired shards is
    /// currently parked. Called after a shard retires: the live set
    /// shrinking can make an existing parked set become "all of them",
    /// with no parking transition left to notice it (the historical
    /// stale-tally deadlock, kept as a mutation in the `admission_steal`
    /// model).
    pub fn all_parked(&self, query_id: u64, live: usize) -> bool {
        if live == 0 {
            return false;
        }
        let s = self.state.lock().unwrap();
        let parked = s
            .parked
            .iter()
            .filter(|p| p.task.query.id == query_id)
            .count();
        all_shards_parked(parked, live)
    }

    /// Moves every parked task of `query_id` back to the ready queue
    /// (called after a demand republication for that query — any epoch
    /// bump, ingested quantum or valve, wakes the whole query).
    pub fn wake_query(&self, query_id: u64) {
        let mut s = self.state.lock().unwrap();
        let mut woken = 0usize;
        let mut i = 0;
        while i < s.parked.len() {
            if s.parked[i].task.query.id == query_id {
                let p = s.parked.swap_remove(i);
                let home = p.task.home.min(s.queues.len() - 1);
                s.queues[home].push_back(p.task);
                woken += 1;
            } else {
                i += 1;
            }
        }
        drop(s);
        if woken > 0 {
            self.cv.notify_all();
        }
    }

    /// Requests shutdown: every parked task is made runnable (so workers
    /// retire it as cancelled) and all workers are woken; `pop` returns
    /// `None` once the queues it may serve drain.
    pub fn shutdown(&self) {
        let mut s = self.state.lock().unwrap();
        s.shutdown = true;
        while let Some(p) = s.parked.pop() {
            let home = p.task.home.min(s.queues.len() - 1);
            s.queues[home].push_back(p.task);
        }
        drop(s);
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_shards_parked_tracks_the_live_set() {
        // Nothing live (not admitted yet, or fully retired): nobody to wake.
        assert!(!all_shards_parked(0, 0));
        // Every live shard parked: the stuck valve is due.
        assert!(all_shards_parked(2, 2));
        // One live shard still running: no wake yet.
        assert!(!all_shards_parked(1, 2));
        // The historical deadlock's shape: of two shards one retired
        // (live 2 → 1) after the other parked. The live set is now
        // exactly the parked set, so the retire's re-check must wake it.
        assert!(all_shards_parked(1, 1));
    }
}
