//! Service internals: query tasks and the scheduler.
//!
//! One admitted query is one [`QueryTask`]: it owns the query's driver
//! (the statistics engine), the [`ShardWalk`] that keeps its place in
//! the shared backend's block range, and the [`BlockReader`] that
//! accounts its I/O. Tasks are the scheduler's unit of work: each worker
//! pops FIFO from its own ready queue (stealing from a sibling's queue
//! when its own runs dry), runs one bounded ingestion quantum, and
//! requeues the task at its home queue's tail — so concurrent queries
//! interleave at quantum granularity over one pool instead of each
//! spawning its own threads. A task is in exactly one place at a time,
//! a ready queue or the worker running its quantum, so nothing in it
//! needs a lock, and *which* worker runs a quantum is immaterial.
//!
//! Lock order (strict, deadlock-free): the scheduler's queue mutex and
//! a query's handle mutex ([`super::handle::QueryShared`]) are never
//! held together. `fastmatch-lint`'s `lock_order` check extracts this
//! graph from the source on every CI push
//! (`crates/lint/LOCK_ORDER.dot`).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use fastmatch_store::io::BlockReader;

use crate::exec::driver::Driver;
use crate::exec::walk::ShardWalk;
use crate::query::QueryJob;
use crate::service::handle::QueryShared;

/// One admitted query: everything its quanta read and write. Owned by
/// exactly one of {a ready queue, a worker} at any time.
#[derive(Debug)]
pub(crate) struct QueryTask<'a> {
    /// The prepared query (holds the backend + bitmap references).
    pub job: QueryJob<'a>,
    /// The statistics engine; the walk marks under its demand, as
    /// FastMatch's does.
    pub driver: Driver,
    /// The multi-pass demand-marked walk over the whole block range,
    /// kept across quanta: each quantum resumes where the last one
    /// stopped.
    pub walk: ShardWalk,
    /// Reader over the job's source; its [`IoStats`] are the query's.
    ///
    /// [`IoStats`]: fastmatch_store::io::IoStats
    pub reader: BlockReader<'a>,
    /// Handle-side shared state (`'static`).
    pub shared: Arc<QueryShared>,
    /// Absolute deadline, if the request set one.
    pub deadline: Option<Instant>,
    /// Home worker queue (round-robin at admission). The task prefers
    /// its home worker — quantum-to-quantum cache affinity — but any
    /// idle worker may steal it.
    pub home: usize,
}

impl QueryTask<'_> {
    /// Whether the query is past its deadline.
    pub fn deadline_expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
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

/// Whether the admission CAS loop may take another slot: `active`
/// admitted-and-not-terminal queries against the configured bound.
/// Shared with the `admission_steal` model's invariant
/// `admission-bounded` — the bound must hold on every interleaving of
/// concurrent submits, which is why the caller retries on CAS failure
/// instead of load-then-increment.
pub fn admission_has_capacity(active: usize, limit: usize) -> bool {
    active < limit
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
    queues: Vec<VecDeque<Box<QueryTask<'a>>>>,
    shutdown: bool,
}

/// The shared scheduler: per-worker FIFO ready queues with
/// work-stealing.
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
    pub fn enqueue(&self, task: Box<QueryTask<'a>>) {
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
    /// requested *and* every queue has drained.
    pub fn pop(&self, worker: usize) -> Option<Box<QueryTask<'a>>> {
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

    /// Requests shutdown and wakes every worker; each queued task's next
    /// quantum cancels its query, and `pop` returns `None` once the
    /// queues drain.
    pub fn shutdown(&self) {
        let mut s = self.state.lock().unwrap();
        s.shutdown = true;
        drop(s);
        self.cv.notify_all();
    }
}
