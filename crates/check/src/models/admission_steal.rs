//! Model of the service's scheduler ([`fastmatch_engine::service`]):
//! admission, per-worker run queues with stealing, and shard parking.
//!
//! A submitter reserves one admission slot per query
//! ([`admission_has_capacity`]) and enqueues its shard tasks one by one,
//! notifying the worker condvar. Workers pop-or-wait atomically, scanning
//! queues in [`queue_scan_order`]. A popped task runs one quantum as
//! `run_quantum` does: it merges a block (a demand publication, then
//! `wake_query`), finds its shard exhausted, or ends a pass with nothing
//! readable under the epoch the pass began at. Of a shard's blocks the
//! *stale* ones become readable only once the stuck valve republishes.
//! Parking is decided by [`all_shards_parked`] where the service decides
//! it: in `Scheduler::park`, after re-checking the epoch under the queue
//! lock, and in `retire`, after shrinking the live set; either sends the
//! worker to the valve, which republishes and wakes the query. Shutdown
//! unparks and wakes everyone and cancels every later quantum. Named
//! invariants (DESIGN.md § "Concurrency protocols"):
//!
//! * `admission-bounded` — admitted queries never exceed the bound.
//! * `no-lost-wakeup` — at quiescence every task has retired.
//! * `shutdown-drains-all-queues` — after shutdown, quiescence means
//!   empty queues, exited workers and no admitted query.
//! * `all-parked-implies-wake` — an all-parked query has a worker on its
//!   way to the valve.
//! * `no-all-parked-deadlock` — no task is parked at quiescence.
//! * `exact-finish-only-when-exhausted` — short of shutdown, a query
//!   finishes only with every block of every shard merged.
//!
//! `AdmissionSteal::without_retire_recheck` is the historical
//! anonymous-tally deadlock in the service's form: a shard that retires
//! after its sibling parked leaves exactly the parked set live, and
//! nobody wakes it (`finds_pr2_anonymous_park_tally_deadlock`).
//! [`AdmissionSteal::with_notify_one`] passes exhaustively beside the
//! production `notify_all`, because every worker scans every queue
//! (`notify_one_with_stealing_is_safe`).

use std::collections::VecDeque;

use fastmatch_engine::service::{admission_has_capacity, all_shards_parked, queue_scan_order};

use crate::explorer::{Model, Step, Violation};

/// Worker lifecycle. The variants after `Running` are the tail of one
/// quantum, each a separate lock acquisition in the real code.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Worker {
    Idle,
    Waiting,
    /// Exited after a shutdown drain.
    Exited,
    /// Holding task `.0`, its quantum not yet run.
    Running(u8),
    /// Task `.0` merged a block: `wake_query` is due, then the task
    /// retires if its shard is exhausted (`.1`) or requeues.
    Merged(u8, bool),
    Requeue(u8),
    /// Task `.0` found nothing readable in a pass begun at epoch `.1`.
    Park(u8, u8),
    Retire(u8),
    /// A retire shrank query `.0`'s live set: the re-check is due.
    Recheck(u8),
    /// Query `.0`'s whole live set is parked: the stuck valve is due.
    Valve(u8),
}

/// Task lifecycle, for the invariants (`Runnable`: queued or held).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Task {
    Unsubmitted,
    Runnable,
    Parked,
    Done,
}

/// One query's demand epoch and what its engine mutex guards.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
struct Query {
    /// Bumped by every merge and every valve republication.
    epoch: u8,
    /// The valve has republished: stale blocks are readable.
    escalated: bool,
    /// Shards not yet retired (`live_shards`).
    live: u8,
    /// Blocks merged into the query's `Driver`.
    merged: u8,
}

/// Full protocol state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct State {
    queues: Vec<VecDeque<u8>>,
    workers: Vec<Worker>,
    /// Per task: blocks not yet read.
    blocks: Vec<u8>,
    tasks: Vec<Task>,
    queries: Vec<Query>,
    /// Admitted-and-unresolved queries (the CAS-guarded counter).
    active: u8,
    /// Next task the submitter will enqueue.
    submitted: usize,
    shutdown: bool,
}

/// The scheduler model. Defaults mirror production: `notify_all`, the
/// retire-time re-check, a shutdown at the end.
#[derive(Debug)]
pub struct AdmissionSteal {
    workers: usize,
    /// Per task, in admission order: its query, its blocks and how many
    /// of them are stale (read last). Task `t`'s home queue is
    /// `t % workers`, the real round-robin over enqueued shards.
    tasks: Vec<(usize, u8, u8)>,
    /// Admission bound.
    limit: u8,
    notify_all: bool,
    with_shutdown: bool,
    retire_recheck: bool,
}

impl AdmissionSteal {
    /// The production configuration over `queries`, each a list of
    /// shards given as (useful, stale) block counts.
    pub fn new(workers: usize, queries: Vec<Vec<(u8, u8)>>, limit: u8) -> Self {
        let shards = queries.into_iter().enumerate();
        let tasks =
            shards.flat_map(|(q, shards)| shards.into_iter().map(move |(u, s)| (q, u + s, s)));
        AdmissionSteal {
            workers,
            tasks: tasks.collect(),
            limit,
            notify_all: true,
            with_shutdown: true,
            retire_recheck: true,
        }
    }

    /// Replaces the enqueue-side `notify_all` with `notify_one` (the
    /// alternative the model clears now that any woken worker can run
    /// any queued task).
    pub fn with_notify_one(mut self) -> Self {
        self.notify_all = false;
        self
    }

    /// Removes the shutdown actor, which would mask a lost wakeup or a
    /// stranded parked task by waking everyone.
    pub fn without_shutdown(mut self) -> Self {
        self.with_shutdown = false;
        self
    }

    /// The historical deadlock in the service's form: `retire` shrinks
    /// the live set without re-checking whether the rest is all parked.
    #[cfg(test)]
    pub fn without_retire_recheck(mut self) -> Self {
        self.retire_recheck = false;
        self
    }

    /// Whether task `t` is its query's first shard (admission's turn).
    fn first_shard(&self, t: usize) -> bool {
        t == 0 || self.tasks[t - 1].0 != self.tasks[t].0
    }

    /// The tasks (shards) of query `q`.
    fn shards(&self, q: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.tasks.len()).filter(move |&t| self.tasks[t].0 == q)
    }

    /// What `Scheduler::park` and `Scheduler::all_parked` decide.
    fn all_parked(&self, s: &State, q: usize) -> bool {
        let parked = self.shards(q).filter(|&t| s.tasks[t] == Task::Parked);
        all_shards_parked(parked.count(), s.queries[q].live as usize)
    }

    /// Notify variants for an enqueue step: one step under `notify_all`;
    /// under `notify_one`, one per waiter it may wake (step id
    /// `1 + waiter`).
    fn notify_variants(&self, s: &State, actor: usize, what: &str) -> Vec<Step> {
        let waiting = |&w: &usize| s.workers[w] == Worker::Waiting;
        let waiters: Vec<usize> = (0..self.workers).filter(waiting).collect();
        if self.notify_all || waiters.is_empty() {
            vec![Step::new(actor, 0, format!("{what}, notify-all"))]
        } else {
            let one = |w| Step::new(actor, 1 + w, format!("{what}, notify-one wakes w{w}"));
            waiters.into_iter().map(one).collect()
        }
    }

    /// Applies the notify encoded in step id `id`.
    fn apply_notify(&self, n: &mut State, id: usize) {
        if id == 0 {
            wake_all(n);
        } else {
            n.workers[id - 1] = Worker::Idle;
        }
    }

    fn enqueue(&self, n: &mut State, t: usize) {
        n.tasks[t] = Task::Runnable;
        n.queues[t % self.workers].push_back(t as u8);
    }

    /// `Scheduler::wake_query`: `q`'s parked tasks requeued, `notify_all`.
    fn wake_query(&self, n: &mut State, q: usize) {
        for t in self.shards(q) {
            if n.tasks[t] == Task::Parked {
                self.enqueue(n, t);
            }
        }
        wake_all(n);
    }

    fn step_worker(&self, s: &State, n: &mut State, w: usize, id: usize) {
        n.workers[w] = Worker::Idle;
        match s.workers[w] {
            Worker::Idle => {
                // Atomic pop-or-wait under the queue mutex, in scan order.
                let hit = queue_scan_order(w, self.workers).find(|&q| !s.queues[q].is_empty());
                n.workers[w] = match hit {
                    Some(q) => Worker::Running(n.queues[q].pop_front().expect("scan hit")),
                    None if s.shutdown => Worker::Exited,
                    None => Worker::Waiting,
                };
            }
            Worker::Running(t) => {
                let (q, _, stale) = self.tasks[t as usize];
                let (query, left) = (&mut n.queries[q], &mut n.blocks[t as usize]);
                n.workers[w] = if s.shutdown || *left == 0 {
                    Worker::Retire(t)
                } else if *left > stale || query.escalated {
                    *left -= 1;
                    query.merged += 1;
                    query.epoch += 1;
                    Worker::Merged(t, *left == 0)
                } else {
                    Worker::Park(t, query.epoch)
                };
            }
            Worker::Merged(t, exhausted) => {
                self.wake_query(n, self.tasks[t as usize].0);
                n.workers[w] = if exhausted {
                    Worker::Retire(t)
                } else {
                    Worker::Requeue(t)
                };
            }
            Worker::Requeue(t) => {
                self.enqueue(n, t as usize);
                self.apply_notify(n, id);
            }
            Worker::Park(t, epoch) => {
                let q = self.tasks[t as usize].0;
                if s.shutdown || s.queries[q].epoch != epoch {
                    // The wake this park would wait for has happened.
                    self.enqueue(n, t as usize);
                    wake_all(n);
                } else {
                    n.tasks[t as usize] = Task::Parked;
                    if self.all_parked(n, q) {
                        n.workers[w] = Worker::Valve(q as u8);
                    }
                }
            }
            Worker::Retire(t) => {
                let q = self.tasks[t as usize].0;
                n.tasks[t as usize] = Task::Done;
                n.queries[q].live -= 1;
                if n.queries[q].live == 0 {
                    n.active -= 1; // the outcome is published
                } else if self.retire_recheck {
                    n.workers[w] = Worker::Recheck(q as u8);
                }
            }
            Worker::Recheck(q) => {
                if self.all_parked(s, q as usize) {
                    n.workers[w] = Worker::Valve(q);
                }
            }
            Worker::Valve(q) => {
                if !s.shutdown {
                    n.queries[q as usize].epoch += 1;
                    n.queries[q as usize].escalated = true;
                }
                self.wake_query(n, q as usize);
            }
            Worker::Waiting | Worker::Exited => unreachable!("step of a blocked worker"),
        }
    }
}

/// Every waiting worker back to `Idle` (a `notify_all`).
fn wake_all(n: &mut State) {
    for w in n.workers.iter_mut().filter(|w| **w == Worker::Waiting) {
        *w = Worker::Idle;
    }
}

impl Model for AdmissionSteal {
    type State = State;

    fn name(&self) -> &'static str {
        "admission_steal"
    }

    fn initial(&self) -> State {
        let mut queries = vec![Query::default(); self.tasks.last().map_or(0, |&(q, ..)| q + 1)];
        for &(q, ..) in &self.tasks {
            queries[q].live += 1;
        }
        State {
            queues: vec![VecDeque::new(); self.workers],
            workers: vec![Worker::Idle; self.workers],
            blocks: self.tasks.iter().map(|&(_, blocks, _)| blocks).collect(),
            tasks: vec![Task::Unsubmitted; self.tasks.len()],
            queries,
            active: 0,
            submitted: 0,
            shutdown: false,
        }
    }

    fn enabled(&self, s: &State) -> Vec<Step> {
        let mut steps = Vec::new();
        for (w, worker) in s.workers.iter().enumerate() {
            let label = match *worker {
                Worker::Idle => "pop-or-wait".to_string(),
                Worker::Running(t) => format!("t{t}: run a quantum"),
                Worker::Merged(t, _) => format!("t{t}: merged, wake its query"),
                Worker::Requeue(t) => {
                    steps.extend(self.notify_variants(s, w, &format!("requeue t{t}")));
                    continue;
                }
                Worker::Park(t, e) => format!("park t{t} (fruitless pass from e{e})"),
                Worker::Retire(t) => format!("retire t{t}"),
                Worker::Recheck(q) => format!("q{q}: all-parked re-check"),
                Worker::Valve(q) => format!("q{q}: stuck valve republishes, wakes"),
                Worker::Waiting | Worker::Exited => continue,
            };
            steps.push(Step::new(w, 0, label));
        }
        let t = s.submitted;
        if t < self.tasks.len()
            && !s.shutdown
            && (!self.first_shard(t)
                || admission_has_capacity(s.active as usize, self.limit as usize))
        {
            let what = format!("admit t{t} (q{})", self.tasks[t].0);
            steps.extend(self.notify_variants(s, self.workers, &what)); // the submitter
        }
        if self.with_shutdown && !s.shutdown && s.submitted == self.tasks.len() {
            let label = "shutdown, unpark all, notify-all";
            steps.push(Step::new(self.workers + 1, 0, label));
        }
        steps
    }

    fn apply(&self, s: &State, step: &Step) -> State {
        let mut n = s.clone();
        if step.actor < self.workers {
            self.step_worker(s, &mut n, step.actor, step.id);
        } else if step.actor == self.workers {
            let t = s.submitted;
            if self.first_shard(t) {
                n.active += 1; // the query's slot
            }
            n.submitted += 1;
            self.enqueue(&mut n, t);
            self.apply_notify(&mut n, step.id);
        } else {
            n.shutdown = true;
            for q in 0..n.queries.len() {
                self.wake_query(&mut n, q);
            }
        }
        n
    }

    fn check(&self, s: &State) -> Result<(), Violation> {
        if s.active > self.limit {
            return Err(Violation::new(
                "admission-bounded",
                format!(
                    "{} queries admitted past the bound of {}",
                    s.active, self.limit
                ),
            ));
        }
        for (q, query) in s.queries.iter().enumerate() {
            let owed =
                |w: &Worker| matches!(*w, Worker::Recheck(p) | Worker::Valve(p) if p as usize == q);
            if self.all_parked(s, q) && !s.workers.iter().any(owed) {
                return Err(Violation::new(
                    "all-parked-implies-wake",
                    format!("every live shard of q{q} is parked and no worker owes it a wake"),
                ));
            }
            let total: u8 = self.shards(q).map(|t| self.tasks[t].1).sum();
            if query.live == 0 && !s.shutdown && query.merged != total {
                return Err(Violation::new(
                    "exact-finish-only-when-exhausted",
                    format!("q{q} finished with {}/{total} blocks merged", query.merged),
                ));
            }
        }
        Ok(())
    }

    fn check_quiescent(&self, s: &State) -> Result<(), Violation> {
        if let Some(t) = s.tasks.iter().position(|&t| t == Task::Parked) {
            return Err(Violation::new(
                "no-all-parked-deadlock",
                format!("task t{t} is parked at quiescence — nobody is left to wake it"),
            ));
        }
        if let Some(t) = s.tasks.iter().position(|&t| t != Task::Done) {
            return Err(Violation::new(
                "no-lost-wakeup",
                format!(
                    "task t{t} is {:?} at quiescence with workers {:?} — nobody will run it",
                    s.tasks[t], s.workers
                ),
            ));
        }
        if s.shutdown {
            let stranded = s.queues.iter().map(VecDeque::len).sum::<usize>();
            if stranded > 0
                || s.active > 0
                || !s.workers.iter().all(|w| matches!(w, Worker::Exited))
            {
                return Err(Violation::new(
                    "shutdown-drains-all-queues",
                    format!(
                        "after shutdown: {stranded} queued, {} active, workers {:?}",
                        s.active, s.workers
                    ),
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::{Explorer, Failure};

    /// One-shard queries of `quanta` blocks each, none of them parking.
    fn one_shard(quanta: &[u8]) -> Vec<Vec<(u8, u8)>> {
        quanta.iter().map(|&u| vec![(u, 0)]).collect()
    }

    /// The minimal historical scenario: shard 0 is empty (it exhausts at
    /// once), shard 1's one block is stale (it parks first).
    fn historical_query() -> Vec<Vec<(u8, u8)>> {
        vec![vec![(0, 0), (0, 1)]]
    }

    #[test]
    fn production_config_is_clean() {
        // Two workers, three queries (one multi-quantum), admission bound
        // of two: submits must wait for retirements, stealing and
        // notify_all keep everything live, shutdown drains.
        let stats = Explorer::new(AdmissionSteal::new(2, one_shard(&[1, 2, 1]), 2))
            .explore()
            .unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(stats.truncated, 0, "scope must be fully explored");
        assert!(stats.quiescent >= 1);
    }

    #[test]
    fn current_protocol_has_no_parked_deadlock() {
        // Parking shards: one query with a worker per shard (the
        // `ParallelMatch` configuration), then beside a second query;
        // run to the exact finish, and cut short by shutdown.
        for (workers, queries, limit) in [
            (2, historical_query(), 1),
            (2, vec![vec![(1, 1), (0, 1)]], 1),
            (3, vec![vec![(0, 1), (0, 1), (1, 0)]], 1),
            (2, vec![vec![(0, 0), (0, 1)], vec![(1, 0)]], 2),
        ] {
            for with_shutdown in [false, true] {
                let mut model = AdmissionSteal::new(workers, queries.clone(), limit);
                model.with_shutdown = with_shutdown;
                let stats = Explorer::new(model)
                    .explore()
                    .unwrap_or_else(|f| panic!("{f}"));
                assert_eq!(stats.truncated, 0, "scope must be fully explored");
                assert!(stats.quiescent >= 1);
            }
        }
    }

    /// `failure` is the stranded parked shard, on a schedule that parks
    /// shard 1 before shard 0 retires.
    fn assert_stranded_after_retire(failure: &Failure) {
        // Two lenses on one bug, safety and liveness; which one the
        // search trips first depends on visit order.
        assert!(
            ["all-parked-implies-wake", "no-all-parked-deadlock"]
                .contains(&failure.violation.invariant),
            "unexpected invariant: {}",
            failure.violation
        );
        let at = |p: &str| failure.trace.iter().position(|s| s.label.starts_with(p));
        assert!(
            matches!((at("park t1"), at("retire t0")), (Some(p), Some(r)) if p < r),
            "the failing schedule must retire a shard after its sibling parked:\n{failure}"
        );
    }

    #[test]
    fn finds_pr2_anonymous_park_tally_deadlock() {
        let mutant = || {
            AdmissionSteal::new(2, historical_query(), 1)
                .without_shutdown()
                .without_retire_recheck()
        };
        let failure = Explorer::new(mutant()).explore().expect_err("exhaustive");
        assert_stranded_after_retire(&failure);
        let failure = Explorer::new(mutant())
            .walk(0x9a12_77e1, 500)
            .expect_err("walk");
        assert_stranded_after_retire(&failure);
    }

    #[test]
    fn notify_one_with_stealing_is_safe() {
        // Any woken worker can steal, so no wakeup is lost — the model
        // clears the alternative before we keep paying for notify_all.
        let model = AdmissionSteal::new(2, one_shard(&[1, 2]), 2)
            .with_notify_one()
            .without_shutdown();
        Explorer::new(model)
            .explore()
            .unwrap_or_else(|f| panic!("{f}"));
    }

    #[test]
    fn shutdown_drains_queued_tasks() {
        // Shutdown can fire while tasks are still queued or mid-quantum;
        // every interleaving must end drained, exited and slot-balanced.
        let stats = Explorer::new(AdmissionSteal::new(2, one_shard(&[2, 1]), 2))
            .explore()
            .unwrap_or_else(|f| panic!("{f}"));
        assert!(stats.quiescent >= 1);
    }

    #[test]
    fn walk_mode_agrees_with_exhaustion() {
        // The production scope, and the notify_one alternative exhaustion
        // clears.
        for model in [
            AdmissionSteal::new(2, one_shard(&[1, 2, 1]), 2),
            AdmissionSteal::new(2, one_shard(&[1, 2]), 2)
                .with_notify_one()
                .without_shutdown(),
        ] {
            let stats = Explorer::new(model)
                .walk(0x5c4e_d001, 500)
                .unwrap_or_else(|f| panic!("{f}"));
            assert_eq!(stats.schedules, 500);
        }
    }

    #[test]
    fn parking_walk_agrees_with_exhaustion() {
        // The parking scopes `current_protocol_has_no_parked_deadlock`
        // clears, walked; the mutant walk is in the detector above.
        for queries in [historical_query(), vec![vec![(1, 1), (0, 1)]]] {
            let stats = Explorer::new(AdmissionSteal::new(2, queries, 1).without_shutdown())
                .walk(0x9a12_77e1, 500)
                .unwrap_or_else(|f| panic!("{f}"));
            assert_eq!(stats.schedules, 500);
        }
    }
}
