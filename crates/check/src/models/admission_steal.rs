//! Model of the service's scheduler ([`fastmatch_engine::service`]):
//! admission, and per-worker run queues with stealing.
//!
//! A submitter reserves one admission slot per query
//! ([`admission_has_capacity`]) and enqueues the query's one task,
//! notifying the worker condvar. Workers pop-or-wait atomically, scanning
//! queues in [`queue_scan_order`]. A popped task runs one quantum as
//! `run_quantum` does: it ingests a block into the query's driver, which
//! only the worker holding the task touches, and then either publishes
//! the outcome (its walk is exhausted) or requeues the task. After
//! shutdown every quantum publishes the query as cancelled instead.
//! Shutdown wakes every waiting worker. Named invariants (DESIGN.md
//! § "Concurrency protocols"):
//!
//! * `admission-bounded` — admitted queries never exceed the bound.
//! * `no-lost-wakeup` — at quiescence every task has retired.
//! * `shutdown-drains-all-queues` — after shutdown, quiescence means
//!   empty queues, exited workers and no admitted query.
//! * `exact-finish-only-when-exhausted` — short of shutdown, a query
//!   finishes only with every block ingested.
//!
//! [`AdmissionSteal::with_notify_one`] passes exhaustively beside the
//! production `notify_all`, because every worker scans every queue
//! (`notify_one_with_stealing_is_safe`).

use std::collections::VecDeque;

use fastmatch_engine::service::{admission_has_capacity, queue_scan_order};

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
    Requeue(u8),
    /// Task `.0` is over: its outcome is published next.
    Retire(u8),
}

/// Task lifecycle, for the invariants (`Runnable`: queued or held).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Task {
    Unsubmitted,
    Runnable,
    Done,
}

/// Full protocol state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct State {
    queues: Vec<VecDeque<u8>>,
    workers: Vec<Worker>,
    /// Per task: blocks not yet read.
    blocks: Vec<u8>,
    /// Per task: blocks ingested into its query's driver.
    merged: Vec<u8>,
    tasks: Vec<Task>,
    /// Admitted-and-unresolved queries (the CAS-guarded counter).
    active: u8,
    /// Next task the submitter will admit.
    submitted: usize,
    shutdown: bool,
}

/// The scheduler model. Defaults mirror production: `notify_all` and a
/// shutdown at the end.
#[derive(Debug)]
pub struct AdmissionSteal {
    workers: usize,
    /// Per query, in admission order: the blocks its one task reads, a
    /// block a quantum. Task `t`'s home queue is `t % workers`, the real
    /// round-robin over admitted queries.
    tasks: Vec<u8>,
    /// Admission bound.
    limit: u8,
    notify_all: bool,
    with_shutdown: bool,
}

impl AdmissionSteal {
    /// The production configuration over queries of `blocks` blocks
    /// each.
    pub fn new(workers: usize, blocks: &[u8], limit: u8) -> Self {
        AdmissionSteal {
            workers,
            tasks: blocks.to_vec(),
            limit,
            notify_all: true,
            with_shutdown: true,
        }
    }

    /// Replaces the enqueue-side `notify_all` with `notify_one` (the
    /// alternative the model clears now that any woken worker can run
    /// any queued task).
    pub fn with_notify_one(mut self) -> Self {
        self.notify_all = false;
        self
    }

    /// Removes the shutdown actor, which would mask a lost wakeup by
    /// waking everyone.
    pub fn without_shutdown(mut self) -> Self {
        self.with_shutdown = false;
        self
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
                let t = t as usize;
                n.workers[w] = if s.shutdown || n.blocks[t] == 0 {
                    Worker::Retire(t as u8)
                } else {
                    n.blocks[t] -= 1;
                    n.merged[t] += 1;
                    if n.blocks[t] == 0 {
                        Worker::Retire(t as u8)
                    } else {
                        Worker::Requeue(t as u8)
                    }
                };
            }
            Worker::Requeue(t) => {
                self.enqueue(n, t as usize);
                self.apply_notify(n, id);
            }
            Worker::Retire(t) => {
                n.tasks[t as usize] = Task::Done;
                n.active -= 1; // the outcome is published
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
        State {
            queues: vec![VecDeque::new(); self.workers],
            workers: vec![Worker::Idle; self.workers],
            blocks: self.tasks.clone(),
            merged: vec![0; self.tasks.len()],
            tasks: vec![Task::Unsubmitted; self.tasks.len()],
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
                Worker::Requeue(t) => {
                    steps.extend(self.notify_variants(s, w, &format!("requeue t{t}")));
                    continue;
                }
                Worker::Retire(t) => format!("t{t}: publish the outcome"),
                Worker::Waiting | Worker::Exited => continue,
            };
            steps.push(Step::new(w, 0, label));
        }
        let t = s.submitted;
        if t < self.tasks.len()
            && !s.shutdown
            && admission_has_capacity(s.active as usize, self.limit as usize)
        {
            let what = format!("admit t{t}");
            steps.extend(self.notify_variants(s, self.workers, &what)); // the submitter
        }
        if self.with_shutdown && !s.shutdown && s.submitted == self.tasks.len() {
            let label = "shutdown, notify-all";
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
            n.active += 1; // the query's slot
            n.submitted += 1;
            self.enqueue(&mut n, t);
            self.apply_notify(&mut n, step.id);
        } else {
            n.shutdown = true;
            wake_all(&mut n);
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
        for (t, &task) in s.tasks.iter().enumerate() {
            if task == Task::Done && !s.shutdown && s.merged[t] != self.tasks[t] {
                return Err(Violation::new(
                    "exact-finish-only-when-exhausted",
                    format!(
                        "t{t} finished with {}/{} blocks ingested",
                        s.merged[t], self.tasks[t]
                    ),
                ));
            }
        }
        Ok(())
    }

    fn check_quiescent(&self, s: &State) -> Result<(), Violation> {
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
    use crate::explorer::Explorer;

    #[test]
    fn production_config_is_clean() {
        // Two workers, three queries (one multi-quantum), admission bound
        // of two: submits must wait for retirements, stealing and
        // notify_all keep everything live, shutdown drains.
        let stats = Explorer::new(AdmissionSteal::new(2, &[1, 2, 1], 2))
            .explore()
            .unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(stats.truncated, 0, "scope must be fully explored");
        assert!(stats.quiescent >= 1);
    }

    #[test]
    fn notify_one_with_stealing_is_safe() {
        // Any woken worker can steal, so no wakeup is lost — the model
        // clears the alternative before we keep paying for notify_all.
        let model = AdmissionSteal::new(2, &[1, 2], 2)
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
        let stats = Explorer::new(AdmissionSteal::new(2, &[2, 1], 2))
            .explore()
            .unwrap_or_else(|f| panic!("{f}"));
        assert!(stats.quiescent >= 1);
    }

    #[test]
    fn walk_mode_agrees_with_exhaustion() {
        // The production scope, and the notify_one alternative exhaustion
        // clears.
        for model in [
            AdmissionSteal::new(2, &[1, 2, 1], 2),
            AdmissionSteal::new(2, &[1, 2], 2)
                .with_notify_one()
                .without_shutdown(),
        ] {
            let stats = Explorer::new(model)
                .walk(0x5c4e_d001, 500)
                .unwrap_or_else(|f| panic!("{f}"));
            assert_eq!(stats.schedules, 500);
        }
    }
}
