//! Model of the service's admission bound and per-worker run queues
//! ([`fastmatch_engine::service`]).
//!
//! Submitters reserve admission slots with a bounded CAS
//! ([`admission_has_capacity`]), enqueue shard tasks on their home
//! queue and notify the worker condvar. Workers pop-or-wait
//! atomically (the real `Scheduler::pop` holds the queue mutex),
//! scanning queues in exactly the extracted [`queue_scan_order`] —
//! own queue first, then every sibling's. Multi-quantum tasks requeue
//! themselves and notify again; shutdown wakes everyone and turns
//! every pop into a drain. Named
//! invariants (DESIGN.md § "Concurrency protocols"):
//!
//! * `admission-bounded` — at no interleaving of concurrent submits
//!   does the number of admitted-and-unretired tasks exceed the bound.
//! * `no-lost-wakeup` — at quiescence every submitted task has run to
//!   completion; a queued task with every worker asleep is the lost
//!   wakeup.
//! * `shutdown-drains-all-queues` — once shutdown fires, quiescence
//!   means empty queues, exited workers and zero admitted tasks.
//!
//! The model also clears the scheduler's wakeup: because every worker
//! scans every queue, [`AdmissionSteal::with_notify_one`] passes
//! exhaustively beside the production `notify_all`
//! (`notify_one_with_stealing_is_safe`). The interleaving that made
//! `notify_all` load-bearing needed a worker that served its own queue
//! only; that configuration (`work_stealing = false`) was deleted with
//! the model branch describing it.

use std::collections::VecDeque;

use fastmatch_engine::service::{admission_has_capacity, queue_scan_order};

use crate::explorer::{Model, Step, Violation};

/// Worker lifecycle. `Idle` workers are about to pop; `Waiting`
/// workers sleep on the condvar until a notify moves them back to
/// `Idle`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Worker {
    /// Outside the condvar, will pop next.
    Idle,
    /// Asleep on the condvar.
    Waiting,
    /// Holding a popped task.
    Running(u8),
    /// Exited after a shutdown drain.
    Exited,
}

/// Task lifecycle, for the invariants.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum TaskState {
    /// Not yet submitted.
    Unsubmitted,
    /// In some queue.
    Queued,
    /// Held by a worker.
    Running,
    /// Retired (ran to completion or cancelled by shutdown).
    Done,
}

/// Full protocol state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct State {
    queues: Vec<VecDeque<u8>>,
    workers: Vec<Worker>,
    /// Per task: quanta left to run.
    remaining: Vec<u8>,
    tasks: Vec<TaskState>,
    /// Admitted-and-unretired count (the CAS-guarded counter).
    active: u8,
    /// Next task the submitter will admit.
    submitted: usize,
    shutdown: bool,
}

/// The admission/steal model. Defaults mirror production:
/// `notify_all`, a shutdown drain at the end.
#[derive(Debug)]
pub struct AdmissionSteal {
    workers: usize,
    /// Quanta per task; task `i`'s home queue is `i % workers`.
    task_quanta: Vec<u8>,
    /// Admission bound.
    limit: u8,
    notify_all: bool,
    with_shutdown: bool,
}

impl AdmissionSteal {
    /// The production configuration.
    pub fn new(workers: usize, task_quanta: Vec<u8>, limit: u8) -> Self {
        AdmissionSteal {
            workers,
            task_quanta,
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

    /// Removes the shutdown actor: the model then checks the steady
    /// state, where quiescence means all tasks done and every worker
    /// asleep (shutdown would otherwise mask a lost wakeup by waking
    /// everyone).
    pub fn without_shutdown(mut self) -> Self {
        self.with_shutdown = false;
        self
    }

    fn submitter_actor(&self) -> usize {
        self.workers
    }

    fn shutdown_actor(&self) -> usize {
        self.workers + 1
    }

    /// Notify variants for an enqueue step: with `notify_all` (or no
    /// sleeping worker) the enqueue is one step; with `notify_one` the
    /// scheduler's choice of which waiter wakes is the
    /// nondeterminism, so each candidate is its own step. Step id is
    /// `2 + waiter` (0/1 are reserved for the base step ids).
    fn notify_variants(&self, s: &State, actor: usize, id_base: usize, what: &str) -> Vec<Step> {
        let waiters: Vec<usize> = s
            .workers
            .iter()
            .enumerate()
            .filter(|(_, w)| matches!(w, Worker::Waiting))
            .map(|(i, _)| i)
            .collect();
        if self.notify_all || waiters.is_empty() {
            vec![Step::new(actor, id_base, format!("{what}, notify-all"))]
        } else {
            waiters
                .into_iter()
                .map(|w| {
                    Step::new(
                        actor,
                        id_base + 2 + w,
                        format!("{what}, notify-one wakes w{w}"),
                    )
                })
                .collect()
        }
    }

    /// Applies the notify encoded in `id` relative to `id_base`.
    fn apply_notify(&self, n: &mut State, id: usize, id_base: usize) {
        if id == id_base {
            for w in n.workers.iter_mut() {
                if matches!(w, Worker::Waiting) {
                    *w = Worker::Idle;
                }
            }
        } else {
            let target = id - id_base - 2;
            debug_assert!(matches!(n.workers[target], Worker::Waiting));
            n.workers[target] = Worker::Idle;
        }
    }
}

/// Base step id of a worker's pop-or-wait.
const POP: usize = 0;
/// Base step id of a worker's run-quantum (requeue notify variants are
/// `RUN + 2 + waiter`).
const RUN: usize = 1;

impl Model for AdmissionSteal {
    type State = State;

    fn name(&self) -> &'static str {
        "admission_steal"
    }

    fn initial(&self) -> State {
        State {
            queues: vec![VecDeque::new(); self.workers],
            workers: vec![Worker::Idle; self.workers],
            remaining: self.task_quanta.clone(),
            tasks: vec![TaskState::Unsubmitted; self.task_quanta.len()],
            active: 0,
            submitted: 0,
            shutdown: false,
        }
    }

    fn enabled(&self, s: &State) -> Vec<Step> {
        let mut steps = Vec::new();
        for (w, worker) in s.workers.iter().enumerate() {
            match worker {
                Worker::Idle => steps.push(Step::new(w, POP, "pop-or-wait")),
                Worker::Running(t) => {
                    let requeues = !s.shutdown && s.remaining[*t as usize] > 1;
                    if requeues {
                        steps.extend(self.notify_variants(
                            s,
                            w,
                            RUN,
                            &format!("run t{t}, requeue"),
                        ));
                    } else {
                        steps.push(Step::new(w, RUN, format!("run t{t} to retirement")));
                    }
                }
                Worker::Waiting | Worker::Exited => {}
            }
        }
        if s.submitted < self.task_quanta.len()
            && !s.shutdown
            && admission_has_capacity(s.active as usize, self.limit as usize)
        {
            steps.extend(self.notify_variants(
                s,
                self.submitter_actor(),
                0,
                &format!("admit t{}", s.submitted),
            ));
        }
        if self.with_shutdown && !s.shutdown && s.submitted == self.task_quanta.len() {
            steps.push(Step::new(self.shutdown_actor(), 0, "shutdown, notify-all"));
        }
        steps
    }

    fn apply(&self, s: &State, step: &Step) -> State {
        let mut n = s.clone();
        if step.actor < self.workers {
            let w = step.actor;
            if step.id == POP {
                // Atomic pop-or-wait under the queue mutex, scanning in
                // the real protocol's order.
                let hit = queue_scan_order(w, self.workers).find(|&q| !s.queues[q].is_empty());
                match hit {
                    Some(q) => {
                        let t = n.queues[q].pop_front().expect("scan found a task");
                        n.tasks[t as usize] = TaskState::Running;
                        n.workers[w] = Worker::Running(t);
                    }
                    None if s.shutdown => n.workers[w] = Worker::Exited,
                    None => n.workers[w] = Worker::Waiting,
                }
            } else {
                let t = match s.workers[w] {
                    Worker::Running(t) => t as usize,
                    ref other => unreachable!("run step on {other:?}"),
                };
                if s.shutdown || s.remaining[t] <= 1 {
                    // Retirement (or shutdown cancellation): the
                    // admission slot is released here, like the real
                    // retire path.
                    n.remaining[t] = 0;
                    n.tasks[t] = TaskState::Done;
                    n.active -= 1;
                    n.workers[w] = Worker::Idle;
                } else {
                    n.remaining[t] -= 1;
                    n.tasks[t] = TaskState::Queued;
                    let home = t % self.workers;
                    n.queues[home].push_back(t as u8);
                    n.workers[w] = Worker::Idle;
                    self.apply_notify(&mut n, step.id, RUN);
                }
            }
        } else if step.actor == self.submitter_actor() {
            let t = s.submitted;
            n.active += 1;
            n.submitted += 1;
            n.tasks[t] = TaskState::Queued;
            n.queues[t % self.workers].push_back(t as u8);
            self.apply_notify(&mut n, step.id, 0);
        } else {
            n.shutdown = true;
            for w in n.workers.iter_mut() {
                if matches!(w, Worker::Waiting) {
                    *w = Worker::Idle;
                }
            }
        }
        n
    }

    fn check(&self, s: &State) -> Result<(), Violation> {
        if s.active > self.limit {
            return Err(Violation::new(
                "admission-bounded",
                format!(
                    "{} tasks admitted past the bound of {}",
                    s.active, self.limit
                ),
            ));
        }
        Ok(())
    }

    fn check_quiescent(&self, s: &State) -> Result<(), Violation> {
        if let Some(t) = s
            .tasks
            .iter()
            .position(|t| matches!(t, TaskState::Queued | TaskState::Running))
        {
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
        // Two workers, three tasks (one multi-quantum), admission bound
        // of two: submits must wait for retirements, stealing and
        // notify_all keep everything live, shutdown drains.
        let stats = Explorer::new(AdmissionSteal::new(2, vec![1, 2, 1], 2))
            .explore()
            .unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(stats.truncated, 0, "scope must be fully explored");
        assert!(stats.quiescent >= 1);
    }

    #[test]
    fn notify_one_with_stealing_is_safe() {
        // Any woken worker can steal, so no wakeup is lost — the model
        // clears the alternative before we keep paying for notify_all.
        let model = AdmissionSteal::new(2, vec![1, 2], 2)
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
        let stats = Explorer::new(AdmissionSteal::new(2, vec![2, 1], 2))
            .explore()
            .unwrap_or_else(|f| panic!("{f}"));
        assert!(stats.quiescent >= 1);
    }

    #[test]
    fn walk_mode_agrees_with_exhaustion() {
        let stats = Explorer::new(AdmissionSteal::new(2, vec![1, 2, 1], 2))
            .walk(0x5c4e_d001, 500)
            .unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(stats.schedules, 500);
        // … and on the notify_one alternative, which exhaustion clears
        // (`notify_one_with_stealing_is_safe`).
        let model = AdmissionSteal::new(2, vec![1, 2], 2)
            .with_notify_one()
            .without_shutdown();
        let stats = Explorer::new(model)
            .walk(0x5c4e_d001, 500)
            .unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(stats.schedules, 500);
    }
}
