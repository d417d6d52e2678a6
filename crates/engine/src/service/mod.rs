//! Concurrent multi-query service over one shared storage backend.
//!
//! The single-query executors answer *one* top-k histogram-matching
//! query as fast as possible. A serving system answers *many at once*,
//! against one storage backend and one block cache — the contention
//! regime this module exists for. [`QueryService`] is that layer:
//!
//! * **Admission** — [`QueryService::submit`] validates a
//!   [`QueryRequest`], builds its HistSim driver and its walk over the
//!   shared backend's blocks into one query task, and returns a
//!   `'static` [`QueryHandle`]. Admission is bounded
//!   ([`ServiceConfig::max_admitted`]); beyond the bound `submit`
//!   rejects with [`ServiceError::Saturated`] instead of queueing
//!   unboundedly.
//! * **Scheduling** — one bounded worker pool serves *all* queries.
//!   The schedulable unit is one query's task running one bounded
//!   ingestion quantum, after which the task goes back to its home
//!   queue's FIFO tail. Queries therefore multiplex at quantum
//!   granularity — 16 queries are 16 interleaved tasks on the same pool,
//!   not 16 private pools — and no query can monopolize a worker for
//!   longer than one quantum. A quantum reads at most
//!   [`ServiceConfig::quantum_blocks`] blocks — a declared count, never
//!   a clocked estimate. Idle workers steal queued tasks from busy
//!   siblings (`state` module docs, crate-internal).
//! * **Per-query protocol** — each query runs the demand protocol of
//!   the executors, over the walk FastMatch steps too (Figure 6's
//!   marking stage is `exec::walk::ShardWalk::mark`, under the query's
//!   `HistSim` demand, and `ShardWalk::hand_out` is called with what is
//!   left of the quantum's budget as its limit): a quantum hands each
//!   block of the marked runs to the driver as the run read delivers it
//!   — the fused kernel every executor uses (`HistSim::ingest_block`) —
//!   then settles over the active set and advances phases, once. Only the worker running a quantum touches the task,
//!   so the query's one statistics engine needs no lock. A pass that
//!   finds nothing to read must be followed by an advance that steps,
//!   or the query fails (FastMatch's rule). The paper's correctness
//!   argument carries over unchanged: any set of blocks of the
//!   pre-permuted table is a uniform without-replacement sample, so
//!   quantum scheduling changes *latency*, never the guarantee. At a
//!   fixed seed a query reads the same blocks, in the same quanta,
//!   whatever else the pool serves, so it replays exactly.
//! * **Progressive results** — after every ingested quantum the handle's
//!   snapshot is refreshed: phase, [`GuaranteeState`], samples so far,
//!   and the query's attributed [`IoStats`] — including its private
//!   hit/miss view of the *shared* block cache. The top-k preview, a
//!   `|V_Z|·|V_X|` pass, is recomputed when the state machine completes
//!   a phase or a stage-2 round.
//! * **Cancellation & deadlines** — cooperative: workers observe the
//!   cancel flag and the deadline at quantum boundaries, so a stuck
//!   disk read is never interrupted mid-page, and a cancelled query
//!   resolves within one quantum.
//!
//! Worker threads are scoped ([`QueryService::serve`]), so the service
//! borrows the backend and bitmaps instead of forcing `Arc`-wrapping
//! onto callers; handles are `'static` and may outlive the scope (they
//! resolve to [`QueryOutcome::Cancelled`] if the service shuts down
//! under them).

mod handle;
mod state;

pub use handle::{GuaranteeState, QueryHandle, QueryOutcome, QueryProgress};
pub use state::{admission_has_capacity, queue_scan_order, SchedStats};

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fastmatch_core::error::CoreError;
use fastmatch_core::histsim::HistSimConfig;
use fastmatch_store::backend::StorageBackend;
use fastmatch_store::bitmap::BitmapIndex;
use fastmatch_store::io::IoStats;
use fastmatch_store::live::{LiveTable, Snapshot};

use crate::exec::driver::Driver;
use crate::exec::walk::{ShardWalk, Step};
use crate::query::QueryJob;
use crate::service::handle::QueryShared;
use crate::service::state::{QueryTask, Scheduler};

/// Service tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Worker threads in the shared pool.
    pub workers: usize,
    /// Maximum blocks read per scheduling quantum.
    pub quantum_blocks: usize,
    /// Maximum queries admitted and not yet terminal.
    pub max_admitted: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        ServiceConfig {
            workers: cores.clamp(1, 8),
            quantum_blocks: 64,
            max_admitted: 4096,
        }
    }
}

impl ServiceConfig {
    /// Sets the worker-pool size.
    ///
    /// # Panics
    /// Panics if `workers` is zero.
    pub fn with_workers(mut self, workers: usize) -> Self {
        assert!(workers > 0, "worker pool must be positive");
        self.workers = workers;
        self
    }

    /// Sets the per-quantum block-read budget.
    ///
    /// # Panics
    /// Panics if `quantum_blocks` is zero.
    pub fn with_quantum_blocks(mut self, quantum_blocks: usize) -> Self {
        assert!(quantum_blocks > 0, "quantum must be positive");
        self.quantum_blocks = quantum_blocks;
        self
    }

    /// Sets the admission bound.
    ///
    /// # Panics
    /// Panics if `max_admitted` is zero.
    pub fn with_max_admitted(mut self, max_admitted: usize) -> Self {
        assert!(max_admitted > 0, "admission bound must be positive");
        self.max_admitted = max_admitted;
        self
    }
}

/// One query, as submitted by a client.
#[derive(Debug, Clone)]
pub struct QueryRequest<'a> {
    /// Bitmap index over the candidate attribute (under the backend's
    /// layout).
    pub bitmap: &'a BitmapIndex,
    /// Candidate attribute (`Z`) index.
    pub z_attr: usize,
    /// Grouping attribute (`X`) index.
    pub x_attr: usize,
    /// Normalized visual target (length `|V_X|`).
    pub target: Vec<f64>,
    /// HistSim parameters.
    pub cfg: HistSimConfig,
    /// Seed for the random scan start.
    pub seed: u64,
    /// Relative deadline: the query resolves to
    /// [`QueryOutcome::DeadlineExpired`] if it is still running this
    /// long after admission.
    pub deadline: Option<Duration>,
}

impl<'a> QueryRequest<'a> {
    /// A request with no deadline and seed 0.
    pub fn new(
        bitmap: &'a BitmapIndex,
        z_attr: usize,
        x_attr: usize,
        target: Vec<f64>,
        cfg: HistSimConfig,
    ) -> Self {
        QueryRequest {
            bitmap,
            z_attr,
            x_attr,
            target,
            cfg,
            seed: 0,
            deadline: None,
        }
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets a relative deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// One query over a live-table snapshot, as submitted by a client. The
/// bitmap-free twin of [`QueryRequest`]: a snapshot carries its own
/// exact per-attribute indexes, frozen at capture time, so there is
/// nothing external to reference.
#[derive(Debug, Clone)]
pub struct SnapshotRequest {
    /// Candidate attribute (`Z`) index.
    pub z_attr: usize,
    /// Grouping attribute (`X`) index.
    pub x_attr: usize,
    /// Normalized visual target (length `|V_X|`).
    pub target: Vec<f64>,
    /// HistSim parameters.
    pub cfg: HistSimConfig,
    /// Seed for the random scan start.
    pub seed: u64,
    /// Relative deadline, as in [`QueryRequest::deadline`].
    pub deadline: Option<Duration>,
}

impl SnapshotRequest {
    /// A request with no deadline and seed 0.
    pub fn new(z_attr: usize, x_attr: usize, target: Vec<f64>, cfg: HistSimConfig) -> Self {
        SnapshotRequest {
            z_attr,
            x_attr,
            target,
            cfg,
            seed: 0,
            deadline: None,
        }
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets a relative deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Admission errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The admission bound is reached; retry after some queries finish.
    Saturated {
        /// Queries currently admitted and not yet terminal.
        active: usize,
        /// The configured bound.
        limit: usize,
    },
    /// The service is shutting down.
    ShuttingDown,
    /// The request failed validation (e.g. degenerate table or config).
    Invalid(CoreError),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Saturated { active, limit } => {
                write!(f, "service saturated: {active} active of {limit} allowed")
            }
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
            ServiceError::Invalid(e) => write!(f, "invalid request: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// The multi-query scheduler. Created by [`QueryService::serve`]; see
/// the [module docs](self) for the architecture.
#[derive(Debug)]
pub struct QueryService<'env> {
    backend: &'env dyn StorageBackend,
    config: ServiceConfig,
    sched: Scheduler<'env>,
    next_id: AtomicU64,
    active: AtomicUsize,
    /// Round-robin cursor for query tasks' home queues.
    next_home: AtomicUsize,
}

impl<'env> QueryService<'env> {
    /// Runs a service session: spawns the worker pool, hands the service
    /// to `f`, and on return shuts the pool down (cancelling any queries
    /// still in flight) before joining every worker.
    pub fn serve<R>(
        backend: &'env dyn StorageBackend,
        config: ServiceConfig,
        f: impl FnOnce(&QueryService<'env>) -> R,
    ) -> R {
        assert!(config.workers > 0, "worker pool must be positive");
        assert!(config.quantum_blocks > 0, "quantum must be positive");
        assert!(config.max_admitted > 0, "admission bound must be positive");
        let svc = QueryService {
            backend,
            config,
            sched: Scheduler::new(config.workers),
            next_id: AtomicU64::new(0),
            active: AtomicUsize::new(0),
            next_home: AtomicUsize::new(0),
        };
        std::thread::scope(|scope| {
            for w in 0..config.workers {
                let svc = &svc;
                scope.spawn(move || worker_loop(svc, w));
            }
            let r = f(&svc);
            svc.sched.shutdown();
            r
        })
    }

    /// The service configuration in use.
    pub fn config(&self) -> ServiceConfig {
        self.config
    }

    /// Scheduler counters (quanta executed, tasks stolen).
    pub fn sched_stats(&self) -> SchedStats {
        self.sched.stats()
    }

    /// Queries admitted and not yet terminal.
    pub fn active_queries(&self) -> usize {
        self.active.load(Ordering::Relaxed)
    }

    /// Admits one query over the service's shared backend, returning its
    /// handle. Fails fast — [`ServiceError::Saturated`] at the admission
    /// bound, [`ServiceError::Invalid`] when the driver cannot be built —
    /// and never blocks.
    pub fn submit(&self, req: QueryRequest<'env>) -> Result<QueryHandle, ServiceError> {
        validate(
            self.backend,
            Some(req.bitmap),
            (req.z_attr, req.x_attr),
            &req.target,
        )?;
        self.reserve_slot()?;
        let job = QueryJob::from_backend(
            self.backend,
            req.bitmap,
            req.z_attr,
            req.x_attr,
            req.target,
            req.cfg,
        );
        self.admit_reserved(job, req.seed, req.deadline)
    }

    /// Admits one query over a live-table [`Snapshot`] the query will
    /// co-own: the snapshot (and the exact bitmap it froze) ride inside
    /// the job, so the caller may take snapshots *inside* the serve
    /// scope — including one per admission — while writers keep
    /// appending to the live table underneath. Admission bounds, the
    /// demand protocol, scheduling fairness and progressive results are
    /// identical to [`Self::submit`].
    pub fn submit_snapshot(
        &self,
        snapshot: Arc<Snapshot>,
        req: SnapshotRequest,
    ) -> Result<QueryHandle, ServiceError> {
        // The snapshot's own index covers `z_attr` under its own layout
        // by construction; only the request's shape needs checking.
        validate(&*snapshot, None, (req.z_attr, req.x_attr), &req.target)?;
        self.reserve_slot()?;
        let job =
            QueryJob::from_snapshot_shared(snapshot, req.z_attr, req.x_attr, req.target, req.cfg);
        self.admit_reserved(job, req.seed, req.deadline)
    }

    /// Takes a fresh point-in-time snapshot of `live` and admits one
    /// query over it — the live-table admission path. Returns the
    /// snapshot alongside the handle so the caller can correlate the
    /// result with the watermark it reflects.
    pub fn submit_live(
        &self,
        live: &LiveTable,
        req: SnapshotRequest,
    ) -> Result<(Arc<Snapshot>, QueryHandle), ServiceError> {
        let snapshot = Arc::new(live.snapshot());
        let handle = self.submit_snapshot(Arc::clone(&snapshot), req)?;
        Ok((snapshot, handle))
    }

    /// Reserves one admission slot atomically (CAS loop): a plain
    /// load-then-increment would let concurrent submits race past the
    /// bound. The slot is released on rejection and when the query's
    /// outcome is published.
    fn reserve_slot(&self) -> Result<(), ServiceError> {
        if self.sched.is_shutdown() {
            return Err(ServiceError::ShuttingDown);
        }
        let mut active = self.active.load(Ordering::Relaxed);
        loop {
            if !state::admission_has_capacity(active, self.config.max_admitted) {
                return Err(ServiceError::Saturated {
                    active,
                    limit: self.config.max_admitted,
                });
            }
            match self.active.compare_exchange_weak(
                active,
                active + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Ok(()),
                Err(now) => active = now,
            }
        }
    }

    /// Builds the driver for an already-reserved admission slot, then
    /// queues the query's task on the shared scheduler — the
    /// backend-agnostic tail of every submit path.
    fn admit_reserved(
        &self,
        job: QueryJob<'env>,
        seed: u64,
        deadline: Option<Duration>,
    ) -> Result<QueryHandle, ServiceError> {
        let admitted = (|| -> Result<_, CoreError> {
            let mut driver = Driver::new(&job)?;
            // Degenerate configs may already satisfy stage boundaries.
            driver.advance()?;
            Ok(driver)
        })();
        let driver = match admitted {
            Ok(driver) => driver,
            Err(e) => {
                // Validation failed: release the reserved admission slot.
                self.active.fetch_sub(1, Ordering::Relaxed);
                return Err(ServiceError::Invalid(e));
            }
        };
        let shared = Arc::new(QueryShared::new(
            self.next_id.fetch_add(1, Ordering::Relaxed),
        ));
        // The admission slot reserved above is released when the query's
        // outcome is published.
        let task = Box::new(QueryTask {
            walk: ShardWalk::served(job.layout.num_blocks(), seed, job.num_candidates()),
            reader: job.reader(),
            job,
            driver,
            shared: Arc::clone(&shared),
            deadline: deadline.map(|d| Instant::now() + d),
            home: self.next_home.fetch_add(1, Ordering::Relaxed) % self.config.workers,
        });
        if task.driver.hs.is_done() {
            complete(self, task);
        } else {
            self.sched.enqueue(task);
        }
        Ok(QueryHandle { shared })
    }
}

/// Checks, before an admission slot is taken, everything `QueryJob`'s
/// constructors would otherwise assert — a service must reject a
/// malformed request, not unwind through the pool that is serving every
/// other admitted query.
fn validate(
    backend: &dyn StorageBackend,
    bitmap: Option<&BitmapIndex>,
    (z_attr, x_attr): (usize, usize),
    target: &[f64],
) -> Result<(), ServiceError> {
    let schema = backend.schema();
    let invalid = |what: String| Err(ServiceError::Invalid(CoreError::InvalidConfig(what)));
    if z_attr >= schema.len() || x_attr >= schema.len() {
        return invalid(format!(
            "attribute out of range (z {z_attr}, x {x_attr}, schema {})",
            schema.len()
        ));
    }
    let groups = schema.attr(x_attr).cardinality as usize;
    if target.len() != groups {
        return Err(ServiceError::Invalid(CoreError::InvalidTarget(format!(
            "target arity {} != |V_X| {groups}",
            target.len()
        ))));
    }
    let Some(bitmap) = bitmap else { return Ok(()) };
    let (values, blocks) = (bitmap.num_values(), bitmap.num_blocks());
    if values != schema.attr(z_attr).cardinality as usize {
        return invalid(format!(
            "bitmap indexes {values} values, attribute {z_attr} has {}",
            schema.attr(z_attr).cardinality
        ));
    }
    if blocks != backend.layout().num_blocks() {
        return invalid(format!(
            "bitmap covers {blocks} blocks, the backend has {}",
            backend.layout().num_blocks()
        ));
    }
    Ok(())
}

fn worker_loop(svc: &QueryService<'_>, worker: usize) {
    while let Some(task) = svc.sched.pop(worker) {
        run_quantum(svc, task);
    }
}

/// Runs one scheduling quantum of one query, then requeues the task or,
/// when the query is over, publishes its outcome.
fn run_quantum<'env>(svc: &QueryService<'env>, mut task: Box<QueryTask<'env>>) {
    let _unwind = FailOnUnwind {
        svc,
        shared: Arc::clone(&task.shared),
        io: task.reader.stats(),
    };

    // Cooperative checks, once per quantum.
    if svc.sched.is_shutdown() || task.shared.cancel_requested() {
        return publish(svc, &task, QueryOutcome::Cancelled);
    }
    if task.deadline_expired() {
        return publish(svc, &task, QueryOutcome::DeadlineExpired);
    }

    // The ingestion quantum: mark the walk's next window under the
    // driver's demand and hand each block of its marked runs to the
    // driver as the run read delivers it, until the budget is spent or
    // the walk has nothing more to give right now. The walk keeps its
    // place, so the next quantum resumes where this one stops.
    svc.sched.note_quantum();
    let budget = svc.config.quantum_blocks;
    let mut reads = 0usize;
    let mut fruitless = false;
    let mut failure: Option<CoreError> = None;
    let QueryTask {
        job,
        driver,
        walk,
        reader,
        ..
    } = &mut *task;
    while reads < budget {
        // Marked runs are read as runs (the walk cuts them to the budget
        // left), unmarked ones only counted as skipped.
        let marked = walk.mark(&job.bitmap, driver.hs.demand());
        let step = marked.unwrap_or_else(|| {
            walk.hand_out(budget - reads, |run, marked| {
                if !marked {
                    reader.skip_blocks(run.len() as u64);
                    return true;
                }
                let read = reader.read_run(run, job.z_attr, job.x_attr, |_, zs, xs| {
                    reads += 1;
                    driver.ingest_block(zs, xs);
                    true
                });
                failure = read.err().map(crate::exec::storage_err);
                failure.is_none()
            })
        });
        match step {
            Step::PassEnd { fruitless: true } => {
                fruitless = true;
                break;
            }
            Step::Exhausted | Step::Stop => break,
            Step::Window | Step::PassEnd { .. } => {}
        }
    }

    // One settlement per quantum that read something, and after a pass
    // that found nothing to read. The demand of the last advance only
    // ever overstates the true active set, and every truly active
    // candidate has unread rows in an unvisited block, so a fruitless
    // pass must be followed by an advance that steps (FastMatch's rule).
    if let Some(e) = failure {
        return publish(svc, &task, QueryOutcome::Failed(e));
    }
    if reads > 0 || fruitless {
        match driver.advance() {
            Ok(_) if driver.hs.is_done() => return complete(svc, task),
            Ok(false) if fruitless => {
                let stuck =
                    CoreError::PhaseViolation("no readable blocks for outstanding demand".into());
                return publish(svc, &task, QueryOutcome::Failed(stuck));
            }
            Ok(stepped) => refresh_progress(&task, stepped),
            Err(e) => return publish(svc, &task, QueryOutcome::Failed(e)),
        }
    }
    if task.walk.exhausted() {
        // Every block is read and the state machine has not terminated:
        // the results are exact.
        return complete(svc, task);
    }
    svc.sched.enqueue(task);
}

/// Fails the query of a quantum that unwinds — a panic in the walk, a
/// read or the driver, such as its row-count assert. The task dies with
/// its worker, so no later quantum would publish the query's outcome. On
/// the way out this resolves the handle with the failure, with the I/O
/// of the quanta before this one, and releases the admission slot. The
/// panic then leaves the worker as before, and [`QueryService::serve`]
/// re-raises it when it joins the pool.
struct FailOnUnwind<'a, 'env> {
    svc: &'a QueryService<'env>,
    shared: Arc<QueryShared>,
    io: IoStats,
}

impl Drop for FailOnUnwind<'_, '_> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        let failed = CoreError::PhaseViolation("a service worker panicked on this query".into());
        resolve(
            self.svc,
            &self.shared,
            self.io,
            QueryOutcome::Failed(failed),
        );
    }
}

/// Refreshes the handle's progressive snapshot after an ingested
/// quantum. Every one pays only for the O(1) fields; the top-k preview
/// is recomputed when the advance `stepped` the state machine over a
/// phase or round boundary.
fn refresh_progress(task: &QueryTask<'_>, stepped: bool) {
    let hs = &task.driver.hs;
    let phase = hs.phase();
    task.shared.set_progress(
        phase,
        GuaranteeState::from_phase(phase, hs.diagnostics().exact_finish),
        hs.samples(),
        task.reader.stats(),
        stepped.then(|| hs.current_topk()),
    );
}

/// Publishes the outcome of a query whose state machine terminated, or
/// whose walk read every block (exhausted-exact).
fn complete<'env>(svc: &QueryService<'env>, task: Box<QueryTask<'env>>) {
    let QueryTask {
        mut driver,
        reader,
        shared,
        ..
    } = *task;
    let io = reader.stats();
    let run = (|| {
        if !driver.hs.is_done() {
            driver.finish_exhausted()?;
        }
        driver.finish(io)
    })();
    let outcome = match run {
        Ok(out) => QueryOutcome::Finished(out),
        Err(e) => QueryOutcome::Failed(e),
    };
    resolve(svc, &shared, io, outcome);
}

/// Publishes a cancelled, expired or failed outcome.
fn publish(svc: &QueryService<'_>, task: &QueryTask<'_>, outcome: QueryOutcome) {
    resolve(svc, &task.shared, task.reader.stats(), outcome);
}

/// Resolves the handle with `outcome` and releases the admission slot.
fn resolve(svc: &QueryService<'_>, shared: &QueryShared, io: IoStats, outcome: QueryOutcome) {
    let progress = final_progress(&outcome);
    if shared.publish_outcome(progress, io, outcome) {
        svc.active.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The terminal progress snapshot for a *finished* outcome. Cancelled,
/// deadline-expired and failed queries return `None`: their last
/// progressive snapshot is the best answer the client will ever get
/// (the whole point of pairing deadlines with progressive results), so
/// it must be preserved, not replaced by an empty terminal one.
fn final_progress(outcome: &QueryOutcome) -> Option<QueryProgress> {
    use fastmatch_core::histsim::PhaseKind;
    match outcome {
        QueryOutcome::Finished(out) => Some(QueryProgress {
            phase: PhaseKind::Done,
            guarantee: GuaranteeState::from_phase(PhaseKind::Done, out.stats.exact_finish),
            current_topk: out.candidate_ids(),
            samples: out.stats.samples,
            io: out.stats.io,
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastmatch_store::backend::MemBackend;
    use fastmatch_store::bitmap::BitmapIndex;
    use fastmatch_store::block::BlockLayout;
    use fastmatch_store::schema::{AttrDef, Schema};
    use fastmatch_store::table::Table;

    fn table() -> Table {
        let schema = Schema::new(vec![AttrDef::new("z", 4), AttrDef::new("x", 2)]);
        let rows = 4096;
        let z: Vec<u32> = (0..rows as u32).map(|r| r.wrapping_mul(7) % 4).collect();
        let x: Vec<u32> = (0..rows as u32).map(|r| r.wrapping_mul(3) % 2).collect();
        Table::new(schema, vec![z, x])
    }

    fn cfg() -> HistSimConfig {
        HistSimConfig {
            k: 2,
            epsilon: 0.2,
            delta: 0.05,
            sigma: 0.0,
            stage1_samples: 500,
            ..HistSimConfig::default()
        }
    }

    #[test]
    fn single_query_completes_with_attributed_io() {
        let t = table();
        let layout = BlockLayout::new(t.n_rows(), 64);
        let backend = MemBackend::new(&t, layout);
        let bitmap = BitmapIndex::build(&t, 0, &layout);
        let outcome = QueryService::serve(&backend, ServiceConfig::default(), |svc| {
            let h = svc
                .submit(QueryRequest::new(&bitmap, 0, 1, vec![0.5, 0.5], cfg()))
                .unwrap();
            h.wait()
        });
        let out = outcome.finished().expect("query must finish").clone();
        assert_eq!(out.candidate_ids().len(), 2);
        assert!(out.stats.io.blocks_read > 0, "io must be attributed");
    }

    #[test]
    fn cancellation_resolves_promptly() {
        let t = table();
        let layout = BlockLayout::new(t.n_rows(), 64);
        let backend = MemBackend::new(&t, layout);
        let bitmap = BitmapIndex::build(&t, 0, &layout);
        // Slow every block read down so the query cannot finish before
        // the cancel lands.
        let config = ServiceConfig::default()
            .with_workers(2)
            .with_quantum_blocks(1);
        let outcome = QueryService::serve(&backend, config, |svc| {
            let req = QueryRequest::new(&bitmap, 0, 1, vec![0.5, 0.5], cfg());
            let h = svc.submit(req).unwrap();
            h.cancel();
            h.wait()
        });
        assert!(
            matches!(outcome, QueryOutcome::Cancelled | QueryOutcome::Finished(_)),
            "cancel must resolve (cancelled, or finished if it won the race): {outcome:?}"
        );
    }

    #[test]
    fn zero_deadline_expires() {
        let t = table();
        let layout = BlockLayout::new(t.n_rows(), 64);
        let backend = MemBackend::new(&t, layout);
        let bitmap = BitmapIndex::build(&t, 0, &layout);
        let (outcome, progress) = QueryService::serve(&backend, ServiceConfig::default(), |svc| {
            let req = QueryRequest::new(&bitmap, 0, 1, vec![0.5, 0.5], cfg())
                .with_deadline(Duration::ZERO);
            let h = svc.submit(req).unwrap();
            (h.wait(), h.progress())
        });
        assert!(
            matches!(outcome, QueryOutcome::DeadlineExpired),
            "zero deadline must expire: {outcome:?}"
        );
        // The last progressive snapshot survives the terminal outcome —
        // it must not be replaced by a fake phase-Done empty one (the
        // state machine never reached Done here).
        assert_ne!(
            progress.phase,
            fastmatch_core::histsim::PhaseKind::Done,
            "expired query must keep its honest last snapshot"
        );
    }

    #[test]
    fn admission_bound_rejects_when_saturated() {
        let t = table();
        let layout = BlockLayout::new(t.n_rows(), 64);
        let backend = MemBackend::new(&t, layout);
        let bitmap = BitmapIndex::build(&t, 0, &layout);
        QueryService::serve(
            &backend,
            ServiceConfig::default()
                .with_max_admitted(1)
                .with_workers(1),
            |svc| {
                // Submit a slow query, then immediately try a second one:
                // the first may still be active (it can also finish fast —
                // then the second submit simply succeeds, so only assert
                // the error *shape* when it appears).
                let h = svc
                    .submit(QueryRequest::new(&bitmap, 0, 1, vec![0.5, 0.5], cfg()))
                    .unwrap();
                match svc.submit(QueryRequest::new(&bitmap, 0, 1, vec![0.5, 0.5], cfg())) {
                    Err(ServiceError::Saturated { active, limit }) => {
                        assert_eq!(limit, 1);
                        assert!(active >= 1);
                    }
                    Ok(h2) => {
                        h2.wait();
                    }
                    Err(other) => panic!("unexpected admission error: {other}"),
                }
                h.wait();
            },
        );
    }

    #[test]
    fn handle_outliving_the_scope_still_resolves() {
        let t = table();
        let layout = BlockLayout::new(t.n_rows(), 64);
        let backend = MemBackend::new(&t, layout);
        let bitmap = BitmapIndex::build(&t, 0, &layout);
        // A handle can legally outlive the serve scope: it must resolve
        // (either the query finished in time or shutdown cancelled it).
        let handle = QueryService::serve(&backend, ServiceConfig::default(), |svc| {
            svc.submit(QueryRequest::new(&bitmap, 0, 1, vec![0.5, 0.5], cfg()))
                .unwrap()
        });
        let out = handle.wait();
        assert!(
            matches!(out, QueryOutcome::Finished(_) | QueryOutcome::Cancelled),
            "{out:?}"
        );
    }

    #[test]
    fn service_counts_quanta() {
        let t = table();
        let layout = BlockLayout::new(t.n_rows(), 64);
        let backend = MemBackend::new(&t, layout);
        let bitmap = BitmapIndex::build(&t, 0, &layout);
        let config = ServiceConfig::default()
            .with_workers(2)
            .with_quantum_blocks(8);
        let (outcome, stats) = QueryService::serve(&backend, config, |svc| {
            let h = svc
                .submit(QueryRequest::new(&bitmap, 0, 1, vec![0.5, 0.5], cfg()))
                .unwrap();
            (h.wait(), svc.sched_stats())
        });
        assert!(outcome.finished().is_some(), "{outcome:?}");
        assert!(stats.quanta > 0, "quanta must be counted: {stats:?}");
    }

    /// Drives one query's quanta by hand (no worker threads) and checks
    /// what a quantum may cost and what it must report: the walk's mark
    /// window and active-candidate buffer are allocated once and then
    /// only reused — no allocation per quantum or per window; `samples`
    /// advances with every ingested quantum (σ = 0: every tuple read
    /// counts); the top-k preview appears once stage 1 is over and
    /// equals the output at completion.
    #[test]
    fn quanta_reuse_worker_storage_and_refresh_progress() {
        use fastmatch_core::histsim::PhaseKind;
        let t = table();
        let layout = BlockLayout::new(t.n_rows(), 16);
        let backend = MemBackend::new(&t, layout);
        let bitmap = BitmapIndex::build(&t, 0, &layout);
        let config = ServiceConfig::default()
            .with_workers(1)
            .with_quantum_blocks(4);
        let svc = QueryService {
            backend: &backend,
            config,
            sched: Scheduler::new(config.workers),
            next_id: AtomicU64::new(0),
            active: AtomicUsize::new(0),
            next_home: AtomicUsize::new(0),
        };
        let h = svc
            .submit(QueryRequest::new(&bitmap, 0, 1, vec![0.5, 0.5], cfg()))
            .unwrap();

        let mut walk_storage = None;
        let (mut ingested_quanta, mut previews) = (0, 0);
        let mut last = h.progress();
        while !h.is_done() {
            let task = svc
                .sched
                .pop(0)
                .expect("a live query keeps its task queued");
            let buffers = task.walk.buffers();
            assert_eq!(
                *walk_storage.get_or_insert(buffers),
                buffers,
                "walk buffers reallocated"
            );
            run_quantum(&svc, task);

            let now = h.progress();
            if now.io.blocks_read > last.io.blocks_read && !h.is_done() {
                ingested_quanta += 1;
                assert!(now.samples > last.samples, "{now:?} after {last:?}");
            }
            if now.phase != PhaseKind::Stage1 {
                previews += 1;
                assert_eq!(now.current_topk.len(), 2, "{now:?}");
            }
            last = now;
        }
        assert!(
            ingested_quanta > 10,
            "only {ingested_quanta} ingested quanta"
        );
        assert!(previews > 1, "the preview was never seen before completion");
        let out = h.wait();
        assert_eq!(last.current_topk, out.finished().unwrap().candidate_ids());
    }

    #[test]
    fn progress_snapshots_are_monotone_enough() {
        let t = table();
        let layout = BlockLayout::new(t.n_rows(), 64);
        let backend = MemBackend::new(&t, layout);
        let bitmap = BitmapIndex::build(&t, 0, &layout);
        QueryService::serve(&backend, ServiceConfig::default(), |svc| {
            let h = svc
                .submit(QueryRequest::new(&bitmap, 0, 1, vec![0.5, 0.5], cfg()))
                .unwrap();
            let out = h.wait();
            let progress = h.progress();
            assert_eq!(progress.phase, fastmatch_core::histsim::PhaseKind::Done);
            let finished = out.finished().expect("must finish");
            assert_eq!(progress.current_topk, finished.candidate_ids());
            assert!(matches!(
                progress.guarantee,
                GuaranteeState::Full | GuaranteeState::Exact
            ));
        });
    }
}
