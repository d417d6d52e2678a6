//! Concurrent multi-query service over one shared storage backend.
//!
//! The single-query executors answer *one* top-k histogram-matching
//! query as fast as possible. A serving system answers *many at once*,
//! against one storage backend and one block cache — the contention
//! regime this module exists for. [`QueryService`] is that layer:
//!
//! * **Admission** — [`QueryService::submit`] validates a
//!   [`QueryRequest`], builds its HistSim driver, splits the shared
//!   backend's block range into shard tasks, and returns a `'static`
//!   [`QueryHandle`]. Admission is bounded
//!   ([`ServiceConfig::max_admitted`]); beyond the bound `submit`
//!   rejects with [`ServiceError::Saturated`] instead of queueing
//!   unboundedly.
//! * **Scheduling** — one bounded worker pool serves *all* queries.
//!   The schedulable unit is a (query, shard) pair running one bounded
//!   ingestion quantum, after which the task goes back to its home
//!   queue's FIFO tail. Queries therefore multiplex over shards at
//!   quantum granularity — 16 queries × 4 shards is 64 interleaved
//!   tasks on the same pool, not 16 private pools — and no query can
//!   monopolize a worker for longer than one quantum. A quantum reads
//!   at most [`ServiceConfig::quantum_blocks`] blocks — a declared
//!   count, never a clocked estimate. Idle workers steal queued tasks
//!   from busy siblings, and shards with nothing readable under the
//!   query's current demand *park* and stop consuming pool capacity
//!   until the query's demand epoch moves (`state` module docs,
//!   crate-internal).
//! * **Per-query protocol** — each query runs the demand protocol of
//!   the executors, over the walk FastMatch steps too (Figure 6's
//!   marking stage is `exec::walk::ShardWalk::step`, called with what is
//!   left of the quantum's budget as its limit): a shard quantum reads
//!   its blocks into the worker's reused code buffer (at most
//!   `quantum_blocks` blocks' `Z` and `X` codes), then, under the
//!   query's engine mutex, hands them to the driver in one call of the
//!   fused kernel every executor uses (`HistSim::ingest_block`), settles
//!   over the active set, advances phases and republishes demand. Reads,
//!   verification and marking run in parallel across shards; ingestion
//!   has one holder at a time per query — the paper's single statistics
//!   engine. The paper's
//!   correctness argument carries over unchanged: any set of blocks of
//!   the pre-permuted table is a uniform without-replacement sample, so
//!   quantum scheduling changes *latency*, never the guarantee.
//! * **Progressive results** — after every ingested quantum the handle's
//!   snapshot is refreshed: phase, [`GuaranteeState`], samples so far,
//!   and the query's attributed
//!   [`IoStats`](fastmatch_store::io::IoStats) — including its private
//!   hit/miss view of the *shared* block cache. The top-k preview, a
//!   `|V_Z|·|V_X|` pass, is recomputed when the state machine completes
//!   a phase or a stage-2 round.
//! * **Cancellation & deadlines** — cooperative: workers observe the
//!   cancel flag and the deadline at quantum boundaries, so a stuck
//!   disk read is never interrupted mid-page, and a cancelled query's
//!   shards retire within one quantum each.
//!
//! Worker threads are scoped ([`QueryService::serve`]), so the service
//! borrows the backend and bitmaps instead of forcing `Arc`-wrapping
//! onto callers; handles are `'static` and may outlive the scope (they
//! resolve to [`QueryOutcome::Cancelled`] if the service shuts down
//! under them).

mod handle;
mod state;

pub use handle::{GuaranteeState, QueryHandle, QueryOutcome, QueryProgress};
pub use state::{admission_has_capacity, all_shards_parked, queue_scan_order, SchedStats};

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use fastmatch_core::error::CoreError;
use fastmatch_core::histsim::HistSimConfig;
use fastmatch_store::backend::StorageBackend;
use fastmatch_store::bitmap::BitmapIndex;
use fastmatch_store::live::{LiveTable, Snapshot};

use crate::exec::driver::Driver;
use crate::exec::walk::{ShardWalk, Step};
use crate::query::QueryJob;
use crate::service::handle::QueryShared;
use crate::service::state::{EngineState, QueryState, Scheduler, ShardTask, Verdict};
use crate::shared::{DemandMode, SharedDemand};

/// Consecutive all-parked valve rounds (demand republished, every shard
/// still finds nothing readable) after which a query fails loudly
/// instead of cycling forever.
const MAX_STUCK_ROUNDS: u32 = 16;

/// Service tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Worker threads in the shared pool.
    pub workers: usize,
    /// Ingestion shards per query (clamped to the block count).
    pub shards_per_query: usize,
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
            shards_per_query: 4,
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

    /// Sets the ingestion shard count per query.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn with_shards_per_query(mut self, shards: usize) -> Self {
        assert!(shards > 0, "shard count must be positive");
        self.shards_per_query = shards;
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
    /// Seed for the per-shard random scan starts.
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
    /// Seed for the per-shard random scan starts.
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
    /// Round-robin cursor for shard tasks' home queues.
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
        assert!(config.shards_per_query > 0, "shard count must be positive");
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
    /// decomposes the query into shard tasks on the shared scheduler —
    /// the backend-agnostic tail of every submit path.
    fn admit_reserved(
        &self,
        job: QueryJob<'env>,
        seed: u64,
        deadline: Option<Duration>,
    ) -> Result<QueryHandle, ServiceError> {
        let admitted = (|| {
            let mut driver = Driver::new(&job).map_err(ServiceError::Invalid)?;
            let demand = SharedDemand::new(job.num_candidates());
            // Initial publication: degenerate configs may already satisfy
            // stage boundaries, and shard tasks must never observe the
            // pre-publication zero state as real demand.
            driver
                .advance_and_publish(&demand)
                .map_err(ServiceError::Invalid)?;
            Ok((driver, demand))
        })();
        let (driver, demand) = match admitted {
            Ok(parts) => parts,
            Err(e) => {
                // Validation failed: release the reserved admission slot.
                self.active.fetch_sub(1, Ordering::Relaxed);
                return Err(e);
            }
        };
        let done_at_submit = driver.hs.is_done();

        let nb = job.layout.num_blocks();
        let shards = self.config.shards_per_query.min(nb).max(1);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::new(QueryShared::new(id));
        let reader = job.reader();
        let query = Arc::new(QueryState {
            id,
            job,
            demand,
            engine: Mutex::new(EngineState {
                driver: Some(driver),
                io: Default::default(),
                live_shards: shards,
                stuck_rounds: 0,
                verdict: done_at_submit.then_some(Verdict::Completed),
            }),
            shared: Arc::clone(&shared),
            deadline: deadline.map(|d| Instant::now() + d),
            live_shards_hint: AtomicUsize::new(shards),
        });
        // The admission slot reserved above is released when the query's
        // outcome is published (the last shard's retire).
        for w in 0..shards {
            let shard_reader = reader.shard(w, shards);
            let walk =
                ShardWalk::for_shard(shard_reader.blocks(), w, seed, query.job.num_candidates());
            let home = self.next_home.fetch_add(1, Ordering::Relaxed) % self.config.workers;
            self.sched.enqueue(ShardTask {
                query: Arc::clone(&query),
                reader: shard_reader,
                walk,
                flushed: Default::default(),
                home,
            });
        }
        Ok(QueryHandle { shared })
    }
}

/// Runs `job` as the only query of a private service over the job's own
/// source, and waits for its outcome — all there is to `ParallelMatch`.
/// The pool, its shutdown and the admission are [`QueryService::serve`]'s
/// and `admit_reserved`'s; only `submit`'s request validation is left
/// out, the job being built already.
pub(crate) fn run_job(
    job: &QueryJob<'_>,
    config: ServiceConfig,
    seed: u64,
) -> Result<QueryOutcome, ServiceError> {
    job.with_backend(|backend| {
        QueryService::serve(backend, config, |svc| {
            svc.reserve_slot()?;
            Ok(svc.admit_reserved(job.clone(), seed, None)?.wait())
        })
    })
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

/// What a finished quantum wants the scheduler to do with its task.
enum Next {
    /// More work possible now: requeue at the FIFO tail.
    Requeue,
    /// A full pass found nothing readable under this epoch: park.
    Park { pass_epoch: u64 },
    /// The shard is finished (exhausted, or the query is terminal).
    Retire,
}

fn worker_loop(svc: &QueryService<'_>, worker: usize) {
    // One code buffer per worker, whatever query each quantum serves:
    // the resident ingestion storage is `workers` buffers of at most a
    // quantum's codes, however many queries and shards are admitted.
    let mut codes = (Vec::new(), Vec::new());
    while let Some(task) = svc.sched.pop(worker) {
        run_quantum(svc, task, &mut codes);
    }
}

/// Runs one scheduling quantum of one shard task, then routes the task
/// (requeue / park / retire) and performs any terminal bookkeeping.
/// `codes` is the calling worker's reused buffer for the quantum's `Z`
/// and `X` codes; whatever it holds on entry is discarded.
fn run_quantum<'env>(
    svc: &QueryService<'env>,
    mut task: ShardTask<'env>,
    codes: &mut (Vec<u32>, Vec<u32>),
) {
    let query = Arc::clone(&task.query);
    let _unwind = FailOnUnwind { svc, query: &query };

    // Terminal and cooperative checks, once per quantum.
    if svc.sched.is_shutdown() || query.shared.cancel_requested() {
        finalize_reason(svc, &query, Verdict::Cancelled);
        retire(svc, task);
        return;
    }
    if query.deadline_expired() {
        finalize_reason(svc, &query, Verdict::DeadlineExpired);
        retire(svc, task);
        return;
    }
    if query.demand.mode() == DemandMode::Stop {
        retire(svc, task);
        return;
    }
    if task.walk.exhausted() {
        retire(svc, task);
        return;
    }

    // The ingestion quantum: step the shard's walk, appending the codes
    // of the marked runs it hands out to the worker's buffer, until the
    // budget is spent or the walk has nothing more to give right now.
    // The walk keeps its place, so the next quantum resumes where this
    // one stops.
    let job = &query.job;
    let (zbuf, xbuf) = codes;
    zbuf.clear();
    xbuf.clear();
    let budget = svc.config.quantum_blocks;
    let mut reads = 0usize;
    let mut park_epoch: Option<u64> = None;
    let mut failure: Option<CoreError> = None;
    svc.sched.note_quantum();

    let (walk, reader) = (&mut task.walk, &mut task.reader);
    while reads < budget {
        // Marked runs are read as runs (the walk cuts them to the budget
        // left), unmarked ones skipped through the range-validated bulk
        // API — only over blocks this quantum actually examined.
        let left = budget - reads;
        let step = walk.step(&job.bitmap, &query.demand, left, |run, marked| {
            if !marked {
                reader.skip_blocks(run);
                return true;
            }
            let read = reader.read_run(run, job.z_attr, job.x_attr, |_, zs, xs| {
                reads += 1;
                zbuf.extend_from_slice(zs);
                xbuf.extend_from_slice(xs);
                true
            });
            failure = read.err().map(crate::exec::storage_err);
            failure.is_none()
        });
        match step {
            Step::PassEnd {
                fruitless: true,
                epoch,
            } => {
                park_epoch = Some(epoch);
                break;
            }
            Step::Exhausted | Step::Stop => break,
            Step::Window | Step::PassEnd { .. } => {}
        }
    }

    // Ingest the quantum under the query's engine mutex — one call of
    // the fused kernel over all its codes — then decide the task's next
    // life.
    let mut ingested = false;
    let next = {
        let mut eng = query.engine.lock().unwrap();
        task.flush_io(&mut eng);
        if let Some(e) = failure {
            eng.set_verdict(Verdict::Failed(e));
            query.demand.set_mode(DemandMode::Stop);
        } else if eng.verdict.is_none() && !zbuf.is_empty() {
            eng.stuck_rounds = 0;
            let d = eng.driver.as_mut().expect("driver taken before verdict");
            d.ingest_block(zbuf, xbuf);
            let advanced = d.advance_and_publish(&query.demand);
            let done = advanced.is_ok() && d.hs.is_done();
            let stepped = match advanced {
                Ok(stepped) => {
                    if done {
                        eng.set_verdict(Verdict::Completed);
                    }
                    stepped
                }
                Err(e) => {
                    eng.set_verdict(Verdict::Failed(e));
                    query.demand.set_mode(DemandMode::Stop);
                    false
                }
            };
            ingested = true;
            refresh_progress(&query, &eng, stepped);
        }
        if eng.verdict.is_some() || task.walk.exhausted() {
            Next::Retire
        } else if let Some(pass_epoch) = park_epoch {
            Next::Park { pass_epoch }
        } else {
            Next::Requeue
        }
    };
    if ingested {
        // The advance republished demand (epoch bump): wake this query's
        // parked shards so they re-evaluate under the fresh snapshot.
        svc.sched.wake_query(query.id);
    }
    match next {
        Next::Requeue => svc.sched.enqueue(task),
        Next::Retire => retire(svc, task),
        Next::Park { pass_epoch } => {
            if svc.sched.park(task, pass_epoch) {
                stuck_valve(svc, &query);
            }
        }
    }
}

/// Fails the query of a quantum that unwinds — a panic in the walk, a
/// read or the driver, such as its row-count assert. The task dies with
/// its worker and never retires, so no last retire would publish the
/// query's outcome. On the way out this records `Verdict::Failed`,
/// publishes `Stop` (the query's other shards retire at their next
/// quantum), resolves the handle with the failure and releases the
/// admission slot. The panic then leaves the worker as before, and
/// [`QueryService::serve`] re-raises it when it joins the pool.
///
/// A `Drop` must not panic while the worker unwinds, so the guard takes
/// the engine mutex whether the panic poisoned it or not. Once the
/// verdict is recorded the engine state is valid for every later holder
/// (no quantum ingests into a query with a verdict, and a failed
/// query's driver is never finished), so the guard clears the poison:
/// the query's other shards then lock it to retire instead of panicking
/// their workers too.
struct FailOnUnwind<'a, 'env> {
    svc: &'a QueryService<'env>,
    query: &'a QueryState<'env>,
}

impl Drop for FailOnUnwind<'_, '_> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        let (svc, query) = (self.svc, self.query);
        let failed = || CoreError::PhaseViolation("a service worker panicked on this query".into());
        let io = {
            let mut eng = query.engine.lock().unwrap_or_else(PoisonError::into_inner);
            eng.set_verdict(Verdict::Failed(failed()));
            query.demand.set_mode(DemandMode::Stop);
            query.engine.clear_poison();
            eng.io
        };
        if query
            .shared
            .publish_outcome(None, io, QueryOutcome::Failed(failed()))
        {
            svc.active.fetch_sub(1, Ordering::Relaxed);
        }
        svc.sched.wake_query(query.id);
    }
}

/// Records a terminal reason (cancel / deadline), publishes `Stop`, and
/// wakes the query's parked shards so every task retires promptly.
fn finalize_reason(svc: &QueryService<'_>, query: &QueryState<'_>, verdict: Verdict) {
    {
        let mut eng = query.engine.lock().unwrap();
        eng.set_verdict(verdict);
        query.demand.set_mode(DemandMode::Stop);
    }
    svc.sched.wake_query(query.id);
}

/// The all-parked valve: every live shard of `query` parked with no
/// ingested quantum in between. Demand should then be impossible to satisfy only
/// transiently (a republication races the parks); republish to give the
/// shards a fresh epoch, and fail the query loudly after
/// [`MAX_STUCK_ROUNDS`] consecutive fruitless rounds rather than cycle
/// forever.
fn stuck_valve(svc: &QueryService<'_>, query: &QueryState<'_>) {
    {
        let mut eng = query.engine.lock().unwrap();
        if eng.verdict.is_none() {
            eng.stuck_rounds += 1;
            if eng.stuck_rounds >= MAX_STUCK_ROUNDS {
                eng.set_verdict(Verdict::Failed(CoreError::PhaseViolation(
                    "no readable blocks for outstanding demand".into(),
                )));
                query.demand.set_mode(DemandMode::Stop);
            } else {
                let d = eng.driver.as_mut().expect("driver taken before verdict");
                if let Err(e) = d.advance_and_publish(&query.demand) {
                    eng.set_verdict(Verdict::Failed(e));
                    query.demand.set_mode(DemandMode::Stop);
                }
            }
        }
    }
    svc.sched.wake_query(query.id);
}

/// Refreshes the handle's progressive snapshot (caller holds the engine
/// mutex). Every ingested quantum pays only for the O(1) fields; the
/// top-k preview is recomputed when the advance `stepped` the state
/// machine over a phase or round boundary — which includes completion.
fn refresh_progress(query: &QueryState<'_>, eng: &EngineState, stepped: bool) {
    let Some(d) = &eng.driver else { return };
    let phase = d.hs.phase();
    query.shared.set_progress(
        phase,
        GuaranteeState::from_phase(phase, d.hs.diagnostics().exact_finish),
        d.hs.samples(),
        eng.io,
        stepped.then(|| d.hs.current_topk()),
    );
}

/// Retires one shard task: folds its remaining I/O into the query and,
/// when it is the *last* live shard, converts the verdict into the
/// published outcome (finishing the driver, exhausted-exact if no
/// verdict was recorded).
fn retire<'env>(svc: &QueryService<'env>, mut task: ShardTask<'env>) {
    let query = Arc::clone(&task.query);
    let publish = {
        let mut eng = query.engine.lock().unwrap();
        task.flush_io(&mut eng);
        eng.live_shards -= 1;
        query
            .live_shards_hint
            .store(eng.live_shards, Ordering::Relaxed);
        if eng.live_shards > 0 {
            None
        } else {
            let verdict = eng.verdict.take();
            let driver = eng.driver.take();
            let io = eng.io;
            let outcome = match verdict {
                Some(Verdict::Cancelled) => QueryOutcome::Cancelled,
                Some(Verdict::DeadlineExpired) => QueryOutcome::DeadlineExpired,
                Some(Verdict::Failed(e)) => QueryOutcome::Failed(e),
                // `Completed`, or no verdict at all — the latter means
                // every shard consumed its whole block range without the
                // state machine terminating: the table is exhausted and
                // the results are exact.
                Some(Verdict::Completed) | None => {
                    let mut d = driver.expect("driver must exist until the last retire");
                    let run = (|| {
                        if !d.hs.is_done() {
                            d.finish_exhausted()?;
                        }
                        d.finish(io)
                    })();
                    match run {
                        Ok(out) => QueryOutcome::Finished(out),
                        Err(e) => QueryOutcome::Failed(e),
                    }
                }
            };
            Some((outcome, io))
        }
    };
    if let Some((outcome, io)) = publish {
        query.demand.set_mode(DemandMode::Stop);
        let progress = final_progress(&outcome);
        if query.shared.publish_outcome(progress, io, outcome) {
            svc.active.fetch_sub(1, Ordering::Relaxed);
        }
    } else {
        // The live set shrank: the query's remaining shards may all be
        // parked already, and with this shard gone no parking transition
        // is left to trigger the valve — re-evaluate all-parked here
        // (`fastmatch-check`'s `admission_steal` model strands a parked
        // shard without this re-check).
        let live = query.live_shards_hint.load(Ordering::Relaxed);
        if svc.sched.all_parked(query.id, live) {
            stuck_valve(svc, &query);
        }
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

    /// A quantum that reads but is never ingested — its query got a
    /// verdict while it read — leaves nothing behind in the worker's code
    /// buffer: the next query that worker serves finishes exactly as on a
    /// fresh buffer — a wide histogram after a narrow one and a narrow
    /// one after a wide one, so a stale code of the dropped quantum would
    /// land inside the next query's counts (or outside its domain).
    #[test]
    fn uningested_quantum_leaves_no_codes_for_the_next_query() {
        let wide = 60;
        let schema = Schema::new(vec![
            AttrDef::new("z", 4),
            AttrDef::new("x", 2),
            AttrDef::new("w", wide),
        ]);
        // Hashed codes, so every candidate meets every group.
        let code = |r: u64, shift: u32, card: u32| {
            ((r.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> shift) % u64::from(card)) as u32
        };
        let t = Table::new(
            schema,
            [(40, 4), (48, 2), (56, wide)]
                .map(|(shift, card)| (0..4096).map(|r| code(r, shift, card)).collect())
                .to_vec(),
        );
        let layout = BlockLayout::new(t.n_rows(), 16);
        let backend = MemBackend::new(&t, layout);
        let bitmap = BitmapIndex::build(&t, 0, &layout);
        let service = || QueryService {
            backend: &backend,
            config: ServiceConfig::default()
                .with_workers(1)
                .with_shards_per_query(1)
                .with_quantum_blocks(8),
            sched: Scheduler::new(1),
            next_id: AtomicU64::new(0),
            active: AtomicUsize::new(0),
            next_home: AtomicUsize::new(0),
        };
        // Every candidate matches, so the output shows every histogram.
        let all = || HistSimConfig { k: 4, ..cfg() };
        let narrow = || QueryRequest::new(&bitmap, 0, 1, vec![0.5, 0.5], all());
        let wide = || QueryRequest::new(&bitmap, 0, 2, vec![1.0; wide as usize], all());
        type Codes = (Vec<u32>, Vec<u32>);
        fn finish<'a>(
            svc: &QueryService<'a>,
            request: QueryRequest<'a>,
            codes: &mut Codes,
        ) -> String {
            let h = svc.submit(request).unwrap();
            while !h.is_done() {
                let task = svc.sched.pop(0).expect("a live query keeps a task queued");
                run_quantum(svc, task, codes);
            }
            let out = h.wait().finished().expect("must finish").clone();
            // Everything but the wall clock.
            format!("{:?}", (out.output, out.stats.io, out.stats.samples))
        }

        for (dropped, next) in [(wide(), narrow()), (narrow(), wide())] {
            let svc = service();
            let mut codes = Codes::default();
            let h = svc.submit(dropped).unwrap();
            let task = svc.sched.pop(0).unwrap();
            let query = Arc::clone(&task.query);
            query.engine.lock().unwrap().set_verdict(Verdict::Cancelled);
            run_quantum(&svc, task, &mut codes);
            let eng = query.engine.lock().unwrap();
            assert!(eng.io.blocks_read > 0, "the quantum must have read");
            drop(eng);
            assert!(h.wait().finished().is_none());
            assert!(
                !codes.0.is_empty(),
                "the dropped quantum's codes stay buffered"
            );

            let reused = finish(&svc, next.clone(), &mut codes);
            let fresh = finish(&service(), next, &mut Codes::default());
            assert_eq!(reused, fresh);
        }
    }

    /// Drives one query's quanta by hand (no worker threads) and checks
    /// what a quantum may cost and what it must publish: the worker's
    /// code buffer is allocated by the first quantum and then only
    /// reused — no allocation per quantum — and so are each shard walk's
    /// mark window and active-candidate buffer (no allocation per window
    /// either); `samples` advances
    /// with every ingested quantum (σ = 0: every tuple read counts); the
    /// top-k preview appears once stage 1 is over and equals the output
    /// at completion.
    #[test]
    fn quanta_reuse_worker_storage_and_refresh_progress() {
        use fastmatch_core::histsim::PhaseKind;
        let t = table();
        let layout = BlockLayout::new(t.n_rows(), 16);
        let backend = MemBackend::new(&t, layout);
        let bitmap = BitmapIndex::build(&t, 0, &layout);
        let config = ServiceConfig::default()
            .with_workers(1)
            .with_shards_per_query(2)
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

        let mut codes = (Vec::new(), Vec::new());
        let mut storage = None;
        let mut walk_storage = std::collections::HashMap::new();
        let (mut ingested_quanta, mut previews) = (0, 0);
        let mut last = h.progress();
        while !h.is_done() {
            let task = svc.sched.pop(0).expect("a live query keeps a task queued");
            let buffers = task.walk.buffers();
            let shard = task.reader.blocks().start;
            assert_eq!(
                *walk_storage.entry(shard).or_insert(buffers),
                buffers,
                "shard at block {shard}: walk buffers reallocated"
            );
            run_quantum(&svc, task, &mut codes);
            let at = (codes.0.as_ptr(), codes.1.as_ptr());
            assert_eq!(*storage.get_or_insert(at), at, "code buffer reallocated");

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
