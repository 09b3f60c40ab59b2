//! The scheduling service: `submit(job) → handle`, with per-job method
//! selection, priorities, deadlines and backpressure.
//!
//! [`crate::integrate_batch`] answers a *fixed slice* of jobs and blocks until
//! the last one finishes — the shape of an offline benchmark, not of a service
//! answering traffic.  An [`IntegrationService`] keeps a pool of resident
//! worker threads fed from one submission queue, so callers
//!
//! * **submit** jobs at any time and get a [`JobHandle`] back immediately,
//!   choosing a method per job ([`crate::BatchJob::with_method`] routes the
//!   job through any `Box<dyn Integrator>` — all five methods share this one
//!   queue), a [`Priority`] and a deadline,
//! * **apply backpressure** — a [`ServicePolicy`] queue bound makes
//!   [`IntegrationService::try_submit`] refuse with
//!   [`Rejected::QueueFull`] instead of queueing without limit (blocking
//!   [`IntegrationService::submit`] waits for space instead),
//! * **admit on measured feasibility** — `try_submit` also refuses a
//!   deadline-carrying job with [`Rejected::DeadlineInfeasible`] when the
//!   service's measured [`CostModel`] predicts the job cannot finish inside
//!   its deadline at the current backlog
//!   ([`IntegrationService::estimated_completion`]); a cold model admits
//!   optimistically until real work has been measured,
//! * **observe** ([`IntegrationService::metrics`]) a [`ServiceMetrics`]
//!   snapshot: queue depth, per-priority wait percentiles,
//!   reject/deadline-miss/cancel counters, the outstanding predicted
//!   backlog and the lane's EWMA of cost-prediction error,
//! * **poll** ([`JobHandle::try_result`]) or **block** ([`JobHandle::wait`])
//!   for completion,
//! * **cancel** ([`JobHandle::cancel`]) a job cooperatively — a queued job is
//!   retired before it starts, an in-flight job observes the flag at its next
//!   checkpoint (driver iteration, heap pop or sampling round, whatever the
//!   method), and a job waiting in the device's admission line abandons its
//!   ticket; every case reports [`Termination::Cancelled`].  Deadlines are
//!   exactly this cancellation driven by a timer,
//! * **shut down** ([`IntegrationService::shutdown`]) gracefully: no new
//!   submissions (the call consumes the service), every already-submitted job
//!   drains, workers are joined.
//!
//! Scheduling order: the queue is a priority queue — higher [`Priority`]
//! first, submission order within a priority level.  Because every job runs
//! against its own [`Device::isolated_memory_view`], claim order is pure
//! scheduling: it can never change any job's *result*, so the priority queue
//! does not weaken the bit-identity guarantee below.
//!
//! Execution reuses the batch engine's machinery unchanged: each worker owns a
//! long-lived [`ScratchArena`], whole jobs are admitted through the device's
//! FIFO [`pagani_device::FairGate`], and every job runs against
//! [`Device::isolated_memory_view`].  Completed results are therefore
//! **bit-identical** to running the same jobs sequentially through
//! [`Pagani::integrate`] — the batch determinism guarantee carries over to the
//! service, and `integrate_batch` itself is now submit-all-then-wait sugar on
//! top of this queue.
//!
//! ```
//! use pagani_core::{BatchJob, PaganiConfig, ServiceBuilder};
//! use pagani_device::Device;
//! use pagani_quadrature::{FnIntegrand, Tolerances};
//!
//! let service = ServiceBuilder::new(PaganiConfig::test_small(Tolerances::rel(1e-6)))
//!     .device(Device::test_small())
//!     .build();
//! let job = BatchJob::new(FnIntegrand::new(2, |x: &[f64]| x[0] + x[1]));
//! let handle = service.submit(job);
//! let output = handle.wait();
//! assert!(output.result.converged());
//! service.shutdown();
//! ```

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pagani_device::Device;
use pagani_persist::{CacheKey, CachedResult, ResultCache};
use pagani_quadrature::{IntegrationResult, Termination, Tolerances};

use crate::arena::ScratchArena;
use crate::batch::BatchJob;
use crate::config::PaganiConfig;
use crate::cost::{cost_ceiling, CostKey, CostModel, Ewma};
use crate::driver::{CancelToken, Pagani, PaganiOutput};
use crate::trace::ExecutionTrace;

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Scheduling priority of a job: higher priorities are claimed first, equal
/// priorities stay in submission (FIFO) order.
///
/// Priorities only reorder *claims* — every job runs against an isolated
/// memory view, so claim order never changes any job's result.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Background work: claimed only when nothing more urgent is queued.
    Low,
    /// The default for every job.
    #[default]
    Normal,
    /// Latency-sensitive work: claimed before everything else.
    High,
}

/// Service-level scheduling policy: queue bound and worker count.
///
/// The default policy is an unbounded queue with one service worker per
/// device worker — exactly the pre-policy service behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServicePolicy {
    /// Maximum number of submitted-but-unclaimed jobs.  When the queue is at
    /// the bound, [`IntegrationService::try_submit`] returns
    /// [`Rejected::QueueFull`] and [`IntegrationService::submit`] blocks
    /// until a worker frees a slot.  `None` (the default) never refuses a
    /// submission.
    pub queue_bound: Option<usize>,
    /// Number of resident worker threads; `None` (the default) uses the
    /// device's effective worker-pool width.
    pub workers: Option<usize>,
}

impl ServicePolicy {
    /// The default policy: unbounded queue, device-sized worker pool.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Bound the submission queue at `bound` unclaimed jobs (minimum 1).
    #[must_use]
    pub fn with_queue_bound(mut self, bound: usize) -> Self {
        self.queue_bound = Some(bound.max(1));
        self
    }

    /// Use an explicit worker-thread count (minimum 1).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }
}

/// A submission was refused because the queue is at its
/// [`ServicePolicy::queue_bound`].  Carries the rejected job back so the
/// caller can retry, downgrade or shed it.
#[derive(Debug)]
pub struct QueueFull {
    /// The bound the queue is at.
    pub bound: usize,
    /// The rejected job, returned unmodified.
    pub job: BatchJob,
}

impl std::fmt::Display for QueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "submission queue is at its bound of {} unclaimed job(s)",
            self.bound
        )
    }
}

impl std::error::Error for QueueFull {}

/// A submission was refused because the job's deadline is infeasible: the
/// measured cost model predicts the job would complete at `estimated` from
/// now (current backlog included), which is later than its `deadline`.
/// Carries the rejected job back so the caller can relax the deadline, retry
/// elsewhere or shed it.
#[derive(Debug)]
pub struct DeadlineInfeasible {
    /// Predicted completion time from now, per
    /// [`IntegrationService::estimated_completion`].
    pub estimated: Duration,
    /// The deadline the job carried.
    pub deadline: Duration,
    /// The rejected job, returned unmodified.
    pub job: BatchJob,
}

impl std::fmt::Display for DeadlineInfeasible {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "deadline of {:?} is infeasible: predicted completion in {:?} at the current backlog",
            self.deadline, self.estimated
        )
    }
}

impl std::error::Error for DeadlineInfeasible {}

/// Why [`IntegrationService::try_submit`] refused a submission.  Both
/// variants hand the job back unmodified; [`ServiceMetrics`] counts them
/// separately.  (The payloads are boxed so the `Result`'s happy path stays
/// small — rejection is the cold path.)
#[derive(Debug)]
pub enum Rejected {
    /// The queue is at its [`ServicePolicy::queue_bound`] — capacity, not
    /// feasibility: retrying after a worker frees a slot can succeed.
    QueueFull(Box<QueueFull>),
    /// The job's deadline cannot be met at the current backlog according to
    /// the measured cost model — retrying immediately will fail again;
    /// relax the deadline, shed the job, or submit it elsewhere.
    DeadlineInfeasible(Box<DeadlineInfeasible>),
}

impl Rejected {
    /// The rejected job, borrowed.
    #[must_use]
    pub fn job(&self) -> &BatchJob {
        match self {
            Self::QueueFull(refused) => &refused.job,
            Self::DeadlineInfeasible(refused) => &refused.job,
        }
    }

    /// Take the rejected job back for resubmission.
    #[must_use]
    pub fn into_job(self) -> BatchJob {
        match self {
            Self::QueueFull(refused) => refused.job,
            Self::DeadlineInfeasible(refused) => refused.job,
        }
    }
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::QueueFull(refused) => refused.fmt(f),
            Self::DeadlineInfeasible(refused) => refused.fmt(f),
        }
    }
}

impl std::error::Error for Rejected {}

/// Wait-time statistics for one [`Priority`] level: time from submission to
/// a worker claiming the job.  Percentiles are computed over a sliding
/// window of the most recent waits (the window is an implementation detail;
/// `count` and `max` cover the service's whole lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WaitStats {
    /// Jobs of this priority claimed so far.
    pub count: u64,
    /// Median wait over the recent window.
    pub p50: Duration,
    /// 90th-percentile wait over the recent window.
    pub p90: Duration,
    /// Longest wait ever observed.
    pub max: Duration,
}

/// A point-in-time observability snapshot of one service (one *lane* of a
/// [`crate::MultiDeviceService`]), from [`IntegrationService::metrics`].
///
/// Counters are monotone over the service's lifetime; `queue_depth` and
/// `outstanding_predicted` are instantaneous.  Snapshots are cheap (a few
/// mutex acquisitions) and safe to poll from a dashboard loop.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceMetrics {
    /// Submitted-but-unclaimed jobs right now.
    pub queue_depth: usize,
    /// Jobs ever enqueued (rejected submissions are *not* counted here).
    pub submitted: u64,
    /// Jobs completed (including cancelled completions).
    pub completed: u64,
    /// Completed jobs that reported [`Termination::Cancelled`] — explicit
    /// cancels, queued sheds and deadline misses alike.
    pub cancelled: u64,
    /// `try_submit` refusals with [`Rejected::QueueFull`].
    pub rejected_queue_full: u64,
    /// `try_submit` refusals with [`Rejected::DeadlineInfeasible`].
    pub rejected_deadline_infeasible: u64,
    /// Deadlines that fired while their job was still incomplete.
    pub deadline_misses: u64,
    /// Predicted wall time of all enqueued-or-running jobs (the admission
    /// backlog), per the lane's [`CostModel`]; zero while the model is cold.
    pub outstanding_predicted: Duration,
    /// EWMA of this lane's relative cost-prediction error
    /// `|actual − predicted| / predicted`, or `None` before the first
    /// predicted-and-measured completion.
    pub prediction_error_ewma: Option<f64>,
    /// Per-priority wait statistics, indexed `[Low, Normal, High]` — use
    /// [`ServiceMetrics::wait`] for by-priority access.
    pub waits: [WaitStats; 3],
    /// Jobs served straight from the [`ResultCache`] without touching a
    /// device (always 0 on a cache-less service).
    pub cache_hits: u64,
    /// Cache-enabled jobs that found no exact result and went to a device.
    pub cache_misses: u64,
    /// Jobs that warm-started from a cached snapshot instead of starting
    /// from the root region.
    pub warm_starts: u64,
    /// Warm starts whose snapshot came from a *partial* (non-converged) run —
    /// the crash/shed-recovery path.
    pub resumed: u64,
    /// Snapshots persisted into the cache (converged trees and partial trees
    /// from cancelled or memory-exhausted runs alike).
    pub checkpoints_written: u64,
    /// Integrand evaluations avoided via the cache: the full cost of every
    /// exact hit plus the banked evaluations inherited by every warm start.
    pub evals_saved: u64,
    /// Jobs dispatched over the wire to a remote worker (always 0 on the
    /// in-process services; counted by [`crate::remote::DistributedService`]).
    pub remote_dispatched: u64,
    /// Jobs requeued onto a surviving remote worker after the connection that
    /// held them died.
    pub remote_requeued: u64,
    /// Heartbeat acknowledgements received from remote workers.
    pub remote_heartbeats: u64,
}

impl ServiceMetrics {
    /// Wait statistics for `priority`.
    #[must_use]
    pub fn wait(&self, priority: Priority) -> WaitStats {
        self.waits[priority as usize]
    }

    /// Total refusals across both [`Rejected`] variants.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.rejected_queue_full + self.rejected_deadline_infeasible
    }
}

/// Sliding window size for wait percentiles.
const WAIT_WINDOW: usize = 512;

/// Rolling wait-time record for one priority level.
#[derive(Debug, Default)]
pub(crate) struct WaitReservoir {
    recent: VecDeque<Duration>,
    count: u64,
    max: Duration,
}

impl WaitReservoir {
    fn record(&mut self, wait: Duration) {
        if self.recent.len() == WAIT_WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back(wait);
        self.count += 1;
        self.max = self.max.max(wait);
    }

    fn stats(&self) -> WaitStats {
        let mut sorted: Vec<Duration> = self.recent.iter().copied().collect();
        sorted.sort_unstable();
        let percentile = |q_num: usize, q_den: usize| -> Duration {
            if sorted.is_empty() {
                Duration::ZERO
            } else {
                sorted[(sorted.len() - 1) * q_num / q_den]
            }
        };
        WaitStats {
            count: self.count,
            p50: percentile(1, 2),
            p90: percentile(9, 10),
            max: self.max,
        }
    }
}

/// Shared observability state: monotone counters, the outstanding
/// predicted-time ledger that deadline admission reads, per-priority wait
/// reservoirs and the lane's prediction-error EWMA.  The remote front-end
/// ([`crate::remote::DistributedService`]) reuses this same state so local
/// and distributed metrics share one vocabulary.
#[derive(Debug)]
pub(crate) struct Observability {
    pub(crate) submitted: AtomicU64,
    pub(crate) completed: AtomicU64,
    pub(crate) cancelled: AtomicU64,
    pub(crate) rejected_queue_full: AtomicU64,
    pub(crate) rejected_deadline_infeasible: AtomicU64,
    pub(crate) deadline_misses: AtomicU64,
    /// Sum of the predicted-duration charges (whole microseconds) of every
    /// enqueued-or-running job.  Charges are integer-valued and bounded by
    /// [`cost_ceiling`], so charge/retire cycles cancel exactly.
    pub(crate) outstanding_micros: Mutex<f64>,
    pub(crate) prediction_error: Mutex<Ewma>,
    pub(crate) waits: Mutex<[WaitReservoir; 3]>,
    pub(crate) cache_hits: AtomicU64,
    pub(crate) cache_misses: AtomicU64,
    pub(crate) warm_starts: AtomicU64,
    pub(crate) resumed: AtomicU64,
    pub(crate) checkpoints_written: AtomicU64,
    pub(crate) evals_saved: AtomicU64,
    pub(crate) remote_dispatched: AtomicU64,
    pub(crate) remote_requeued: AtomicU64,
    pub(crate) remote_heartbeats: AtomicU64,
}

impl Observability {
    pub(crate) fn new() -> Self {
        Self {
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            rejected_queue_full: AtomicU64::new(0),
            rejected_deadline_infeasible: AtomicU64::new(0),
            deadline_misses: AtomicU64::new(0),
            outstanding_micros: Mutex::new(0.0),
            prediction_error: Mutex::new(Ewma::new(CostModel::DEFAULT_ALPHA)),
            waits: Mutex::new([
                WaitReservoir::default(),
                WaitReservoir::default(),
                WaitReservoir::default(),
            ]),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            warm_starts: AtomicU64::new(0),
            resumed: AtomicU64::new(0),
            checkpoints_written: AtomicU64::new(0),
            evals_saved: AtomicU64::new(0),
            remote_dispatched: AtomicU64::new(0),
            remote_requeued: AtomicU64::new(0),
            remote_heartbeats: AtomicU64::new(0),
        }
    }

    /// The admission check of every refuse-instead-of-wait front door, in
    /// order: capacity (`queued` jobs against `bound`), then — for a job
    /// carrying a deadline — feasibility against `estimate`, the front door's
    /// predicted completion time (`None` while its model is cold, which
    /// admits).  A refusal is counted here and hands the job back inside
    /// [`Rejected`]; an admitted job is returned for enqueueing.
    pub(crate) fn admit(
        &self,
        bound: Option<usize>,
        queued: usize,
        job: BatchJob,
        estimate: impl FnOnce(&BatchJob) -> Option<Duration>,
    ) -> Result<BatchJob, Rejected> {
        if let Some(bound) = bound.filter(|&bound| queued >= bound) {
            self.rejected_queue_full
                .fetch_add(1, AtomicOrdering::Relaxed);
            return Err(Rejected::QueueFull(Box::new(QueueFull { bound, job })));
        }
        if let Some(deadline) = job.deadline() {
            if let Some(estimated) = estimate(&job).filter(|&estimated| estimated > deadline) {
                self.rejected_deadline_infeasible
                    .fetch_add(1, AtomicOrdering::Relaxed);
                return Err(Rejected::DeadlineInfeasible(Box::new(DeadlineInfeasible {
                    estimated,
                    deadline,
                    job,
                })));
            }
        }
        Ok(job)
    }

    /// Render the counters as a [`ServiceMetrics`] snapshot.
    pub(crate) fn snapshot(&self, queue_depth: usize) -> ServiceMetrics {
        let outstanding_micros = *lock(&self.outstanding_micros);
        let waits = lock(&self.waits);
        ServiceMetrics {
            queue_depth,
            submitted: self.submitted.load(AtomicOrdering::Relaxed),
            completed: self.completed.load(AtomicOrdering::Relaxed),
            cancelled: self.cancelled.load(AtomicOrdering::Relaxed),
            rejected_queue_full: self.rejected_queue_full.load(AtomicOrdering::Relaxed),
            rejected_deadline_infeasible: self
                .rejected_deadline_infeasible
                .load(AtomicOrdering::Relaxed),
            deadline_misses: self.deadline_misses.load(AtomicOrdering::Relaxed),
            outstanding_predicted: Duration::from_secs_f64(outstanding_micros.max(0.0) / 1e6),
            prediction_error_ewma: lock(&self.prediction_error).value(),
            waits: [waits[0].stats(), waits[1].stats(), waits[2].stats()],
            cache_hits: self.cache_hits.load(AtomicOrdering::Relaxed),
            cache_misses: self.cache_misses.load(AtomicOrdering::Relaxed),
            warm_starts: self.warm_starts.load(AtomicOrdering::Relaxed),
            resumed: self.resumed.load(AtomicOrdering::Relaxed),
            checkpoints_written: self.checkpoints_written.load(AtomicOrdering::Relaxed),
            evals_saved: self.evals_saved.load(AtomicOrdering::Relaxed),
            remote_dispatched: self.remote_dispatched.load(AtomicOrdering::Relaxed),
            remote_requeued: self.remote_requeued.load(AtomicOrdering::Relaxed),
            remote_heartbeats: self.remote_heartbeats.load(AtomicOrdering::Relaxed),
        }
    }
}

/// How a job ended: normally, or by panicking on its worker.
#[derive(Debug, Clone)]
pub(crate) enum JobOutcome {
    Finished(PaganiOutput),
    /// The job panicked; the captured message is re-raised on the thread that
    /// polls or waits for the handle, mirroring what `std::thread::scope`
    /// (the pre-service batch substrate) did.  The worker itself survives.
    Panicked(String),
}

/// Completion state shared between a [`JobHandle`] and the worker running (or
/// retiring) its job.  The slab-splitting coordinator and the distributed
/// front-end publish into the same state, so their handles behave exactly
/// like local ones.
#[derive(Debug)]
pub(crate) struct JobState {
    pub(crate) cancel: CancelToken,
    pub(crate) slot: Mutex<Option<JobOutcome>>,
    pub(crate) done: Condvar,
}

impl JobState {
    pub(crate) fn new() -> Self {
        Self {
            cancel: CancelToken::new(),
            slot: Mutex::new(None),
            done: Condvar::new(),
        }
    }

    pub(crate) fn complete(&self, outcome: JobOutcome) {
        let mut slot = lock(&self.slot);
        debug_assert!(slot.is_none(), "a job completes exactly once");
        *slot = Some(outcome);
        drop(slot);
        self.done.notify_all();
    }
}

/// Best-effort extraction of a panic payload's message.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_owned()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "integration job panicked".to_owned()
    }
}

fn unwrap_outcome(outcome: JobOutcome) -> PaganiOutput {
    match outcome {
        JobOutcome::Finished(output) => output,
        JobOutcome::Panicked(message) => panic!("{message}"),
    }
}

/// The caller's side of one submitted job.
///
/// Waiting, polling and cancelling all go through shared state, so a handle
/// stays valid after the service that issued it has been shut down (the job
/// will have drained by then).  Handles are cheaply cloneable; every clone
/// observes the same completion and shares the same cancellation flag.
#[derive(Clone)]
pub struct JobHandle {
    state: Arc<JobState>,
    /// The device whose admission gate must be woken on cancel — present for
    /// locally-executing jobs, absent for remote and composite handles.
    device: Option<Device>,
    /// Extra cancel propagation: slab-split parents cancel their children
    /// here, the distributed front-end forwards a cancel frame.
    on_cancel: Option<Arc<dyn Fn() + Send + Sync>>,
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("state", &self.state)
            .field("device", &self.device)
            .field("has_cancel_hook", &self.on_cancel.is_some())
            .finish()
    }
}

impl JobHandle {
    /// A handle for a job running on a local service: cancelling it also
    /// wakes the device's admission line.
    pub(crate) fn local(state: Arc<JobState>, device: Device) -> Self {
        Self {
            state,
            device: Some(device),
            on_cancel: None,
        }
    }

    /// A handle whose job executes elsewhere (a remote worker, or a set of
    /// slab children); `on_cancel` carries the propagation.
    pub(crate) fn detached(
        state: Arc<JobState>,
        on_cancel: Option<Arc<dyn Fn() + Send + Sync>>,
    ) -> Self {
        Self {
            state,
            device: None,
            on_cancel,
        }
    }

    /// The job's result if it has completed, without blocking.
    ///
    /// # Panics
    /// Re-raises the job's panic if the job panicked on its worker.
    #[must_use]
    pub fn try_result(&self) -> Option<PaganiOutput> {
        lock(&self.state.slot).clone().map(unwrap_outcome)
    }

    /// Whether the job has completed (including cancelled completions).
    #[must_use]
    pub fn is_finished(&self) -> bool {
        lock(&self.state.slot).is_some()
    }

    /// Block until the job completes and return its output.
    ///
    /// # Panics
    /// Re-raises the job's panic if the job panicked on its worker.
    #[must_use]
    pub fn wait(&self) -> PaganiOutput {
        let mut slot = lock(&self.state.slot);
        loop {
            if let Some(outcome) = slot.as_ref() {
                return unwrap_outcome(outcome.clone());
            }
            slot = self
                .state
                .done
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Request cooperative cancellation.
    ///
    /// Idempotent and racy by design: a job that completes before the request
    /// lands keeps its result, everything else — queued, waiting at the
    /// device's admission gate, or mid-run — terminates with
    /// [`Termination::Cancelled`] within one driver iteration, leaving other
    /// jobs untouched.
    pub fn cancel(&self) {
        self.state.cancel.cancel();
        // Wake any worker parked in the device's admission line so it
        // re-checks the cancellation predicate.
        if let Some(device) = &self.device {
            device.submission_gate().notify_waiters();
        }
        // Propagate: cancel slab children / forward the cancel over the wire.
        if let Some(hook) = &self.on_cancel {
            hook();
        }
    }

    /// Whether cancellation has been requested (not whether it won the race).
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.state.cancel.is_cancelled()
    }
}

/// A completion hook, run on the worker with the job's outcome just before
/// that outcome is published: the multi-device dispatcher uses it to retire
/// the job's estimated cost, the remote worker to report the outcome over
/// the wire.
pub(crate) type CompletionHook = Box<dyn FnOnce(&JobOutcome) + Send>;

struct QueuedJob {
    job: BatchJob,
    state: Arc<JobState>,
    priority: Priority,
    /// Submission sequence number; breaks priority ties FIFO.
    seq: u64,
    /// When the job entered the queue; claim time minus this is the wait
    /// recorded in [`ServiceMetrics`].
    enqueued_at: Instant,
    /// What this job charged to the outstanding-predicted ledger at enqueue
    /// (whole microseconds, `0.0` while the model was cold) — retired at
    /// exactly this value on completion.
    charge_micros: f64,
    /// The model's time prediction at enqueue, compared against the measured
    /// wall time to update the prediction-error EWMA.
    predicted: Option<Duration>,
    on_complete: Option<CompletionHook>,
}

impl std::fmt::Debug for QueuedJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueuedJob")
            .field("job", &self.job)
            .field("priority", &self.priority)
            .field("seq", &self.seq)
            .finish()
    }
}

impl PartialEq for QueuedJob {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for QueuedJob {}
impl PartialOrd for QueuedJob {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedJob {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap: higher priority first, then *lower* sequence number (FIFO
        // within a priority level).
        self.priority
            .cmp(&other.priority)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

#[derive(Debug)]
struct QueueState {
    jobs: BinaryHeap<QueuedJob>,
    next_seq: u64,
    shutting_down: bool,
}

/// One armed deadline: when `at` passes, the job behind `state` is cancelled
/// (if it has not completed first — cancellation of a completed job is a
/// no-op by the cancel-race rule).
#[derive(Debug)]
struct DeadlineEntry {
    at: Instant,
    seq: u64,
    state: Weak<JobState>,
}

impl PartialEq for DeadlineEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for DeadlineEntry {}
impl PartialOrd for DeadlineEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for DeadlineEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.at
            .cmp(&other.at)
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

#[derive(Debug, Default)]
struct DeadlineState {
    /// Min-heap of armed deadlines (via `Reverse`).
    armed: BinaryHeap<Reverse<DeadlineEntry>>,
    shutting_down: bool,
}

#[derive(Debug)]
struct ServiceShared {
    device: Device,
    config: PaganiConfig,
    policy: ServicePolicy,
    worker_count: usize,
    cost_model: Arc<CostModel>,
    /// Shared result/snapshot cache; `None` (the default) disables all cache
    /// and persistence behaviour, leaving the historical job path untouched.
    cache: Option<Arc<ResultCache>>,
    obs: Observability,
    queue: Mutex<QueueState>,
    /// Wakes workers when a job is queued (or shutdown begins).
    work: Condvar,
    /// Wakes bounded-queue submitters when a worker frees a slot.
    space: Condvar,
    deadlines: Mutex<DeadlineState>,
    /// Wakes the deadline watcher when an earlier deadline is armed (or
    /// shutdown begins).
    deadline_changed: Condvar,
}

/// A resident pool of integration workers fed from one priority submission
/// queue, with per-job method selection, deadlines and backpressure.
///
/// See the [module docs](crate::service) for the execution model and the
/// determinism guarantee.
#[derive(Debug)]
pub struct IntegrationService {
    shared: Arc<ServiceShared>,
    workers: Vec<JoinHandle<()>>,
    /// The deadline watcher, spawned lazily on the first deadline job so
    /// deadline-free services (the batch engine's transient ones above all)
    /// never pay for it.
    deadline_watcher: Mutex<Option<JoinHandle<()>>>,
}

impl IntegrationService {
    /// Start a service sharing an externally owned [`CostModel`] (and
    /// optionally a [`ResultCache`]) — the one construction path, fed by
    /// [`crate::ServiceBuilder::build`] and by every lane of a
    /// [`crate::MultiDeviceService`], which passes each lane the same model
    /// and cache so buckets pool their learning and results across devices.
    #[must_use]
    pub(crate) fn with_policy_and_model(
        device: Device,
        config: PaganiConfig,
        policy: ServicePolicy,
        cost_model: Arc<CostModel>,
        cache: Option<Arc<ResultCache>>,
    ) -> Self {
        let worker_count = policy
            .workers
            .unwrap_or_else(|| device.effective_workers())
            .max(1);
        let shared = Arc::new(ServiceShared {
            device,
            config,
            policy,
            worker_count,
            cost_model,
            cache,
            obs: Observability::new(),
            queue: Mutex::new(QueueState {
                jobs: BinaryHeap::new(),
                next_seq: 0,
                shutting_down: false,
            }),
            work: Condvar::new(),
            space: Condvar::new(),
            deadlines: Mutex::new(DeadlineState::default()),
            deadline_changed: Condvar::new(),
        });
        let workers = (0..worker_count)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pagani-service-{index}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning a service worker thread failed")
            })
            .collect();
        Self {
            shared,
            workers,
            deadline_watcher: Mutex::new(None),
        }
    }

    /// The device jobs run on.
    #[must_use]
    pub fn device(&self) -> &Device {
        &self.shared.device
    }

    /// The default configuration applied to jobs without a method override.
    #[must_use]
    pub fn config(&self) -> &PaganiConfig {
        &self.shared.config
    }

    /// The scheduling policy in force.
    #[must_use]
    pub fn policy(&self) -> ServicePolicy {
        self.shared.policy
    }

    /// Number of resident worker threads.
    #[must_use]
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Number of submitted jobs not yet claimed by a worker.
    #[must_use]
    pub fn queued_jobs(&self) -> usize {
        lock(&self.shared.queue).jobs.len()
    }

    /// Enqueue `job` and return its handle.
    ///
    /// On an unbounded queue this returns immediately; on a bounded queue it
    /// blocks until a worker frees a slot (use
    /// [`IntegrationService::try_submit`] for refuse-instead-of-wait
    /// backpressure).  Jobs are claimed highest-priority-first, FIFO within a
    /// priority level; completed results are bit-identical to running the
    /// same job alone through [`Pagani::integrate_region`] on this device.
    #[must_use]
    pub fn submit(&self, job: BatchJob) -> JobHandle {
        self.submit_with_hook(job, None)
    }

    /// Enqueue `job` if it can be accepted, refusing with [`Rejected`] — the
    /// job handed back inside — otherwise.
    ///
    /// Two admission checks run, in order:
    ///
    /// 1. **Capacity** — a queue at the policy's
    ///    [`ServicePolicy::queue_bound`] refuses with
    ///    [`Rejected::QueueFull`].
    /// 2. **Feasibility** — a job carrying a deadline is refused with
    ///    [`Rejected::DeadlineInfeasible`] when the measured [`CostModel`]
    ///    predicts it cannot complete inside that deadline at the current
    ///    backlog ([`IntegrationService::estimated_completion`]).  A cold
    ///    model makes no prediction, so admission is optimistic until real
    ///    work has been measured; blocking [`IntegrationService::submit`]
    ///    never applies this check.
    ///
    /// This is the backpressure edge of the service: a front-end that would
    /// rather shed or redirect load than build an unbounded backlog calls
    /// this and handles the `Err`.
    ///
    /// ```
    /// use pagani_core::{BatchJob, PaganiConfig, Rejected, ServiceBuilder};
    /// use pagani_device::Device;
    /// use pagani_quadrature::{FnIntegrand, Tolerances};
    ///
    /// let service = ServiceBuilder::new(PaganiConfig::test_small(Tolerances::rel(1e-6)))
    ///     .device(Device::test_small())
    ///     .queue_bound(4)
    ///     .build();
    /// let job = BatchJob::new(FnIntegrand::new(2, |x: &[f64]| x[0] + x[1]));
    /// match service.try_submit(job) {
    ///     Ok(handle) => assert!(handle.wait().result.converged()),
    ///     Err(Rejected::QueueFull(refused)) => {
    ///         println!("queue full at {}, retry later", refused.bound);
    ///     }
    ///     Err(Rejected::DeadlineInfeasible(refused)) => {
    ///         println!("cannot finish in {:?}, shed it", refused.deadline);
    ///     }
    /// }
    /// service.shutdown();
    /// ```
    ///
    /// # Errors
    /// [`Rejected::QueueFull`] when the queue holds `queue_bound` unclaimed
    /// jobs; [`Rejected::DeadlineInfeasible`] when the job's deadline cannot
    /// be met.  An unbounded service with a cold cost model never errs.
    pub fn try_submit(&self, job: BatchJob) -> Result<JobHandle, Rejected> {
        self.try_submit_with_hook(job, None)
    }

    /// [`IntegrationService::try_submit`] with an optional completion hook
    /// (the multi-device dispatcher's cost-retirement callback).
    pub(crate) fn try_submit_with_hook(
        &self,
        job: BatchJob,
        on_complete: Option<CompletionHook>,
    ) -> Result<JobHandle, Rejected> {
        let queue = lock(&self.shared.queue);
        let job = self.shared.obs.admit(
            self.shared.policy.queue_bound,
            queue.jobs.len(),
            job,
            |job| self.estimated_completion(job),
        )?;
        Ok(self.enqueue(queue, job, on_complete))
    }

    /// Predicted completion time of `job` from now, were it submitted at the
    /// current backlog: the outstanding predicted work divided across the
    /// worker pool, plus the job's own predicted duration.  `None` while the
    /// [`CostModel`] is cold (no measured work yet) — exactly the cases where
    /// [`IntegrationService::try_submit`] admits optimistically.
    ///
    /// The backlog term is deliberately simple (it ignores priorities and
    /// in-flight progress); it errs on the pessimistic side under load, which
    /// is the right bias for an admission gate.
    /// With a [`ResultCache`] attached, the job's own term is priced by
    /// *remaining* work: zero for an exact hit, and prediction minus the
    /// cached snapshot's predicted-work credit for a feasible warm start.
    #[must_use]
    pub fn estimated_completion(&self, job: &BatchJob) -> Option<Duration> {
        let own = self.predicted_remaining(job)?;
        let outstanding_micros = *lock(&self.shared.obs.outstanding_micros);
        let backlog =
            Duration::from_secs_f64(outstanding_micros / 1e6 / self.shared.worker_count as f64);
        Some(backlog + own)
    }

    /// The job's predicted duration, discounted by what the cache already
    /// holds for it.  Uses non-bumping cache peeks so admission probes never
    /// perturb LRU eviction order.  `None` while the cost model is cold.
    fn predicted_remaining(&self, job: &BatchJob) -> Option<Duration> {
        let full = self
            .shared
            .cost_model
            .predict_job(job, self.shared.config.tolerances)?;
        let Some(cache) = &self.shared.cache else {
            return Some(full);
        };
        if job.method().is_some() {
            return Some(full);
        }
        let tolerances = self.shared.config.tolerances;
        let key = job_cache_key(job, tolerances);
        if cache.contains_result(&key) {
            return Some(Duration::ZERO);
        }
        let info =
            cache.peek_warm_start(&key.integrand_id, &key.region_lo_bits, &key.region_hi_bits);
        if let Some(info) = info {
            if warm_start_feasible(info.latest_estimate, info.finished_error, tolerances) {
                // Work banked at the snapshot's own tolerance is work this job
                // will not redo.  Keep a 10% floor: resuming still re-runs the
                // snapshot's final generation and the tail of refinement.
                let banked = self.shared.cost_model.predict(&CostKey::new(
                    &key.integrand_id,
                    job.region().dim(),
                    Tolerances {
                        rel: info.rel_tol,
                        abs: info.abs_tol,
                    },
                ));
                if let Some(banked) = banked {
                    return Some(full.saturating_sub(banked).max(full / 10));
                }
            }
        }
        Some(full)
    }

    /// A point-in-time [`ServiceMetrics`] snapshot.
    ///
    /// ```
    /// use pagani_core::{BatchJob, PaganiConfig, Priority, ServiceBuilder};
    /// use pagani_device::Device;
    /// use pagani_quadrature::{FnIntegrand, Tolerances};
    ///
    /// let service = ServiceBuilder::new(PaganiConfig::test_small(Tolerances::rel(1e-6)))
    ///     .device(Device::test_small())
    ///     .build();
    /// let job = BatchJob::new(FnIntegrand::new(2, |x: &[f64]| x[0] + x[1]));
    /// service.submit(job).wait();
    ///
    /// let metrics = service.metrics();
    /// assert_eq!(metrics.submitted, 1);
    /// assert_eq!(metrics.completed, 1);
    /// assert_eq!(metrics.rejected(), 0);
    /// assert_eq!(metrics.wait(Priority::Normal).count, 1);
    /// service.shutdown();
    /// ```
    #[must_use]
    pub fn metrics(&self) -> ServiceMetrics {
        self.shared.obs.snapshot(self.queued_jobs())
    }

    /// The [`ResultCache`] this service serves from, when one is attached.
    #[must_use]
    pub fn result_cache(&self) -> Option<&Arc<ResultCache>> {
        self.shared.cache.as_ref()
    }

    /// The measured [`CostModel`] this service learns into (and admits from).
    /// Seed it with [`CostModel::record`] to make admission decisions
    /// deterministic in tests, or inspect it to watch the model converge.
    ///
    /// ```
    /// use std::time::Duration;
    /// use pagani_core::{CostKey, PaganiConfig, ServiceBuilder};
    /// use pagani_device::Device;
    /// use pagani_quadrature::Tolerances;
    ///
    /// let service = ServiceBuilder::new(PaganiConfig::test_small(Tolerances::rel(1e-6)))
    ///     .device(Device::test_small())
    ///     .build();
    /// let key = CostKey::new("warmup", 2, Tolerances::rel(1e-6));
    /// service.cost_model().record(&key, Duration::from_millis(5));
    /// assert_eq!(service.cost_model().observations(), 1);
    /// service.shutdown();
    /// ```
    #[must_use]
    pub fn cost_model(&self) -> &Arc<CostModel> {
        &self.shared.cost_model
    }

    /// Enqueue with an optional completion hook (the multi-device dispatcher
    /// uses the hook to retire the job's estimated cost).  Blocks while a
    /// bounded queue is full.
    pub(crate) fn submit_with_hook(
        &self,
        job: BatchJob,
        on_complete: Option<CompletionHook>,
    ) -> JobHandle {
        let mut queue = lock(&self.shared.queue);
        if let Some(bound) = self.shared.policy.queue_bound {
            while queue.jobs.len() >= bound && !queue.shutting_down {
                queue = self
                    .shared
                    .space
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        self.enqueue(queue, job, on_complete)
    }

    /// Push `job` onto the (already locked) queue, charge its predicted time
    /// to the outstanding ledger, arm its deadline and wake a worker.
    fn enqueue(
        &self,
        mut queue: MutexGuard<'_, QueueState>,
        job: BatchJob,
        on_complete: Option<CompletionHook>,
    ) -> JobHandle {
        let state = Arc::new(JobState::new());
        let priority = job.priority();
        let deadline = job.deadline();
        // Cache-discounted (lock order: queue → cache — the cache never takes
        // a service lock), so a warm-started job charges only its remaining
        // work to the admission ledger.
        let predicted = self.predicted_remaining(&job);
        // Whole microseconds in [0, cost_ceiling()] so charge/retire cycles
        // cancel exactly (see `cost_ceiling`); a cold model charges nothing.
        let charge_micros = predicted
            .map(|p| (p.as_secs_f64() * 1e6).round().clamp(0.0, cost_ceiling()))
            .unwrap_or(0.0);
        let seq = queue.next_seq;
        queue.next_seq += 1;
        queue.jobs.push(QueuedJob {
            job,
            state: Arc::clone(&state),
            priority,
            seq,
            enqueued_at: Instant::now(),
            charge_micros,
            predicted,
            on_complete,
        });
        // Charge while still holding the queue lock (lock order: queue →
        // outstanding) so admission never observes a queued-but-uncharged job.
        *lock(&self.shared.obs.outstanding_micros) += charge_micros;
        self.shared
            .obs
            .submitted
            .fetch_add(1, AtomicOrdering::Relaxed);
        drop(queue);
        self.shared.work.notify_one();
        if let Some(deadline) = deadline {
            self.arm_deadline(Instant::now() + deadline, seq, &state);
        }
        JobHandle::local(state, self.shared.device.clone())
    }

    /// Register a deadline with the watcher thread, spawning it on first use.
    fn arm_deadline(&self, at: Instant, seq: u64, state: &Arc<JobState>) {
        {
            let mut deadlines = lock(&self.shared.deadlines);
            deadlines.armed.push(Reverse(DeadlineEntry {
                at,
                seq,
                state: Arc::downgrade(state),
            }));
        }
        self.shared.deadline_changed.notify_all();
        let mut watcher = lock(&self.deadline_watcher);
        if watcher.is_none() {
            let shared = Arc::clone(&self.shared);
            *watcher = Some(
                std::thread::Builder::new()
                    .name("pagani-deadline-watcher".to_owned())
                    .spawn(move || deadline_watcher_loop(&shared))
                    .expect("spawning the deadline watcher thread failed"),
            );
        }
    }

    /// Graceful shutdown: consume the service, let every already-submitted
    /// job drain, and join the workers.  Handles issued before the call
    /// remain valid — their jobs complete (or report cancellation) before
    /// this returns.  Deadlines keep firing while the queue drains.
    pub fn shutdown(mut self) {
        self.finish();
    }

    fn finish(&mut self) {
        {
            let mut queue = lock(&self.shared.queue);
            queue.shutting_down = true;
        }
        self.shared.work.notify_all();
        self.shared.space.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Workers are gone, so every job has completed; pending deadlines are
        // dead weight and the watcher can stop immediately.
        {
            let mut deadlines = lock(&self.shared.deadlines);
            deadlines.shutting_down = true;
            deadlines.armed.clear();
        }
        self.shared.deadline_changed.notify_all();
        if let Some(watcher) = lock(&self.deadline_watcher).take() {
            let _ = watcher.join();
        }
    }
}

impl Drop for IntegrationService {
    fn drop(&mut self) {
        self.finish();
    }
}

fn worker_loop(shared: &ServiceShared) {
    // One arena per worker: scratch storage recycles across every job this
    // worker executes, exactly as in the batch engine.
    let arena = ScratchArena::new();
    loop {
        let claimed = {
            let mut queue = lock(&shared.queue);
            loop {
                if let Some(job) = queue.jobs.pop() {
                    break Some(job);
                }
                if queue.shutting_down {
                    break None;
                }
                queue = shared
                    .work
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some(QueuedJob {
            job,
            state,
            priority,
            enqueued_at,
            charge_micros,
            predicted,
            on_complete,
            ..
        }) = claimed
        else {
            return;
        };
        // A slot just freed: wake one submitter parked on a bounded queue.
        shared.space.notify_one();
        lock(&shared.obs.waits)[priority as usize].record(enqueued_at.elapsed());
        // A panicking job must neither kill this worker nor strand its
        // waiters: capture the payload and re-raise it handle-side.  The
        // shared state touched during the unwind is panic-safe — the arena
        // shelves only value-transparent scratch storage and the job's
        // isolated device view is discarded wholesale.
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_job(shared, &arena, &job, &state.cancel)
        }));
        // Retire the admission charge at exactly the value it was charged at
        // and feed the measurement back — all before the outcome publishes,
        // so anyone who observed the job as complete also observes its
        // accounting.
        *lock(&shared.obs.outstanding_micros) -= charge_micros;
        shared.obs.completed.fetch_add(1, AtomicOrdering::Relaxed);
        if let Ok((output, from_cache)) = &run {
            if output.result.termination == Termination::Cancelled {
                // A cancelled run's partial wall time would bias the model
                // low: count it, learn nothing from it.
                shared.obs.cancelled.fetch_add(1, AtomicOrdering::Relaxed);
            } else if *from_cache {
                // A cache hit's near-zero wall time says nothing about what
                // computing this bucket costs: count nothing into the model.
            } else {
                let wall_time = output.result.wall_time;
                shared
                    .cost_model
                    .record_job(&job, shared.config.tolerances, wall_time);
                if let Some(predicted) = predicted {
                    let p = predicted.as_secs_f64();
                    if p > 0.0 {
                        let error = (wall_time.as_secs_f64() - p).abs() / p;
                        lock(&shared.obs.prediction_error).observe(error);
                    }
                }
            }
        }
        let outcome = match run {
            Ok((output, _)) => JobOutcome::Finished(output),
            Err(payload) => JobOutcome::Panicked(panic_message(payload.as_ref())),
        };
        // The hook runs before the outcome is published so that anyone who
        // observed the job as complete (via wait/try_result) also observes
        // its side effects — the multi-device dispatcher relies on the job's
        // estimated cost being retired by the time a wait() returns.
        if let Some(hook) = on_complete {
            hook(&outcome);
        }
        state.complete(outcome);
    }
}

/// Run one job, returning its output and whether it was served from the
/// cache (cache-served jobs must not feed the cost model).
fn run_job(
    shared: &ServiceShared,
    arena: &ScratchArena,
    job: &BatchJob,
    cancel: &CancelToken,
) -> (PaganiOutput, bool) {
    if cancel.is_cancelled() {
        return (cancelled_before_start(), false);
    }
    // Exact cache hit: served before the admission gate and before any
    // memory view exists, so a hit performs zero device launches.
    if job.method().is_none() {
        if let Some(cache) = &shared.cache {
            let key = job_cache_key(job, shared.config.tolerances);
            if let Some(hit) = cache.lookup_result(&key) {
                shared.obs.cache_hits.fetch_add(1, AtomicOrdering::Relaxed);
                shared
                    .obs
                    .evals_saved
                    .fetch_add(hit.function_evaluations, AtomicOrdering::Relaxed);
                return (output_from_cached(&hit), true);
            }
            shared
                .obs
                .cache_misses
                .fetch_add(1, AtomicOrdering::Relaxed);
        }
    }
    let Some(_permit) = shared
        .device
        .submission_gate()
        .acquire_unless(|| cancel.is_cancelled())
    else {
        return (cancelled_before_start(), false);
    };
    let view = shared.device.isolated_memory_view();
    match job.method() {
        // Per-job method override: build the configured integrator on the
        // job's isolated view and route through the trait's cancellable entry
        // point.  Host-only methods simply ignore the view.  Overridden jobs
        // bypass the cache — the key cannot see the override's configuration.
        Some(factory) => {
            let integrator = factory.build(&view);
            let result =
                integrator.integrate_region_cancellable(job.integrand(), job.region(), cancel);
            (
                PaganiOutput {
                    result,
                    trace: ExecutionTrace::default(),
                },
                false,
            )
        }
        // Default path: the service's PAGANI configuration with the worker's
        // long-lived arena (bit-identical to the sequential single-shot API).
        None => {
            let pagani = Pagani::new(view, shared.config.clone());
            match &shared.cache {
                None => (
                    pagani.integrate_region_with(job.integrand(), job.region(), arena, cancel),
                    false,
                ),
                Some(cache) => (
                    run_cached_job(shared, cache, &pagani, arena, job, cancel),
                    false,
                ),
            }
        }
    }
}

/// The cache-enabled default path: warm-start from the best feasible
/// snapshot, fall back to a cold (but resumable) run, and persist whatever
/// the run learned — a converged result plus tree, or a partial tree.
fn run_cached_job(
    shared: &ServiceShared,
    cache: &ResultCache,
    pagani: &Pagani,
    arena: &ScratchArena,
    job: &BatchJob,
    cancel: &CancelToken,
) -> PaganiOutput {
    let tolerances = shared.config.tolerances;
    let key = job_cache_key(job, tolerances);
    let warm = cache
        .lookup_snapshot(&key.integrand_id, &key.region_lo_bits, &key.region_hi_bits)
        .filter(|snap| warm_start_feasible(snap.latest_estimate, snap.finished_error, tolerances));
    let resumable = match warm {
        Some(snapshot) => match pagani.resume_from(job.integrand(), &snapshot, arena, cancel) {
            Ok(out) => {
                shared.obs.warm_starts.fetch_add(1, AtomicOrdering::Relaxed);
                if !snapshot.converged {
                    shared.obs.resumed.fetch_add(1, AtomicOrdering::Relaxed);
                }
                shared
                    .obs
                    .evals_saved
                    .fetch_add(snapshot.function_evaluations, AtomicOrdering::Relaxed);
                out
            }
            // A snapshot this device cannot resume (it may be smaller than
            // the one that wrote it): fall back to a cold run.
            Err(_) => pagani.integrate_resumable(job.integrand(), job.region(), arena, cancel, 0),
        },
        None => pagani.integrate_resumable(job.integrand(), job.region(), arena, cancel, 0),
    };
    if let Some(snapshot) = resumable.final_snapshot {
        let converged = resumable.output.result.termination == Termination::Converged;
        let result = converged.then(|| cached_from_output(&resumable.output));
        cache.store(key, result, Some(snapshot));
        shared
            .obs
            .checkpoints_written
            .fetch_add(1, AtomicOrdering::Relaxed);
    }
    resumable.output
}

/// The cache key of a default-path job: integrand name, region corners and
/// the service-wide `tolerances` (per-job method overrides never reach the
/// cache).  Every layer that touches a cache — the local services, the
/// distributed front-end's crash-recovery store and the remote worker —
/// keys it here.
pub(crate) fn job_cache_key(job: &BatchJob, tolerances: Tolerances) -> CacheKey {
    CacheKey::new(
        &job.integrand().name(),
        job.region().lo(),
        job.region().hi(),
        tolerances.rel,
        tolerances.abs,
    )
}

/// Whether a snapshot — its best estimate and frozen finished error — can
/// still converge under `tolerances`: the frozen error must leave at least
/// half the allowed total error as headroom for the regions still being
/// refined.  A snapshot from a looser run may have committed more error
/// than a tighter budget allows — resuming it could never converge, so such
/// jobs run cold instead.
fn warm_start_feasible(latest_estimate: f64, finished_error: f64, tolerances: Tolerances) -> bool {
    let allowed = (latest_estimate.abs() * tolerances.rel).max(tolerances.abs);
    finished_error <= 0.5 * allowed
}

/// Rehydrate a cached converged result into a job output.  The trace is
/// empty and the wall time is the (near-zero) serving time, but estimate,
/// error and counters are exactly the original run's.
fn output_from_cached(hit: &CachedResult) -> PaganiOutput {
    PaganiOutput {
        result: IntegrationResult {
            estimate: hit.estimate,
            error_estimate: hit.error_estimate,
            termination: Termination::Converged,
            iterations: hit.iterations,
            function_evaluations: hit.function_evaluations,
            regions_generated: hit.regions_generated,
            active_regions_final: 0,
            wall_time: Duration::ZERO,
        },
        trace: ExecutionTrace::default(),
    }
}

/// The cacheable part of a converged output.
fn cached_from_output(output: &PaganiOutput) -> CachedResult {
    CachedResult {
        estimate: output.result.estimate,
        error_estimate: output.result.error_estimate,
        iterations: output.result.iterations,
        function_evaluations: output.result.function_evaluations,
        regions_generated: output.result.regions_generated,
    }
}

/// The deadline watcher: sleeps until the earliest armed deadline, then
/// cancels the job behind it (a no-op if the job already completed) and wakes
/// any worker parked in the device's admission line so the cancellation
/// predicate is re-checked.  Runs only on services that have seen at least
/// one deadline job.
fn deadline_watcher_loop(shared: &ServiceShared) {
    let mut deadlines = lock(&shared.deadlines);
    loop {
        let now = Instant::now();
        // Fire everything due.
        let mut fired = false;
        while let Some(Reverse(entry)) = deadlines.armed.peek() {
            if entry.at > now {
                break;
            }
            let Some(Reverse(entry)) = deadlines.armed.pop() else {
                break;
            };
            if let Some(state) = entry.state.upgrade() {
                // A deadline firing on a still-incomplete job is a miss; on a
                // completed job it is a no-op (cancel-race rule) and counts
                // for nothing.
                if lock(&state.slot).is_none() {
                    shared
                        .obs
                        .deadline_misses
                        .fetch_add(1, AtomicOrdering::Relaxed);
                }
                state.cancel.cancel();
                fired = true;
            }
        }
        if fired {
            // The gate mutex is only ever acquired after the deadline lock
            // (never the other way around), so notifying here cannot invert.
            shared.device.submission_gate().notify_waiters();
        }
        if deadlines.shutting_down {
            return;
        }
        deadlines = match deadlines.armed.peek() {
            Some(Reverse(entry)) => {
                let wait = entry.at.saturating_duration_since(Instant::now());
                shared
                    .deadline_changed
                    .wait_timeout(deadlines, wait)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0
            }
            None => shared
                .deadline_changed
                .wait(deadlines)
                .unwrap_or_else(PoisonError::into_inner),
        };
    }
}

/// The output of a job cancelled before its first driver iteration.
pub(crate) fn cancelled_before_start() -> PaganiOutput {
    PaganiOutput {
        result: IntegrationResult {
            estimate: 0.0,
            error_estimate: f64::INFINITY,
            termination: Termination::Cancelled,
            iterations: 0,
            function_evaluations: 0,
            regions_generated: 0,
            active_regions_final: 0,
            wall_time: Duration::ZERO,
        },
        trace: ExecutionTrace::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pagani_device::DeviceConfig;
    use pagani_integrands::paper::PaperIntegrand;
    use pagani_quadrature::{FnIntegrand, Tolerances};

    fn service(workers: usize) -> IntegrationService {
        let device = Device::new(
            DeviceConfig::test_small()
                .with_memory_capacity(32 << 20)
                .with_worker_threads(workers),
        );
        crate::ServiceBuilder::new(PaganiConfig::test_small(Tolerances::rel(1e-4)))
            .device(device)
            .build()
    }

    /// A single-worker service on a single-worker device, with `policy`.
    fn one_worker(tolerances: Tolerances, policy: ServicePolicy) -> IntegrationService {
        crate::ServiceBuilder::new(PaganiConfig::test_small(tolerances))
            .device(Device::new(
                DeviceConfig::test_small().with_worker_threads(1),
            ))
            .policy(policy.with_workers(1))
            .build()
    }

    #[test]
    fn submit_wait_roundtrip() {
        let service = service(2);
        let handle = service.submit(BatchJob::new(PaperIntegrand::f4(3)));
        let output = handle.wait();
        assert!(output.result.converged());
        assert!(handle.is_finished());
        assert_eq!(
            handle.try_result().unwrap().result.estimate.to_bits(),
            output.result.estimate.to_bits()
        );
        service.shutdown();
    }

    #[test]
    fn try_result_is_none_until_completion() {
        let service = service(1);
        // No workers are free yet for the second job while the first runs, so
        // its try_result is None at submission time.
        let first = service.submit(BatchJob::new(PaperIntegrand::f4(4)));
        let second = service.submit(BatchJob::new(PaperIntegrand::f3(3)));
        assert!(second.try_result().is_none() || second.is_finished());
        assert!(first.wait().result.converged());
        assert!(second.wait().result.converged());
        service.shutdown();
    }

    #[test]
    fn handles_outlive_the_service() {
        let service = service(2);
        let handles: Vec<JobHandle> = (0..4)
            .map(|_| service.submit(BatchJob::new(PaperIntegrand::f4(3))))
            .collect();
        service.shutdown();
        for handle in &handles {
            assert!(handle.wait().result.converged());
        }
    }

    #[test]
    fn drop_drains_like_shutdown() {
        let handle = {
            let service = service(1);
            service.submit(BatchJob::new(PaperIntegrand::f3(3)))
            // Service dropped here without an explicit shutdown.
        };
        assert!(handle.wait().result.converged());
    }

    #[test]
    fn panicking_job_propagates_at_the_handle_and_spares_the_worker() {
        let service = service(1);
        // Dimension mismatch panics inside the driver, on the worker thread.
        let bad = BatchJob::new(FnIntegrand::new(2, |_: &[f64]| 1.0))
            .over(pagani_quadrature::Region::unit_cube(3));
        let poisoned = service.submit(bad);
        let healthy = service.submit(BatchJob::new(PaperIntegrand::f4(3)));
        // The worker survived the panic and served the next job...
        assert!(healthy.wait().result.converged());
        // ...and the panic surfaces on whoever waits on the poisoned handle.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| poisoned.wait()));
        let payload = caught.expect_err("the job's panic must re-raise at wait()");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            message.contains("dimensions differ"),
            "unexpected panic message: {message}"
        );
        service.shutdown();
    }

    #[test]
    fn priority_orders_claims_within_the_queue() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Mutex as StdMutex;
        // One worker, parked on a blocker; then one job per priority level,
        // low first.  Claim order must be High, Normal, Low despite the
        // submission order.
        let started = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));
        let (s, r) = (Arc::clone(&started), Arc::clone(&release));
        let blocker = FnIntegrand::new(2, move |_: &[f64]| {
            s.store(true, Ordering::Release);
            while !r.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            1.0
        });
        let order: Arc<StdMutex<Vec<Priority>>> = Arc::new(StdMutex::new(Vec::new()));
        let probe = |p: Priority| {
            let order = Arc::clone(&order);
            FnIntegrand::new(2, move |_: &[f64]| {
                let mut order = order.lock().unwrap();
                if order.last() != Some(&p) {
                    order.push(p);
                }
                1.0
            })
        };
        let service = one_worker(Tolerances::rel(1e-3), ServicePolicy::new());
        let _running = service.submit(BatchJob::new(blocker));
        while !started.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        let queued: Vec<JobHandle> = [Priority::Low, Priority::Normal, Priority::High]
            .into_iter()
            .map(|p| service.submit(BatchJob::new(probe(p)).with_priority(p)))
            .collect();
        release.store(true, Ordering::Release);
        for handle in &queued {
            assert!(handle.wait().result.converged());
        }
        service.shutdown();
        assert_eq!(
            *order.lock().unwrap(),
            vec![Priority::High, Priority::Normal, Priority::Low]
        );
    }

    #[test]
    fn try_submit_refuses_at_exactly_the_bound() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let started = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));
        let (s, r) = (Arc::clone(&started), Arc::clone(&release));
        let blocker = FnIntegrand::new(2, move |_: &[f64]| {
            s.store(true, Ordering::Release);
            while !r.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            1.0
        });
        let service = one_worker(
            Tolerances::rel(1e-3),
            ServicePolicy::new().with_queue_bound(2),
        );
        // The blocker is *claimed* (not queued) once the worker picks it up.
        let running = service.submit(BatchJob::new(blocker));
        while !started.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        let first = service.try_submit(BatchJob::new(PaperIntegrand::f4(3)));
        let second = service.try_submit(BatchJob::new(PaperIntegrand::f4(3)));
        assert!(first.is_ok() && second.is_ok());
        assert_eq!(service.queued_jobs(), 2);
        let refused = service
            .try_submit(BatchJob::new(PaperIntegrand::f4(3)))
            .expect_err("the queue is at its bound");
        let Rejected::QueueFull(ref full) = refused else {
            panic!("expected QueueFull, got {refused:?}");
        };
        assert_eq!(full.bound, 2);
        assert_eq!(service.metrics().rejected_queue_full, 1);
        // The rejected job comes back intact and can be resubmitted once the
        // worker frees a slot.
        release.store(true, Ordering::Release);
        assert!(running.wait().result.converged());
        let mut job = refused.into_job();
        let retried = loop {
            match service.try_submit(job) {
                Ok(handle) => break handle,
                Err(still_full) => {
                    job = still_full.into_job();
                    std::thread::yield_now();
                }
            }
        };
        assert!(retried.wait().result.converged());
        service.shutdown();
    }

    #[test]
    fn blocking_submit_waits_for_space_on_a_bounded_queue() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let started = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));
        let (s, r) = (Arc::clone(&started), Arc::clone(&release));
        let blocker = FnIntegrand::new(2, move |_: &[f64]| {
            s.store(true, Ordering::Release);
            while !r.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            1.0
        });
        let service = one_worker(
            Tolerances::rel(1e-3),
            ServicePolicy::new().with_queue_bound(1),
        );
        let running = service.submit(BatchJob::new(blocker));
        while !started.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        // Fill the single queue slot; the next blocking submit must park on
        // the space condvar instead of refusing or queueing past the bound.
        let queued = service.submit(BatchJob::new(PaperIntegrand::f4(3)));
        assert_eq!(service.queued_jobs(), 1);
        let unblocked = Arc::new(AtomicBool::new(false));
        std::thread::scope(|scope| {
            let submitter = {
                let service = &service;
                let unblocked = Arc::clone(&unblocked);
                scope.spawn(move || {
                    let handle = service.submit(BatchJob::new(PaperIntegrand::f3(3)));
                    unblocked.store(true, Ordering::Release);
                    handle
                })
            };
            // The submitter stays parked while the queue is full.
            std::thread::sleep(Duration::from_millis(50));
            assert!(
                !unblocked.load(Ordering::Acquire),
                "submit returned although the queue was at its bound"
            );
            // Freeing the worker drains the queue and wakes the submitter.
            release.store(true, Ordering::Release);
            let late = submitter.join().expect("submitter thread panicked");
            assert!(unblocked.load(Ordering::Acquire));
            assert!(late.wait().result.converged());
        });
        assert!(running.wait().result.converged());
        assert!(queued.wait().result.converged());
        service.shutdown();
    }

    #[test]
    fn deadline_cancels_a_running_job_with_partial_stats() {
        // Every evaluation dawdles, so the run is still mid-flight when the
        // deadline fires; the cancellation lands at the next iteration
        // boundary with the partial counters intact.
        let slow = FnIntegrand::new(3, |x: &[f64]| {
            std::thread::sleep(Duration::from_micros(200));
            (x[0] * x[1] * x[2]).sin().mul_add(0.1, 1.0)
        });
        let service = one_worker(Tolerances::rel(1e-12), ServicePolicy::new());
        let handle = service.submit(BatchJob::new(slow).with_deadline(Duration::from_millis(50)));
        let output = handle.wait();
        assert_eq!(output.result.termination, Termination::Cancelled);
        assert!(output.result.iterations >= 1, "cancel landed before work");
        assert!(output.result.function_evaluations > 0);
        assert!(output.result.estimate.is_finite());
        service.shutdown();
    }

    #[test]
    fn expired_deadline_on_a_queued_job_reports_cancelled() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let started = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));
        let (s, r) = (Arc::clone(&started), Arc::clone(&release));
        let blocker = FnIntegrand::new(2, move |_: &[f64]| {
            s.store(true, Ordering::Release);
            while !r.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            1.0
        });
        let service = one_worker(Tolerances::rel(1e-4), ServicePolicy::new());
        let running = service.submit(BatchJob::new(blocker));
        while !started.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        // Queued behind the blocker with a deadline that fires while waiting.
        let doomed = service
            .submit(BatchJob::new(PaperIntegrand::f4(3)).with_deadline(Duration::from_millis(20)));
        std::thread::sleep(Duration::from_millis(80));
        release.store(true, Ordering::Release);
        let output = doomed.wait();
        assert_eq!(output.result.termination, Termination::Cancelled);
        assert_eq!(output.result.function_evaluations, 0, "doomed job ran");
        assert!(running.wait().result.converged());
        service.shutdown();
    }

    #[test]
    fn generous_deadlines_change_nothing() {
        let service = service(2);
        let plain = service.submit(BatchJob::new(PaperIntegrand::f4(3)));
        let with_deadline = service
            .submit(BatchJob::new(PaperIntegrand::f4(3)).with_deadline(Duration::from_secs(3600)));
        let a = plain.wait();
        let b = with_deadline.wait();
        assert!(a.result.converged() && b.result.converged());
        assert_eq!(a.result.estimate.to_bits(), b.result.estimate.to_bits());
        service.shutdown();
    }

    #[test]
    fn cancelled_queued_job_never_runs() {
        let gate = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let release = Arc::clone(&gate);
        // A blocker that parks the single worker until we release it.
        let blocker = FnIntegrand::new(2, move |_: &[f64]| {
            while !release.load(std::sync::atomic::Ordering::Acquire) {
                std::thread::yield_now();
            }
            1.0
        });
        let service = service(1);
        let running = service.submit(BatchJob::new(blocker));
        let queued = service.submit(BatchJob::new(PaperIntegrand::f4(4)));
        queued.cancel();
        gate.store(true, std::sync::atomic::Ordering::Release);
        let cancelled = queued.wait();
        assert_eq!(cancelled.result.termination, Termination::Cancelled);
        assert_eq!(cancelled.result.function_evaluations, 0);
        assert!(running.wait().result.converged());
        service.shutdown();
    }
}
