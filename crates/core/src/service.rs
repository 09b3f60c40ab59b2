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
//! * **apply backpressure** — a [`ServiceBuilder::queue_bound`] makes
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
//!   ticket; every case reports [`Termination::Cancelled`].  A deadline is
//!   part of the job's cancel token, which counts as cancelled once the
//!   deadline has passed, so it lands at the same checkpoints,
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

use std::cmp::Reverse;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pagani_device::Device;
use pagani_persist::{CacheKey, CachedResult, ResultCache};
use pagani_quadrature::{IntegrationResult, Termination, Tolerances};

use crate::arena::ScratchArena;
use crate::batch::BatchJob;
use crate::builder::ServiceBuilder;
use crate::config::PaganiConfig;
use crate::cost::{CostModel, Ewma};
use crate::driver::{CancelToken, Pagani, PaganiOutput};
use crate::scheduler::{settle, Book, Bounce, Core, Entry, Lane, Scheduler, Ticket};
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

/// A submission was refused because the queue is at its
/// [`ServiceBuilder::queue_bound`].  Carries the rejected job back so the
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
    /// The queue is at its [`ServiceBuilder::queue_bound`] — capacity, not
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
    /// Jobs of this priority claimed so far.  An exact cache hit answered at
    /// submission is never claimed, so it is not counted and records no
    /// wait.
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
    /// Jobs ever accepted: enqueued, or answered from the cache at
    /// submission (rejected submissions are *not* counted here).
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
    /// Completed jobs that reported [`Termination::Cancelled`] after their
    /// deadline had passed.
    pub deadline_misses: u64,
    /// The admission backlog: the summed cache-discounted predicted wall
    /// time, per the [`CostModel`], of every queued or running job.  A job
    /// priced while the model was cold adds nothing.
    pub outstanding_predicted: Duration,
    /// EWMA of this lane's relative cost-prediction error
    /// `|actual − predicted| / predicted`, or `None` before the first
    /// predicted-and-measured completion.
    pub prediction_error_ewma: Option<f64>,
    /// Per-priority wait statistics of the jobs workers claimed, indexed
    /// `[Low, Normal, High]` — use [`ServiceMetrics::wait`] for by-priority
    /// access.  Exact cache hits answered at submission wait for nothing
    /// and are not in them.
    pub waits: [WaitStats; 3],
    /// Jobs served straight from the [`ResultCache`] without touching a
    /// device: answered at submission, or at claim when a twin finished
    /// while they waited in the queue (always 0 on a cache-less service).
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

/// Shared observability state: monotone counters, per-priority wait
/// reservoirs and the prediction-error EWMA.  Each local lane keeps its own;
/// the remote lanes of a [`crate::remote::DistributedService`] share one, so
/// local and distributed metrics share one vocabulary.  The outstanding
/// predicted backlog is the lanes' ledgers ([`crate::scheduler::Book`]).
#[derive(Debug, Default)]
pub(crate) struct Observability {
    pub(crate) submitted: AtomicU64,
    pub(crate) completed: AtomicU64,
    pub(crate) cancelled: AtomicU64,
    pub(crate) rejected_queue_full: AtomicU64,
    pub(crate) rejected_deadline_infeasible: AtomicU64,
    pub(crate) deadline_misses: AtomicU64,
    /// Seeded by the first predicted-and-measured completion.
    pub(crate) prediction_error: Mutex<Option<Ewma>>,
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
    /// Render the counters as a [`ServiceMetrics`] snapshot, with the queue
    /// depth and ledger total of the lanes they count.
    pub(crate) fn snapshot(&self, queue_depth: usize, outstanding_micros: f64) -> ServiceMetrics {
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
            prediction_error_ewma: lock(&self.prediction_error).and_then(|ewma| ewma.value()),
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

    /// Serve an exact cache `hit`: count it and the evaluations it saved,
    /// and rehydrate it into the job's output.
    pub(crate) fn serve_hit(&self, hit: &CachedResult) -> PaganiOutput {
        self.cache_hits.fetch_add(1, AtomicOrdering::Relaxed);
        self.evals_saved
            .fetch_add(hit.function_evaluations, AtomicOrdering::Relaxed);
        output_from_cached(hit)
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
/// retiring) its job.  Slab-split parents and the distributed front-end
/// publish into the same state, so their handles behave exactly like local
/// ones.
#[derive(Debug)]
pub(crate) struct JobState {
    /// The job's cancel token, carrying its deadline.
    pub(crate) cancel: CancelToken,
    pub(crate) slot: Mutex<Option<JobOutcome>>,
    pub(crate) done: Condvar,
}

impl JobState {
    pub(crate) fn new(cancel: CancelToken) -> Self {
        Self {
            cancel,
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

    /// Whether cancellation has been requested or the job's deadline has
    /// passed (not whether either won the race against completion).
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.state.cancel.is_cancelled()
    }
}

/// A completion hook, run with the job's outcome just before that outcome
/// is published: slab children use it to file their outcome with their
/// parent, the remote worker to report the outcome over the wire.
pub(crate) type CompletionHook = Box<dyn FnOnce(&JobOutcome) + Send>;

/// A ticket in a local lane's queue, and when it got there: claim time
/// minus this is the wait recorded in [`ServiceMetrics`].
#[derive(Debug)]
struct Queued {
    ticket: Ticket,
    enqueued_at: Instant,
}

#[derive(Debug)]
struct QueueState {
    /// Claim order: higher priority first, then submission order (FIFO
    /// within a priority level).
    jobs: BTreeMap<(Reverse<Priority>, u64), Queued>,
    shutting_down: bool,
}

/// A local lane: one device, a priority queue and resident workers that
/// run each claimed job against an isolated view of the device.
#[derive(Debug)]
pub(crate) struct LocalLane {
    shared: Arc<LaneShared>,
    resident: Mutex<Vec<JoinHandle<()>>>,
}

#[derive(Debug)]
struct LaneShared {
    device: Device,
    core: Arc<Core>,
    book: Book,
    queue: Mutex<QueueState>,
    /// Wakes workers when a job is queued (or shutdown begins).
    work: Condvar,
    /// Wakes bounded-queue submitters when a worker frees a slot.
    space: Condvar,
}

impl LocalLane {
    /// Start a lane on `device` with `workers` resident workers (default:
    /// the device's effective worker-pool width).
    fn start(device: Device, workers: Option<usize>, core: Arc<Core>) -> Self {
        let workers = workers.unwrap_or_else(|| device.effective_workers()).max(1);
        let memory = device.config().memory_capacity as u64;
        let shared = Arc::new(LaneShared {
            device,
            core,
            book: Book::new(memory, workers, Arc::default()),
            queue: Mutex::new(QueueState {
                jobs: BTreeMap::new(),
                shutting_down: false,
            }),
            work: Condvar::new(),
            space: Condvar::new(),
        });
        let resident = (0..workers)
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
            resident: Mutex::new(resident),
        }
    }

    pub(crate) fn device(&self) -> &Device {
        &self.shared.device
    }

    /// Stop taking work, let every queued job drain and join the workers.
    /// Idempotent.
    pub(crate) fn shutdown(&self) {
        lock(&self.shared.queue).shutting_down = true;
        self.shared.work.notify_all();
        self.shared.space.notify_all();
        let resident: Vec<JoinHandle<()>> = lock(&self.resident).drain(..).collect();
        for worker in resident {
            let _ = worker.join();
        }
    }
}

impl Drop for LocalLane {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Lane for LocalLane {
    fn alive(&self) -> bool {
        true
    }

    fn queued(&self) -> usize {
        lock(&self.shared.queue).jobs.len()
    }

    fn book(&self) -> &Book {
        &self.shared.book
    }

    fn enqueue(&self, ticket: Ticket, entry: &Entry<'_>) -> Result<(), Bounce> {
        let shared = &self.shared;
        let mut queue = lock(&shared.queue);
        if let Entry::Wait(Some(bound)) = entry {
            let full = |queue: &mut QueueState| queue.jobs.len() >= *bound && !queue.shutting_down;
            queue = shared
                .space
                .wait_while(queue, full)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if let Entry::Admit(admit) = entry {
            if let Some(rejected) = admit(&shared.book, queue.jobs.len(), &ticket.job) {
                return Err(Bounce::Refused(rejected));
            }
        }
        // Charge while still holding the queue lock (lock order: queue →
        // ledger) so admission never observes a queued-but-uncharged job.
        shared.book.charge(&ticket, 1.0);
        let key = (Reverse(ticket.job.priority()), ticket.id);
        let queued = Queued {
            ticket,
            enqueued_at: Instant::now(),
        };
        queue.jobs.insert(key, queued);
        drop(queue);
        shared.work.notify_one();
        Ok(())
    }

    fn handle(lanes: &Arc<[Self]>, lane: usize, ticket: &Ticket) -> JobHandle {
        JobHandle::local(Arc::clone(&ticket.state), lanes[lane].device().clone())
    }
}

impl Scheduler<LocalLane> {
    /// One local lane per device of `builder`, all sharing one cost model
    /// and cache: a wall time observed on any device prices that job family
    /// on all of them.
    pub(crate) fn local(builder: ServiceBuilder, splits: bool) -> Self {
        let core = Core::new(builder.config, builder.model, builder.cache);
        let lanes = builder
            .devices
            .into_iter()
            .map(|device| LocalLane::start(device, builder.workers, Arc::clone(&core)))
            .collect();
        Self::new(core, lanes, builder.dispatch, builder.queue_bound, splits)
    }
}

/// A resident pool of integration workers fed from one priority submission
/// queue, with per-job method selection, deadlines and backpressure.
///
/// See the [module docs](crate::service) for the execution model and the
/// determinism guarantee.
#[derive(Debug)]
pub struct IntegrationService {
    sched: Scheduler<LocalLane>,
}

impl IntegrationService {
    /// The construction path, fed by [`crate::ServiceBuilder::build`].
    pub(crate) fn from_builder(builder: ServiceBuilder) -> Self {
        Self {
            sched: Scheduler::local(builder, false),
        }
    }

    fn lane(&self) -> &LocalLane {
        &self.sched.lanes[0]
    }

    /// The device jobs run on.
    #[must_use]
    pub fn device(&self) -> &Device {
        self.lane().device()
    }

    /// The default configuration applied to jobs without a method override.
    #[must_use]
    pub fn config(&self) -> &PaganiConfig {
        &self.sched.core.config
    }

    /// Number of resident worker threads.
    #[must_use]
    pub fn worker_count(&self) -> usize {
        self.lane().book().workers
    }

    /// Number of submitted jobs not yet claimed by a worker.
    #[must_use]
    pub fn queued_jobs(&self) -> usize {
        self.lane().queued()
    }

    /// Enqueue `job` and return its handle.
    ///
    /// On an unbounded queue this returns immediately; on a bounded queue it
    /// blocks until a worker frees a slot (use
    /// [`IntegrationService::try_submit`] for refuse-instead-of-wait
    /// backpressure).  A deadline runs from this call, waiting included.
    /// A job the attached [`ResultCache`] answers exactly is served on this
    /// thread instead: it never queues or waits for space, and the handle
    /// comes back already complete (unless its deadline has already passed:
    /// then it queues and ends [`Termination::Cancelled`]).
    /// Jobs are claimed highest-priority-first, FIFO within a priority
    /// level; completed results are bit-identical to running the same job
    /// alone through [`Pagani::integrate_region`] on this device.
    #[must_use]
    pub fn submit(&self, job: BatchJob) -> JobHandle {
        self.submit_with_hook(job, None)
    }

    /// Enqueue `job` if it can be accepted, refusing with [`Rejected`] — the
    /// job handed back inside — otherwise.
    ///
    /// A job the attached [`ResultCache`] answers exactly is served on this
    /// thread before either check, exactly as in
    /// [`IntegrationService::submit`]: it is never refused.  For every
    /// other job, two admission checks run, in order:
    ///
    /// 1. **Capacity** — a queue at its
    ///    [`ServiceBuilder::queue_bound`] refuses with
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
        self.sched.try_submit(job)
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
    /// With a [`ResultCache`] attached, a job the cache answers exactly is
    /// served at submission and waits for nothing: its estimate is
    /// [`Duration::ZERO`] whatever the backlog, even while the model is
    /// cold.  Otherwise the job's own term is priced by *remaining* work:
    /// prediction minus the cached snapshot's predicted-work credit for a
    /// feasible warm start.
    #[must_use]
    pub fn estimated_completion(&self, job: &BatchJob) -> Option<Duration> {
        self.sched.estimated_completion(job)
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
        self.sched.metrics(0)
    }

    /// The [`ResultCache`] this service serves from, when one is attached.
    #[must_use]
    pub fn result_cache(&self) -> Option<&Arc<ResultCache>> {
        self.sched.core.cache.as_ref()
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
        &self.sched.core.model
    }

    /// [`IntegrationService::submit`] with an optional completion hook (the
    /// remote worker's report).  Blocks while a bounded queue is full.
    pub(crate) fn submit_with_hook(
        &self,
        job: BatchJob,
        on_complete: Option<CompletionHook>,
    ) -> JobHandle {
        self.sched.submit(job, on_complete)
    }

    /// Graceful shutdown: consume the service, let every already-submitted
    /// job drain, and join the workers.  Handles issued before the call
    /// remain valid — their jobs complete (or report cancellation) before
    /// this returns.  Deadlines keep applying while the queue drains.
    pub fn shutdown(self) {
        self.lane().shutdown();
    }
}

fn worker_loop(shared: &LaneShared) {
    // One arena per worker: scratch storage recycles across every job this
    // worker executes, exactly as in the batch engine.
    let arena = ScratchArena::new();
    loop {
        let claimed = {
            let mut queue = lock(&shared.queue);
            loop {
                if let Some((_, queued)) = queue.jobs.pop_first() {
                    break Some(queued);
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
        let Some(Queued {
            mut ticket,
            enqueued_at,
        }) = claimed
        else {
            return;
        };
        // A slot just freed: wake one submitter parked on a bounded queue.
        shared.space.notify_one();
        lock(&shared.book.obs.waits)[ticket.job.priority() as usize].record(enqueued_at.elapsed());
        // A panicking job must neither kill this worker nor strand its
        // waiters: capture the payload and re-raise it handle-side.  The
        // shared state touched during the unwind is panic-safe — the arena
        // shelves only value-transparent scratch storage and the job's
        // isolated device view is discarded wholesale.
        let key = ticket.key.take();
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_job(shared, &arena, &ticket.job, key, &ticket.state.cancel)
        }));
        let (outcome, computed) = match run {
            Ok((output, from_cache)) => (JobOutcome::Finished(output), !from_cache),
            Err(payload) => (JobOutcome::Panicked(panic_message(payload.as_ref())), false),
        };
        settle(&shared.core, &shared.book, ticket, outcome, computed);
    }
}

/// Run one job, returning its output and whether it was served from the
/// cache (cache-served jobs must not feed the cost model).  `key` is the
/// ticket's cache key: `Some` exactly for a default-path job on a cached
/// lane.
fn run_job(
    shared: &LaneShared,
    arena: &ScratchArena,
    job: &BatchJob,
    key: Option<CacheKey>,
    cancel: &CancelToken,
) -> (PaganiOutput, bool) {
    if cancel.is_cancelled() {
        return (cancelled_before_start(), false);
    }
    let config = &shared.core.config;
    let cached = shared.core.cache.as_ref().zip(key);
    // Exact cache hit: a twin of this job finished while it waited (a hit
    // at submission never reaches a worker).  Served before the admission
    // gate and before any memory view exists, so it performs zero device
    // launches.
    if let Some((cache, key)) = &cached {
        if let Some(hit) = cache.lookup_result(key) {
            return (shared.book.obs.serve_hit(&hit), true);
        }
        shared
            .book
            .obs
            .cache_misses
            .fetch_add(1, AtomicOrdering::Relaxed);
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
            let pagani = Pagani::new(view, config.clone());
            let output = match cached {
                None => pagani.integrate_region_with(job.integrand(), job.region(), arena, cancel),
                Some((cache, key)) => {
                    run_cached_job(shared, cache, key, &pagani, arena, job, cancel)
                }
            };
            (output, false)
        }
    }
}

/// The cache-enabled default path: warm-start from the best feasible
/// snapshot, fall back to a cold (but resumable) run, and persist whatever
/// the run learned — a converged result plus tree, or a partial tree.
fn run_cached_job(
    shared: &LaneShared,
    cache: &ResultCache,
    key: CacheKey,
    pagani: &Pagani,
    arena: &ScratchArena,
    job: &BatchJob,
    cancel: &CancelToken,
) -> PaganiOutput {
    let tolerances = shared.core.config.tolerances;
    let warm = cache
        .lookup_snapshot(&key.integrand_id, &key.region_lo_bits, &key.region_hi_bits)
        .filter(|snap| warm_start_feasible(snap.latest_estimate, snap.finished_error, tolerances));
    let resumable = match warm {
        Some(snapshot) => match pagani.resume_from(job.integrand(), &snapshot, arena, cancel) {
            Ok(out) => {
                shared
                    .book
                    .obs
                    .warm_starts
                    .fetch_add(1, AtomicOrdering::Relaxed);
                if !snapshot.converged {
                    shared
                        .book
                        .obs
                        .resumed
                        .fetch_add(1, AtomicOrdering::Relaxed);
                }
                shared
                    .book
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
            .book
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
pub(crate) fn warm_start_feasible(
    latest_estimate: f64,
    finished_error: f64,
    tolerances: Tolerances,
) -> bool {
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

    /// A single-worker service on a single-worker device, still to build.
    fn one_worker(tolerances: Tolerances) -> crate::ServiceBuilder {
        crate::ServiceBuilder::new(PaganiConfig::test_small(tolerances))
            .device(Device::new(
                DeviceConfig::test_small().with_worker_threads(1),
            ))
            .workers(1)
    }

    /// Opens a gate flag when dropped.  Bound after the service it gates, it
    /// opens the gate before the lane's `Drop` joins workers parked on it, so
    /// a failed assertion fails the test instead of hanging it.
    struct OpenOnDrop(Arc<std::sync::atomic::AtomicBool>);

    impl Drop for OpenOnDrop {
        fn drop(&mut self) {
            self.0.store(true, std::sync::atomic::Ordering::Release);
        }
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
        let service = one_worker(Tolerances::rel(1e-3)).build();
        let _open = OpenOnDrop(Arc::clone(&release));
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
        let service = one_worker(Tolerances::rel(1e-3)).queue_bound(2).build();
        let _open = OpenOnDrop(Arc::clone(&release));
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
        let service = one_worker(Tolerances::rel(1e-3)).queue_bound(1).build();
        let _open = OpenOnDrop(Arc::clone(&release));
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
        let service = one_worker(Tolerances::rel(1e-12)).build();
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
        let service = one_worker(Tolerances::rel(1e-4)).build();
        let _open = OpenOnDrop(Arc::clone(&release));
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
        let _open = OpenOnDrop(Arc::clone(&gate));
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
