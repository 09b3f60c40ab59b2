//! The one scheduler behind the three service front doors.
//!
//! [`crate::IntegrationService`] (one local lane),
//! [`crate::MultiDeviceService`] (a local lane per device) and
//! [`crate::remote::DistributedService`] (a remote lane per worker process)
//! are facades over a [`Scheduler`], which prices a job once, places it on a
//! lane, admits it there, splits a job no lane can hold into slabs, and
//! [`settle`]s every completion against the lane's one ledger ([`Book`]).  Lanes
//! differ only in how they run a job ([`Lane`]): a local lane queues tickets
//! for resident workers on one device, a remote lane ships them to a worker.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use pagani_persist::{CacheKey, CachedResult, ResultCache};
use pagani_quadrature::{Termination, Tolerances};

use crate::batch::BatchJob;
use crate::config::PaganiConfig;
use crate::cost::{
    estimated_job_footprint_bytes, job_tolerances, ledger_charge, slab_weights, CostKey, CostModel,
    Ewma,
};
use crate::driver::CancelToken;
use crate::multi_device::{combine_slab_outputs, DispatchMode, MultiDevicePagani};
use crate::service::{
    job_cache_key, warm_start_feasible, CompletionHook, DeadlineInfeasible, JobHandle, JobOutcome,
    JobState, Observability, QueueFull, Rejected, ServiceMetrics,
};

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What every lane of one scheduler shares: the default job configuration,
/// the measured cost model and the optional result cache.
#[derive(Debug)]
pub(crate) struct Core {
    pub(crate) config: PaganiConfig,
    pub(crate) model: Arc<CostModel>,
    pub(crate) cache: Option<Arc<ResultCache>>,
}

impl Core {
    pub(crate) fn new(
        config: PaganiConfig,
        model: Option<Arc<CostModel>>,
        cache: Option<Arc<ResultCache>>,
    ) -> Arc<Self> {
        Arc::new(Self {
            config,
            model: model.unwrap_or_default(),
            cache,
        })
    }

    /// The cache key of `job` when the cache may answer it: `None` without a
    /// cache, or for a method override (the key cannot see the override's
    /// configuration).
    pub(crate) fn cache_key(&self, job: &BatchJob) -> Option<CacheKey> {
        (self.cache.is_some() && job.method().is_none())
            .then(|| job_cache_key(job, self.config.tolerances))
    }
}

/// What the scheduler keeps of each lane: its size, its counters and its
/// one ledger — the summed charge of every job queued on or running on it.
/// Charges come from [`ledger_charge`], integer-valued and bounded, so
/// charge/retire cycles cancel exactly.
#[derive(Debug)]
pub(crate) struct Book {
    /// Device memory one job may use on the lane, bytes.
    pub(crate) memory: u64,
    /// Threads that run the lane's jobs: the divisor of its backlog.
    pub(crate) workers: usize,
    pub(crate) obs: Arc<Observability>,
    /// The ledger in two columns: `[0]` the predicted microseconds of jobs
    /// priced by a warm model, `[1]` the static weights of jobs priced while
    /// it was cold — a weight is never read as time.
    ledger: Mutex<[f64; 2]>,
}

impl Book {
    pub(crate) fn new(memory: u64, workers: usize, obs: Arc<Observability>) -> Self {
        Self {
            memory,
            workers: workers.max(1),
            obs,
            ledger: Mutex::new([0.0; 2]),
        }
    }

    /// Charge `ticket` to its column (`sign` 1), or retire it (`sign` −1).
    pub(crate) fn charge(&self, ticket: &Ticket, sign: f64) {
        let price = &ticket.price;
        lock(&self.ledger)[usize::from(price.predicted.is_none())] += sign * price.charge;
    }

    /// Both columns: the placement weight.
    pub(crate) fn charged(&self) -> f64 {
        lock(&self.ledger).iter().sum()
    }

    /// The warm column: the predicted backlog, microseconds.
    pub(crate) fn backlog(&self) -> f64 {
        lock(&self.ledger)[0]
    }
}

/// What pricing a job at submission ([`Scheduler::price`]) yields; a cache
/// hit is never priced and carries the default.
#[derive(Debug, Clone, Default)]
pub(crate) struct Price {
    /// The cost-model bucket the job was priced in, and is recorded under.
    pub(crate) cost: Option<CostKey>,
    /// The prediction at submission, scored against the wall time.
    pub(crate) predicted: Option<Duration>,
    /// Charged to the ledger of the lane holding the job, retired exactly.
    pub(crate) charge: f64,
}

/// One submitted job on its way through a lane.
pub(crate) struct Ticket {
    /// Submission order: the FIFO tie-break, and the wire job id.
    pub(crate) id: u64,
    pub(crate) job: BatchJob,
    /// The job's cache key ([`Core::cache_key`]), built once with the ticket.
    pub(crate) key: Option<CacheKey>,
    pub(crate) state: Arc<JobState>,
    pub(crate) price: Price,
    pub(crate) on_complete: Option<CompletionHook>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("id", &self.id)
            .field("job", &self.job)
            .field("charge", &self.price.charge)
            .finish()
    }
}

/// How a ticket enters a lane's queue.
pub(crate) enum Entry<'a> {
    /// Wait for space below this queue bound, if any.
    Wait(Option<usize>),
    /// Refuse instead of waiting: the check runs under the lane's queue lock
    /// against its book, its current depth and the job.
    Admit(&'a dyn Fn(&Book, usize, &BatchJob) -> Option<Rejected>),
}

/// A ticket a lane did not take, handed back (boxed: the cold path).
pub(crate) enum Bounce {
    Refused(Rejected),
    /// The lane died before the ticket was filed: place it again.
    Dead(Box<Ticket>),
}

/// How one kind of lane runs jobs.
pub(crate) trait Lane: Sized {
    /// Whether the lane takes jobs now (a remote lane dies with its
    /// connection).
    fn alive(&self) -> bool;
    /// Jobs counted against the queue bound: unclaimed on a local lane,
    /// shipped and unreported on a remote one.
    fn queued(&self) -> usize;
    fn book(&self) -> &Book;
    /// File `ticket` and charge it to the ledger, or hand it back.
    fn enqueue(&self, ticket: Ticket, entry: &Entry<'_>) -> Result<(), Bounce>;
    /// The caller's handle on `ticket`, filed on `lanes[lane]`.
    fn handle(lanes: &Arc<[Self]>, lane: usize, ticket: &Ticket) -> JobHandle;
}

/// The scheduling policy of one front door over its lanes.
#[derive(Debug)]
pub(crate) struct Scheduler<L> {
    pub(crate) core: Arc<Core>,
    pub(crate) lanes: Arc<[L]>,
    pub(crate) mode: DispatchMode,
    bound: Option<usize>,
    /// Whether a job no lane holds is cut into slabs (the pool front doors)
    /// or runs whole (the single-device service).
    splits: bool,
    rotation: AtomicUsize,
    next_id: AtomicU64,
}

impl<L: Lane> Scheduler<L> {
    pub(crate) fn new(
        core: Arc<Core>,
        lanes: Vec<L>,
        mode: DispatchMode,
        bound: Option<usize>,
        splits: bool,
    ) -> Self {
        Self {
            core,
            lanes: lanes.into(),
            mode,
            bound,
            splits,
            rotation: AtomicUsize::new(0),
            next_id: AtomicU64::new(0),
        }
    }

    /// Submit `job`, waiting for queue space on a bounded lane.
    pub(crate) fn submit(&self, job: BatchJob, on_complete: Option<CompletionHook>) -> JobHandle {
        let Ok(handle) = self.enter(job, false, on_complete) else {
            unreachable!("a waiting submission is never refused")
        };
        handle
    }

    /// Submit `job` unless the chosen lane's admission refuses it.
    pub(crate) fn try_submit(&self, job: BatchJob) -> Result<JobHandle, Rejected> {
        self.enter(job, true, None)
    }

    /// Answer `job` here when the cache holds its exact converged result;
    /// otherwise split it when no lane holds it, or place it and file it on
    /// the chosen lane — with `refuse`, through that lane's admission.  The
    /// job's deadline runs from here, before any wait for queue space.
    fn enter(
        &self,
        job: BatchJob,
        refuse: bool,
        on_complete: Option<CompletionHook>,
    ) -> Result<JobHandle, Rejected> {
        let cancel = CancelToken::with_deadline(job.deadline());
        let key = self.core.cache_key(&job);
        let mut exact = false;
        if let (Some(cache), Some(key)) = (&self.core.cache, &key) {
            // A job whose deadline has already passed is not answered: it
            // must end Cancelled, at claim.  A non-bumping peek still prices
            // an exact result at zero.
            if cancel.expired() {
                exact = cache.contains_result(key);
            } else if let Some(hit) = cache.lookup_result(key) {
                return Ok(self.answer(job, cancel, &hit, on_complete));
            }
        }
        let price = self.price(&job, key.as_ref(), exact);
        let predicted = price.predicted;
        let footprint = estimated_job_footprint_bytes(&job, self.core.config.tolerances);
        let ticket = self.ticket(job, key, cancel, price, on_complete);
        let Some(parts) = self.slabs_needed(&ticket.job, footprint) else {
            let admit =
                |book: &Book, queued, job: &BatchJob| self.refusal(book, queued, job, predicted);
            let entry = if refuse {
                Entry::Admit(&admit)
            } else {
                Entry::Wait(self.bound)
            };
            return self
                .file(ticket, footprint, &entry, true)
                .map(|(handle, _)| handle);
        };
        // Hooks come only through the single-device service, which never
        // splits.
        debug_assert!(ticket.on_complete.is_none(), "a split job takes no hook");
        // Slab children skip admission (they exist because the whole job
        // fits no lane, and the model prices whole jobs): refuse up front
        // only when every live lane's queue is full (counted on the lane
        // placement would pick), and then file them past the bound rather
        // than wait.
        let live = || self.lanes.iter().filter(|lane| lane.alive());
        match self
            .bound
            .filter(|&bound| refuse && live().all(|l| l.queued() >= bound))
        {
            Some(bound) => {
                let lane = self.place(footprint, false).unwrap_or(0);
                Err(queue_full(self.lanes[lane].book(), bound, ticket.job))
            }
            None => Ok(self.split(ticket, parts, footprint, self.bound.filter(|_| !refuse))),
        }
    }

    /// Serve `job` from `hit`, the cache's exact converged result, on the
    /// submitting thread: counted on the lane placement would pick (taking
    /// no round-robin turn), charged to no ledger, never queued, and settled
    /// without teaching the cost model.  The handle is already complete.
    fn answer(
        &self,
        job: BatchJob,
        cancel: CancelToken,
        hit: &CachedResult,
        on_complete: Option<CompletionHook>,
    ) -> JobHandle {
        let footprint = estimated_job_footprint_bytes(&job, self.core.config.tolerances);
        let book = self.lanes[self.place(footprint, false).unwrap_or(0)].book();
        book.obs.submitted.fetch_add(1, AtomicOrdering::Relaxed);
        let outcome = JobOutcome::Finished(book.obs.serve_hit(hit));
        let ticket = self.ticket(job, None, cancel, Price::default(), on_complete);
        let handle = JobHandle::detached(Arc::clone(&ticket.state), None);
        settle(&self.core, book, ticket, outcome, false);
        handle
    }

    /// Price `job` once: its cost-model bucket, the model's prediction,
    /// discounted by what the cache holds under `key` (`exact`: a converged
    /// result; otherwise a non-bumping snapshot peek, so pricing never
    /// perturbs LRU order), and its [`ledger_charge`].
    fn price(&self, job: &BatchJob, key: Option<&CacheKey>, exact: bool) -> Price {
        let cost = CostKey::for_job(job, self.core.config.tolerances);
        let predicted = self
            .core
            .model
            .predict(&cost)
            .map(|full| self.remaining(job, key, exact, full));
        Price {
            charge: ledger_charge(&cost, predicted),
            cost: Some(cost),
            predicted,
        }
    }

    /// `full`, less what the cache already holds for `job` under `key`:
    /// zero for an `exact` hit, less the snapshot's predicted-work credit
    /// for a feasible warm start.
    fn remaining(
        &self,
        job: &BatchJob,
        key: Option<&CacheKey>,
        exact: bool,
        full: Duration,
    ) -> Duration {
        let (Some(cache), Some(key)) = (&self.core.cache, key) else {
            return full;
        };
        if exact {
            return Duration::ZERO;
        }
        let tolerances = self.core.config.tolerances;
        let banked = cache
            .peek_warm_start(&key.integrand_id, &key.region_lo_bits, &key.region_hi_bits)
            .filter(|info| {
                warm_start_feasible(info.latest_estimate, info.finished_error, tolerances)
            })
            .and_then(|info| {
                self.core.model.predict(&CostKey::new(
                    &key.integrand_id,
                    job.region().dim(),
                    Tolerances {
                        rel: info.rel_tol,
                        abs: info.abs_tol,
                    },
                ))
            });
        // Work banked at the snapshot's own tolerance is work this job will
        // not redo.  Keep a 10% floor: resuming still re-runs the snapshot's
        // final generation and the tail of refinement.
        banked.map_or(full, |banked| full.saturating_sub(banked).max(full / 10))
    }

    /// The lane for a job of `footprint` bytes, or `None` when no lane is
    /// live.  Candidates are the live lanes whose memory holds the job
    /// whole, or every live lane when none does.  `RoundRobin` takes them in
    /// turn (advancing the turn only when `rotate`), so on identical lanes
    /// job `i` lands on lane `i mod n`; `CostBalanced` prefers candidates
    /// with queue space and takes the least charge per worker, ties to the
    /// lowest index.
    fn place(&self, footprint: f64, rotate: bool) -> Option<usize> {
        let lanes = &self.lanes;
        if lanes.len() == 1 {
            return lanes[0].alive().then_some(0);
        }
        let holds = |i: &usize| lanes[*i].book().memory as f64 >= footprint;
        let live = |i: &usize| lanes[*i].alive();
        let any_holds = (0..lanes.len()).filter(live).any(|i| holds(&i));
        let fits = |i: &usize| live(i) && (!any_holds || holds(i));
        match self.mode {
            DispatchMode::RoundRobin => {
                let count = (0..lanes.len()).filter(fits).count().max(1);
                let turn = self
                    .rotation
                    .fetch_add(usize::from(rotate), AtomicOrdering::Relaxed);
                (0..lanes.len()).filter(fits).nth(turn % count)
            }
            DispatchMode::CostBalanced => {
                let space = |i: &usize| self.bound.is_none_or(|bound| lanes[*i].queued() < bound);
                let any_space = (0..lanes.len()).filter(fits).any(|i| space(&i));
                let load = |i: usize| lanes[i].book().charged() / lanes[i].book().workers as f64;
                (0..lanes.len())
                    .filter(|i| fits(i) && (!any_space || space(i)))
                    .min_by(|&a, &b| load(a).total_cmp(&load(b)))
            }
        }
    }

    /// The admission check on the lane of `book` at queue depth `queued`:
    /// the queue bound, then — for a job with a deadline and a priced model
    /// — whether the lane's backlog plus the job's own prediction fits the
    /// deadline.  A cold model admits optimistically.  A refusal is counted
    /// and hands the job back.
    fn refusal(
        &self,
        book: &Book,
        queued: usize,
        job: &BatchJob,
        predicted: Option<Duration>,
    ) -> Option<Rejected> {
        if let Some(bound) = self.bound.filter(|&bound| queued >= bound) {
            return Some(queue_full(book, bound, job.clone()));
        }
        let deadline = job.deadline()?;
        let estimated = completion(book, predicted?);
        (estimated > deadline).then(|| {
            book.obs
                .rejected_deadline_infeasible
                .fetch_add(1, AtomicOrdering::Relaxed);
            Rejected::DeadlineInfeasible(Box::new(DeadlineInfeasible {
                estimated,
                deadline,
                job: job.clone(),
            }))
        })
    }

    /// Predicted completion time of `job` from now: zero when the cache
    /// holds its exact result (answered at submission, it waits for
    /// nothing), otherwise the backlog per worker of the lane it would be
    /// placed on plus the job's own prediction.  `None` while the model is
    /// cold.
    pub(crate) fn estimated_completion(&self, job: &BatchJob) -> Option<Duration> {
        let key = self.core.cache_key(job);
        if let (Some(cache), Some(key)) = (&self.core.cache, &key) {
            if cache.contains_result(key) {
                return Some(Duration::ZERO);
            }
        }
        let predicted = self.price(job, key.as_ref(), false).predicted?;
        let footprint = estimated_job_footprint_bytes(job, self.core.config.tolerances);
        Some(completion(
            self.lanes[self.place(footprint, false)?].book(),
            predicted,
        ))
    }

    /// Lane `lane`'s metrics snapshot.
    pub(crate) fn metrics(&self, lane: usize) -> ServiceMetrics {
        let lane = &self.lanes[lane];
        lane.book()
            .obs
            .snapshot(lane.queued(), lane.book().backlog())
    }

    fn ticket(
        &self,
        job: BatchJob,
        key: Option<CacheKey>,
        cancel: CancelToken,
        price: Price,
        on_complete: Option<CompletionHook>,
    ) -> Ticket {
        Ticket {
            id: self.next_id.fetch_add(1, AtomicOrdering::Relaxed),
            job,
            key,
            state: Arc::new(JobState::new(cancel)),
            price,
            on_complete,
        }
    }

    /// File a ticket whose lane died on a surviving lane, without a queue
    /// bound.  Returns whether a survivor took it.
    pub(crate) fn requeue(&self, ticket: Ticket) -> bool {
        let footprint = estimated_job_footprint_bytes(&ticket.job, self.core.config.tolerances);
        matches!(
            self.file(ticket, footprint, &Entry::Wait(None), false),
            Ok((_, true))
        )
    }

    /// Place `ticket` and file it on the chosen lane through `entry`,
    /// placing it again while the chosen lane turns out dead.  A `fresh`
    /// ticket counts as submitted.  A ticket no live lane can take fails.
    /// Returns its handle and whether a lane took it.
    fn file(
        &self,
        mut ticket: Ticket,
        footprint: f64,
        entry: &Entry<'_>,
        fresh: bool,
    ) -> Result<(JobHandle, bool), Rejected> {
        let count = |lane: &L| {
            let submitted = &lane.book().obs.submitted;
            submitted.fetch_add(u64::from(fresh), AtomicOrdering::Relaxed);
        };
        while let Some(index) = self.place(footprint, true) {
            let lane = &self.lanes[index];
            let handle = L::handle(&self.lanes, index, &ticket);
            match lane.enqueue(ticket, entry) {
                Ok(()) => {
                    count(lane);
                    return Ok((handle, true));
                }
                Err(Bounce::Dead(back)) => ticket = *back,
                Err(Bounce::Refused(rejected)) => return Err(rejected),
            }
        }
        // Charged to no lane: retiring it from lane 0 must change nothing.
        ticket.price.charge = 0.0;
        count(&self.lanes[0]);
        let handle = JobHandle::detached(Arc::clone(&ticket.state), None);
        let outcome = JobOutcome::Panicked("connection to every remote worker lost".to_owned());
        settle(&self.core, self.lanes[0].book(), ticket, outcome, false);
        Ok((handle, false))
    }

    /// How many slabs `job` must be cut into: `None` when a live lane holds
    /// it whole, when this front door runs every job whole, or when it
    /// carries a method override (baselines have no slab-composition story);
    /// otherwise enough slabs for the smallest live lane.
    fn slabs_needed(&self, job: &BatchJob, footprint: f64) -> Option<usize> {
        if !self.splits || job.method().is_some() {
            return None;
        }
        let (smallest, largest) = self
            .lanes
            .iter()
            .filter(|lane| lane.alive())
            .map(|lane| lane.book().memory as f64)
            .fold((f64::INFINITY, 0.0f64), |(lo, hi), m| {
                (lo.min(m), hi.max(m))
            });
        (footprint > largest && largest > 0.0)
            .then(|| ((footprint / smallest).ceil() as usize).clamp(2, 64))
    }

    /// Cut the job of `parent` into `parts` [`MultiDevicePagani::partition`]
    /// slabs and file each child — sharing the parent's cancel token,
    /// deadline, prediction and cost-model bucket (same name, dimension and
    /// tolerances), waiting for space below `bound`, if any — with its
    /// [`slab_weights`] share of the parent's charge, so the children's
    /// charges sum to exactly what the whole job would have charged.  Each
    /// child's completion hook files its outcome with the parent; the last
    /// one publishes the [`combine_slab_outputs`] fold, or the first panic
    /// in slab order.  Cancelling the parent cancels every child.
    fn split(
        &self,
        parent: Ticket,
        parts: usize,
        footprint: f64,
        bound: Option<usize>,
    ) -> JobHandle {
        let (job, cancel) = (&parent.job, &parent.state.cancel);
        let slabs = MultiDevicePagani::partition(job.region(), parts);
        let weights = slab_weights(parent.price.charge, &slabs);
        let filer = Arc::new(SlabParent {
            state: Arc::clone(&parent.state),
            tolerances: job_tolerances(job, self.core.config.tolerances),
            outcomes: Mutex::new(vec![None; slabs.len()]),
        });
        let children: Vec<JobHandle> = slabs
            .into_iter()
            .zip(weights)
            .enumerate()
            .map(|(slab, (region, weight))| {
                let filer = Arc::clone(&filer);
                let hook: CompletionHook = Box::new(move |outcome| filer.file(slab, outcome));
                let child = job.clone().over(region);
                let key = self.core.cache_key(&child);
                let price = Price {
                    charge: weight,
                    ..parent.price.clone()
                };
                let ticket = self.ticket(child, key, cancel.clone(), price, Some(hook));
                let Ok((handle, _)) = self.file(ticket, footprint, &Entry::Wait(bound), true)
                else {
                    unreachable!("a waiting entry is never refused")
                };
                handle
            })
            .collect();
        JobHandle::detached(
            Arc::clone(&parent.state),
            Some(Arc::new(move || {
                for child in &children {
                    child.cancel();
                }
            })),
        )
    }
}

/// Refuse `job` at the queue `bound`, counted on the lane of `book`: every
/// [`QueueFull`] is made here, so every one is counted.
fn queue_full(book: &Book, bound: usize, job: BatchJob) -> Rejected {
    let refused = &book.obs.rejected_queue_full;
    refused.fetch_add(1, AtomicOrdering::Relaxed);
    Rejected::QueueFull(Box::new(QueueFull { bound, job }))
}

/// `lane`'s backlog per worker plus `predicted`.  The backlog term ignores
/// priorities and in-flight progress; it errs on the pessimistic side under
/// load, the right bias for an admission gate.
fn completion(book: &Book, predicted: Duration) -> Duration {
    let backlog = book.backlog() / 1e6 / book.workers as f64;
    Duration::from_secs_f64(backlog.max(0.0)) + predicted
}

/// Settle one finished ticket on the lane that held it: retire its charge,
/// count it, teach the cost model from a computed (`learn`), uncancelled run
/// and score the prediction, then run the ticket's hook and publish the
/// outcome — in that order, so whoever sees the job complete also sees its
/// accounting.  A cancelled run's partial wall time would bias the model
/// low, and a cache hit's says nothing about what computing costs: neither
/// teaches it.
pub(crate) fn settle(core: &Core, book: &Book, ticket: Ticket, outcome: JobOutcome, learn: bool) {
    book.charge(&ticket, -1.0);
    let obs = &book.obs;
    obs.completed.fetch_add(1, AtomicOrdering::Relaxed);
    if let JobOutcome::Finished(output) = &outcome {
        if output.result.termination == Termination::Cancelled {
            obs.cancelled.fetch_add(1, AtomicOrdering::Relaxed);
            if ticket.state.cancel.expired() {
                obs.deadline_misses.fetch_add(1, AtomicOrdering::Relaxed);
            }
        } else if learn {
            let wall_time = output.result.wall_time;
            if let Some(cost) = &ticket.price.cost {
                core.model.record(cost, wall_time);
            }
            if let Some(p) = ticket
                .price
                .predicted
                .map(|p| p.as_secs_f64())
                .filter(|&p| p > 0.0)
            {
                let error = (wall_time.as_secs_f64() - p).abs() / p;
                lock(&obs.prediction_error)
                    .get_or_insert(Ewma::new(CostModel::DEFAULT_ALPHA))
                    .observe(error);
            }
        }
    }
    if let Some(hook) = ticket.on_complete {
        hook(&outcome);
    }
    ticket.state.complete(outcome);
}

/// The parent of a slab-split job, completed by its children's hooks.
struct SlabParent {
    state: Arc<JobState>,
    tolerances: Tolerances,
    /// Child outcomes in slab order, `None` until reported.
    outcomes: Mutex<Vec<Option<JobOutcome>>>,
}

impl SlabParent {
    /// File slab `slab`'s outcome; the last child to report publishes.
    fn file(&self, slab: usize, outcome: &JobOutcome) {
        let outcomes = {
            let mut outcomes = lock(&self.outcomes);
            outcomes[slab] = Some(outcome.clone());
            if outcomes.iter().any(Option::is_none) {
                return;
            }
            std::mem::take(&mut *outcomes)
        };
        // The fold in slab order, or the first panic in slab order.
        let outputs: Result<Vec<_>, String> = outcomes
            .into_iter()
            .flatten()
            .map(|outcome| match outcome {
                JobOutcome::Finished(output) => Ok(output),
                JobOutcome::Panicked(message) => Err(message),
            })
            .collect();
        let outcome = outputs.map_or_else(JobOutcome::Panicked, |outputs| {
            JobOutcome::Finished(combine_slab_outputs(&outputs, self.tolerances))
        });
        self.state.complete(outcome);
    }
}
