//! The four workloads.  Each sets its deployment up several times and times
//! every set-up, runs closed-loop clients for the requested seconds, checks
//! every answer against its analytic reference, and in a traced run reads
//! the per-layer counters around the timed phase.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pagani_baselines::cuhre::{Cuhre, CuhreConfig};
use pagani_baselines::MethodConfig;
use pagani_core::{
    BatchJob, CacheKey, DispatchMode, DistributedService, IntegrationService, JobHandle, Message,
    MultiDeviceService, PaganiConfig, Priority, Rejected, ResultCache, ServiceBuilder,
};
use pagani_device::{Device, DeviceConfig};
use pagani_perfbench::{
    answer_ok, client_rng, paper_cases, pass_order, JobSpec, JobStream, SkewedKeys, GENZ_REL_TOL,
};
use pagani_quadrature::{Integrand, IntegrationResult, Termination, Tolerances};

use crate::layers::{ratio, DeviceSnap, LaneDevice, Layers};
use crate::remote::{pin_processes, pin_self, remote_cpus, vm_hwm_kib, WorkerProc};
use crate::stats::{mean, median, quantile, tail_percentile, Histogram};
use crate::trace::SpanLog;
use crate::Args;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Closed-loop client threads of service_mix and cache_repeat.
const CLIENTS: u64 = 2;
/// Closed-loop client threads of remote_mix.  Each job there hands off
/// between threads of three processes, and remote_mix runs them all on one
/// CPU at a time (see [`remote_mix`]), so one client keeps that CPU busy
/// with one job at a time.  Ties in endpoint choice then send every job to
/// the first worker; the second stays connected and idle.
const REMOTE_CLIENTS: u64 = 1;
/// How long remote_mix's deployment runs on one CPU before it moves to the
/// other.
const CPU_SWITCH: Duration = Duration::from_millis(500);
/// Deadline of every job that computes: generous (the slowest Genz job
/// computes in about 20 ms), so admission runs on every job but never
/// refuses one.  The cost model prices a job never seen before by its
/// static cost times an average that a single stalled 2D job can raise
/// several hundredfold, so a host stall of a few hundred milliseconds
/// could push a 4D job's estimate past a 2 s deadline; 10 s needs a stall
/// of about 1.5 s.  A service keeps each job's deadline entry, and the
/// job's state, until the deadline passes, so this also bounds that memory.
const DEADLINE: Duration = Duration::from_secs(10);
/// Deadline of every cache_repeat request.  An exact hit is served in tens
/// of microseconds, so this is still generous; it is short because the
/// service keeps each job's state until its deadline passes.  With a 2 s
/// deadline, those states made most of cache_repeat's peak RSS and grew
/// with the request rate, so a faster service read as a memory regression.
const HIT_DEADLINE: Duration = Duration::from_millis(250);
/// Seed of every set-up's warm-up jobs and of cache_repeat's key set: the
/// set-up does the same work whatever `--seed` is.
pub const WARMUP_SEED: u64 = 0;
/// A traced run alternates untraced and traced windows of this length, so
/// the tracing overhead is measured inside the run.
const TRACE_WINDOW: Duration = Duration::from_millis(200);
/// Device memory of paper_solve: the paper's device, capped well below host
/// RAM.
const PAPER_DEVICE_BYTES: usize = 2 << 30;
/// Device memory of every Genz lane and remote worker.
const LANE_DEVICE_BYTES: usize = 64 << 20;
/// Byte budget of the result cache of service_mix and of each remote_mix
/// worker: small enough that the set-up warm-up fills it, so every timed
/// job pays the steady-state cost of a full, evicting cache.
pub const MIX_CACHE_BYTES: usize = 8 << 20;
/// Byte budget of cache_repeat's cache: it holds every key without
/// evicting.
const REPEAT_CACHE_BYTES: usize = 64 << 20;
/// Cold warm-up jobs per service_mix set-up, split across the clients.  The
/// warm-up is most of a set-up, and it is long enough (about half a second)
/// that one slow moment of the host does not decide the set-up's time.
const MIX_WARMUP_JOBS: u64 = 4_000;
/// Cold warm-up jobs per remote_mix set-up (about 1.3 s with one client).
pub const REMOTE_WARMUP_JOBS: u64 = 2_000;
/// Distinct keys cache_repeat fills during set-up.
const CACHE_KEYS: u64 = 512;
/// Hit requests per cache_repeat set-up after the fill.
const CACHE_WARMUP_HITS: u64 = 40_000;
/// remote_mix sends at most this many timed jobs per run, and each worker
/// registers that many.  A `RemoteWorker` keeps a finished thread, two
/// memory maps, per served job until it shuts down, and a process may hold
/// 65 530 maps: with the warm-up, the first worker serves 22 000 jobs
/// (44 000 maps).  The client stops early at the cap; at 20 s a run reaches
/// it, and so measures a fixed amount of worker memory, whenever the host
/// sustains 1 000 jobs per second (about half the reference host's rate).
pub const REMOTE_JOBS: u64 = 20_000;
/// service_mix sends at most this many timed jobs per run.  The services'
/// cost model keeps one bucket per integrand name, so with unique
/// integrands its table grows by a job at a time and doubles at 114 688
/// entries, a 16 MiB step in peak RSS; with the warm-up's jobs, the cap
/// keeps every run on one side of it.  A client that reaches its share
/// stops early.
const MIX_JOBS: u64 = 100_000;
/// Jobs per `solve_s` block of the service workloads, per client.
const MIX_BLOCK: u64 = 256;
const CACHE_BLOCK: u64 = 8_192;
/// remote_mix compares every this-many-th answer bit-for-bit with an
/// in-process run of the same job.
const REMOTE_SAMPLE_EVERY: u64 = 64;
/// Consecutive untraced jobs of one client whose tail percentile is one
/// `job_tail_ms` sample.
pub const TAIL_BLOCK: usize = 2_000;
/// Keys the traced run times direct cache lookups on.
const LOOKUP_PROBES: usize = 1_000;
const SNAPSHOT_PROBES: usize = 50;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperSolve,
    ServiceMix,
    CacheRepeat,
    RemoteMix,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "paper_solve" => Some(Self::PaperSolve),
            "service_mix" => Some(Self::ServiceMix),
            "cache_repeat" => Some(Self::CacheRepeat),
            "remote_mix" => Some(Self::RemoteMix),
            _ => None,
        }
    }

    pub fn run(self, args: &Args) -> Outcome {
        match self {
            Self::PaperSolve => paper_solve(args),
            Self::ServiceMix => service_mix(args),
            Self::CacheRepeat => cache_repeat(args),
            Self::RemoteMix => remote_mix(args),
        }
    }
}

/// The service configuration of every Genz workload.
pub fn genz_config() -> PaganiConfig {
    PaganiConfig::test_small(Tolerances::rel(GENZ_REL_TOL))
}

/// One service_mix lane or remote worker device: one worker thread.
pub fn lane_device_config() -> DeviceConfig {
    DeviceConfig::test_small()
        .with_memory_capacity(LANE_DEVICE_BYTES)
        .with_worker_threads(1)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// What one run measured.
pub struct Outcome {
    /// Wall time of each set-up.
    pub setup_s: Vec<f64>,
    /// Wall time of the timed phase.
    pub timed_s: f64,
    /// The `solve_s` metric: the median pass on paper_solve, and elsewhere
    /// the mean time one client takes per block of jobs.  A median over
    /// blocks jumped between two speeds when the host alternated between
    /// them within a run: on remote_mix it spread 0.25 over ten runs where
    /// jobs per second spread 0.18.
    pub solve_s: f64,
    pub tally: Tally,
    /// Peak RSS of the whole deployment.
    pub rss_mib: f64,
    /// Named invariant checks beyond the per-answer ones.
    pub checks: Vec<(&'static str, bool)>,
    pub layers: Layers,
    pub spans: Vec<SpanLog>,
    /// `worker_threads` of every device the run used.
    pub device_threads: Vec<usize>,
    /// The CPUs the timed phase's deployment was pinned to in turn (empty:
    /// not pinned).
    pub cpus: Vec<usize>,
}

/// Per-job results of one or more clients.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub completed: u64,
    pub failed: u64,
    /// Converged answers that missed the answer check.
    pub incorrect: u64,
    /// Submit-to-result latency of jobs outside traced windows.
    pub latency: Histogram,
    /// The same inside traced windows.
    pub latency_traced: Histogram,
    /// Latency minus the driver wall time the result reports.
    pub overhead: Histogram,
    /// Time inside the topology's `try_submit` (traced windows).
    pub submit: Histogram,
    /// Time inside `estimated_completion` (traced windows).
    pub admission: Histogram,
    /// Σ driver wall time, iterations, evaluations and regions.
    pub wall_s: f64,
    pub iterations: u64,
    pub evals: u64,
    pub regions: u64,
    /// Wall time of each block of consecutive jobs (a pass, on paper_solve).
    pub blocks_s: Vec<f64>,
    pub blocks_traced_s: Vec<f64>,
    /// Results kept for the bit-identity and wire probes.
    pub samples: Vec<(u64, IntegrationResult)>,
    /// Latencies (ms) of the client's current tail block.
    tail_block: Vec<f64>,
    /// The tail percentile of each full block (of the whole run when it
    /// never filled one).
    pub tails_ms: Vec<f64>,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.completed += other.completed;
        self.failed += other.failed;
        self.incorrect += other.incorrect;
        self.latency.merge(&other.latency);
        self.latency_traced.merge(&other.latency_traced);
        self.overhead.merge(&other.overhead);
        self.submit.merge(&other.submit);
        self.admission.merge(&other.admission);
        self.wall_s += other.wall_s;
        self.iterations += other.iterations;
        self.evals += other.evals;
        self.regions += other.regions;
        self.blocks_s.extend(other.blocks_s);
        self.blocks_traced_s.extend(other.blocks_traced_s);
        self.samples.extend(other.samples);
        self.tails_ms.extend(other.tails_ms);
    }

    /// Record the tail percentile of the current tail block and empty it.
    fn close_tail_block(&mut self) {
        let p = tail_percentile(self.tail_block.len() as u64);
        self.tails_ms.push(quantile(&self.tail_block, p / 100.0));
        self.tail_block.clear();
    }

    /// Close one client's tally: a client that never filled a tail block
    /// contributes the tail of all its jobs.
    fn finish(&mut self) {
        if self.tails_ms.is_empty() && !self.tail_block.is_empty() {
            self.close_tail_block();
        }
        self.tail_block = Vec::new();
    }

    fn record(
        &mut self,
        id: u64,
        check: &Check,
        result: &IntegrationResult,
        latency: Duration,
        traced: bool,
    ) {
        self.completed += 1;
        if traced {
            self.latency_traced.record(latency);
        } else {
            self.latency.record(latency);
            self.tail_block.push(latency.as_secs_f64() * 1e3);
            if self.tail_block.len() == TAIL_BLOCK {
                self.close_tail_block();
            }
        }
        self.overhead
            .record_nanos(latency.as_nanos() as f64 - result.wall_time.as_nanos() as f64);
        self.wall_s += result.wall_time.as_secs_f64();
        self.iterations += result.iterations as u64;
        self.evals += result.function_evaluations;
        self.regions += result.regions_generated;
        if !result.converged() {
            self.failed += 1;
            eprintln!(
                "perfbench: job {id} ({}) ended {:?}",
                check.integrand.name(),
                result.termination
            );
        } else if !answer_ok(result.estimate, check.reference, check.rel_tol) {
            self.failed += 1;
            self.incorrect += 1;
            eprintln!(
                "perfbench: job {id} ({}) answered {} against reference {}",
                check.integrand.name(),
                result.estimate,
                check.reference
            );
        }
    }
}

/// One request: the job and what its answer is checked against.
pub struct Job {
    id: u64,
    batch: BatchJob,
    /// What the answer is checked against, kept once `batch` is submitted.
    check: Check,
}

/// The answer check of one job.
struct Check {
    integrand: Arc<dyn Integrand + Send + Sync>,
    reference: f64,
    rel_tol: f64,
}

fn genz_job(id: u64, spec: &JobSpec, deadline: Duration) -> Job {
    Job {
        id,
        batch: BatchJob::shared(spec.integrand.clone())
            .with_priority(spec.priority)
            .with_deadline(deadline),
        check: Check {
            integrand: spec.integrand.clone(),
            reference: spec.integrand.reference_value(),
            rel_tol: GENZ_REL_TOL,
        },
    }
}

/// Client `client`'s share of `stream` among `clients`: job ids `client`,
/// `client + clients`, … below `limit`.
fn stream_source(
    stream: JobStream,
    seed: u64,
    client: u64,
    clients: u64,
    limit: u64,
) -> impl FnMut(u64) -> Option<Job> {
    move |k| {
        let id = client + clients * k;
        (id < limit).then(|| genz_job(id, &stream.job(seed, id), DEADLINE))
    }
}

/// The topology a client submits to.
#[derive(Clone, Copy)]
enum Front<'a> {
    Local(&'a IntegrationService),
    Multi(&'a MultiDeviceService),
    Remote(&'a DistributedService),
}

impl Front<'_> {
    fn try_submit(self, job: BatchJob) -> Result<JobHandle, Rejected> {
        match self {
            Front::Local(s) => s.try_submit(job),
            Front::Multi(s) => s.try_submit(job),
            Front::Remote(s) => s.try_submit(job),
        }
    }

    /// The admission estimate, or `None` on a topology without one.
    fn estimated_completion(self, job: &BatchJob) -> Option<Option<Duration>> {
        match self {
            Front::Local(s) => Some(s.estimated_completion(job)),
            Front::Multi(_) => None,
            Front::Remote(s) => Some(s.estimated_completion(job)),
        }
    }

    fn submit_span(self) -> &'static str {
        match self {
            Front::Local(_) => "service.try_submit",
            Front::Multi(_) => "multi_device.try_submit",
            Front::Remote(_) => "remote.try_submit",
        }
    }
}

/// When a client stops sending, if its job source has not run dry first.
#[derive(Clone, Copy)]
enum Stop {
    /// At this instant.
    At(Instant),
    /// After this many jobs.
    After(u64),
}

/// Which jobs of a traced run are traced.
#[derive(Clone, Copy)]
enum Tracing {
    Off,
    /// Jobs sent in odd [`TRACE_WINDOW`]s after this epoch.
    Windows(Instant),
    /// Jobs of odd blocks (passes) after this epoch.
    Blocks(Instant),
}

/// How a client runs.
#[derive(Clone, Copy)]
struct Loop<'a> {
    front: Front<'a>,
    /// Client threads [`run_clients`] starts.
    clients: u64,
    stop: Stop,
    tracing: Tracing,
    /// Jobs per `solve_s` block.
    block: u64,
    /// Keep every this-many-th result (0: none).
    sample_every: u64,
}

/// One closed-loop client: send a job, wait for its answer, check it, and
/// repeat.  Returns the tally, the client's spans, and when it finished.
fn run_client(
    lp: &Loop<'_>,
    log_id: usize,
    mut next_job: impl FnMut(u64) -> Option<Job>,
) -> (Tally, Option<SpanLog>, Instant) {
    let mut tally = Tally::default();
    let mut spans = match lp.tracing {
        Tracing::Off => None,
        Tracing::Windows(epoch) | Tracing::Blocks(epoch) => Some(SpanLog::new(epoch, log_id)),
    };
    let mut now = Instant::now();
    let mut block_start = now;
    let mut block_jobs = 0;
    let mut blocks_done = 0u64;
    let mut block_traced = false;
    for k in 0u64.. {
        let stop = match lp.stop {
            Stop::At(end) => now >= end,
            Stop::After(n) => k >= n,
        };
        if stop {
            break;
        }
        let Some(job) = next_job(k) else { break };
        let traced = match lp.tracing {
            Tracing::Off => false,
            Tracing::Windows(epoch) => {
                (now.saturating_duration_since(epoch).as_nanos() / TRACE_WINDOW.as_nanos()) % 2 == 1
            }
            Tracing::Blocks(_) => blocks_done % 2 == 1,
        };
        block_traced |= traced;
        tally.attempted += 1;

        let probe = if traced {
            let a0 = Instant::now();
            lp.front.estimated_completion(&job.batch).map(|estimate| {
                black_box(estimate);
                let a1 = Instant::now();
                tally.admission.record(a1 - a0);
                (a0, a1)
            })
        } else {
            None
        };
        let t0 = Instant::now();
        let submitted = lp.front.try_submit(job.batch);
        let t_sub = if traced { Instant::now() } else { t0 };
        let outcome = submitted.map(|handle| catch_unwind(AssertUnwindSafe(|| handle.wait())));
        let t1 = Instant::now();
        now = t1;
        match outcome {
            Ok(Ok(output)) => {
                tally.record(job.id, &job.check, &output.result, t1 - t0, traced);
                if lp.sample_every > 0 && job.id % lp.sample_every == 0 {
                    tally.samples.push((job.id, output.result));
                }
            }
            // Refused (`Rejected::*`), panicked, or lost over the wire.
            _ => tally.failed += 1,
        }
        if traced {
            tally.submit.record(t_sub - t0);
            if let Some(log) = spans.as_mut() {
                let root = log.record("job", probe.map_or(t0, |p| p.0), t1, None, job.id);
                if let Some((a0, a1)) = probe {
                    log.record("cost.estimated_completion", a0, a1, root, job.id);
                }
                log.record(lp.front.submit_span(), t0, t_sub, root, job.id);
                log.record("handle.wait", t_sub, t1, root, job.id);
            }
        }
        block_jobs += 1;
        if block_jobs == lp.block {
            let seconds = (t1 - block_start).as_secs_f64();
            if block_traced {
                tally.blocks_traced_s.push(seconds);
            } else {
                tally.blocks_s.push(seconds);
            }
            block_start = t1;
            block_jobs = 0;
            blocks_done += 1;
            block_traced = false;
        }
    }
    tally.finish();
    (tally, spans, now)
}

/// Run `lp.clients` clients in parallel, client `c` drawing from
/// `source(c)`.  Returns the merged tally, their spans and the wall time
/// from the start until the last client finished.
fn run_clients<S>(lp: &Loop<'_>, source: impl Fn(u64) -> S + Sync) -> (Tally, Vec<SpanLog>, f64)
where
    S: FnMut(u64) -> Option<Job>,
{
    let start = Instant::now();
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..lp.clients)
            .map(|c| {
                let source = &source;
                scope.spawn(move || run_client(lp, c as usize, source(c)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut tally = Tally::default();
    let mut spans = Vec::new();
    let mut end = start;
    for (t, log, finished) in results {
        tally.merge(t);
        spans.extend(log);
        end = end.max(finished);
    }
    (tally, spans, (end - start).as_secs_f64())
}

/// Send the first `jobs` jobs of `stream` under [`WARMUP_SEED`] through
/// `front` from `clients` clients, untimed.
fn warm_up(front: Front<'_>, clients: u64, stream: JobStream, jobs: u64) {
    let lp = Loop {
        front,
        clients,
        stop: Stop::After(jobs / clients),
        tracing: Tracing::Off,
        block: u64::MAX,
        sample_every: 0,
    };
    run_clients(&lp, |c| {
        stream_source(stream, WARMUP_SEED, c, clients, u64::MAX)
    });
}

/// Set a deployment up once and time it.
fn set_up<D>(build: &mut impl FnMut() -> D) -> (D, f64) {
    let start = Instant::now();
    let deployment = build();
    (deployment, start.elapsed().as_secs_f64())
}

/// The run's set-up times: `first`, the set-up the timed phase used, then
/// [`SETUP_REPS`]` - 1` more, each torn down untimed before the next.  The
/// repeats come after the timed phase and after peak RSS is read, so both
/// start from the memory of a single set-up: torn-down set-ups leave the
/// allocator holding a different amount of freed memory on every run, and
/// peak RSS moved by up to a fifth with it.
fn repeat_set_up<D>(
    first: f64,
    mut build: impl FnMut() -> D,
    mut teardown: impl FnMut(D),
) -> Vec<f64> {
    let mut seconds = vec![first];
    for _ in 1..SETUP_REPS {
        let (deployment, s) = set_up(&mut build);
        seconds.push(s);
        teardown(deployment);
    }
    seconds
}

fn tracing_from(args: &Args, blocks: bool) -> (Tracing, Instant) {
    let epoch = Instant::now();
    let tracing = match (args.trace, blocks) {
        (false, _) => Tracing::Off,
        (true, false) => Tracing::Windows(epoch),
        (true, true) => Tracing::Blocks(epoch),
    };
    (tracing, epoch)
}

fn self_rss_mib() -> f64 {
    vm_hwm_kib().unwrap_or(0) as f64 / 1024.0
}

/// The cache key a Genz job of the `genz_config` services is stored under.
fn cache_key(spec: &JobSpec) -> CacheKey {
    let job = BatchJob::shared(spec.integrand.clone());
    let tolerances = genz_config().tolerances;
    CacheKey::new(
        &spec.integrand.name(),
        job.region().lo(),
        job.region().hi(),
        tolerances.rel,
        tolerances.abs,
    )
}

/// Time direct cache lookups on `specs` and read the cache's size.
fn probe_cache(layers: &mut Layers, cache: &ResultCache, specs: &[JobSpec], log: &mut SpanLog) {
    let keys: Vec<CacheKey> = specs.iter().take(LOOKUP_PROBES).map(cache_key).collect();
    let mut results = Histogram::default();
    for (i, key) in keys.iter().enumerate() {
        let t0 = Instant::now();
        black_box(cache.lookup_result(key));
        let t1 = Instant::now();
        results.record(t1 - t0);
        log.record("cache.lookup_result", t0, t1, None, i as u64);
    }
    let mut snapshots = Histogram::default();
    for (i, key) in keys.iter().take(SNAPSHOT_PROBES).enumerate() {
        let t0 = Instant::now();
        black_box(cache.lookup_snapshot(
            &key.integrand_id,
            &key.region_lo_bits,
            &key.region_hi_bits,
        ));
        let t1 = Instant::now();
        snapshots.record(t1 - t0);
        log.record("cache.lookup_snapshot", t0, t1, None, i as u64);
    }
    layers.set("cache.lookup_result_us", results.percentile_us(50.0));
    layers.set("cache.lookup_snapshot_us", snapshots.percentile_us(50.0));
    layers.set("cache.entries", cache.len() as f64);
    layers.set("cache.mib", cache.bytes_used() as f64 / (1 << 20) as f64);
}

// ---- paper_solve ----------------------------------------------------------

/// One client solves the paper cases pass after pass through a one-lane,
/// one-worker service on an `nproc`-thread device.
fn paper_solve(args: &Args) -> Outcome {
    let cases = paper_cases();
    let n = cases.len() as u64;
    let threads = nproc();
    // Pass `k / n`, case `order[k % n]`; stop at a pass boundary once
    // `end` has passed.
    let source = |seed: u64, end: Option<Instant>| {
        let cases = &cases;
        let mut order = Vec::new();
        move |k: u64| {
            if k % n == 0 {
                if end.is_some_and(|end| Instant::now() >= end) {
                    return None;
                }
                order = pass_order(seed, k / n, cases.len());
            }
            let case = &cases[order[(k % n) as usize]];
            let integrand: Arc<dyn Integrand + Send + Sync> = Arc::new(case.integrand.clone());
            Some(Job {
                id: k,
                batch: BatchJob::shared(Arc::clone(&integrand))
                    .with_method(MethodConfig::Pagani(case.config())),
                check: Check {
                    integrand,
                    reference: case.integrand.reference_value(),
                    rel_tol: case.tolerances().rel,
                },
            })
        }
    };
    let mut build = || {
        let lane = LaneDevice::new(
            DeviceConfig::v100_like()
                .with_memory_capacity(PAPER_DEVICE_BYTES)
                .with_worker_threads(threads),
            args.trace,
        );
        // Every job carries its case's configuration as a method override;
        // the service default is never used.
        let service = ServiceBuilder::new(PaganiConfig::new(cases[0].tolerances()))
            .device(lane.device.clone())
            .workers(1)
            .build();
        // Warm-up: one pass, in the same order whatever the seed.
        let lp = Loop {
            front: Front::Local(&service),
            clients: 1,
            stop: Stop::After(n),
            tracing: Tracing::Off,
            block: u64::MAX,
            sample_every: 0,
        };
        run_client(&lp, 0, source(WARMUP_SEED, None));
        (lane, service)
    };
    let ((lane, service), first_setup_s) = set_up(&mut build);

    let device_before = lane.snapshot();
    let metrics_before = [service.metrics()];
    let (tracing, epoch) = tracing_from(args, true);
    // The source ends the run at the first pass boundary past the end.
    let lp = Loop {
        front: Front::Local(&service),
        clients: 1,
        stop: Stop::After(u64::MAX),
        tracing,
        block: n,
        sample_every: 0,
    };
    let (tally, log, finished) = run_client(&lp, 0, source(args.seed, Some(epoch + args.seconds)));
    let timed_s = (finished - epoch).as_secs_f64();
    let device = lane.snapshot().since(&device_before);
    let metrics_after = [service.metrics()];
    let rss_mib = self_rss_mib();
    service.shutdown();

    let mut layers = Layers::default();
    let mut spans: Vec<SpanLog> = log.into_iter().collect();
    if args.trace {
        layers.set_driver(&device, &tally);
        layers.set_service(&tally, &metrics_before, &metrics_after, false);
        layers.set_lane_imbalance(&[device]);
        let mut log = SpanLog::new(epoch, spans.len());
        let mut cuhre_s = 0.0;
        for (i, case) in cases.iter().enumerate() {
            let t0 = Instant::now();
            black_box(Cuhre::new(CuhreConfig::digits(case.digits)).integrate(&case.integrand));
            let t1 = Instant::now();
            cuhre_s += (t1 - t0).as_secs_f64();
            log.record("baselines.cuhre", t0, t1, None, i as u64);
        }
        spans.push(log);
        layers.set("baselines.cuhre_s", cuhre_s);
        layers.set(
            "baselines.pagani_speedup",
            ratio(cuhre_s, median(&tally.blocks_s)),
        );
        layers.set(
            "trace.overhead",
            ratio(median(&tally.blocks_traced_s), median(&tally.blocks_s)),
        );
    }
    Outcome {
        setup_s: repeat_set_up(first_setup_s, build, |(_, service)| service.shutdown()),
        timed_s,
        solve_s: median(&tally.blocks_s),
        tally,
        rss_mib,
        checks: Vec::new(),
        layers,
        spans,
        device_threads: vec![lane.device.effective_workers()],
        cpus: Vec::new(),
    }
}

// ---- service_mix ----------------------------------------------------------

/// Two clients send cold Genz jobs to a two-lane, cost-balanced service with
/// a result cache; every integrand is unique, so the cache only writes.
fn service_mix(args: &Args) -> Outcome {
    let mut build = || {
        let lanes: Vec<LaneDevice> = (0..2)
            .map(|_| LaneDevice::new(lane_device_config(), args.trace))
            .collect();
        let cache = Arc::new(ResultCache::new(MIX_CACHE_BYTES));
        let service = ServiceBuilder::new(genz_config())
            .devices(lanes.iter().map(|lane| lane.device.clone()))
            .dispatch(DispatchMode::CostBalanced)
            .cache(Arc::clone(&cache))
            .build_multi();
        warm_up(
            Front::Multi(&service),
            CLIENTS,
            JobStream::MIX_WARMUP,
            MIX_WARMUP_JOBS,
        );
        (lanes, cache, service)
    };
    let ((lanes, cache, service), first_setup_s) = set_up(&mut build);

    let before: Vec<DeviceSnap> = lanes.iter().map(LaneDevice::snapshot).collect();
    let metrics_before = service.metrics();
    let (tracing, epoch) = tracing_from(args, false);
    let lp = Loop {
        front: Front::Multi(&service),
        clients: CLIENTS,
        stop: Stop::At(epoch + args.seconds),
        tracing,
        block: MIX_BLOCK,
        sample_every: 0,
    };
    let (tally, mut spans, timed_s) = run_clients(&lp, |c| {
        stream_source(JobStream::MIX, args.seed, c, CLIENTS, MIX_JOBS)
    });
    let deltas: Vec<DeviceSnap> = lanes
        .iter()
        .zip(&before)
        .map(|(lane, before)| lane.snapshot().since(before))
        .collect();
    let metrics_after = service.metrics();
    let rss_mib = self_rss_mib();
    service.shutdown();

    let mut layers = Layers::default();
    if args.trace {
        let total = deltas
            .iter()
            .fold(DeviceSnap::default(), |sum, d| sum.plus(d));
        layers.set_driver(&total, &tally);
        layers.set_service(&tally, &metrics_before, &metrics_after, false);
        layers.set_lane_imbalance(&deltas);
        // The most recent jobs of the run, most likely still cached.
        let recent: Vec<JobSpec> = (tally.attempted.saturating_sub(LOOKUP_PROBES as u64)
            ..tally.attempted)
            .map(|id| JobStream::MIX.job(args.seed, id))
            .collect();
        let mut log = SpanLog::new(epoch, spans.len());
        probe_cache(&mut layers, &cache, &recent, &mut log);
        spans.push(log);
        layers.set("trace.overhead", trace_overhead(&tally));
    }
    Outcome {
        setup_s: repeat_set_up(first_setup_s, build, |(_, _, service)| service.shutdown()),
        timed_s,
        solve_s: mean(&tally.blocks_s),
        tally,
        rss_mib,
        checks: Vec::new(),
        layers,
        spans,
        device_threads: lanes
            .iter()
            .map(|lane| lane.device.effective_workers())
            .collect(),
        cpus: Vec::new(),
    }
}

/// Traced-window latency median over the untraced one.
fn trace_overhead(tally: &Tally) -> f64 {
    ratio(
        tally.latency_traced.percentile_ms(50.0),
        tally.latency.percentile_ms(50.0),
    )
}

// ---- cache_repeat ---------------------------------------------------------

/// Set-up fills a cached one-lane service with [`CACHE_KEYS`] fixed keys;
/// two clients then send exact repeats in a Zipf-skewed order drawn from
/// the seed, so no job computes.
fn cache_repeat(args: &Args) -> Outcome {
    let keys: Vec<JobSpec> = (0..CACHE_KEYS)
        .map(|id| JobStream::KEYS.job(WARMUP_SEED, id))
        .collect();
    let skew = SkewedKeys::new(keys.len());
    let repeats = |client: u64| {
        let mut rng = client_rng(args.seed, "cache_repeat", client);
        let (keys, skew) = (&keys, &skew);
        move |_k: u64| {
            let key = skew.sample(&mut rng);
            Some(genz_job(key as u64, &keys[key], HIT_DEADLINE))
        }
    };
    let threads = nproc();
    let mut build = || {
        let lane = LaneDevice::new(
            lane_device_config().with_worker_threads(threads),
            args.trace,
        );
        let cache = Arc::new(ResultCache::new(REPEAT_CACHE_BYTES));
        let service = ServiceBuilder::new(genz_config())
            .device(lane.device.clone())
            .workers(2)
            .cache(Arc::clone(&cache))
            .build();
        warm_up(Front::Local(&service), CLIENTS, JobStream::KEYS, CACHE_KEYS);
        let lp = Loop {
            front: Front::Local(&service),
            clients: CLIENTS,
            stop: Stop::After(CACHE_WARMUP_HITS / CLIENTS),
            tracing: Tracing::Off,
            block: u64::MAX,
            sample_every: 0,
        };
        run_clients(&lp, |c| repeats(c + CLIENTS));
        (lane, cache, service)
    };
    let ((lane, cache, service), first_setup_s) = set_up(&mut build);

    let device_before = lane.snapshot();
    let metrics_before = [service.metrics()];
    let (tracing, epoch) = tracing_from(args, false);
    let lp = Loop {
        front: Front::Local(&service),
        clients: CLIENTS,
        stop: Stop::At(epoch + args.seconds),
        tracing,
        block: CACHE_BLOCK,
        sample_every: 0,
    };
    let (tally, mut spans, timed_s) = run_clients(&lp, repeats);
    let device = lane.snapshot().since(&device_before);
    let metrics_after = [service.metrics()];
    let rss_mib = self_rss_mib();
    service.shutdown();

    let hits = metrics_after[0].cache_hits - metrics_before[0].cache_hits;
    let mut checks = vec![("cache_repeat.every_request_hits", hits == tally.completed)];
    let mut layers = Layers::default();
    if args.trace {
        // Invariant 8: exact hits never touch the device.
        checks.push(("cache_repeat.no_launches", device.launch_count() == 0));
        layers.set_device(&device, &tally);
        layers.set_service(&tally, &metrics_before, &metrics_after, false);
        layers.set_lane_imbalance(&[device]);
        let mut log = SpanLog::new(epoch, spans.len());
        probe_cache(&mut layers, &cache, &keys, &mut log);
        spans.push(log);
        layers.set("trace.overhead", trace_overhead(&tally));
    }
    Outcome {
        setup_s: repeat_set_up(first_setup_s, build, |(_, _, service)| service.shutdown()),
        timed_s,
        solve_s: mean(&tally.blocks_s),
        tally,
        rss_mib,
        checks,
        layers,
        spans,
        device_threads: vec![lane.device.effective_workers()],
        cpus: Vec::new(),
    }
}

// ---- remote_mix -----------------------------------------------------------

/// One client sends cold Genz jobs through a distributed front-end connected
/// to two worker processes on loopback; the workers resolve jobs by name in
/// a registry they rebuild from the seed.
///
/// The benchmark process pins itself to one CPU before it starts a thread
/// or a worker, so the whole deployment runs there, and during the timed
/// phase it moves every thread of all three processes to the other CPU
/// every [`CPU_SWITCH`].  Unpinned, every job woke threads on the other
/// vCPU, which sat idle between jobs; on the shared reference host, waking
/// it waited on the hypervisor, and runs a minute apart read 540 to 1 870
/// jobs per second and a tail of 0.86 to 4.3 ms.  Pinned to one CPU, runs
/// in the same hour read 1 700 to 2 250 jobs per second and a tail of 0.70
/// to 0.86 ms, but over ten runs the host ran some a third faster than the
/// rest, whichever vCPU they had, and jobs per second spread 0.29.
/// Alternating averages the two vCPUs within each run.
fn remote_mix(args: &Args) -> Outcome {
    let cpus = remote_cpus();
    let pin_home = || {
        if let Some(&cpu) = cpus.first() {
            pin_self(cpu);
        }
    };
    pin_home();
    let mut start_workers = || -> (DistributedService, Vec<WorkerProc>) {
        let mut workers: Vec<WorkerProc> = (0..2)
            .map(|_| WorkerProc::start(args.seed).expect("start a worker process"))
            .collect();
        let addrs: Vec<String> = workers
            .iter_mut()
            .map(|w| w.addr().expect("worker announces its address"))
            .collect();
        let front = ServiceBuilder::new(genz_config())
            .endpoints(addrs)
            .build_distributed()
            .expect("connect to both workers");
        warm_up(
            Front::Remote(&front),
            REMOTE_CLIENTS,
            JobStream::REMOTE_WARMUP,
            REMOTE_WARMUP_JOBS,
        );
        (front, workers)
    };
    let stop_workers = |(front, workers): (DistributedService, Vec<WorkerProc>)| -> Vec<u64> {
        front.shutdown();
        workers
            .into_iter()
            .map(|w| w.stop().expect("worker stops cleanly"))
            .collect()
    };
    let ((front, workers), first_setup_s) = set_up(&mut start_workers);

    let metrics_before = [front.metrics()];
    let (tracing, epoch) = tracing_from(args, false);
    let lp = Loop {
        front: Front::Remote(&front),
        clients: REMOTE_CLIENTS,
        stop: Stop::At(epoch + args.seconds),
        tracing,
        block: MIX_BLOCK,
        sample_every: REMOTE_SAMPLE_EVERY,
    };
    let pids: Vec<u32> = std::iter::once(std::process::id())
        .chain(workers.iter().map(WorkerProc::pid))
        .collect();
    let done = AtomicBool::new(false);
    let (tally, mut spans, timed_s) = std::thread::scope(|scope| {
        if cpus.len() > 1 {
            scope.spawn(|| alternate_cpus(&pids, &cpus, &done));
        }
        let timed = run_clients(&lp, |c| {
            stream_source(JobStream::REMOTE, args.seed, c, REMOTE_CLIENTS, REMOTE_JOBS)
        });
        done.store(true, Ordering::Relaxed);
        timed
    });
    // The set-ups that follow start from the first CPU, as the first did.
    pin_home();
    let metrics_after = [front.metrics()];
    let worker_kib = stop_workers((front, workers));
    let worker_mib = worker_kib.iter().sum::<u64>() as f64 / 1024.0;
    let rss_mib = self_rss_mib() + worker_mib;

    // Invariant 9: the wire adds transport, never arithmetic.
    let local = ServiceBuilder::new(genz_config())
        .device(Device::new(lane_device_config()))
        .build();
    let identical = tally.samples.iter().all(|(id, remote)| {
        let spec = JobStream::REMOTE.job(args.seed, *id);
        let out = local
            .submit(BatchJob::shared(spec.integrand).with_priority(spec.priority))
            .wait();
        out.result.estimate.to_bits() == remote.estimate.to_bits()
            && out.result.error_estimate.to_bits() == remote.error_estimate.to_bits()
    });
    local.shutdown();
    let requeued = metrics_after[0].remote_requeued - metrics_before[0].remote_requeued;
    let mut checks = vec![
        ("remote_mix.bit_identical_to_local", identical),
        ("remote_mix.no_requeues", requeued == 0),
    ];

    let mut layers = Layers::default();
    if args.trace {
        layers.set_service(&tally, &metrics_before, &metrics_after, true);
        layers.set("remote.worker_rss_mib", worker_mib);
        layers.set_job_counts(&tally);
        let mut log = SpanLog::new(epoch, spans.len());
        checks.push((
            "remote_mix.frames_round_trip",
            probe_wire(&mut layers, &tally.samples, args.seed, &mut log),
        ));
        spans.push(log);
        layers.set("trace.overhead", trace_overhead(&tally));
    }
    Outcome {
        setup_s: repeat_set_up(first_setup_s, start_workers, |d| {
            stop_workers(d);
        }),
        timed_s,
        solve_s: mean(&tally.blocks_s),
        tally,
        rss_mib,
        checks,
        layers,
        spans,
        device_threads: vec![lane_device_config().worker_threads.unwrap_or(1); 2],
        cpus,
    }
}

/// Move every thread of the processes `pids` to the next of `cpus` every
/// [`CPU_SWITCH`], until `done`.
fn alternate_cpus(pids: &[u32], cpus: &[usize], done: &AtomicBool) {
    for &cpu in cpus.iter().cycle().skip(1) {
        std::thread::sleep(CPU_SWITCH);
        if done.load(Ordering::Relaxed) {
            return;
        }
        pin_processes(pids, cpu);
    }
}

/// The wire tag of a priority, as `Message::Submit` documents it.
fn priority_tag(priority: Priority) -> u8 {
    match priority {
        Priority::Low => 0,
        Priority::Normal => 1,
        Priority::High => 2,
    }
}

/// The wire tag of a termination, in `Message::JobDone`'s order.
fn termination_tag(termination: Termination) -> u8 {
    match termination {
        Termination::Converged => 0,
        Termination::MaxIterations => 1,
        Termination::MaxEvaluations => 2,
        Termination::MemoryExhausted => 3,
        Termination::Cancelled => 4,
    }
}

/// Encode and decode the run's own `Submit` and `JobDone` frames; returns
/// whether every frame decoded to itself.
fn probe_wire(
    layers: &mut Layers,
    samples: &[(u64, IntegrationResult)],
    seed: u64,
    log: &mut SpanLog,
) -> bool {
    let mut encode = Vec::new();
    let mut decode = Vec::new();
    let (mut submit_bytes, mut done_bytes) = (0usize, 0usize);
    let mut round_trips = true;
    for (id, result) in samples {
        let spec = JobStream::REMOTE.job(seed, *id);
        let job = BatchJob::shared(spec.integrand.clone());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let submit = Message::Submit {
            job_id: *id,
            integrand: spec.integrand.name(),
            dim: job.region().dim() as u32,
            lo_bits: bits(job.region().lo()),
            hi_bits: bits(job.region().hi()),
            priority: priority_tag(spec.priority),
            deadline_micros: DEADLINE.as_micros() as u64,
            snapshot_json: None,
        };
        let done = Message::JobDone {
            job_id: *id,
            estimate_bits: result.estimate.to_bits(),
            error_bits: result.error_estimate.to_bits(),
            termination: termination_tag(result.termination),
            iterations: result.iterations as u64,
            function_evaluations: result.function_evaluations,
            regions_generated: result.regions_generated,
            active_regions_final: result.active_regions_final as u64,
            wall_micros: result.wall_time.as_micros() as u64,
            snapshot_json: None,
        };
        let mut pair_encode = 0.0;
        let mut pair_decode = 0.0;
        for (message, bytes) in [(submit, &mut submit_bytes), (done, &mut done_bytes)] {
            let mut frame = Vec::new();
            let t0 = Instant::now();
            let written = message.write_to(&mut frame);
            let t1 = Instant::now();
            let read = Message::read_from(&mut frame.as_slice());
            let t2 = Instant::now();
            round_trips &= written.is_ok() && read.is_ok_and(|m| m == message);
            *bytes += frame.len();
            pair_encode += (t1 - t0).as_secs_f64();
            pair_decode += (t2 - t1).as_secs_f64();
            log.record("wire.encode", t0, t1, None, *id);
            log.record("wire.decode", t1, t2, None, *id);
        }
        encode.push(pair_encode * 1e6);
        decode.push(pair_decode * 1e6);
    }
    let frames = samples.len() as f64;
    layers.set("wire.submit_bytes", ratio(submit_bytes as f64, frames));
    layers.set("wire.done_bytes", ratio(done_bytes as f64, frames));
    layers.set("wire.encode_us", quantile(&encode, 0.5));
    layers.set("wire.decode_us", quantile(&decode, 0.5));
    round_trips
}
