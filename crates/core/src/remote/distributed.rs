//! The front-end of the distributed scheduler: one submission surface
//! sharding jobs across remote worker processes.
//!
//! [`DistributedService`] mirrors the in-process services' semantics on
//! purpose — the same admission, the same refusals, the same handle type:
//!
//! * **Backpressure**: [`ServicePolicy::queue_bound`] bounds the front-end's
//!   in-flight set; `submit` blocks for space, `try_submit` refuses with
//!   [`Rejected::QueueFull`].
//! * **Admission**: a deadline the shared [`CostModel`] predicts cannot be
//!   met at the current backlog is refused with
//!   [`Rejected::DeadlineInfeasible`] *at the front-end* — the job never
//!   crosses the wire.
//! * **Cancellation**: [`crate::JobHandle::cancel`] forwards a
//!   [`Message::Cancel`] frame to whichever worker currently holds the job.
//! * **Crash recovery**: a dead connection requeues its in-flight jobs on a
//!   surviving worker ([`ServiceMetrics::remote_requeued`] counts them),
//!   re-shipping the latest persisted checkpoint where one exists so
//!   completed iterations are not recomputed.
//! * **Slab splitting**: a job whose estimated footprint exceeds every
//!   worker's device memory is cut into [`MultiDevicePagani::partition`]
//!   slabs, dispatched as independent wire jobs, and recombined
//!   bit-deterministically in slab order.

use std::collections::HashMap;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use pagani_persist::{ResultCache, Snapshot};
use pagani_quadrature::{IntegrationResult, Termination, Tolerances};

use crate::batch::BatchJob;
use crate::builder::ServiceBuilder;
use crate::cost::{remote_lane_load, CostModel};
use crate::driver::PaganiOutput;
use crate::multi_device::{slab_count, submit_slabbed};
use crate::remote::wire::{
    priority_to_tag, tag_to_termination, Message, NO_DEADLINE, PROTOCOL_VERSION,
};
use crate::service::{
    job_cache_key, JobHandle, JobOutcome, JobState, Observability, Rejected, ServiceMetrics,
    ServicePolicy,
};
use crate::trace::ExecutionTrace;

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One connected remote worker.
#[derive(Debug)]
struct Endpoint {
    addr: String,
    stream: TcpStream,
    writer: Mutex<TcpStream>,
    /// Estimated cost of jobs dispatched here and not yet completed — the
    /// same ledger discipline as [`crate::MultiDeviceService`]'s lanes.
    outstanding: Mutex<f64>,
    alive: AtomicBool,
    /// From the worker's `HelloAck`: its device memory (drives slab
    /// admission) …
    memory_capacity: u64,
    /// … and its worker-thread count (normalises load for dispatch).
    workers: u32,
}

impl Endpoint {
    fn send(&self, message: &Message) -> std::io::Result<()> {
        message.write_to(&mut *lock(&self.writer))
    }
}

/// One job in flight: enough to complete its handle, retire its charge, and
/// requeue it if its worker dies.
#[derive(Debug)]
struct Pending {
    job: BatchJob,
    state: Arc<JobState>,
    /// The endpoint currently charged `weight` for this job, `None` while
    /// it is between workers.
    endpoint: Option<usize>,
    /// What the job charges whichever endpoint holds it: its model weight,
    /// or a slab child's share of its parent's.  Fixed at dispatch, so a
    /// requeue charges the survivor exactly what the dead worker retired.
    weight: f64,
}

#[derive(Debug)]
struct DistShared {
    endpoints: Vec<Arc<Endpoint>>,
    policy: ServicePolicy,
    tolerances: Tolerances,
    model: Arc<CostModel>,
    /// Front-end crash-recovery store: checkpoints shipped back by workers
    /// land here and are re-shipped on requeue.
    cache: Option<Arc<ResultCache>>,
    pending: Mutex<HashMap<u64, Pending>>,
    /// Signalled whenever `pending` shrinks; `submit` waits on it for queue
    /// space and `shutdown` for drain.
    space: Condvar,
    next_job_id: AtomicU64,
    obs: Observability,
    shutting_down: AtomicBool,
}

/// The distributed front-end.  Construct it through
/// [`ServiceBuilder::build_distributed`]; see the [`crate::remote`] module docs for
/// the semantics it guarantees.
#[derive(Debug)]
pub struct DistributedService {
    shared: Arc<DistShared>,
    /// Reader and heartbeat threads, one pair per endpoint.
    threads: Vec<JoinHandle<()>>,
}

impl DistributedService {
    /// Connect to every endpoint in `builder` and start the per-connection
    /// reader and heartbeat threads.  Called by
    /// [`ServiceBuilder::build_distributed`].
    pub(crate) fn from_builder(builder: ServiceBuilder) -> std::io::Result<Self> {
        let tolerances = builder.config.tolerances;
        let model = builder.model.unwrap_or_else(|| Arc::new(CostModel::new()));
        let mut endpoints = Vec::with_capacity(builder.endpoints.len());
        for addr in &builder.endpoints {
            endpoints.push(Arc::new(connect(addr)?));
        }
        let shared = Arc::new(DistShared {
            endpoints,
            policy: builder.policy,
            tolerances,
            model,
            cache: builder.cache,
            pending: Mutex::new(HashMap::new()),
            space: Condvar::new(),
            next_job_id: AtomicU64::new(0),
            obs: Observability::new(),
            shutting_down: AtomicBool::new(false),
        });
        let mut threads = Vec::with_capacity(shared.endpoints.len() * 2);
        for index in 0..shared.endpoints.len() {
            let reader_shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("pagani-remote-reader".into())
                    .spawn(move || reader_loop(&reader_shared, index))
                    .expect("spawning the remote reader thread"),
            );
            let beat_shared = Arc::clone(&shared);
            let interval = builder.heartbeat_interval;
            threads.push(
                std::thread::Builder::new()
                    .name("pagani-remote-heartbeat".into())
                    .spawn(move || heartbeat_loop(&beat_shared, index, interval))
                    .expect("spawning the remote heartbeat thread"),
            );
        }
        Ok(Self { shared, threads })
    }

    /// Number of configured worker endpoints.
    #[must_use]
    pub fn endpoint_count(&self) -> usize {
        self.shared.endpoints.len()
    }

    /// The configured endpoint addresses, in builder order.
    #[must_use]
    pub fn endpoint_addrs(&self) -> Vec<String> {
        self.shared
            .endpoints
            .iter()
            .map(|e| e.addr.clone())
            .collect()
    }

    /// Number of endpoints whose connection is currently alive.
    #[must_use]
    pub fn endpoints_alive(&self) -> usize {
        self.shared
            .endpoints
            .iter()
            .filter(|e| e.alive.load(AtomicOrdering::SeqCst))
            .count()
    }

    /// Jobs currently in flight across all workers.
    #[must_use]
    pub fn queued_jobs(&self) -> usize {
        lock(&self.shared.pending).len()
    }

    /// The measured [`CostModel`] the front-end plans with.  Workers report
    /// wall times with every result, so the model trains across the wire.
    #[must_use]
    pub fn cost_model(&self) -> &Arc<CostModel> {
        &self.shared.model
    }

    /// A [`ServiceMetrics`] snapshot — the same vocabulary as the local
    /// services, with the `remote_*` counters live.
    #[must_use]
    pub fn metrics(&self) -> ServiceMetrics {
        self.shared.obs.snapshot(self.queued_jobs())
    }

    /// Dispatch `job` to the least-loaded live worker and return its handle.
    /// Blocks while the in-flight set is at [`ServicePolicy::queue_bound`].
    ///
    /// Oversized jobs (estimated footprint past every worker's device
    /// memory) slab-split exactly like
    /// [`crate::MultiDeviceService::submit`]: children ship as independent
    /// wire jobs and a combiner thread recombines them in slab order.
    #[must_use]
    pub fn submit(&self, job: BatchJob) -> JobHandle {
        if let Some(parts) = self.slab_parts(&job) {
            return self.submit_slabbed(&job, parts);
        }
        let weight = self.shared.model.weigh_job(&job, self.shared.tolerances);
        let mut pending = lock(&self.shared.pending);
        if let Some(bound) = self.shared.policy.queue_bound {
            while pending.len() >= bound && !self.shared.shutting_down.load(AtomicOrdering::SeqCst)
            {
                pending = self
                    .shared
                    .space
                    .wait(pending)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        dispatch_locked(&self.shared, pending, job, weight)
    }

    /// [`DistributedService::submit`] with refuse-instead-of-wait semantics,
    /// mirroring [`crate::IntegrationService::try_submit`]: a full front-end
    /// queue refuses with [`Rejected::QueueFull`]; a deadline the model
    /// predicts cannot be met at the current cross-worker backlog refuses
    /// with [`Rejected::DeadlineInfeasible`] — the job never crosses the
    /// wire.
    ///
    /// # Errors
    /// [`Rejected::QueueFull`] and [`Rejected::DeadlineInfeasible`], each
    /// handing the job back unmodified.
    pub fn try_submit(&self, job: BatchJob) -> Result<JobHandle, Rejected> {
        let pending = lock(&self.shared.pending);
        let job =
            self.shared
                .obs
                .admit(self.shared.policy.queue_bound, pending.len(), job, |job| {
                    self.estimated_completion(job)
                })?;
        if let Some(parts) = self.slab_parts(&job) {
            drop(pending);
            return Ok(self.submit_slabbed(&job, parts));
        }
        let weight = self.shared.model.weigh_job(&job, self.shared.tolerances);
        Ok(dispatch_locked(&self.shared, pending, job, weight))
    }

    /// Predicted time to complete `job` from now: the live workers' pooled
    /// backlog (outstanding charge over total worker threads) plus the job's
    /// own predicted duration.  `None` while the model is cold — admission
    /// stays optimistic until real work has been measured, exactly like the
    /// in-process services.
    #[must_use]
    pub fn estimated_completion(&self, job: &BatchJob) -> Option<Duration> {
        let own = self.shared.model.predict_job(job, self.shared.tolerances)?;
        let (outstanding, workers) = self
            .shared
            .endpoints
            .iter()
            .filter(|e| e.alive.load(AtomicOrdering::SeqCst))
            .fold((0.0f64, 0usize), |(sum, workers), e| {
                (sum + *lock(&e.outstanding), workers + e.workers as usize)
            });
        let backlog =
            Duration::from_secs_f64((outstanding / 1e6 / workers.max(1) as f64).clamp(0.0, 1e9));
        Some(backlog + own)
    }

    /// Graceful shutdown: wait for every in-flight job to complete, then
    /// close the connections and join the reader and heartbeat threads.
    /// Workers keep running — they belong to their own processes.
    pub fn shutdown(self) {
        {
            let mut pending = lock(&self.shared.pending);
            while !pending.is_empty() {
                pending = self
                    .shared
                    .space
                    .wait(pending)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        self.shared
            .shutting_down
            .store(true, AtomicOrdering::SeqCst);
        for endpoint in &self.shared.endpoints {
            endpoint.alive.store(false, AtomicOrdering::SeqCst);
            let _ = endpoint.stream.shutdown(Shutdown::Both);
        }
        for thread in self.threads {
            let _ = thread.join();
        }
    }

    /// The [`slab_count`] of `job` against the *largest* live worker's
    /// memory (one big box should serve a big job whole rather than split
    /// it), or `None` while no worker is alive.
    fn slab_parts(&self, job: &BatchJob) -> Option<usize> {
        let budget = self
            .shared
            .endpoints
            .iter()
            .filter(|e| e.alive.load(AtomicOrdering::SeqCst))
            .map(|e| e.memory_capacity)
            .max()?;
        slab_count(job, self.shared.tolerances, budget as f64)
    }

    /// Slab-split an oversized job: children dispatch as independent wire
    /// jobs, each charging its share of the parent's weight.
    fn submit_slabbed(&self, job: &BatchJob, parts: usize) -> JobHandle {
        submit_slabbed(
            job,
            parts,
            &self.shared.model,
            self.shared.tolerances,
            |child, weight| {
                dispatch_locked(&self.shared, lock(&self.shared.pending), child, weight)
            },
        )
    }
}

/// Dial one worker and run the versioned handshake.
fn connect(addr: &str) -> std::io::Result<Endpoint> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    let mut reader = stream.try_clone()?;
    let writer = stream.try_clone()?;
    Message::Hello {
        version: PROTOCOL_VERSION,
    }
    .write_to(&mut &stream)?;
    match Message::read_from(&mut reader) {
        Ok(Message::HelloAck {
            memory_capacity,
            workers,
            ..
        }) => Ok(Endpoint {
            addr: addr.to_owned(),
            stream,
            writer: Mutex::new(writer),
            outstanding: Mutex::new(0.0),
            alive: AtomicBool::new(true),
            memory_capacity,
            workers,
        }),
        Ok(Message::HelloReject { message, .. }) => Err(std::io::Error::new(
            std::io::ErrorKind::ConnectionRefused,
            format!("worker {addr} refused the handshake: {message}"),
        )),
        Ok(_) => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("worker {addr} answered the handshake with a non-handshake frame"),
        )),
        Err(err) => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("handshake with worker {addr} failed: {err}"),
        )),
    }
}

/// Build the `Submit` frame for `job`, attaching the best persisted
/// checkpoint when the front-end cache holds one.
fn submit_frame(shared: &DistShared, job_id: u64, job: &BatchJob) -> Message {
    let snapshot_json = shared.cache.as_ref().and_then(|cache| {
        let key = job_cache_key(job, shared.tolerances);
        cache
            .lookup_snapshot(&key.integrand_id, &key.region_lo_bits, &key.region_hi_bits)
            .map(|snapshot| snapshot.to_json_string())
    });
    Message::Submit {
        job_id,
        integrand: job.integrand().name(),
        dim: job.region().dim() as u32,
        lo_bits: job.region().lo().iter().map(|v| v.to_bits()).collect(),
        hi_bits: job.region().hi().iter().map(|v| v.to_bits()).collect(),
        priority: priority_to_tag(job.priority()),
        deadline_micros: job.deadline().map_or(NO_DEADLINE, |d| {
            d.as_micros().min(u128::from(u64::MAX)) as u64
        }),
        snapshot_json,
    }
}

/// The live endpoint with the least per-worker-thread outstanding load.
fn least_loaded(shared: &DistShared) -> Option<usize> {
    shared
        .endpoints
        .iter()
        .enumerate()
        .filter(|(_, e)| e.alive.load(AtomicOrdering::SeqCst))
        .min_by(|(_, a), (_, b)| {
            let la = remote_lane_load(*lock(&a.outstanding), a.workers as usize);
            let lb = remote_lane_load(*lock(&b.outstanding), b.workers as usize);
            la.partial_cmp(&lb).unwrap_or(std::cmp::Ordering::Equal)
        })
        .map(|(i, _)| i)
}

/// Register `job` as pending with its dispatch `weight` (holding the lock so
/// queue-bound checks stay exact), then ship it.  Returns a detached handle
/// whose cancel hook forwards a `Cancel` frame to whichever worker currently
/// holds the job.
fn dispatch_locked(
    shared: &Arc<DistShared>,
    mut pending: MutexGuard<'_, HashMap<u64, Pending>>,
    job: BatchJob,
    weight: f64,
) -> JobHandle {
    let job_id = shared.next_job_id.fetch_add(1, AtomicOrdering::Relaxed);
    let state = Arc::new(JobState::new());
    pending.insert(
        job_id,
        Pending {
            job,
            state: Arc::clone(&state),
            endpoint: None,
            weight,
        },
    );
    drop(pending);
    shared.obs.submitted.fetch_add(1, AtomicOrdering::Relaxed);
    ship(shared, job_id, false);
    let hook_shared = Arc::clone(shared);
    JobHandle::detached(
        state,
        Some(Arc::new(move || {
            let endpoint = lock(&hook_shared.pending)
                .get(&job_id)
                .and_then(|entry| entry.endpoint);
            if let Some(index) = endpoint {
                if let Some(endpoint) = hook_shared.endpoints.get(index) {
                    let _ = endpoint.send(&Message::Cancel { job_id });
                }
            }
        })),
    )
}

/// Ship (or re-ship) a registered pending job to the least-loaded live
/// worker, charging its weight to that endpoint's ledger.  If every worker
/// is gone the job's handle completes with a panic outcome — there is no
/// one left to run it.
fn ship(shared: &Arc<DistShared>, job_id: u64, requeue: bool) {
    loop {
        let Some(index) = least_loaded(shared) else {
            let entry = lock(&shared.pending).remove(&job_id);
            if let Some(entry) = entry {
                entry.state.complete(JobOutcome::Panicked(
                    "connection to every remote worker lost".to_owned(),
                ));
                shared.space.notify_all();
            }
            return;
        };
        let endpoint = &shared.endpoints[index];
        // Record the holder and charge it in one step, under the pending
        // lock, so completion and requeue each retire exactly this charge.
        let job = {
            let mut pending = lock(&shared.pending);
            let Some(entry) = pending.get_mut(&job_id) else {
                return; // completed (or failed) in the meantime
            };
            entry.endpoint = Some(index);
            *lock(&endpoint.outstanding) += entry.weight;
            entry.job.clone()
        };
        let frame = submit_frame(shared, job_id, &job);
        if endpoint.send(&frame).is_ok() {
            if requeue {
                shared
                    .obs
                    .remote_requeued
                    .fetch_add(1, AtomicOrdering::Relaxed);
            }
            shared
                .obs
                .remote_dispatched
                .fetch_add(1, AtomicOrdering::Relaxed);
            return;
        }
        // The write failed: this endpoint is dead.  Mark it, wake its
        // reader (which requeues *its* other jobs), retire this job's charge
        // and try the next survivor — unless the reader's requeue got to the
        // job first and owns it now.
        endpoint.alive.store(false, AtomicOrdering::SeqCst);
        let _ = endpoint.stream.shutdown(Shutdown::Both);
        if !uncharge(shared, job_id, index) {
            return;
        }
    }
}

/// If `job_id` is still pending and charged to endpoint `index`, retire that
/// charge and mark the job as between workers; whoever wins this race
/// re-ships it.
fn uncharge(shared: &DistShared, job_id: u64, index: usize) -> bool {
    let mut pending = lock(&shared.pending);
    match pending.get_mut(&job_id) {
        Some(entry) if entry.endpoint == Some(index) => {
            *lock(&shared.endpoints[index].outstanding) -= entry.weight;
            entry.endpoint = None;
            true
        }
        _ => false,
    }
}

/// Per-endpoint reader: completes jobs, counts heartbeat acks, and on a
/// dead connection requeues the endpoint's in-flight jobs on a survivor.
fn reader_loop(shared: &Arc<DistShared>, index: usize) {
    let endpoint = &shared.endpoints[index];
    let Ok(mut reader) = endpoint.stream.try_clone() else {
        return;
    };
    loop {
        match Message::read_from(&mut reader) {
            Ok(Message::JobDone {
                job_id,
                estimate_bits,
                error_bits,
                termination,
                iterations,
                function_evaluations,
                regions_generated,
                active_regions_final,
                wall_micros,
                snapshot_json,
            }) => {
                let Ok(termination) = tag_to_termination(termination) else {
                    continue;
                };
                let result = IntegrationResult {
                    estimate: f64::from_bits(estimate_bits),
                    error_estimate: f64::from_bits(error_bits),
                    termination,
                    iterations: iterations as usize,
                    function_evaluations,
                    regions_generated,
                    active_regions_final: active_regions_final as usize,
                    wall_time: Duration::from_micros(wall_micros),
                };
                complete_job(
                    shared,
                    job_id,
                    JobOutcome::Finished(PaganiOutput {
                        result,
                        trace: ExecutionTrace::default(),
                    }),
                    snapshot_json,
                );
            }
            Ok(Message::JobFailed { job_id, message }) => {
                complete_job(shared, job_id, JobOutcome::Panicked(message), None);
            }
            Ok(Message::HeartbeatAck { .. }) => {
                shared
                    .obs
                    .remote_heartbeats
                    .fetch_add(1, AtomicOrdering::Relaxed);
            }
            Ok(_) => {}
            Err(_) => break,
        }
    }
    if shared.shutting_down.load(AtomicOrdering::SeqCst) {
        return;
    }
    // Connection died mid-run: mark the endpoint dead and requeue every job
    // it held on a surviving worker (with its checkpoint, where one was
    // shipped back earlier).
    endpoint.alive.store(false, AtomicOrdering::SeqCst);
    let _ = endpoint.stream.shutdown(Shutdown::Both);
    let mut orphans: Vec<u64> = lock(&shared.pending)
        .iter()
        .filter(|(_, entry)| entry.endpoint == Some(index))
        .map(|(&job_id, _)| job_id)
        .collect();
    orphans.sort_unstable();
    for job_id in orphans {
        if uncharge(shared, job_id, index) {
            ship(shared, job_id, true);
        }
    }
}

/// Retire one completed job: ledger, model training, checkpoint capture,
/// handle completion, queue-space wakeup.
fn complete_job(
    shared: &Arc<DistShared>,
    job_id: u64,
    outcome: JobOutcome,
    snapshot_json: Option<String>,
) {
    let Some(entry) = lock(&shared.pending).remove(&job_id) else {
        return;
    };
    if let Some(index) = entry.endpoint {
        *lock(&shared.endpoints[index].outstanding) -= entry.weight;
    }
    if let JobOutcome::Finished(output) = &outcome {
        let cancelled = output.result.termination == Termination::Cancelled;
        if cancelled {
            shared.obs.cancelled.fetch_add(1, AtomicOrdering::Relaxed);
        } else {
            // Train the shared model with the worker-measured wall time —
            // what one worker learns prices that family everywhere.
            shared
                .model
                .record_job(&entry.job, shared.tolerances, output.result.wall_time);
        }
        if let (Some(cache), Some(json)) = (&shared.cache, &snapshot_json) {
            if let Ok(snapshot) = Snapshot::from_json_str(json) {
                if snapshot.validate().is_ok() {
                    cache.store(
                        job_cache_key(&entry.job, shared.tolerances),
                        None,
                        Some(snapshot),
                    );
                }
            }
        }
    }
    shared.obs.completed.fetch_add(1, AtomicOrdering::Relaxed);
    entry.state.complete(outcome);
    shared.space.notify_all();
}

/// Per-endpoint heartbeat: a [`Message::Heartbeat`] every `interval`,
/// sleeping in short ticks so shutdown stays responsive.  No clock is read —
/// tick counting is all the precision liveness probing needs.
fn heartbeat_loop(shared: &Arc<DistShared>, index: usize, interval: Duration) {
    let endpoint = &shared.endpoints[index];
    let tick = Duration::from_millis(10);
    let ticks_per_beat = (interval.as_millis() / tick.as_millis()).max(1) as u32;
    let mut seq = 0u64;
    loop {
        for _ in 0..ticks_per_beat {
            if shared.shutting_down.load(AtomicOrdering::SeqCst)
                || !endpoint.alive.load(AtomicOrdering::SeqCst)
            {
                return;
            }
            std::thread::sleep(tick);
        }
        seq += 1;
        if endpoint.send(&Message::Heartbeat { seq }).is_err() {
            // Writing failed: let the reader observe the dead socket and run
            // the requeue path; this thread's job is done.
            let _ = endpoint.stream.shutdown(Shutdown::Both);
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PaganiConfig;
    use crate::remote::{IntegrandRegistry, RemoteWorker};
    use pagani_device::{Device, DeviceConfig};
    use pagani_quadrature::FnIntegrand;

    #[test]
    fn endpoint_addresses_survive_construction() {
        // `connect` is exercised end-to-end in tests/distributed_semantics.rs
        // (it needs a live worker); here pin the pure pieces.
        let key = job_cache_key(
            &BatchJob::new(pagani_integrands::paper::PaperIntegrand::f4(3)),
            Tolerances::rel(1e-4),
        );
        assert_eq!(key.region_lo_bits.len(), 3);
    }

    /// The front-end's summed endpoint charge.
    fn charged(front: &DistributedService) -> f64 {
        front
            .shared
            .endpoints
            .iter()
            .map(|e| *lock(&e.outstanding))
            .sum()
    }

    #[test]
    fn slab_children_charge_exactly_the_parent_weight() {
        // A 5-D job at 1e-6 estimates to ~4 MiB of regions, so on a 1 MiB
        // worker it splits into several slab children; a closed gate holds
        // them all in flight while the ledger is read.
        let gate = Arc::new(AtomicBool::new(false));
        let held = || {
            let gate = Arc::clone(&gate);
            FnIntegrand::new(5, move |x: &[f64]| {
                while !gate.load(AtomicOrdering::Acquire) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                x.iter().sum()
            })
            .named("slab-charge")
        };
        let registry = Arc::new(IntegrandRegistry::new());
        registry.register(held());
        let config = PaganiConfig::test_small(Tolerances::rel(1e-6));
        let worker = RemoteWorker::bind(
            "127.0.0.1:0",
            ServiceBuilder::new(config.clone()).device(Device::new(
                DeviceConfig::test_small().with_memory_capacity(1 << 20),
            )),
            registry,
        )
        .expect("bind a loopback worker");
        let front = ServiceBuilder::new(config.clone())
            .endpoint(worker.local_addr().to_string())
            .build_distributed()
            .expect("connect the front-end");

        let job = BatchJob::new(held());
        let parent_weight = front.cost_model().weigh_job(&job, config.tolerances);
        let handle = front.submit(job);
        let (children, in_flight) = (front.queued_jobs(), charged(&front));
        gate.store(true, AtomicOrdering::Release);
        assert!(handle.wait().result.converged());
        assert!(children >= 2, "the job must slab-split");
        assert_eq!(in_flight, parent_weight);
        assert_eq!(charged(&front), 0.0);
        front.shutdown();
        worker.shutdown();
    }
}
