//! The front-end of the distributed scheduler: one submission surface
//! sharding jobs across remote worker processes.
//!
//! [`DistributedService`] is a facade over the one scheduler
//! ([`crate::scheduler`]) with a remote lane per worker, so it prices,
//! places, admits, splits and settles jobs exactly like the in-process
//! services: a job goes to a live worker whose device holds it whole, the
//! queue bound and deadline admission apply to that worker, and a refused
//! job never crosses the wire.  A remote lane adds transport:
//! [`crate::JobHandle::cancel`] forwards a [`Message::Cancel`] frame to
//! whichever worker holds the job, and a dead connection requeues its
//! in-flight jobs on a survivor ([`ServiceMetrics::remote_requeued`]),
//! re-shipping the latest persisted checkpoint so completed iterations are
//! not recomputed.

use std::collections::HashMap;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use pagani_persist::Snapshot;
use pagani_quadrature::IntegrationResult;

use crate::batch::BatchJob;
use crate::builder::ServiceBuilder;
use crate::cost::CostModel;
use crate::driver::PaganiOutput;
use crate::multi_device::DispatchMode;
use crate::remote::wire::{
    priority_to_tag, tag_to_termination, Message, NO_DEADLINE, PROTOCOL_VERSION,
};
use crate::scheduler::{settle, Book, Bounce, Core, Entry, Lane, Scheduler, Ticket};
use crate::service::{
    job_cache_key, JobHandle, JobOutcome, Observability, Rejected, ServiceMetrics,
};
use crate::trace::ExecutionTrace;

/// The interval between heartbeat probes on each remote connection.
const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(500);

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One connected remote worker: a remote lane.
#[derive(Debug)]
pub(crate) struct Endpoint {
    addr: String,
    stream: TcpStream,
    writer: Mutex<TcpStream>,
    alive: AtomicBool,
    core: Arc<Core>,
    /// Sized by the worker's `HelloAck`; the counters are the front-end's,
    /// shared by every endpoint.
    book: Book,
    /// Jobs shipped here and not yet reported, by wire job id.
    held: Mutex<HashMap<u64, Ticket>>,
    /// Signalled whenever `held` shrinks or the endpoint dies.
    space: Condvar,
}

impl Endpoint {
    fn send(&self, message: &Message) -> std::io::Result<()> {
        message.write_to(&mut *lock(&self.writer))
    }

    /// Settle the job `job_id` a report names, if this endpoint holds it,
    /// first keeping any checkpoint it shipped back in the front-end cache.
    fn report(&self, job_id: u64, outcome: JobOutcome, snapshot_json: Option<String>) {
        let Some(ticket) = lock(&self.held).remove(&job_id) else {
            return;
        };
        let snapshot = snapshot_json.and_then(|json| Snapshot::from_json_str(&json).ok());
        if let (JobOutcome::Finished(_), Some(cache), Some(snapshot)) = (
            &outcome,
            &self.core.cache,
            snapshot.filter(|s| s.validate().is_ok()),
        ) {
            let key = job_cache_key(&ticket.job, self.core.config.tolerances);
            cache.store(key, None, Some(snapshot));
        }
        // Workers report measured wall times: what one learns prices that
        // family everywhere.
        settle(&self.core, &self.book, ticket, outcome, true);
        self.space.notify_all();
    }
}

impl Lane for Endpoint {
    fn alive(&self) -> bool {
        self.alive.load(AtomicOrdering::SeqCst)
    }

    fn queued(&self) -> usize {
        lock(&self.held).len()
    }

    fn book(&self) -> &Book {
        &self.book
    }

    fn enqueue(&self, ticket: Ticket, entry: &Entry<'_>) -> Result<(), Bounce> {
        let frame = submit_frame(&self.core, ticket.id, &ticket.job);
        let mut held = lock(&self.held);
        if let Entry::Wait(Some(bound)) = entry {
            let full = |held: &mut HashMap<u64, Ticket>| held.len() >= *bound && self.alive();
            held = self
                .space
                .wait_while(held, full)
                .unwrap_or_else(PoisonError::into_inner);
        }
        // A dead endpoint files nothing: its reader has requeued (or is
        // requeueing) everything it held.
        if !self.alive() {
            return Err(Bounce::Dead(Box::new(ticket)));
        }
        if let Entry::Admit(admit) = entry {
            if let Some(rejected) = admit(&self.book, held.len(), &ticket.job) {
                return Err(Bounce::Refused(rejected));
            }
        }
        // File and charge under the held lock (lock order: held → ledger),
        // so completion and requeue each retire exactly this charge.
        self.book.charge(&ticket, 1.0);
        held.insert(ticket.id, ticket);
        drop(held);
        if self.send(&frame).is_ok() {
            self.book
                .obs
                .remote_dispatched
                .fetch_add(1, AtomicOrdering::Relaxed);
        } else {
            // The write failed: this endpoint is dead.  Its reader observes
            // the closed socket and requeues everything filed here, this job
            // included.
            self.alive.store(false, AtomicOrdering::SeqCst);
            let _ = self.stream.shutdown(Shutdown::Both);
        }
        Ok(())
    }

    fn handle(lanes: &Arc<[Self]>, _lane: usize, ticket: &Ticket) -> JobHandle {
        let (lanes, job_id) = (Arc::clone(lanes), ticket.id);
        JobHandle::detached(
            Arc::clone(&ticket.state),
            Some(Arc::new(move || {
                // Forward the cancel to whichever worker holds the job now.
                let holder = lanes
                    .iter()
                    .find(|endpoint| lock(&endpoint.held).contains_key(&job_id));
                if let Some(endpoint) = holder {
                    let _ = endpoint.send(&Message::Cancel { job_id });
                }
            })),
        )
    }
}

#[derive(Debug)]
struct DistShared {
    sched: Scheduler<Endpoint>,
    /// The front-end's counters, shared by every endpoint.
    obs: Arc<Observability>,
    shutting_down: AtomicBool,
    /// Signalled, after taking its lock, whenever a reader may have settled
    /// jobs: [`DistributedService::shutdown`] waits on it.
    settled: (Mutex<()>, Condvar),
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
        let core = Core::new(builder.config, builder.model, builder.cache);
        let obs: Arc<Observability> = Arc::default();
        let mut endpoints = Vec::with_capacity(builder.endpoints.len());
        for addr in &builder.endpoints {
            endpoints.push(connect(addr, &core, &obs)?);
        }
        let shared = Arc::new(DistShared {
            sched: Scheduler::new(
                core,
                endpoints,
                DispatchMode::CostBalanced,
                builder.queue_bound,
                true,
            ),
            obs,
            shutting_down: AtomicBool::new(false),
            settled: Default::default(),
        });
        let mut threads = Vec::with_capacity(shared.sched.lanes.len() * 2);
        for index in 0..shared.sched.lanes.len() {
            let reader = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("pagani-remote-reader".into())
                    .spawn(move || reader_loop(&reader, index))
                    .expect("spawning the remote reader thread"),
            );
            let beat = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("pagani-remote-heartbeat".into())
                    .spawn(move || heartbeat_loop(&beat, index))
                    .expect("spawning the remote heartbeat thread"),
            );
        }
        Ok(Self { shared, threads })
    }

    fn endpoints(&self) -> &[Endpoint] {
        &self.shared.sched.lanes
    }

    /// Number of configured worker endpoints.
    #[must_use]
    pub fn endpoint_count(&self) -> usize {
        self.endpoints().len()
    }

    /// The configured endpoint addresses, in builder order.
    #[must_use]
    pub fn endpoint_addrs(&self) -> Vec<String> {
        self.endpoints().iter().map(|e| e.addr.clone()).collect()
    }

    /// Number of endpoints whose connection is currently alive.
    #[must_use]
    pub fn endpoints_alive(&self) -> usize {
        self.endpoints().iter().filter(|e| e.alive()).count()
    }

    /// Jobs currently in flight across all workers.
    #[must_use]
    pub fn queued_jobs(&self) -> usize {
        self.endpoints().iter().map(Lane::queued).sum()
    }

    /// The measured [`CostModel`] the front-end plans with.  Workers report
    /// wall times with every result, so the model trains across the wire.
    #[must_use]
    pub fn cost_model(&self) -> &Arc<CostModel> {
        &self.shared.sched.core.model
    }

    /// A [`ServiceMetrics`] snapshot — the same vocabulary as the local
    /// services, with the `remote_*` counters live, over every endpoint:
    /// `outstanding_predicted` sums their ledgers.
    #[must_use]
    pub fn metrics(&self) -> ServiceMetrics {
        let outstanding = self.endpoints().iter().map(|e| e.book.backlog()).sum();
        self.shared.obs.snapshot(self.queued_jobs(), outstanding)
    }

    /// Ship `job` to a live worker and return its handle.  Blocks while the
    /// chosen worker has [`ServiceBuilder::queue_bound`] jobs in flight.
    ///
    /// Oversized jobs (estimated footprint past every worker's device
    /// memory) slab-split exactly like
    /// [`crate::MultiDeviceService::submit`]: children ship as independent
    /// wire jobs and the last to report publishes the slab-order fold.
    #[must_use]
    pub fn submit(&self, job: BatchJob) -> JobHandle {
        self.shared.sched.submit(job, None)
    }

    /// [`DistributedService::submit`] with refuse-instead-of-wait semantics,
    /// mirroring [`crate::MultiDeviceService::try_submit`]: the chosen
    /// worker's queue at its bound refuses with [`Rejected::QueueFull`]; a
    /// deadline the model predicts cannot be met at that worker's backlog
    /// refuses with [`Rejected::DeadlineInfeasible`] — the job never crosses
    /// the wire.
    ///
    /// # Errors
    /// [`Rejected::QueueFull`] and [`Rejected::DeadlineInfeasible`], each
    /// handing the job back unmodified.
    pub fn try_submit(&self, job: BatchJob) -> Result<JobHandle, Rejected> {
        self.shared.sched.try_submit(job)
    }

    /// Predicted time to complete `job` from now on the worker it would be
    /// placed on: that worker's backlog (its ledger over its worker threads)
    /// plus the job's own predicted duration.  `None` while the model is
    /// cold — admission stays optimistic until real work has been measured,
    /// exactly like the in-process services.
    #[must_use]
    pub fn estimated_completion(&self, job: &BatchJob) -> Option<Duration> {
        self.shared.sched.estimated_completion(job)
    }

    /// Graceful shutdown: wait for every submitted job to settle (requeues
    /// included), then close the connections and join the reader and
    /// heartbeat threads.  Workers keep running — they belong to their own
    /// processes.
    pub fn shutdown(self) {
        // Every submission has returned (this call owns the service), so
        // `submitted` is final; readers bump `completed` as jobs settle.
        let (obs, (mutex, settled)) = (&self.shared.obs, &self.shared.settled);
        let unsettled = |_: &mut ()| {
            obs.completed.load(AtomicOrdering::SeqCst) < obs.submitted.load(AtomicOrdering::SeqCst)
        };
        drop(settled.wait_while(lock(mutex), unsettled));
        self.shared
            .shutting_down
            .store(true, AtomicOrdering::SeqCst);
        for endpoint in self.endpoints() {
            endpoint.alive.store(false, AtomicOrdering::SeqCst);
            let _ = endpoint.stream.shutdown(Shutdown::Both);
        }
        for thread in self.threads {
            let _ = thread.join();
        }
    }
}

/// Dial one worker and run the versioned handshake.
fn connect(addr: &str, core: &Arc<Core>, obs: &Arc<Observability>) -> std::io::Result<Endpoint> {
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
            alive: AtomicBool::new(true),
            core: Arc::clone(core),
            book: Book::new(memory_capacity, workers as usize, Arc::clone(obs)),
            held: Mutex::new(HashMap::new()),
            space: Condvar::new(),
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
fn submit_frame(core: &Core, job_id: u64, job: &BatchJob) -> Message {
    let snapshot_json = core.cache.as_ref().and_then(|cache| {
        let key = job_cache_key(job, core.config.tolerances);
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

/// Per-endpoint reader: settles reported jobs, counts heartbeat acks, and
/// on a dead connection requeues the endpoint's in-flight jobs on a
/// survivor.
fn reader_loop(shared: &DistShared, index: usize) {
    let endpoint = &shared.sched.lanes[index];
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
                let output = PaganiOutput {
                    result,
                    trace: ExecutionTrace::default(),
                };
                endpoint.report(job_id, JobOutcome::Finished(output), snapshot_json);
            }
            Ok(Message::JobFailed { job_id, message }) => {
                endpoint.report(job_id, JobOutcome::Panicked(message), None);
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
        // The frame may have settled a job: wake `shutdown` to recount.
        drop(lock(&shared.settled.0));
        shared.settled.1.notify_all();
    }
    if shared.shutting_down.load(AtomicOrdering::SeqCst) {
        return;
    }
    // Connection died mid-run: mark the endpoint dead and requeue every job
    // it held, in submission order, on a surviving worker (with its
    // checkpoint, where one was shipped back earlier).
    let mut orphans: Vec<Ticket> = {
        let mut held = lock(&endpoint.held);
        endpoint.alive.store(false, AtomicOrdering::SeqCst);
        held.drain().map(|(_, ticket)| ticket).collect()
    };
    let _ = endpoint.stream.shutdown(Shutdown::Both);
    endpoint.space.notify_all();
    orphans.sort_unstable_by_key(|ticket| ticket.id);
    for ticket in orphans {
        endpoint.book.charge(&ticket, -1.0); // retired here, charged to a survivor
        if shared.sched.requeue(ticket) {
            shared
                .obs
                .remote_requeued
                .fetch_add(1, AtomicOrdering::Relaxed);
        }
    }
    // A ticket no survivor took has settled as failed.
    drop(lock(&shared.settled.0));
    shared.settled.1.notify_all();
}

/// Per-endpoint heartbeat: a [`Message::Heartbeat`] every
/// [`HEARTBEAT_INTERVAL`], sleeping in short ticks so shutdown stays
/// responsive.  No clock is read — tick counting is all the precision
/// liveness probing needs.
fn heartbeat_loop(shared: &DistShared, index: usize) {
    let endpoint = &shared.sched.lanes[index];
    let tick = Duration::from_millis(10);
    let ticks_per_beat = (HEARTBEAT_INTERVAL.as_millis() / tick.as_millis()) as u32;
    let mut seq = 0u64;
    loop {
        for _ in 0..ticks_per_beat {
            if shared.shutting_down.load(AtomicOrdering::SeqCst) || !endpoint.alive() {
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
    use crate::cost::CostKey;
    use crate::remote::{IntegrandRegistry, RemoteWorker};
    use pagani_device::{Device, DeviceConfig};
    use pagani_quadrature::{FnIntegrand, Tolerances};

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
        front.endpoints().iter().map(|e| e.book.charged()).sum()
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
        let parent_weight = CostKey::for_job(&job, config.tolerances).static_cost();
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

    #[test]
    fn a_requeue_moves_each_charge_to_the_survivor_exactly() {
        // Four gated jobs over two identical workers, two each; severing one
        // worker requeues its two on the survivor, and the summed charge
        // must still be exactly the four jobs' weights.
        let gate = Arc::new(AtomicBool::new(false));
        let gated = || {
            let gate = Arc::clone(&gate);
            FnIntegrand::new(2, move |x: &[f64]| {
                while !gate.load(AtomicOrdering::Acquire) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                x[0] + x[1]
            })
            .named("requeue-charge")
        };
        let held = || BatchJob::new(gated());
        let registry = Arc::new(IntegrandRegistry::new());
        registry.register(gated());
        let config = PaganiConfig::test_small(Tolerances::rel(1e-4));
        let bind = || {
            let builder = ServiceBuilder::new(config.clone()).device(Device::test_small());
            RemoteWorker::bind("127.0.0.1:0", builder, Arc::clone(&registry)).expect("bind")
        };
        let workers = [bind(), bind()];
        let front = ServiceBuilder::new(config.clone())
            .endpoints(workers.iter().map(|w| w.local_addr().to_string()))
            .build_distributed()
            .expect("connect the front-end");

        let weight = CostKey::for_job(&held(), config.tolerances).static_cost();
        let handles: Vec<crate::JobHandle> = (0..4).map(|_| front.submit(held())).collect();
        assert_eq!(charged(&front), 4.0 * weight);
        workers[0].sever();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while front.metrics().remote_requeued < 2 {
            assert!(std::time::Instant::now() < deadline, "no requeue");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(charged(&front), 4.0 * weight);
        gate.store(true, AtomicOrdering::Release);
        assert!(handles.iter().all(|h| h.wait().result.converged()));
        assert_eq!(charged(&front), 0.0);
        front.shutdown();
        workers.into_iter().for_each(RemoteWorker::shutdown);
    }
}
