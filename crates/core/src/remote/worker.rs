//! The worker side of the wire: a TCP listener wrapping one
//! [`IntegrationService`].
//!
//! A [`RemoteWorker`] accepts front-end connections, resolves incoming jobs
//! against its [`IntegrandRegistry`], runs them on its ordinary local
//! service (priorities, deadlines, cancellation and the persist layer's
//! warm starts all work unchanged), and streams results back as
//! [`Message::JobDone`] frames.  Because the service is the same one a
//! single-process deployment uses, a result computed here is bit-identical
//! to the local run — the wire adds transport, never arithmetic.
//!
//! Each connection runs two threads: a handler reading frames, and a
//! writer sending every outgoing frame from an unbounded queue.  A job's
//! outcome is queued by the service's completion hook on the worker that
//! ran it — or, for a repeat the worker's cache answers exactly, on the
//! handler itself before `submit` returns — so no thread waits per job, and
//! a front-end that stops reading stalls only its own writer, never the
//! service's workers.

use std::collections::HashMap;
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use pagani_persist::{CacheKey, ResultCache, Snapshot};
use pagani_quadrature::{Region, Termination};

use crate::batch::BatchJob;
use crate::builder::ServiceBuilder;
use crate::remote::registry::IntegrandRegistry;
use crate::remote::wire::{
    tag_to_priority, termination_to_tag, Message, NO_DEADLINE, PROTOCOL_VERSION,
};
use crate::service::{job_cache_key, CompletionHook, IntegrationService, JobHandle, JobOutcome};

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Size of the crash-recovery cache a worker attaches when its builder
/// carries none: partial snapshots of cancelled/exhausted runs live here so
/// a requeued job can resume instead of restarting.
const DEFAULT_WORKER_CACHE_BYTES: usize = 64 << 20;

/// One accepted front-end connection: the duplex stream plus the jobs it
/// currently has in flight (cancelled wholesale if the connection dies).
#[derive(Debug)]
struct Connection {
    stream: TcpStream,
    /// In-flight jobs by wire id.  A job's handle is filed when `submit`
    /// returns and its report is queued by the completion hook, in either
    /// order: whichever comes second removes the entry the first one left
    /// (`None` marks a job that reported before its handle was filed).
    inflight: Mutex<HashMap<u64, Option<JobHandle>>>,
}

impl Connection {
    /// File `entry` for `job_id`, or — when the other side of the
    /// submit/report race already filed one — retire the job instead.
    fn settle(&self, job_id: u64, entry: Option<JobHandle>) {
        let mut inflight = lock(&self.inflight);
        if inflight.remove(&job_id).is_none() {
            inflight.insert(job_id, entry);
        }
    }
}

#[derive(Debug)]
struct WorkerShared {
    service: IntegrationService,
    registry: Arc<IntegrandRegistry>,
    cache: Arc<ResultCache>,
    shutting_down: AtomicBool,
    connections: Mutex<Vec<Arc<Connection>>>,
    /// Connection-handler threads, one per accepted connection, joined at
    /// shutdown.
    threads: Mutex<Vec<JoinHandle<()>>>,
}

/// A worker process: one [`IntegrationService`] behind a TCP listener.
///
/// Bind it with a [`ServiceBuilder`] carrying exactly one device (the
/// builder's cache, policy and cost model apply to the wrapped service) and
/// the [`IntegrandRegistry`] naming the jobs it may be asked to run:
///
/// ```no_run
/// use std::sync::Arc;
/// use pagani_core::{IntegrandRegistry, PaganiConfig, RemoteWorker, ServiceBuilder};
/// use pagani_device::Device;
/// use pagani_quadrature::Tolerances;
///
/// let worker = RemoteWorker::bind(
///     "127.0.0.1:0",
///     ServiceBuilder::new(PaganiConfig::test_small(Tolerances::rel(1e-5)))
///         .device(Device::test_small()),
///     Arc::new(IntegrandRegistry::with_paper_suite(6)),
/// )
/// .expect("bind the worker listener");
/// println!("serving on {}", worker.local_addr());
/// ```
#[derive(Debug)]
pub struct RemoteWorker {
    shared: Arc<WorkerShared>,
    listener_addr: std::net::SocketAddr,
    acceptor: JoinHandle<()>,
}

impl RemoteWorker {
    /// Bind a listener on `addr` (use port 0 for an OS-assigned port) and
    /// start accepting front-end connections.
    ///
    /// If `builder` carries no [`ResultCache`], a worker-local one is
    /// attached so cancelled and memory-exhausted runs leave resumable
    /// snapshots behind — the crash-recovery half of the requeue story.
    ///
    /// # Errors
    /// Propagates listener bind failures.
    ///
    /// # Panics
    /// Panics unless the builder carries exactly one device and no remote
    /// endpoints (a worker *is* the remote end).
    pub fn bind(
        addr: impl ToSocketAddrs,
        builder: ServiceBuilder,
        registry: Arc<IntegrandRegistry>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let listener_addr = listener.local_addr()?;
        let builder = if builder.cache.is_none() {
            builder.cache(Arc::new(ResultCache::new(DEFAULT_WORKER_CACHE_BYTES)))
        } else {
            builder
        };
        let cache = Arc::clone(builder.cache.as_ref().expect("cache attached above"));
        let service = builder.build();
        let shared = Arc::new(WorkerShared {
            service,
            registry,
            cache,
            shutting_down: AtomicBool::new(false),
            connections: Mutex::new(Vec::new()),
            threads: Mutex::new(Vec::new()),
        });
        let acceptor_shared = Arc::clone(&shared);
        let acceptor = std::thread::Builder::new()
            .name("pagani-remote-acceptor".into())
            .spawn(move || acceptor_loop(&listener, &acceptor_shared))
            .expect("spawning the remote acceptor thread");
        Ok(Self {
            shared,
            listener_addr,
            acceptor,
        })
    }

    /// The address the worker is listening on (with the OS-assigned port
    /// resolved).
    #[must_use]
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.listener_addr
    }

    /// The wrapped local service — its metrics are the worker's metrics.
    #[must_use]
    pub fn service(&self) -> &IntegrationService {
        &self.shared.service
    }

    /// Chaos hook for crash-recovery tests: abruptly sever every front-end
    /// connection *without* draining in-flight jobs or sending any farewell
    /// frame, exactly as a killed process would.  The worker keeps running;
    /// front-ends observe a dead connection and requeue.
    pub fn sever(&self) {
        for connection in lock(&self.shared.connections).iter() {
            let _ = connection.stream.shutdown(Shutdown::Both);
        }
    }

    /// Graceful shutdown: stop accepting, sever connections, cancel
    /// in-flight jobs, join every connection thread and drain the wrapped
    /// service.
    pub fn shutdown(self) {
        self.shared
            .shutting_down
            .store(true, AtomicOrdering::SeqCst);
        // Unblock `accept` by dialling ourselves; the acceptor checks the
        // flag before handling what it accepted.
        let _ = TcpStream::connect(self.listener_addr);
        self.sever();
        let _ = self.acceptor.join();
        loop {
            let Some(thread) = lock(&self.shared.threads).pop() else {
                break;
            };
            let _ = thread.join();
        }
        let shared =
            Arc::try_unwrap(self.shared).expect("all worker threads joined, no clones outstanding");
        shared.service.shutdown();
    }
}

fn acceptor_loop(listener: &TcpListener, shared: &Arc<WorkerShared>) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            return;
        };
        if shared.shutting_down.load(AtomicOrdering::SeqCst) {
            return;
        }
        let _ = stream.set_nodelay(true);
        let connection = Arc::new(Connection {
            stream,
            inflight: Mutex::new(HashMap::new()),
        });
        lock(&shared.connections).push(Arc::clone(&connection));
        let conn_shared = Arc::clone(shared);
        let handler = std::thread::Builder::new()
            .name("pagani-remote-conn".into())
            .spawn(move || connection_loop(&conn_shared, &connection))
            .expect("spawning the remote connection thread");
        lock(&shared.threads).push(handler);
    }
}

fn connection_loop(shared: &WorkerShared, connection: &Arc<Connection>) {
    let (Ok(reader), Ok(writer)) = (connection.stream.try_clone(), connection.stream.try_clone())
    else {
        return;
    };
    let (outbox, outgoing) = mpsc::channel();
    let writer = std::thread::Builder::new()
        .name("pagani-remote-writer".into())
        .spawn(move || writer_loop(writer, &outgoing))
        .expect("spawning the remote writer thread");
    serve(shared, connection, reader, outbox);
    // The writer drains once the last sender is gone: this thread's went
    // with `serve`, each job's goes when its completion hook has run.
    let _ = writer.join();
    let _ = connection.stream.shutdown(Shutdown::Both);
    lock(&shared.connections).retain(|c| !Arc::ptr_eq(c, connection));
}

/// Send every queued frame in order, until every sender is gone or the
/// connection refuses a write (later reports are then dropped unsent).
fn writer_loop(mut writer: TcpStream, outgoing: &Receiver<Message>) {
    for message in outgoing {
        if message.write_to(&mut writer).is_err() {
            return;
        }
    }
}

/// Read and answer frames until the connection ends, then cancel the jobs
/// it still has in flight — the front-end will requeue them elsewhere.
fn serve(
    shared: &WorkerShared,
    connection: &Arc<Connection>,
    mut reader: TcpStream,
    outbox: Sender<Message>,
) {
    while let Ok(message) = Message::read_from(&mut reader) {
        let keep_going = match message {
            Message::Hello { version } => handle_hello(shared, &outbox, version),
            submit @ Message::Submit { .. } => {
                handle_submit(shared, connection, &outbox, submit);
                true
            }
            Message::Cancel { job_id } => {
                if let Some(Some(handle)) = lock(&connection.inflight).get(&job_id) {
                    handle.cancel();
                }
                true
            }
            Message::Heartbeat { seq } => outbox.send(Message::HeartbeatAck { seq }).is_ok(),
            // Anything else is a protocol confusion; drop the connection
            // rather than guess.
            _ => false,
        };
        if !keep_going {
            break;
        }
    }
    let orphaned: Vec<JobHandle> = lock(&connection.inflight)
        .drain()
        .filter_map(|(_, handle)| handle)
        .collect();
    for handle in orphaned {
        handle.cancel();
    }
}

fn handle_hello(shared: &WorkerShared, outbox: &Sender<Message>, version: u32) -> bool {
    if version == PROTOCOL_VERSION {
        outbox
            .send(Message::HelloAck {
                version: PROTOCOL_VERSION,
                memory_capacity: shared.service.device().config().memory_capacity as u64,
                workers: shared.service.worker_count() as u32,
            })
            .is_ok()
    } else {
        let _ = outbox.send(Message::HelloReject {
            version: PROTOCOL_VERSION,
            message: format!("worker speaks wire protocol v{PROTOCOL_VERSION}, got v{version}"),
        });
        false
    }
}

/// Resolve and validate one `Message::Submit` frame (other frames are
/// ignored), then submit its job with a completion hook reporting the
/// outcome back over `outbox`.
fn handle_submit(
    shared: &WorkerShared,
    connection: &Arc<Connection>,
    outbox: &Sender<Message>,
    submit: Message,
) {
    let Message::Submit {
        job_id,
        integrand: name,
        dim,
        lo_bits,
        hi_bits,
        priority,
        deadline_micros,
        snapshot_json,
    } = submit
    else {
        return;
    };
    let refuse = |message: String| {
        let _ = outbox.send(Message::JobFailed { job_id, message });
    };
    let Some(integrand) = shared.registry.get(&name) else {
        return refuse(format!("unknown integrand {name:?}"));
    };
    let dim = dim as usize;
    if integrand.dim() != dim {
        return refuse(format!(
            "integrand {name:?} is {}-dimensional, job says {dim}",
            integrand.dim()
        ));
    }
    if lo_bits.len() != dim || hi_bits.len() != dim {
        return refuse(format!("region bounds do not match dim {dim}"));
    }
    let lo: Vec<f64> = lo_bits.into_iter().map(f64::from_bits).collect();
    let hi: Vec<f64> = hi_bits.into_iter().map(f64::from_bits).collect();
    if lo
        .iter()
        .zip(&hi)
        .any(|(l, h)| l.partial_cmp(h) != Some(std::cmp::Ordering::Less))
    {
        return refuse("degenerate region bounds".to_owned());
    }
    let Ok(priority) = tag_to_priority(priority) else {
        return refuse(format!("unknown priority tag {priority}"));
    };
    let mut job = BatchJob::shared(integrand)
        .over(Region::new(lo, hi))
        .with_priority(priority);
    if deadline_micros != NO_DEADLINE {
        job = job.with_deadline(std::time::Duration::from_micros(deadline_micros));
    }
    let key = job_cache_key(&job, shared.service.config().tolerances);

    // A shipped warm-start snapshot goes into the worker's cache *before*
    // submission, so the service's ordinary warm-start machinery resumes the
    // checkpointed tree instead of restarting from scratch.  A bad snapshot
    // is not fatal — the job runs cold.
    if let Some(json) = &snapshot_json {
        if let Ok(snapshot) = Snapshot::from_json_str(json).and_then(|s| s.validate().map(|()| s)) {
            shared.cache.store(key.clone(), None, Some(snapshot));
        }
    }

    let on_complete: CompletionHook = {
        let connection = Arc::clone(connection);
        let outbox = outbox.clone();
        let cache = Arc::clone(&shared.cache);
        Box::new(move |outcome| {
            connection.settle(job_id, None);
            let _ = outbox.send(report(job_id, outcome, &cache, &key));
        })
    };
    let handle = shared.service.submit_with_hook(job, Some(on_complete));
    connection.settle(job_id, Some(handle));
}

/// The frame reporting one job's outcome.  Interrupted runs carry their
/// persisted checkpoint back so the front-end can resume the job on another
/// worker (the service stored it in the worker cache when the run wound
/// down).
fn report(job_id: u64, outcome: &JobOutcome, cache: &ResultCache, key: &CacheKey) -> Message {
    let result = match outcome {
        JobOutcome::Finished(output) => &output.result,
        JobOutcome::Panicked(message) => {
            return Message::JobFailed {
                job_id,
                message: message.clone(),
            }
        }
    };
    let snapshot_json = matches!(
        result.termination,
        Termination::Cancelled | Termination::MemoryExhausted
    )
    .then(|| cache.lookup_snapshot(&key.integrand_id, &key.region_lo_bits, &key.region_hi_bits))
    .flatten()
    .map(|snapshot| snapshot.to_json_string());
    Message::JobDone {
        job_id,
        estimate_bits: result.estimate.to_bits(),
        error_bits: result.error_estimate.to_bits(),
        termination: termination_to_tag(result.termination),
        iterations: result.iterations as u64,
        function_evaluations: result.function_evaluations,
        regions_generated: result.regions_generated,
        active_regions_final: result.active_regions_final as u64,
        wall_micros: result.wall_time.as_micros().min(u128::from(u64::MAX)) as u64,
        snapshot_json,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PaganiConfig;
    use pagani_device::{CountingBackend, CpuBackend, Device, DeviceConfig};
    use pagani_integrands::paper::PaperIntegrand;
    use pagani_quadrature::Tolerances;
    use std::time::{Duration, Instant};

    #[test]
    fn a_connection_keeps_no_thread_or_entry_per_job() {
        let config = PaganiConfig::test_small(Tolerances::rel(1e-4));
        let worker = RemoteWorker::bind(
            "127.0.0.1:0",
            ServiceBuilder::new(config.clone()).device(Device::test_small()),
            Arc::new(IntegrandRegistry::with_paper_suite(3)),
        )
        .expect("bind a loopback worker");
        let front = ServiceBuilder::new(config)
            .endpoint(worker.local_addr().to_string())
            .build_distributed()
            .expect("connect the front-end");
        let handles: Vec<JobHandle> = (0..300)
            .map(|i| {
                front.submit(BatchJob::new(if i % 2 == 0 {
                    PaperIntegrand::f3(2)
                } else {
                    PaperIntegrand::f4(3)
                }))
            })
            .collect();
        for handle in &handles {
            assert!(handle.wait().result.converged());
        }
        // Every job has reported; a filing racing its own report settles
        // right after, and then nothing per job may remain.
        drained(&worker);
        assert_eq!(
            lock(&worker.shared.threads).len(),
            1,
            "one handler for the one connection, no thread per job"
        );
        front.shutdown();
        worker.shutdown();
    }

    /// Wait until no connection of `worker` holds an in-flight entry: a
    /// filing that races its job's report settles right after it.
    fn drained(worker: &RemoteWorker) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while lock(&worker.shared.connections)
            .iter()
            .any(|c| !lock(&c.inflight).is_empty())
        {
            assert!(Instant::now() < deadline, "finished jobs are still filed");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn a_repeated_wire_job_is_answered_from_the_worker_cache() {
        let counting = Arc::new(CountingBackend::new(Arc::new(CpuBackend::new(
            DeviceConfig::test_small().with_worker_threads(2),
        ))));
        let config = PaganiConfig::test_small(Tolerances::rel(1e-4));
        let worker = RemoteWorker::bind(
            "127.0.0.1:0",
            ServiceBuilder::new(config.clone()).device(Device::with_backend(counting.clone())),
            Arc::new(IntegrandRegistry::with_paper_suite(3)),
        )
        .expect("bind a loopback worker");
        let front = ServiceBuilder::new(config)
            .endpoint(worker.local_addr().to_string())
            .build_distributed()
            .expect("connect the front-end");
        let job = || BatchJob::new(PaperIntegrand::f4(3));
        let cold = front.submit(job()).wait();
        assert!(cold.result.converged());
        drained(&worker);
        let launches = counting.launches_for("evaluate");
        assert!(launches > 0);

        let repeat = front.submit(job()).wait();
        drained(&worker);
        assert_eq!(
            repeat.result.estimate.to_bits(),
            cold.result.estimate.to_bits()
        );
        assert_eq!(
            repeat.result.error_estimate.to_bits(),
            cold.result.error_estimate.to_bits()
        );
        assert_eq!(
            counting.launches_for("evaluate"),
            launches,
            "a cache hit launched evaluation kernels"
        );
        // Answered on the connection handler: no service worker claimed it.
        let metrics = worker.service().metrics();
        assert_eq!(metrics.cache_hits, 1, "{metrics:?}");
        assert_eq!(metrics.submitted, 2, "{metrics:?}");
        assert_eq!(
            metrics.wait(crate::Priority::Normal).count,
            1,
            "{metrics:?}"
        );
        front.shutdown();
        worker.shutdown();
    }
}
