//! Distributed-layer semantics: wire transparency (remote results are
//! bit-identical to local runs), slab splitting of oversized jobs, crash
//! recovery by requeue, cancel forwarding, and front-end admission.
//!
//! Workers here are in-process [`RemoteWorker`]s listening on loopback —
//! the same code path a separate worker process runs (see
//! `examples/distributed_service.rs` for the multi-process version).

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use common::{device_with_workers, worker_matrix};
use pagani::prelude::*;
use pagani::{IntegrandRegistry, Rejected, RemoteWorker, ServiceBuilder};

fn config() -> PaganiConfig {
    PaganiConfig::test_small(Tolerances::rel(1e-5))
}

fn paper_registry() -> Arc<IntegrandRegistry> {
    Arc::new(IntegrandRegistry::with_paper_suite(5))
}

fn spawn_worker(
    config: PaganiConfig,
    device: Device,
    registry: &Arc<IntegrandRegistry>,
) -> RemoteWorker {
    RemoteWorker::bind(
        "127.0.0.1:0",
        ServiceBuilder::new(config).device(device),
        Arc::clone(registry),
    )
    .expect("bind a loopback worker")
}

/// A mixed-priority batch over the paper suite.
fn mixed_batch() -> Vec<BatchJob> {
    vec![
        BatchJob::new(PaperIntegrand::f4(3)).with_priority(Priority::High),
        BatchJob::new(PaperIntegrand::f1(2)).with_priority(Priority::Low),
        BatchJob::new(PaperIntegrand::f5(3)).with_priority(Priority::Normal),
        BatchJob::new(PaperIntegrand::f3(2)).with_priority(Priority::High),
        BatchJob::new(PaperIntegrand::f4(2)).with_priority(Priority::Low),
        BatchJob::new(PaperIntegrand::f7(2)).with_priority(Priority::Normal),
    ]
}

/// An integrand whose evaluations block until `gate` opens — lets tests pin
/// jobs in flight without racing the scheduler.
fn gated(name: &str, gate: &Arc<AtomicBool>) -> impl Integrand + Send + 'static {
    let gate = Arc::clone(gate);
    FnIntegrand::new(2, move |x: &[f64]| {
        while !gate.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        x[0] + x[1]
    })
    .named(name)
}

/// A *hard* gated integrand (a sharp Gaussian peak, far from converging in
/// one iteration), additionally raising `entered` once an evaluation has
/// started.  Cancellation is observed at iteration boundaries, so cancel
/// tests need an integrand guaranteed to still be running when the second
/// boundary comes around — a polynomial like [`gated`]'s would converge at
/// the end of iteration one and never see the cancel.
fn gated_hard(
    name: &str,
    gate: &Arc<AtomicBool>,
    entered: &Arc<AtomicBool>,
) -> impl Integrand + Send + 'static {
    let gate = Arc::clone(gate);
    let entered = Arc::clone(entered);
    FnIntegrand::new(2, move |x: &[f64]| {
        entered.store(true, Ordering::SeqCst);
        while !gate.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        let dx = x[0] - 0.3;
        let dy = x[1] - 0.7;
        (-(dx * dx + dy * dy) * 200.0).exp()
    })
    .named(name)
}

/// Poll `flag` until it rises, failing after a generous timeout.
fn wait_until(flag: &Arc<AtomicBool>, message: &str) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !flag.load(Ordering::SeqCst) {
        assert!(std::time::Instant::now() < deadline, "{message}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn assert_bit_identical(local: &IntegrationResult, remote: &IntegrationResult, label: &str) {
    assert_eq!(
        local.estimate.to_bits(),
        remote.estimate.to_bits(),
        "{label}: estimate drifted across the wire"
    );
    assert_eq!(
        local.error_estimate.to_bits(),
        remote.error_estimate.to_bits(),
        "{label}: error estimate drifted across the wire"
    );
    assert_eq!(
        local.termination, remote.termination,
        "{label}: termination"
    );
    assert_eq!(local.iterations, remote.iterations, "{label}: iterations");
    assert_eq!(
        local.function_evaluations, remote.function_evaluations,
        "{label}: function evaluations"
    );
    assert_eq!(
        local.regions_generated, remote.regions_generated,
        "{label}: regions generated"
    );
}

#[test]
fn remote_results_are_bit_identical_to_local_runs() {
    let registry = paper_registry();
    for workers in worker_matrix(&[1, 2, 8]) {
        let local = ServiceBuilder::new(config())
            .device(device_with_workers(workers))
            .build();
        let local_outputs: Vec<PaganiOutput> = mixed_batch()
            .into_iter()
            .map(|job| local.submit(job).wait())
            .collect();
        local.shutdown();

        let worker_a = spawn_worker(config(), device_with_workers(workers), &registry);
        let worker_b = spawn_worker(config(), device_with_workers(workers), &registry);
        let frontend = ServiceBuilder::new(config())
            .endpoint(worker_a.local_addr().to_string())
            .endpoint(worker_b.local_addr().to_string())
            .build_distributed()
            .expect("connect the front-end");
        assert_eq!(frontend.endpoint_count(), 2);
        assert_eq!(frontend.endpoints_alive(), 2);

        let remote_handles: Vec<JobHandle> = mixed_batch()
            .into_iter()
            .map(|job| frontend.submit(job))
            .collect();
        let remote_outputs: Vec<PaganiOutput> =
            remote_handles.iter().map(JobHandle::wait).collect();
        let metrics = frontend.metrics();
        assert_eq!(metrics.completed, local_outputs.len() as u64);
        assert!(
            metrics.remote_dispatched >= local_outputs.len() as u64,
            "every job crossed the wire"
        );

        for (i, (local_out, remote_out)) in local_outputs.iter().zip(&remote_outputs).enumerate() {
            assert_bit_identical(
                &local_out.result,
                &remote_out.result,
                &format!("job {i} with {workers} worker threads"),
            );
        }
        frontend.shutdown();
        worker_a.shutdown();
        worker_b.shutdown();
    }
}

#[test]
fn an_oversized_job_slab_splits_and_matches_the_in_process_fold() {
    // dim-5 at 1e-6 estimates to ~4 MiB of regions; on 1 MiB devices both
    // the multi-device service and the distributed front-end must cut it
    // into the same slabs and fold them in the same order.
    let tight = PaganiConfig::test_small(Tolerances::rel(1e-6));
    let tiny = || Device::new(DeviceConfig::test_small().with_memory_capacity(1 << 20));
    let job = || BatchJob::new(PaperIntegrand::f4(5));

    let multi = ServiceBuilder::new(tight.clone())
        .devices([tiny(), tiny()])
        .build_multi();
    let local_out = multi.submit(job()).wait();
    multi.shutdown();

    let registry = paper_registry();
    let worker_a = spawn_worker(tight.clone(), tiny(), &registry);
    let worker_b = spawn_worker(tight.clone(), tiny(), &registry);
    let frontend = ServiceBuilder::new(tight)
        .endpoint(worker_a.local_addr().to_string())
        .endpoint(worker_b.local_addr().to_string())
        .build_distributed()
        .expect("connect the front-end");

    let remote_out = frontend.submit(job()).wait();
    let metrics = frontend.metrics();
    assert!(
        metrics.remote_dispatched >= 2,
        "the oversized job must slab-split into several wire jobs, dispatched {}",
        metrics.remote_dispatched
    );
    assert_bit_identical(&local_out.result, &remote_out.result, "slab-split f4(5)");

    frontend.shutdown();
    worker_a.shutdown();
    worker_b.shutdown();
}

#[test]
fn a_killed_worker_requeues_its_jobs_on_a_survivor() {
    let gate = Arc::new(AtomicBool::new(false));
    let registry = Arc::new(IntegrandRegistry::new());
    registry.register(gated("blocker", &gate));

    let worker_a = spawn_worker(config(), device_with_workers(2), &registry);
    let worker_b = spawn_worker(config(), device_with_workers(2), &registry);
    let frontend = ServiceBuilder::new(config())
        .endpoint(worker_a.local_addr().to_string())
        .endpoint(worker_b.local_addr().to_string())
        .build_distributed()
        .expect("connect the front-end");

    // Pin four jobs in flight (the gate blocks their evaluations), then kill
    // one worker's connections the way a crashed process would.
    let handles: Vec<JobHandle> = (0..4)
        .map(|_| frontend.submit(BatchJob::new(gated("blocker", &gate))))
        .collect();
    assert_eq!(frontend.queued_jobs(), 4);
    worker_a.sever();

    // The front-end's reader observes the dead connection and requeues that
    // worker's jobs on the survivor.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while frontend.endpoints_alive() != 1 {
        assert!(
            std::time::Instant::now() < deadline,
            "front-end never noticed the severed worker"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    gate.store(true, Ordering::SeqCst);
    for handle in &handles {
        let out = handle.wait();
        assert_eq!(out.result.termination, Termination::Converged);
        assert_eq!(out.result.estimate.to_bits(), 1.0f64.to_bits());
    }
    let metrics = frontend.metrics();
    assert_eq!(metrics.completed, 4, "every job completed despite the kill");
    assert!(
        metrics.remote_requeued >= 1,
        "the dead worker held jobs; at least one must have been requeued"
    );

    frontend.shutdown();
    worker_a.shutdown();
    worker_b.shutdown();
}

#[test]
fn cancel_is_forwarded_over_the_wire() {
    let gate = Arc::new(AtomicBool::new(false));
    let entered = Arc::new(AtomicBool::new(false));
    let registry = Arc::new(IntegrandRegistry::new());
    registry.register(gated_hard("cancel-me", &gate, &entered));

    let worker = spawn_worker(config(), device_with_workers(2), &registry);
    let frontend = ServiceBuilder::new(config())
        .endpoint(worker.local_addr().to_string())
        .build_distributed()
        .expect("connect the front-end");

    let handle = frontend.submit(BatchJob::new(gated_hard("cancel-me", &gate, &entered)));
    wait_until(&entered, "the job never started evaluating");
    handle.cancel();
    gate.store(true, Ordering::SeqCst);
    let out = handle.wait();
    assert_eq!(out.result.termination, Termination::Cancelled);
    assert_eq!(frontend.metrics().cancelled, 1);

    frontend.shutdown();
    worker.shutdown();
}

#[test]
fn queue_full_and_deadline_infeasible_are_refused_at_the_front_end() {
    let gate = Arc::new(AtomicBool::new(false));
    let registry = paper_registry();
    registry.register(gated("filler", &gate));

    let worker = spawn_worker(config(), device_with_workers(2), &registry);
    let frontend = ServiceBuilder::new(config())
        .endpoint(worker.local_addr().to_string())
        .queue_bound(1)
        .build_distributed()
        .expect("connect the front-end");

    // Fill the single front-end slot with a gated job, then refuse the next.
    let filler = frontend.submit(BatchJob::new(gated("filler", &gate)));
    match frontend.try_submit(BatchJob::new(PaperIntegrand::f4(3))) {
        Err(Rejected::QueueFull(refusal)) => assert_eq!(refusal.bound, 1),
        other => panic!("expected QueueFull, got {other:?}"),
    }
    assert_eq!(frontend.metrics().rejected_queue_full, 1);
    gate.store(true, Ordering::SeqCst);
    let _ = filler.wait();

    // Train the cost model on a real run, then ask for the impossible: the
    // refusal happens before the job ever crosses the wire.
    let _ = frontend.submit(BatchJob::new(PaperIntegrand::f4(4))).wait();
    let dispatched_before = frontend.metrics().remote_dispatched;
    match frontend
        .try_submit(BatchJob::new(PaperIntegrand::f4(4)).with_deadline(Duration::from_nanos(1)))
    {
        Err(Rejected::DeadlineInfeasible(refusal)) => {
            assert!(refusal.estimated > refusal.deadline);
        }
        other => panic!("expected DeadlineInfeasible, got {other:?}"),
    }
    let metrics = frontend.metrics();
    assert_eq!(metrics.rejected_deadline_infeasible, 1);
    assert_eq!(
        metrics.remote_dispatched, dispatched_before,
        "a refused job must never cross the wire"
    );

    frontend.shutdown();
    worker.shutdown();
}

#[test]
fn a_cancelled_jobs_checkpoint_resumes_over_the_wire() {
    let gate = Arc::new(AtomicBool::new(false));
    let entered = Arc::new(AtomicBool::new(false));
    let registry = Arc::new(IntegrandRegistry::new());
    registry.register(gated_hard("resume-me", &gate, &entered));

    let worker = spawn_worker(config(), device_with_workers(2), &registry);
    let frontend = ServiceBuilder::new(config())
        .endpoint(worker.local_addr().to_string())
        .cache(Arc::new(ResultCache::new(16 << 20)))
        .build_distributed()
        .expect("connect the front-end");

    // Cancel a gated job *after* its first evaluation has started, so the
    // worker winds it down at the next iteration boundary with real progress
    // in the tree, checkpoints it, and ships the snapshot back with the
    // Cancelled result; the front-end caches it.
    let handle = frontend.submit(BatchJob::new(gated_hard("resume-me", &gate, &entered)));
    wait_until(&entered, "the job never started evaluating");
    handle.cancel();
    gate.store(true, Ordering::SeqCst);
    let out = handle.wait();
    assert_eq!(out.result.termination, Termination::Cancelled);
    assert!(out.result.function_evaluations > 0, "the run made progress");

    // Resubmitting the same job re-ships the checkpoint: the worker resumes
    // the tree instead of restarting, and its service counts the resume.
    let out = frontend
        .submit(BatchJob::new(gated_hard("resume-me", &gate, &entered)))
        .wait();
    assert_eq!(out.result.termination, Termination::Converged);
    let worker_metrics = worker.service().metrics();
    assert!(
        worker_metrics.resumed >= 1,
        "the resubmitted job must resume the shipped checkpoint, metrics: {worker_metrics:?}"
    );

    frontend.shutdown();
    worker.shutdown();
}

#[test]
fn heartbeats_flow_and_are_counted() {
    let registry = paper_registry();
    let worker = spawn_worker(config(), device_with_workers(1), &registry);
    let frontend = ServiceBuilder::new(config())
        .endpoint(worker.local_addr().to_string())
        .heartbeat_interval(Duration::from_millis(10))
        .build_distributed()
        .expect("connect the front-end");

    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while frontend.metrics().remote_heartbeats == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "no heartbeat ack arrived"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    frontend.shutdown();
    worker.shutdown();
}

#[test]
fn the_builder_constructs_every_topology() {
    // Single-device and multi-device from one builder vocabulary…
    let single = ServiceBuilder::new(config())
        .device(device_with_workers(1))
        .build();
    assert!(single
        .submit(BatchJob::new(PaperIntegrand::f4(2)))
        .wait()
        .result
        .converged());
    single.shutdown();

    let multi = ServiceBuilder::new(config())
        .devices([device_with_workers(1), device_with_workers(1)])
        .build_multi();
    assert_eq!(multi.device_count(), 2);
    multi.shutdown();

    // …and the distributed front-end from the same builder, plus an address
    // nobody listens on, which must surface as an io::Error, not a panic.
    let registry = paper_registry();
    let worker = spawn_worker(config(), device_with_workers(1), &registry);
    let frontend = ServiceBuilder::new(config())
        .endpoint(worker.local_addr().to_string())
        .build_distributed()
        .expect("connect the front-end");
    assert_eq!(frontend.endpoint_count(), 1);
    frontend.shutdown();
    worker.shutdown();

    assert!(ServiceBuilder::new(config())
        .endpoint("127.0.0.1:1")
        .build_distributed()
        .is_err());
}
