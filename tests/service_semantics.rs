//! Service semantics: submit → handle, cancellation, and graceful shutdown.
//!
//! The contract under test, across `worker_threads ∈ {1, 8}` (or the single
//! count pinned by `PAGANI_TEST_WORKER_THREADS`, which the CI `service-stress`
//! matrix sets):
//!
//! * cancelled handles report `Termination::Cancelled`, and a cancellation of
//!   an in-flight job lands within one driver iteration;
//! * uncancelled results stay bit-identical to sequential `Pagani::integrate`
//!   on the same device — cancelling one job never poisons another;
//! * `shutdown()` drains every submitted job without deadlocking.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use pagani::prelude::*;

mod common;
use common::{device_with_workers, worker_matrix, OpenOnDrop};

fn config() -> PaganiConfig {
    PaganiConfig::test_small(Tolerances::rel(1e-4))
}

/// An integrand that parks its first evaluation until `release` flips, and
/// raises `started` as soon as the evaluation begins — the handle tests use it
/// to hold a job deterministically in flight.
fn blocking_integrand(
    started: Arc<AtomicBool>,
    release: Arc<AtomicBool>,
) -> FnIntegrand<impl Fn(&[f64]) -> f64 + Send + Sync> {
    FnIntegrand::new(3, move |x: &[f64]| {
        started.store(true, Ordering::Release);
        while !release.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        (-x.iter().map(|&v| (v - 0.5) * (v - 0.5)).sum::<f64>() * 25.0).exp()
    })
}

#[test]
fn interleaved_cancel_and_wait_across_worker_counts() {
    for workers in worker_matrix(&[1, 8]) {
        let device = device_with_workers(workers);
        let sequential = Pagani::new(device.clone(), config());
        let integrands: Vec<Arc<PaperIntegrand>> = (0..12)
            .map(|i| match i % 3 {
                0 => Arc::new(PaperIntegrand::f4(3)),
                1 => Arc::new(PaperIntegrand::f3(3)),
                _ => Arc::new(PaperIntegrand::f5(3)),
            })
            .collect();

        let service = ServiceBuilder::new(config()).device(device).build();
        let handles: Vec<JobHandle> = integrands
            .iter()
            .map(|f| {
                service.submit(BatchJob::shared(
                    f.clone() as Arc<dyn Integrand + Send + Sync>
                ))
            })
            .collect();
        // Cancel every third job while the rest keep running.
        for handle in handles.iter().step_by(3) {
            handle.cancel();
        }
        let outputs: Vec<PaganiOutput> = handles.iter().map(|h| h.wait()).collect();
        service.shutdown();

        for (i, (f, output)) in integrands.iter().zip(&outputs).enumerate() {
            if i % 3 == 0 {
                // A cancelled handle either lost the race (already complete,
                // and then its result must match the sequential bits) or
                // reports Cancelled.
                if output.result.termination != Termination::Cancelled {
                    assert_eq!(
                        output.result.estimate.to_bits(),
                        sequential.integrate(f.as_ref()).result.estimate.to_bits(),
                        "workers {workers}, job {i}: completed-despite-cancel diverged"
                    );
                }
            } else {
                // Uncancelled jobs are never poisoned by neighbouring
                // cancellations: bit-identical to the sequential reference.
                let reference = sequential.integrate(f.as_ref());
                assert_eq!(
                    output.result.termination, reference.result.termination,
                    "workers {workers}, job {i}"
                );
                assert_eq!(
                    output.result.estimate.to_bits(),
                    reference.result.estimate.to_bits(),
                    "workers {workers}, job {i}: uncancelled job diverged"
                );
            }
        }
    }
}

#[test]
fn queued_jobs_cancel_deterministically() {
    // One worker, one blocker holding it: every job cancelled while still in
    // the queue must report Cancelled without ever running.
    let started = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));
    let service = ServiceBuilder::new(config())
        .device(device_with_workers(1))
        .workers(1)
        .build();
    let _open = OpenOnDrop(release.clone());
    let blocker = service.submit(BatchJob::new(blocking_integrand(
        started.clone(),
        release.clone(),
    )));
    while !started.load(Ordering::Acquire) {
        std::thread::yield_now();
    }
    let queued: Vec<JobHandle> = (0..4)
        .map(|_| service.submit(BatchJob::new(PaperIntegrand::f4(3))))
        .collect();
    for handle in &queued {
        assert!(
            handle.try_result().is_none(),
            "job ran while worker blocked"
        );
        handle.cancel();
    }
    release.store(true, Ordering::Release);
    for handle in &queued {
        let output = handle.wait();
        assert_eq!(output.result.termination, Termination::Cancelled);
        assert_eq!(output.result.function_evaluations, 0, "cancelled job ran");
    }
    // The blocker itself was never cancelled and completes normally.
    assert!(blocker.wait().result.converged());
    service.shutdown();
}

#[test]
fn in_flight_cancellation_lands_within_one_iteration() {
    // Deterministic in-flight cancel: the job is parked inside its first
    // evaluation sweep when cancel() lands, so the driver observes the flag at
    // the next iteration boundary and stops after exactly one iteration.
    let started = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));
    // A tolerance far beyond what one iteration can reach keeps the run alive
    // past iteration 0 if it were not cancelled.
    let tight = PaganiConfig::test_small(Tolerances::rel(1e-12));
    let service = ServiceBuilder::new(tight)
        .device(device_with_workers(1))
        .workers(1)
        .build();
    let _open = OpenOnDrop(release.clone());
    let handle = service.submit(BatchJob::new(blocking_integrand(
        started.clone(),
        release.clone(),
    )));
    while !started.load(Ordering::Acquire) {
        std::thread::yield_now();
    }
    assert!(!handle.is_finished());
    handle.cancel();
    release.store(true, Ordering::Release);
    let output = handle.wait();
    assert_eq!(output.result.termination, Termination::Cancelled);
    assert_eq!(
        output.result.iterations, 1,
        "cancellation must land at the first iteration boundary"
    );
    assert!(output.result.estimate.is_finite());
    service.shutdown();
}

#[test]
fn shutdown_drains_without_deadlock() {
    for workers in worker_matrix(&[1, 8]) {
        let service = ServiceBuilder::new(config())
            .device(device_with_workers(workers))
            .build();
        let handles: Vec<JobHandle> = (0..10)
            .map(|i| {
                let job = if i % 2 == 0 {
                    BatchJob::new(PaperIntegrand::f4(3))
                } else {
                    BatchJob::new(PaperIntegrand::f3(3))
                };
                service.submit(job)
            })
            .collect();
        // Shut down immediately — before waiting on anything.  Every handle
        // must still complete.
        service.shutdown();
        for handle in &handles {
            assert!(handle.is_finished(), "shutdown returned before draining");
            assert!(handle.wait().result.converged());
        }
    }
}
