//! Scheduling-layer semantics: one queue serving all five methods,
//! backpressure, deadlines, priorities and multi-device dispatch.
//!
//! The contract under test, across the worker-thread matrix (overridable via
//! `PAGANI_TEST_WORKER_THREADS`, which the CI `service-stress` job sets):
//!
//! * a per-job [`MethodConfig`] override routes the job through the matching
//!   `Box<dyn Integrator>` — and the answer matches running that method
//!   directly, bit for bit;
//! * cancellation is uniform: whatever the method, a cancelled job reports
//!   `Termination::Cancelled`;
//! * `try_submit` refuses with `Rejected::QueueFull` at exactly the policy
//!   bound, and with `Rejected::DeadlineInfeasible` when the measured cost
//!   model says the deadline cannot be met at the current backlog — the same
//!   job is accepted at depth 0;
//! * the cost model's EWMA convergence is a pure fold: deterministic across
//!   the worker matrix, and feedback never changes integration results;
//! * a deadline landing mid-run cancels with partial statistics intact;
//! * priorities reorder claims but never starve a queued job;
//! * `ServiceMetrics` accounts for all of the above (the `metrics_`-prefixed
//!   tests are what the CI `service-stress` job asserts on);
//! * `MultiDeviceService` round-robin placement is pinned (job `i` on device
//!   `i mod n`) and cost-balanced placement never changes a result.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pagani::prelude::*;

mod common;
use common::{device_with_workers, worker_matrix};

fn config() -> PaganiConfig {
    PaganiConfig::test_small(Tolerances::rel(1e-4))
}

/// All five method configurations at a tolerance every method can reach on an
/// easy integrand.
fn all_methods() -> Vec<MethodConfig> {
    MethodConfig::all(Tolerances::rel(1e-3))
}

/// An integrand that parks its first evaluation until `release` flips and
/// counts how many evaluations have started.
fn blocking_integrand(
    started: Arc<AtomicUsize>,
    release: Arc<AtomicBool>,
) -> FnIntegrand<impl Fn(&[f64]) -> f64 + Send + Sync> {
    FnIntegrand::new(3, move |x: &[f64]| {
        started.fetch_add(1, Ordering::AcqRel);
        while !release.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        (-x.iter().map(|&v| (v - 0.5) * (v - 0.5)).sum::<f64>() * 25.0).exp()
    })
}

#[test]
fn one_queue_serves_all_five_methods() {
    for workers in worker_matrix(&[1, 2, 8]) {
        let device = device_with_workers(workers);
        let service = ServiceBuilder::new(config()).device(device.clone()).build();
        let f: Arc<dyn Integrand + Send + Sync> =
            Arc::new(FnIntegrand::new(2, |x: &[f64]| 1.0 + x[0] * x[1]));
        let handles: Vec<(MethodConfig, JobHandle)> = all_methods()
            .into_iter()
            .map(|method| {
                let job = BatchJob::shared(f.clone()).with_method(method.clone());
                (method, service.submit(job))
            })
            .collect();
        for (method, handle) in &handles {
            let output = handle.wait();
            assert!(
                output.result.converged(),
                "workers {workers}: {} did not converge through the queue",
                method.name()
            );
            assert!(
                (output.result.estimate - 1.25).abs() < 5e-3,
                "workers {workers}: {} estimate {}",
                method.name(),
                output.result.estimate
            );
            // The served answer is bit-identical to building and running the
            // method directly on an equivalent isolated view.
            let direct = method
                .build(&device.isolated_memory_view())
                .integrate(f.as_ref());
            assert_eq!(
                output.result.estimate.to_bits(),
                direct.estimate.to_bits(),
                "workers {workers}: {} diverged from its direct run",
                method.name()
            );
        }
        service.shutdown();
    }
}

#[test]
fn cancellation_is_uniform_across_methods() {
    // One worker parked on a blocker; one queued job per method, all
    // cancelled while still queued: every method reports Cancelled without
    // running.
    let started = Arc::new(AtomicUsize::new(0));
    let release = Arc::new(AtomicBool::new(false));
    let service = ServiceBuilder::new(config())
        .device(device_with_workers(1))
        .workers(1)
        .build();
    let blocker = service.submit(BatchJob::new(blocking_integrand(
        started.clone(),
        release.clone(),
    )));
    while started.load(Ordering::Acquire) == 0 {
        std::thread::yield_now();
    }
    let f: Arc<dyn Integrand + Send + Sync> =
        Arc::new(FnIntegrand::new(2, |x: &[f64]| 1.0 + x[0] * x[1]));
    let doomed: Vec<(MethodConfig, JobHandle)> = all_methods()
        .into_iter()
        .map(|method| {
            let handle = service.submit(BatchJob::shared(f.clone()).with_method(method.clone()));
            (method, handle)
        })
        .collect();
    for (_, handle) in &doomed {
        handle.cancel();
    }
    release.store(true, Ordering::Release);
    for (method, handle) in &doomed {
        let output = handle.wait();
        assert_eq!(
            output.result.termination,
            Termination::Cancelled,
            "{} did not report Cancelled",
            method.name()
        );
        assert_eq!(
            output.result.function_evaluations,
            0,
            "{} ran despite the queued cancel",
            method.name()
        );
    }
    assert!(blocker.wait().result.converged());
    service.shutdown();
}

#[test]
fn in_flight_cancel_lands_for_a_baseline_method() {
    // A Monte Carlo job (method override) parked inside its first sampling
    // round: the cancel is observed at the round boundary, not ignored.
    let started = Arc::new(AtomicUsize::new(0));
    let release = Arc::new(AtomicBool::new(false));
    let service = ServiceBuilder::new(config())
        .device(device_with_workers(1))
        .workers(1)
        .build();
    let mc = MethodConfig::MonteCarlo(MonteCarloConfig::new(Tolerances::rel(1e-12)));
    let handle = service.submit(
        BatchJob::new(blocking_integrand(started.clone(), release.clone())).with_method(mc),
    );
    while started.load(Ordering::Acquire) == 0 {
        std::thread::yield_now();
    }
    handle.cancel();
    release.store(true, Ordering::Release);
    let output = handle.wait();
    assert_eq!(output.result.termination, Termination::Cancelled);
    assert!(
        output.result.function_evaluations > 0,
        "the first round's partial stats must survive"
    );
    service.shutdown();
}

#[test]
fn try_submit_refuses_at_exactly_the_bound_across_worker_counts() {
    for workers in worker_matrix(&[1, 2, 8]) {
        let bound = 3;
        let service = ServiceBuilder::new(config())
            .device(device_with_workers(workers))
            .workers(workers)
            .queue_bound(bound)
            .build();
        // Park every worker so submissions stay queued.
        let started = Arc::new(AtomicUsize::new(0));
        let release = Arc::new(AtomicBool::new(false));
        let blockers: Vec<JobHandle> = (0..workers)
            .map(|_| {
                service.submit(BatchJob::new(blocking_integrand(
                    started.clone(),
                    release.clone(),
                )))
            })
            .collect();
        // Every blocker must be *claimed* (out of the queue, parked inside its
        // job) before the bound accounting below can be exact.  `started`
        // alone is not enough: one blocker's parallel evaluations can raise
        // it past `workers` while siblings still sit in the queue.
        while started.load(Ordering::Acquire) < workers || service.queued_jobs() > 0 {
            std::thread::yield_now();
        }
        // Exactly `bound` submissions fit...
        let queued: Vec<JobHandle> = (0..bound)
            .map(|i| {
                service
                    .try_submit(BatchJob::new(PaperIntegrand::f4(3)))
                    .unwrap_or_else(|_| panic!("workers {workers}: submission {i} refused early"))
            })
            .collect();
        assert_eq!(service.queued_jobs(), bound);
        // ...and the next is refused with the job handed back.
        let refused = service
            .try_submit(BatchJob::new(PaperIntegrand::f4(3)))
            .expect_err("the queue is at its bound");
        let Rejected::QueueFull(ref full) = refused else {
            panic!("workers {workers}: expected QueueFull, got {refused:?}");
        };
        assert_eq!(full.bound, bound);
        assert_eq!(service.metrics().rejected_queue_full, 1);
        release.store(true, Ordering::Release);
        for handle in blockers.iter().chain(&queued) {
            assert!(handle.wait().result.converged(), "workers {workers}");
        }
        service.shutdown();
    }
}

/// Seed `service`'s cost model so that jobs in `key`'s bucket are predicted
/// to take exactly `predicted` — admission decisions become deterministic.
fn seed_model(service: &IntegrationService, key: &CostKey, predicted: Duration) {
    service.cost_model().record(key, predicted);
}

#[test]
fn deadline_infeasible_rejection_depends_on_queue_depth() {
    for workers in worker_matrix(&[1, 2, 8]) {
        let probe = || BatchJob::new(PaperIntegrand::f4(3));
        let key = CostKey::for_job(&probe(), config().tolerances);
        let predicted = Duration::from_millis(50);
        // The probe's deadline is 4× its own predicted duration: feasible on
        // an idle service, infeasible once the backlog alone exceeds it.
        let deadline = 4 * predicted;

        // Busy service: every worker parked, then 4×workers same-family jobs
        // queued — outstanding ≥ 4·workers·predicted, so the backlog term is
        // ≥ 4·predicted whatever the worker count and the probe cannot fit.
        let busy = ServiceBuilder::new(config())
            .device(device_with_workers(workers))
            .workers(workers)
            .build();
        seed_model(&busy, &key, predicted);
        let started = Arc::new(AtomicUsize::new(0));
        let release = Arc::new(AtomicBool::new(false));
        let blockers: Vec<JobHandle> = (0..workers)
            .map(|_| {
                busy.submit(BatchJob::new(blocking_integrand(
                    started.clone(),
                    release.clone(),
                )))
            })
            .collect();
        while started.load(Ordering::Acquire) < workers || busy.queued_jobs() > 0 {
            std::thread::yield_now();
        }
        let queued: Vec<JobHandle> = (0..4 * workers).map(|_| busy.submit(probe())).collect();
        let estimated = busy
            .estimated_completion(&probe())
            .expect("a seeded model always predicts");
        assert!(estimated > deadline, "workers {workers}: backlog too small");
        let refused = busy
            .try_submit(probe().with_deadline(deadline))
            .expect_err("the backlog cannot fit the deadline");
        let Rejected::DeadlineInfeasible(ref infeasible) = refused else {
            panic!("workers {workers}: expected DeadlineInfeasible, got {refused:?}");
        };
        assert_eq!(infeasible.deadline, deadline);
        assert!(infeasible.estimated > deadline);
        assert_eq!(busy.metrics().rejected_deadline_infeasible, 1);
        // The refused job comes back intact.
        assert_eq!(refused.job().region().dim(), 3);
        release.store(true, Ordering::Release);
        for handle in blockers.iter().chain(&queued) {
            assert!(handle.wait().result.converged(), "workers {workers}");
        }
        busy.shutdown();

        // Idle service, identically seeded: the very same job is accepted at
        // queue depth 0 — its own predicted duration fits the deadline.
        let idle = ServiceBuilder::new(config())
            .device(device_with_workers(workers))
            .workers(workers)
            .build();
        seed_model(&idle, &key, predicted);
        let accepted = idle
            .try_submit(probe().with_deadline(deadline))
            .unwrap_or_else(|refused| panic!("workers {workers}: idle service refused: {refused}"));
        let _ = accepted.wait();
        assert_eq!(idle.metrics().rejected_deadline_infeasible, 0);
        idle.shutdown();
    }
}

#[test]
fn ewma_cost_convergence_is_deterministic_across_worker_counts() {
    // The model's per-bucket EWMA is a pure fold: feeding the same
    // observation sequence yields bit-identical state whether the recording
    // threads number 1, 2 or 8 — concurrent recording into *distinct*
    // buckets cannot cross-contaminate.
    let observations: Vec<Duration> = (0..32)
        .map(|i| Duration::from_micros(500 + 137 * (i % 7)))
        .collect();
    let serial_fold = |key: &CostKey| -> u64 {
        let model = CostModel::new();
        for &obs in &observations {
            model.record(key, obs);
        }
        model
            .bucket(key)
            .and_then(|e| e.value())
            .expect("the bucket was observed")
            .to_bits()
    };
    for workers in worker_matrix(&[1, 2, 8]) {
        let model = CostModel::new();
        let keys: Vec<CostKey> = (0..workers)
            .map(|w| CostKey::new(format!("family-{w}"), 3, Tolerances::rel(1e-4)))
            .collect();
        std::thread::scope(|scope| {
            for key in &keys {
                let model = &model;
                let observations = &observations;
                scope.spawn(move || {
                    for &obs in observations {
                        model.record(key, obs);
                    }
                });
            }
        });
        for key in &keys {
            let concurrent = model
                .bucket(key)
                .and_then(|e| e.value())
                .expect("every bucket was observed")
                .to_bits();
            assert_eq!(
                concurrent,
                serial_fold(key),
                "workers {workers}: bucket {} diverged from the serial fold",
                key.family
            );
        }
        assert_eq!(model.observations(), (workers as u64) * 32);
    }
}

#[test]
fn cost_model_feedback_never_changes_results() {
    // A trained model reroutes and re-prices jobs but every job still runs
    // against an isolated memory view: the result is bit-identical to the
    // same job on a cold service.
    let probe = || BatchJob::new(PaperIntegrand::f4(3));
    let cold = ServiceBuilder::new(config())
        .device(device_with_workers(2))
        .workers(2)
        .build();
    assert_eq!(cold.cost_model().observations(), 0);
    let cold_bits = cold.submit(probe()).wait().result.estimate.to_bits();
    cold.shutdown();

    let trained = ServiceBuilder::new(config())
        .device(device_with_workers(2))
        .workers(2)
        .build();
    seed_model(
        &trained,
        &CostKey::for_job(&probe(), config().tolerances),
        Duration::from_millis(25),
    );
    // Real completions keep feeding the model while the probes run.
    for _ in 0..4 {
        assert!(trained.submit(probe()).wait().result.converged());
    }
    assert!(trained.cost_model().observations() >= 5);
    let trained_bits = trained.submit(probe()).wait().result.estimate.to_bits();
    trained.shutdown();

    assert_eq!(
        cold_bits, trained_bits,
        "cost-model feedback changed an integration result"
    );
}

#[test]
fn metrics_feasible_traffic_has_zero_misses_and_rejects() {
    // The CI service-stress matrix asserts this shape: generously-deadlined
    // traffic completes with no deadline misses, no rejections and no
    // cancellations, and every job's wait is accounted to its priority.
    for workers in worker_matrix(&[1, 2, 8]) {
        let service = ServiceBuilder::new(config())
            .device(device_with_workers(workers))
            .workers(workers)
            .build();
        let jobs = 6;
        let handles: Vec<JobHandle> = (0..jobs)
            .map(|i| {
                let priority = match i % 3 {
                    0 => Priority::High,
                    1 => Priority::Normal,
                    _ => Priority::Low,
                };
                service.submit(
                    BatchJob::new(PaperIntegrand::f4(3))
                        .with_priority(priority)
                        .with_deadline(Duration::from_secs(600)),
                )
            })
            .collect();
        for handle in &handles {
            assert!(handle.wait().result.converged(), "workers {workers}");
        }
        let metrics = service.metrics();
        assert_eq!(metrics.queue_depth, 0, "workers {workers}");
        assert_eq!(metrics.submitted, jobs, "workers {workers}");
        assert_eq!(metrics.completed, jobs, "workers {workers}");
        assert_eq!(metrics.cancelled, 0, "workers {workers}");
        assert_eq!(metrics.rejected(), 0, "workers {workers}");
        assert_eq!(metrics.deadline_misses, 0, "workers {workers}");
        let waits: u64 = [Priority::Low, Priority::Normal, Priority::High]
            .into_iter()
            .map(|p| metrics.wait(p).count)
            .sum();
        assert_eq!(waits, jobs, "workers {workers}");
        service.shutdown();
    }
}

#[test]
fn metrics_infeasible_deadline_is_rejected_and_counted() {
    // The deterministic infeasible case the CI service-stress job asserts:
    // once the model prices a family, a 1ns deadline cannot be promised.
    let service = ServiceBuilder::new(config())
        .device(device_with_workers(2))
        .workers(2)
        .build();
    let probe = || BatchJob::new(PaperIntegrand::f4(3));
    seed_model(
        &service,
        &CostKey::for_job(&probe(), config().tolerances),
        Duration::from_millis(50),
    );
    let refused = service
        .try_submit(probe().with_deadline(Duration::from_nanos(1)))
        .expect_err("a priced family cannot fit a 1ns deadline");
    assert!(matches!(refused, Rejected::DeadlineInfeasible(_)));
    let metrics = service.metrics();
    assert_eq!(metrics.rejected_deadline_infeasible, 1);
    assert_eq!(metrics.rejected(), 1);
    assert_eq!(metrics.submitted, 0, "a rejected job was never enqueued");
    service.shutdown();
}

#[test]
fn metrics_mid_run_deadline_miss_is_counted() {
    // A deadline that fires while its job is still running is a miss — and
    // the cancelled completion is excluded from the model's learning.
    let slow = FnIntegrand::new(3, |x: &[f64]| {
        std::thread::sleep(Duration::from_micros(100));
        (x[0] * x[1] * x[2]).sin().mul_add(0.1, 1.0)
    });
    let tight = PaganiConfig::test_small(Tolerances::rel(1e-12));
    let service = ServiceBuilder::new(tight)
        .device(device_with_workers(1))
        .workers(1)
        .build();
    let handle = service.submit(BatchJob::new(slow).with_deadline(Duration::from_millis(60)));
    let output = handle.wait();
    assert_eq!(output.result.termination, Termination::Cancelled);
    let metrics = service.metrics();
    assert!(metrics.deadline_misses >= 1, "{metrics:?}");
    assert_eq!(metrics.cancelled, 1);
    assert_eq!(
        service.cost_model().observations(),
        0,
        "a cancelled run's partial wall time must not train the model"
    );
    service.shutdown();
}

#[test]
fn metrics_cache_counters_track_hits_misses_and_checkpoints() {
    // Without a cache every counter stays zero; with one, a repeated job is
    // one miss then one hit, the converged tree is checkpointed into the
    // cache, and the hit banks the original run's evaluations.
    let plain = ServiceBuilder::new(config())
        .device(device_with_workers(2))
        .workers(2)
        .build();
    let _ = plain.submit(BatchJob::new(PaperIntegrand::f4(3))).wait();
    let baseline = plain.metrics();
    assert_eq!(baseline.cache_hits, 0);
    assert_eq!(baseline.cache_misses, 0);
    assert_eq!(baseline.warm_starts, 0);
    assert_eq!(baseline.resumed, 0);
    assert_eq!(baseline.checkpoints_written, 0);
    assert_eq!(baseline.evals_saved, 0);
    assert!(plain.result_cache().is_none());
    plain.shutdown();

    let cache = Arc::new(ResultCache::new(1 << 20));
    let service = ServiceBuilder::new(config())
        .device(device_with_workers(2))
        .cache(cache)
        .build();
    let job =
        || BatchJob::shared(Arc::new(PaperIntegrand::f4(3)) as Arc<dyn Integrand + Send + Sync>);
    let cold = service.submit(job()).wait();
    assert!(cold.result.converged());
    let hit = service.submit(job()).wait();
    assert!(hit.result.converged());
    let metrics = service.metrics();
    assert_eq!(metrics.cache_misses, 1, "{metrics:?}");
    assert_eq!(metrics.cache_hits, 1, "{metrics:?}");
    assert!(metrics.checkpoints_written >= 1, "{metrics:?}");
    assert_eq!(metrics.evals_saved, cold.result.function_evaluations);
    // An exact hit is free: admission promises zero remaining work for it.
    let promised = service
        .estimated_completion(&job())
        .expect("idle service always estimates");
    assert_eq!(promised, Duration::ZERO, "{metrics:?}");
    service.shutdown();
}

#[test]
fn deadline_mid_run_cancels_with_partial_stats_intact() {
    for workers in worker_matrix(&[1, 2]) {
        // Every evaluation dawdles, so the deadline fires mid-run; the
        // cancellation lands at the next driver iteration boundary.
        let slow = FnIntegrand::new(3, |x: &[f64]| {
            std::thread::sleep(Duration::from_micros(100));
            (x[0] * x[1] * x[2]).sin().mul_add(0.1, 1.0)
        });
        let tight = PaganiConfig::test_small(Tolerances::rel(1e-12));
        let service = ServiceBuilder::new(tight)
            .device(device_with_workers(workers))
            .workers(1)
            .build();
        let handle = service.submit(BatchJob::new(slow).with_deadline(Duration::from_millis(60)));
        let output = handle.wait();
        assert_eq!(
            output.result.termination,
            Termination::Cancelled,
            "workers {workers}"
        );
        assert!(output.result.iterations >= 1, "workers {workers}");
        assert!(output.result.function_evaluations > 0, "workers {workers}");
        assert!(output.result.estimate.is_finite());
        service.shutdown();
    }
}

#[test]
fn priorities_reorder_claims_but_never_starve() {
    // One worker parked on a blocker, a low-priority job submitted *first*,
    // then a stream of high-priority jobs: the highs are claimed first, but
    // the low still completes.
    let started = Arc::new(AtomicUsize::new(0));
    let release = Arc::new(AtomicBool::new(false));
    let service = ServiceBuilder::new(config())
        .device(device_with_workers(1))
        .workers(1)
        .build();
    let blocker = service.submit(BatchJob::new(blocking_integrand(
        started.clone(),
        release.clone(),
    )));
    while started.load(Ordering::Acquire) == 0 {
        std::thread::yield_now();
    }
    let low = service.submit(BatchJob::new(PaperIntegrand::f4(3)).with_priority(Priority::Low));
    let highs: Vec<JobHandle> = (0..6)
        .map(|_| service.submit(BatchJob::new(PaperIntegrand::f3(3)).with_priority(Priority::High)))
        .collect();
    release.store(true, Ordering::Release);
    // The low-priority job is never starved: it completes.
    let low_output = low.wait();
    assert!(low_output.result.converged());
    // With a single worker, every high was claimed before the low.
    for (i, high) in highs.iter().enumerate() {
        assert!(
            high.is_finished(),
            "high-priority job {i} still pending after the low completed"
        );
        assert!(high.wait().result.converged());
    }
    assert!(blocker.wait().result.converged());
    service.shutdown();
}

#[test]
fn multi_device_round_robin_placement_is_pinned() {
    // Round-robin is the deterministic fallback: job i lands on device
    // i mod n, so with per-device distinguishable workloads the outputs must
    // be bit-identical to the same jobs run alone on their pinned device.
    let jobs: Vec<BatchJob> = (0..6)
        .map(|i| {
            if i % 2 == 0 {
                BatchJob::new(PaperIntegrand::f4(3))
            } else {
                BatchJob::new(PaperIntegrand::f3(4))
            }
        })
        .collect();
    let devices: Vec<Device> = (0..3).map(|_| device_with_workers(2)).collect();
    let service = ServiceBuilder::new(config())
        .devices(devices)
        .dispatch(DispatchMode::RoundRobin)
        .build_multi();
    let handles: Vec<JobHandle> = jobs.iter().map(|job| service.submit(job.clone())).collect();
    let outputs: Vec<PaganiOutput> = handles.iter().map(JobHandle::wait).collect();
    service.shutdown();
    let reference = Pagani::new(device_with_workers(2), config());
    for (i, (job, output)) in jobs.iter().zip(&outputs).enumerate() {
        let lone = reference.integrate_region(job.integrand(), job.region());
        assert_eq!(
            output.result.estimate.to_bits(),
            lone.result.estimate.to_bits(),
            "job {i} diverged from its pinned-device run"
        );
    }
}

#[test]
fn cost_balanced_dispatch_never_changes_results() {
    for workers in worker_matrix(&[1, 2]) {
        let jobs: Vec<BatchJob> = (0..8)
            .map(|i| {
                if i % 2 == 0 {
                    BatchJob::new(PaperIntegrand::f4(4)) // heavy
                } else {
                    BatchJob::new(PaperIntegrand::f3(2)) // light
                }
            })
            .collect();
        let make_devices =
            || -> Vec<Device> { (0..2).map(|_| device_with_workers(workers)).collect() };
        let balanced = ServiceBuilder::new(config())
            .devices(make_devices())
            .build_multi();
        let balanced_handles: Vec<JobHandle> = jobs
            .iter()
            .map(|job| balanced.submit(job.clone()))
            .collect();
        let balanced_bits: Vec<u64> = balanced_handles
            .iter()
            .map(|handle| handle.wait().result.estimate.to_bits())
            .collect();
        balanced.shutdown();
        let pinned = ServiceBuilder::new(config())
            .devices(make_devices())
            .dispatch(DispatchMode::RoundRobin)
            .build_multi();
        let pinned_handles: Vec<JobHandle> =
            jobs.iter().map(|job| pinned.submit(job.clone())).collect();
        let pinned_bits: Vec<u64> = pinned_handles
            .iter()
            .map(|handle| handle.wait().result.estimate.to_bits())
            .collect();
        pinned.shutdown();
        assert_eq!(
            balanced_bits, pinned_bits,
            "workers {workers}: placement changed a result"
        );
    }
}
