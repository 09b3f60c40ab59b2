//! Persistence semantics: snapshot round-trips, checkpoint/resume
//! bit-identity, cache hits without device work, warm starts and crash
//! recovery.
//!
//! The contract under test, across `worker_threads ∈ {1, 2, 8}` (or the
//! single count pinned by `PAGANI_TEST_WORKER_THREADS`, which the CI
//! `service-stress` matrix sets):
//!
//! * a [`Snapshot`] survives bytes → parse with every `f64` bit preserved;
//! * resuming from any checkpoint of a run reproduces the uninterrupted
//!   run's estimate, error, counters and termination to the bit;
//! * an exact [`ResultCache`] hit is served with **zero** device launches;
//! * a tighter-tolerance request warm-started from a converged snapshot
//!   spends measurably fewer new evaluations than a cold run;
//! * a cancelled job persists its partial region tree, and a later service
//!   sharing the cache resumes it to convergence, counting `resumed`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use pagani::core::trace::ThresholdTrigger;
use pagani::persist::SNAPSHOT_FORMAT_VERSION;
use pagani::prelude::*;
use pagani::{CountingBackend, CpuBackend, ResumableOutput};
use proptest::prelude::*;

mod common;
use common::{device_with_workers, worker_matrix};

/// The standard smooth workload: a 3-D Gaussian bump that needs several
/// breadth-first generations at tight tolerances.
fn bump() -> FnIntegrand<impl Fn(&[f64]) -> f64 + Send + Sync> {
    FnIntegrand::new(3, |x: &[f64]| {
        (-x.iter().map(|&v| (v - 0.5) * (v - 0.5)).sum::<f64>() * 25.0).exp()
    })
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    /// Every `f64` in a snapshot — including NaNs, infinities and negative
    /// zero drawn from raw bit patterns — survives bytes → parse exactly.
    #[test]
    fn snapshot_bytes_round_trip_is_bit_exact(
        dim in 1usize..4,
        pairs in 1usize..5,
        raw in proptest::collection::vec(0u64..=u64::MAX, 128..129),
        evals in 0u64..=u64::MAX,
        generated in 0u64..=u64::MAX,
        next_iteration in 0usize..1_000_000,
        converged_bit in 0u8..2,
        with_parents_bit in 0u8..2,
        with_previous_bit in 0u8..2,
    ) {
        let converged = converged_bit == 1;
        let with_parents = with_parents_bit == 1;
        let with_previous = with_previous_bit == 1;
        let mut cursor = raw.into_iter().cycle();
        let mut f = move || f64::from_bits(cursor.next().expect("cycle never ends"));
        let regions = pairs * 2;
        let snapshot = Snapshot {
            version: SNAPSHOT_FORMAT_VERSION,
            integrand_id: "prop \"quoted\\id\"".to_string(),
            region_lo: (0..dim).map(|_| f()).collect(),
            region_hi: (0..dim).map(|_| f()).collect(),
            rel_tol: f(),
            abs_tol: f(),
            converged,
            dim,
            lefts: (0..regions * dim).map(|_| f()).collect(),
            lengths: (0..regions * dim).map(|_| f()).collect(),
            parent_integrals: with_parents.then(|| (0..pairs).map(|_| f()).collect()),
            finished_estimate: f(),
            finished_error: f(),
            threshold_frozen_error: f(),
            function_evaluations: evals,
            regions_generated: generated,
            previous_cumulative: with_previous.then(&mut f),
            next_iteration,
            latest_estimate: f(),
            latest_error: f(),
        };
        snapshot.validate().expect("structurally valid by construction");
        let back = Snapshot::from_bytes(&snapshot.to_bytes()).expect("round trip parses");
        prop_assert_eq!(back.version, snapshot.version);
        prop_assert_eq!(&back.integrand_id, &snapshot.integrand_id);
        prop_assert_eq!(bits(&back.region_lo), bits(&snapshot.region_lo));
        prop_assert_eq!(bits(&back.region_hi), bits(&snapshot.region_hi));
        prop_assert_eq!(back.rel_tol.to_bits(), snapshot.rel_tol.to_bits());
        prop_assert_eq!(back.abs_tol.to_bits(), snapshot.abs_tol.to_bits());
        prop_assert_eq!(back.converged, snapshot.converged);
        prop_assert_eq!(back.dim, snapshot.dim);
        prop_assert_eq!(bits(&back.lefts), bits(&snapshot.lefts));
        prop_assert_eq!(bits(&back.lengths), bits(&snapshot.lengths));
        prop_assert_eq!(
            back.parent_integrals.as_deref().map(bits),
            snapshot.parent_integrals.as_deref().map(bits)
        );
        prop_assert_eq!(
            back.finished_estimate.to_bits(),
            snapshot.finished_estimate.to_bits()
        );
        prop_assert_eq!(
            back.finished_error.to_bits(),
            snapshot.finished_error.to_bits()
        );
        prop_assert_eq!(
            back.threshold_frozen_error.to_bits(),
            snapshot.threshold_frozen_error.to_bits()
        );
        prop_assert_eq!(back.function_evaluations, snapshot.function_evaluations);
        prop_assert_eq!(back.regions_generated, snapshot.regions_generated);
        prop_assert_eq!(
            back.previous_cumulative.map(f64::to_bits),
            snapshot.previous_cumulative.map(f64::to_bits)
        );
        prop_assert_eq!(back.next_iteration, snapshot.next_iteration);
        prop_assert_eq!(
            back.latest_estimate.to_bits(),
            snapshot.latest_estimate.to_bits()
        );
        prop_assert_eq!(back.latest_error.to_bits(), snapshot.latest_error.to_bits());
    }
}

/// The golden pin: checkpoint every 2 generations, push each checkpoint
/// through bytes, resume it — and land on the uninterrupted run's result to
/// the bit, at every worker count.
#[test]
fn checkpoint_resume_is_bit_identical_across_worker_counts() {
    for workers in worker_matrix(&[1, 2, 8]) {
        let device = device_with_workers(workers);
        let config = PaganiConfig::test_small(Tolerances::rel(1e-6));
        let f = bump().named("persist.golden");
        let region = Region::unit_cube(3);
        let arena = ScratchArena::new();
        let cancel = CancelToken::new();
        let pagani = Pagani::new(device, config);

        let full = pagani.integrate_resumable(&f, &region, &arena, &cancel, 2);
        assert!(full.output.result.converged(), "workers {workers}");
        assert!(
            !full.checkpoints.is_empty(),
            "workers {workers}: the run must span enough generations to checkpoint"
        );
        assert!(full.final_snapshot.is_some(), "workers {workers}");

        for (i, checkpoint) in full.checkpoints.iter().enumerate() {
            let parsed =
                Snapshot::from_bytes(&checkpoint.to_bytes()).expect("checkpoint bytes parse back");
            let resumed = pagani
                .resume_from(&f, &parsed, &arena, &cancel)
                .expect("checkpoint resumes");
            let (a, b) = (&resumed.output.result, &full.output.result);
            assert_eq!(
                a.estimate.to_bits(),
                b.estimate.to_bits(),
                "workers {workers}, checkpoint {i}: estimate drifted"
            );
            assert_eq!(
                a.error_estimate.to_bits(),
                b.error_estimate.to_bits(),
                "workers {workers}, checkpoint {i}: error drifted"
            );
            assert_eq!(
                a.termination, b.termination,
                "workers {workers}, checkpoint {i}"
            );
            assert_eq!(
                a.iterations, b.iterations,
                "workers {workers}, checkpoint {i}"
            );
            assert_eq!(
                a.function_evaluations, b.function_evaluations,
                "workers {workers}, checkpoint {i}: evaluation accounting drifted"
            );
            assert_eq!(
                a.regions_generated, b.regions_generated,
                "workers {workers}, checkpoint {i}"
            );
        }
    }
}

/// A resumable run with checkpointing disabled is bit-identical to the plain
/// single-shot entry point — capture is pure data movement.
#[test]
fn resumable_run_matches_plain_run_bit_for_bit() {
    for workers in worker_matrix(&[1, 2, 8]) {
        let device = device_with_workers(workers);
        let config = PaganiConfig::test_small(Tolerances::rel(1e-6));
        let f = bump().named("persist.plain");
        let region = Region::unit_cube(3);
        let arena = ScratchArena::new();
        let cancel = CancelToken::new();
        let pagani = Pagani::new(device, config);

        let plain = pagani.integrate_region_with(&f, &region, &arena, &cancel);
        let resumable = pagani.integrate_resumable(&f, &region, &arena, &cancel, 3);
        assert_eq!(
            plain.result.estimate.to_bits(),
            resumable.output.result.estimate.to_bits(),
            "workers {workers}"
        );
        assert_eq!(
            plain.result.error_estimate.to_bits(),
            resumable.output.result.error_estimate.to_bits(),
            "workers {workers}"
        );
        assert_eq!(
            plain.result.function_evaluations, resumable.output.result.function_evaluations,
            "workers {workers}"
        );
    }
}

/// An exact cache hit never touches the device: the counting backend sees no
/// new `evaluate` launches, and the served result is the original to the bit.
#[test]
fn exact_cache_hit_performs_zero_device_launches() {
    let counting = Arc::new(CountingBackend::new(Arc::new(CpuBackend::new(
        DeviceConfig::test_small().with_worker_threads(2),
    ))));
    let device = Device::with_backend(counting.clone());
    let cache = Arc::new(ResultCache::new(1 << 20));
    let config = PaganiConfig::test_small(Tolerances::rel(1e-5));
    let service = ServiceBuilder::new(config)
        .device(device)
        .cache(cache)
        .build();
    let job = || {
        BatchJob::shared(Arc::new(bump().named("persist.hit")) as Arc<dyn Integrand + Send + Sync>)
    };

    let first = service.submit(job()).wait();
    assert!(first.result.converged());
    let launches_after_cold = counting.launches_for("evaluate");
    assert!(launches_after_cold > 0);

    let second = service.submit(job()).wait();
    assert!(second.result.converged());
    assert_eq!(
        counting.launches_for("evaluate"),
        launches_after_cold,
        "a cache hit must not launch evaluation kernels"
    );
    assert_eq!(
        second.result.estimate.to_bits(),
        first.result.estimate.to_bits()
    );
    assert_eq!(
        second.result.error_estimate.to_bits(),
        first.result.error_estimate.to_bits()
    );
    assert_eq!(
        second.result.function_evaluations,
        first.result.function_evaluations
    );

    let metrics = service.metrics();
    assert_eq!(metrics.cache_hits, 1);
    assert_eq!(metrics.cache_misses, 1);
    assert!(metrics.checkpoints_written >= 1);
    assert_eq!(metrics.evals_saved, first.result.function_evaluations);
    service.shutdown();
}

/// Warm-starting a tighter-tolerance request from a converged looser
/// snapshot converges on strictly fewer *new* evaluations than a cold run.
#[test]
fn tighter_tolerance_warm_start_saves_evaluations() {
    let device = device_with_workers(4);
    let f = bump().named("persist.warm");
    let region = Region::unit_cube(3);
    let arena = ScratchArena::new();
    let cancel = CancelToken::new();

    // Keep every region active (no rel-err folding, no heuristic filtering):
    // the snapshot then carries the whole tree with zero frozen error, so
    // the tighter run can always build on it.
    let unfolded = |tol| {
        PaganiConfig::test_small(tol)
            .without_rel_err_filtering()
            .with_heuristic_filtering(HeuristicFiltering::Disabled)
    };
    let loose = Pagani::new(device.clone(), unfolded(Tolerances::rel(1e-4)));
    let banked = loose.integrate_resumable(&f, &region, &arena, &cancel, 0);
    assert!(banked.output.result.converged());
    let snapshot = banked
        .final_snapshot
        .expect("a converged run leaves a snapshot");

    let tight = Pagani::new(device, unfolded(Tolerances::rel(1e-6)));
    let cold = tight.integrate_resumable(&f, &region, &arena, &cancel, 0);
    assert!(cold.output.result.converged());
    let warm = tight
        .resume_from(&f, &snapshot, &arena, &cancel)
        .expect("converged snapshot warm-starts the tighter run");
    assert!(warm.output.result.converged());

    let new_evals = warm
        .output
        .result
        .function_evaluations
        .checked_sub(snapshot.function_evaluations)
        .expect("resumed counters continue from the snapshot");
    assert!(
        new_evals < cold.output.result.function_evaluations,
        "warm start spent {new_evals} new evaluations, cold spent {}",
        cold.output.result.function_evaluations
    );
}

/// Crash recovery: a cancelled job persists its partial region tree to the
/// shared cache; a fresh service over the same cache resumes it to
/// convergence and counts the warm start and the resume.
#[test]
fn cancelled_job_persists_partial_tree_for_retry() {
    let cache = Arc::new(ResultCache::new(1 << 20));
    let config = PaganiConfig::test_small(Tolerances::rel(1e-7));
    let started = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));
    let f = {
        let (started, release) = (started.clone(), release.clone());
        // Parks the very first evaluation until `release` flips, so the
        // cancellation deterministically lands while the job is in flight.
        Arc::new(
            FnIntegrand::new(3, move |x: &[f64]| {
                if !started.swap(true, Ordering::AcqRel) {
                    while !release.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                }
                (-x.iter().map(|&v| (v - 0.5) * (v - 0.5)).sum::<f64>() * 25.0).exp()
            })
            .named("persist.recover"),
        ) as Arc<dyn Integrand + Send + Sync>
    };

    let service = ServiceBuilder::new(config.clone())
        .device(device_with_workers(2))
        .cache(Arc::clone(&cache))
        .build();
    let handle = service.submit(BatchJob::shared(f.clone()));
    while !started.load(Ordering::Acquire) {
        std::thread::yield_now();
    }
    handle.cancel();
    release.store(true, Ordering::Release);
    let shed = handle.wait();
    assert_eq!(shed.result.termination, Termination::Cancelled);
    let shed_metrics = service.metrics();
    assert_eq!(shed_metrics.cancelled, 1);
    assert!(
        shed_metrics.checkpoints_written >= 1,
        "the cancelled job must persist its partial tree"
    );
    service.shutdown();
    assert!(!cache.is_empty());

    // "Restart": a new service over the surviving cache picks the job up
    // from the persisted tree instead of starting over.
    let recovered = ServiceBuilder::new(config)
        .device(device_with_workers(2))
        .cache(Arc::clone(&cache))
        .build();
    let retry = recovered.submit(BatchJob::shared(f)).wait();
    assert!(retry.result.converged());
    let metrics = recovered.metrics();
    assert!(
        metrics.warm_starts >= 1,
        "retry must warm-start: {metrics:?}"
    );
    assert!(
        metrics.resumed >= 1,
        "a non-converged snapshot resume must count as resumed: {metrics:?}"
    );
    assert!(metrics.evals_saved > 0);
    recovered.shutdown();
}

/// The multi-device pool shares one cache across lanes: work done by any
/// lane serves exact hits pool-wide, visible in the per-lane metrics sum.
#[test]
fn multi_device_pool_shares_one_cache() {
    let cache = Arc::new(ResultCache::new(1 << 20));
    let config = PaganiConfig::test_small(Tolerances::rel(1e-5));
    let service = ServiceBuilder::new(config)
        .devices([device_with_workers(2), device_with_workers(2)])
        .dispatch(DispatchMode::RoundRobin)
        .cache(Arc::clone(&cache))
        .build_multi();
    let job = || {
        BatchJob::shared(Arc::new(bump().named("persist.pool")) as Arc<dyn Integrand + Send + Sync>)
    };
    let first = service.submit(job()).wait();
    assert!(first.result.converged());
    // Round-robin sends the second submission to the *other* lane; only the
    // shared cache can serve it without recomputing.
    let second = service.submit(job()).wait();
    assert_eq!(
        second.result.estimate.to_bits(),
        first.result.estimate.to_bits()
    );
    let totals = service.metrics();
    let hits: u64 = totals.iter().map(|m| m.cache_hits).sum();
    assert_eq!(hits, 1);
    assert!(service.result_cache().is_some());
    service.shutdown();
}

/// What a run reports, and leaves behind, at the place its driver loop
/// stopped.
#[derive(Debug, PartialEq)]
struct ExitPin {
    termination: Termination,
    iterations: usize,
    regions_generated: u64,
    function_evaluations: u64,
    active_regions_final: usize,
    estimate_bits: u64,
    error_bits: u64,
    /// Threshold searches triggered by estimate convergence.
    converged_searches: usize,
    /// Threshold searches triggered by memory pressure.
    pressure_searches: usize,
    snapshot_next_iteration: usize,
    snapshot_converged: bool,
    snapshot_regions: usize,
    snapshot_has_parents: bool,
}

impl ExitPin {
    fn of(out: &ResumableOutput) -> Self {
        let result = &out.output.result;
        let searches = |trigger| {
            out.output
                .trace
                .threshold_searches
                .iter()
                .filter(|record| record.trigger == trigger)
                .count()
        };
        let snapshot = out
            .final_snapshot
            .as_ref()
            .expect("every exit leaves a final snapshot");
        ExitPin {
            termination: result.termination,
            iterations: result.iterations,
            regions_generated: result.regions_generated,
            function_evaluations: result.function_evaluations,
            active_regions_final: result.active_regions_final,
            estimate_bits: result.estimate.to_bits(),
            error_bits: result.error_estimate.to_bits(),
            converged_searches: searches(ThresholdTrigger::EstimateConverged),
            pressure_searches: searches(ThresholdTrigger::MemoryPressure),
            snapshot_next_iteration: snapshot.next_iteration,
            snapshot_converged: snapshot.converged,
            snapshot_regions: snapshot.lefts.len() / snapshot.dim,
            snapshot_has_parents: snapshot.parent_integrals.is_some(),
        }
    }
}

/// Each reachable exit of the driver loop — convergence at the reduce
/// check (in a later generation and in generation 0), every region
/// finished, a failed split, a failed filter, an exhausted iteration budget
/// and cancellation — pinned by its result and final snapshot, at every
/// worker count.
#[test]
fn every_driver_exit_is_pinned_with_its_final_snapshot() {
    for workers in worker_matrix(&[1, 2, 8]) {
        let device = |mib: usize| {
            Device::new(
                DeviceConfig::test_small()
                    .with_memory_capacity(mib << 20)
                    .with_worker_threads(workers),
            )
        };
        let config = |rel: f64| PaganiConfig::test_small(Tolerances::rel(rel));
        let (f1, f4, f4_5d) = (
            PaperIntegrand::f1(3),
            PaperIntegrand::f4(3),
            PaperIntegrand::f4(5),
        );
        let wave = FnIntegrand::new(2, |x: &[f64]| (2.0 * std::f64::consts::PI * x[0]).sin());
        let live = CancelToken::new();
        let cancelled = CancelToken::new();
        cancelled.cancel();
        let budget = PaganiConfig {
            max_iterations: 3,
            ..config(1e-8)
        };
        let cases: [(&str, Pagani, &dyn Integrand, &CancelToken, ExitPin); 7] = [
            (
                "converged",
                Pagani::new(device(32), config(1e-4)),
                &f4,
                &live,
                ExitPin {
                    termination: Termination::Converged,
                    iterations: 9,
                    regions_generated: 2920,
                    function_evaluations: 96360,
                    active_regions_final: 128,
                    estimate_bits: 4555209543749405893,
                    error_bits: 4493250838362965338,
                    converged_searches: 2,
                    pressure_searches: 0,
                    snapshot_next_iteration: 8,
                    snapshot_converged: true,
                    snapshot_regions: 176,
                    snapshot_has_parents: true,
                },
            ),
            (
                "converged_generation_0",
                Pagani::new(device(32), config(1e-4).without_rel_err_filtering()),
                &f1,
                &live,
                ExitPin {
                    termination: Termination::Converged,
                    iterations: 1,
                    regions_generated: 216,
                    function_evaluations: 7128,
                    active_regions_final: 216,
                    estimate_bits: 13826331700024640034,
                    error_bits: 4498582374545772544,
                    converged_searches: 0,
                    pressure_searches: 0,
                    snapshot_next_iteration: 0,
                    snapshot_converged: true,
                    snapshot_regions: 216,
                    snapshot_has_parents: false,
                },
            ),
            (
                "all_finished",
                Pagani::new(device(32), config(1e-3)),
                &wave,
                &live,
                ExitPin {
                    termination: Termination::MaxIterations,
                    iterations: 1,
                    regions_generated: 256,
                    function_evaluations: 4352,
                    active_regions_final: 0,
                    estimate_bits: 13584861985358479360,
                    error_bits: 4473553326989901824,
                    converged_searches: 0,
                    pressure_searches: 0,
                    snapshot_next_iteration: 0,
                    snapshot_converged: false,
                    snapshot_regions: 256,
                    snapshot_has_parents: false,
                },
            ),
            (
                "split_failed",
                Pagani::new(device(2), config(1e-6)),
                &f4_5d,
                &live,
                ExitPin {
                    termination: Termination::MemoryExhausted,
                    iterations: 16,
                    regions_generated: 43773,
                    function_evaluations: 4070889,
                    active_regions_final: 9344,
                    estimate_bits: 4521066059163763247,
                    error_bits: 4482864200322057913,
                    converged_searches: 0,
                    pressure_searches: 2,
                    snapshot_next_iteration: 16,
                    snapshot_converged: false,
                    snapshot_regions: 9344,
                    snapshot_has_parents: false,
                },
            ),
            (
                "filter_failed",
                Pagani::new(device(1), config(1e-6)),
                &f4_5d,
                &live,
                ExitPin {
                    termination: Termination::MemoryExhausted,
                    iterations: 16,
                    regions_generated: 31805,
                    function_evaluations: 2957865,
                    active_regions_final: 8576,
                    estimate_bits: 4521066059224594720,
                    error_bits: 4482864451060943928,
                    converged_searches: 0,
                    pressure_searches: 4,
                    snapshot_next_iteration: 15,
                    snapshot_converged: false,
                    snapshot_regions: 8576,
                    snapshot_has_parents: true,
                },
            ),
            (
                "budget",
                Pagani::new(device(32), budget),
                &f4,
                &live,
                ExitPin {
                    termination: Termination::MaxIterations,
                    iterations: 3,
                    regions_generated: 568,
                    function_evaluations: 13464,
                    active_regions_final: 80,
                    estimate_bits: 4555416390597418583,
                    error_bits: 4548635310217410168,
                    converged_searches: 0,
                    pressure_searches: 0,
                    snapshot_next_iteration: 3,
                    snapshot_converged: false,
                    snapshot_regions: 160,
                    snapshot_has_parents: true,
                },
            ),
            (
                "cancelled",
                Pagani::new(device(32), config(1e-4)),
                &f4,
                &cancelled,
                ExitPin {
                    termination: Termination::Cancelled,
                    iterations: 0,
                    regions_generated: 216,
                    function_evaluations: 0,
                    active_regions_final: 0,
                    estimate_bits: 0,
                    error_bits: f64::INFINITY.to_bits(),
                    converged_searches: 0,
                    pressure_searches: 0,
                    snapshot_next_iteration: 0,
                    snapshot_converged: false,
                    snapshot_regions: 216,
                    snapshot_has_parents: false,
                },
            ),
        ];
        for (name, pagani, f, cancel, expected) in cases {
            let (lo, hi) = f.default_bounds();
            let region = Region::new(lo, hi);
            let out = pagani.integrate_resumable(f, &region, &ScratchArena::new(), cancel, 0);
            assert_eq!(ExitPin::of(&out), expected, "{name}, workers {workers}");
        }
    }
}
