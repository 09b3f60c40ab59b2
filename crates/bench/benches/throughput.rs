//! Throughput of the batch execution engine: integrals per second on a mixed
//! Genz workload, `integrate_batch` vs the equivalent sequential loop.
//!
//! The batch engine aims at two axes, and this bench exposes both:
//!
//! * **Pool utilisation** — a single job alternates kernel launches with
//!   serial host phases, leaving an 8-worker device partly idle; concurrent
//!   jobs fill those gaps (visible on multi-core hosts).
//! * **Buffer reuse** — each batch worker recycles region lists, estimate
//!   arrays and masks across iterations and jobs through its scratch arena,
//!   where the sequential loop reallocates them per generation (visible even
//!   on one core).
//!
//! One bench iteration runs the whole 16-job batch, so `mean_ns / 16` is the
//! per-integral cost and `16e9 / mean_ns` the integrals-per-second rate.  Run
//! with `--save-json <path>` (or `CRITERION_SAVE_JSON`) to record the numbers;
//! the CI bench-smoke job tracks this group as the perf trajectory.
//!
//! The `dispatch` group adds the multi-device angle: a *skewed* 16-job batch
//! (heavy 5-D jobs alternating with trivial 2-D ones) streamed into a fresh
//! two-device `MultiDeviceService`, under round-robin vs cost-balanced
//! dispatch.  Round-robin piles every heavy job onto one device;
//! cost-balanced splits them.  Total work is identical, so the modes can
//! only differ on a host with idle cores; the cost-balanced *placement* is
//! pinned by the multi-device unit tests, and this group tracks the
//! wall-clock.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pagani_core::{
    integrate_batch, BatchJob, DispatchMode, JobHandle, Pagani, PaganiConfig, ServiceBuilder,
};
use pagani_device::{Device, DeviceConfig};
use pagani_integrands::paper::PaperIntegrand;
use pagani_quadrature::{Integrand, Tolerances};

/// The 16-job mixed Genz workload: four single-sign families at four
/// dimensionalities each, the shape of a request mix a batch service would see.
fn mixed_workload() -> Vec<Arc<PaperIntegrand>> {
    let mut jobs = Vec::with_capacity(16);
    for dim in [2usize, 3, 4, 5] {
        jobs.push(Arc::new(PaperIntegrand::f3(dim)));
        jobs.push(Arc::new(PaperIntegrand::f4(dim)));
        jobs.push(Arc::new(PaperIntegrand::f5(dim)));
        jobs.push(Arc::new(PaperIntegrand::f7(dim)));
    }
    jobs
}

fn bench_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("throughput");
    group.sample_size(10);
    let device = Device::new(
        DeviceConfig::v100_like()
            .with_worker_threads(8)
            .with_memory_capacity(256 << 20),
    );
    let config = PaganiConfig::test_small(Tolerances::rel(1e-3));
    let workload = mixed_workload();

    // The baseline a service without the batch engine would run: one job at a
    // time through the plain single-shot API.
    let sequential = Pagani::new(device.clone(), config.clone());
    group.bench_function("sequential_loop_16_jobs", |b| {
        b.iter(|| {
            let total: f64 = workload
                .iter()
                .map(|f| sequential.integrate(f.as_ref()).result.estimate)
                .sum();
            black_box(total)
        })
    });

    let jobs: Vec<BatchJob> = workload
        .iter()
        .map(|f| BatchJob::shared(f.clone() as Arc<dyn Integrand + Send + Sync>))
        .collect();
    group.bench_function("batch_16_jobs", |b| {
        b.iter(|| {
            let total: f64 = integrate_batch(&device, &config, &jobs)
                .iter()
                .map(|o| o.result.estimate)
                .sum();
            black_box(total)
        })
    });
    group.finish();
}

/// The 16-job skewed workload: heavy jobs (5-D Gaussian) on even indices,
/// trivial jobs (2-D corner peak) on odd ones — the adversarial mix for
/// round-robin sharding over two devices, which piles every heavy job onto
/// device 0 while device 1 idles.  Cost-balanced dispatch weighs jobs with
/// the (dimension, tolerance) cost model and splits the heavy half across
/// both devices.
fn skewed_workload() -> Vec<BatchJob> {
    (0..16)
        .map(|i| {
            if i % 2 == 0 {
                BatchJob::new(PaperIntegrand::f4(5))
            } else {
                BatchJob::new(PaperIntegrand::f3(2))
            }
        })
        .collect()
}

fn bench_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch");
    group.sample_size(10);
    // Two workers per device: narrower than the skew, so on a multi-core host
    // round-robin's single busy device can only use half the cores while the
    // other device idles — exactly the imbalance cost-balanced dispatch
    // removes.  (On a single-core host the modes converge; see module docs.)
    let make_devices = || -> Vec<Device> {
        (0..2)
            .map(|_| {
                Device::new(
                    DeviceConfig::v100_like()
                        .with_worker_threads(2)
                        .with_memory_capacity(128 << 20),
                )
            })
            .collect()
    };
    let config = PaganiConfig::test_small(Tolerances::rel(1e-4));
    let jobs = skewed_workload();
    // One fresh pool over the same devices per batch, so every batch is
    // placed by a cold cost model; the whole batch is submitted before the
    // first wait.
    let run_pool = |devices: &[Device], mode: DispatchMode| -> f64 {
        let pool = ServiceBuilder::new(config.clone())
            .devices(devices.iter().cloned())
            .dispatch(mode)
            .build_multi();
        let handles: Vec<JobHandle> = jobs.iter().map(|job| pool.submit(job.clone())).collect();
        let total = handles.iter().map(|h| h.wait().result.estimate).sum();
        pool.shutdown();
        total
    };

    let round_robin = make_devices();
    group.bench_function("round_robin_skewed_16_jobs", |b| {
        b.iter(|| black_box(run_pool(&round_robin, DispatchMode::RoundRobin)))
    });
    let balanced = make_devices();
    group.bench_function("cost_balanced_skewed_16_jobs", |b| {
        b.iter(|| black_box(run_pool(&balanced, DispatchMode::CostBalanced)))
    });
    group.finish();
}

criterion_group!(throughput, bench_throughput, bench_dispatch);
criterion_main!(throughput);
