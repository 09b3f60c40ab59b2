//! The scheduling service end to end: one queue serving five methods, with
//! priorities, deadlines, backpressure and multi-device cost-balanced
//! dispatch.
//!
//! ```text
//! cargo run --release --example scheduling_service
//! ```

use std::sync::Arc;
use std::time::Duration;

use pagani::prelude::*;

fn main() {
    let device = Device::new(
        DeviceConfig::test_small()
            .with_memory_capacity(32 << 20)
            .with_worker_threads(2),
    );
    let config = PaganiConfig::test_small(Tolerances::rel(1e-4));

    // --- One queue, five methods. ------------------------------------------
    // A bounded queue: at most 16 unclaimed jobs; try_submit refuses beyond
    // that instead of building an unbounded backlog.
    let service = ServiceBuilder::new(config.clone())
        .device(device.clone())
        .queue_bound(16)
        .build();

    let f: Arc<dyn Integrand + Send + Sync> = Arc::new(FnIntegrand::new(3, |x: &[f64]| {
        (-x.iter().map(|&v| (v - 0.5) * (v - 0.5)).sum::<f64>() * 10.0).exp()
    }));

    println!("one queue, five methods:");
    let handles: Vec<(&'static str, JobHandle)> = MethodConfig::all(Tolerances::rel(1e-3))
        .into_iter()
        .map(|method| {
            let name = method.name();
            let job = BatchJob::shared(f.clone()).with_method(method);
            let handle = service
                .try_submit(job)
                .expect("an empty queue cannot be full");
            (name, handle)
        })
        .collect();
    for (name, handle) in &handles {
        let output = handle.wait();
        println!(
            "  {name:<12} -> {:.6}  ({:?}, {} evals)",
            output.result.estimate, output.result.termination, output.result.function_evaluations
        );
    }

    // --- Priorities and deadlines. -----------------------------------------
    // A latency-sensitive job jumps the queue; a deadline turns into a
    // cooperative cancellation if the job cannot finish in time.
    let urgent = service.submit(
        BatchJob::shared(f.clone())
            .with_priority(Priority::High)
            .with_deadline(Duration::from_secs(5)),
    );
    let background = service.submit(BatchJob::shared(f.clone()).with_priority(Priority::Low));
    println!("\npriorities and deadlines:");
    println!(
        "  urgent (high, 5s deadline) -> {:?}",
        urgent.wait().result.termination
    );
    println!(
        "  background (low)           -> {:?}",
        background.wait().result.termination
    );
    service.shutdown();

    // --- Multi-device cost-balanced dispatch. ------------------------------
    // A skewed batch — heavy 5-D jobs alternating with trivial 2-D ones —
    // over two devices.  Cost-balanced dispatch splits the heavy half across
    // the pool instead of piling it onto device 0 the way round-robin does.
    let devices: Vec<Device> = (0..2)
        .map(|_| {
            Device::new(
                DeviceConfig::test_small()
                    .with_memory_capacity(32 << 20)
                    .with_worker_threads(2),
            )
        })
        .collect();
    let pool = ServiceBuilder::new(config).devices(devices).build_multi();
    let jobs: Vec<BatchJob> = (0..8)
        .map(|i| {
            if i % 2 == 0 {
                BatchJob::new(PaperIntegrand::f4(5))
            } else {
                BatchJob::new(PaperIntegrand::f3(2))
            }
        })
        .collect();
    let handles: Vec<JobHandle> = jobs.iter().map(|job| pool.submit(job.clone())).collect();
    let outputs: Vec<PaganiOutput> = handles.iter().map(JobHandle::wait).collect();
    println!(
        "\nmulti-device cost-balanced batch ({} devices):",
        pool.device_count()
    );
    for (job, output) in jobs.iter().zip(&outputs) {
        println!(
            "  {:<16} dim {} -> {:.6} ({:?})",
            job.integrand().name(),
            job.region().dim(),
            output.result.estimate,
            output.result.termination
        );
    }
    assert!(outputs.iter().all(|o| o.result.converged()));
    pool.shutdown();
    println!("\nall jobs converged.");
}
