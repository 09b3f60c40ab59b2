//! The batch execution engine: many independent integration jobs over one
//! shared device worker pool.
//!
//! A single [`crate::Pagani::integrate`] call alternates parallel kernel
//! launches with serial host phases, so one job cannot keep a wide worker pool
//! busy — and a service answering many integration requests cares about
//! *throughput* (integrals per second), not single-job latency.
//! [`integrate_batch`] runs N independent jobs concurrently over one
//! [`Device`]: it is submit-all-then-wait sugar on top of a transient
//! [`crate::IntegrationService`], so both entry points share one execution
//! model:
//!
//! * **No oversubscription.**  Every kernel launch from every job lands on the
//!   device's one worker pool, and whole jobs are admitted through the
//!   device's FIFO [`pagani_device::FairGate`], sized to the worker count — so
//!   however many jobs are submitted, at most a pool's worth are in flight,
//!   and when jobs do queue they are admitted in the order they reached the
//!   gate: a stream of short jobs can never starve a long one that arrived
//!   first.
//! * **Buffer reuse.**  Each service worker owns a long-lived
//!   [`crate::ScratchArena`]; region lists, estimate arrays and classification
//!   masks are recycled across iterations and across the jobs that worker
//!   executes, instead of being reallocated each generation.
//! * **Per-job memory isolation.**  Each job runs against
//!   [`Device::isolated_memory_view`]: a fresh, full-capacity pool sharing the
//!   parent's workers.  Memory-pressure heuristics therefore see exactly what
//!   they would see if the job ran alone, which makes batch results
//!   **bit-identical** to running the same jobs sequentially — the invariant
//!   the batch determinism tests pin down.  A combined cross-job memory quota
//!   is an explicit non-goal of this engine (tracked on the roadmap).
//!
//! Because the batch drains a transient [`crate::IntegrationService`], batch
//! jobs also feed that service's measured [`crate::CostModel`] and show up in
//! its [`crate::ServiceMetrics`] while the batch runs — the batch engine gets
//! the observability of the serving stack for free.
//!
//! ```
//! use pagani_core::{integrate_batch, BatchJob, PaganiConfig};
//! use pagani_device::Device;
//! use pagani_quadrature::{FnIntegrand, Tolerances};
//!
//! let jobs = [
//!     BatchJob::new(FnIntegrand::new(2, |x: &[f64]| x[0] + x[1])),
//!     BatchJob::new(FnIntegrand::new(3, |x: &[f64]| x[0] * x[1] * x[2])),
//! ];
//! let device = Device::test_small();
//! let config = PaganiConfig::test_small(Tolerances::rel(1e-6));
//! let outputs = integrate_batch(&device, &config, &jobs);
//! assert!(outputs.iter().all(|o| o.result.converged()));
//! ```

use std::sync::Arc;
use std::time::Duration;

use pagani_device::Device;
use pagani_quadrature::{Integrand, Region};

use crate::builder::ServiceBuilder;
use crate::config::PaganiConfig;
use crate::driver::PaganiOutput;
use crate::integrator::IntegratorFactory;
use crate::service::{JobHandle, Priority};

/// One independent integration job: a shared integrand, the region to
/// integrate it over, and the scheduling attributes the service honours —
/// priority, an optional deadline, and an optional per-job method override.
///
/// Jobs own their integrand behind an [`Arc`] so they can be queued on a
/// service, carried across worker threads and cloned cheaply; wrap a value
/// with [`BatchJob::new`] or share an existing `Arc` with [`BatchJob::shared`].
#[derive(Clone)]
pub struct BatchJob {
    integrand: Arc<dyn Integrand + Send + Sync>,
    region: Region,
    priority: Priority,
    deadline: Option<Duration>,
    method: Option<Arc<dyn IntegratorFactory>>,
}

impl std::fmt::Debug for BatchJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchJob")
            .field("integrand", &self.integrand.name())
            .field("dim", &self.region.dim())
            .field("priority", &self.priority)
            .field("deadline", &self.deadline)
            .field(
                "method",
                &self.method.as_deref().map(IntegratorFactory::method_name),
            )
            .finish()
    }
}

impl BatchJob {
    /// A job integrating `integrand` over its default bounds.
    #[must_use]
    pub fn new<F: Integrand + Send + Sync + 'static>(integrand: F) -> Self {
        Self::shared(Arc::new(integrand))
    }

    /// A job integrating an already-shared integrand over its default bounds.
    #[must_use]
    pub fn shared(integrand: Arc<dyn Integrand + Send + Sync>) -> Self {
        let (lo, hi) = integrand.default_bounds();
        let region = Region::new(lo, hi);
        Self {
            integrand,
            region,
            priority: Priority::Normal,
            deadline: None,
            method: None,
        }
    }

    /// Replace the integration region (defaults to the integrand's bounds).
    #[must_use]
    pub fn over(mut self, region: Region) -> Self {
        self.region = region;
        self
    }

    /// Set the scheduling priority (defaults to [`Priority::Normal`]).
    /// Higher-priority jobs are claimed first; equal priorities stay FIFO.
    #[must_use]
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Give the job a deadline, measured from submission.  It rides on the
    /// job's [`crate::CancelToken`], which counts as cancelled once it has
    /// passed: the job stops at its claim or next checkpoint and reports
    /// [`pagani_quadrature::Termination::Cancelled`] with its partial
    /// statistics, as if [`crate::JobHandle::cancel`] had been called.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Override the integration method for this job.  The service builds the
    /// factory's integrator on the job's isolated device view when the job is
    /// claimed; jobs without an override run the service's default PAGANI
    /// configuration.  `MethodConfig` (in `pagani-baselines`) implements
    /// [`IntegratorFactory`], so any of the five methods can ride along.
    ///
    /// Override jobs go through the method-agnostic `Box<dyn Integrator>`
    /// path, which has two costs relative to the default path: the returned
    /// `PaganiOutput.trace` is always empty (the trait surface carries only
    /// an `IntegrationResult` — true even for a PAGANI override), and the
    /// run allocates fresh scratch instead of reusing the service worker's
    /// long-lived arena.  Jobs that need traces or arena reuse should use
    /// the service's default configuration rather than an override.
    #[must_use]
    pub fn with_method<M: IntegratorFactory + 'static>(self, method: M) -> Self {
        self.with_shared_method(Arc::new(method))
    }

    /// Override the integration method with an already-shared factory.
    #[must_use]
    pub fn with_shared_method(mut self, method: Arc<dyn IntegratorFactory>) -> Self {
        self.method = Some(method);
        self
    }

    /// The job's integrand.
    #[must_use]
    pub fn integrand(&self) -> &(dyn Integrand + Send + Sync) {
        self.integrand.as_ref()
    }

    /// The job's integration region.
    #[must_use]
    pub fn region(&self) -> &Region {
        &self.region
    }

    /// The job's scheduling priority.
    #[must_use]
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// The job's deadline, measured from submission, if any.
    #[must_use]
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// The job's method override, if any.
    #[must_use]
    pub fn method(&self) -> Option<&Arc<dyn IntegratorFactory>> {
        self.method.as_ref()
    }
}

/// Run `jobs` concurrently on `device` and return outputs in job order.
///
/// Every job is submitted in slice order to a transient service with one
/// worker per device worker (fewer for a short batch), then all handles are
/// awaited and the service shut down.  Jobs run against memory-isolated
/// views of the device with per-worker long-lived scratch arenas, so outputs
/// are bit-identical to running the same jobs sequentially with
/// [`crate::Pagani::integrate_region`] on the same device; see the module
/// docs for the execution model.
///
/// # Panics
/// Panics if a job's integrand and region dimensions differ (propagated
/// from the driver).
#[must_use]
pub fn integrate_batch(
    device: &Device,
    config: &PaganiConfig,
    jobs: &[BatchJob],
) -> Vec<PaganiOutput> {
    if jobs.is_empty() {
        return Vec::new();
    }
    let service = ServiceBuilder::new(config.clone())
        .device(device.clone())
        .workers(device.effective_workers().min(jobs.len()))
        .build();
    let handles: Vec<JobHandle> = jobs.iter().map(|job| service.submit(job.clone())).collect();
    let outputs = handles.iter().map(JobHandle::wait).collect();
    service.shutdown();
    outputs
}

#[cfg(test)]
mod tests {
    use super::*;
    use pagani_device::DeviceConfig;
    use pagani_integrands::paper::PaperIntegrand;
    use pagani_quadrature::{FnIntegrand, Tolerances};

    fn test_device(workers: usize) -> Device {
        Device::new(
            DeviceConfig::test_small()
                .with_memory_capacity(32 << 20)
                .with_worker_threads(workers),
        )
    }

    #[test]
    fn outputs_arrive_in_job_order() {
        let jobs = [
            BatchJob::new(FnIntegrand::new(2, |x: &[f64]| x[0] * x[0] + x[1] * x[1])),
            BatchJob::new(FnIntegrand::new(2, |x: &[f64]| x[0] * x[0] * x[0])),
            BatchJob::new(FnIntegrand::new(2, |_: &[f64]| 5.0)),
        ];
        let outputs = integrate_batch(
            &test_device(2),
            &PaganiConfig::test_small(Tolerances::rel(1e-8)),
            &jobs,
        );
        assert_eq!(outputs.len(), 3);
        assert!((outputs[0].result.estimate - 2.0 / 3.0).abs() < 1e-7);
        assert!((outputs[1].result.estimate - 0.25).abs() < 1e-7);
        assert!((outputs[2].result.estimate - 5.0).abs() < 1e-9);
    }

    #[test]
    fn empty_batch_is_empty() {
        let config = PaganiConfig::test_small(Tolerances::rel(1e-3));
        assert!(integrate_batch(&test_device(1), &config, &[]).is_empty());
    }

    #[test]
    fn more_jobs_than_workers_all_complete() {
        let f: Arc<dyn Integrand + Send + Sync> = Arc::new(PaperIntegrand::f4(3));
        let jobs: Vec<BatchJob> = (0..9).map(|_| BatchJob::shared(Arc::clone(&f))).collect();
        let outputs = integrate_batch(
            &test_device(2),
            &PaganiConfig::test_small(Tolerances::rel(1e-3)),
            &jobs,
        );
        assert_eq!(outputs.len(), 9);
        assert!(outputs.iter().all(|o| o.result.converged()));
        // All nine jobs ran the same problem: identical to the last bit.
        let first = outputs[0].result.estimate.to_bits();
        assert!(outputs.iter().all(|o| o.result.estimate.to_bits() == first));
    }

    #[test]
    fn explicit_region_jobs_are_honoured() {
        let job = BatchJob::new(FnIntegrand::new(2, |x: &[f64]| x[0] + x[1]))
            .over(Region::new(vec![0.0, 0.0], vec![2.0, 1.0]));
        let outputs = integrate_batch(
            &test_device(1),
            &PaganiConfig::test_small(Tolerances::rel(1e-8)),
            &[job],
        );
        // ∫∫ (x + y) over [0,2]×[0,1] = 2 + 1 = 3.
        assert!((outputs[0].result.estimate - 3.0).abs() < 1e-7);
    }

    #[test]
    fn batch_leaves_the_parent_pool_untouched() {
        let device = test_device(2);
        let f: Arc<dyn Integrand + Send + Sync> = Arc::new(PaperIntegrand::f4(3));
        let jobs = [BatchJob::shared(Arc::clone(&f)), BatchJob::shared(f)];
        let _ = integrate_batch(
            &device,
            &PaganiConfig::test_small(Tolerances::rel(1e-3)),
            &jobs,
        );
        assert_eq!(
            device.memory().usage().used,
            0,
            "jobs allocate only from their isolated views"
        );
    }
}
