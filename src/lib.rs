//! # pagani
//!
//! A from-scratch Rust reproduction of **PAGANI** — the parallel adaptive algorithm
//! for multi-dimensional numerical integration of Sakiotis et al. (SC 2021) — together
//! with every substrate and baseline the paper's evaluation depends on:
//!
//! * a simulated massively-parallel device with tracked memory ([`device`]),
//! * Genz–Malik embedded cubature, two-level error estimation and 1-D quadrature
//!   ([`quadrature`]),
//! * the paper's test-integrand suite with analytic reference values ([`integrands`]),
//! * the PAGANI algorithm itself ([`core`]),
//! * bit-exact region-tree snapshots, a result cache and warm-start resumable
//!   integration ([`persist`]), and
//! * the baselines it is compared against: sequential Cuhre, the two-phase GPU method,
//!   randomized quasi-Monte Carlo and plain Monte Carlo ([`baselines`]).
//!
//! ## Quick start
//!
//! ```
//! use pagani::prelude::*;
//!
//! // A 4-dimensional Gaussian bump on the unit cube.
//! let f = FnIntegrand::new(4, |x: &[f64]| {
//!     (-x.iter().map(|&v| (v - 0.5) * (v - 0.5)).sum::<f64>() * 25.0).exp()
//! });
//!
//! let device = Device::test_small();
//! let pagani = Pagani::new(device, PaganiConfig::test_small(Tolerances::rel(1e-5)));
//! let output = pagani.integrate(&f);
//!
//! assert!(output.result.converged());
//! assert!(output.result.relative_error_estimate() <= 1e-5);
//! ```
//!
//! ## One trait, five methods
//!
//! Every integrator implements [`Integrator`], so methods are values: build
//! any of them from a [`MethodConfig`] and sweep them through one loop:
//!
//! ```
//! use pagani::prelude::*;
//!
//! let f = FnIntegrand::new(2, |x: &[f64]| 1.0 + x[0] * x[1]);
//! let device = Device::test_small();
//! for config in MethodConfig::all(Tolerances::rel(1e-3)) {
//!     let integrator: Box<dyn Integrator> = config.build(&device);
//!     let result = integrator.integrate(&f);
//!     assert!(result.converged(), "{} failed", integrator.name());
//! }
//! ```
//!
//! ## Serving traffic: the integration service
//!
//! [`IntegrationService`] keeps resident workers fed from a FIFO queue:
//! `submit` returns a [`JobHandle`] immediately, handles support polling,
//! blocking waits and cooperative cancellation, and completed results are
//! bit-identical to sequential `Pagani::integrate` runs:
//!
//! ```
//! use pagani::prelude::*;
//!
//! let config = PaganiConfig::test_small(Tolerances::rel(1e-5));
//! let service = ServiceBuilder::new(config).device(Device::test_small()).build();
//! let handle = service.submit(BatchJob::new(FnIntegrand::new(2, |x: &[f64]| x[0] + x[1])));
//! assert!(handle.wait().result.converged());
//! service.shutdown();
//! ```
//!
//! ## Batch execution
//!
//! For a fixed set of independent integrals, [`integrate_batch`] is
//! submit-all-then-wait sugar over the service.  Results are bit-identical to
//! running the same jobs sequentially:
//!
//! ```
//! use pagani::prelude::*;
//!
//! let jobs = [
//!     BatchJob::new(FnIntegrand::new(2, |x: &[f64]| x[0] + x[1])),
//!     BatchJob::new(FnIntegrand::new(3, |x: &[f64]| {
//!         (-x.iter().map(|&v| (v - 0.5) * (v - 0.5)).sum::<f64>() * 10.0).exp()
//!     })),
//! ];
//!
//! let device = Device::test_small();
//! let config = PaganiConfig::test_small(Tolerances::rel(1e-5));
//! let outputs = pagani::integrate_batch(&device, &config, &jobs);
//!
//! assert!(outputs.iter().all(|o| o.result.converged()));
//! ```
//!
//! ## One builder, three services
//!
//! [`ServiceBuilder`] is the single construction surface for every service
//! shape: `build()` for a one-device [`IntegrationService`], `build_multi()`
//! for a cost-balanced [`MultiDeviceService`], and (given
//! `endpoint(..)` addresses of [`RemoteWorker`] processes)
//! `build_distributed()` for a [`DistributedService`] sharding jobs over the
//! wire with the same priority/deadline/backpressure semantics:
//!
//! ```
//! use pagani::prelude::*;
//!
//! let config = PaganiConfig::test_small(Tolerances::rel(1e-5));
//! let service = ServiceBuilder::new(config)
//!     .device(Device::test_small())
//!     .queue_bound(32)
//!     .build();
//! let handle = service.submit(BatchJob::new(FnIntegrand::new(2, |x: &[f64]| x[0] * x[1])));
//! assert!(handle.wait().result.converged());
//! service.shutdown();
//! ```
//!
//! ## Pluggable compute backends
//!
//! The simulated device is one implementation of the [`ComputeBackend`]
//! trait — the three-primitive seam (batched launch over flat lane buffers,
//! memory views, two reductions) every layer above is written against.
//! Wrap or replace the backend without touching the algorithm; the bundled
//! [`CountingBackend`] proves the point by counting launches:
//!
//! ```
//! use std::sync::Arc;
//! use pagani::prelude::*;
//! use pagani::{CountingBackend, CpuBackend};
//!
//! let counting = Arc::new(CountingBackend::new(Arc::new(CpuBackend::new(
//!     DeviceConfig::test_small(),
//! ))));
//! let device = Device::with_backend(counting.clone());
//! let pagani = Pagani::new(device, PaganiConfig::test_small(Tolerances::rel(1e-4)));
//! let out = pagani.integrate(&FnIntegrand::new(2, |x: &[f64]| x[0] + x[1]));
//!
//! // Structure-of-arrays evaluation: exactly one batched launch per iteration.
//! assert_eq!(counting.launches_for("evaluate"), out.result.iterations);
//! ```
//!
//! The `examples/` directory contains runnable end-to-end scenarios (quick start, a
//! cosmology-flavoured likelihood normalisation, a basket-option payoff, a
//! batch-throughput demo, the threshold search trace of the paper's Figure 3 and a
//! head-to-head method comparison), and the `pagani-bench` crate's `paper` bench
//! regenerates the paper's evaluation as one table, `BENCH_paper.json`.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

pub use pagani_baselines as baselines;
pub use pagani_core as core;
pub use pagani_device as device;
pub use pagani_integrands as integrands;
pub use pagani_persist as persist;
pub use pagani_quadrature as quadrature;

pub use pagani_baselines::MethodConfig;
pub use pagani_core::batch::integrate_batch;
pub use pagani_core::{
    Capabilities, CostKey, CostModel, DeadlineInfeasible, DispatchMode, DistributedService,
    Evaluation, IntegrandRegistry, IntegrationService, Integrator, IntegratorFactory, JobHandle,
    Message, MultiDeviceService, Priority, QueueFull, Rejected, RemoteWorker, ResumableOutput,
    ResumeError, ServiceBuilder, ServiceMetrics, WaitStats, WireError, EVAL_LANES,
    PROTOCOL_VERSION,
};
pub use pagani_device::{BackendCaps, ComputeBackend, CountingBackend, CpuBackend};
pub use pagani_persist::{CacheKey, CachedResult, ResultCache, Snapshot, WarmStartInfo};

/// The most commonly used types, re-exported for convenience.
pub mod prelude {
    pub use pagani_baselines::{
        Cuhre, CuhreConfig, MethodConfig, MonteCarlo, MonteCarloConfig, Qmc, QmcConfig, TwoPhase,
        TwoPhaseConfig,
    };
    pub use pagani_core::{
        integrate_batch, BatchJob, CancelToken, Capabilities, CostKey, CostModel, DispatchMode,
        DistributedService, HeuristicFiltering, IntegrandRegistry, IntegrationService, Integrator,
        IntegratorFactory, JobHandle, MultiDeviceOutput, MultiDevicePagani, MultiDeviceService,
        Pagani, PaganiConfig, PaganiOutput, Priority, QueueFull, Rejected, RemoteWorker,
        ResultCache, ScratchArena, ServiceBuilder, ServiceMetrics, Snapshot, WaitStats,
    };
    pub use pagani_device::{ComputeBackend, Device, DeviceConfig};
    pub use pagani_integrands::paper::PaperIntegrand;
    pub use pagani_integrands::workloads::{BasketOption, GaussianLikelihood};
    pub use pagani_quadrature::{
        FnIntegrand, Integrand, IntegrationResult, Region, Termination, Tolerances,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_a_working_pipeline() {
        let f = FnIntegrand::new(2, |x: &[f64]| x[0] + x[1]);
        let pagani = Pagani::new(
            Device::test_small(),
            PaganiConfig::test_small(Tolerances::rel(1e-6)),
        );
        let out = pagani.integrate(&f);
        assert!(out.result.converged());
        assert!((out.result.estimate - 1.0).abs() < 1e-6);
    }

    #[test]
    fn prelude_exposes_the_unified_front_door() {
        let f = FnIntegrand::new(2, |x: &[f64]| x[0] + x[1]);
        let device = Device::test_small();
        let integrator =
            MethodConfig::Pagani(PaganiConfig::test_small(Tolerances::rel(1e-6))).build(&device);
        assert!(integrator.integrate(&f).converged());
        let service = ServiceBuilder::new(PaganiConfig::test_small(Tolerances::rel(1e-6)))
            .device(device)
            .build();
        let handle = service.submit(BatchJob::new(f));
        assert!(handle.wait().result.converged());
        service.shutdown();
    }
}
