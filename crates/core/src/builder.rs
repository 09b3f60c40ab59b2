//! One fluent construction path for every service flavour.
//!
//! The service layer has three topologies — [`IntegrationService`] (one
//! device), [`MultiDeviceService`] (N in-process lanes) and the distributed
//! front-end [`DistributedService`] — and [`ServiceBuilder`] is the only way
//! to construct any of them: collect devices, a queue bound and worker
//! count, a [`DispatchMode`], an optional [`ResultCache`], an optional shared
//! [`CostModel`] and (for the distributed service) remote worker endpoints,
//! then call the `build_*` method matching the topology you want.
//!
//! ```
//! use pagani_core::ServiceBuilder;
//! use pagani_core::{BatchJob, PaganiConfig};
//! use pagani_device::Device;
//! use pagani_quadrature::{FnIntegrand, Tolerances};
//!
//! let service = ServiceBuilder::new(PaganiConfig::test_small(Tolerances::rel(1e-6)))
//!     .device(Device::test_small())
//!     .queue_bound(32)
//!     .build();
//! let handle = service.submit(BatchJob::new(FnIntegrand::new(2, |x: &[f64]| x[0] + x[1])));
//! assert!(handle.wait().result.converged());
//! service.shutdown();
//! ```

use std::sync::Arc;

use pagani_device::Device;
use pagani_persist::ResultCache;

use crate::config::PaganiConfig;
use crate::cost::CostModel;
use crate::multi_device::{DispatchMode, MultiDeviceService};
use crate::remote::DistributedService;
use crate::service::IntegrationService;

/// Fluent builder for [`IntegrationService`], [`MultiDeviceService`] and
/// [`DistributedService`] — see the [module docs](crate::builder) for the
/// rationale and an example.
///
/// Build methods are strict about topology so a mis-assembled builder fails
/// loudly instead of silently ignoring half its configuration:
/// [`ServiceBuilder::build`] wants exactly one device and no endpoints,
/// [`ServiceBuilder::build_multi`] at least one device and no endpoints,
/// [`ServiceBuilder::build_distributed`] at least one endpoint, and no
/// devices, worker count or round-robin dispatch (remote workers bring
/// their own devices and threads, and the front-end always balances cost).
#[derive(Debug, Clone)]
pub struct ServiceBuilder {
    pub(crate) config: PaganiConfig,
    pub(crate) devices: Vec<Device>,
    pub(crate) queue_bound: Option<usize>,
    pub(crate) workers: Option<usize>,
    pub(crate) dispatch: DispatchMode,
    pub(crate) cache: Option<Arc<ResultCache>>,
    pub(crate) model: Option<Arc<CostModel>>,
    pub(crate) endpoints: Vec<String>,
}

impl ServiceBuilder {
    /// Start a builder around the default job configuration `config` (the
    /// tolerances and PAGANI parameters applied to jobs without a per-job
    /// method override).
    #[must_use]
    pub fn new(config: PaganiConfig) -> Self {
        Self {
            config,
            devices: Vec::new(),
            queue_bound: None,
            workers: None,
            dispatch: DispatchMode::default(),
            cache: None,
            model: None,
            endpoints: Vec::new(),
        }
    }

    /// Add one device lane.
    #[must_use]
    pub fn device(mut self, device: Device) -> Self {
        self.devices.push(device);
        self
    }

    /// Add several device lanes at once.
    #[must_use]
    pub fn devices(mut self, devices: impl IntoIterator<Item = Device>) -> Self {
        self.devices.extend(devices);
        self
    }

    /// Bound the queue of every lane at `bound` jobs (minimum 1; default
    /// unbounded) — unclaimed jobs on a device, jobs in flight on a remote
    /// worker — checked on the lane a job is placed on.
    #[must_use]
    pub fn queue_bound(mut self, bound: usize) -> Self {
        self.queue_bound = Some(bound.max(1));
        self
    }

    /// Run `workers` resident worker threads (minimum 1) on each local lane
    /// (default: the device's effective worker-pool width).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Choose how jobs are assigned to lanes (multi-device topologies only).
    #[must_use]
    pub fn dispatch(mut self, mode: DispatchMode) -> Self {
        self.dispatch = mode;
        self
    }

    /// Attach a shared [`ResultCache`], shared by every lane.
    ///
    /// With a cache attached the default job path changes in three ways (all
    /// invisible to callers except in wall time and
    /// [`crate::ServiceMetrics`]):
    ///
    /// 1. an **exact hit** — same integrand name, region and tolerance as a
    ///    cached converged run — is served without touching the device, on
    ///    the submitting thread: it never queues, waits for a worker or is
    ///    refused by admission, and its handle comes back complete (a job
    ///    queued before its twin finished is served when a worker claims
    ///    it);
    /// 2. a **miss with a usable snapshot** for the same integrand and region
    ///    (any tolerance) *warm-starts* from that snapshot's region tree
    ///    instead of the root, provided the snapshot's frozen error leaves
    ///    headroom under this job's budget;
    /// 3. every run **persists** its final tree — converged trees for future
    ///    warm starts, partial trees from cancelled/deadline-shed runs so a
    ///    retry continues rather than recomputes.
    ///
    /// Deadline admission prices jobs by *remaining* work: an exact hit is
    /// estimated to complete at once, a feasible warm start costs its full
    /// prediction minus the snapshot's predicted-work credit.  Hits never
    /// train the cost model.
    ///
    /// Cache identity is `Integrand::name()` — callers mixing distinct
    /// closures through one cached service must name them uniquely
    /// (`FnIntegrand::named`).  Jobs with a per-job method override bypass
    /// the cache entirely: the cache key cannot see the override's
    /// configuration.
    ///
    /// The distributed front-end uses the cache as its crash-recovery store:
    /// partial snapshots shipped back by workers are kept here and
    /// re-shipped when a job is requeued.
    #[must_use]
    pub fn cache(mut self, cache: Arc<ResultCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Share an externally owned measured [`CostModel`] instead of creating a
    /// fresh one — lanes (or services) built from the same model pool their
    /// learning.
    #[must_use]
    pub fn cost_model(mut self, model: Arc<CostModel>) -> Self {
        self.model = Some(model);
        self
    }

    /// Add one remote worker endpoint (`host:port`) for
    /// [`ServiceBuilder::build_distributed`].
    #[must_use]
    pub fn endpoint(mut self, addr: impl Into<String>) -> Self {
        self.endpoints.push(addr.into());
        self
    }

    /// Add several remote worker endpoints at once.
    #[must_use]
    pub fn endpoints<I, S>(mut self, addrs: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.endpoints.extend(addrs.into_iter().map(Into::into));
        self
    }

    /// Build a single-device [`IntegrationService`].
    ///
    /// # Panics
    /// Panics unless exactly one device was supplied and no remote endpoints
    /// were configured.
    #[must_use]
    pub fn build(self) -> IntegrationService {
        assert!(
            self.endpoints.is_empty(),
            "remote endpoints were configured: build_distributed() is the matching topology"
        );
        assert!(
            self.devices.len() == 1,
            "build() wants exactly one device ({} supplied); use build_multi() for a pool",
            self.devices.len()
        );
        IntegrationService::from_builder(self)
    }

    /// Build a [`MultiDeviceService`]: one lane per supplied device, all
    /// lanes sharing one cost model (and the cache, when one is attached).
    ///
    /// # Panics
    /// Panics unless at least one device was supplied and no remote
    /// endpoints were configured.
    #[must_use]
    pub fn build_multi(self) -> MultiDeviceService {
        assert!(
            self.endpoints.is_empty(),
            "remote endpoints were configured: build_distributed() is the matching topology"
        );
        MultiDeviceService::from_builder(self)
    }

    /// Connect to every configured endpoint and build a
    /// [`DistributedService`] front-end sharding jobs across those remote
    /// workers.
    ///
    /// # Errors
    /// Propagates connection failures and handshake rejections (protocol
    /// version mismatch) as `io::Error`.
    ///
    /// # Panics
    /// Panics if no endpoints were configured, or if devices, a worker count
    /// or [`DispatchMode::RoundRobin`] were: each remote lane's size comes
    /// from its worker's handshake, and the front-end always places by cost.
    pub fn build_distributed(self) -> std::io::Result<DistributedService> {
        assert!(
            !self.endpoints.is_empty(),
            "build_distributed() needs at least one remote worker endpoint"
        );
        assert!(
            self.devices.is_empty(),
            "devices were configured: remote workers bring their own; use build()/build_multi() for local topologies"
        );
        assert!(
            self.workers.is_none(),
            "a worker count was configured: remote workers report their own"
        );
        assert!(
            self.dispatch == DispatchMode::CostBalanced,
            "round-robin dispatch was configured: the distributed front-end always balances cost"
        );
        DistributedService::from_builder(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchJob;
    use pagani_integrands::paper::PaperIntegrand;
    use pagani_quadrature::Tolerances;

    fn config() -> PaganiConfig {
        PaganiConfig::test_small(Tolerances::rel(1e-4))
    }

    #[test]
    fn builds_a_single_device_service() {
        let service = ServiceBuilder::new(config())
            .device(Device::test_small())
            .queue_bound(8)
            .workers(2)
            .build();
        assert_eq!(service.worker_count(), 2);
        let out = service.submit(BatchJob::new(PaperIntegrand::f4(3))).wait();
        assert!(out.result.converged());
        service.shutdown();
    }

    #[test]
    fn builds_a_multi_device_service_with_shared_model() {
        let model = Arc::new(CostModel::new());
        let service = ServiceBuilder::new(config())
            .devices([Device::test_small(), Device::test_small()])
            .dispatch(DispatchMode::RoundRobin)
            .cost_model(Arc::clone(&model))
            .build_multi();
        assert_eq!(service.device_count(), 2);
        assert_eq!(service.mode(), DispatchMode::RoundRobin);
        assert!(Arc::ptr_eq(service.cost_model(), &model));
        service.shutdown();
    }

    #[test]
    #[should_panic(expected = "exactly one device")]
    fn build_refuses_a_device_pool() {
        let _ = ServiceBuilder::new(config())
            .devices([Device::test_small(), Device::test_small()])
            .build();
    }

    #[test]
    #[should_panic(expected = "build_distributed() is the matching topology")]
    fn build_refuses_remote_endpoints() {
        let _ = ServiceBuilder::new(config())
            .device(Device::test_small())
            .endpoint("127.0.0.1:1")
            .build();
    }

    #[test]
    #[should_panic(expected = "at least one remote worker endpoint")]
    fn build_distributed_wants_endpoints() {
        let _ = ServiceBuilder::new(config()).build_distributed();
    }

    #[test]
    #[should_panic(expected = "remote workers report their own")]
    fn build_distributed_refuses_a_worker_count() {
        let _ = ServiceBuilder::new(config())
            .endpoint("127.0.0.1:1")
            .workers(2)
            .build_distributed();
    }

    #[test]
    #[should_panic(expected = "always balances cost")]
    fn build_distributed_refuses_round_robin() {
        let _ = ServiceBuilder::new(config())
            .endpoint("127.0.0.1:1")
            .dispatch(DispatchMode::RoundRobin)
            .build_distributed();
    }

    #[test]
    fn cache_reaches_every_lane() {
        let cache = Arc::new(ResultCache::new(1 << 20));
        let service = ServiceBuilder::new(config())
            .device(Device::test_small())
            .cache(Arc::clone(&cache))
            .build();
        assert!(service
            .result_cache()
            .is_some_and(|c| Arc::ptr_eq(c, &cache)));
        service.shutdown();
    }
}
