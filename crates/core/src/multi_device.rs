//! Multi-device execution (§4.4, the paper's future-work extension) and the
//! multi-device scheduling service.
//!
//! The single-device PAGANI is ultimately limited by device memory.  The paper
//! proposes extending the memory pool by partitioning the integration space across
//! several GPUs, each running PAGANI independently on its slab, with redistribution
//! kept to the start of the run (per-iteration redistribution over MPI is dismissed as
//! infeasible).  [`MultiDevicePagani`] implements exactly that static scheme: the root
//! region is cut into one slab per device along its longest axes, every device
//! integrates its slab to the full tolerance concurrently, and the per-device results
//! are summed.  For single-sign integrands the per-slab relative tolerances compose
//! into the global tolerance by the same argument as Lemma 3.1.
//!
//! Independent-job traffic is the other axis: [`MultiDeviceService`] feeds N
//! devices from **one** submission front door.  Each incoming job is priced
//! by the pool's shared measured [`CostModel`] (falling back to the static
//! [`estimated_cost`] while the model is cold) and placed on the device
//! with the least charge per worker ([`DispatchMode::CostBalanced`]), so a
//! skewed job mix cannot pile its heavy jobs onto one device the way
//! round-robin sharding does.  All lanes share one model, so what one device
//! learns about a job family prices that family everywhere.
//! [`DispatchMode::RoundRobin`] remains available as the
//! deterministic fallback: under it the device a job lands on is a pure
//! function of its submission index, which is the mode the reproducibility
//! tests pin.  Per-job *results* are bit-identical either way whenever the
//! devices are configured identically — every job runs against an isolated
//! full-capacity memory view, so only wall-clock (and, for heterogeneous
//! pools, memory-pressure behaviour) depends on placement.

use std::sync::Arc;
use std::time::Duration;

use pagani_quadrature::{Integrand, IntegrationResult, Region, Termination, Tolerances};

use crate::batch::BatchJob;
use crate::builder::ServiceBuilder;
use crate::config::PaganiConfig;
pub use crate::cost::estimated_cost;
use crate::cost::CostModel;
#[cfg(doc)]
use crate::cost::{estimated_job_footprint_bytes, slab_weights};
use crate::driver::{Pagani, PaganiOutput};
use crate::integrator::{ensure_matching_dims, worst_termination};
use crate::scheduler::{Lane, Scheduler};
use crate::service::{JobHandle, LocalLane, Rejected, ServiceMetrics};
use crate::trace::ExecutionTrace;
use pagani_device::Device;
use pagani_persist::ResultCache;

/// How a multi-device dispatcher assigns jobs to devices.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DispatchMode {
    /// Price each job with the cost model ([`estimated_cost`] while it is
    /// cold) and send it to the device with the least charge per worker
    /// (ties break to the lowest device index).  Balances skewed job mixes;
    /// placement depends on completion timing, so which device serves a job
    /// is not reproducible run-to-run.
    #[default]
    CostBalanced,
    /// Job `i` goes to device `i mod n` — placement is a pure function of the
    /// submission index, reproducible run-to-run.  The deterministic fallback
    /// the pinning tests rely on.  (On devices of unequal memory the rotation
    /// runs over the devices that hold the job whole.)
    RoundRobin,
}

/// One submission front door feeding N devices.
///
/// Mirrors [`crate::IntegrationService`] at the device-pool level: one local lane
/// per device — its own priority queue and resident workers — under one
/// scheduler that places each job according to the [`DispatchMode`], so
/// per-job method overrides, priorities, deadlines and cancellation all work
/// unchanged.  Build one with [`ServiceBuilder::build_multi`].
///
/// ```
/// use pagani_core::{BatchJob, JobHandle, PaganiConfig, ServiceBuilder};
/// use pagani_device::Device;
/// use pagani_quadrature::{FnIntegrand, Tolerances};
///
/// let service = ServiceBuilder::new(PaganiConfig::test_small(Tolerances::rel(1e-5)))
///     .devices([Device::test_small(), Device::test_small()])
///     .build_multi();
/// let handles: Vec<JobHandle> = [
///     BatchJob::new(FnIntegrand::new(2, |x: &[f64]| x[0] + x[1])),
///     BatchJob::new(FnIntegrand::new(3, |x: &[f64]| x[0] * x[1] * x[2])),
/// ]
/// .into_iter()
/// .map(|job| service.submit(job))
/// .collect();
/// assert!(handles.iter().all(|h| h.wait().result.converged()));
/// service.shutdown();
/// ```
#[derive(Debug)]
pub struct MultiDeviceService {
    sched: Scheduler<LocalLane>,
}

impl MultiDeviceService {
    /// The construction path, fed by [`ServiceBuilder::build_multi`].
    pub(crate) fn from_builder(builder: ServiceBuilder) -> Self {
        assert!(
            !builder.devices.is_empty(),
            "at least one device is required"
        );
        Self {
            sched: Scheduler::local(builder, true),
        }
    }

    /// Number of devices in the pool.
    #[must_use]
    pub fn device_count(&self) -> usize {
        self.sched.lanes.len()
    }

    /// The dispatch mode in force.
    #[must_use]
    pub fn mode(&self) -> DispatchMode {
        self.sched.mode
    }

    /// Each device's ledger — the charge of its queued and running jobs —
    /// in device order.  Introspection for tests and load dashboards.
    #[must_use]
    pub fn outstanding_costs(&self) -> Vec<f64> {
        self.sched
            .lanes
            .iter()
            .map(|lane| lane.book().charged())
            .collect()
    }

    /// A per-lane [`ServiceMetrics`] snapshot, in device order.  One entry
    /// per device; sum counters across entries for pool-level totals.
    #[must_use]
    pub fn metrics(&self) -> Vec<ServiceMetrics> {
        (0..self.sched.lanes.len())
            .map(|lane| self.sched.metrics(lane))
            .collect()
    }

    /// The measured [`CostModel`] shared by every lane.  Seed it with
    /// [`CostModel::record`] for deterministic admission in tests, or inspect
    /// it to watch the pool's learning converge.
    #[must_use]
    pub fn cost_model(&self) -> &Arc<CostModel> {
        &self.sched.core.model
    }

    /// The pool-wide [`ResultCache`], when the service was built with
    /// [`ServiceBuilder::cache`].
    #[must_use]
    pub fn result_cache(&self) -> Option<&Arc<ResultCache>> {
        self.sched.core.cache.as_ref()
    }

    /// Place `job` on a device and return its handle.
    ///
    /// A job goes to a device whose memory holds its
    /// [`estimated_job_footprint_bytes`] whole when one does.  There,
    /// `CostBalanced` picks the device with the least charge per worker at
    /// this instant; under a per-lane [`ServiceBuilder::queue_bound`],
    /// lanes whose queue is at its bound are skipped (best-effort — the
    /// occupancy snapshot can race a concurrent submitter) so a full cheap
    /// lane cannot block the call while another lane has room; only when
    /// *every* lane is full does the call block waiting for space on the
    /// least-loaded one.  `RoundRobin` rotates unconditionally — placement
    /// stays a pure function of the submission index, so a full lane blocks
    /// rather than breaking determinism.  The job's price under the shared
    /// [`CostModel`] is charged to the chosen lane's ledger and retired when
    /// the job completes.
    ///
    /// A job the shared [`ResultCache`] answers exactly is served on the
    /// calling thread instead, and counted on the lane placement would
    /// pick: it charges no ledger, never queues, and takes no `RoundRobin`
    /// turn (the submission index counts only jobs that reach a lane).
    ///
    /// **Oversized jobs slab-split.**  A job no device can hold whole cannot
    /// converge on any single device; instead of letting it exhaust memory,
    /// the service cuts its region into [`MultiDevicePagani::partition`]
    /// slabs sized for the smallest device (one child job per slab, each
    /// inheriting the parent's priority and deadline), places the children
    /// like any other job with [`slab_weights`] charges, and recombines them
    /// **bit-deterministically**: children are summed in fixed slab order
    /// with exactly the [`MultiDevicePagani::integrate_region`] fold, so the
    /// parent handle's result is a pure function of the slab results.
    /// Cancelling the parent handle cancels every child.
    #[must_use]
    pub fn submit(&self, job: BatchJob) -> JobHandle {
        self.sched.submit(job, None)
    }

    /// [`MultiDeviceService::submit`] with refuse-instead-of-wait semantics:
    /// the chosen lane's admission checks (queue bound, deadline
    /// feasibility against that lane's backlog) run, and a refusal hands the
    /// job back as [`Rejected`] without charging the lane.  An oversized job
    /// is refused only when every lane's queue is at its bound: its slabs
    /// skip deadline admission, since the model prices whole jobs, and are
    /// filed past the bound rather than waiting for space.
    ///
    /// Under `RoundRobin` a rejected submission still consumes its rotation
    /// slot — placement stays a pure function of the submission *attempt*
    /// index, so a retried job probes the next lane instead of hammering the
    /// same full one.
    ///
    /// # Errors
    /// [`Rejected::QueueFull`] at the chosen lane's bound,
    /// [`Rejected::DeadlineInfeasible`] when the shared model predicts the
    /// deadline cannot be met on that lane.
    pub fn try_submit(&self, job: BatchJob) -> Result<JobHandle, Rejected> {
        self.sched.try_submit(job)
    }

    /// Graceful shutdown: every lane drains its submitted jobs and joins its
    /// workers.  Handles issued before the call remain valid.
    pub fn shutdown(self) {
        for lane in self.sched.lanes.iter() {
            lane.shutdown();
        }
    }
}

/// PAGANI running over a static partition of the domain across several devices.
#[derive(Debug, Clone)]
pub struct MultiDevicePagani {
    devices: Vec<Device>,
    config: PaganiConfig,
}

/// Result of a multi-device run: the combined result plus each device's output.
#[derive(Debug, Clone)]
pub struct MultiDeviceOutput {
    /// Combined estimate across all slabs.
    pub result: IntegrationResult,
    /// Per-device outputs, in slab order.
    pub per_device: Vec<PaganiOutput>,
}

impl MultiDevicePagani {
    /// Create a multi-device integrator.
    ///
    /// # Panics
    /// Panics if `devices` is empty.
    #[must_use]
    pub fn new(devices: Vec<Device>, config: PaganiConfig) -> Self {
        assert!(!devices.is_empty(), "at least one device is required");
        Self { devices, config }
    }

    /// Number of devices in the pool.
    #[must_use]
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Cut `root` into one slab per device by repeatedly halving the widest axis.
    #[must_use]
    pub fn partition(root: &Region, parts: usize) -> Vec<Region> {
        let mut slabs = vec![root.clone()];
        while slabs.len() < parts {
            // Split the slab with the largest volume along its widest axis.
            let (idx, _) = slabs
                .iter()
                .enumerate()
                .max_by(|(_, a), (_, b)| {
                    a.volume()
                        .partial_cmp(&b.volume())
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .expect("slab list is never empty");
            let slab = slabs.swap_remove(idx);
            let widest = (0..slab.dim())
                .max_by(|&a, &b| {
                    slab.extent(a)
                        .partial_cmp(&slab.extent(b))
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .expect("regions have at least one axis");
            let (lo, hi) = slab.split(widest);
            slabs.push(lo);
            slabs.push(hi);
        }
        slabs
    }

    /// Integrate `f` over its default bounds.
    pub fn integrate<F: Integrand + Sync + ?Sized>(&self, f: &F) -> MultiDeviceOutput {
        let (lo, hi) = f.default_bounds();
        self.integrate_region(f, &Region::new(lo, hi))
    }

    /// Integrate `f` over an explicit region, one slab per device, concurrently.
    /// The slab results fold as a slab-split service job's do, so the
    /// combined wall time is the slowest slab's.
    ///
    /// # Panics
    /// Panics if the region and integrand dimensions differ.
    pub fn integrate_region<F: Integrand + Sync + ?Sized>(
        &self,
        f: &F,
        region: &Region,
    ) -> MultiDeviceOutput {
        ensure_matching_dims(f, region);
        let slabs = Self::partition(region, self.devices.len());

        let per_device: Vec<PaganiOutput> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .devices
                .iter()
                .zip(&slabs)
                .map(|(device, slab)| {
                    let pagani = Pagani::new(device.clone(), self.config.clone());
                    scope.spawn(move || pagani.integrate_region(f, slab))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("device worker panicked"))
                .collect()
        });

        MultiDeviceOutput {
            result: combine_slab_outputs(&per_device, self.config.tolerances).result,
            per_device,
        }
    }
}

/// The §4.4 slab fold, shared by [`MultiDevicePagani::integrate_region`] and
/// the slab-splitting service path: sum estimates, errors and counters over
/// the slab outputs **in slab order** (the fold order is part of the
/// bit-determinism contract — f64 addition does not commute in the last
/// ulp).  `iterations` is the maximum over the slabs.
///
/// The combined run converged if every slab did, or if the summed errors
/// happen to satisfy the tolerance anyway; otherwise it reports the most
/// severe slab termination ([`worst_termination`]).  Its wall time is the
/// slowest slab's (slabs run concurrently; the fold reads no clock of its
/// own, so results stay a pure function of the slab outputs).  The combined
/// trace is empty — per-slab traces describe per-device runs and do not
/// compose.
pub(crate) fn combine_slab_outputs(
    outputs: &[PaganiOutput],
    tolerances: Tolerances,
) -> PaganiOutput {
    let mut combined = IntegrationResult {
        estimate: 0.0,
        error_estimate: 0.0,
        termination: Termination::Converged,
        iterations: 0,
        function_evaluations: 0,
        regions_generated: 0,
        active_regions_final: 0,
        wall_time: Duration::ZERO,
    };
    for part in outputs.iter().map(|o| &o.result) {
        combined.estimate += part.estimate;
        combined.error_estimate += part.error_estimate;
        combined.iterations = combined.iterations.max(part.iterations);
        combined.function_evaluations += part.function_evaluations;
        combined.regions_generated += part.regions_generated;
        combined.active_regions_final += part.active_regions_final;
        combined.termination = worst_termination(combined.termination, part.termination);
        combined.wall_time = combined.wall_time.max(part.wall_time);
    }
    if tolerances.satisfied_by(combined.estimate, combined.error_estimate) {
        combined.termination = Termination::Converged;
    }
    PaganiOutput {
        result: combined,
        trace: ExecutionTrace::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostKey;
    use pagani_device::{Device, DeviceConfig};
    use pagani_integrands::paper::PaperIntegrand;
    use pagani_quadrature::Tolerances;
    use proptest::prelude::*;

    fn devices(n: usize) -> Vec<Device> {
        (0..n)
            .map(|_| Device::new(DeviceConfig::test_small().with_memory_capacity(16 << 20)))
            .collect()
    }

    #[test]
    fn partition_covers_the_domain() {
        let root = Region::unit_cube(3);
        for parts in [1, 2, 3, 4, 7] {
            let slabs = MultiDevicePagani::partition(&root, parts);
            assert_eq!(slabs.len(), parts.max(1));
            let total: f64 = slabs.iter().map(Region::volume).sum();
            assert!((total - 1.0).abs() < 1e-12, "parts = {parts}");
        }
    }

    #[test]
    fn partition_splits_the_widest_axis_first() {
        let root = Region::new(vec![0.0, 0.0], vec![4.0, 1.0]);
        let slabs = MultiDevicePagani::partition(&root, 2);
        // The 4-unit-wide axis 0 must have been cut, not axis 1.
        assert!(slabs.iter().all(|s| (s.extent(0) - 2.0).abs() < 1e-12));
        assert!(slabs.iter().all(|s| (s.extent(1) - 1.0).abs() < 1e-12));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `partition` is a disjoint exact cover that cuts the widest axis
        /// first, and `slab_weights` conserves the whole-job cost exactly.
        #[test]
        fn prop_partition_is_a_disjoint_exact_cover_with_conserved_weights(
            extents in proptest::collection::vec(0.5f64..4.0, 1..5),
            parts in 1usize..=12,
            cost_units in 1u64..1_000_000u64,
        ) {
            let dim = extents.len();
            let root = Region::new(vec![0.0; dim], extents.clone());
            let slabs = MultiDevicePagani::partition(&root, parts);
            prop_assert_eq!(slabs.len(), parts.max(1));

            // Exact cover, half one: volumes sum back to the root volume.
            let total: f64 = slabs.iter().map(Region::volume).sum();
            prop_assert!((total - root.volume()).abs() <= 1e-12 * root.volume());

            // Exact cover, half two + pairwise disjointness: every slab lies
            // inside the root, and each slab's centre is contained in
            // exactly one slab (itself) under the half-open convention.
            let contains = |s: &Region, p: &[f64]| {
                (0..dim).all(|a| s.lo()[a] <= p[a] && p[a] < s.hi()[a])
            };
            for slab in &slabs {
                for a in 0..dim {
                    prop_assert!(slab.lo()[a] >= root.lo()[a] && slab.hi()[a] <= root.hi()[a]);
                }
                let centre: Vec<f64> = (0..dim)
                    .map(|a| 0.5 * (slab.lo()[a] + slab.hi()[a]))
                    .collect();
                let owners = slabs.iter().filter(|s| contains(s, &centre)).count();
                prop_assert!(owners == 1, "slab centres must have a unique owner");
            }

            // Widest-axis-first: any actual split must have cut the root's
            // strictly widest axis, so no slab keeps its full extent.
            if parts >= 2 {
                let widest = (0..dim)
                    .max_by(|&a, &b| {
                        root.extent(a)
                            .partial_cmp(&root.extent(b))
                            .unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .expect("root has at least one axis");
                let strictly_widest = (0..dim)
                    .all(|a| a == widest || root.extent(a) < root.extent(widest) - 1e-9);
                if strictly_widest {
                    for slab in &slabs {
                        prop_assert!(
                            slab.extent(widest) < root.extent(widest) - 1e-12,
                            "the widest axis was never split"
                        );
                    }
                }
            }

            // Cost apportionment: integer weights, none negative, and their
            // sum is *bit-exactly* the whole-job cost.
            let total_cost = cost_units as f64;
            let weights = crate::cost::slab_weights(total_cost, &slabs);
            prop_assert_eq!(weights.len(), slabs.len());
            for &w in &weights {
                prop_assert!(w >= 0.0 && w.fract() == 0.0);
            }
            let sum: f64 = weights.iter().sum();
            prop_assert_eq!(sum.to_bits(), total_cost.to_bits());
        }
    }

    #[test]
    fn two_devices_match_the_single_device_answer() {
        let integrand = PaperIntegrand::f4(3);
        let config = PaganiConfig::test_small(Tolerances::rel(1e-5));
        let single = Pagani::new(devices(1).pop().unwrap(), config.clone()).integrate(&integrand);
        let multi = MultiDevicePagani::new(devices(2), config).integrate(&integrand);
        assert!(single.result.converged());
        assert!(multi.result.converged());
        let reference = integrand.reference_value();
        assert!(multi.result.true_relative_error(reference) < 1e-5);
        assert!(
            (multi.result.estimate - single.result.estimate).abs()
                <= single.result.error_estimate + multi.result.error_estimate
        );
        assert_eq!(multi.per_device.len(), 2);
    }

    #[test]
    fn four_devices_extend_the_usable_memory() {
        // Each tiny device alone cannot hold the region list needed at this precision;
        // four of them together can, because every slab is a quarter of the domain.
        let integrand = PaperIntegrand::f4(4);
        let tol = Tolerances::rel(1e-4);
        let tiny = || Device::new(DeviceConfig::test_small().with_memory_capacity(3 << 20));
        let single = Pagani::new(tiny(), PaganiConfig::test_small(tol)).integrate(&integrand);
        let multi = MultiDevicePagani::new(
            (0..4).map(|_| tiny()).collect(),
            PaganiConfig::test_small(tol),
        )
        .integrate(&integrand);
        // The multi-device run must never do worse than the single device.
        if single.result.converged() {
            assert!(multi.result.converged());
        }
        assert!(multi.result.estimate.is_finite());
        assert!(
            multi
                .result
                .true_relative_error(integrand.reference_value())
                <= single
                    .result
                    .true_relative_error(integrand.reference_value())
                    .max(1e-4)
        );
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn empty_device_pool_is_rejected() {
        let _ = MultiDevicePagani::new(Vec::new(), PaganiConfig::default());
    }

    #[test]
    fn estimated_cost_is_monotone_in_dim_and_digits() {
        // More dimensions cost more at a fixed tolerance…
        for dim in 2..8 {
            assert!(
                estimated_cost(dim + 1, Tolerances::rel(1e-4))
                    > estimated_cost(dim, Tolerances::rel(1e-4)),
                "dim {dim}"
            );
        }
        // …and tighter tolerances cost more at a fixed dimension.
        assert!(
            estimated_cost(4, Tolerances::rel(1e-6)) > estimated_cost(4, Tolerances::rel(1e-3))
        );
        assert!(estimated_cost(4, Tolerances::rel(1e-3)).is_finite());
        // The extremes stay finite (MC accepts any dimension): an infinite
        // charge would retire as `inf - inf = NaN` and poison least-loaded
        // dispatch forever, so the model must saturate instead.
        for dim in [30, 147, 1000, usize::MAX >> 32] {
            let cost = estimated_cost(dim, Tolerances::rel(1e-12));
            assert!(cost.is_finite(), "dim {dim} produced {cost}");
            assert!(cost - cost == 0.0, "dim {dim}: charge/retire must cancel");
        }
        // Mixed-magnitude charge/retire cycles cancel exactly: costs are
        // integer-valued and range-bounded, so the outstanding-cost ledger
        // cannot drift negative through f64 absorption (the failure mode
        // where `huge + tiny == huge` but the later `-= tiny` still lands).
        let huge = estimated_cost(1000, Tolerances::rel(1e-12));
        let tiny = estimated_cost(2, Tolerances::rel(1e-1));
        let mut ledger = 0.0f64;
        ledger += huge;
        ledger += tiny;
        ledger -= huge;
        ledger -= tiny;
        assert_eq!(ledger, 0.0, "ledger drifted: {ledger}");
    }

    #[test]
    fn job_cost_uses_the_method_override_tolerances() {
        let loose = BatchJob::new(PaperIntegrand::f4(4));
        let job_default = CostKey::for_job(&loose, Tolerances::rel(1e-3)).static_cost();
        let job_tight_default = CostKey::for_job(&loose, Tolerances::rel(1e-8)).static_cost();
        assert!(job_tight_default > job_default);
    }

    #[test]
    fn multi_device_service_batch_is_bit_identical_across_dispatch_modes() {
        let f4 = std::sync::Arc::new(PaperIntegrand::f4(3));
        let f3 = std::sync::Arc::new(PaperIntegrand::f3(4));
        let jobs: Vec<BatchJob> = (0..8)
            .map(|i| {
                if i % 2 == 0 {
                    BatchJob::shared(f4.clone())
                } else {
                    BatchJob::shared(f3.clone())
                }
            })
            .collect();
        let config = PaganiConfig::test_small(Tolerances::rel(1e-4));
        let mut per_mode = Vec::new();
        for mode in [DispatchMode::CostBalanced, DispatchMode::RoundRobin] {
            let service = ServiceBuilder::new(config.clone())
                .devices(devices(2))
                .dispatch(mode)
                .build_multi();
            assert_eq!(service.mode(), mode);
            let handles: Vec<JobHandle> =
                jobs.iter().map(|job| service.submit(job.clone())).collect();
            let bits: Vec<u64> = handles
                .iter()
                .map(|handle| handle.wait().result.estimate.to_bits())
                .collect();
            // All dispatched cost is retired once every handle has completed.
            assert!(service.outstanding_costs().iter().all(|&c| c.abs() < 1e-9));
            service.shutdown();
            per_mode.push(bits);
        }
        assert_eq!(
            per_mode[0], per_mode[1],
            "placement must never change a job's result on identical devices"
        );
    }

    #[test]
    fn streaming_submit_balances_outstanding_cost() {
        use std::sync::atomic::{AtomicBool, Ordering};
        // Two lanes, one heavy 4-D job then four light 2-D ones, all held in
        // flight by a closed gate so nothing completes in between.
        // Round-robin would stack two light jobs on the heavy job's lane;
        // cost-balanced streaming must send every light job to the other
        // lane, whose summed charge stays below the heavy one.
        let gate = Arc::new(AtomicBool::new(false));
        let held = |dim: usize| {
            let gate = Arc::clone(&gate);
            BatchJob::new(pagani_quadrature::FnIntegrand::new(
                dim,
                move |x: &[f64]| {
                    while !gate.load(Ordering::Acquire) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    x.iter().sum()
                },
            ))
        };
        let config = PaganiConfig::test_small(Tolerances::rel(1e-4));
        let service = ServiceBuilder::new(config.clone())
            .devices(devices(2))
            .build_multi();
        let heavy = CostKey::for_job(&held(4), config.tolerances).static_cost();
        let light = CostKey::for_job(&held(2), config.tolerances).static_cost();
        let handles: Vec<JobHandle> = std::iter::once(held(4))
            .chain((0..4).map(|_| held(2)))
            .map(|job| service.submit(job))
            .collect();
        let in_flight = service.outstanding_costs();
        gate.store(true, Ordering::Release);
        for handle in &handles {
            assert!(handle.wait().result.converged());
        }
        assert_eq!(in_flight, vec![heavy, 4.0 * light]);
        assert_eq!(service.outstanding_costs(), vec![0.0, 0.0]);
        service.shutdown();
    }

    #[test]
    fn slab_fold_reports_the_most_severe_termination() {
        let slab = |termination| IntegrationResult {
            estimate: 1.0,
            error_estimate: 1.0,
            termination,
            iterations: 1,
            function_evaluations: 1,
            regions_generated: 1,
            active_regions_final: 1,
            wall_time: Duration::ZERO,
        };
        let slabs = [
            slab(Termination::MemoryExhausted),
            slab(Termination::MaxIterations),
        ];
        for order in [[0, 1], [1, 0]] {
            let outputs: Vec<PaganiOutput> = order
                .iter()
                .map(|&i| PaganiOutput {
                    result: slabs[i].clone(),
                    trace: ExecutionTrace::default(),
                })
                .collect();
            let combined = combine_slab_outputs(&outputs, Tolerances::rel(1e-6)).result;
            assert_eq!(combined.termination, Termination::MemoryExhausted);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// §4.4 composition: on single-sign Genz integrands, integrating each
        /// slab to the full relative tolerance composes into the global
        /// tolerance (the Lemma 3.1 argument applied across devices) — for
        /// any device count and any integrand dimension.
        #[test]
        fn prop_slab_results_compose_to_the_global_tolerance(
            device_count in 1usize..5,
            dim in 2usize..4,
            family in 0usize..2,
        ) {
            let f = if family == 0 {
                PaperIntegrand::f4(dim)
            } else {
                PaperIntegrand::f3(dim)
            };
            let tol = 1e-3;
            let multi = MultiDevicePagani::new(
                devices(device_count),
                PaganiConfig::test_small(Tolerances::rel(tol)),
            )
            .integrate(&f);
            prop_assert!(multi.result.converged(), "{:?}", multi.result.termination);
            prop_assert_eq!(multi.per_device.len(), device_count);
            // The combined estimate is exactly the slab sum (same fold order).
            let slab_sum: f64 = multi.per_device.iter().map(|o| o.result.estimate).sum();
            prop_assert_eq!(slab_sum.to_bits(), multi.result.estimate.to_bits());
            // Every slab satisfied its own tolerance, and the composition
            // holds against the analytic reference.
            let true_err = multi.result.true_relative_error(f.reference_value());
            prop_assert!(true_err < tol, "true rel err {} vs {}", true_err, tol);
        }
    }
}
