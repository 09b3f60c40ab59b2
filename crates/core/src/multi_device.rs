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
//! devices from **one** submission queue.  Each incoming job is weighed by
//! the pool's shared measured [`CostModel`] (falling back to the static
//! [`estimated_cost`] while the model is cold) and dispatched to the device
//! with the least estimated outstanding cost
//! ([`DispatchMode::CostBalanced`]), so a skewed job mix cannot pile its
//! heavy jobs onto one device the way round-robin sharding does.  All lanes
//! share one model, so what one device learns about a job family prices that
//! family everywhere.  [`DispatchMode::RoundRobin`] remains available as the
//! deterministic fallback: under it the device a job lands on is a pure
//! function of its submission index, which is the mode the reproducibility
//! tests pin.  Per-job *results* are bit-identical either way whenever the
//! devices are configured identically — every job runs against an isolated
//! full-capacity memory view, so only wall-clock (and, for heterogeneous
//! pools, memory-pressure behaviour) depends on placement.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use pagani_quadrature::{Integrand, IntegrationResult, Region, Termination, Tolerances};

use crate::batch::BatchJob;
use crate::builder::ServiceBuilder;
use crate::config::PaganiConfig;
pub use crate::cost::{estimated_cost, estimated_job_cost};
use crate::cost::{estimated_job_footprint_bytes, job_tolerances, slab_weights, CostModel};
use crate::driver::{Pagani, PaganiOutput};
use crate::integrator::ensure_matching_dims;
use crate::service::{
    panic_message, CompletionHook, IntegrationService, JobHandle, JobOutcome, JobState, QueueFull,
    Rejected, ServiceMetrics,
};
use crate::trace::ExecutionTrace;
use pagani_device::Device;
use pagani_persist::ResultCache;

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How a multi-device dispatcher assigns jobs to devices.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DispatchMode {
    /// Weigh each job with [`estimated_cost`] and send it to the device with
    /// the least estimated outstanding cost (ties break to the lowest device
    /// index).  Balances skewed job mixes; placement depends on completion
    /// timing, so which device serves a job is not reproducible run-to-run.
    #[default]
    CostBalanced,
    /// Job `i` goes to device `i mod n` — placement is a pure function of the
    /// submission index, reproducible run-to-run.  The deterministic fallback
    /// the pinning tests rely on.
    RoundRobin,
}

/// One device's lane in a [`MultiDeviceService`]: its service and the
/// estimated cost of jobs dispatched to it that have not completed yet.
#[derive(Debug)]
struct Lane {
    service: IntegrationService,
    outstanding: Arc<Mutex<f64>>,
}

impl Lane {
    /// Charge `cost` to the lane's ledger and return the completion hook
    /// that retires exactly that charge.
    fn charge(&self, cost: f64) -> CompletionHook {
        *lock(&self.outstanding) += cost;
        let outstanding = Arc::clone(&self.outstanding);
        Box::new(move |_| *lock(&outstanding) -= cost)
    }

    /// The lane's queue bound when its queue is at that bound, else `None`.
    fn full_at(&self) -> Option<usize> {
        let bound = self.service.policy().queue_bound?;
        (self.service.queued_jobs() >= bound).then_some(bound)
    }
}

/// One submission queue feeding N devices.
///
/// Mirrors [`IntegrationService`] at the device-pool level: `submit` weighs
/// the job with [`estimated_job_cost`] and dispatches it to a device
/// according to the [`DispatchMode`]; every per-device lane is a full
/// [`IntegrationService`], so per-job method overrides, priorities, deadlines
/// and cancellation all work unchanged.  Build one with
/// [`ServiceBuilder::build_multi`].
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
    lanes: Vec<Lane>,
    mode: DispatchMode,
    round_robin_next: AtomicUsize,
    default_tolerances: Tolerances,
    /// One measured cost model shared by every lane: a wall time observed on
    /// any device prices that job family on all of them.
    model: Arc<CostModel>,
    /// The pool-wide result cache, when one was supplied — shared by every
    /// lane so any device's work serves the whole pool.
    cache: Option<Arc<ResultCache>>,
}

impl MultiDeviceService {
    /// The construction path, fed by [`ServiceBuilder::build_multi`].
    pub(crate) fn from_builder(builder: ServiceBuilder) -> Self {
        let ServiceBuilder {
            config,
            devices,
            policy,
            dispatch: mode,
            cache,
            model,
            ..
        } = builder;
        assert!(!devices.is_empty(), "at least one device is required");
        let default_tolerances = config.tolerances;
        let model = model.unwrap_or_else(|| Arc::new(CostModel::new()));
        let lanes = devices
            .into_iter()
            .map(|device| Lane {
                service: IntegrationService::with_policy_and_model(
                    device,
                    config.clone(),
                    policy,
                    Arc::clone(&model),
                    cache.clone(),
                ),
                outstanding: Arc::new(Mutex::new(0.0)),
            })
            .collect();
        Self {
            lanes,
            mode,
            round_robin_next: AtomicUsize::new(0),
            default_tolerances,
            model,
            cache,
        }
    }

    /// Number of devices in the pool.
    #[must_use]
    pub fn device_count(&self) -> usize {
        self.lanes.len()
    }

    /// The dispatch mode in force.
    #[must_use]
    pub fn mode(&self) -> DispatchMode {
        self.mode
    }

    /// Estimated outstanding cost per device — dispatched minus completed —
    /// in device order.  Introspection for tests and load dashboards.
    #[must_use]
    pub fn outstanding_costs(&self) -> Vec<f64> {
        self.lanes
            .iter()
            .map(|lane| *lock(&lane.outstanding))
            .collect()
    }

    /// A per-lane [`ServiceMetrics`] snapshot, in device order.  One entry
    /// per device; sum counters across entries for pool-level totals.
    #[must_use]
    pub fn metrics(&self) -> Vec<ServiceMetrics> {
        self.lanes
            .iter()
            .map(|lane| lane.service.metrics())
            .collect()
    }

    /// The measured [`CostModel`] shared by every lane.  Seed it with
    /// [`CostModel::record`] for deterministic admission in tests, or inspect
    /// it to watch the pool's learning converge.
    #[must_use]
    pub fn cost_model(&self) -> &Arc<CostModel> {
        &self.model
    }

    /// The pool-wide [`ResultCache`], when the service was built with
    /// [`ServiceBuilder::cache`].
    #[must_use]
    pub fn result_cache(&self) -> Option<&Arc<ResultCache>> {
        self.cache.as_ref()
    }

    /// Pick the lane the next submission goes to; advances the round-robin
    /// rotation when that mode is in force.
    fn select_lane(&self) -> usize {
        match self.mode {
            DispatchMode::RoundRobin => {
                self.round_robin_next.fetch_add(1, AtomicOrdering::Relaxed) % self.lanes.len()
            }
            DispatchMode::CostBalanced => {
                let costs = self.outstanding_costs();
                let has_space = |i: usize| self.lanes[i].full_at().is_none();
                let least_loaded = |candidates: &mut dyn Iterator<Item = usize>| {
                    candidates.min_by(|&a, &b| {
                        costs[a]
                            .partial_cmp(&costs[b])
                            .unwrap_or(std::cmp::Ordering::Equal)
                    })
                };
                least_loaded(&mut (0..self.lanes.len()).filter(|&i| has_space(i)))
                    .or_else(|| least_loaded(&mut (0..self.lanes.len())))
                    .expect("the lane list is never empty")
            }
        }
    }

    /// Dispatch `job` to a device and return its handle.
    ///
    /// `CostBalanced` picks the device with the least estimated outstanding
    /// cost at this instant; under a bounded per-lane [`crate::ServicePolicy`],
    /// lanes whose queue is at its bound are skipped (best-effort — the
    /// occupancy snapshot can race a concurrent submitter) so a full cheap
    /// lane cannot block the call while another lane has room; only when
    /// *every* lane is full does the call block waiting for space on the
    /// least-loaded one.  `RoundRobin` rotates unconditionally — placement
    /// stays a pure function of the submission index, so a full lane blocks
    /// rather than breaking determinism.  The job's weight under the shared
    /// [`CostModel`] is charged to the chosen lane and retired when the job
    /// completes.
    ///
    /// **Oversized jobs slab-split.**  A job whose
    /// [`estimated_job_footprint_bytes`] exceeds the smallest lane's memory
    /// capacity cannot converge on any single device; instead of letting it
    /// exhaust memory, the service cuts its region into
    /// [`MultiDevicePagani::partition`] slabs (one child job per slab, each
    /// inheriting the parent's priority and deadline), dispatches the
    /// children through the ordinary cost-balanced lanes with
    /// [`slab_weights`] charges, and recombines them **bit-deterministically**:
    /// children are summed in fixed slab order with exactly the
    /// [`MultiDevicePagani::integrate_region`] fold, so the parent handle's
    /// result is a pure function of the slab results.  Cancelling the parent
    /// handle cancels every child.
    #[must_use]
    pub fn submit(&self, job: BatchJob) -> JobHandle {
        if let Some(parts) = self.slab_parts(&job) {
            return self.submit_slabbed(&job, parts);
        }
        let cost = self.model.weigh_job(&job, self.default_tolerances);
        self.submit_weighted(self.select_lane(), job, cost)
    }

    /// [`MultiDeviceService::submit`] with refuse-instead-of-wait semantics:
    /// the chosen lane's [`IntegrationService::try_submit`] admission checks
    /// (queue bound, deadline feasibility) run, and a refusal hands the job
    /// back as [`Rejected`] without charging the lane.
    ///
    /// Under `RoundRobin` a rejected submission still consumes its rotation
    /// slot — placement stays a pure function of the submission *attempt*
    /// index, so a retried job probes the next lane instead of hammering the
    /// same full one.
    ///
    /// # Errors
    /// Whatever the chosen lane's [`IntegrationService::try_submit`] returns:
    /// [`Rejected::QueueFull`] at the lane's bound,
    /// [`Rejected::DeadlineInfeasible`] when the shared model predicts the
    /// deadline cannot be met on that lane.
    pub fn try_submit(&self, job: BatchJob) -> Result<JobHandle, Rejected> {
        if let Some(parts) = self.slab_parts(&job) {
            // Slab children bypass per-child admission (they exist precisely
            // because the whole job is infeasible on one device), so refuse
            // up front only on capacity: when every lane's queue is at its
            // bound there is nowhere to put even the first child.  Deadline
            // admission is deliberately optimistic here — the model prices
            // whole jobs, not slabs, and a refusal based on the unsplit
            // footprint would reject exactly the jobs splitting rescues.
            let full_bounds: Option<Vec<usize>> = self.lanes.iter().map(Lane::full_at).collect();
            if let Some(bound) = full_bounds.and_then(|bounds| bounds.into_iter().min()) {
                return Err(Rejected::QueueFull(Box::new(QueueFull { bound, job })));
            }
            return Ok(self.submit_slabbed(&job, parts));
        }
        let lane = &self.lanes[self.select_lane()];
        let cost = self.model.weigh_job(&job, self.default_tolerances);
        let result = lane
            .service
            .try_submit_with_hook(job, Some(lane.charge(cost)));
        if result.is_err() {
            // The lane never accepted the job, so its completion hook will
            // never run: revert the charge at exactly the charged value.
            *lock(&lane.outstanding) -= cost;
        }
        result
    }

    /// Dispatch `job` to `lane_index` with an explicit charge — the job's
    /// own model weight, or a slab child's [`slab_weights`] share of its
    /// parent's — retired when the job completes.
    fn submit_weighted(&self, lane_index: usize, job: BatchJob, cost: f64) -> JobHandle {
        let lane = &self.lanes[lane_index];
        lane.service.submit_with_hook(job, Some(lane.charge(cost)))
    }

    /// The [`slab_count`] of `job` against the smallest lane's memory.
    fn slab_parts(&self, job: &BatchJob) -> Option<usize> {
        let budget = self
            .lanes
            .iter()
            .map(|lane| lane.service.device().config().memory_capacity)
            .min()
            .expect("the lane list is never empty");
        slab_count(job, self.default_tolerances, budget as f64)
    }

    /// Slab-split an oversized job, each child dispatched through the
    /// ordinary lanes with its share of the parent's charge.
    fn submit_slabbed(&self, job: &BatchJob, parts: usize) -> JobHandle {
        submit_slabbed(
            job,
            parts,
            &self.model,
            self.default_tolerances,
            |child, weight| self.submit_weighted(self.select_lane(), child, weight),
        )
    }

    /// Graceful shutdown: every lane drains its submitted jobs and joins its
    /// workers.  Handles issued before the call remain valid.
    pub fn shutdown(self) {
        for lane in self.lanes {
            lane.service.shutdown();
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
    ///
    /// # Panics
    /// Panics if the region and integrand dimensions differ.
    pub fn integrate_region<F: Integrand + Sync + ?Sized>(
        &self,
        f: &F,
        region: &Region,
    ) -> MultiDeviceOutput {
        ensure_matching_dims(f, region);
        let start = Instant::now();
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
            result: combine_results(
                per_device.iter().map(|o| &o.result),
                self.config.tolerances,
                start.elapsed(),
            ),
            per_device,
        }
    }
}

/// The slab-composition fold shared by [`MultiDevicePagani::integrate_region`]
/// and the slab-splitting service path: sum estimates, errors and counters
/// over the slab results **in slab order** (the fold order is part of the
/// bit-determinism contract — f64 addition does not commute in the last ulp).
///
/// The combined run converged if every slab did, or if the summed errors
/// happen to satisfy the tolerance anyway.
fn combine_results<'a>(
    results: impl Iterator<Item = &'a IntegrationResult>,
    tolerances: Tolerances,
    wall_time: Duration,
) -> IntegrationResult {
    let mut estimate = 0.0;
    let mut error = 0.0;
    let mut function_evaluations = 0;
    let mut regions_generated = 0;
    let mut iterations = 0;
    let mut active_final = 0;
    let mut worst_termination = Termination::Converged;
    for result in results {
        estimate += result.estimate;
        error += result.error_estimate;
        function_evaluations += result.function_evaluations;
        regions_generated += result.regions_generated;
        iterations = iterations.max(result.iterations);
        active_final += result.active_regions_final;
        if !result.converged() {
            worst_termination = result.termination;
        }
    }
    let termination = if worst_termination == Termination::Converged
        || tolerances.satisfied_by(estimate, error)
    {
        Termination::Converged
    } else {
        worst_termination
    };
    IntegrationResult {
        estimate,
        error_estimate: error,
        termination,
        iterations,
        function_evaluations,
        regions_generated,
        active_regions_final: active_final,
        wall_time,
    }
}

/// Recombine slab-child outputs into the parent's output: the
/// [`combine_results`] fold in slab order, wall time the slowest child's
/// (children run concurrently; the combiner reads no clock of its own, so
/// results stay a pure function of the slab outputs).  The parent's trace is
/// empty — per-slab traces describe per-device runs and do not compose.
pub(crate) fn combine_slab_outputs(
    outputs: &[PaganiOutput],
    tolerances: Tolerances,
) -> PaganiOutput {
    let wall_time = outputs
        .iter()
        .map(|o| o.result.wall_time)
        .max()
        .unwrap_or_default();
    PaganiOutput {
        result: combine_results(outputs.iter().map(|o| &o.result), tolerances, wall_time),
        trace: ExecutionTrace::default(),
    }
}

/// How many slabs `job` must be cut into to fit in `budget` bytes of device
/// memory, or `None` when its [`estimated_job_footprint_bytes`] fits whole
/// (the overwhelmingly common case) or it carries a per-job method override
/// (baseline methods have no slab-composition story).
pub(crate) fn slab_count(
    job: &BatchJob,
    default_tolerances: Tolerances,
    budget: f64,
) -> Option<usize> {
    if job.method().is_some() {
        return None;
    }
    let footprint = estimated_job_footprint_bytes(job, default_tolerances);
    if footprint <= budget {
        return None;
    }
    Some(((footprint / budget).ceil() as usize).clamp(2, 64))
}

/// The slab path of every service front door: cut `job` into `parts`
/// [`MultiDevicePagani::partition`] slabs and hand each child (inheriting
/// the parent's priority and deadline) to `dispatch` together with its
/// [`slab_weights`] share of the parent's `model` weight, so the children's
/// charges sum to exactly what the whole job would have charged.  The
/// returned parent handle is served by a combiner thread that waits for the
/// children **in slab order** and publishes the [`combine_slab_outputs`]
/// fold; cancelling it cancels every child.
pub(crate) fn submit_slabbed(
    job: &BatchJob,
    parts: usize,
    model: &CostModel,
    default_tolerances: Tolerances,
    mut dispatch: impl FnMut(BatchJob, f64) -> JobHandle,
) -> JobHandle {
    let slabs = MultiDevicePagani::partition(job.region(), parts);
    let weights = slab_weights(model.weigh_job(job, default_tolerances), &slabs);
    let children: Vec<JobHandle> = slabs
        .into_iter()
        .zip(weights)
        .map(|(slab, weight)| dispatch(job.clone().over(slab), weight))
        .collect();
    let tolerances = job_tolerances(job, default_tolerances);
    let parent = Arc::new(JobState::new());
    let state = Arc::clone(&parent);
    let waited = children.clone();
    std::thread::Builder::new()
        .name("pagani-slab-combiner".into())
        .spawn(move || {
            let mut outputs = Vec::with_capacity(waited.len());
            for child in &waited {
                match std::panic::catch_unwind(AssertUnwindSafe(|| child.wait())) {
                    Ok(output) => outputs.push(output),
                    Err(payload) => {
                        state.complete(JobOutcome::Panicked(panic_message(payload.as_ref())));
                        return;
                    }
                }
            }
            state.complete(JobOutcome::Finished(combine_slab_outputs(
                &outputs, tolerances,
            )));
        })
        .expect("spawning the slab-combiner thread");
    JobHandle::detached(
        parent,
        Some(Arc::new(move || {
            for child in &children {
                child.cancel();
            }
        })),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let job_default = estimated_job_cost(&loose, Tolerances::rel(1e-3));
        let job_tight_default = estimated_job_cost(&loose, Tolerances::rel(1e-8));
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
        let heavy = service.cost_model().weigh_job(&held(4), config.tolerances);
        let light = service.cost_model().weigh_job(&held(2), config.tolerances);
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
