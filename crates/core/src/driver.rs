//! The PAGANI driver: Algorithm 2 of the paper.
//!
//! Every public entry point ends up in one private `Run`: the per-run state
//! (the current generation, its parent integrals and the eight loop
//! scalars) and one function per phase of a breadth-first generation,
//! called in Algorithm 2 order.  Every place the loop can stop hands its
//! termination and resume point to one exit, `Run::finish`, which captures
//! the final snapshot, returns storage to the arena and builds the result.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pagani_device::{scan, Device, DeviceError, DeviceResult};
use pagani_persist::{Snapshot, SnapshotError, SNAPSHOT_FORMAT_VERSION};
use pagani_quadrature::two_level::refine_generation;
use pagani_quadrature::{GenzMalik, Integrand, IntegrationResult, Region, Termination};

use crate::arena::ScratchArena;
use crate::classify::{active_count, rel_err_classify_into};
use crate::config::{HeuristicFiltering, PaganiConfig};
use crate::evaluate::{evaluate_all, Evaluation};
use crate::integrator::{check_cancelled, ensure_matching_dims};
use crate::region_list::RegionList;
use crate::resume::{ResumableOutput, ResumeError};
use crate::threshold::threshold_classify;
use crate::trace::{ExecutionTrace, IterationRecord, ThresholdSearchRecord, ThresholdTrigger};

/// A cooperative cancellation flag shared between a running integration and
/// its canceller, optionally with a deadline.
///
/// The driver polls the token at every iteration boundary; once cancelled, the
/// run stops within one breadth-first iteration and reports
/// [`Termination::Cancelled`] together with the best cumulative estimate seen
/// so far.  Cloning shares the flag.  A service job's token also counts as
/// cancelled once the job's deadline ([`crate::BatchJob::with_deadline`])
/// has passed, wherever it is polled: when the job is claimed and at every
/// checkpoint.  A token that is never cancelled has no observable effect on
/// a run — results are bit-identical with and without one.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh token that also counts as cancelled once `deadline` — from
    /// now — has passed.  A deadline past the clock's range never fires.
    pub(crate) fn with_deadline(deadline: Option<Duration>) -> Self {
        Self {
            flag: Arc::default(),
            deadline: deadline.and_then(|deadline| Instant::now().checked_add(deadline)),
        }
    }

    /// Request cancellation.  Idempotent; takes effect at the next iteration
    /// boundary of any run holding a clone of this token.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested or the token's deadline has
    /// passed.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire) || self.expired()
    }

    /// Whether the token's deadline has passed.
    pub(crate) fn expired(&self) -> bool {
        self.deadline.is_some_and(|at| Instant::now() >= at)
    }
}

/// Result of a PAGANI run: the standard integration result plus the execution trace.
#[derive(Debug, Clone)]
pub struct PaganiOutput {
    /// Estimate, error estimate, termination status and counters.
    pub result: IntegrationResult,
    /// Per-iteration statistics and threshold-search probes.
    pub trace: ExecutionTrace,
}

/// What (if anything) to snapshot during a run.  `None` is the plain path:
/// no capture code runs at all, so non-resumable results stay bit-identical
/// to what they were before snapshots existed.
struct SnapshotPlan<'a> {
    /// Capture a checkpoint every this many generations (0 = only capture at
    /// exit points).
    checkpoint_every: usize,
    integrand_id: String,
    region: &'a Region,
}

/// The loop-carried scalars of a run: everything a [`Snapshot`] records
/// besides the region tree and the next iteration.  All `Copy`, so saving
/// them at the top of every generation is free of float arithmetic and heap
/// traffic.
#[derive(Clone, Copy)]
struct Scalars {
    /// Finished-region accumulators (v_f, e_f).
    finished_estimate: f64,
    finished_error: f64,
    /// Error frozen specifically by the heuristic threshold classification.
    /// It is capped at half of the allowed total error so that
    /// relative-error filtering (whose commitments are proportional to the
    /// frozen integral mass) always has headroom left and convergence is
    /// never ruled out by the heuristic alone.
    threshold_frozen_error: f64,
    function_evaluations: u64,
    regions_generated: u64,
    /// The previous generation's cumulative estimate (`None` before the
    /// first fold), for the estimate-converged trigger.
    previous_cumulative: Option<f64>,
    /// Best cumulative estimates seen so far (active + finished); this is
    /// what a non-converged run reports, matching the paper's "return the
    /// latest integral and error estimate with a flag" behaviour (§3.5.2).
    latest_estimate: f64,
    latest_error: f64,
}

impl Scalars {
    fn fresh(initial_regions: u64) -> Self {
        Scalars {
            finished_estimate: 0.0,
            finished_error: 0.0,
            threshold_frozen_error: 0.0,
            function_evaluations: 0,
            regions_generated: initial_regions,
            previous_cumulative: None,
            latest_estimate: 0.0,
            latest_error: f64::INFINITY,
        }
    }

    fn from_snapshot(snapshot: &Snapshot) -> Self {
        Scalars {
            finished_estimate: snapshot.finished_estimate,
            finished_error: snapshot.finished_error,
            threshold_frozen_error: snapshot.threshold_frozen_error,
            function_evaluations: snapshot.function_evaluations,
            regions_generated: snapshot.regions_generated,
            previous_cumulative: snapshot.previous_cumulative,
            latest_estimate: snapshot.latest_estimate,
            latest_error: snapshot.latest_error,
        }
    }
}

/// Where the loop stopped: the termination to report, and the resume point
/// the final snapshot records — generation `next_iteration` of the run's
/// current list and parents, entered with `scalars`.
#[derive(Clone, Copy)]
struct Stop {
    termination: Termination,
    next_iteration: usize,
    scalars: Scalars,
}

impl Stop {
    /// The same resume point, reporting `termination`.
    fn reporting(self, termination: Termination) -> Self {
        Stop {
            termination,
            ..self
        }
    }
}

/// The PAGANI integrator.
///
/// A `Pagani` instance owns a handle to the simulated device and a configuration and
/// can integrate any number of integrands; each [`Pagani::integrate`] call is
/// independent, matching the paper's timing methodology of excluding one-time device
/// setup from the measured interval.
#[derive(Debug, Clone)]
pub struct Pagani {
    device: Device,
    config: PaganiConfig,
}

impl Pagani {
    /// Create an integrator on `device` with `config`.
    #[must_use]
    pub fn new(device: Device, config: PaganiConfig) -> Self {
        Self { device, config }
    }

    /// Create an integrator on the paper's V100-like device.
    #[must_use]
    pub fn with_default_device(config: PaganiConfig) -> Self {
        Self::new(Device::v100_like(), config)
    }

    /// The device this integrator runs on.
    #[must_use]
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &PaganiConfig {
        &self.config
    }

    /// Integrate `f` over its default bounds (the unit cube for the paper's suite).
    pub fn integrate<F: Integrand + ?Sized>(&self, f: &F) -> PaganiOutput {
        let (lo, hi) = f.default_bounds();
        self.integrate_region(f, &Region::new(lo, hi))
    }

    /// Integrate `f` over an explicit region.
    ///
    /// # Panics
    /// Panics if the region dimension does not match the integrand dimension.
    pub fn integrate_region<F: Integrand + ?Sized>(&self, f: &F, region: &Region) -> PaganiOutput {
        self.integrate_region_with(f, region, &ScratchArena::default(), &CancelToken::new())
    }

    /// Integrate `f` over an explicit region with scratch storage from `arena`
    /// and cooperative cancellation through `cancel`.
    ///
    /// This is the full-control entry point the [`crate::service`] workers
    /// use.  The token is polled once per breadth-first iteration, so a
    /// cancellation lands within one driver iteration; the run then reports
    /// [`Termination::Cancelled`] with the latest cumulative estimates.
    /// Recycling scratch storage through `arena` is value-transparent, and an
    /// uncancelled token leaves results bit-identical to
    /// [`Pagani::integrate_region`], whatever the arena already holds.
    ///
    /// # Panics
    /// Panics if the region dimension does not match the integrand dimension.
    pub fn integrate_region_with<F: Integrand + ?Sized>(
        &self,
        f: &F,
        region: &Region,
        arena: &ScratchArena,
        cancel: &CancelToken,
    ) -> PaganiOutput {
        self.run_fresh(f, region, arena, cancel, None).output
    }

    /// Integrate `f` over an explicit region while capturing resumable
    /// [`Snapshot`]s of the region tree.
    ///
    /// `checkpoint_every > 0` captures a checkpoint every that many
    /// generations (state "about to run generation k"); `0` captures only at
    /// exit points.  Either way the returned
    /// [`final_snapshot`](ResumableOutput::final_snapshot) holds the tree at
    /// the end of the run whenever it is still resumable — after
    /// cancellation, memory or iteration exhaustion, and after convergence
    /// (so a tighter-tolerance request can warm-start from it).
    ///
    /// The result itself is bit-identical to
    /// [`Pagani::integrate_region_with`]: snapshot capture copies state but
    /// performs no float arithmetic.
    ///
    /// # Panics
    /// Panics if the region dimension does not match the integrand dimension.
    pub fn integrate_resumable<F: Integrand + ?Sized>(
        &self,
        f: &F,
        region: &Region,
        arena: &ScratchArena,
        cancel: &CancelToken,
        checkpoint_every: usize,
    ) -> ResumableOutput {
        let plan = SnapshotPlan {
            checkpoint_every,
            integrand_id: f.name(),
            region,
        };
        self.run_fresh(f, region, arena, cancel, Some(plan))
    }

    /// Resume an integration from a [`Snapshot`], continuing exactly where
    /// the captured run stopped.
    ///
    /// The integrand must match the one the snapshot was taken from: the
    /// driver checks dimensionality and structural consistency, but the
    /// function body itself is the caller's responsibility (snapshots store
    /// only the integrand's name).  Given the same integrand, configuration
    /// and an equivalently provisioned device, the continuation performs the
    /// same float operations in the same order as the uninterrupted run, so
    /// estimate/error/counters match it to the bit.
    ///
    /// # Errors
    /// Returns [`ResumeError`] when the snapshot does not fit this integrand
    /// or device rather than computing a wrong answer.
    pub fn resume_from<F: Integrand + ?Sized>(
        &self,
        f: &F,
        snapshot: &Snapshot,
        arena: &ScratchArena,
        cancel: &CancelToken,
    ) -> Result<ResumableOutput, ResumeError> {
        let start = Instant::now();
        snapshot.validate().map_err(|e| match e {
            SnapshotError::Schema(what) => ResumeError::Corrupt(what),
            _ => ResumeError::Corrupt("snapshot failed validation"),
        })?;
        if snapshot.dim != f.dim() {
            return Err(ResumeError::DimensionMismatch {
                expected: f.dim(),
                found: snapshot.dim,
            });
        }
        if snapshot.lefts.is_empty() {
            return Err(ResumeError::EmptySnapshot);
        }
        let region = Region::new(snapshot.region_lo.clone(), snapshot.region_hi.clone());
        let list = RegionList::from_flat_in(
            snapshot.dim,
            &snapshot.lefts,
            &snapshot.lengths,
            self.device.memory(),
            arena,
        )
        .map_err(|_| ResumeError::OutOfMemory)?;
        let plan = SnapshotPlan {
            checkpoint_every: 0,
            integrand_id: f.name(),
            region: &region,
        };
        let mut run = Run::new(self, f, arena, cancel, Some(plan), start, list);
        run.parents = snapshot.parent_integrals.clone();
        run.scalars = Scalars::from_snapshot(snapshot);
        run.iterations = snapshot.next_iteration;
        Ok(run.run())
    }

    /// A run from the initial split of `region`.  When not even one region
    /// fits in device memory there is no tree to run or snapshot, and the
    /// run ends before its first generation.
    fn run_fresh<F: Integrand + ?Sized>(
        &self,
        f: &F,
        region: &Region,
        arena: &ScratchArena,
        cancel: &CancelToken,
        plan: Option<SnapshotPlan<'_>>,
    ) -> ResumableOutput {
        ensure_matching_dims(f, region);
        let start = Instant::now();
        match self.start_list(f.dim(), region, arena) {
            Ok(list) => Run::new(self, f, arena, cancel, plan, start, list).run(),
            Err(_) => ResumableOutput {
                output: PaganiOutput {
                    result: IntegrationResult {
                        estimate: 0.0,
                        error_estimate: 0.0,
                        termination: Termination::MemoryExhausted,
                        iterations: 0,
                        function_evaluations: 0,
                        regions_generated: 0,
                        active_regions_final: 0,
                        wall_time: start.elapsed(),
                    },
                    trace: ExecutionTrace::default(),
                },
                checkpoints: Vec::new(),
                final_snapshot: None,
            },
        }
    }

    /// Initial uniform split (Algorithm 2, lines 2-4), backing off the
    /// per-axis split count under memory pressure.
    fn start_list(
        &self,
        dim: usize,
        region: &Region,
        arena: &ScratchArena,
    ) -> Result<RegionList, DeviceError> {
        let pool = self.device.memory();
        let mut d = self.config.resolve_splits_per_axis(dim);
        loop {
            match RegionList::initial_split(region, d, pool, arena) {
                Ok(list) => return Ok(list),
                Err(DeviceError::OutOfDeviceMemory { .. }) if d > 1 => d -= 1,
                Err(err) => return Err(err),
            }
        }
    }
}

/// One run of the breadth-first driver loop (Algorithm 2, lines 5-24): the
/// generation about to be evaluated, its parent integrals and the loop
/// scalars, plus the trace and checkpoints gathered so far.
struct Run<'a, F: ?Sized> {
    pagani: &'a Pagani,
    f: &'a F,
    arena: &'a ScratchArena,
    cancel: &'a CancelToken,
    plan: Option<SnapshotPlan<'a>>,
    rule: GenzMalik,
    start: Instant,
    /// The generation about to be evaluated.
    list: RegionList,
    /// Parent integral estimates aligned with the sibling layout of `list`;
    /// `None` for a generation without parents (the first one, or split
    /// survivors resumed from a snapshot), which skips two-level refinement.
    parents: Option<Vec<f64>>,
    scalars: Scalars,
    /// Generations run so far, counting those before a resume.
    iterations: usize,
    trace: ExecutionTrace,
    checkpoints: Vec<Snapshot>,
}

impl<'a, F: Integrand + ?Sized> Run<'a, F> {
    /// A run about to evaluate generation 0 of `list` from zeroed scalars.
    fn new(
        pagani: &'a Pagani,
        f: &'a F,
        arena: &'a ScratchArena,
        cancel: &'a CancelToken,
        plan: Option<SnapshotPlan<'a>>,
        start: Instant,
        list: RegionList,
    ) -> Self {
        Run {
            pagani,
            f,
            arena,
            cancel,
            plan,
            rule: GenzMalik::new(list.dim()),
            start,
            scalars: Scalars::fresh(list.len() as u64),
            list,
            parents: None,
            iterations: 0,
            trace: ExecutionTrace::default(),
            checkpoints: Vec::new(),
        }
    }

    /// Run generations from `self.iterations` until one stops the loop or the
    /// iteration budget runs out, then leave through `finish`.
    fn run(mut self) -> ResumableOutput {
        let first = self.iterations;
        while self.iterations < self.pagani.config.max_iterations {
            if let Err(stop) = self.generation(first) {
                return self.finish(stop);
            }
        }
        // The budget ran out: the surviving generation is the resume point.
        let stop = self.stop(Termination::MaxIterations);
        self.finish(stop)
    }

    /// A stop reporting `termination` that resumes where the run is now:
    /// generation `iterations` of the current list and parents, entered
    /// with the current scalars.
    fn stop(&self, termination: Termination) -> Stop {
        Stop {
            termination,
            next_iteration: self.iterations,
            scalars: self.scalars,
        }
    }

    /// One breadth-first generation (Algorithm 2, lines 6-23), one phase per
    /// call.  A stop before the fold resumes by re-running this generation
    /// from the scalars it started with.
    fn generation(&mut self, first: usize) -> Result<(), Stop> {
        let iteration = self.iterations;
        let rerun = self.stop(Termination::MaxIterations);
        if let Some(cancelled) = check_cancelled(self.cancel) {
            return Err(rerun.reporting(cancelled));
        }
        self.checkpoint(iteration, first);
        self.iterations += 1;
        let mut eval = self.evaluate().map_err(|_| rerun)?;
        self.refine(&mut eval);
        let mut mask = self.classify(&eval);
        let outcome = self
            .reduce(iteration, &eval, &mask, rerun)
            .and_then(|(estimate, error)| {
                let searched = self.threshold(iteration, &eval, &mut mask, error);
                self.fold(&eval, &mask, estimate, error);
                self.record(iteration, &mask, searched);
                self.filter_and_split(&eval, &mask, rerun)
            });
        eval.retire(self.arena);
        self.arena.put_mask(mask);
        outcome
    }

    /// Capture a periodic checkpoint (state "about to run `iteration`") every
    /// `checkpoint_every` generations after the first one run.
    fn checkpoint(&mut self, iteration: usize, first: usize) {
        let Some(plan) = &self.plan else { return };
        let every = plan.checkpoint_every;
        if every > 0 && iteration > first && (iteration - first) % every == 0 {
            let checkpoint = self.capture(plan, iteration, self.scalars, false);
            self.checkpoints.push(checkpoint);
        }
    }

    /// Line 10: apply the Genz–Malik rule to every region of the generation.
    fn evaluate(&mut self) -> DeviceResult<Evaluation> {
        let device = &self.pagani.device;
        let eval = evaluate_all(device, &self.rule, self.f, &self.list, self.arena)?;
        self.scalars.function_evaluations += eval.function_evaluations;
        Ok(eval)
    }

    /// Line 11: Berntsen's two-level refinement of the raw errors against
    /// the parent integrals.
    fn refine(&self, eval: &mut Evaluation) {
        if !self.pagani.config.two_level_errors {
            return;
        }
        if let Some(parents) = &self.parents {
            debug_assert_eq!(parents.len() * 2, eval.integrals.len());
            let device = &self.pagani.device;
            device.timed_section("postprocess.refine_error", || {
                refine_generation(&eval.integrals, &mut eval.errors, parents);
            });
        }
    }

    /// Line 12: classify each region active or finished by its relative error.
    fn classify(&self, eval: &Evaluation) -> Vec<u8> {
        let Pagani { device, config } = self.pagani;
        let mut mask = self.arena.take_mask(eval.integrals.len());
        device.timed_section("postprocess.classify", || {
            rel_err_classify_into(
                &eval.integrals,
                &eval.errors,
                config.tolerances,
                config.rel_err_filtering,
                &mut mask,
            );
        });
        mask
    }

    /// Lines 13-16: reduce the generation's estimates, add the finished
    /// totals to get the cumulative (latest) ones, and test those against the
    /// tolerances.  A converged generation is recorded, folded whole into the
    /// finished totals and stops the run; otherwise this returns the
    /// generation's own sums.
    fn reduce(
        &mut self,
        iteration: usize,
        eval: &Evaluation,
        mask: &[u8],
        rerun: Stop,
    ) -> Result<(f64, f64), Stop> {
        let device = &self.pagani.device;
        let (estimate, error) = device.timed_section("postprocess.reduce", || {
            (
                device.reduce_sum(&eval.integrals),
                device.reduce_sum(&eval.errors),
            )
        });
        let tolerances = self.pagani.config.tolerances;
        let scalars = &mut self.scalars;
        scalars.latest_estimate = estimate + scalars.finished_estimate;
        scalars.latest_error = error + scalars.finished_error;
        if !tolerances.satisfied_by(scalars.latest_estimate, scalars.latest_error) {
            return Ok((estimate, error));
        }
        self.record(iteration, mask, false);
        self.scalars.finished_estimate = self.scalars.latest_estimate;
        self.scalars.finished_error = self.scalars.latest_error;
        Err(rerun.reporting(Termination::Converged))
    }

    /// Line 17 (§3.5.2): the heuristic threshold classification, run when
    /// the estimate has converged or the next split would exhaust memory.
    /// Returns whether it ran.
    fn threshold(
        &mut self,
        iteration: usize,
        eval: &Evaluation,
        mask: &mut Vec<u8>,
        generation_error: f64,
    ) -> bool {
        let config = &self.pagani.config;
        let tolerances = config.tolerances;
        let cumulative = self.scalars.latest_estimate;
        let estimate_converged = self
            .scalars
            .previous_cumulative
            .is_some_and(|prev| (cumulative - prev).abs() <= cumulative.abs() * tolerances.rel);
        // Splitting keeps the filtered copy and the doubled generation alive at
        // the same time as the current list, so require room for 3× the active
        // geometry on top of what is already allocated.
        let bytes_needed = RegionList::bytes_for(3 * active_count(mask), self.list.dim());
        let memory_pressure = !self.pagani.device.memory().can_allocate(bytes_needed);
        let trigger = match config.heuristic_filtering {
            HeuristicFiltering::Disabled => return false,
            _ if memory_pressure => ThresholdTrigger::MemoryPressure,
            HeuristicFiltering::Full if estimate_converged => ThresholdTrigger::EstimateConverged,
            _ => return false,
        };
        let allowed_total_error = (cumulative.abs() * tolerances.rel).max(tolerances.abs);
        let headroom = allowed_total_error - self.scalars.finished_error;
        let error_budget = match trigger {
            // Integral already solved: be conservative so that relative-error
            // filtering keeps enough headroom of its own.
            ThresholdTrigger::EstimateConverged => {
                headroom.min(0.5 * allowed_total_error - self.scalars.threshold_frozen_error)
            }
            // Memory is the binding constraint: spend whatever headroom is
            // left rather than fail outright.
            ThresholdTrigger::MemoryPressure => headroom,
        };
        let arena = self.arena;
        let outcome = self.pagani.device.timed_section("threshold.search", || {
            threshold_classify(mask, &eval.errors, error_budget, generation_error, arena)
        });
        self.trace.threshold_searches.push(ThresholdSearchRecord {
            iteration,
            trigger,
            probes: outcome.probes,
            successful: outcome.successful,
        });
        if outcome.successful {
            self.scalars.threshold_frozen_error += outcome.newly_committed_error;
            arena.put_mask(std::mem::replace(mask, outcome.mask));
        }
        true
    }

    /// Lines 18-19: add the finished regions' contributions to the finished
    /// totals.
    fn fold(&mut self, eval: &Evaluation, mask: &[u8], estimate: f64, error: f64) {
        let device = &self.pagani.device;
        let (active_estimate, active_error) = device.timed_section("postprocess.reduce", || {
            (
                device.reduce_masked_sum(&eval.integrals, mask),
                device.reduce_masked_sum(&eval.errors, mask),
            )
        });
        self.scalars.finished_estimate += estimate - active_estimate;
        self.scalars.finished_error += error - active_error;
        self.scalars.previous_cumulative = Some(self.scalars.latest_estimate);
    }

    /// Lines 20-23: drop the finished regions, then split every active one
    /// along its rule-selected axis; the active regions' integrals become the
    /// children's parents.
    fn filter_and_split(
        &mut self,
        eval: &Evaluation,
        mask: &[u8],
        rerun: Stop,
    ) -> Result<(), Stop> {
        let active = active_count(mask);
        if active == 0 {
            // Everything was classified finished; the cumulative estimates are
            // final.  (With same-sign estimates this implies convergence by
            // Lemma 3.1; otherwise report the budget-based status.)  The
            // pre-fold tree is still the right warm-start state for a tighter
            // run.
            let (estimate, error) = (self.scalars.finished_estimate, self.scalars.finished_error);
            let termination = if self.pagani.config.tolerances.satisfied_by(estimate, error) {
                Termination::Converged
            } else {
                Termination::MaxIterations
            };
            return Err(rerun.reporting(termination));
        }
        let (device, arena) = (&self.pagani.device, self.arena);
        let pool = device.memory();
        let filtered = device
            .timed_section("filter.compact", || self.list.filter(mask, pool, arena))
            .map_err(|_| rerun.reporting(Termination::MemoryExhausted))?;
        let mut active_integrals = arena.take_f64(active);
        scan::compact_by_mask_into(&eval.integrals, mask, &mut active_integrals);
        let mut active_axes = arena.take_axes(active);
        scan::compact_by_mask_into(&eval.split_axes, mask, &mut active_axes);
        std::mem::replace(&mut self.list, filtered).retire(arena);
        let split = device.timed_section("filter.split", || {
            self.list.split_all(&active_axes, pool, arena)
        });
        arena.put_axes(active_axes);
        let Ok(children) = split else {
            // Memory exhausted and no further subdivision possible (§3.5.2).
            // The survivors, with this generation's scalars and no parents,
            // are where a resumed run picks up.
            arena.put_f64(active_integrals);
            if let Some(parents) = self.parents.take() {
                arena.put_f64(parents);
            }
            return Err(self.stop(Termination::MemoryExhausted));
        };
        self.scalars.regions_generated += children.len() as u64;
        std::mem::replace(&mut self.list, children).retire(arena);
        if let Some(parents) = self.parents.replace(active_integrals) {
            arena.put_f64(parents);
        }
        Ok(())
    }

    /// Append this generation's [`IterationRecord`] to the trace.
    fn record(&mut self, iteration: usize, mask: &[u8], threshold_invoked: bool) {
        self.trace.iterations.push(IterationRecord {
            iteration,
            regions_processed: self.list.len(),
            active_after_classify: active_count(mask),
            cumulative_estimate: self.scalars.latest_estimate,
            cumulative_error: self.scalars.latest_error,
            finished_estimate: self.scalars.finished_estimate,
            finished_error: self.scalars.finished_error,
            memory_used: self.pagani.device.memory().usage().used,
            threshold_invoked,
        });
    }

    /// The single exit: capture the final snapshot at the stop's resume
    /// point, return the surviving list and parents to the arena, and build
    /// the result.
    fn finish(self, stop: Stop) -> ResumableOutput {
        let converged = stop.termination == Termination::Converged;
        let final_snapshot = self
            .plan
            .as_ref()
            .map(|plan| self.capture(plan, stop.next_iteration, stop.scalars, converged));
        self.list.retire(self.arena);
        if let Some(parents) = self.parents {
            self.arena.put_f64(parents);
        }
        // A converged run already folded everything into the finished
        // totals; any other run reports the latest cumulative (active +
        // finished) totals.
        let scalars = self.scalars;
        let (estimate, error_estimate) = if converged {
            (scalars.finished_estimate, scalars.finished_error)
        } else {
            (scalars.latest_estimate, scalars.latest_error)
        };
        let result = IntegrationResult {
            estimate,
            error_estimate,
            termination: stop.termination,
            iterations: self.iterations,
            function_evaluations: scalars.function_evaluations,
            regions_generated: scalars.regions_generated,
            active_regions_final: self
                .trace
                .iterations
                .last()
                .map_or(0, |r| r.active_after_classify),
            wall_time: self.start.elapsed(),
        };
        ResumableOutput {
            output: PaganiOutput {
                result,
                trace: self.trace,
            },
            checkpoints: self.checkpoints,
            final_snapshot,
        }
    }

    /// Copy the current list and parents, with `scalars` and
    /// `next_iteration`, into a [`Snapshot`].  Pure data movement — no float
    /// arithmetic — so capture cannot perturb the result.
    fn capture(
        &self,
        plan: &SnapshotPlan<'_>,
        next_iteration: usize,
        scalars: Scalars,
        converged: bool,
    ) -> Snapshot {
        let config = &self.pagani.config;
        Snapshot {
            version: SNAPSHOT_FORMAT_VERSION,
            integrand_id: plan.integrand_id.clone(),
            region_lo: plan.region.lo().to_vec(),
            region_hi: plan.region.hi().to_vec(),
            rel_tol: config.tolerances.rel,
            abs_tol: config.tolerances.abs,
            converged,
            dim: self.list.dim(),
            lefts: self.list.lefts().to_vec(),
            lengths: self.list.lengths().to_vec(),
            parent_integrals: self.parents.clone(),
            finished_estimate: scalars.finished_estimate,
            finished_error: scalars.finished_error,
            threshold_frozen_error: scalars.threshold_frozen_error,
            function_evaluations: scalars.function_evaluations,
            regions_generated: scalars.regions_generated,
            previous_cumulative: scalars.previous_cumulative,
            next_iteration,
            latest_estimate: scalars.latest_estimate,
            latest_error: scalars.latest_error,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pagani_device::{Device, DeviceConfig};
    use pagani_integrands::paper::PaperIntegrand;
    use pagani_integrands::workloads::GaussianLikelihood;
    use pagani_quadrature::{FnIntegrand, Tolerances};

    fn test_pagani(tol: f64) -> Pagani {
        Pagani::new(
            Device::test_small(),
            PaganiConfig::test_small(Tolerances::rel(tol)),
        )
    }

    #[test]
    fn constant_integrand_converges_immediately() {
        let pagani = test_pagani(1e-6);
        let f = FnIntegrand::new(3, |_: &[f64]| 4.0);
        let out = pagani.integrate(&f);
        assert!(out.result.converged());
        assert!((out.result.estimate - 4.0).abs() < 1e-9);
        assert_eq!(out.result.iterations, 1);
    }

    #[test]
    fn smooth_polynomial_reaches_tight_tolerance() {
        let pagani = test_pagani(1e-8);
        let f = FnIntegrand::new(2, |x: &[f64]| x[0] * x[0] + x[1]);
        let out = pagani.integrate(&f);
        assert!(out.result.converged());
        assert!(out.result.true_relative_error(1.0 / 3.0 + 0.5) < 1e-8);
    }

    #[test]
    fn gaussian_5d_reaches_three_digits() {
        let f = PaperIntegrand::f4(5);
        let pagani = test_pagani(1e-3);
        let out = pagani.integrate(&f);
        assert!(out.result.converged(), "{:?}", out.result.termination);
        assert!(
            out.result.true_relative_error(f.reference_value()) < 1e-3,
            "true rel err {}",
            out.result.true_relative_error(f.reference_value())
        );
    }

    #[test]
    fn corner_peak_3d_reaches_five_digits() {
        let f = PaperIntegrand::f3(3);
        let pagani = test_pagani(1e-5);
        let out = pagani.integrate(&f);
        assert!(out.result.converged());
        assert!(out.result.true_relative_error(f.reference_value()) < 1e-5);
    }

    #[test]
    fn oscillatory_requires_disabling_rel_err_filtering() {
        let f = PaperIntegrand::f1(3);
        let config = PaganiConfig::test_small(Tolerances::rel(1e-4)).without_rel_err_filtering();
        let pagani = Pagani::new(Device::test_small(), config);
        let out = pagani.integrate(&f);
        assert!(out.result.converged());
        assert!(out.result.true_relative_error(f.reference_value()) < 1e-4);
    }

    #[test]
    fn cosmology_likelihood_matches_closed_form() {
        let like = GaussianLikelihood::cosmology_like(3);
        let device = Device::new(DeviceConfig::test_small().with_memory_capacity(32 << 20));
        let pagani = Pagani::new(device, PaganiConfig::test_small(Tolerances::rel(1e-4)));
        let out = pagani.integrate(&like);
        assert!(out.result.converged(), "{:?}", out.result.termination);
        assert!(out.result.true_relative_error(like.reference_value()) < 1e-4);
    }

    #[test]
    fn estimated_error_bounds_true_error_for_suite_members() {
        // §4.2's requirement: the estimated relative error at termination should not
        // understate the true error for the well-behaved suite members.
        for f in [
            PaperIntegrand::f4(3),
            PaperIntegrand::f5(3),
            PaperIntegrand::f3(3),
        ] {
            let pagani = test_pagani(1e-4);
            let out = pagani.integrate(&f);
            assert!(out.result.converged(), "{}", f.label());
            let true_err = out.result.true_relative_error(f.reference_value());
            assert!(
                true_err <= 1e-4,
                "{}: true {} vs requested 1e-4",
                f.label(),
                true_err
            );
        }
    }

    #[test]
    fn trace_records_every_iteration() {
        let pagani = test_pagani(1e-5);
        let f = PaperIntegrand::f4(3);
        let out = pagani.integrate(&f);
        assert_eq!(out.trace.iterations.len(), out.result.iterations);
        assert!(out.trace.total_regions_processed() > 0);
        // Region counts per iteration never exceed the doubled predecessor.
        for pair in out.trace.iterations.windows(2) {
            assert!(pair[1].regions_processed <= 2 * pair[0].regions_processed);
        }
    }

    #[test]
    fn tiny_memory_forces_memory_exhaustion_or_threshold_rescue() {
        // A device with only a few KiB cannot hold many 5-D regions; PAGANI must either
        // rescue itself through threshold filtering or report memory exhaustion, never
        // panic or loop forever.
        let device = Device::new(DeviceConfig::test_small().with_memory_capacity(6 * 1024));
        let config = PaganiConfig::test_small(Tolerances::rel(1e-7));
        let pagani = Pagani::new(device, config);
        let f = PaperIntegrand::f4(5);
        let out = pagani.integrate(&f);
        match out.result.termination {
            Termination::Converged | Termination::MemoryExhausted | Termination::MaxIterations => {}
            other => panic!("unexpected termination {other:?}"),
        }
        assert!(out.result.estimate.is_finite());
    }

    #[test]
    fn heuristic_filtering_reduces_region_count_on_gaussian() {
        // Figure 8/9's mechanism: the heuristic must never hurt — it converges at
        // least as often as plain relative-error filtering and never needs more
        // regions, while retaining full accuracy.
        let f = PaperIntegrand::f4(4);
        let tol = Tolerances::rel(1e-4);
        let make_device = || Device::new(DeviceConfig::test_small().with_memory_capacity(32 << 20));
        let with = Pagani::new(
            make_device(),
            PaganiConfig::test_small(tol).with_heuristic_filtering(HeuristicFiltering::Full),
        )
        .integrate(&f);
        let without = Pagani::new(
            make_device(),
            PaganiConfig::test_small(tol).with_heuristic_filtering(HeuristicFiltering::Disabled),
        )
        .integrate(&f);
        if without.result.converged() {
            assert!(with.result.converged(), "heuristic lost a convergence");
            assert!(
                with.result.regions_generated <= without.result.regions_generated,
                "heuristic should not generate more regions ({} vs {})",
                with.result.regions_generated,
                without.result.regions_generated
            );
        }
        if with.result.converged() {
            assert!(with.result.true_relative_error(f.reference_value()) < 1e-4);
        } else {
            // At minimum the run must terminate cleanly with a finite estimate.
            assert!(with.result.estimate.is_finite());
        }
    }

    #[test]
    fn function_evaluation_counter_matches_rule_cost() {
        let pagani = test_pagani(1e-3);
        let f = PaperIntegrand::f4(3);
        let out = pagani.integrate(&f);
        let rule_points = pagani_quadrature::GenzMalik::new(3).num_points() as u64;
        assert_eq!(
            out.result.function_evaluations,
            out.trace.total_regions_processed() * rule_points
        );
    }

    #[test]
    fn kernel_profile_is_dominated_by_evaluate() {
        let device = Device::test_small();
        let pagani = Pagani::new(
            device.clone(),
            PaganiConfig::test_small(Tolerances::rel(1e-5)),
        );
        let _ = pagani.integrate(&PaperIntegrand::f4(4));
        let evaluate_fraction = device.profile().fraction_for_prefix("evaluate");
        assert!(
            evaluate_fraction > 0.3,
            "evaluate fraction {evaluate_fraction}"
        );
    }

    #[test]
    fn pre_cancelled_token_stops_before_any_iteration() {
        let pagani = test_pagani(1e-6);
        let f = FnIntegrand::new(3, |_: &[f64]| 4.0);
        let token = CancelToken::new();
        token.cancel();
        let out =
            pagani.integrate_region_with(&f, &Region::unit_cube(3), &ScratchArena::new(), &token);
        assert_eq!(out.result.termination, Termination::Cancelled);
        assert_eq!(out.result.iterations, 0);
        assert!(!out.result.converged());
    }

    #[test]
    fn uncancelled_token_is_bit_transparent() {
        let f = PaperIntegrand::f4(3);
        let plain = test_pagani(1e-4).integrate(&f);
        let with_token = test_pagani(1e-4).integrate_region_with(
            &f,
            &Region::unit_cube(3),
            &ScratchArena::new(),
            &CancelToken::new(),
        );
        assert_eq!(
            plain.result.estimate.to_bits(),
            with_token.result.estimate.to_bits()
        );
        assert_eq!(plain.result.iterations, with_token.result.iterations);
    }

    #[test]
    #[should_panic(expected = "dimensions differ")]
    fn mismatched_region_dimension_panics() {
        let pagani = test_pagani(1e-3);
        let f = FnIntegrand::new(2, |_: &[f64]| 1.0);
        let _ = pagani.integrate_region(&f, &Region::unit_cube(3));
    }
}
