//! The two-phase parallel adaptive method of Arumugam et al. (§2.2.1).
//!
//! Phase I expands the sub-region tree breadth-first — every region is split each
//! iteration unless its own relative error already satisfies the tolerance — until the
//! list is large enough for a 1-1 mapping onto the device's parallel processors
//! (2¹⁵ blocks in the paper's configuration) or phase I reaches its iteration cap.
//! Its initial uniform split follows PAGANI's rule ([`splits_per_axis`]).  A run whose
//! regions all meet their own tolerance in phase I ends there, converged or not.
//! Phase II then hands each surviving region to an independent processor that runs
//! Cuhre's sequential loop (Algorithm 1, the one copy in [`crate::cuhre`]) with a
//! bounded local heap (2048 regions per block) and **no global coordination**: the
//! processor stops when its *local* error looks good relative to its own estimates or
//! its memory/evaluation budget runs out.  Those local, globally-blind termination
//! conditions are exactly why the method loses digits on hard integrands and fails
//! outright when the per-processor memory runs out — the behaviour Figures 4, 5 and 9
//! of the paper document and this reproduction reproduces.

use std::time::Instant;

use crate::cuhre::sequential;
use pagani_core::config::splits_per_axis;
use pagani_core::integrator::{check_cancelled, ensure_matching_dims, Capabilities, Integrator};
use pagani_core::{CancelToken, EVAL_LANES};
use pagani_device::{reduce, Device};
use pagani_quadrature::two_level::refine_generation;
use pagani_quadrature::{
    EvalScratch, GenzMalik, Integrand, IntegrationResult, Region, Termination, Tolerances,
};

/// Configuration of the two-phase baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct TwoPhaseConfig {
    /// Relative / absolute error targets.
    pub tolerances: Tolerances,
    /// Phase I stops expanding once at least this many active regions exist
    /// (the paper uses 2¹⁵, the number of blocks that fit the V100).
    pub phase1_region_target: usize,
    /// Maximum phase I iterations (safety bound); phase II takes the regions
    /// phase I has not finished when it is reached.
    pub max_phase1_iterations: usize,
    /// Local heap capacity of each phase II processor (2048 regions in the paper).
    pub phase2_heap_capacity: usize,
    /// Local evaluation budget of each phase II processor.
    pub phase2_max_evaluations: u64,
}

impl TwoPhaseConfig {
    /// Configuration with the paper's defaults for a given tolerance.
    #[must_use]
    pub fn new(tolerances: Tolerances) -> Self {
        Self {
            tolerances,
            phase1_region_target: 1 << 15,
            max_phase1_iterations: 60,
            phase2_heap_capacity: 2048,
            phase2_max_evaluations: 2_000_000,
        }
    }

    /// Configuration targeting `digits` decimal digits of relative precision.
    #[must_use]
    pub fn digits(digits: f64) -> Self {
        Self::new(Tolerances::digits(digits))
    }

    /// Shrink the targets for unit tests.
    #[must_use]
    pub fn test_small(tolerances: Tolerances) -> Self {
        Self {
            phase1_region_target: 512,
            phase2_heap_capacity: 128,
            phase2_max_evaluations: 200_000,
            ..Self::new(tolerances)
        }
    }
}

impl Default for TwoPhaseConfig {
    fn default() -> Self {
        Self::new(Tolerances::default())
    }
}

/// The two-phase integrator.
#[derive(Debug, Clone)]
pub struct TwoPhase {
    device: Device,
    config: TwoPhaseConfig,
}

impl TwoPhase {
    /// Create an integrator on `device` with `config`.
    #[must_use]
    pub fn new(device: Device, config: TwoPhaseConfig) -> Self {
        Self { device, config }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &TwoPhaseConfig {
        &self.config
    }

    /// Integrate `f` over its default bounds.
    pub fn integrate<F: Integrand + ?Sized>(&self, f: &F) -> IntegrationResult {
        let (lo, hi) = f.default_bounds();
        self.integrate_region(f, &Region::new(lo, hi))
    }

    /// Integrate `f` over an explicit region.
    ///
    /// # Panics
    /// Panics if the region and integrand dimensions differ.
    pub fn integrate_region<F: Integrand + ?Sized>(
        &self,
        f: &F,
        region: &Region,
    ) -> IntegrationResult {
        self.integrate_region_cancellable(f, region, &CancelToken::new())
    }

    /// Integrate `f` over an explicit region, polling `cancel` at every
    /// phase I iteration boundary and inside each phase II processor's local
    /// loop.  A cancelled run reports [`Termination::Cancelled`] with the
    /// cumulative estimates accumulated so far.
    ///
    /// # Panics
    /// Panics if the region and integrand dimensions differ.
    pub fn integrate_region_cancellable<F: Integrand + ?Sized>(
        &self,
        f: &F,
        region: &Region,
        cancel: &CancelToken,
    ) -> IntegrationResult {
        ensure_matching_dims(f, region);
        let start = Instant::now();
        let dim = f.dim();
        let rule = GenzMalik::new(dim);
        let tolerances = self.config.tolerances;

        // ----- Phase I: breadth-first expansion with relative-error filtering. -----
        let d = splits_per_axis(dim, self.config.phase1_region_target);
        let mut active: Vec<Region> = region.uniform_split(d);
        let mut finished_estimate = 0.0f64;
        let mut finished_error = 0.0f64;
        let mut function_evaluations = 0u64;
        let mut regions_generated = active.len() as u64;
        let mut phase1_iterations = 0usize;
        let mut parent_integrals: Option<Vec<f64>> = None;
        let mut cancelled_in_phase1 = false;

        // Phase I ends in one of two ways.  With `active` empty, every region's
        // estimate is in the `finished_*` totals and there is no phase II.
        // Otherwise `active` holds the regions phase II integrates, and the
        // totals hold only the regions phase I finished.
        loop {
            phase1_iterations += 1;
            // The layout of the core `evaluate` kernel: integral, error and
            // split axis per region.
            let mut lanes = vec![0.0f64; active.len() * EVAL_LANES];
            self.device
                .launch_batch(
                    "two_phase.evaluate",
                    active.len(),
                    EVAL_LANES,
                    &mut lanes,
                    |block, out| {
                        let mut scratch = EvalScratch::new(dim);
                        let est = rule.evaluate(f, &active[block], &mut scratch);
                        out[0] = est.integral;
                        out[1] = est.error;
                        out[2] = est.split_axis as f64;
                    },
                )
                .expect("phase I launch cannot be empty");
            function_evaluations += active.len() as u64 * rule.num_points() as u64;
            let mut integrals: Vec<f64> = Vec::with_capacity(active.len());
            let mut errors: Vec<f64> = Vec::with_capacity(active.len());
            let mut axes: Vec<usize> = Vec::with_capacity(active.len());
            for slot in lanes.chunks_exact(EVAL_LANES) {
                integrals.push(slot[0]);
                errors.push(slot[1]);
                axes.push(slot[2] as usize);
            }
            if let Some(parents) = &parent_integrals {
                if parents.len() * 2 == integrals.len() {
                    refine_generation(&integrals, &mut errors, parents);
                }
            }

            let iter_estimate = reduce::sum(&integrals);
            let iter_error = reduce::sum(&errors);
            let total_estimate = iter_estimate + finished_estimate;
            let total_error = iter_error + finished_error;
            let converged = tolerances.satisfied_by(total_estimate, total_error);
            // Cancellation checkpoint: once per phase I iteration, after the
            // convergence check so a finished run keeps its converged status.
            if converged || check_cancelled(cancel).is_some() {
                finished_estimate = total_estimate;
                finished_error = total_error;
                cancelled_in_phase1 = !converged;
                active.clear();
                break;
            }

            // Local termination: regions meeting their own relative error are finished
            // and leave memory.
            let mut survivors: Vec<Region> = Vec::new();
            let mut survivor_integrals: Vec<f64> = Vec::new();
            let mut survivor_axes: Vec<usize> = Vec::new();
            for (i, reg) in active.iter().enumerate() {
                if tolerances.satisfied_by(integrals[i], errors[i]) {
                    finished_estimate += integrals[i];
                    finished_error += errors[i];
                } else {
                    survivors.push(reg.clone());
                    survivor_integrals.push(integrals[i]);
                    survivor_axes.push(axes[i]);
                }
            }
            if survivors.is_empty()
                || survivors.len() >= self.config.phase1_region_target
                || phase1_iterations >= self.config.max_phase1_iterations
            {
                // Nothing left to integrate, enough regions for the 1-1
                // processor mapping, or phase I's iteration cap: phase II
                // takes what survived.
                active = survivors;
                break;
            }

            // Split every surviving region along its chosen axis (left halves first,
            // matching the sibling layout the two-level refinement expects).
            let mut next = Vec::with_capacity(survivors.len() * 2);
            let mut rights = Vec::with_capacity(survivors.len());
            for (reg, &axis) in survivors.iter().zip(&survivor_axes) {
                let (left, right) = reg.split(axis);
                next.push(left);
                rights.push(right);
            }
            next.extend(rights);
            regions_generated += next.len() as u64;
            parent_integrals = Some(survivor_integrals);
            active = next;
        }

        if active.is_empty() {
            let termination = if cancelled_in_phase1 {
                Termination::Cancelled
            } else if tolerances.satisfied_by(finished_estimate, finished_error) {
                Termination::Converged
            } else {
                Termination::MaxIterations
            };
            return IntegrationResult {
                estimate: finished_estimate,
                error_estimate: finished_error,
                termination,
                iterations: phase1_iterations,
                function_evaluations,
                regions_generated,
                active_regions_final: 0,
                wall_time: start.elapsed(),
            };
        }

        // ----- Phase II: Cuhre's sequential loop, independently per region. ------
        let heap_capacity = self.config.phase2_heap_capacity;
        let local_budget = self.config.phase2_max_evaluations;
        // Five lanes per processor: integral, error, evaluation count,
        // regions generated, and a 0/1 memory-exhaustion flag.  The counts
        // ride in `f64` lanes; both are bounded far below 2^53 (by the
        // per-processor evaluation budget), so the round trip is exact.
        let mut outcomes = vec![0.0f64; active.len() * 5];
        self.device
            .launch_batch(
                "two_phase.phase2",
                active.len(),
                5,
                &mut outcomes,
                |block, out| {
                    // Local termination: the processor only sees its own
                    // estimates.  Every processor polls the same token, so a
                    // cancel stops the whole phase within one local pop each.
                    let local = sequential(
                        f,
                        &rule,
                        &active[block],
                        tolerances,
                        local_budget,
                        heap_capacity,
                        cancel,
                    );
                    out[0] = local.estimate;
                    out[1] = local.error_estimate;
                    out[2] = local.function_evaluations as f64;
                    out[3] = local.regions_generated as f64;
                    out[4] = f64::from(u8::from(local.termination == Termination::MemoryExhausted));
                },
            )
            .expect("phase II launch cannot be empty");

        let mut estimate = finished_estimate;
        let mut error = finished_error;
        let mut any_memory_exhausted = false;
        let mut phase2_regions = 0u64;
        for slot in outcomes.chunks_exact(5) {
            estimate += slot[0];
            error += slot[1];
            function_evaluations += slot[2] as u64;
            phase2_regions += slot[3] as u64;
            any_memory_exhausted |= slot[4] != 0.0;
        }
        regions_generated += phase2_regions;

        let termination = if tolerances.satisfied_by(estimate, error) {
            Termination::Converged
        } else if let Some(cancelled) = check_cancelled(cancel) {
            // Every processor saw the same token and stopped at its next local
            // checkpoint; the combined partial sums are still meaningful.
            cancelled
        } else if any_memory_exhausted {
            Termination::MemoryExhausted
        } else {
            Termination::MaxEvaluations
        };
        IntegrationResult {
            estimate,
            error_estimate: error,
            termination,
            iterations: phase1_iterations,
            function_evaluations,
            regions_generated,
            active_regions_final: active.len(),
            wall_time: start.elapsed(),
        }
    }
}

impl Integrator for TwoPhase {
    fn name(&self) -> &'static str {
        "two-phase"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            deterministic: true,
            uses_device: true,
            adaptive: true,
            statistical_errors: false,
            min_dim: 2,
            max_dim: Some(30),
        }
    }

    fn integrate_region_cancellable(
        &self,
        f: &dyn Integrand,
        region: &Region,
        cancel: &CancelToken,
    ) -> IntegrationResult {
        TwoPhase::integrate_region_cancellable(self, f, region, cancel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pagani_device::Device;
    use pagani_integrands::paper::PaperIntegrand;
    use pagani_quadrature::FnIntegrand;

    fn two_phase(rel: f64) -> TwoPhase {
        TwoPhase::new(
            Device::test_small(),
            TwoPhaseConfig::test_small(Tolerances::rel(rel)),
        )
    }

    #[test]
    fn constant_converges_in_phase1() {
        let result = two_phase(1e-6).integrate(&FnIntegrand::new(3, |_: &[f64]| 1.5));
        assert!(result.converged());
        assert!((result.estimate - 1.5).abs() < 1e-9);
    }

    #[test]
    fn gaussian_3d_low_precision_is_accurate() {
        let f = PaperIntegrand::f4(3);
        let result = two_phase(1e-3).integrate(&f);
        assert!(result.converged());
        assert!(result.true_relative_error(f.reference_value()) < 1e-3);
    }

    #[test]
    fn corner_peak_3d_moderate_precision() {
        let f = PaperIntegrand::f3(3);
        let result = two_phase(1e-5).integrate(&f);
        assert!(result.converged());
        assert!(result.true_relative_error(f.reference_value()) < 1e-5);
    }

    #[test]
    fn initial_splits_match_pagani_rule() {
        // Phase I's initial uniform split, at the paper's and the unit-test targets.
        let paper = TwoPhaseConfig::default().phase1_region_target;
        let small = TwoPhaseConfig::test_small(Tolerances::rel(1e-3)).phase1_region_target;
        assert_eq!(splits_per_axis(8, paper), 3);
        assert_eq!(splits_per_axis(5, paper), 8);
        assert_eq!(splits_per_axis(3, small), 8);
        // PAGANI's automatic split at the same target agrees in every dimension.
        let pagani = pagani_core::config::PaganiConfig {
            initial_region_target: paper,
            ..pagani_core::config::PaganiConfig::new(Tolerances::default())
        };
        for dim in 1..=8 {
            assert_eq!(
                splits_per_axis(dim, paper),
                pagani.resolve_splits_per_axis(dim)
            );
        }
    }

    #[test]
    fn tiny_phase2_heap_causes_memory_exhaustion_on_hard_integrand() {
        // A sharply-peaked 4D Gaussian at a demanding tolerance: the tiny local heaps
        // cannot resolve the peak, which is the failure mode the paper documents.
        let f = PaperIntegrand::f4(4);
        let config = TwoPhaseConfig {
            phase1_region_target: 64,
            phase2_heap_capacity: 8,
            phase2_max_evaluations: 5_000,
            ..TwoPhaseConfig::new(Tolerances::rel(1e-8))
        };
        let result = TwoPhase::new(Device::test_small(), config).integrate(&f);
        assert!(!result.converged());
        assert_eq!(result.termination, Termination::MemoryExhausted);
    }

    #[test]
    fn two_phase_reports_region_counts() {
        let f = PaperIntegrand::f4(3);
        let result = two_phase(1e-4).integrate(&f);
        assert!(result.regions_generated > 0);
        assert!(result.function_evaluations > 0);
    }

    #[test]
    fn pre_cancelled_token_stops_in_phase1_with_partial_stats() {
        let f = PaperIntegrand::f4(4);
        let token = pagani_core::CancelToken::new();
        token.cancel();
        let result =
            two_phase(1e-8).integrate_region_cancellable(&f, &Region::unit_cube(4), &token);
        assert_eq!(result.termination, Termination::Cancelled);
        assert_eq!(result.iterations, 1, "cancel lands at the first boundary");
        assert!(result.function_evaluations > 0);
        assert!(result.estimate.is_finite());
    }

    #[test]
    fn uncancelled_token_is_bit_transparent() {
        let f = PaperIntegrand::f4(3);
        let plain = two_phase(1e-3).integrate(&f);
        let with_token = two_phase(1e-3).integrate_region_cancellable(
            &f,
            &Region::unit_cube(3),
            &pagani_core::CancelToken::new(),
        );
        assert_eq!(plain.estimate.to_bits(), with_token.estimate.to_bits());
    }

    #[test]
    fn phase1_alone_handles_easy_integrands_like_pagani() {
        // For an easy polynomial the run should converge without phase II
        // (phase I's relative-error filtering finishes everything).
        let f = FnIntegrand::new(2, |x: &[f64]| 1.0 + x[0] * x[1]);
        let result = two_phase(1e-6).integrate(&f);
        assert!(result.converged());
        assert!(result.true_relative_error(1.25) < 1e-6);
    }
}
