//! Plain Monte Carlo integration with a statistical error estimate.
//!
//! The paper's introduction observes that on CPU platforms probabilistic methods such
//! as Vegas, Suave and Divonne are consistently outperformed by the deterministic
//! Cuhre on integrals of moderate dimension.  This baseline provides the simplest
//! member of that family — uniform-sampling Monte Carlo with a sample-variance error
//! estimate — so that the repository can demonstrate the same ordering (MC ≪ QMC ≪
//! adaptive cubature on smooth integrands) without pulling in the Cuba library.

use std::time::Instant;

use pagani_core::integrator::{check_cancelled, ensure_matching_dims, Capabilities, Integrator};
use pagani_core::CancelToken;
use pagani_device::Device;
use pagani_quadrature::{Integrand, IntegrationResult, Region, Termination, Tolerances};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the plain Monte Carlo baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct MonteCarloConfig {
    /// Relative / absolute error targets.
    pub tolerances: Tolerances,
    /// Samples drawn in the first round (doubled every round thereafter).
    pub initial_samples: u64,
    /// Maximum total number of integrand evaluations.
    pub max_evaluations: u64,
    /// Number of parallel sampling streams (one simulated block each).
    pub streams: usize,
    /// Base seed; each stream derives its own deterministic sub-seed.
    pub seed: u64,
}

impl MonteCarloConfig {
    /// Configuration with sensible defaults for a given tolerance.
    #[must_use]
    pub fn new(tolerances: Tolerances) -> Self {
        Self {
            tolerances,
            initial_samples: 1 << 14,
            max_evaluations: 100_000_000,
            streams: 64,
            seed: 0xdead_beef,
        }
    }

    /// Cap the evaluation budget.
    #[must_use]
    pub fn with_max_evaluations(mut self, max: u64) -> Self {
        self.max_evaluations = max;
        self
    }
}

impl Default for MonteCarloConfig {
    fn default() -> Self {
        Self::new(Tolerances::default())
    }
}

/// The plain Monte Carlo integrator.
#[derive(Debug, Clone)]
pub struct MonteCarlo {
    device: Device,
    config: MonteCarloConfig,
}

impl MonteCarlo {
    /// Create an integrator on `device` with `config`.
    #[must_use]
    pub fn new(device: Device, config: MonteCarloConfig) -> Self {
        Self { device, config }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &MonteCarloConfig {
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
    /// sample-doubling round.  A cancelled run reports
    /// [`Termination::Cancelled`] with the estimate of the last completed
    /// round; an uncancelled token never changes a result.
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
        let volume = region.volume();
        let tolerances = self.config.tolerances;
        let streams = self.config.streams.max(2);

        // Running totals across rounds: Σf and Σf² over all samples drawn so far.
        let mut total_sum = 0.0f64;
        let mut total_sum_sq = 0.0f64;
        let mut total_samples = 0u64;
        let mut round_samples = self.config.initial_samples.max(streams as u64);
        let mut iterations = 0usize;
        let mut round = 0u64;

        // Two lanes per stream: Σf and Σf² partials, combined in block order.
        let mut partials = vec![0.0f64; streams * 2];
        let (estimate, error, termination) = loop {
            iterations += 1;
            let per_stream = (round_samples / streams as u64).max(1);
            let seed = self.config.seed;
            self.device
                .launch_batch(
                    "monte_carlo.sample",
                    streams,
                    2,
                    &mut partials,
                    |block, out| {
                        let mut rng = StdRng::seed_from_u64(seed ^ (round << 32) ^ block as u64);
                        let mut point = vec![0.0; dim];
                        let mut sum = 0.0;
                        let mut sum_sq = 0.0;
                        for _ in 0..per_stream {
                            for (axis, coord) in point.iter_mut().enumerate() {
                                let u: f64 = rng.gen_range(0.0..1.0);
                                *coord = region.lo()[axis] + u * region.extent(axis);
                            }
                            let value = f.eval(&point);
                            sum += value;
                            sum_sq += value * value;
                        }
                        out[0] = sum;
                        out[1] = sum_sq;
                    },
                )
                .expect("Monte Carlo launches are never empty");
            for slot in partials.chunks_exact(2) {
                total_sum += slot[0];
                total_sum_sq += slot[1];
            }
            total_samples += per_stream * streams as u64;
            round += 1;

            let mean = total_sum / total_samples as f64;
            let variance = (total_sum_sq / total_samples as f64 - mean * mean).max(0.0);
            let estimate = volume * mean;
            let error = volume * (variance / total_samples as f64).sqrt();

            if tolerances.satisfied_by(estimate, error) {
                break (estimate, error, Termination::Converged);
            }
            // Cancellation checkpoint: once per doubling round, after the
            // convergence check so a finished run keeps its converged status.
            if let Some(cancelled) = check_cancelled(cancel) {
                break (estimate, error, cancelled);
            }
            if total_samples.saturating_mul(2) > self.config.max_evaluations {
                break (estimate, error, Termination::MaxEvaluations);
            }
            round_samples = total_samples; // double the cumulative sample count
        };

        IntegrationResult {
            estimate,
            error_estimate: error,
            termination,
            iterations,
            function_evaluations: total_samples,
            regions_generated: 0,
            active_regions_final: 0,
            wall_time: start.elapsed(),
        }
    }
}

impl Integrator for MonteCarlo {
    fn name(&self) -> &'static str {
        "monte-carlo"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            // Stream seeds derive deterministically from the config seed.
            deterministic: true,
            uses_device: true,
            adaptive: false,
            statistical_errors: true,
            min_dim: 1,
            max_dim: None,
        }
    }

    fn integrate_region_cancellable(
        &self,
        f: &dyn Integrand,
        region: &Region,
        cancel: &CancelToken,
    ) -> IntegrationResult {
        MonteCarlo::integrate_region_cancellable(self, f, region, cancel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pagani_integrands::paper::PaperIntegrand;
    use pagani_quadrature::FnIntegrand;

    fn mc(rel: f64, budget: u64) -> MonteCarlo {
        MonteCarlo::new(
            Device::test_small(),
            MonteCarloConfig::new(Tolerances::rel(rel)).with_max_evaluations(budget),
        )
    }

    #[test]
    fn constant_integrand_is_exact() {
        let result = mc(1e-6, 1_000_000).integrate(&FnIntegrand::new(3, |_: &[f64]| 2.0));
        assert!(result.converged());
        assert!((result.estimate - 2.0).abs() < 1e-12);
        assert_eq!(result.error_estimate, 0.0);
    }

    #[test]
    fn smooth_integrand_reaches_two_digits() {
        let f = FnIntegrand::new(3, |x: &[f64]| 1.0 + x[0] * x[1] + x[2]);
        let result = mc(1e-2, 10_000_000).integrate(&f);
        assert!(result.converged());
        assert!(result.true_relative_error(1.75) < 5e-2);
    }

    #[test]
    fn error_estimate_shrinks_with_budget() {
        let f = PaperIntegrand::f5(3);
        let small = mc(1e-9, 100_000).integrate(&f);
        let large = mc(1e-9, 5_000_000).integrate(&f);
        assert!(!small.converged());
        assert!(large.error_estimate < small.error_estimate);
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let f = PaperIntegrand::f4(5);
        let result = mc(1e-6, 50_000).integrate(&f);
        assert!(!result.converged());
        assert_eq!(result.termination, Termination::MaxEvaluations);
        assert!(result.function_evaluations <= 100_000);
    }

    #[test]
    fn pre_cancelled_token_stops_after_one_round() {
        let f = PaperIntegrand::f4(5);
        let token = CancelToken::new();
        token.cancel();
        let result =
            mc(1e-9, 100_000_000).integrate_region_cancellable(&f, &Region::unit_cube(5), &token);
        assert_eq!(result.termination, Termination::Cancelled);
        assert_eq!(result.iterations, 1, "cancel lands at the round boundary");
        assert!(result.function_evaluations > 0);
        assert!(result.estimate.is_finite());
    }

    #[test]
    fn scaled_region_scales_the_estimate() {
        let f = FnIntegrand::new(2, |_: &[f64]| 1.0);
        let region = Region::new(vec![0.0, 0.0], vec![2.0, 3.0]);
        let result = mc(1e-6, 1_000_000).integrate_region(&f, &region);
        assert!((result.estimate - 6.0).abs() < 1e-9);
    }

    #[test]
    fn runs_are_reproducible_for_a_fixed_seed() {
        let f = PaperIntegrand::f4(3);
        let a = mc(1e-3, 500_000).integrate(&f);
        let b = mc(1e-3, 500_000).integrate(&f);
        assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
        assert_eq!(a.function_evaluations, b.function_evaluations);
    }
}
