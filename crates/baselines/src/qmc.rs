//! Randomized quasi-Monte Carlo integration with error estimates (§2.3, Figure 7).
//!
//! The paper compares PAGANI against the GPU QMC library of Borowka et al., which uses
//! randomly-shifted rank-1 lattice rules and — unlike most QMC codes — returns an error
//! estimate, making it directly comparable to cubature methods.  This baseline keeps
//! the same contract with a simpler low-discrepancy construction: Halton points with
//! independent Cranley–Patterson random shifts.  Each shift produces an independent,
//! unbiased estimate of the integral; the reported value is their mean and the error
//! estimate is the standard error across shifts.  The number of points per shift is
//! doubled until the requested tolerance is met or the sample budget is exhausted.

use std::time::Instant;

use pagani_core::integrator::{check_cancelled, ensure_matching_dims, Capabilities, Integrator};
use pagani_core::CancelToken;
use pagani_device::Device;
use pagani_quadrature::{Integrand, IntegrationResult, Region, Termination, Tolerances};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The first thirty primes, used as Halton bases (dimension ≤ 30, like Genz–Malik).
const PRIMES: [u32; 30] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113,
];

/// Radical-inverse function in base `base` (the building block of Halton sequences).
#[must_use]
pub fn radical_inverse(mut index: u64, base: u32) -> f64 {
    let base = f64::from(base);
    let mut inverse = 0.0;
    let mut factor = 1.0 / base;
    while index > 0 {
        inverse += (index % base as u64) as f64 * factor;
        index /= base as u64;
        factor /= base;
    }
    inverse
}

/// Configuration of the QMC baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct QmcConfig {
    /// Relative / absolute error targets.
    pub tolerances: Tolerances,
    /// Number of independent random shifts (the error estimate averages over these).
    pub shifts: usize,
    /// Points per shift in the first round.
    pub initial_points: u64,
    /// Maximum total number of integrand evaluations.
    pub max_evaluations: u64,
    /// Seed for the shift generator (fixed by default for reproducible benchmarks).
    pub seed: u64,
}

impl QmcConfig {
    /// Configuration with sensible defaults for a given tolerance.
    #[must_use]
    pub fn new(tolerances: Tolerances) -> Self {
        Self {
            tolerances,
            shifts: 16,
            initial_points: 1 << 10,
            max_evaluations: 200_000_000,
            seed: 0x5eed_cafe,
        }
    }

    /// Configuration targeting `digits` decimal digits of relative precision.
    #[must_use]
    pub fn digits(digits: f64) -> Self {
        Self::new(Tolerances::digits(digits))
    }

    /// Cap the evaluation budget.
    #[must_use]
    pub fn with_max_evaluations(mut self, max: u64) -> Self {
        self.max_evaluations = max;
        self
    }
}

impl Default for QmcConfig {
    fn default() -> Self {
        Self::new(Tolerances::default())
    }
}

/// The randomized QMC integrator.
#[derive(Debug, Clone)]
pub struct Qmc {
    device: Device,
    config: QmcConfig,
}

impl Qmc {
    /// Create an integrator on `device` with `config`.
    #[must_use]
    pub fn new(device: Device, config: QmcConfig) -> Self {
        Self { device, config }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &QmcConfig {
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
    /// Panics if the region and integrand dimensions differ or the dimension exceeds
    /// the number of Halton bases (30).
    pub fn integrate_region<F: Integrand + ?Sized>(
        &self,
        f: &F,
        region: &Region,
    ) -> IntegrationResult {
        self.integrate_region_cancellable(f, region, &CancelToken::new())
    }

    /// Integrate `f` over an explicit region, polling `cancel` at every
    /// point-doubling round.  A cancelled run reports
    /// [`Termination::Cancelled`] with the estimate of the last completed
    /// round; an uncancelled token never changes a result.
    ///
    /// # Panics
    /// Panics if the region and integrand dimensions differ or the dimension exceeds
    /// the number of Halton bases (30).
    pub fn integrate_region_cancellable<F: Integrand + ?Sized>(
        &self,
        f: &F,
        region: &Region,
        cancel: &CancelToken,
    ) -> IntegrationResult {
        ensure_matching_dims(f, region);
        let dim = f.dim();
        assert!(
            dim <= PRIMES.len(),
            "QMC baseline supports up to 30 dimensions"
        );
        let start = Instant::now();
        let tolerances = self.config.tolerances;
        let volume = region.volume();

        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let shifts: Vec<Vec<f64>> = (0..self.config.shifts)
            .map(|_| (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();

        let mut points_per_shift = self.config.initial_points;
        let mut evaluations = 0u64;
        let mut iterations = 0usize;

        let mut shift_means = vec![0.0f64; shifts.len()];
        let (estimate, error, termination) = loop {
            iterations += 1;
            // One simulated block per shift; each block streams its Halton
            // points and writes its mean into its own lane slot.
            self.device
                .launch_batch(
                    "qmc.sample",
                    shifts.len(),
                    1,
                    &mut shift_means,
                    |block, out| {
                        let shift = &shifts[block];
                        let mut sum = 0.0;
                        let mut point = vec![0.0; dim];
                        for k in 0..points_per_shift {
                            for (axis, coord) in point.iter_mut().enumerate() {
                                let u = radical_inverse(k + 1, PRIMES[axis]) + shift[axis];
                                let u = u - u.floor();
                                *coord = region.lo()[axis] + u * region.extent(axis);
                            }
                            sum += f.eval(&point);
                        }
                        out[0] = volume * sum / points_per_shift as f64;
                    },
                )
                .expect("QMC launches are never empty");
            evaluations += points_per_shift * shifts.len() as u64;

            let mean: f64 = shift_means.iter().sum::<f64>() / shift_means.len() as f64;
            let variance: f64 = shift_means
                .iter()
                .map(|&m| (m - mean) * (m - mean))
                .sum::<f64>()
                / (shift_means.len().saturating_sub(1).max(1)) as f64;
            let error = (variance / shift_means.len() as f64).sqrt();

            if tolerances.satisfied_by(mean, error) {
                break (mean, error, Termination::Converged);
            }
            // Cancellation checkpoint: once per doubling round, after the
            // convergence check so a finished run keeps its converged status.
            if let Some(cancelled) = check_cancelled(cancel) {
                break (mean, error, cancelled);
            }
            if evaluations.saturating_mul(2) > self.config.max_evaluations {
                break (mean, error, Termination::MaxEvaluations);
            }
            points_per_shift *= 2;
        };

        IntegrationResult {
            estimate,
            error_estimate: error,
            termination,
            iterations,
            function_evaluations: evaluations,
            regions_generated: 0,
            active_regions_final: 0,
            wall_time: start.elapsed(),
        }
    }
}

impl Integrator for Qmc {
    fn name(&self) -> &'static str {
        "qmc"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            // The shift seed is fixed in the config, so reruns are
            // bit-identical even though the error estimate is statistical.
            deterministic: true,
            uses_device: true,
            adaptive: false,
            statistical_errors: true,
            min_dim: 1,
            max_dim: Some(PRIMES.len()),
        }
    }

    fn integrate_region_cancellable(
        &self,
        f: &dyn Integrand,
        region: &Region,
        cancel: &CancelToken,
    ) -> IntegrationResult {
        Qmc::integrate_region_cancellable(self, f, region, cancel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pagani_integrands::paper::PaperIntegrand;
    use pagani_quadrature::FnIntegrand;

    fn qmc(rel: f64) -> Qmc {
        Qmc::new(
            Device::test_small(),
            QmcConfig::new(Tolerances::rel(rel)).with_max_evaluations(20_000_000),
        )
    }

    #[test]
    fn radical_inverse_base_2_is_van_der_corput() {
        assert_eq!(radical_inverse(1, 2), 0.5);
        assert_eq!(radical_inverse(2, 2), 0.25);
        assert_eq!(radical_inverse(3, 2), 0.75);
        assert_eq!(radical_inverse(4, 2), 0.125);
    }

    #[test]
    fn radical_inverse_stays_in_unit_interval() {
        for base in [2, 3, 5, 7, 11] {
            for index in 0..200 {
                let v = radical_inverse(index, base);
                assert!((0.0..1.0).contains(&v), "base {base} index {index}: {v}");
            }
        }
    }

    #[test]
    fn constant_is_exact_immediately() {
        let result = qmc(1e-6).integrate(&FnIntegrand::new(4, |_: &[f64]| 3.0));
        assert!(result.converged());
        assert!((result.estimate - 3.0).abs() < 1e-12);
    }

    #[test]
    fn smooth_product_reaches_moderate_precision() {
        let f = FnIntegrand::new(3, |x: &[f64]| x.iter().map(|&v| 1.0 + 0.5 * v).product());
        let result = qmc(1e-4).integrate(&f);
        assert!(result.converged());
        let exact = 1.25f64.powi(3);
        assert!(
            result.true_relative_error(exact) < 5e-4,
            "true error {}",
            result.true_relative_error(exact)
        );
    }

    #[test]
    fn oscillatory_4d_is_handled() {
        // The oscillatory family is where QMC shines in the paper (Figure 7's 8D f1);
        // the 4-D instance keeps the unit test fast while exercising the same path.
        let f = PaperIntegrand::f1(4);
        let result = qmc(1e-3).integrate(&f);
        assert!(result.converged());
        assert!(
            result.true_relative_error(f.reference_value()) < 1e-2,
            "true error {}",
            result.true_relative_error(f.reference_value())
        );
    }

    #[test]
    fn pre_cancelled_token_stops_after_one_round() {
        let f = PaperIntegrand::f4(5);
        let token = pagani_core::CancelToken::new();
        token.cancel();
        let result = qmc(1e-9).integrate_region_cancellable(
            &f,
            &pagani_quadrature::Region::unit_cube(5),
            &token,
        );
        assert_eq!(result.termination, Termination::Cancelled);
        assert_eq!(result.iterations, 1, "cancel lands at the round boundary");
        assert!(result.function_evaluations > 0);
        assert!(result.estimate.is_finite());
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let f = PaperIntegrand::f4(5);
        let result = Qmc::new(
            Device::test_small(),
            QmcConfig::new(Tolerances::rel(1e-9)).with_max_evaluations(100_000),
        )
        .integrate(&f);
        assert!(!result.converged());
        assert_eq!(result.termination, Termination::MaxEvaluations);
        assert!(result.function_evaluations <= 200_000);
    }

    #[test]
    fn error_estimate_is_honest_for_gaussian() {
        let f = PaperIntegrand::f4(3);
        let result = qmc(1e-3).integrate(&f);
        assert!(result.converged());
        let true_err = result.true_relative_error(f.reference_value());
        // The shift-based error estimate is statistical; allow a 5x slack factor.
        assert!(
            true_err < 5.0 * result.relative_error_estimate().max(1e-3),
            "true {true_err} vs estimated {}",
            result.relative_error_estimate()
        );
    }

    #[test]
    fn doubling_points_reduces_error() {
        let f = PaperIntegrand::f5(3);
        let coarse = Qmc::new(
            Device::test_small(),
            QmcConfig::new(Tolerances::rel(1e-12)).with_max_evaluations(50_000),
        )
        .integrate(&f);
        let fine = Qmc::new(
            Device::test_small(),
            QmcConfig::new(Tolerances::rel(1e-12)).with_max_evaluations(3_000_000),
        )
        .integrate(&f);
        assert!(fine.error_estimate < coarse.error_estimate);
        assert!(
            fine.true_relative_error(f.reference_value())
                <= coarse.true_relative_error(f.reference_value()) * 1.5
        );
    }
}
