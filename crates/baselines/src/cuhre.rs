//! Sequential Cuhre: the fastest open-source deterministic adaptive method (§2.1).
//!
//! Cuhre follows the generic sequential adaptive loop (Algorithm 1): keep every region
//! in a priority queue ordered by error estimate, repeatedly split the worst region in
//! two along the axis chosen by the Genz–Malik rule, and stop when the cumulative
//! relative error satisfies the tolerance or the evaluation budget runs out.  The
//! error estimates are refined with Berntsen's two-level estimate, matching the
//! `final=1` setting the paper uses for Cuba.
//!
//! That loop is written once, here: the two-phase method's phase II runs it on
//! each region phase I leaves, with a bounded heap (§2.2.1).

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

use pagani_core::integrator::{check_cancelled, ensure_matching_dims, Capabilities, Integrator};
use pagani_core::CancelToken;
use pagani_quadrature::two_level::refine_error;
use pagani_quadrature::{
    EvalScratch, GenzMalik, Integrand, IntegrationResult, Region, Termination, Tolerances,
};

/// Configuration of the sequential Cuhre baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct CuhreConfig {
    /// Relative / absolute error targets.
    pub tolerances: Tolerances,
    /// Maximum number of integrand evaluations (the paper sets 10⁹).
    pub max_evaluations: u64,
}

impl CuhreConfig {
    /// Configuration with the paper's defaults for a given tolerance.
    #[must_use]
    pub fn new(tolerances: Tolerances) -> Self {
        Self {
            tolerances,
            max_evaluations: 1_000_000_000,
        }
    }

    /// Configuration targeting `digits` decimal digits of relative precision.
    #[must_use]
    pub fn digits(digits: f64) -> Self {
        Self::new(Tolerances::digits(digits))
    }

    /// Cap the evaluation budget (useful for tests and benchmark sweeps).
    #[must_use]
    pub fn with_max_evaluations(mut self, max: u64) -> Self {
        self.max_evaluations = max;
        self
    }
}

impl Default for CuhreConfig {
    fn default() -> Self {
        Self::new(Tolerances::default())
    }
}

/// A region in the Cuhre heap.
#[derive(Debug, Clone)]
struct HeapRegion {
    region: Region,
    integral: f64,
    error: f64,
    split_axis: usize,
}

impl PartialEq for HeapRegion {
    fn eq(&self, other: &Self) -> bool {
        self.error == other.error
    }
}
impl Eq for HeapRegion {}
impl PartialOrd for HeapRegion {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapRegion {
    fn cmp(&self, other: &Self) -> Ordering {
        self.error
            .partial_cmp(&other.error)
            .unwrap_or(Ordering::Equal)
    }
}

/// The sequential Cuhre integrator.
#[derive(Debug, Clone)]
pub struct Cuhre {
    config: CuhreConfig,
}

impl Cuhre {
    /// Create an integrator with `config`.
    #[must_use]
    pub fn new(config: CuhreConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &CuhreConfig {
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
    /// Panics if the region and integrand dimensions differ or the dimension is
    /// outside the Genz–Malik range (2..=30).
    pub fn integrate_region<F: Integrand + ?Sized>(
        &self,
        f: &F,
        region: &Region,
    ) -> IntegrationResult {
        self.integrate_region_cancellable(f, region, &CancelToken::new())
    }

    /// Integrate `f` over an explicit region, polling `cancel` at every heap
    /// pop (the sequential loop's iteration boundary).  A cancelled run
    /// reports [`Termination::Cancelled`] with the cumulative estimate and
    /// counters accumulated so far; an uncancelled token never changes a
    /// result.
    ///
    /// # Panics
    /// Panics if the region and integrand dimensions differ or the dimension is
    /// outside the Genz–Malik range (2..=30).
    pub fn integrate_region_cancellable<F: Integrand + ?Sized>(
        &self,
        f: &F,
        region: &Region,
        cancel: &CancelToken,
    ) -> IntegrationResult {
        ensure_matching_dims(f, region);
        let start = Instant::now();
        let result = sequential(
            f,
            &GenzMalik::new(f.dim()),
            region,
            self.config.tolerances,
            self.config.max_evaluations,
            usize::MAX,
            cancel,
        );
        IntegrationResult {
            wall_time: start.elapsed(),
            ..result
        }
    }
}

/// The sequential adaptive loop (Algorithm 1) on one region.  Before each heap
/// pop it stops on the first of: tolerances met, `cancel` set,
/// `max_evaluations` spent, `heap_capacity` regions held
/// ([`Termination::MemoryExhausted`]), an empty heap.  Cuhre passes
/// `usize::MAX` as the capacity, each two-phase phase II processor its local
/// heap size.  `wall_time` is zero: a caller that reports one times the call.
pub(crate) fn sequential<F: Integrand + ?Sized>(
    f: &F,
    rule: &GenzMalik,
    region: &Region,
    tolerances: Tolerances,
    max_evaluations: u64,
    heap_capacity: usize,
    cancel: &CancelToken,
) -> IntegrationResult {
    let mut scratch = EvalScratch::new(rule.dim());
    let first = rule.evaluate(f, region, &mut scratch);
    let mut evaluations = first.evaluations as u64;
    let mut heap = BinaryHeap::new();
    heap.push(HeapRegion {
        region: region.clone(),
        integral: first.integral,
        error: first.error,
        split_axis: first.split_axis,
    });
    let mut total_integral = first.integral;
    let mut total_error = first.error;
    let mut regions_generated = 1u64;
    let mut iterations = 0usize;
    let termination;

    loop {
        if tolerances.satisfied_by(total_integral, total_error) {
            termination = Termination::Converged;
            break;
        }
        // Cancellation checkpoint: one per heap pop, after the convergence
        // check so a run that already satisfied its tolerances keeps its
        // converged status even when a cancel races the finish.
        if let Some(cancelled) = check_cancelled(cancel) {
            termination = cancelled;
            break;
        }
        if evaluations >= max_evaluations {
            termination = Termination::MaxEvaluations;
            break;
        }
        if heap.len() >= heap_capacity {
            termination = Termination::MemoryExhausted;
            break;
        }
        let Some(worst) = heap.pop() else {
            termination = Termination::MaxIterations;
            break;
        };
        iterations += 1;
        let (left, right) = worst.region.split(worst.split_axis);
        let left_est = rule.evaluate(f, &left, &mut scratch);
        let right_est = rule.evaluate(f, &right, &mut scratch);
        evaluations += (left_est.evaluations + right_est.evaluations) as u64;
        regions_generated += 2;

        let left_err = refine_error(
            left_est.integral,
            left_est.error,
            right_est.integral,
            right_est.error,
            worst.integral,
        );
        let right_err = refine_error(
            right_est.integral,
            right_est.error,
            left_est.integral,
            left_est.error,
            worst.integral,
        );
        total_integral += left_est.integral + right_est.integral - worst.integral;
        total_error += left_err + right_err - worst.error;

        heap.push(HeapRegion {
            region: left,
            integral: left_est.integral,
            error: left_err,
            split_axis: left_est.split_axis,
        });
        heap.push(HeapRegion {
            region: right,
            integral: right_est.integral,
            error: right_err,
            split_axis: right_est.split_axis,
        });
    }

    IntegrationResult {
        estimate: total_integral,
        error_estimate: total_error,
        termination,
        iterations,
        function_evaluations: evaluations,
        regions_generated,
        active_regions_final: heap.len(),
        wall_time: Duration::ZERO,
    }
}

impl Integrator for Cuhre {
    fn name(&self) -> &'static str {
        "cuhre"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            deterministic: true,
            uses_device: false,
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
        Cuhre::integrate_region_cancellable(self, f, region, cancel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pagani_integrands::paper::PaperIntegrand;
    use pagani_integrands::workloads::GaussianLikelihood;
    use pagani_quadrature::FnIntegrand;

    fn cuhre(rel: f64) -> Cuhre {
        Cuhre::new(CuhreConfig::new(Tolerances::rel(rel)).with_max_evaluations(20_000_000))
    }

    #[test]
    fn constant_converges_without_splitting() {
        let result = cuhre(1e-6).integrate(&FnIntegrand::new(3, |_: &[f64]| 2.0));
        assert!(result.converged());
        assert!((result.estimate - 2.0).abs() < 1e-10);
        assert_eq!(result.iterations, 0);
        assert_eq!(result.regions_generated, 1);
    }

    #[test]
    fn gaussian_3d_reaches_requested_digits() {
        let f = PaperIntegrand::f4(3);
        for digits in [3.0, 5.0] {
            let result = cuhre(10f64.powf(-digits)).integrate(&f);
            assert!(result.converged(), "digits {digits}");
            assert!(
                result.true_relative_error(f.reference_value()) < 10f64.powf(-digits),
                "digits {digits}: true error {}",
                result.true_relative_error(f.reference_value())
            );
        }
    }

    #[test]
    fn corner_peak_3d_is_accurate() {
        let f = PaperIntegrand::f3(3);
        let result = cuhre(1e-6).integrate(&f);
        assert!(result.converged());
        assert!(result.true_relative_error(f.reference_value()) < 1e-6);
    }

    #[test]
    fn c0_ridge_3d_is_accurate() {
        let f = PaperIntegrand::f5(3);
        let result = cuhre(1e-4).integrate(&f);
        assert!(result.converged());
        assert!(result.true_relative_error(f.reference_value()) < 1e-4);
    }

    #[test]
    fn oscillatory_3d_is_accurate() {
        let f = PaperIntegrand::f1(3);
        let result = cuhre(1e-5).integrate(&f);
        assert!(result.converged());
        assert!(result.true_relative_error(f.reference_value()) < 1e-5);
    }

    #[test]
    fn evaluation_budget_is_respected() {
        let f = PaperIntegrand::f4(5);
        let budget = 50_000;
        let result =
            Cuhre::new(CuhreConfig::new(Tolerances::rel(1e-10)).with_max_evaluations(budget))
                .integrate(&f);
        assert!(!result.converged());
        assert_eq!(result.termination, Termination::MaxEvaluations);
        // One extra region evaluation pair may be in flight when the budget trips.
        let per_region = GenzMalik::new(5).num_points() as u64;
        assert!(result.function_evaluations <= budget + 2 * per_region);
    }

    #[test]
    fn likelihood_matches_closed_form() {
        let like = GaussianLikelihood::cosmology_like(3);
        let result = cuhre(1e-6).integrate(&like);
        assert!(result.converged());
        assert!(result.true_relative_error(like.reference_value()) < 1e-6);
    }

    #[test]
    fn tighter_tolerance_needs_more_regions() {
        let f = PaperIntegrand::f4(3);
        let loose = cuhre(1e-3).integrate(&f);
        let tight = cuhre(1e-6).integrate(&f);
        assert!(tight.regions_generated > loose.regions_generated);
        assert!(tight.function_evaluations > loose.function_evaluations);
    }

    #[test]
    fn pre_cancelled_token_stops_after_the_initial_estimate() {
        let f = PaperIntegrand::f4(4);
        let token = pagani_core::CancelToken::new();
        token.cancel();
        let result = cuhre(1e-8).integrate_region_cancellable(&f, &Region::unit_cube(4), &token);
        assert_eq!(result.termination, Termination::Cancelled);
        assert_eq!(result.iterations, 0, "no heap pop may follow a cancel");
        // Partial stats stay intact: the initial whole-domain estimate ran.
        assert!(result.function_evaluations > 0);
        assert!(result.estimate.is_finite());
    }

    #[test]
    fn uncancelled_token_is_bit_transparent() {
        let f = PaperIntegrand::f4(3);
        let plain = cuhre(1e-5).integrate(&f);
        let with_token = cuhre(1e-5).integrate_region_cancellable(
            &f,
            &Region::unit_cube(3),
            &pagani_core::CancelToken::new(),
        );
        assert_eq!(plain.estimate.to_bits(), with_token.estimate.to_bits());
        assert_eq!(plain.function_evaluations, with_token.function_evaluations);
    }
}
