//! Dynamic method selection: one configuration enum, five integrators.
//!
//! The paper's evaluation sweeps PAGANI against its baselines over a grid of
//! tolerances; a serving front-end picks a method per request.  Both want the
//! same thing: turn a *value* describing a method into a live
//! `Box<dyn Integrator>`.  [`MethodConfig`] is that value — one variant per
//! method, wrapping the method's own configuration type — and
//! [`MethodConfig::build`] instantiates it:
//!
//! ```
//! use pagani_baselines::MethodConfig;
//! use pagani_core::PaganiConfig;
//! use pagani_device::Device;
//! use pagani_quadrature::{FnIntegrand, Tolerances};
//!
//! let device = Device::test_small();
//! let integrator = MethodConfig::Pagani(PaganiConfig::test_small(Tolerances::rel(1e-3)))
//!     .with_tolerances(Tolerances::rel(1e-5))
//!     .build(&device);
//! let f = FnIntegrand::new(2, |x: &[f64]| x[0] + x[1]);
//! let result = integrator.integrate(&f);
//! assert!(result.converged());
//! assert_eq!(integrator.name(), "pagani");
//! ```

use pagani_core::{Integrator, IntegratorFactory, Pagani, PaganiConfig};
use pagani_device::Device;
use pagani_quadrature::Tolerances;

use crate::cuhre::{Cuhre, CuhreConfig};
use crate::monte_carlo::{MonteCarlo, MonteCarloConfig};
use crate::qmc::{Qmc, QmcConfig};
use crate::two_phase::{TwoPhase, TwoPhaseConfig};

/// The configuration of any integration method in the workspace.
///
/// Each variant wraps the method's own configuration type unchanged, so every
/// knob stays reachable; [`MethodConfig::build`] instantiates the matching
/// [`Integrator`] on a device.
#[derive(Debug, Clone, PartialEq)]
pub enum MethodConfig {
    /// The PAGANI algorithm (breadth-first parallel adaptive).
    Pagani(PaganiConfig),
    /// Sequential Cuhre (max-error-first heap, host only).
    Cuhre(CuhreConfig),
    /// The two-phase GPU method of Arumugam et al.
    TwoPhase(TwoPhaseConfig),
    /// Randomized quasi-Monte Carlo (shifted Halton points).
    Qmc(QmcConfig),
    /// Plain Monte Carlo with a sample-variance error estimate.
    MonteCarlo(MonteCarloConfig),
}

impl MethodConfig {
    /// The method's stable name, matching [`Integrator::name`] of the built
    /// integrator.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            MethodConfig::Pagani(_) => "pagani",
            MethodConfig::Cuhre(_) => "cuhre",
            MethodConfig::TwoPhase(_) => "two-phase",
            MethodConfig::Qmc(_) => "qmc",
            MethodConfig::MonteCarlo(_) => "monte-carlo",
        }
    }

    /// The configured error targets.
    #[must_use]
    pub fn tolerances(&self) -> Tolerances {
        match self {
            MethodConfig::Pagani(c) => c.tolerances,
            MethodConfig::Cuhre(c) => c.tolerances,
            MethodConfig::TwoPhase(c) => c.tolerances,
            MethodConfig::Qmc(c) => c.tolerances,
            MethodConfig::MonteCarlo(c) => c.tolerances,
        }
    }

    /// Replace the error targets, keeping every other knob.
    #[must_use]
    pub fn with_tolerances(mut self, tolerances: Tolerances) -> Self {
        match &mut self {
            MethodConfig::Pagani(c) => c.tolerances = tolerances,
            MethodConfig::Cuhre(c) => c.tolerances = tolerances,
            MethodConfig::TwoPhase(c) => c.tolerances = tolerances,
            MethodConfig::Qmc(c) => c.tolerances = tolerances,
            MethodConfig::MonteCarlo(c) => c.tolerances = tolerances,
        }
        self
    }

    /// Instantiate the configured method on `device`.
    ///
    /// Host-only methods (Cuhre) ignore the device; every other method clones
    /// the handle and launches its kernels on it.
    #[must_use]
    pub fn build(&self, device: &Device) -> Box<dyn Integrator> {
        match self {
            MethodConfig::Pagani(c) => Box::new(Pagani::new(device.clone(), c.clone())),
            MethodConfig::Cuhre(c) => Box::new(Cuhre::new(c.clone())),
            MethodConfig::TwoPhase(c) => Box::new(TwoPhase::new(device.clone(), c.clone())),
            MethodConfig::Qmc(c) => Box::new(Qmc::new(device.clone(), c.clone())),
            MethodConfig::MonteCarlo(c) => Box::new(MonteCarlo::new(device.clone(), c.clone())),
        }
    }

    /// Every method at its paper-default configuration for `tolerances`.
    #[must_use]
    pub fn all(tolerances: Tolerances) -> Vec<MethodConfig> {
        vec![
            MethodConfig::Pagani(PaganiConfig::new(tolerances)),
            MethodConfig::Cuhre(CuhreConfig::new(tolerances)),
            MethodConfig::TwoPhase(TwoPhaseConfig::new(tolerances)),
            MethodConfig::Qmc(QmcConfig::new(tolerances)),
            MethodConfig::MonteCarlo(MonteCarloConfig::new(tolerances)),
        ]
    }
}

/// A [`MethodConfig`] *is* an integrator factory: jobs submitted to the
/// scheduling service carry one as their per-job method override
/// (`BatchJob::with_method`), and the service builds the configured method on
/// the job's device view when the job is claimed.
impl IntegratorFactory for MethodConfig {
    fn method_name(&self) -> &'static str {
        self.name()
    }

    fn tolerances(&self) -> Option<Tolerances> {
        Some(MethodConfig::tolerances(self))
    }

    fn build(&self, device: &Device) -> Box<dyn Integrator> {
        MethodConfig::build(self, device)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pagani_quadrature::FnIntegrand;

    #[test]
    fn all_methods_build_and_answer_through_the_trait() {
        let device = Device::test_small();
        let f = FnIntegrand::new(2, |x: &[f64]| 1.0 + x[0] * x[1]);
        for config in MethodConfig::all(Tolerances::rel(1e-3)) {
            let integrator = config.build(&device);
            assert_eq!(integrator.name(), config.name());
            assert!(integrator.capabilities().supports_dim(2));
            let result = integrator.integrate(&f);
            assert!(
                result.converged(),
                "{} did not converge on the easy polynomial",
                config.name()
            );
            assert!(
                (result.estimate - 1.25).abs() < 5e-3,
                "{}: estimate {}",
                config.name(),
                result.estimate
            );
        }
    }

    #[test]
    fn builder_tolerance_override_applies_to_any_method() {
        let tight = Tolerances::rel(1e-7);
        for config in MethodConfig::all(Tolerances::rel(1e-3)) {
            let overridden = config.with_tolerances(tight);
            assert!((overridden.tolerances().rel - 1e-7).abs() < 1e-20);
        }
    }

    #[test]
    fn builder_example_shape_compiles_and_runs() {
        let device = Device::test_small();
        let integrator = MethodConfig::Pagani(PaganiConfig::test_small(Tolerances::rel(1e-3)))
            .with_tolerances(Tolerances::rel(1e-6))
            .build(&device);
        let f = FnIntegrand::new(2, |x: &[f64]| x[0] + x[1]);
        let result = integrator.integrate(&f);
        assert!(result.converged());
        assert!((result.estimate - 1.0).abs() < 1e-6);
    }

    #[test]
    fn method_names_are_distinct() {
        let names: Vec<_> = MethodConfig::all(Tolerances::default())
            .iter()
            .map(MethodConfig::name)
            .collect();
        let mut deduped = names.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), names.len());
    }
}
