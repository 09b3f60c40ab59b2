//! The unified front door: one [`Integrator`] trait for every method in the
//! workspace.
//!
//! The paper's evaluation treats PAGANI, Cuhre, the two-phase method and
//! (quasi-)Monte Carlo as interchangeable answers to one question — *integrate
//! `f` over these bounds to tolerance τ* — and a serving front-end needs the
//! same shape: pick a method at runtime, hand it an integrand and bounds, get
//! back one [`IntegrationResult`].  `Integrator` is that dyn-dispatchable
//! contract.  `Pagani` implements it here; the four baselines implement it in
//! `pagani-baselines`, and `MethodConfig::build` there turns a
//! configuration value into a `Box<dyn Integrator>`.
//!
//! All methods accept bounds identically: a single [`Region`] through
//! [`Integrator::integrate_region`], the integrand's default bounds through
//! [`Integrator::integrate`], or any `&[Region]` cover of a disjoint union
//! through [`Integrator::integrate_regions`] — the slice form is implemented
//! once, here, so no method can re-declare its own shape.
//!
//! Cancellation is part of the contract: the one *required* entry point,
//! [`Integrator::integrate_region_cancellable`], threads a [`CancelToken`]
//! through every method, and each driver polls it at its iteration (or
//! heap-pop, or sampling-round) boundary through the one shared
//! [`check_cancelled`] hook — so `Termination::Cancelled` means the same thing
//! whatever the method: the run stopped within one checkpoint of the request,
//! carrying its partial statistics.
//!
//! In the serving stack this trait is **layer 1**: every job a lane claims
//! runs through it.  [`crate::IntegrationService`] (one device) and
//! [`crate::MultiDeviceService`] (N lanes) are both facades over one private
//! scheduler on top of it; `ARCHITECTURE.md` draws the full picture.

use std::time::Duration;

use pagani_device::Device;
use pagani_quadrature::{Integrand, IntegrationResult, Region, Termination, Tolerances};

use crate::arena::ScratchArena;
use crate::driver::{CancelToken, Pagani};

/// What a method can and cannot do, for runtime method selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capabilities {
    /// Repeated runs on equal inputs are bit-identical.
    pub deterministic: bool,
    /// The method launches kernels on the simulated device (and therefore
    /// profits from its worker pool) rather than running on the host alone.
    pub uses_device: bool,
    /// The method subdivides the domain adaptively.
    pub adaptive: bool,
    /// The error estimate is statistical (a standard error across randomised
    /// replicas) rather than a cubature-style error bound estimate.
    pub statistical_errors: bool,
    /// Smallest supported dimensionality.
    pub min_dim: usize,
    /// Largest supported dimensionality, if bounded.
    pub max_dim: Option<usize>,
}

impl Capabilities {
    /// Whether the method supports `dim`-dimensional integrands.
    #[must_use]
    pub fn supports_dim(&self, dim: usize) -> bool {
        dim >= self.min_dim && self.max_dim.is_none_or(|max| dim <= max)
    }
}

/// A numerical integration method, usable through dynamic dispatch.
///
/// Every method in the workspace — [`Pagani`] and the four baselines —
/// answers the same question through this trait, so harnesses, examples and
/// the serving layer can hold a `Vec<Box<dyn Integrator>>` and sweep methods
/// without per-method code.
///
/// Implementations only provide [`Integrator::integrate_region_cancellable`]
/// (plus the descriptors); the uncancellable, default-bounds and region-slice
/// entry points are derived from it identically for every method.
pub trait Integrator: Send + Sync {
    /// Short stable method name (`"pagani"`, `"cuhre"`, ...), used in tables
    /// and benchmark output.
    fn name(&self) -> &'static str;

    /// What this method can do.
    fn capabilities(&self) -> Capabilities;

    /// Integrate `f` over a single axis-aligned region, polling `cancel` at
    /// every checkpoint (driver iteration, heap pop or sampling round).
    ///
    /// A cancelled run stops within one checkpoint and reports
    /// [`Termination::Cancelled`] together with whatever cumulative estimate
    /// and counters it had accumulated.  An uncancelled token never changes a
    /// result.
    ///
    /// # Panics
    /// Panics if the region and integrand dimensions differ, or the dimension
    /// is outside the method's supported range.
    fn integrate_region_cancellable(
        &self,
        f: &dyn Integrand,
        region: &Region,
        cancel: &CancelToken,
    ) -> IntegrationResult;

    /// Integrate `f` over a single axis-aligned region.
    ///
    /// # Panics
    /// Panics if the region and integrand dimensions differ, or the dimension
    /// is outside the method's supported range.
    fn integrate_region(&self, f: &dyn Integrand, region: &Region) -> IntegrationResult {
        self.integrate_region_cancellable(f, region, &CancelToken::new())
    }

    /// Integrate `f` over its default bounds (the unit cube for the paper's
    /// suite).
    fn integrate(&self, f: &dyn Integrand) -> IntegrationResult {
        let (lo, hi) = f.default_bounds();
        self.integrate_region(f, &Region::new(lo, hi))
    }

    /// Integrate `f` over a disjoint union of regions, one region after
    /// another, and combine the per-region results: estimates, errors,
    /// function evaluations, generated regions, final active-region counts
    /// and wall times are summed (the parts run in sequence, so the call
    /// reads no clock of its own); `iterations` is the maximum over the parts
    /// (the parts are independent runs, not one longer run); the most severe
    /// per-region termination is reported.
    ///
    /// An empty slice yields an exact zero result.
    fn integrate_regions(&self, f: &dyn Integrand, regions: &[Region]) -> IntegrationResult {
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
        for region in regions {
            let part = self.integrate_region(f, region);
            combined.estimate += part.estimate;
            combined.error_estimate += part.error_estimate;
            combined.iterations = combined.iterations.max(part.iterations);
            combined.function_evaluations += part.function_evaluations;
            combined.regions_generated += part.regions_generated;
            combined.active_regions_final += part.active_regions_final;
            combined.termination = worst_termination(combined.termination, part.termination);
            combined.wall_time += part.wall_time;
        }
        combined
    }
}

/// The more severe of two terminations, for combining per-region results:
/// `Cancelled > MemoryExhausted > MaxEvaluations > MaxIterations > Converged`.
#[must_use]
pub fn worst_termination(a: Termination, b: Termination) -> Termination {
    fn severity(t: Termination) -> u8 {
        match t {
            Termination::Converged => 0,
            Termination::MaxIterations => 1,
            Termination::MaxEvaluations => 2,
            Termination::MemoryExhausted => 3,
            Termination::Cancelled => 4,
        }
    }
    if severity(b) > severity(a) {
        b
    } else {
        a
    }
}

/// The one dimension check every method applies to explicit bounds.
///
/// # Panics
/// Panics if the region and integrand dimensions differ.
pub fn ensure_matching_dims<F: Integrand + ?Sized>(f: &F, region: &Region) {
    assert_eq!(
        region.dim(),
        f.dim(),
        "integration region and integrand dimensions differ"
    );
}

/// The one cancellation checkpoint every driver polls.
///
/// Returns `Some(Termination::Cancelled)` when cancellation has been
/// requested, so a driver loop reads as
///
/// ```ignore
/// if let Some(t) = check_cancelled(cancel) {
///     termination = t;
///     break;
/// }
/// ```
///
/// at each of its iteration / heap-pop / sampling-round boundaries.  Sharing
/// this helper (instead of five hand-rolled flag checks) is what keeps
/// `Termination::Cancelled` uniform across methods.
#[must_use]
pub fn check_cancelled(cancel: &CancelToken) -> Option<Termination> {
    cancel.is_cancelled().then_some(Termination::Cancelled)
}

/// Builds a live [`Integrator`] on a device — the hook through which a
/// scheduling service turns a per-job method configuration into the
/// `Box<dyn Integrator>` that actually runs the job.
///
/// `pagani-baselines` implements this for its `MethodConfig` enum, so any of
/// the five methods can ride along with a job; custom factories (a tuned
/// in-house method, a mock for tests) plug into the same slot.
pub trait IntegratorFactory: Send + Sync + std::fmt::Debug {
    /// Stable method name, matching [`Integrator::name`] of the built method.
    fn method_name(&self) -> &'static str;

    /// The error targets the built integrator will pursue, when the
    /// configuration knows them.  Cost-based dispatch uses this to weigh the
    /// job; `None` falls back to the service's default tolerances.
    fn tolerances(&self) -> Option<Tolerances> {
        None
    }

    /// Instantiate the method on `device`.
    fn build(&self, device: &Device) -> Box<dyn Integrator>;
}

impl Integrator for Pagani {
    fn name(&self) -> &'static str {
        "pagani"
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
        Pagani::integrate_region_with(self, f, region, &ScratchArena::default(), cancel).result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PaganiConfig;
    use pagani_device::Device;
    use pagani_quadrature::{FnIntegrand, Tolerances};

    fn boxed_pagani(tol: f64) -> Box<dyn Integrator> {
        Box::new(Pagani::new(
            Device::test_small(),
            PaganiConfig::test_small(Tolerances::rel(tol)),
        ))
    }

    #[test]
    fn dyn_dispatch_matches_the_inherent_api() {
        let f = FnIntegrand::new(2, |x: &[f64]| x[0] * x[0] + x[1]);
        let pagani = Pagani::new(
            Device::test_small(),
            PaganiConfig::test_small(Tolerances::rel(1e-6)),
        );
        let inherent = pagani.integrate(&f).result;
        let trait_obj: &dyn Integrator = &pagani;
        let dynamic = trait_obj.integrate(&f);
        assert_eq!(inherent.estimate.to_bits(), dynamic.estimate.to_bits());
        assert_eq!(trait_obj.name(), "pagani");
        assert!(trait_obj.capabilities().deterministic);
        assert!(trait_obj.capabilities().supports_dim(5));
        assert!(!trait_obj.capabilities().supports_dim(31));
    }

    #[test]
    fn region_slice_matches_the_whole_domain() {
        let f = FnIntegrand::new(2, |x: &[f64]| x[0] + x[1]);
        let integrator = boxed_pagani(1e-8);
        let whole = integrator.integrate(&f);
        let (left, right) = Region::unit_cube(2).split(0);
        let halves = integrator.integrate_regions(&f, &[left, right]);
        assert!(whole.converged() && halves.converged());
        assert!((whole.estimate - halves.estimate).abs() < 1e-7);
    }

    #[test]
    fn empty_region_slice_is_exactly_zero() {
        let f = FnIntegrand::new(2, |_: &[f64]| 1.0);
        let result = boxed_pagani(1e-3).integrate_regions(&f, &[]);
        assert_eq!(result.estimate, 0.0);
        assert_eq!(result.function_evaluations, 0);
        assert!(result.converged());
    }

    #[test]
    fn termination_severity_ordering() {
        use Termination::*;
        assert_eq!(worst_termination(Converged, MaxIterations), MaxIterations);
        assert_eq!(
            worst_termination(MemoryExhausted, MaxEvaluations),
            MemoryExhausted
        );
        assert_eq!(worst_termination(Cancelled, MemoryExhausted), Cancelled);
        assert_eq!(worst_termination(Converged, Converged), Converged);
    }

    #[test]
    #[should_panic(expected = "dimensions differ")]
    fn dimension_mismatch_is_rejected() {
        let f = FnIntegrand::new(2, |_: &[f64]| 1.0);
        ensure_matching_dims(&f, &Region::unit_cube(3));
    }

    #[test]
    fn check_cancelled_mirrors_the_token() {
        let token = CancelToken::new();
        assert_eq!(check_cancelled(&token), None);
        token.cancel();
        assert_eq!(check_cancelled(&token), Some(Termination::Cancelled));
        // Idempotent: asking again reports the same thing.
        assert_eq!(check_cancelled(&token), Some(Termination::Cancelled));
    }

    #[test]
    fn cancellable_trait_entry_point_honours_a_pre_cancelled_token() {
        let f = FnIntegrand::new(2, |x: &[f64]| x[0] + x[1]);
        let integrator = boxed_pagani(1e-6);
        let token = CancelToken::new();
        token.cancel();
        let result = integrator.integrate_region_cancellable(&f, &Region::unit_cube(2), &token);
        assert_eq!(result.termination, Termination::Cancelled);
        assert_eq!(result.iterations, 0);
    }

    #[test]
    fn cancellable_trait_entry_point_is_bit_transparent_when_uncancelled() {
        let f = FnIntegrand::new(2, |x: &[f64]| x[0] * x[0] + x[1]);
        let integrator = boxed_pagani(1e-6);
        let plain = integrator.integrate_region(&f, &Region::unit_cube(2));
        let with_token =
            integrator.integrate_region_cancellable(&f, &Region::unit_cube(2), &CancelToken::new());
        assert_eq!(plain.estimate.to_bits(), with_token.estimate.to_bits());
    }
}
