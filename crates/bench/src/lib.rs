//! Shared harness for the figure-reproduction benchmarks.
//!
//! Every figure of the paper's evaluation has a `[[bench]]` target in this crate that
//! prints the same rows/series the figure plots.  The helpers here keep the targets
//! small: device construction, the tolerance sweep, one `run_*` function per method
//! and a common row printer.
//!
//! Environment knobs (all optional):
//!
//! * `PAGANI_BENCH_MAX_DIGITS` — highest requested digits-of-precision in the sweeps
//!   (default 5; the paper goes to 10–11).
//! * `PAGANI_BENCH_FULL` — set to `1` to run every integrand the figure uses instead
//!   of the fast default subset.
//! * `PAGANI_BENCH_DEVICE_MB` — simulated device memory in MiB (default 1024).  The
//!   paper's V100 has 16384; smaller values move the memory-exhaustion effects to
//!   lower precision but keep host RSS reasonable.
//! * `PAGANI_BENCH_MAX_EVALS` — evaluation budget for Cuhre/QMC sweeps (default 5·10⁷;
//!   the paper allows 10⁹ for Cuhre).
//! * `PAGANI_BENCH_TWO_PHASE_REGIONS`, `PAGANI_BENCH_TWO_PHASE_HEAP`,
//!   `PAGANI_BENCH_TWO_PHASE_EVALS` — the two-phase method's phase I region target
//!   (default 2048), phase II heap capacity (512) and phase II evaluation budget per
//!   processor (500 000); see [`run_two_phase`].

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

use std::time::Duration;

use pagani_baselines::{Cuhre, CuhreConfig, Qmc, QmcConfig, TwoPhase, TwoPhaseConfig};
use pagani_core::{HeuristicFiltering, Pagani, PaganiConfig, PaganiOutput};
use pagani_device::{Device, DeviceConfig};
use pagani_integrands::paper::PaperIntegrand;
use pagani_quadrature::{IntegrationResult, Tolerances};

/// Read an environment variable as a number, falling back to `default`.
fn env_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Whether the full (paper-scale) sweep was requested.
#[must_use]
pub fn full_sweep() -> bool {
    std::env::var("PAGANI_BENCH_FULL")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// The digits-of-precision sweep: 3 up to `PAGANI_BENCH_MAX_DIGITS` (default 5).
#[must_use]
pub fn digits_sweep() -> Vec<f64> {
    let max: u32 = env_or("PAGANI_BENCH_MAX_DIGITS", 5);
    (3..=max.max(3)).map(f64::from).collect()
}

/// The simulated device used by all figure benchmarks.
#[must_use]
pub fn bench_device() -> Device {
    let mib: usize = env_or("PAGANI_BENCH_DEVICE_MB", 1024);
    Device::new(DeviceConfig::v100_like().with_memory_capacity(mib * (1 << 20)))
}

/// Evaluation budget for the sequential and QMC baselines.
#[must_use]
pub fn baseline_eval_budget() -> u64 {
    env_or("PAGANI_BENCH_MAX_EVALS", 50_000_000)
}

/// Run PAGANI at the requested digits (handles the sign-oscillation flag for f1).
#[must_use]
pub fn run_pagani(device: &Device, integrand: &PaperIntegrand, digits: f64) -> PaganiOutput {
    let mut config = PaganiConfig::new(Tolerances::digits(digits));
    if integrand.is_sign_oscillating() {
        config = config.without_rel_err_filtering();
    }
    Pagani::new(device.clone(), config).integrate(integrand)
}

/// Run PAGANI with an explicit heuristic-filtering mode (Figure 8 ablation).
#[must_use]
pub fn run_pagani_with_filtering(
    device: &Device,
    integrand: &PaperIntegrand,
    digits: f64,
    mode: HeuristicFiltering,
) -> PaganiOutput {
    let mut config = PaganiConfig::new(Tolerances::digits(digits)).with_heuristic_filtering(mode);
    if integrand.is_sign_oscillating() {
        config = config.without_rel_err_filtering();
    }
    Pagani::new(device.clone(), config).integrate(integrand)
}

/// Run the two-phase baseline at the requested digits.
///
/// The phase-I region target and per-processor phase-II budgets are scaled down from
/// the paper's V100 figures (2¹⁵ regions / 2048-region heaps) by the same factor as
/// the default device memory, so that a full sweep stays tractable on a CPU; override
/// with `PAGANI_BENCH_TWO_PHASE_REGIONS` / `PAGANI_BENCH_TWO_PHASE_HEAP` to restore
/// the paper's configuration, and with `PAGANI_BENCH_TWO_PHASE_EVALS` to change each
/// phase II processor's evaluation budget.
#[must_use]
pub fn run_two_phase(
    device: &Device,
    integrand: &PaperIntegrand,
    digits: f64,
) -> IntegrationResult {
    let config = TwoPhaseConfig {
        phase1_region_target: env_or("PAGANI_BENCH_TWO_PHASE_REGIONS", 2048),
        phase2_heap_capacity: env_or("PAGANI_BENCH_TWO_PHASE_HEAP", 512),
        phase2_max_evaluations: env_or("PAGANI_BENCH_TWO_PHASE_EVALS", 500_000),
        ..TwoPhaseConfig::new(Tolerances::digits(digits))
    };
    TwoPhase::new(device.clone(), config).integrate(integrand)
}

/// Run sequential Cuhre at the requested digits with the benchmark evaluation budget.
#[must_use]
pub fn run_cuhre(integrand: &PaperIntegrand, digits: f64) -> IntegrationResult {
    Cuhre::new(
        CuhreConfig::new(Tolerances::digits(digits)).with_max_evaluations(baseline_eval_budget()),
    )
    .integrate(integrand)
}

/// Run the QMC baseline at the requested digits with the benchmark evaluation budget.
#[must_use]
pub fn run_qmc(device: &Device, integrand: &PaperIntegrand, digits: f64) -> IntegrationResult {
    Qmc::new(
        device.clone(),
        QmcConfig::new(Tolerances::digits(digits)).with_max_evaluations(baseline_eval_budget()),
    )
    .integrate(integrand)
}

/// Milliseconds as a float, for printing.
#[must_use]
pub fn millis(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// Print the standard experiment banner.
pub fn banner(figure: &str, description: &str) {
    println!("==============================================================================");
    println!("{figure}: {description}");
    println!(
        "  sweep: digits {:?}   device memory: {} MiB   full sweep: {}",
        digits_sweep(),
        env_or::<usize>("PAGANI_BENCH_DEVICE_MB", 1024),
        full_sweep()
    );
    println!("==============================================================================");
}

/// A single result row of a figure table.
pub fn print_result_row(
    integrand: &PaperIntegrand,
    method: &str,
    digits: f64,
    result: &IntegrationResult,
) {
    println!(
        "{:<8} {:<12} digits {:>4}  time {:>10.1} ms  est.rel.err {:>9.2e}  true.rel.err {:>9.2e}  regions {:>10}  converged {}",
        integrand.label(),
        method,
        digits,
        millis(result.wall_time),
        result.relative_error_estimate(),
        result.true_relative_error(integrand.reference_value()),
        result.regions_generated,
        result.converged(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digits_sweep_starts_at_three() {
        let sweep = digits_sweep();
        assert_eq!(sweep[0], 3.0);
        assert!(sweep.len() >= 3);
    }

    #[test]
    fn bench_device_has_configured_memory() {
        let device = bench_device();
        assert!(device.config().memory_capacity >= 1 << 20);
    }

    #[test]
    fn harness_runs_every_method_on_a_small_case() {
        let device = Device::test_small();
        let f = PaperIntegrand::f4(3);
        let p = run_pagani(&device, &f, 3.0);
        assert!(p.result.converged());
        let c = run_cuhre(&f, 3.0);
        assert!(c.converged());
        let t = run_two_phase(&device, &f, 3.0);
        assert!(t.estimate.is_finite());
        let q = run_qmc(&device, &f, 3.0);
        assert!(q.estimate.is_finite());
    }
}
