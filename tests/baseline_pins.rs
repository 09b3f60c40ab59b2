//! Bit pins for the two baselines built on the sequential adaptive loop
//! (the paper's Algorithm 1): Cuhre, and the two-phase method, whose phase II
//! runs that loop on every region phase I leaves.
//!
//! Each pin holds one run's estimate and error bits, its termination and its
//! counters.  A change to either method that moves one bit or one count fails
//! here, whichever way the run ends: converged in phase I, converged in
//! Cuhre's loop, out of evaluations, or out of phase II heap.  Two more pins
//! take phase I's early exits, at its iteration cap and with no region left
//! to split.  The two-phase pins hold at every device worker count in the
//! matrix.

mod common;

use common::{device_with_workers, worker_matrix};
use pagani::prelude::*;

/// What a pinned run must reproduce exactly.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    estimate_bits: u64,
    error_bits: u64,
    termination: Termination,
    iterations: usize,
    evaluations: u64,
    regions_generated: u64,
    active_regions_final: usize,
}

impl Pin {
    fn of(result: &IntegrationResult) -> Self {
        Self {
            estimate_bits: result.estimate.to_bits(),
            error_bits: result.error_estimate.to_bits(),
            termination: result.termination,
            iterations: result.iterations,
            evaluations: result.function_evaluations,
            regions_generated: result.regions_generated,
            active_regions_final: result.active_regions_final,
        }
    }
}

#[test]
fn cuhre_converged_run_is_pinned() {
    let result = Cuhre::new(CuhreConfig::digits(5.0)).integrate(&PaperIntegrand::f4(3));
    assert_eq!(
        Pin::of(&result),
        Pin {
            estimate_bits: 0x3f37_5af2_408a_3b50,
            error_bits: 0x3e2e_91ec_bc0a_954b,
            termination: Termination::Converged,
            iterations: 1529,
            evaluations: 100_947,
            regions_generated: 3059,
            active_regions_final: 1530,
        }
    );
}

#[test]
fn cuhre_run_out_of_evaluations_is_pinned() {
    let config = CuhreConfig::new(Tolerances::rel(1e-10)).with_max_evaluations(50_000);
    let result = Cuhre::new(config).integrate(&PaperIntegrand::f4(5));
    assert_eq!(
        Pin::of(&result),
        Pin {
            estimate_bits: 0x3ec1_04ad_6f56_e934,
            error_bits: 0x3ec7_bd0d_48eb_c62d,
            termination: Termination::MaxEvaluations,
            iterations: 269,
            evaluations: 50_127,
            regions_generated: 539,
            active_regions_final: 270,
        }
    );
}

/// Phase I target 64, phase II heaps of 8 regions, `evaluations` per phase II
/// processor, 3 digits: small enough that phase II stops every processor on
/// one of its budgets.
fn tight_phase2(evaluations: u64) -> TwoPhaseConfig {
    TwoPhaseConfig {
        phase1_region_target: 64,
        phase2_heap_capacity: 8,
        phase2_max_evaluations: evaluations,
        ..TwoPhaseConfig::digits(3.0)
    }
}

/// Each two-phase pin: what it covers, the configuration, the integrand and
/// the pinned outcome.
fn two_phase_cases() -> Vec<(&'static str, TwoPhaseConfig, Box<dyn Integrand>, Pin)> {
    let small = |digits: f64| TwoPhaseConfig::test_small(Tolerances::digits(digits));
    vec![
        (
            "f3(3) at 3 digits converges in phase I",
            small(3.0),
            Box::new(PaperIntegrand::f3(3)),
            Pin {
                estimate_bits: 0x3f86_36b8_3ac1_09aa,
                error_bits: 0x3e8e_3155_e958_9bd0,
                termination: Termination::Converged,
                iterations: 1,
                evaluations: 16_896,
                regions_generated: 512,
                active_regions_final: 0,
            },
        ),
        (
            "f7(4) at 3 digits converges in phase I",
            small(3.0),
            Box::new(PaperIntegrand::f7(4)),
            Pin {
                estimate_bits: 0x40b1_0ced_faa1_63dc,
                error_bits: 0x3fed_6a02_d471_313d,
                termination: Termination::Converged,
                iterations: 1,
                evaluations: 14_592,
                regions_generated: 256,
                active_regions_final: 0,
            },
        ),
        (
            "1 + x0*x1 at rel 1e-6 converges in phase I",
            TwoPhaseConfig::test_small(Tolerances::rel(1e-6)),
            Box::new(FnIntegrand::new(2, |x: &[f64]| 1.0 + x[0] * x[1])),
            Pin {
                estimate_bits: 0x3ff3_ffff_ffff_fffe,
                error_bits: 0x3caa_1000_0000_0000,
                termination: Termination::Converged,
                iterations: 1,
                evaluations: 8228,
                regions_generated: 484,
                active_regions_final: 0,
            },
        ),
        (
            "f5(3) at 5 digits converges in phase II",
            small(5.0),
            Box::new(PaperIntegrand::f5(3)),
            Pin {
                estimate_bits: 0x3f80_0e17_3912_b0da,
                error_bits: 0x3e6c_d229_acdb_ff05,
                termination: Termination::Converged,
                iterations: 1,
                evaluations: 168_960,
                regions_generated: 5120,
                active_regions_final: 512,
            },
        ),
        (
            "f4(3) with 8-region heaps runs out of phase II memory",
            tight_phase2(5_000),
            Box::new(PaperIntegrand::f4(3)),
            Pin {
                estimate_bits: 0x3f37_5a8c_35c5_6db4,
                error_bits: 0x3ebb_afd8_f51f_0daa,
                termination: Termination::MemoryExhausted,
                iterations: 4,
                evaluations: 33_792,
                regions_generated: 1024,
                active_regions_final: 64,
            },
        ),
        (
            "f4(3) with 400 evaluations per processor runs out of evaluations",
            tight_phase2(400),
            Box::new(PaperIntegrand::f4(3)),
            Pin {
                estimate_bits: 0x3f37_5afd_d027_7b87,
                error_bits: 0x3ec0_d111_fa1f_0f39,
                termination: Termination::MaxEvaluations,
                iterations: 4,
                evaluations: 30_096,
                regions_generated: 912,
                active_regions_final: 64,
            },
        ),
    ]
}

#[test]
fn two_phase_runs_are_pinned_at_every_worker_count() {
    for workers in worker_matrix(&[1, 2]) {
        for (case, config, integrand, pin) in two_phase_cases() {
            let result = TwoPhase::new(device_with_workers(workers), config).integrate(&*integrand);
            assert_eq!(Pin::of(&result), pin, "{case}, {workers} workers");
        }
    }
}

/// An early-exit case: what it covers, the configuration, the integrand, its
/// analytic integral and the pinned outcome.
type ExitCase = (&'static str, TwoPhaseConfig, Box<dyn Integrand>, f64, Pin);

/// Two-phase runs that leave phase I by one of its two early exits.  Each must
/// count every region once, so its estimate lies within 10 × rel_tol of the
/// analytic reference; counting phase I's last generation twice read about
/// twice the reference on both.
#[test]
fn two_phase_early_exits_count_each_region_once() {
    let cases: Vec<ExitCase> = vec![
        (
            "f4(3) at 3 digits with phase I capped at one iteration",
            TwoPhaseConfig {
                max_phase1_iterations: 1,
                ..TwoPhaseConfig::test_small(Tolerances::digits(3.0))
            },
            Box::new(PaperIntegrand::f4(3)),
            PaperIntegrand::f4(3).reference_value(),
            Pin {
                estimate_bits: 0x3f37_5ae4_988b_1f73,
                error_bits: 0x3e96_8200_3253_138c,
                termination: Termination::Converged,
                iterations: 1,
                evaluations: 95_832,
                regions_generated: 2904,
                active_regions_final: 56,
            },
        ),
        (
            // Every region meets rel 1e-7 on its own, but the integral, 1e-5, is
            // a sliver of the integrand's absolute integral, so the summed
            // errors miss it and phase I ends with no region left to split.
            "cos(pi x0) + 1e-5 at rel 1e-7 finishes every region in phase I",
            TwoPhaseConfig::test_small(Tolerances::rel(1e-7)),
            Box::new(FnIntegrand::new(2, |x: &[f64]| {
                (std::f64::consts::PI * x[0]).cos() + 1e-5
            })),
            1e-5,
            Pin {
                estimate_bits: 0x3ee4_f8b5_88db_3600,
                error_bits: 0x3d89_0af9_5800_0000,
                termination: Termination::MaxIterations,
                iterations: 1,
                evaluations: 8228,
                regions_generated: 484,
                active_regions_final: 0,
            },
        ),
    ];
    for workers in worker_matrix(&[1, 2]) {
        for (case, config, integrand, reference, pin) in &cases {
            let rel = config.tolerances.rel;
            let result =
                TwoPhase::new(device_with_workers(workers), config.clone()).integrate(&**integrand);
            assert_eq!(Pin::of(&result), *pin, "{case}, {workers} workers");
            assert!(
                (result.estimate - reference).abs() <= 10.0 * rel * reference.abs(),
                "{case}, {workers} workers: {} against {reference}",
                result.estimate
            );
        }
    }
}
