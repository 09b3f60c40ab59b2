//! Baseline integrators the paper evaluates PAGANI against.
//!
//! * [`cuhre`] — a from-scratch sequential Cuhre (the Cuba library's deterministic
//!   algorithm): a max-error-first heap of regions, Genz–Malik rules, two-level error
//!   estimation and the `τ_rel` / `τ_abs` / max-evaluation termination of Cuba 4.0.
//! * [`two_phase`] — the two-phase GPU method of Arumugam et al. (§2.2.1): phase I is
//!   a breadth-first expansion with relative-error filtering until enough sub-regions
//!   exist for a 1-1 processor mapping; phase II runs an independent, locally-bounded
//!   sequential Cuhre on every surviving region with no global coordination — which is
//!   precisely what makes it fail on high-precision runs (§4.2, Figure 4).
//! * [`qmc`] — a randomized quasi-Monte Carlo integrator with shift-based error
//!   estimates, standing in for the GPU QMC library of Borowka et al. used in
//!   Figure 7.  The paper's comparator uses rank-1 lattices; this implementation uses
//!   randomly-shifted Halton points, which preserves the relevant contract (an
//!   unbiased estimate with an error estimate that shrinks as samples grow).
//!
//! Every baseline implements the workspace-wide
//! [`pagani_core::Integrator`] trait and returns the same
//! [`pagani_quadrature::IntegrationResult`] as PAGANI, so the benchmark
//! harness can sweep methods interchangeably; the [`method`] module turns a
//! [`MethodConfig`] value into any of the five integrators at runtime.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

pub mod cuhre;
pub mod method;
pub mod monte_carlo;
pub mod qmc;
pub mod two_phase;

pub use cuhre::{Cuhre, CuhreConfig};
pub use method::MethodConfig;
pub use monte_carlo::{MonteCarlo, MonteCarloConfig};
pub use qmc::{Qmc, QmcConfig};
pub use two_phase::{TwoPhase, TwoPhaseConfig};
