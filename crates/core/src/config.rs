//! PAGANI configuration.

use pagani_quadrature::Tolerances;

/// When the heuristic threshold classification (Algorithm 3) may be invoked.
///
/// The paper's Figure 8 ablates exactly these three settings ("PAGANI",
/// "Mem-exhaustion" and "No filtering").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeuristicFiltering {
    /// Invoke when the integral estimate has converged to the requested digits *or*
    /// when device memory would be exhausted by the next subdivision (§3.5.2).
    Full,
    /// Invoke only to avoid memory exhaustion.
    MemoryExhaustionOnly,
    /// Never invoke; only relative-error filtering is applied.
    Disabled,
}

/// Tuning knobs of the PAGANI driver.
#[derive(Debug, Clone, PartialEq)]
pub struct PaganiConfig {
    /// Relative / absolute error targets.
    pub tolerances: Tolerances,
    /// Maximum number of breadth-first iterations.
    pub max_iterations: usize,
    /// Target size of the initial region list: the initial uniform split
    /// (Algorithm 2, line 4) cuts each axis into the largest `d ≥ 2` with
    /// `d^dim ≤ initial_region_target`.  The paper sizes the initial list to
    /// fill the device (2^15 blocks on the V100).
    pub initial_region_target: usize,
    /// Whether individual regions may be finished by their relative error (§3.5.1).
    /// Must be disabled for integrands that oscillate between signs.
    pub rel_err_filtering: bool,
    /// When the heuristic threshold classification may run.
    pub heuristic_filtering: HeuristicFiltering,
    /// Whether Berntsen's two-level error refinement is applied (ablation knob;
    /// the paper always applies it).
    pub two_level_errors: bool,
}

impl PaganiConfig {
    /// Configuration with the paper's defaults for a given tolerance.
    #[must_use]
    pub fn new(tolerances: Tolerances) -> Self {
        Self {
            tolerances,
            max_iterations: 100,
            initial_region_target: 1 << 15,
            rel_err_filtering: true,
            heuristic_filtering: HeuristicFiltering::Full,
            two_level_errors: true,
        }
    }

    /// Configuration targeting `digits` decimal digits of relative precision.
    #[must_use]
    pub fn digits(digits: f64) -> Self {
        Self::new(Tolerances::digits(digits))
    }

    /// Small initial lists and few iterations — suitable for unit tests on the
    /// laptop-scale test device.
    #[must_use]
    pub fn test_small(tolerances: Tolerances) -> Self {
        Self {
            initial_region_target: 256,
            max_iterations: 60,
            ..Self::new(tolerances)
        }
    }

    /// Replace the error targets, keeping every other knob.
    #[must_use]
    pub fn with_tolerances(mut self, tolerances: Tolerances) -> Self {
        self.tolerances = tolerances;
        self
    }

    /// Disable relative-error filtering (for sign-oscillating integrands, §3.5.1).
    #[must_use]
    pub fn without_rel_err_filtering(mut self) -> Self {
        self.rel_err_filtering = false;
        self
    }

    /// Select the heuristic-filtering mode (Figure 8 ablation).
    #[must_use]
    pub fn with_heuristic_filtering(mut self, mode: HeuristicFiltering) -> Self {
        self.heuristic_filtering = mode;
        self
    }

    /// The number of parts `d` each axis is cut into for a `dim`-dimensional problem.
    #[must_use]
    pub fn resolve_splits_per_axis(&self, dim: usize) -> usize {
        splits_per_axis(dim, self.initial_region_target)
    }
}

/// The initial uniform split rule (Algorithm 2, line 4): the number of parts
/// `d` each of `dim` axes is cut into for a list of about `target` regions,
/// the largest `d` with `d^dim ≤ target` but never less than 2.  PAGANI's
/// automatic split and the two-phase method's phase I both use it.
#[must_use]
pub fn splits_per_axis(dim: usize, target: usize) -> usize {
    let target = target.max(2);
    let mut d = 2usize;
    loop {
        let next = d + 1;
        let Some(count) = next.checked_pow(dim as u32) else {
            break;
        };
        if count > target {
            break;
        }
        d = next;
    }
    d
}

impl Default for PaganiConfig {
    fn default() -> Self {
        Self::new(Tolerances::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let cfg = PaganiConfig::default();
        assert_eq!(cfg.initial_region_target, 1 << 15);
        assert!(cfg.rel_err_filtering);
        assert_eq!(cfg.heuristic_filtering, HeuristicFiltering::Full);
        assert!(cfg.two_level_errors);
    }

    #[test]
    fn splits_per_axis_auto_scaling() {
        let cfg = PaganiConfig::default();
        // 8 dimensions: 3^8 = 6561 ≤ 32768 < 4^8.
        assert_eq!(cfg.resolve_splits_per_axis(8), 3);
        // 5 dimensions: 8^5 = 32768 ≤ 32768 < 9^5.
        assert_eq!(cfg.resolve_splits_per_axis(5), 8);
        // 2 dimensions: 181² = 32761 ≤ 32768.
        assert_eq!(cfg.resolve_splits_per_axis(2), 181);
        // The rule itself, at the two-phase method's phase I targets.
        assert_eq!(splits_per_axis(8, 1 << 15), 3);
        assert_eq!(splits_per_axis(5, 1 << 15), 8);
        // 3 dimensions: 8^3 = 512 ≤ 512 < 9^3.
        assert_eq!(splits_per_axis(3, 512), 8);
    }

    #[test]
    fn builder_toggles() {
        let cfg = PaganiConfig::digits(5.0)
            .without_rel_err_filtering()
            .with_heuristic_filtering(HeuristicFiltering::Disabled);
        assert!(!cfg.rel_err_filtering);
        assert_eq!(cfg.heuristic_filtering, HeuristicFiltering::Disabled);
        assert!((cfg.tolerances.rel - 1e-5).abs() < 1e-18);
    }

    #[test]
    fn test_small_shrinks_initial_list() {
        let cfg = PaganiConfig::test_small(Tolerances::rel(1e-3));
        assert!(cfg.initial_region_target <= 256);
        assert!(cfg.max_iterations >= 50);
        // 3 dimensions: 6^3 = 216 ≤ 256 < 7^3.
        assert_eq!(cfg.resolve_splits_per_axis(3), 6);
    }
}
