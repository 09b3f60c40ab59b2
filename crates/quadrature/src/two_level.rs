//! Berntsen's two-level error refinement.
//!
//! The raw error estimate of an embedded cubature pair can badly over- or
//! under-estimate the true error when a feature of the integrand (a sharp peak, a
//! discontinuity) straddles a region boundary: the feature may be visible in the
//! parent region but invisible to both children.  Berntsen (1989) proposed combining
//! the child's raw error with the disagreement between the parent estimate and the sum
//! of the two children's estimates.  PAGANI implements this in its `RefineError`
//! kernel (§3.2 of the paper); the formula below is the same one, applied by Cuhre,
//! the two-phase method and PAGANI alike so that all three report comparable errors.

/// Refine the raw error estimate of one child region.
///
/// * `self_integral`, `self_error` — the child's own rule estimates,
/// * `sibling_integral`, `sibling_error` — its sibling's rule estimates,
/// * `parent_integral` — the parent's integral estimate from the previous iteration.
///
/// Returns the refined error estimate for the child.
#[must_use]
pub fn refine_error(
    self_integral: f64,
    self_error: f64,
    sibling_integral: f64,
    sibling_error: f64,
    parent_integral: f64,
) -> f64 {
    let diff = 0.25 * (self_integral + sibling_integral - parent_integral);
    let diff = diff.abs();
    let combined = self_error + sibling_error;
    let mut refined = self_error;
    if combined > 0.0 {
        refined *= 1.0 + 2.0 * diff / combined;
    }
    refined + diff
}

/// Refine the errors of a full generation of children stored in PAGANI's layout.
///
/// PAGANI splits `m` parents into `2m` children stored with all "left" children in
/// slots `0..m` and all "right" children in slots `m..2m`; child `i` and `i±m` are
/// siblings and share parent `i mod m`.  This helper applies [`refine_error`] to every
/// child in that layout and overwrites `errors` in place.
///
/// # Panics
/// Panics if `integrals`/`errors` do not have the same even length `2m` or if
/// `parent_integrals` does not have length `m`.
pub fn refine_generation(integrals: &[f64], errors: &mut [f64], parent_integrals: &[f64]) {
    assert_eq!(
        integrals.len(),
        errors.len(),
        "integral/error length mismatch"
    );
    assert!(
        integrals.len() % 2 == 0,
        "a full generation has an even number of children"
    );
    let half = integrals.len() / 2;
    assert_eq!(
        parent_integrals.len(),
        half,
        "expected one parent per sibling pair"
    );
    // Each sibling pair is refined in place from its two raw errors.
    let (left_integrals, right_integrals) = integrals.split_at(half);
    let (left_errors, right_errors) = errors.split_at_mut(half);
    for (i, &parent) in parent_integrals.iter().enumerate() {
        let (left, right) = (left_errors[i], right_errors[i]);
        let (left_integral, right_integral) = (left_integrals[i], right_integrals[i]);
        left_errors[i] = refine_error(left_integral, left, right_integral, right, parent);
        right_errors[i] = refine_error(right_integral, right, left_integral, left, parent);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn perfect_agreement_keeps_raw_error() {
        // Children sum exactly to the parent: diff = 0, error unchanged.
        let refined = refine_error(1.0, 0.1, 2.0, 0.2, 3.0);
        assert!((refined - 0.1).abs() < 1e-15);
    }

    #[test]
    fn disagreement_inflates_error() {
        // Children sum to 3.0 but the parent said 5.0: diff = 0.5.
        let refined = refine_error(1.0, 0.1, 2.0, 0.2, 5.0);
        // 0.1 * (1 + 2*0.5/0.3) + 0.5
        let expected = 0.1 * (1.0 + 2.0 * 0.5 / 0.3) + 0.5;
        assert!((refined - expected).abs() < 1e-12);
        assert!(refined > 0.1);
    }

    #[test]
    fn zero_raw_errors_still_capture_disagreement() {
        let refined = refine_error(1.0, 0.0, 1.0, 0.0, 4.0);
        assert!((refined - 0.5).abs() < 1e-15);
    }

    #[test]
    fn refine_generation_uses_sibling_layout() {
        // Two parents, four children. Parent 0 had integral 2.0, parent 1 had 4.0.
        let integrals = [1.0, 2.0, 1.0, 2.0]; // left children then right children
        let mut errors = [0.1, 0.1, 0.1, 0.1];
        let parents = [2.0, 4.0];
        refine_generation(&integrals, &mut errors, &parents);
        // Pair (0, 2) sums to 2.0 = parent 0: unchanged.
        assert!((errors[0] - 0.1).abs() < 1e-15);
        assert!((errors[2] - 0.1).abs() < 1e-15);
        // Pair (1, 3) sums to 4.0 = parent 1: unchanged.
        assert!((errors[1] - 0.1).abs() < 1e-15);
        assert!((errors[3] - 0.1).abs() < 1e-15);
    }

    #[test]
    fn refine_generation_flags_hidden_feature() {
        // Parent saw a peak (integral 10) that both children missed (1 + 1).
        let integrals = [1.0, 1.0];
        let mut errors = [0.01, 0.01];
        refine_generation(&integrals, &mut errors, &[10.0]);
        assert!(errors[0] > 1.0, "refined error should expose the lost peak");
        assert!(errors[1] > 1.0);
    }

    #[test]
    #[should_panic(expected = "one parent per sibling pair")]
    fn refine_generation_checks_parent_length() {
        let mut errors = [0.1, 0.1];
        refine_generation(&[1.0, 1.0], &mut errors, &[1.0, 1.0]);
    }

    proptest! {
        #[test]
        fn prop_refined_error_is_at_least_raw_error(
            self_int in -10.0f64..10.0,
            self_err in 0.0f64..5.0,
            sib_int in -10.0f64..10.0,
            sib_err in 0.0f64..5.0,
            parent_int in -20.0f64..20.0,
        ) {
            let refined = refine_error(self_int, self_err, sib_int, sib_err, parent_int);
            prop_assert!(refined >= self_err - 1e-15);
            prop_assert!(refined.is_finite());
        }

        #[test]
        fn prop_refined_error_monotone_in_disagreement(
            self_err in 1e-6f64..1.0,
            sib_err in 1e-6f64..1.0,
            base_diff in 0.0f64..5.0,
            extra in 0.01f64..5.0,
        ) {
            // Larger parent/children disagreement can never reduce the refined error.
            let small = refine_error(1.0, self_err, 1.0, sib_err, 2.0 + base_diff);
            let large = refine_error(1.0, self_err, 1.0, sib_err, 2.0 + base_diff + extra);
            prop_assert!(large >= small);
        }
    }
}
