//! Heuristic threshold classification (Algorithm 3 of the paper, §3.5.2–3.5.3).
//!
//! Relative-error filtering alone stalls at demanding tolerances: hardly any region
//! satisfies its own relative tolerance, so nothing is filtered, the region list
//! doubles every iteration and memory runs out before the error budget is met.  The
//! threshold classification finds an error-estimate cut-off such that finishing every
//! region below it
//!
//! * frees at least half of the region list (the *memory requirement*), and
//! * consumes at most a fraction `P_max` of the caller-supplied error budget
//!   (the *accuracy requirement*),
//!
//! searching between the minimum and maximum error estimate in a bisection-like
//! fashion.  `P_max` starts at 25 % and is relaxed by 10 percentage points every time
//! the search direction flips, up to 95 %; the number of direction changes is capped
//! to keep the search short.  If no acceptable threshold exists the original
//! classification is returned unchanged (unsuccessful filtering), which is how the
//! paper reports runs that ultimately exhaust memory.
//!
//! Two readings of the paper are normalised here so the search stays self-consistent
//! under repeated invocation:
//!
//! * The note that the threshold "decreases, allowing more regions to surpass it" when
//!   too few regions are discarded reads inverted; this implementation follows the
//!   direction that matches the published Figure 3 trace: too little memory freed →
//!   raise the threshold, too much error budget consumed → lower it.
//! * The error budget is supplied by the driver as the *remaining headroom* the frozen
//!   error may still grow into (`PAGANI` computes it from τ_rel·|v_tot|, the error
//!   already frozen, and a cap on how much of the headroom threshold filtering may
//!   consume over the whole run).  This bounds only what the search itself freezes,
//!   even when it is invoked on many consecutive iterations.  It does not keep the
//!   property §3.5.2 asks for — that the frozen error never makes convergence
//!   impossible: relative-error classification can freeze more error afterwards, and
//!   finished error is never reduced again.  8D f7 at 3 digits ends `MaxIterations`
//!   that way (see the Algorithm 3 item in ROADMAP.md).
//!
//! Each probe only reads: the regions the relative-error classification already
//! finished are counted once, and a probe counts and sums just the active regions its
//! threshold would newly finish.  The search builds one mask: the accepted threshold's,
//! or a copy of the input when it accepts none.

use crate::arena::ScratchArena;
use crate::classify::{ACTIVE, FINISHED};
use crate::trace::ThresholdProbe;

/// Result of a threshold classification attempt.
#[derive(Debug, Clone)]
pub struct ThresholdOutcome {
    /// Updated activity mask (1 = still active, 0 = finished).
    pub mask: Vec<u8>,
    /// Error estimate newly frozen by this classification (zero when unsuccessful).
    pub newly_committed_error: f64,
    /// Whether an acceptable threshold was found (if not, `mask` equals the input).
    pub successful: bool,
    /// The probes tried, for the Figure-3 trace.
    pub probes: Vec<ThresholdProbe>,
}

// The search's constants, fixed in the paper.
/// Initial fraction of the error budget the finished regions may consume.
const INITIAL_BUDGET_FRACTION: f64 = 0.25;
/// Relaxation added to the budget fraction on every direction change.
const BUDGET_RELAXATION: f64 = 0.10;
/// Maximum budget fraction after relaxation.
const MAX_BUDGET_FRACTION: f64 = 0.95;
/// Minimum fraction of the processed regions that must be finished.
const MIN_FINISHED_FRACTION: f64 = 0.5;
/// Maximum number of search-direction changes before giving up.
const MAX_DIRECTION_CHANGES: usize = 8;
/// Hard cap on probes (safety net).
const MAX_PROBES: usize = 64;

/// Run the threshold classification.
///
/// * `mask` — the activity mask produced by the relative-error classification,
/// * `errors` — per-region (refined) error estimates for the regions processed this
///   iteration,
/// * `error_budget` — how much additional error estimate may be frozen without
///   jeopardising convergence (non-positive budgets return immediately),
/// * `iteration_error` — summed error estimate of the regions processed this iteration
///   (used for the initial average-error threshold),
/// * `arena` — scratch shelves the returned mask is drawn from (the driver
///   shelves it again when the generation retires).
///
/// The newly frozen error reported in the outcome counts only regions that flip from
/// active to finished; regions already finished by the relative-error classification
/// are not charged against the budget a second time.
///
/// # Panics
/// Panics if `mask` and `errors` have different lengths.
#[must_use]
pub fn threshold_classify(
    mask: &[u8],
    errors: &[f64],
    error_budget: f64,
    iteration_error: f64,
    arena: &ScratchArena,
) -> ThresholdOutcome {
    assert_eq!(mask.len(), errors.len(), "mask/error length mismatch");
    let regions = mask.len();
    let unchanged = |probes: Vec<ThresholdProbe>| {
        let mut copy = arena.take_mask(regions);
        copy.extend_from_slice(mask);
        ThresholdOutcome {
            mask: copy,
            newly_committed_error: 0.0,
            successful: false,
            probes,
        }
    };
    if regions == 0 || error_budget <= 0.0 {
        return unchanged(Vec::new());
    }

    let (min_err, max_err) = errors
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &e| {
            (lo.min(e), hi.max(e))
        });

    let already_finished = mask.iter().filter(|&&m| m == FINISHED).count();
    let mut threshold = iteration_error / regions as f64; // average error estimate
    let mut budget_fraction = INITIAL_BUDGET_FRACTION;
    let mut probes = Vec::new();
    let mut direction_changes = 0usize;
    let mut last_direction: Option<i8> = None;

    for _ in 0..MAX_PROBES {
        // A region is finished under the candidate threshold if it was already
        // finished or its error falls below the threshold; only the active
        // regions' error is newly frozen, summed in index order from -0.0, as
        // `Iterator::sum` does.
        let mut newly_finished = 0usize;
        let mut committed_error = -0.0;
        for (&m, &e) in mask.iter().zip(errors) {
            if m != FINISHED && e < threshold {
                newly_finished += 1;
                if m == ACTIVE {
                    committed_error += e;
                }
            }
        }
        let finished_count = already_finished + newly_finished;

        let fraction_finished = finished_count as f64 / regions as f64;
        let budget_used = committed_error / error_budget;
        let memory_ok = fraction_finished > MIN_FINISHED_FRACTION;
        let accuracy_ok = committed_error <= budget_fraction * error_budget;
        let accepted = memory_ok && accuracy_ok;

        probes.push(ThresholdProbe {
            threshold,
            fraction_finished,
            budget_fraction: budget_used,
            accepted,
        });

        if accepted {
            let mut classified = arena.take_mask(regions);
            classified.extend(mask.iter().zip(errors).map(|(&m, &e)| {
                if m == FINISHED || e < threshold {
                    FINISHED
                } else {
                    ACTIVE
                }
            }));
            return ThresholdOutcome {
                mask: classified,
                newly_committed_error: committed_error,
                successful: true,
                probes,
            };
        }

        // Decide the search direction: accuracy violations dominate (they make
        // convergence impossible), otherwise free more memory.
        let direction: i8 = if !accuracy_ok {
            -1 // too much error frozen → lower the threshold
        } else {
            1 // too little memory freed → raise the threshold
        };
        if let Some(prev) = last_direction {
            if prev != direction {
                direction_changes += 1;
                budget_fraction = (budget_fraction + BUDGET_RELAXATION).min(MAX_BUDGET_FRACTION);
                if direction_changes > MAX_DIRECTION_CHANGES {
                    break;
                }
            }
        }
        last_direction = Some(direction);

        // Move half-way towards the relevant extreme of the error estimates.
        threshold = if direction < 0 {
            0.5 * (threshold + min_err)
        } else {
            0.5 * (threshold + max_err)
        };
    }

    unchanged(probes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn all_active(n: usize) -> Vec<u8> {
        vec![ACTIVE; n]
    }

    #[test]
    fn empty_input_is_a_noop() {
        let out = threshold_classify(&[], &[], 1.0, 0.5, &ScratchArena::new());
        assert!(!out.successful);
        assert!(out.mask.is_empty());
        assert_eq!(out.newly_committed_error, 0.0);
    }

    #[test]
    fn exhausted_budget_returns_unchanged() {
        let mask = all_active(4);
        let out = threshold_classify(&mask, &[1e-9; 4], 0.0, 4e-9, &ScratchArena::new());
        assert!(!out.successful);
        assert_eq!(out.mask, mask);
    }

    #[test]
    fn bimodal_errors_are_split_at_an_acceptable_threshold() {
        // 900 regions with tiny errors, 100 with large errors; freezing the tiny ones
        // frees 90 % of memory and uses a negligible slice of the budget.
        let mut errors = vec![1e-12; 900];
        errors.extend(vec![1e-3; 100]);
        let mask = all_active(1000);
        let iteration_error: f64 = errors.iter().sum();
        let out = threshold_classify(&mask, &errors, 1e-6, iteration_error, &ScratchArena::new());
        assert!(out.successful);
        let finished = out.mask.iter().filter(|&&m| m == FINISHED).count();
        assert_eq!(finished, 900);
        // Large-error regions must all remain active.
        assert!(out.mask[900..].iter().all(|&m| m == ACTIVE));
        assert!((out.newly_committed_error - 900.0 * 1e-12).abs() < 1e-15);
        assert!(!out.probes.is_empty());
    }

    #[test]
    fn uniform_large_errors_cannot_be_filtered() {
        // Every region carries a large error: any 50 %+ cut would blow the budget, so
        // the search must fail and leave the mask untouched.
        let errors = vec![1e-2; 64];
        let mask = all_active(64);
        let out = threshold_classify(&mask, &errors, 1e-6, 0.64, &ScratchArena::new());
        assert!(!out.successful);
        assert_eq!(out.mask, mask);
        assert_eq!(out.newly_committed_error, 0.0);
    }

    #[test]
    fn already_finished_regions_are_not_charged_again() {
        // Region 0 is already finished with a large error: it must not be counted
        // against the budget, and the small active regions can still be frozen.
        let mask = vec![FINISHED, ACTIVE, ACTIVE, ACTIVE];
        let errors = vec![5e-3, 1e-12, 1e-12, 1e-12];
        let iteration_error: f64 = errors.iter().sum();
        let out = threshold_classify(&mask, &errors, 1e-6, iteration_error, &ScratchArena::new());
        assert!(out.successful);
        assert_eq!(out.mask, vec![FINISHED; 4]);
        assert!((out.newly_committed_error - 3e-12).abs() < 1e-18);
    }

    #[test]
    fn probes_record_the_search_trajectory() {
        let mut errors = vec![1e-10; 800];
        errors.extend(vec![5e-4; 200]);
        let mask = all_active(1000);
        let iteration_error: f64 = errors.iter().sum();
        let out = threshold_classify(&mask, &errors, 1e-5, iteration_error, &ScratchArena::new());
        assert!(out.successful);
        let last = out.probes.last().unwrap();
        assert!(last.accepted);
        // All earlier probes were rejected.
        assert!(out.probes[..out.probes.len() - 1]
            .iter()
            .all(|p| !p.accepted));
    }

    #[test]
    fn probes_recycle_arena_storage_instead_of_allocating() {
        // A search that needs several probes before accepting (the first
        // probes blow the initial budget fraction, then freeing only the tiny
        // tier misses the memory requirement, and only after the relaxation
        // does the mid tier fit): probes only read, so the search draws one
        // mask from the arena, for the accepted threshold.
        let mut errors = vec![1e-10; 400];
        errors.extend(vec![1e-5; 300]);
        errors.extend(vec![1e-3; 300]);
        let mask = all_active(1000);
        let iteration_error: f64 = errors.iter().sum();
        let arena = ScratchArena::new();
        let out = threshold_classify(&mask, &errors, 1e-2, iteration_error, &arena);
        assert!(out.successful);
        assert!(out.probes.len() > 1, "want a multi-probe search");
        assert_eq!(arena.reuse_misses(), 1, "one mask per search");
        assert_eq!(arena.reuse_hits(), 0);
        // With the accepted mask shelved again, a second search allocates
        // nothing at all, and a failed search also takes one mask.
        arena.put_mask(out.mask);
        let again = threshold_classify(&mask, &errors, 1e-2, iteration_error, &arena);
        assert!(again.successful);
        arena.put_mask(again.mask);
        let failed = threshold_classify(&mask, &[1e-2; 1000], 1e-6, 10.0, &arena);
        assert!(!failed.successful);
        assert_eq!(arena.reuse_misses(), 1, "warm arena: no allocs");
        assert_eq!(arena.reuse_hits(), 2);
    }

    #[test]
    fn repeated_invocations_stay_within_a_shrinking_budget() {
        // Drive the search the way the PAGANI driver does: each successful call
        // shrinks the remaining budget; the cumulative frozen error must never exceed
        // the initial headroom.
        let headroom = 1e-4f64;
        let mut frozen = 0.0f64;
        for round in 0..20 {
            // Errors shrink as subdivision refines the regions.
            let small = 1e-9 / (1 << round) as f64;
            let large = 1e-5;
            let mut errors = vec![small; 700];
            errors.extend(vec![large; 300]);
            let mask = all_active(1000);
            let iteration_error: f64 = errors.iter().sum();
            let out = threshold_classify(
                &mask,
                &errors,
                headroom - frozen,
                iteration_error,
                &ScratchArena::new(),
            );
            if out.successful {
                frozen += out.newly_committed_error;
            }
            assert!(frozen <= headroom, "frozen {frozen} exceeded headroom");
        }
        assert!(
            frozen > 0.0,
            "at least one round should have frozen something"
        );
    }

    /// The search as it was before its probes became read-only: every probe
    /// builds a full candidate mask and reads it twice.  Kept to pin the
    /// one-pass search to it bit for bit.
    fn threshold_classify_with_candidate_masks(
        mask: &[u8],
        errors: &[f64],
        error_budget: f64,
        iteration_error: f64,
    ) -> ThresholdOutcome {
        let regions = mask.len();
        let unchanged = |probes| ThresholdOutcome {
            mask: mask.to_vec(),
            newly_committed_error: 0.0,
            successful: false,
            probes,
        };
        if regions == 0 || error_budget <= 0.0 {
            return unchanged(Vec::new());
        }
        let (min_err, max_err) = errors
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &e| {
                (lo.min(e), hi.max(e))
            });
        let mut threshold = iteration_error / regions as f64;
        let mut budget_fraction = INITIAL_BUDGET_FRACTION;
        let mut probes = Vec::new();
        let mut direction_changes = 0usize;
        let mut last_direction: Option<i8> = None;
        for _ in 0..MAX_PROBES {
            let candidate: Vec<u8> = mask
                .iter()
                .zip(errors)
                .map(|(&m, &e)| {
                    if m == FINISHED || e < threshold {
                        FINISHED
                    } else {
                        ACTIVE
                    }
                })
                .collect();
            let finished_count = candidate.iter().filter(|&&m| m == FINISHED).count();
            let committed_error: f64 = candidate
                .iter()
                .zip(mask)
                .zip(errors)
                .filter(|((&c, &m), _)| c == FINISHED && m == ACTIVE)
                .map(|(_, &e)| e)
                .sum();
            let fraction_finished = finished_count as f64 / regions as f64;
            let memory_ok = fraction_finished > MIN_FINISHED_FRACTION;
            let accuracy_ok = committed_error <= budget_fraction * error_budget;
            let accepted = memory_ok && accuracy_ok;
            probes.push(ThresholdProbe {
                threshold,
                fraction_finished,
                budget_fraction: committed_error / error_budget,
                accepted,
            });
            if accepted {
                return ThresholdOutcome {
                    mask: candidate,
                    newly_committed_error: committed_error,
                    successful: true,
                    probes,
                };
            }
            let direction: i8 = if accuracy_ok { 1 } else { -1 };
            if let Some(prev) = last_direction {
                if prev != direction {
                    direction_changes += 1;
                    budget_fraction =
                        (budget_fraction + BUDGET_RELAXATION).min(MAX_BUDGET_FRACTION);
                    if direction_changes > MAX_DIRECTION_CHANGES {
                        break;
                    }
                }
            }
            last_direction = Some(direction);
            threshold = if direction < 0 {
                0.5 * (threshold + min_err)
            } else {
                0.5 * (threshold + max_err)
            };
        }
        unchanged(probes)
    }

    /// Error estimates that make ties at a probed threshold common: codes
    /// below the palette's length pick zeros, signed zeros, NaN, infinity or
    /// a repeated value; the rest take the drawn value.
    fn errors_from(codes: &[usize], values: &[f64]) -> Vec<f64> {
        const PALETTE: [f64; 9] = [
            0.0,
            -0.0,
            1e-12,
            1e-9,
            2e-9,
            1e-6,
            1e-3,
            f64::NAN,
            f64::INFINITY,
        ];
        codes
            .iter()
            .zip(values)
            .map(|(&code, &value)| PALETTE.get(code).copied().unwrap_or(value))
            .collect()
    }

    /// Masks of every shape the driver hands over: all active, all finished,
    /// or mixed.
    fn mask_for(len: usize, shape: u8, seed: u64) -> Vec<u8> {
        (0..len)
            .map(|i| match shape {
                0 => ACTIVE,
                1 => FINISHED,
                _ => ((seed >> (i % 61)) & 1) as u8,
            })
            .collect()
    }

    /// Run the search and its candidate-mask original on the same input and
    /// compare the mask, the frozen error's bits, the verdict and every probe.
    fn matches_the_candidate_mask_search(
        mask: &[u8],
        errors: &[f64],
        budget: f64,
        iteration_error: f64,
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        let probe_bits = |probes: &[ThresholdProbe]| -> Vec<(u64, u64, u64, bool)> {
            probes
                .iter()
                .map(|p| {
                    (
                        p.threshold.to_bits(),
                        p.fraction_finished.to_bits(),
                        p.budget_fraction.to_bits(),
                        p.accepted,
                    )
                })
                .collect()
        };
        let old = threshold_classify_with_candidate_masks(mask, errors, budget, iteration_error);
        let new = threshold_classify(mask, errors, budget, iteration_error, &ScratchArena::new());
        prop_assert_eq!(&new.mask, &old.mask);
        prop_assert_eq!(
            new.newly_committed_error.to_bits(),
            old.newly_committed_error.to_bits()
        );
        prop_assert_eq!(new.successful, old.successful);
        prop_assert_eq!(probe_bits(&new.probes), probe_bits(&old.probes));
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_read_only_probes_match_the_candidate_mask_search(
            codes in proptest::collection::vec(0usize..16, 0..400),
            values in proptest::collection::vec(1e-14f64..1e-2, 400..401),
            shape in 0u8..3,
            seed in 0u64..u64::MAX,
            budget in 0.0f64..1e-1,
            zero_budget in 0u8..4,
            average in 0u8..2,
            iteration_error in 1e-12f64..1.0,
        ) {
            let errors = errors_from(&codes, &values);
            let mask = mask_for(errors.len(), shape, seed);
            let budget = if zero_budget == 0 { 0.0 } else { budget };
            // Either the errors' own sum, as the driver passes it, or an
            // unrelated value.
            let iteration_error = if average == 0 { errors.iter().sum() } else { iteration_error };
            matches_the_candidate_mask_search(&mask, &errors, budget, iteration_error)?;
        }

        #[test]
        fn prop_read_only_probes_match_on_errors_tied_with_the_threshold(
            value in 0.0f64..1e-3,
            len_log2 in 0u32..9,
            drawn in proptest::collection::vec(1e-12f64..1e-3, 256..257),
            ties in 0u64..u64::MAX,
            shape in 0u8..3,
            seed in 0u64..u64::MAX,
            budget in 1e-12f64..1e-1,
        ) {
            // A power-of-two region count makes the first probe's threshold,
            // the average error, exactly `value`, which the regions picked by
            // `ties` carry.
            let len = 1usize << len_log2;
            let errors: Vec<f64> = (0..len)
                .map(|i| if (ties >> (i % 64)) & 1 == 1 { value } else { drawn[i] })
                .collect();
            let mask = mask_for(len, shape, seed);
            matches_the_candidate_mask_search(&mask, &errors, budget, value * len as f64)?;
        }

        #[test]
        fn prop_successful_filtering_respects_both_requirements(
            small in proptest::collection::vec(1e-12f64..1e-9, 50..400),
            large in proptest::collection::vec(1e-4f64..1e-2, 1..50),
            budget in 1e-7f64..1e-5,
        ) {
            let mut errors = small.clone();
            errors.extend(large.iter().copied());
            let mask = all_active(errors.len());
            let iteration_error: f64 = errors.iter().sum();
            let out = threshold_classify(&mask, &errors, budget, iteration_error, &ScratchArena::new());
            if out.successful {
                let finished: Vec<usize> = out.mask.iter().enumerate().filter(|(_, &m)| m == FINISHED).map(|(i, _)| i).collect();
                prop_assert!(finished.len() as f64 > MIN_FINISHED_FRACTION * errors.len() as f64);
                prop_assert!(out.newly_committed_error <= MAX_BUDGET_FRACTION * budget + 1e-18);
            } else {
                prop_assert_eq!(out.mask, mask);
                prop_assert_eq!(out.newly_committed_error, 0.0);
            }
        }

        #[test]
        fn prop_mask_only_moves_from_active_to_finished(
            errors in proptest::collection::vec(1e-12f64..1e-2, 10..300),
            seed in 0u64..u64::MAX,
            budget in 1e-9f64..1e-2,
        ) {
            let mask: Vec<u8> = (0..errors.len()).map(|i| ((seed >> (i % 61)) & 1) as u8).collect();
            let iteration_error: f64 = errors.iter().sum();
            let out = threshold_classify(&mask, &errors, budget, iteration_error, &ScratchArena::new());
            for (before, after) in mask.iter().zip(&out.mask) {
                // A region can be newly finished but never resurrected.
                prop_assert!(*after <= *before);
            }
        }
    }
}
