//! Thrust-style parallel reductions.
//!
//! PAGANI's post-processing reduces the per-region integral and error estimates to the
//! global estimates (Algorithm 2, lines 13–14) and folds the finished regions'
//! contributions into the finished totals (lines 18–19).  These helpers provide
//! those reductions with deterministic results: the input is reduced in fixed-size
//! chunks whose partial sums are combined in chunk order, so the floating-point
//! rounding is independent of the number of worker threads.

use rayon::prelude::*;

/// Chunk length used for the deterministic two-level reductions.
const CHUNK: usize = 4096;

/// Sum of a slice, computed in parallel with deterministic rounding.
#[must_use]
pub fn sum(values: &[f64]) -> f64 {
    if values.len() <= CHUNK {
        return values.iter().sum();
    }
    values
        .par_chunks(CHUNK)
        .map(|chunk| chunk.iter().sum::<f64>())
        .collect::<Vec<f64>>()
        .iter()
        .sum()
}

/// Masked sum `Σ values[i]` over indices where `mask[i] != 0`, computed in
/// parallel with deterministic rounding.
///
/// PAGANI uses this with the activity mask to accumulate the estimates of the active
/// regions (Algorithm 2, lines 18–19).
///
/// # Panics
/// Panics if the slices have different lengths.
#[must_use]
pub fn masked_sum(values: &[f64], mask: &[u8]) -> f64 {
    assert_eq!(
        values.len(),
        mask.len(),
        "masked sum requires equal lengths"
    );
    if values.len() <= CHUNK {
        return values
            .iter()
            .zip(mask)
            .filter(|(_, &m)| m != 0)
            .map(|(v, _)| v)
            .sum();
    }
    values
        .par_chunks(CHUNK)
        .zip(mask.par_chunks(CHUNK))
        .map(|(cv, cm)| {
            cv.iter()
                .zip(cm)
                .filter(|(_, &m)| m != 0)
                .map(|(v, _)| v)
                .sum::<f64>()
        })
        .collect::<Vec<f64>>()
        .iter()
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sum_of_small_slice() {
        assert_eq!(sum(&[1.0, 2.0, 3.5]), 6.5);
        assert_eq!(sum(&[]), 0.0);
    }

    #[test]
    fn sum_of_large_slice_matches_sequential() {
        let values: Vec<f64> = (0..100_000).map(|i| (i % 97) as f64 * 0.25).collect();
        let sequential: f64 = values.iter().sum();
        let parallel = sum(&values);
        assert!((sequential - parallel).abs() < 1e-6 * sequential.abs());
    }

    #[test]
    fn sum_is_deterministic_across_calls() {
        let values: Vec<f64> = (0..50_000)
            .map(|i| ((i * 2654435761_usize) % 1000) as f64 / 7.0)
            .collect();
        let a = sum(&values);
        let b = sum(&values);
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn masked_sum_rejects_mismatched_lengths() {
        let _ = masked_sum(&[1.0], &[1, 0]);
    }

    #[test]
    fn masked_sum_ignores_inactive() {
        let values = [10.0, 20.0, 30.0, 40.0];
        let mask = [1u8, 0, 1, 0];
        assert_eq!(masked_sum(&values, &mask), 40.0);
    }

    proptest! {
        #[test]
        fn prop_sum_matches_sequential(values in proptest::collection::vec(-1e6f64..1e6, 0..9000)) {
            let sequential: f64 = values.iter().sum();
            let parallel = sum(&values);
            let tolerance = 1e-9 * values.iter().map(|v| v.abs()).sum::<f64>().max(1.0);
            prop_assert!((sequential - parallel).abs() <= tolerance);
        }

        #[test]
        fn prop_dot_equals_masked_sum_for_01_mask(
            values in proptest::collection::vec(-1e3f64..1e3, 1..12_000),
            seed in 0u64..u64::MAX,
        ) {
            // Build a deterministic 0/1 mask from the seed.  Lengths past
            // CHUNK take the chunked parallel path the driver's fold takes
            // on large generations.
            let mask_u8: Vec<u8> = (0..values.len())
                .map(|i| ((seed >> (i % 64)) & 1) as u8)
                .collect();
            // The reference: a sequential dot product with the mask as 0/1.
            let via_dot: f64 = values
                .iter()
                .zip(&mask_u8)
                .map(|(v, &m)| v * f64::from(m))
                .sum();
            let via_mask = masked_sum(&values, &mask_u8);
            prop_assert!((via_dot - via_mask).abs() <= 1e-9 * via_dot.abs().max(1.0));
        }
    }
}
