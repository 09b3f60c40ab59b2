//! Stream compaction.
//!
//! PAGANI's filtering step removes the finished regions from the per-region arrays.
//! On the GPU this is a prefix scan over the activity mask followed by a scatter of
//! the surviving entries (the Thrust `exclusive_scan` + copy pattern); here
//! [`compact_by_mask_into`] produces the same survivors in the same order.

/// Keep only the elements of `values` whose `mask` entry is non-zero,
/// preserving order, writing them into `out` and reusing its capacity.
///
/// `out` is cleared and refilled, so repeated iterations recycle one vector
/// instead of allocating a fresh one per generation.  The gather is
/// sequential — the surviving count per generation is small compared to the
/// evaluate kernel.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn compact_by_mask_into<T: Clone>(values: &[T], mask: &[u8], out: &mut Vec<T>) {
    assert_eq!(
        values.len(),
        mask.len(),
        "compaction requires equal lengths"
    );
    out.clear();
    out.extend(
        values
            .iter()
            .zip(mask)
            .filter(|(_, &m)| m != 0)
            .map(|(v, _)| v.clone()),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn compact<T: Clone>(values: &[T], mask: &[u8]) -> Vec<T> {
        let mut out = Vec::new();
        compact_by_mask_into(values, mask, &mut out);
        out
    }

    #[test]
    fn compact_preserves_order() {
        let values = vec![10, 11, 12, 13, 14];
        let mask = vec![1u8, 0, 1, 0, 1];
        assert_eq!(compact(&values, &mask), vec![10, 12, 14]);
    }

    #[test]
    fn compact_into_matches_allocating_variant_and_reuses_storage() {
        let values: Vec<i32> = (0..1000).collect();
        let mask: Vec<u8> = (0..1000).map(|i| (i % 3 == 0) as u8).collect();
        let mut out = Vec::with_capacity(1000);
        out.push(-1); // stale content must be cleared
        let cap = out.capacity();
        compact_by_mask_into(&values, &mask, &mut out);
        // The allocating variant: a filter collected into a fresh vector.
        let allocating: Vec<i32> = values.iter().copied().filter(|v| v % 3 == 0).collect();
        assert_eq!(out, allocating);
        assert_eq!(out.capacity(), cap, "no reallocation needed");
    }

    #[test]
    fn compact_all_or_nothing() {
        let values = vec![1.0, 2.0, 3.0];
        assert_eq!(compact(&values, &[1, 1, 1]), values);
        assert!(compact(&values, &[0, 0, 0]).is_empty());
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn compact_rejects_mismatched_lengths() {
        let _ = compact(&[1, 2, 3], &[1u8]);
    }

    proptest! {
        #[test]
        fn prop_compaction_matches_filter(
            values in proptest::collection::vec(-1e6f64..1e6, 0..5000),
            seed in 0u64..u64::MAX,
        ) {
            let mask: Vec<u8> = (0..values.len()).map(|i| ((seed >> (i % 61)) & 1) as u8).collect();
            let compacted = compact(&values, &mask);
            let expected: Vec<f64> = values
                .iter()
                .zip(&mask)
                .filter(|(_, &m)| m != 0)
                .map(|(&v, _)| v)
                .collect();
            prop_assert_eq!(compacted, expected);
        }
    }
}
