//! Per-kernel timing, the stand-in for CUDA events / `nvprof`.
//!
//! PAGANI's §4.3.2 breaks execution time into four kernel categories (evaluate,
//! post-processing, threshold classification, filter + split).  Every launch through
//! [`crate::Device`] records its wall time here under the kernel name supplied by the
//! caller, and the bench harness aggregates the records into the same breakdown.

use std::collections::BTreeMap;
use std::time::Duration;

use parking_lot::Mutex;

/// Aggregated timing for a single kernel name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelTiming {
    /// Number of launches recorded.
    pub launches: usize,
    /// Total wall time across all launches.
    pub total: Duration,
    /// Total number of blocks executed across all launches.
    pub blocks: usize,
}

/// Thread-safe accumulator of per-kernel timings.
#[derive(Debug, Default)]
pub struct DeviceProfile {
    records: Mutex<BTreeMap<String, KernelTiming>>,
}

impl DeviceProfile {
    /// Create an empty profile.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one launch of `kernel` that ran `blocks` blocks in `elapsed`.
    /// The name is copied only the first time it is seen.
    pub fn record(&self, kernel: &str, blocks: usize, elapsed: Duration) {
        let mut records = self.records.lock();
        let entry = match records.get_mut(kernel) {
            Some(entry) => entry,
            None => records.entry(kernel.to_owned()).or_default(),
        };
        entry.launches += 1;
        entry.total += elapsed;
        entry.blocks += blocks;
    }

    /// Timing for one kernel, if any launches were recorded.
    #[must_use]
    pub fn kernel(&self, kernel: &str) -> Option<KernelTiming> {
        self.records.lock().get(kernel).copied()
    }

    /// Snapshot of all recorded kernels, sorted by name.
    #[must_use]
    pub fn snapshot(&self) -> Vec<(String, KernelTiming)> {
        self.records
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Fraction of total kernel time spent in kernels whose name starts with `prefix`.
    ///
    /// Returns zero if no time has been recorded at all.
    #[must_use]
    pub fn fraction_for_prefix(&self, prefix: &str) -> f64 {
        let records = self.records.lock();
        let total: Duration = records.values().map(|t| t.total).sum();
        if total.is_zero() {
            return 0.0;
        }
        let matching: Duration = records
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, t)| t.total)
            .sum();
        matching.as_secs_f64() / total.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate() {
        let profile = DeviceProfile::new();
        profile.record("evaluate", 10, Duration::from_millis(4));
        profile.record("evaluate", 20, Duration::from_millis(6));
        let t = profile.kernel("evaluate").unwrap();
        assert_eq!(t.launches, 2);
        assert_eq!(t.blocks, 30);
        assert_eq!(t.total, Duration::from_millis(10));
    }

    #[test]
    fn unknown_kernel_is_none() {
        let profile = DeviceProfile::new();
        assert!(profile.kernel("nope").is_none());
    }

    #[test]
    fn fraction_for_prefix_partitions_time() {
        let profile = DeviceProfile::new();
        profile.record("evaluate", 1, Duration::from_millis(90));
        profile.record("filter.compact", 1, Duration::from_millis(5));
        profile.record("filter.split", 1, Duration::from_millis(5));
        assert!((profile.fraction_for_prefix("evaluate") - 0.9).abs() < 1e-9);
        assert!((profile.fraction_for_prefix("filter") - 0.1).abs() < 1e-9);
        assert_eq!(profile.fraction_for_prefix("missing"), 0.0);
    }

    #[test]
    fn empty_profile_fraction_is_zero() {
        let profile = DeviceProfile::new();
        assert_eq!(profile.fraction_for_prefix("evaluate"), 0.0);
        assert!(profile.snapshot().is_empty());
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let profile = DeviceProfile::new();
        profile.record("z", 1, Duration::from_millis(1));
        profile.record("a", 1, Duration::from_millis(1));
        let names: Vec<String> = profile.snapshot().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a".to_string(), "z".to_string()]);
    }
}
