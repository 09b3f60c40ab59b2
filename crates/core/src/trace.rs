//! Execution traces: per-iteration statistics and threshold-search probes.
//!
//! The paper table (`pagani-bench`) reads Figure 3's threshold-search probes and
//! Figure 2's tree widths from it; Figure 9 reads the result's `regions_generated`
//! and the §4.3.2 breakdown the device profile.  Collecting it costs a few scalars
//! per iteration, and every run collects it.

/// One probe of the threshold search (one dotted line of the paper's Figure 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdProbe {
    /// Candidate threshold value.
    pub threshold: f64,
    /// Fraction of the currently-processed regions that the candidate would finish.
    pub fraction_finished: f64,
    /// Fraction of the remaining error budget that the finished regions would consume.
    pub budget_fraction: f64,
    /// Whether both the memory and the accuracy requirements were met.
    pub accepted: bool,
}

/// Summary of one invocation of the threshold classification.
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdSearchRecord {
    /// Iteration at which the search ran.
    pub iteration: usize,
    /// Why the search was triggered.
    pub trigger: ThresholdTrigger,
    /// All probes, in the order they were tried.
    pub probes: Vec<ThresholdProbe>,
    /// Whether an acceptable threshold was found.
    pub successful: bool,
}

/// What triggered a threshold classification (§3.5.2 lists exactly two causes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThresholdTrigger {
    /// The cumulative integral estimate's requested significant digits stopped
    /// changing while the error was still too large.
    EstimateConverged,
    /// The next subdivision would exhaust device memory.
    MemoryPressure,
}

/// Per-iteration statistics of a PAGANI run.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationRecord {
    /// Iteration index (0-based).
    pub iteration: usize,
    /// Number of regions evaluated this iteration.
    pub regions_processed: usize,
    /// Number of regions still active after all classification steps.
    pub active_after_classify: usize,
    /// Cumulative integral estimate (active + finished) at the end of the iteration.
    pub cumulative_estimate: f64,
    /// Cumulative error estimate (active + finished) at the end of the iteration.
    pub cumulative_error: f64,
    /// Integral contribution accumulated from finished regions so far.
    pub finished_estimate: f64,
    /// Error contribution accumulated from finished regions so far.
    pub finished_error: f64,
    /// Device-memory bytes in use at the end of the iteration.
    pub memory_used: usize,
    /// Whether the heuristic threshold classification ran this iteration.
    pub threshold_invoked: bool,
}

/// Full execution trace of one PAGANI run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecutionTrace {
    /// Per-iteration records, in order.
    pub iterations: Vec<IterationRecord>,
    /// Records of every threshold search that ran.
    pub threshold_searches: Vec<ThresholdSearchRecord>,
}

impl ExecutionTrace {
    /// Maximum number of regions alive in any single iteration.
    #[must_use]
    pub fn peak_regions(&self) -> usize {
        self.iterations
            .iter()
            .map(|r| r.regions_processed)
            .max()
            .unwrap_or(0)
    }

    /// Total regions evaluated across all iterations (Figure 9's "generated regions").
    #[must_use]
    pub fn total_regions_processed(&self) -> u64 {
        self.iterations
            .iter()
            .map(|r| r.regions_processed as u64)
            .sum()
    }

    /// The width of the sub-region tree per depth — the Figure 2 comparison data.
    #[must_use]
    pub fn tree_widths(&self) -> Vec<usize> {
        self.iterations
            .iter()
            .map(|r| r.regions_processed)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(iteration: usize, regions: usize) -> IterationRecord {
        IterationRecord {
            iteration,
            regions_processed: regions,
            active_after_classify: regions / 2,
            cumulative_estimate: 1.0,
            cumulative_error: 0.1,
            finished_estimate: 0.5,
            finished_error: 0.05,
            memory_used: regions * 64,
            threshold_invoked: false,
        }
    }

    #[test]
    fn peak_and_total_regions() {
        let trace = ExecutionTrace {
            iterations: vec![record(0, 100), record(1, 200), record(2, 150)],
            threshold_searches: Vec::new(),
        };
        assert_eq!(trace.peak_regions(), 200);
        assert_eq!(trace.total_regions_processed(), 450);
        assert_eq!(trace.tree_widths(), vec![100, 200, 150]);
    }

    #[test]
    fn empty_trace_is_harmless() {
        let trace = ExecutionTrace::default();
        assert_eq!(trace.peak_regions(), 0);
        assert_eq!(trace.total_regions_processed(), 0);
        assert!(trace.tree_widths().is_empty());
    }
}
