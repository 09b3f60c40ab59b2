//! Sample statistics: exact quantiles of small sample sets and a
//! fixed-memory log histogram for per-job timings.

use std::time::Duration;

/// `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation between
/// order statistics; 0 for an empty set.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of `values`; 0 for an empty set.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean of `values`; 0 for an empty set.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// The percentiles a tail is read at.  The highest one that leaves at least
/// [`TAIL_MIN_BEYOND`] samples beyond it is the reported tail.  The ladder
/// stops at 90: on the shared 2-vCPU reference host the 99th percentile of
/// the service workloads moved by half or more between identical runs
/// whenever hypervisor steal rose, while the median moved by 4–10 %.  A
/// fixed top rung also keeps a faster build, which completes more jobs in a
/// run, from moving the tail to a higher percentile.
const TAIL_LADDER: [f64; 2] = [50.0, 90.0];

/// Samples a tail percentile must leave beyond it.
const TAIL_MIN_BEYOND: f64 = 10.0;

/// The tail percentile for `samples` samples (see [`TAIL_LADDER`]).
pub fn tail_percentile(samples: u64) -> f64 {
    TAIL_LADDER
        .iter()
        .copied()
        .filter(|p| samples as f64 * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND)
        .fold(TAIL_LADDER[0], f64::max)
}

/// Relative width of one histogram bucket.
const BUCKET_GROWTH: f64 = 1.002;
/// Buckets cover 1 ns to about 1000 s.
const BUCKETS: usize = 13_900;

/// A log-bucketed histogram of durations: constant memory however many
/// samples it holds, so recording a million requests does not grow the
/// benchmark's own resident set, and quantiles within 0.2 %.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

impl Histogram {
    /// Record one duration.
    pub fn record(&mut self, d: Duration) {
        self.record_nanos(d.as_nanos() as f64);
    }

    /// Record one value in nanoseconds (negative values count as 0).
    pub fn record_nanos(&mut self, nanos: f64) {
        let bucket = if nanos <= 1.0 {
            0
        } else {
            ((nanos.ln() / BUCKET_GROWTH.ln()) as usize).min(BUCKETS - 1)
        };
        self.counts[bucket] += 1;
        self.total += 1;
    }

    /// Add every sample of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.total += other.total;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Value in milliseconds at percentile `p` (0–100), interpolated
    /// geometrically inside its bucket; 0 for an empty histogram.
    pub fn percentile_ms(&self, p: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = (p / 100.0).clamp(0.0, 1.0) * (self.total - 1) as f64;
        let mut below = 0u64;
        for (bucket, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if (below + count) as f64 > rank {
                let within = (rank - below as f64 + 0.5) / count as f64;
                let nanos = BUCKET_GROWTH.powf(bucket as f64 + within);
                return nanos / 1e6;
            }
            below += count;
        }
        BUCKET_GROWTH.powf(BUCKETS as f64) / 1e6
    }

    /// Value in microseconds at percentile `p`.
    pub fn percentile_us(&self, p: f64) -> f64 {
        self.percentile_ms(p) * 1e3
    }
}
