//! The cost model behind dispatch and admission: a static Genz–Malik formula
//! that *learns* from measured wall times.
//!
//! Two predictions are answered here, both keyed by what a job *is* rather
//! than what it does ([`CostKey`]):
//!
//! * **Static cost** ([`CostKey::static_cost`], the paper's Fig. 9 shape in
//!   [`estimated_cost`]) — a unitless relative weight.  Only orderings and
//!   ratios matter.
//! * **Time prediction** ([`CostModel::predict`]) — an estimated wall time
//!   in real units, used by deadline-aware admission
//!   ([`crate::IntegrationService::try_submit`]) to refuse jobs whose
//!   deadline cannot be met at the current backlog.
//!
//! One crate-private rule, `ledger_charge`, turns them into what a lane's
//! ledger is charged: the prediction in whole microseconds, or the static
//! cost while the model is cold (time predictions start as `None` —
//! admission is optimistic until the model has seen real work).  Every
//! completed, uncancelled job feeds its measured wall time back through
//! [`CostModel::record_job`] into a per-`(family, dim, digits)` bucket
//! ([`CostKey`]) holding an exponentially-weighted moving average
//! ([`Ewma`]) of observed wall times, plus one cross-bucket *calibration*
//! EWMA of microseconds per static cost unit — so even a `(family, dim,
//! digits)` combination the model has never seen gets a time estimate once
//! *any* job has been measured, scaled by its static cost.
//!
//! **Feedback never changes results.**  The model observes completions and
//! influences only *placement* (which lane) and *admission* (whether a
//! deadline-carrying `try_submit` is accepted); every job still runs against
//! an isolated memory view, so a trained model produces bit-identical
//! integration results to a cold one — pinned in
//! `tests/scheduling_semantics.rs`.
//!
//! **Determinism.**  Each bucket's EWMA is a pure fold over that bucket's
//! observation sequence: feeding the same observations in the same order
//! yields bit-identical state whatever the worker-thread count, and
//! concurrent recording into *distinct* buckets cannot cross-contaminate
//! (also pinned in `tests/scheduling_semantics.rs`).

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use pagani_quadrature::{Region, Tolerances};

use crate::batch::BatchJob;

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The saturation ceiling shared by [`estimated_cost`] and every ledger
/// charge: `2⁴⁰`.
///
/// Static costs are **integer-valued finite f64 values in
/// `[1, cost_ceiling()]`**, and warm charges in `[0, cost_ceiling()]`.  The
/// bounds are load-bearing for the outstanding-cost ledgers, which charge a
/// job's weight on dispatch and retire it on completion: sums of integers
/// this size stay far below `2⁵³`, so `+=` followed by `-=` cancels exactly
/// and a ledger can neither drift negative through f64 absorption nor turn
/// NaN through `inf - inf`.
#[must_use]
pub fn cost_ceiling() -> f64 {
    (40.0f64).exp2()
}

/// Estimated relative cost of integrating a `dim`-dimensional job to
/// `tolerances` — the *static* model, used before any wall time has been
/// measured.
///
/// The model multiplies the Genz–Malik evaluation cost per region
/// (`2^d + 2d² + 2d + 1` points) by a region-count factor that grows
/// exponentially with the requested digits of precision, scaled by dimension
/// — the paper's Figure 9 shape: every extra digit multiplies the number of
/// regions an adaptive run generates, and higher dimensions split more times
/// to reach the same digit.  Only the *ordering and ratios* of costs matter
/// for dispatch, not the absolute scale.
///
/// # Saturation and clamping
///
/// The result is always an **integer-valued finite f64 in
/// `[1, `[`cost_ceiling`]`]`** (see there for why the bounds are
/// load-bearing).  Very high-dimensional or very tight-tolerance jobs
/// (Monte Carlo accepts any `dim`) saturate at the ceiling instead of
/// overflowing to infinity — beyond the bound every job weighs the same
/// maximal amount, degrading to round-robin-like spreading, the safe
/// failure mode:
///
/// ```
/// use pagani_core::{cost_ceiling, estimated_cost};
/// use pagani_quadrature::Tolerances;
///
/// // An absurd request saturates at exactly the 2^40 ceiling — finite, so an
/// // outstanding-cost ledger can always retire what it charged.
/// let huge = estimated_cost(1000, Tolerances::rel(1e-12));
/// assert_eq!(huge, cost_ceiling());
///
/// // The floor is 1, and every cost is integer-valued (fract() == 0), so
/// // charge/retire cycles cancel exactly in f64 arithmetic.
/// let tiny = estimated_cost(1, Tolerances::rel(1e-1));
/// assert!(tiny >= 1.0);
/// assert_eq!(tiny.fract(), 0.0);
/// assert_eq!(huge.fract(), 0.0);
/// ```
#[must_use]
pub fn estimated_cost(dim: usize, tolerances: Tolerances) -> f64 {
    let d = dim as f64;
    let points_per_region = d.min(256.0).exp2() + 2.0 * d * d + 2.0 * d + 1.0;
    let digits = tolerances.digits_requested().clamp(1.0, 12.0);
    let raw = points_per_region * (digits * d / 2.0).min(512.0).exp2();
    raw.round().clamp(1.0, cost_ceiling())
}

/// The error targets that govern `job`: its method override's own tolerances
/// when it carries an override that knows them, otherwise
/// `default_tolerances` (the service's configuration).
#[must_use]
pub fn job_tolerances(job: &BatchJob, default_tolerances: Tolerances) -> Tolerances {
    job.method()
        .and_then(|method| method.tolerances())
        .unwrap_or(default_tolerances)
}

/// Estimated peak device-memory footprint (bytes) of integrating a
/// `dim`-dimensional job to `tolerances`.
///
/// Uses the same region-count growth factor as [`estimated_cost`]
/// (`2^(digits·d/2)` surviving regions at the precision frontier), times the
/// per-region storage a region list actually holds: bounds (`2d` f64s) plus
/// estimate, error, split axis and classification bookkeeping (~6 f64-sized
/// slots).  A deliberately *rough* planning number — its only consumer is the
/// slab-splitting admission check, which compares it against a device's
/// memory budget to decide whether a job must be cut into
/// [`crate::MultiDevicePagani::partition`] slabs at all, and into how many.
/// Everyday test-sized jobs (dim ≤ 4, tolerances ≥ 1e-5) land in the
/// kilobytes, far under any device budget, so they never split.
#[must_use]
pub fn estimated_footprint_bytes(dim: usize, tolerances: Tolerances) -> f64 {
    let d = dim as f64;
    let digits = tolerances.digits_requested().clamp(1.0, 12.0);
    let peak_regions = (digits * d / 2.0).min(53.0).exp2();
    let bytes_per_region = (2.0 * d + 6.0) * 8.0;
    peak_regions * bytes_per_region
}

/// [`estimated_footprint_bytes`] for a queued job, under [`job_tolerances`].
#[must_use]
pub fn estimated_job_footprint_bytes(job: &BatchJob, default_tolerances: Tolerances) -> f64 {
    estimated_footprint_bytes(job.region().dim(), job_tolerances(job, default_tolerances))
}

/// Apportion a whole-job dispatch weight across its slabs, proportionally to
/// slab volume, such that the per-slab weights are integer-valued and **sum
/// to exactly `total_cost`** (largest-remainder apportionment; ties break to
/// the lowest slab index).
///
/// Exactness is what the outstanding-cost ledgers need: a slab-split job
/// charges each child's weight to its lane and retires it on completion, so
/// the weights must add up to the parent's weight without f64 drift —
/// integer-valued f64s well below `2⁵³` guarantee that (see
/// [`cost_ceiling`]).
///
/// # Panics
/// Panics if `slabs` is empty or `total_cost` is not a non-negative
/// integer-valued finite f64 (every ledger charge is).
#[must_use]
pub fn slab_weights(total_cost: f64, slabs: &[Region]) -> Vec<f64> {
    assert!(!slabs.is_empty(), "at least one slab is required");
    assert!(
        total_cost.is_finite() && total_cost >= 0.0 && total_cost.fract() == 0.0,
        "dispatch weights are non-negative integer-valued f64s, got {total_cost}"
    );
    let volumes: Vec<f64> = slabs.iter().map(Region::volume).collect();
    let total_volume: f64 = volumes.iter().sum();
    // Degenerate (zero-volume) partitions fall back to equal shares.
    let shares: Vec<f64> = if total_volume > 0.0 && total_volume.is_finite() {
        volumes
            .iter()
            .map(|v| total_cost * (v / total_volume))
            .collect()
    } else {
        vec![total_cost / slabs.len() as f64; slabs.len()]
    };
    let mut weights: Vec<f64> = shares.iter().map(|s| s.floor()).collect();
    let assigned: f64 = weights.iter().sum();
    let mut leftover = (total_cost - assigned) as u64;
    // Hand the leftover units to the largest fractional remainders, ties to
    // the lowest index — a pure function of the inputs, so slab order (and
    // with it bit-deterministic recombination) is stable.
    let mut order: Vec<usize> = (0..slabs.len()).collect();
    order.sort_by(|&a, &b| {
        let (fa, fb) = (shares[a] - shares[a].floor(), shares[b] - shares[b].floor());
        fb.partial_cmp(&fa)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut cursor = 0usize;
    while leftover > 0 {
        weights[order[cursor % order.len()]] += 1.0;
        cursor += 1;
        leftover -= 1;
    }
    weights
}

/// An exponentially-weighted moving average: `value ← α·x + (1-α)·value`,
/// seeded by the first observation.
///
/// The update is a pure fold over the observation sequence — no clocks, no
/// randomness — so feeding the same observations in the same order yields
/// bit-identical state on any host and any thread count:
///
/// ```
/// use pagani_core::Ewma;
///
/// let mut a = Ewma::new(0.25);
/// assert_eq!(a.value(), None); // unseeded
/// for x in [100.0, 200.0, 150.0] {
///     a.observe(x);
/// }
/// let mut b = Ewma::new(0.25);
/// for x in [100.0, 200.0, 150.0] {
///     b.observe(x);
/// }
/// assert_eq!(a.value().unwrap().to_bits(), b.value().unwrap().to_bits());
/// assert_eq!(a.samples(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ewma {
    alpha: f64,
    value: f64,
    samples: u64,
}

impl Ewma {
    /// A fresh average with smoothing factor `alpha`, clamped to `(0, 1]`
    /// (1 means "latest observation wins outright").
    #[must_use]
    pub fn new(alpha: f64) -> Self {
        Self {
            alpha: if alpha.is_finite() {
                alpha.clamp(f64::EPSILON, 1.0)
            } else {
                1.0
            },
            value: 0.0,
            samples: 0,
        }
    }

    /// Fold one observation in.  The first observation seeds the average;
    /// non-finite observations are ignored.
    pub fn observe(&mut self, sample: f64) {
        if !sample.is_finite() {
            return;
        }
        self.value = if self.samples == 0 {
            sample
        } else {
            self.alpha.mul_add(sample, (1.0 - self.alpha) * self.value)
        };
        self.samples += 1;
    }

    /// The current average, or `None` before the first observation.
    #[must_use]
    pub fn value(&self) -> Option<f64> {
        (self.samples > 0).then_some(self.value)
    }

    /// Number of observations folded in so far.
    #[must_use]
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// The smoothing factor in force.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

/// The bucket key of the measured cost model: integrand family (its
/// [`pagani_quadrature::Integrand::name`]), dimension, and requested digits
/// of precision (clamped to `[1, 12]` and rounded, so nearby tolerances
/// share a bucket).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CostKey {
    /// Integrand family — the integrand's reported name.
    pub family: String,
    /// Dimensionality of the job's integration region.
    pub dim: usize,
    /// Requested decimal digits of relative precision, clamped and rounded.
    pub digits: u32,
}

impl CostKey {
    /// Key for integrating `family` in `dim` dimensions to `tolerances`.
    #[must_use]
    pub fn new(family: impl Into<String>, dim: usize, tolerances: Tolerances) -> Self {
        let digits = tolerances.digits_requested().clamp(1.0, 12.0).round();
        Self {
            family: family.into(),
            dim,
            digits: digits as u32,
        }
    }

    /// The key a queued job falls into, under [`job_tolerances`].
    #[must_use]
    pub fn for_job(job: &BatchJob, default_tolerances: Tolerances) -> Self {
        Self::new(
            job.integrand().name(),
            job.region().dim(),
            job_tolerances(job, default_tolerances),
        )
    }

    /// The static [`estimated_cost`] of a job in this bucket.
    #[must_use]
    pub fn static_cost(&self) -> f64 {
        estimated_cost(self.dim, Tolerances::digits(f64::from(self.digits)))
    }
}

/// What a lane's ledger is charged for a job in `key`'s bucket whose
/// (cache-discounted) prediction is `predicted`: the prediction in whole
/// microseconds, clamped to `[0, `[`cost_ceiling`]`]`, or the bucket's
/// [`CostKey::static_cost`] while the model is cold (`None`).  Integer-valued
/// either way, so charge/retire cycles cancel exactly.
pub(crate) fn ledger_charge(key: &CostKey, predicted: Option<Duration>) -> f64 {
    predicted.map_or_else(
        || key.static_cost(),
        |p| (p.as_secs_f64() * 1e6).round().clamp(0.0, cost_ceiling()),
    )
}

#[derive(Debug)]
struct ModelState {
    /// Per-bucket EWMA of measured wall time, in microseconds.
    buckets: HashMap<CostKey, Ewma>,
    /// Cross-bucket calibration: EWMA of measured microseconds per static
    /// cost unit.  Turns [`estimated_cost`] into a time estimate for buckets
    /// the model has never observed.
    micros_per_unit: Ewma,
    /// Total observations recorded.
    observations: u64,
}

/// The measured cost model: per-[`CostKey`] EWMA buckets of observed wall
/// times over the static [`estimated_cost`] fallback.
///
/// Shared by every lane of a [`crate::MultiDeviceService`] (buckets pool
/// their learning across devices) and owned per
/// [`crate::IntegrationService`] otherwise.  See the [module
/// docs](crate::cost) for the learning scheme and the determinism and
/// result-transparency guarantees.
///
/// ```
/// use std::time::Duration;
/// use pagani_core::{CostKey, CostModel};
/// use pagani_quadrature::Tolerances;
///
/// let model = CostModel::new();
/// let key = CostKey::new("oscillatory", 5, Tolerances::rel(1e-6));
///
/// // Cold model: no time prediction yet (admission stays optimistic)…
/// assert_eq!(model.predict(&key), None);
///
/// // …after two measured runs the bucket answers with its EWMA…
/// model.record(&key, Duration::from_millis(80));
/// model.record(&key, Duration::from_millis(120));
/// let predicted = model.predict(&key).unwrap();
/// assert!(predicted > Duration::from_millis(80) && predicted < Duration::from_millis(120));
///
/// // …and an unseen bucket is priced through the calibration (measured
/// // microseconds per static cost unit), scaled by its own static cost.
/// let unseen = CostKey::new("corner-peak", 6, Tolerances::rel(1e-6));
/// assert!(model.predict(&unseen).is_some());
/// ```
#[derive(Debug)]
pub struct CostModel {
    state: Mutex<ModelState>,
}

impl Default for CostModel {
    fn default() -> Self {
        Self::new()
    }
}

impl CostModel {
    /// The default smoothing factor: recent runs weigh 25%.
    pub const DEFAULT_ALPHA: f64 = 0.25;

    /// A fresh model with the default smoothing factor.
    #[must_use]
    pub fn new() -> Self {
        Self {
            state: Mutex::new(ModelState {
                buckets: HashMap::new(),
                micros_per_unit: Ewma::new(Self::DEFAULT_ALPHA),
                observations: 0,
            }),
        }
    }

    /// Fold one measured wall time into `key`'s bucket (and the cross-bucket
    /// calibration).  The service records every completed, *uncancelled* job
    /// here — cancelled runs carry partial wall times that would bias the
    /// average low.
    pub fn record(&self, key: &CostKey, wall_time: Duration) {
        let micros = (wall_time.as_secs_f64() * 1e6).clamp(0.0, cost_ceiling());
        let mut state = lock(&self.state);
        state
            .buckets
            .entry(key.clone())
            .or_insert_with(|| Ewma::new(Self::DEFAULT_ALPHA))
            .observe(micros);
        let per_unit = micros / key.static_cost();
        state.micros_per_unit.observe(per_unit);
        state.observations += 1;
    }

    /// [`CostModel::record`] keyed by a job ([`CostKey::for_job`]).
    pub fn record_job(&self, job: &BatchJob, default_tolerances: Tolerances, wall_time: Duration) {
        self.record(&CostKey::for_job(job, default_tolerances), wall_time);
    }

    /// Predicted wall time for a job in `key`'s bucket: the bucket's own EWMA
    /// when the bucket has been observed, otherwise the calibration scaled by
    /// the bucket's static cost, otherwise `None` (a cold model refuses to
    /// guess — deadline admission stays optimistic until real work has been
    /// measured).
    #[must_use]
    pub fn predict(&self, key: &CostKey) -> Option<Duration> {
        let state = lock(&self.state);
        let micros = match state.buckets.get(key).and_then(Ewma::value) {
            Some(measured) => measured,
            None => state.micros_per_unit.value()? * key.static_cost(),
        };
        Some(Duration::from_secs_f64(
            micros.clamp(0.0, cost_ceiling()) / 1e6,
        ))
    }

    /// Total wall-time observations recorded so far.
    #[must_use]
    pub fn observations(&self) -> u64 {
        lock(&self.state).observations
    }

    /// Number of distinct `(family, dim, digits)` buckets observed.
    #[must_use]
    pub fn bucket_count(&self) -> usize {
        lock(&self.state).buckets.len()
    }

    /// A copy of `key`'s bucket EWMA (microseconds), if observed.
    #[must_use]
    pub fn bucket(&self, key: &CostKey) -> Option<Ewma> {
        lock(&self.state).buckets.get(key).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pagani_integrands::paper::PaperIntegrand;

    fn key(family: &str) -> CostKey {
        CostKey::new(family, 3, Tolerances::rel(1e-4))
    }

    #[test]
    fn ewma_is_a_pure_fold() {
        let observations = [100.0, 250.0, 175.0, 60.0, 300.0];
        let fold = |xs: &[f64]| {
            let mut e = Ewma::new(0.25);
            for &x in xs {
                e.observe(x);
            }
            e
        };
        let a = fold(&observations);
        let b = fold(&observations);
        assert_eq!(a.value().unwrap().to_bits(), b.value().unwrap().to_bits());
        assert_eq!(a.samples(), 5);
        // Hand-rolled first two steps: seed then blend.
        let mut manual = 100.0f64;
        manual = 0.25f64.mul_add(250.0, 0.75 * manual);
        let mut two = Ewma::new(0.25);
        two.observe(100.0);
        two.observe(250.0);
        assert_eq!(two.value().unwrap().to_bits(), manual.to_bits());
    }

    #[test]
    fn ewma_ignores_non_finite_observations() {
        let mut e = Ewma::new(0.5);
        e.observe(f64::NAN);
        e.observe(f64::INFINITY);
        assert_eq!(e.value(), None);
        e.observe(10.0);
        e.observe(f64::NAN);
        assert_eq!(e.value(), Some(10.0));
        assert_eq!(e.samples(), 1);
    }

    #[test]
    fn cold_model_has_no_time_prediction_but_a_static_weight() {
        let model = CostModel::new();
        let k = key("f4");
        assert_eq!(model.predict(&k), None);
        assert_eq!(ledger_charge(&k, model.predict(&k)), k.static_cost());
        assert_eq!(model.observations(), 0);
        assert_eq!(model.bucket_count(), 0);
    }

    #[test]
    fn observed_bucket_predicts_its_own_ewma() {
        let model = CostModel::new();
        let k = key("f4");
        model.record(&k, Duration::from_millis(100));
        assert_eq!(model.predict(&k), Some(Duration::from_millis(100)));
        model.record(&k, Duration::from_millis(200));
        let predicted = model.predict(&k).unwrap();
        assert!(predicted > Duration::from_millis(100));
        assert!(predicted < Duration::from_millis(200));
        assert_eq!(model.observations(), 2);
        assert_eq!(model.bucket_count(), 1);
    }

    #[test]
    fn calibration_prices_unseen_buckets_proportionally_to_static_cost() {
        let model = CostModel::new();
        model.record(&key("f4"), Duration::from_millis(50));
        let cheap = CostKey::new("unseen", 2, Tolerances::rel(1e-3));
        let dear = CostKey::new("unseen", 5, Tolerances::rel(1e-6));
        let (p_cheap, p_dear) = (
            model.predict(&cheap).unwrap(),
            model.predict(&dear).unwrap(),
        );
        assert!(p_dear > p_cheap, "{p_dear:?} <= {p_cheap:?}");
        // The ratio tracks the static cost ratio exactly (one shared
        // calibration scalar).
        let ratio = p_dear.as_secs_f64() / p_cheap.as_secs_f64();
        let static_ratio = dear.static_cost() / cheap.static_cost();
        assert!((ratio / static_ratio - 1.0).abs() < 1e-6);
    }

    #[test]
    fn weights_are_integer_valued_and_clamped() {
        let model = CostModel::new();
        let k = key("f4");
        // Sub-microsecond prediction: the warm charge rounds down to 0.
        model.record(&k, Duration::from_nanos(10));
        assert_eq!(ledger_charge(&k, model.predict(&k)), 0.0);
        // An absurd measurement saturates at the shared ceiling.
        let slow = key("slow");
        model.record(&slow, Duration::from_secs(u64::MAX >> 16));
        assert_eq!(ledger_charge(&slow, model.predict(&slow)), cost_ceiling());
        // Every charge, warm or cold, is a finite integer in range.
        let predictions =
            [1_499, 1_500, 123_456_789, u64::MAX].map(|nanos| Some(Duration::from_nanos(nanos)));
        for predicted in predictions.into_iter().chain([None]) {
            let charge = ledger_charge(&k, predicted);
            assert!(charge.is_finite() && (0.0..=cost_ceiling()).contains(&charge));
            assert_eq!(charge.fract(), 0.0, "{predicted:?} charged {charge}");
        }
    }

    #[test]
    fn job_keys_use_method_override_tolerances() {
        let job = BatchJob::new(PaperIntegrand::f4(3));
        let default_key = CostKey::for_job(&job, Tolerances::rel(1e-3));
        assert_eq!(default_key.digits, 3);
        let tighter = CostKey::for_job(&job, Tolerances::rel(1e-8));
        assert_eq!(tighter.digits, 8);
        assert_eq!(default_key.family, job.integrand().name());
    }

    #[test]
    fn estimated_cost_still_saturates_and_stays_integer() {
        for dim in [30, 147, 1000, usize::MAX >> 32] {
            let cost = estimated_cost(dim, Tolerances::rel(1e-12));
            assert!(cost.is_finite());
            assert_eq!(cost, cost_ceiling());
        }
        assert!(estimated_cost(1, Tolerances::rel(1e-1)) >= 1.0);
    }
}
