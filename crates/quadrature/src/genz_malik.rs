//! The Genz–Malik degree-7/5 embedded fully-symmetric cubature rule family.
//!
//! This is the rule used by DCUHRE, Cuba's Cuhre, the two-phase GPU method and PAGANI
//! (§2.1 and §3.2 of the paper).  For an `n`-dimensional hyper-rectangle it evaluates
//! the integrand at `2^n + 2n² + 2n + 1` points arranged in five fully-symmetric
//! orbits and produces:
//!
//! * a degree-7 integral estimate,
//! * an embedded degree-5 estimate whose difference from the degree-7 estimate is the
//!   error estimate, and
//! * the axis along which the scaled fourth divided difference of the integrand is
//!   largest, which is the axis the adaptive algorithms split next.
//!
//! The weights follow Genz & Malik (1983); the same constants are used by the
//! reference `cubature` and `gpuintegration` implementations.
//!
//! # How the points are built
//!
//! Every integrator spends most of its time in this one point loop, so it does as
//! little per point as it can.  The `c ± λ₄h` and `c ± λ₅h` coordinates of every axis
//! are computed once per region, the way the CUDA implementation keeps its generators
//! precomputed; the two-axis orbit is assembled from the `λ₄` pair.  The `2^n`
//! corners are visited in counting order (bit `i` of the corner index set means
//! `c_i − λ₅h_i`), and between two corners only the axes whose bits flip are
//! rewritten: `0..=trailing_zeros(index)`, two on average.
//!
//! A precomputed coordinate is bit for bit the one a per-point `c + (±1·λ)·h` gives,
//! because IEEE negation is exact (`(−λ)·h = −(λ·h)` and `c + (−x) = c − x`).  The
//! integrand sees the same points in the same order, and every sum runs in the same
//! order, so estimates, errors and split axes do not depend on how the points are
//! built.

use crate::integrand::Integrand;
use crate::region::Region;

/// λ₂ = √(9/70): offset of the first single-axis orbit.
const LAMBDA2: f64 = 0.358_568_582_800_318_1;
/// λ₄ = √(9/10): offset of the second single-axis orbit and of the two-axis orbit.
const LAMBDA4: f64 = 0.948_683_298_050_513_8;
/// λ₅ = √(9/19): offset of the corner orbit.
const LAMBDA5: f64 = 0.688_247_201_611_685_3;
/// Ratio λ₂²/λ₄² used by the fourth-difference split-axis criterion.
const RATIO: f64 = (9.0 / 70.0) / (9.0 / 10.0);

/// Result of evaluating the rule on one region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuleEstimate {
    /// Degree-7 integral estimate.
    pub integral: f64,
    /// Error estimate `|I₇ − I₅|`.
    pub error: f64,
    /// Axis with the largest scaled fourth difference — the recommended split axis.
    pub split_axis: usize,
    /// Number of integrand evaluations performed (constant for a given dimension).
    pub evaluations: usize,
}

/// Reusable scratch space for rule evaluation.
///
/// The hot loops of every integrator evaluate the rule millions of times; keeping the
/// point buffer, the per-axis orbit coordinates and difference accumulators, and the
/// centre and half-widths [`GenzMalik::evaluate`] derives from a [`Region`] out of the
/// allocator is the same optimisation the CUDA kernels get from shared and constant
/// memory.  All of it is one allocation, made here.  Every entry is written before it
/// is read, so which scratch an evaluation gets never changes its result.
#[derive(Debug, Clone)]
pub struct EvalScratch {
    /// `SCRATCH_ARRAYS` arrays of the rule's dimension, back to back: the
    /// staged centre and half-widths, then the six orbit arrays.
    values: Vec<f64>,
}

/// Per-axis arrays in an [`EvalScratch`]: two staged, six for the orbits.
const SCRATCH_ARRAYS: usize = 8;

impl EvalScratch {
    /// Scratch space for a `dim`-dimensional rule.
    #[must_use]
    pub fn new(dim: usize) -> Self {
        Self {
            values: vec![0.0; SCRATCH_ARRAYS * dim],
        }
    }

    /// The staged centre and half-widths of a `dim`-dimensional scratch, and
    /// its orbit arrays.
    ///
    /// # Panics
    /// Panics if the scratch was made for another dimension.
    fn split(&mut self, dim: usize) -> (&mut [f64], &mut [f64], &mut [f64]) {
        assert_eq!(
            self.values.len(),
            SCRATCH_ARRAYS * dim,
            "scratch has wrong dimension"
        );
        let (staged, orbits) = self.values.split_at_mut(2 * dim);
        let (center, halfwidth) = staged.split_at_mut(dim);
        (center, halfwidth, orbits)
    }
}

/// The Genz–Malik degree-7/5 embedded rule for a fixed dimension.
#[derive(Debug, Clone)]
pub struct GenzMalik {
    dim: usize,
    /// Degree-7 weights for the five orbits (centre, ±λ₂eᵢ, ±λ₄eᵢ, two-axis, corners).
    w: [f64; 5],
    /// Embedded degree-5 weights for the first four orbits.
    we: [f64; 4],
    num_points: usize,
}

impl GenzMalik {
    /// Construct the rule for `dim` dimensions.
    ///
    /// # Panics
    /// Panics if `dim < 2` (the fully-symmetric construction needs at least two axes;
    /// use the Gauss–Kronrod rule in [`crate::gauss_kronrod`] for one-dimensional
    /// problems) or if `dim > 30` (the corner orbit alone would exceed 2³⁰ points).
    #[must_use]
    pub fn new(dim: usize) -> Self {
        assert!(
            (2..=30).contains(&dim),
            "Genz-Malik rule supports 2..=30 dimensions, got {dim}"
        );
        let n = dim as f64;
        let w = [
            (12824.0 - 9120.0 * n + 400.0 * n * n) / 19683.0,
            980.0 / 6561.0,
            (1820.0 - 400.0 * n) / 19683.0,
            200.0 / 19683.0,
            6859.0 / 19683.0 / (1u64 << dim) as f64,
        ];
        let we = [
            (729.0 - 950.0 * n + 50.0 * n * n) / 729.0,
            245.0 / 486.0,
            (265.0 - 100.0 * n) / 1458.0,
            25.0 / 729.0,
        ];
        let num_points = 1 + 4 * dim + 2 * dim * (dim - 1) + (1usize << dim);
        Self {
            dim,
            w,
            we,
            num_points,
        }
    }

    /// Dimensionality the rule was built for.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of integrand evaluations per region: `2^n + 2n² + 2n + 1`.
    #[must_use]
    pub fn num_points(&self) -> usize {
        self.num_points
    }

    /// Evaluate the rule on the region described by `center` and `halfwidth`.
    ///
    /// # Panics
    /// Panics if the slices or the scratch do not match the rule dimension.
    pub fn evaluate_centered<F: Integrand + ?Sized>(
        &self,
        f: &F,
        center: &[f64],
        halfwidth: &[f64],
        scratch: &mut EvalScratch,
    ) -> RuleEstimate {
        let (_, _, orbits) = scratch.split(self.dim);
        self.evaluate_orbits(f, center, halfwidth, orbits)
    }

    /// Evaluate the rule on a [`Region`].  Its centre `0.5·(lo + hi)` and
    /// half-widths `0.5·(hi − lo)` are staged in `scratch`, so the call allocates
    /// nothing.
    ///
    /// # Panics
    /// Panics if the region or the scratch does not match the rule dimension.
    pub fn evaluate<F: Integrand + ?Sized>(
        &self,
        f: &F,
        region: &Region,
        scratch: &mut EvalScratch,
    ) -> RuleEstimate {
        assert_eq!(region.dim(), self.dim, "region has wrong dimension");
        let (center, halfwidth, orbits) = scratch.split(self.dim);
        for (axis, (&l, &h)) in region.lo().iter().zip(region.hi()).enumerate() {
            center[axis] = 0.5 * (l + h);
            halfwidth[axis] = 0.5 * (h - l);
        }
        self.evaluate_orbits(f, center, halfwidth, orbits)
    }

    /// The rule itself: the five orbits' points, in a fixed order, and the sums
    /// over them.  `orbits` holds six arrays of the rule's dimension: the point,
    /// the fourth differences, and per axis `c − λ₄h`, `c + λ₄h`, `c − λ₅h` and
    /// `c + λ₅h`.
    fn evaluate_orbits<F: Integrand + ?Sized>(
        &self,
        f: &F,
        center: &[f64],
        halfwidth: &[f64],
        orbits: &mut [f64],
    ) -> RuleEstimate {
        assert_eq!(center.len(), self.dim, "center has wrong dimension");
        assert_eq!(halfwidth.len(), self.dim, "halfwidth has wrong dimension");

        let dim = self.dim;
        let volume: f64 = halfwidth.iter().map(|&h| 2.0 * h).product();
        let (point, orbits) = orbits.split_at_mut(dim);
        let (fourth_diff, orbits) = orbits.split_at_mut(dim);
        let (lo4, orbits) = orbits.split_at_mut(dim);
        let (hi4, orbits) = orbits.split_at_mut(dim);
        let (lo5, hi5) = orbits.split_at_mut(dim);

        // The centre and the λ₄ and λ₅ coordinates of every axis, once per region.
        for axis in 0..dim {
            let h = halfwidth[axis];
            let c = center[axis];
            point[axis] = c;
            lo4[axis] = c - LAMBDA4 * h;
            hi4[axis] = c + LAMBDA4 * h;
            lo5[axis] = c - LAMBDA5 * h;
            hi5[axis] = c + LAMBDA5 * h;
        }

        // Orbit 1: the centre.
        let f_center = f.eval(point);
        let sum1 = f_center;

        // Orbits 2 and 3: single-axis offsets at λ₂ and λ₄.
        let mut sum2 = 0.0;
        let mut sum3 = 0.0;
        for axis in 0..dim {
            let h = halfwidth[axis];
            let c = center[axis];

            point[axis] = c - LAMBDA2 * h;
            let f2_lo = f.eval(point);
            point[axis] = c + LAMBDA2 * h;
            let f2_hi = f.eval(point);

            point[axis] = lo4[axis];
            let f4_lo = f.eval(point);
            point[axis] = hi4[axis];
            let f4_hi = f.eval(point);

            point[axis] = c;

            let pair2 = f2_lo + f2_hi;
            let pair4 = f4_lo + f4_hi;
            sum2 += pair2;
            sum3 += pair4;
            // Scaled fourth divided difference along this axis (Genz–Malik split
            // criterion, also used by cubature and DCUHRE).
            fourth_diff[axis] = (pair2 - 2.0 * f_center - RATIO * (pair4 - 2.0 * f_center)).abs();
        }

        // Orbit 4: two-axis offsets (±λ₄, ±λ₄) for every axis pair, in the sign
        // order (+,+), (+,−), (−,+), (−,−).
        let mut sum4 = 0.0;
        for i in 0..dim {
            for j in (i + 1)..dim {
                point[i] = hi4[i];
                point[j] = hi4[j];
                sum4 += f.eval(point);
                point[j] = lo4[j];
                sum4 += f.eval(point);
                point[i] = lo4[i];
                point[j] = hi4[j];
                sum4 += f.eval(point);
                point[j] = lo4[j];
                sum4 += f.eval(point);
                point[j] = center[j];
            }
            point[i] = center[i];
        }

        // Orbit 5: the 2^n corner points at ±λ₅ in every axis, in counting order of
        // the corner index; a set bit puts its axis at `c − λ₅h`.  From one index to
        // the next, bit `flip = trailing_zeros(index)` sets and the bits below it
        // clear.  Plain loops write the coordinates here and above: `copy_from_slice`
        // calls `memcpy`, which costs more than the few axes it would copy.
        let mut sum5 = 0.0;
        for (axis, &x) in hi5.iter().enumerate() {
            point[axis] = x;
        }
        sum5 += f.eval(point);
        for corner in 1..1usize << dim {
            let flip = corner.trailing_zeros() as usize;
            for (axis, &x) in hi5[..flip].iter().enumerate() {
                point[axis] = x;
            }
            point[flip] = lo5[flip];
            sum5 += f.eval(point);
        }

        let integral = volume
            * (self.w[0] * sum1
                + self.w[1] * sum2
                + self.w[2] * sum3
                + self.w[3] * sum4
                + self.w[4] * sum5);
        let fifth_degree = volume
            * (self.we[0] * sum1 + self.we[1] * sum2 + self.we[2] * sum3 + self.we[3] * sum4);
        let error = (integral - fifth_degree).abs();

        // Split axis: largest fourth difference; ties broken towards the widest edge
        // so repeated splitting cannot starve an axis.
        let mut split_axis = 0;
        let mut best_diff = fourth_diff[0];
        let mut best_width = halfwidth[0];
        for (axis, (&d, &width)) in fourth_diff[..dim]
            .iter()
            .zip(&halfwidth[..dim])
            .enumerate()
            .skip(1)
        {
            if d > best_diff || (d == best_diff && width > best_width) {
                split_axis = axis;
                best_diff = d;
                best_width = width;
            }
        }

        RuleEstimate {
            integral,
            error,
            split_axis,
            evaluations: self.num_points,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrand::FnIntegrand;
    use proptest::prelude::*;
    use std::sync::Mutex;

    fn eval_on_unit_cube(dim: usize, f: impl Fn(&[f64]) -> f64 + Sync) -> RuleEstimate {
        let rule = GenzMalik::new(dim);
        let mut scratch = EvalScratch::new(dim);
        let region = Region::unit_cube(dim);
        rule.evaluate(&FnIntegrand::new(dim, f), &region, &mut scratch)
    }

    #[test]
    fn point_count_formula() {
        for dim in 2..=10 {
            let rule = GenzMalik::new(dim);
            assert_eq!(
                rule.num_points(),
                (1usize << dim) + 2 * dim * dim + 2 * dim + 1
            );
        }
        assert_eq!(GenzMalik::new(2).num_points(), 4 + 8 + 4 + 1);
        assert_eq!(GenzMalik::new(3).num_points(), 8 + 18 + 6 + 1);
    }

    #[test]
    #[should_panic(expected = "2..=30 dimensions")]
    fn dimension_one_is_rejected() {
        let _ = GenzMalik::new(1);
    }

    #[test]
    fn constant_is_integrated_exactly() {
        for dim in 2..=6 {
            let est = eval_on_unit_cube(dim, |_| 3.5);
            assert!((est.integral - 3.5).abs() < 1e-12, "dim {dim}");
            assert!(est.error < 1e-12, "dim {dim}");
        }
    }

    #[test]
    fn degree_seven_polynomials_are_exact() {
        // x0^7 over [0,1]^3 integrates to 1/8; degree 7 is within the rule's degree.
        let est = eval_on_unit_cube(3, |x| x[0].powi(7));
        assert!((est.integral - 0.125).abs() < 1e-10, "got {}", est.integral);
        // Mixed monomial of total degree 7.
        let est = eval_on_unit_cube(3, |x| x[0].powi(3) * x[1].powi(2) * x[2].powi(2));
        let exact = (1.0 / 4.0) * (1.0 / 3.0) * (1.0 / 3.0);
        assert!((est.integral - exact).abs() < 1e-12);
    }

    #[test]
    fn degree_nine_polynomial_is_not_exact_but_error_bounds_it() {
        let est = eval_on_unit_cube(2, |x| x[0].powi(9) * x[1].powi(8));
        let exact = (1.0 / 10.0) * (1.0 / 9.0);
        let true_err = (est.integral - exact).abs();
        assert!(true_err > 0.0);
        // The embedded error estimate should be of the same magnitude or larger.
        assert!(est.error >= 0.1 * true_err);
    }

    #[test]
    fn scales_with_region_volume() {
        let rule = GenzMalik::new(2);
        let mut scratch = EvalScratch::new(2);
        let f = FnIntegrand::new(2, |_: &[f64]| 2.0);
        let region = Region::new(vec![0.0, 0.0], vec![3.0, 0.5]);
        let est = rule.evaluate(&f, &region, &mut scratch);
        assert!((est.integral - 2.0 * 1.5).abs() < 1e-12);
    }

    #[test]
    fn split_axis_follows_variation() {
        // Variation is much stronger along axis 1 than axis 0.
        let est = eval_on_unit_cube(3, |x| (20.0 * x[1]).sin() + 0.01 * x[0]);
        assert_eq!(est.split_axis, 1);
    }

    #[test]
    fn split_axis_prefers_wider_edge_on_ties() {
        let rule = GenzMalik::new(2);
        let mut scratch = EvalScratch::new(2);
        let f = FnIntegrand::new(2, |_: &[f64]| 1.0);
        // Constant integrand: all fourth differences are zero, widest axis wins.
        let region = Region::new(vec![0.0, 0.0], vec![1.0, 4.0]);
        let est = rule.evaluate(&f, &region, &mut scratch);
        assert_eq!(est.split_axis, 1);
    }

    #[test]
    fn gaussian_estimate_is_close_on_small_region() {
        // On a small region around the peak the rule should already be very accurate.
        let rule = GenzMalik::new(2);
        let mut scratch = EvalScratch::new(2);
        let f = FnIntegrand::new(2, |x: &[f64]| {
            (-((x[0] - 0.5).powi(2) + (x[1] - 0.5).powi(2)) * 4.0).exp()
        });
        let region = Region::new(vec![0.45, 0.45], vec![0.55, 0.55]);
        let est = rule.evaluate(&f, &region, &mut scratch);
        // Reference from a fine tensor Simpson evaluation of the same patch.
        let reference = simpson_2d(
            &|x, y| (-((x - 0.5f64).powi(2) + (y - 0.5).powi(2)) * 4.0).exp(),
            0.45,
            0.55,
            0.45,
            0.55,
            64,
        );
        assert!((est.integral - reference).abs() < 1e-9);
    }

    fn simpson_2d(
        f: &dyn Fn(f64, f64) -> f64,
        x0: f64,
        x1: f64,
        y0: f64,
        y1: f64,
        n: usize,
    ) -> f64 {
        let simpson_1d = |g: &dyn Fn(f64) -> f64, a: f64, b: f64| {
            let h = (b - a) / n as f64;
            let mut s = g(a) + g(b);
            for i in 1..n {
                let w = if i % 2 == 1 { 4.0 } else { 2.0 };
                s += w * g(a + i as f64 * h);
            }
            s * h / 3.0
        };
        simpson_1d(&|y| simpson_1d(&|x| f(x, y), x0, x1), y0, y1)
    }

    #[test]
    fn evaluation_count_matches_reported() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let count = AtomicUsize::new(0);
        let dim = 4;
        let rule = GenzMalik::new(dim);
        let mut scratch = EvalScratch::new(dim);
        let f = FnIntegrand::new(dim, |_: &[f64]| {
            count.fetch_add(1, Ordering::Relaxed);
            1.0
        });
        let est = rule.evaluate(&f, &Region::unit_cube(dim), &mut scratch);
        assert_eq!(count.load(Ordering::Relaxed), est.evaluations);
        assert_eq!(est.evaluations, rule.num_points());
    }

    /// The rule's point loop as it was before the orbit coordinates were
    /// precomputed, kept verbatim (its buffers local instead of in a scratch) as
    /// the reference the rule must match point for point and bit for bit.
    fn reference_evaluate(
        rule: &GenzMalik,
        f: &dyn Integrand,
        center: &[f64],
        halfwidth: &[f64],
    ) -> RuleEstimate {
        let dim = rule.dim;
        let volume: f64 = halfwidth.iter().map(|&h| 2.0 * h).product();

        let mut point = center.to_vec();
        let mut fourth_diff = vec![0.0; dim];

        // Orbit 1: the centre.
        let f_center = f.eval(&point);
        let sum1 = f_center;

        // Orbits 2 and 3: single-axis offsets at λ₂ and λ₄.
        let mut sum2 = 0.0;
        let mut sum3 = 0.0;
        for axis in 0..dim {
            let h = halfwidth[axis];
            let c = center[axis];

            point[axis] = c - LAMBDA2 * h;
            let f2_lo = f.eval(&point);
            point[axis] = c + LAMBDA2 * h;
            let f2_hi = f.eval(&point);

            point[axis] = c - LAMBDA4 * h;
            let f4_lo = f.eval(&point);
            point[axis] = c + LAMBDA4 * h;
            let f4_hi = f.eval(&point);

            point[axis] = c;

            let pair2 = f2_lo + f2_hi;
            let pair4 = f4_lo + f4_hi;
            sum2 += pair2;
            sum3 += pair4;
            fourth_diff[axis] = (pair2 - 2.0 * f_center - RATIO * (pair4 - 2.0 * f_center)).abs();
        }

        // Orbit 4: two-axis offsets (±λ₄, ±λ₄) for every axis pair.
        let mut sum4 = 0.0;
        for i in 0..dim {
            for j in (i + 1)..dim {
                let ci = center[i];
                let cj = center[j];
                let hi = halfwidth[i];
                let hj = halfwidth[j];
                for &(si, sj) in &[(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)] {
                    point[i] = ci + si * LAMBDA4 * hi;
                    point[j] = cj + sj * LAMBDA4 * hj;
                    sum4 += f.eval(&point);
                }
                point[i] = ci;
                point[j] = cj;
            }
        }

        // Orbit 5: the 2^n corner points at ±λ₅ in every axis.
        let mut sum5 = 0.0;
        let corners = 1usize << dim;
        for bits in 0..corners {
            for axis in 0..dim {
                let sign = if bits & (1 << axis) == 0 { 1.0 } else { -1.0 };
                point[axis] = center[axis] + sign * LAMBDA5 * halfwidth[axis];
            }
            sum5 += f.eval(&point);
        }

        let integral = volume
            * (rule.w[0] * sum1
                + rule.w[1] * sum2
                + rule.w[2] * sum3
                + rule.w[3] * sum4
                + rule.w[4] * sum5);
        let fifth_degree = volume
            * (rule.we[0] * sum1 + rule.we[1] * sum2 + rule.we[2] * sum3 + rule.we[3] * sum4);
        let error = (integral - fifth_degree).abs();

        let mut split_axis = 0;
        let mut best_diff = fourth_diff[0];
        let mut best_width = halfwidth[0];
        for (axis, (&d, &width)) in fourth_diff[..dim]
            .iter()
            .zip(&halfwidth[..dim])
            .enumerate()
            .skip(1)
        {
            if d > best_diff || (d == best_diff && width > best_width) {
                split_axis = axis;
                best_diff = d;
                best_width = width;
            }
        }

        RuleEstimate {
            integral,
            error,
            split_axis,
            evaluations: rule.num_points,
        }
    }

    /// Records the bits of every coordinate of every point it is asked for, in
    /// order, and returns a value that depends on all of them.
    struct Recorder {
        dim: usize,
        coordinates: Mutex<Vec<u64>>,
    }

    impl Recorder {
        fn new(dim: usize) -> Self {
            Self {
                dim,
                coordinates: Mutex::new(Vec::new()),
            }
        }

        fn into_coordinates(self) -> Vec<u64> {
            self.coordinates.into_inner().unwrap()
        }
    }

    impl Integrand for Recorder {
        fn dim(&self) -> usize {
            self.dim
        }

        fn eval(&self, x: &[f64]) -> f64 {
            let mut coordinates = self.coordinates.lock().unwrap();
            let mut hash = 0xcbf2_9ce4_8422_2325u64;
            for &v in x {
                coordinates.push(v.to_bits());
                hash = (hash ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
                hash ^= hash >> 29;
            }
            (hash >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        }
    }

    /// Every bit of a [`RuleEstimate`].
    fn estimate_bits(est: &RuleEstimate) -> (u64, u64, usize, usize) {
        (
            est.integral.to_bits(),
            est.error.to_bits(),
            est.split_axis,
            est.evaluations,
        )
    }

    /// The rule's points and estimate on one region, through `evaluate_centered`
    /// and through `evaluate` on the region spanning `center ± halfwidth`, each
    /// against the reference loop; `None` when all four agree to the bit.
    fn mismatch_with_reference(center: &[f64], halfwidth: &[f64]) -> Option<String> {
        let dim = center.len();
        let rule = GenzMalik::new(dim);
        let mut scratch = EvalScratch::new(dim);
        let run = |eval: &mut dyn FnMut(&Recorder) -> RuleEstimate| {
            let recorder = Recorder::new(dim);
            let est = eval(&recorder);
            (recorder.into_coordinates(), estimate_bits(&est))
        };

        let reference = run(&mut |f| reference_evaluate(&rule, f, center, halfwidth));
        let centered = run(&mut |f| rule.evaluate_centered(f, center, halfwidth, &mut scratch));
        if centered != reference {
            return Some(format!("evaluate_centered differs at {dim}D"));
        }

        let lo: Vec<f64> = center.iter().zip(halfwidth).map(|(c, h)| c - h).collect();
        let hi: Vec<f64> = center.iter().zip(halfwidth).map(|(c, h)| c + h).collect();
        let region = Region::new(lo, hi);
        let reference =
            run(&mut |f| reference_evaluate(&rule, f, &region.center(), &region.halfwidths()));
        let from_region = run(&mut |f| rule.evaluate(f, &region, &mut scratch));
        (from_region != reference).then(|| format!("evaluate differs at {dim}D"))
    }

    #[test]
    fn point_sequence_matches_the_reference_through_long_carry_chains() {
        let dim = 14usize;
        let center: Vec<f64> = (0..dim)
            .map(|axis| match axis % 3 {
                0 => -0.0,
                1 => 0.25 * axis as f64,
                _ => -317.5 / axis as f64,
            })
            .collect();
        let halfwidth: Vec<f64> = (0..dim).map(|axis| 10f64.powi(axis as i32 - 10)).collect();
        assert_eq!(mismatch_with_reference(&center, &halfwidth), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_point_sequence_matches_the_reference(
            dim in 2usize..11,
            centers in proptest::collection::vec(-1e3f64..1e3, 10..11),
            log_halfwidths in proptest::collection::vec(-12.0f64..3.0, 10..11),
            zero_mask_a in 0u32..1024,
            zero_mask_b in 0u32..1024,
        ) {
            // About a quarter of the axes are centred on −0.0.
            let center: Vec<f64> = (0..dim)
                .map(|axis| {
                    if (zero_mask_a & zero_mask_b) >> axis & 1 == 1 {
                        -0.0
                    } else {
                        centers[axis]
                    }
                })
                .collect();
            let halfwidth: Vec<f64> =
                log_halfwidths[..dim].iter().map(|&e| 10f64.powf(e)).collect();
            let mismatch = mismatch_with_reference(&center, &halfwidth);
            prop_assert!(mismatch.is_none(), "{mismatch:?}");
        }

        #[test]
        fn prop_linear_functions_are_exact(
            dim in 2usize..6,
            coeffs in proptest::collection::vec(-5.0f64..5.0, 2..6),
            constant in -5.0f64..5.0,
        ) {
            let dim = dim.min(coeffs.len());
            let coeffs = coeffs[..dim].to_vec();
            let c2 = coeffs.clone();
            let est = eval_on_unit_cube(dim, move |x| {
                constant + x.iter().zip(&c2).map(|(xi, ci)| xi * ci).sum::<f64>()
            });
            let exact = constant + coeffs.iter().sum::<f64>() * 0.5;
            prop_assert!((est.integral - exact).abs() < 1e-10 * exact.abs().max(1.0));
            prop_assert!(est.error < 1e-9 * exact.abs().max(1.0));
        }

        #[test]
        fn prop_error_is_nonnegative_and_finite(
            dim in 2usize..5,
            freq in 0.5f64..8.0,
        ) {
            let est = eval_on_unit_cube(dim, move |x| (freq * x.iter().sum::<f64>()).cos());
            prop_assert!(est.error.is_finite());
            prop_assert!(est.error >= 0.0);
            prop_assert!(est.integral.is_finite());
        }

        #[test]
        fn prop_additivity_under_split(
            dim in 2usize..4,
            axis_seed in 0usize..16,
            freq in 0.5f64..4.0,
        ) {
            // Splitting a region and summing the two children's estimates should agree
            // with the parent estimate to within the combined error estimates for a
            // smooth integrand.
            let dim_usize = dim;
            let rule = GenzMalik::new(dim_usize);
            let mut scratch = EvalScratch::new(dim_usize);
            let f = FnIntegrand::new(dim_usize, move |x: &[f64]| (freq * x.iter().sum::<f64>()).sin() + 2.0);
            let parent = Region::unit_cube(dim_usize);
            let axis = axis_seed % dim_usize;
            let (a, b) = parent.split(axis);
            let ep = rule.evaluate(&f, &parent, &mut scratch);
            let ea = rule.evaluate(&f, &a, &mut scratch);
            let eb = rule.evaluate(&f, &b, &mut scratch);
            let tolerance = ep.error + ea.error + eb.error + 1e-10;
            prop_assert!((ep.integral - (ea.integral + eb.integral)).abs() <= tolerance);
        }
    }
}
