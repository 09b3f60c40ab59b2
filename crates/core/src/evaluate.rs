//! The `evaluate` kernel: apply the Genz–Malik rule to every region in parallel.
//!
//! This is the kernel that dominates PAGANI's run time (§4.3.2 reports it at more than
//! 90 % of execution time).  One simulated block evaluates one region — the same 1-1
//! block/region mapping the CUDA implementation uses — and produces the region's
//! integral estimate, raw error estimate and recommended split axis.
//!
//! Since the backend redesign the whole generation goes through **one batched
//! structure-of-arrays launch**: the region list's centres and half-widths are
//! packed into contiguous [`RegionPack`] buffers, every block reads its region
//! straight out of the pack and writes its [`EVAL_LANES`] result values into its
//! own slot of one flat output buffer, and the host unpacks the lanes in block
//! order.  No per-block return values, no per-launch `Vec` of estimates — the
//! same flat `dRegions`/`dRegionsLength` idiom the CUDA implementation uses.
//!
//! Two layers of storage are recycled on the hot path: the pack, the lane buffer
//! and the per-generation output arrays come from a [`ScratchArena`] (see
//! [`evaluate_all`]), and the per-block rule scratch ([`EvalScratch`]) is
//! cached per worker thread, mirroring how a CUDA block reuses its shared-memory
//! scratch across kernel launches instead of re-allocating it per region.

use std::cell::RefCell;

use pagani_device::{Device, DeviceResult};
use pagani_quadrature::{EvalScratch, GenzMalik, Integrand};

use crate::arena::ScratchArena;
use crate::region_list::RegionList;

/// Output lanes per block of the batched `evaluate` launch: integral estimate,
/// raw error estimate and split axis (the axis rides in an `f64` value, far
/// below 2^53, so the round trip is exact).  Every region costs the rule's
/// [`GenzMalik::num_points`] evaluations, so the count needs no lane.
pub const EVAL_LANES: usize = 3;

/// A generation of regions packed into contiguous centre/half-width arrays —
/// the structure-of-arrays input of the batched `evaluate` launch.
///
/// Layout is region-major like [`RegionList`]: region `i`'s centre occupies
/// `centers[i*dim .. (i+1)*dim]`.  The arrays are taken from (and retired to)
/// a [`ScratchArena`], so steady-state generations allocate nothing.
#[derive(Debug)]
pub struct RegionPack {
    centers: Vec<f64>,
    halfwidths: Vec<f64>,
    len: usize,
    dim: usize,
}

impl RegionPack {
    /// Pack `list` into contiguous centre/half-width buffers drawn from
    /// `arena`.  The per-element arithmetic is exactly
    /// [`RegionList::centered_view`]'s, so a packed centre is bit-identical
    /// to the scalar path's.
    #[must_use]
    pub fn pack(list: &RegionList, arena: &ScratchArena) -> Self {
        let values = list.len() * list.dim();
        let mut centers = arena.take_f64(values);
        let mut halfwidths = arena.take_f64(values);
        for (&left, &length) in list.lefts().iter().zip(list.lengths()) {
            let halfwidth = 0.5 * length;
            halfwidths.push(halfwidth);
            centers.push(left + halfwidth);
        }
        Self {
            centers,
            halfwidths,
            len: list.len(),
            dim: list.dim(),
        }
    }

    /// Number of packed regions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the pack is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dimensionality of the packed regions.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Centre of region `i`.
    #[must_use]
    pub fn center_of(&self, i: usize) -> &[f64] {
        &self.centers[i * self.dim..(i + 1) * self.dim]
    }

    /// Half-widths of region `i`.
    #[must_use]
    pub fn halfwidth_of(&self, i: usize) -> &[f64] {
        &self.halfwidths[i * self.dim..(i + 1) * self.dim]
    }

    /// The whole flat centre array, region-major.
    #[must_use]
    pub fn centers(&self) -> &[f64] {
        &self.centers
    }

    /// The whole flat half-width array, region-major.
    #[must_use]
    pub fn halfwidths(&self) -> &[f64] {
        &self.halfwidths
    }

    /// Shelve the pack's buffers into `arena` for the next generation.
    pub fn retire(self, arena: &ScratchArena) {
        arena.put_f64(self.centers);
        arena.put_f64(self.halfwidths);
    }
}

/// Per-generation output of the evaluate kernel (PAGANI's `V`, `E` and `K` lists).
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Integral estimate per region.
    pub integrals: Vec<f64>,
    /// Raw (embedded-rule) error estimate per region.
    pub errors: Vec<f64>,
    /// Recommended split axis per region.
    pub split_axes: Vec<usize>,
    /// Total number of integrand evaluations performed by the kernel.
    pub function_evaluations: u64,
}

impl Evaluation {
    /// Shelve this generation's arrays into `arena` for the next one.
    pub fn retire(self, arena: &ScratchArena) {
        arena.put_f64(self.integrals);
        arena.put_f64(self.errors);
        arena.put_axes(self.split_axes);
    }
}

thread_local! {
    /// This thread's rule scratch, one slot per dimension (the rule supports
    /// at most 30, so the table stays tiny).
    static BLOCK_SCRATCH: RefCell<Vec<Option<EvalScratch>>> = const { RefCell::new(Vec::new()) };
}

/// Run `body` with this thread's cached rule scratch for `dim`, creating it on
/// first use.  The scratch is taken out of its slot for the duration of the
/// call (and put back afterwards), so a re-entrant evaluation on the same
/// thread finds the slot empty and allocates a fresh scratch instead of
/// panicking on the borrow.  The rule writes every scratch entry before
/// reading it, so which scratch a block gets never changes its result.
fn with_block_scratch<R>(dim: usize, body: impl FnOnce(&mut EvalScratch) -> R) -> R {
    let mut scratch = BLOCK_SCRATCH
        .with(|slots| slots.borrow_mut().get_mut(dim).and_then(Option::take))
        .unwrap_or_else(|| EvalScratch::new(dim));
    let out = body(&mut scratch);
    BLOCK_SCRATCH.with(|slots| {
        let mut slots = slots.borrow_mut();
        if slots.len() <= dim {
            slots.resize_with(dim + 1, || None);
        }
        slots[dim] = Some(scratch);
    });
    out
}

/// Evaluate all regions of `list` with `rule`, one block per region, drawing
/// the pack, lane and output arrays from `arena`: pack the generation into a
/// [`RegionPack`], issue **one** batched [`Device::launch_batch`] over it, and
/// unpack the flat lanes in block order.
///
/// # Errors
/// Propagates launch errors from the device (an empty list is rejected as an empty
/// launch, mirroring a zero-block CUDA launch).
pub fn evaluate_all<F: Integrand + ?Sized>(
    device: &Device,
    rule: &GenzMalik,
    integrand: &F,
    list: &RegionList,
    arena: &ScratchArena,
) -> DeviceResult<Evaluation> {
    let dim = list.dim();
    debug_assert_eq!(rule.dim(), dim);
    let count = list.len();
    let pack = RegionPack::pack(list, arena);
    let mut lanes = arena.take_f64(count * EVAL_LANES);
    lanes.resize(count * EVAL_LANES, 0.0);
    let launched = device.launch_batch("evaluate", count, EVAL_LANES, &mut lanes, |i, out| {
        with_block_scratch(dim, |scratch| {
            let est =
                rule.evaluate_centered(integrand, pack.center_of(i), pack.halfwidth_of(i), scratch);
            out[0] = est.integral;
            out[1] = est.error;
            out[2] = est.split_axis as f64;
        });
    });
    pack.retire(arena);
    if let Err(err) = launched {
        arena.put_f64(lanes);
        return Err(err);
    }

    let mut integrals = arena.take_f64(count);
    let mut errors = arena.take_f64(count);
    let mut split_axes = arena.take_axes(count);
    for slot in lanes.chunks_exact(EVAL_LANES) {
        integrals.push(slot[0]);
        errors.push(slot[1]);
        split_axes.push(slot[2] as usize);
    }
    arena.put_f64(lanes);
    Ok(Evaluation {
        integrals,
        errors,
        split_axes,
        function_evaluations: count as u64 * rule.num_points() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pagani_device::Device;
    use pagani_quadrature::{FnIntegrand, Region};

    fn setup(dim: usize, d: usize) -> (Device, RegionList, GenzMalik) {
        let device = Device::test_small();
        let list = RegionList::initial_split(
            &Region::unit_cube(dim),
            d,
            device.memory(),
            &ScratchArena::new(),
        )
        .unwrap();
        let rule = GenzMalik::new(dim);
        (device, list, rule)
    }

    #[test]
    fn constant_integrand_sums_to_volume() {
        let (device, list, rule) = setup(3, 4);
        let f = FnIntegrand::new(3, |_: &[f64]| 2.0);
        let eval = evaluate_all(&device, &rule, &f, &list, &ScratchArena::new()).unwrap();
        assert_eq!(eval.integrals.len(), 64);
        let total: f64 = eval.integrals.iter().sum();
        assert!((total - 2.0).abs() < 1e-10);
        assert!(eval.errors.iter().all(|&e| e < 1e-10));
        assert_eq!(eval.function_evaluations, (rule.num_points() * 64) as u64);
    }

    #[test]
    fn per_region_estimates_sum_to_global_estimate_for_smooth_integrand() {
        let (device, list, rule) = setup(2, 8);
        let f = FnIntegrand::new(2, |x: &[f64]| (3.0 * x[0]).sin() * (2.0 * x[1]).cos() + 1.0);
        let eval = evaluate_all(&device, &rule, &f, &list, &ScratchArena::new()).unwrap();
        let total: f64 = eval.integrals.iter().sum();
        // Analytic: ∫ sin(3x)dx ∫ cos(2y)dy + 1 = ((1-cos3)/3)(sin2/2) + 1
        let exact = (1.0 - 3.0f64.cos()) / 3.0 * (2.0f64.sin() / 2.0) + 1.0;
        assert!((total - exact).abs() < 1e-8, "{total} vs {exact}");
    }

    #[test]
    fn split_axis_points_at_the_peaked_dimension() {
        let (device, list, rule) = setup(3, 2);
        // Sharp variation along axis 2 only.
        let f = FnIntegrand::new(3, |x: &[f64]| (-200.0 * (x[2] - 0.5).powi(2)).exp());
        let eval = evaluate_all(&device, &rule, &f, &list, &ScratchArena::new()).unwrap();
        let votes = eval.split_axes.iter().filter(|&&a| a == 2).count();
        assert!(
            votes >= eval.split_axes.len() / 2,
            "most regions should want to split axis 2, got {votes}/{}",
            eval.split_axes.len()
        );
    }

    #[test]
    fn evaluation_is_profiled_under_the_evaluate_kernel() {
        let (device, list, rule) = setup(2, 4);
        let f = FnIntegrand::new(2, |x: &[f64]| x[0] * x[1]);
        let _ = evaluate_all(&device, &rule, &f, &list, &ScratchArena::new()).unwrap();
        let timing = device.profile().kernel("evaluate").unwrap();
        assert_eq!(timing.launches, 1);
        assert_eq!(timing.blocks, 16);
    }

    #[test]
    fn pack_matches_centered_view_bit_for_bit() {
        let (device, _, _) = setup(2, 2);
        let regions = [
            Region::new(vec![0.25, -3.0, 10.0], vec![0.75, 4.5, 10.125]),
            Region::new(vec![-1e-9, 0.0, -5.5], vec![2e-9, 0.1, -2.25]),
        ];
        let list = RegionList::from_regions(&regions, device.memory()).unwrap();
        let arena = ScratchArena::new();
        let pack = RegionPack::pack(&list, &arena);
        assert_eq!((pack.len(), pack.dim()), (2, 3));
        let mut center = vec![0.0; 3];
        let mut halfwidth = vec![0.0; 3];
        for i in 0..list.len() {
            list.centered_view(i, &mut center, &mut halfwidth);
            for axis in 0..3 {
                assert_eq!(pack.center_of(i)[axis].to_bits(), center[axis].to_bits());
                assert_eq!(
                    pack.halfwidth_of(i)[axis].to_bits(),
                    halfwidth[axis].to_bits()
                );
            }
        }
        assert_eq!(pack.centers().len(), 6);
        assert_eq!(pack.halfwidths().len(), 6);
        pack.retire(&arena);
    }

    #[test]
    fn arena_path_is_bit_identical_and_recycles() {
        let (device, list, rule) = setup(3, 4);
        let f = FnIntegrand::new(3, |x: &[f64]| (7.0 * x[0]).sin() + x[1] * x[2]);
        let plain = evaluate_all(&device, &rule, &f, &list, &ScratchArena::new()).unwrap();
        let arena = ScratchArena::new();
        let first = evaluate_all(&device, &rule, &f, &list, &arena).unwrap();
        assert_eq!(plain.integrals, first.integrals);
        assert_eq!(plain.errors, first.errors);
        assert_eq!(plain.split_axes, first.split_axes);
        first.retire(&arena);
        let second = evaluate_all(&device, &rule, &f, &list, &arena).unwrap();
        assert_eq!(plain.integrals, second.integrals);
        assert!(
            arena.reuse_hits() >= 3,
            "retired arrays must be reused, hits {}",
            arena.reuse_hits()
        );
    }
}
