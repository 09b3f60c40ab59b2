//! Semantics of the structure-of-arrays evaluation path and the pluggable
//! backend seam: bit-exact golden pins across worker counts, the
//! pack→unpack round trip, and launch batching observed through
//! [`CountingBackend`].

mod common;

use std::sync::Arc;

use pagani::core::evaluate::evaluate_all;
use pagani::core::region_list::RegionList;
use pagani::prelude::*;
use pagani::{CountingBackend, CpuBackend, RegionPack};
use proptest::prelude::*;

/// Golden results captured from the pre-backend scalar evaluation path.
/// Estimate and error are pinned to the bit: the SoA pack → batched launch →
/// unpack pipeline must reproduce the per-region arithmetic exactly, for any
/// worker count.
const GOLDEN: &[(&str, u64, u64, usize, u64, u64)] = &[
    (
        "3D f4",
        0x3f37_5af2_0ca7_0cc5,
        0x3e5b_3bd4_cb59_c55a,
        9,
        2920,
        96360,
    ),
    (
        "4D f3",
        0x3f45_9b27_a2bb_b554,
        0x3e6b_f9a0_615a_1659,
        6,
        400,
        22800,
    ),
];

fn golden_integrands() -> [PaperIntegrand; 2] {
    [PaperIntegrand::f4(3), PaperIntegrand::f3(4)]
}

#[test]
fn batched_evaluation_reproduces_the_scalar_golden_bits_for_any_worker_count() {
    for workers in common::worker_matrix(&[1, 2, 8]) {
        let device = common::device_with_workers(workers);
        let pagani = Pagani::new(device, PaganiConfig::test_small(Tolerances::rel(1e-4)));
        for (f, &(label, est, err, iters, regions, evals)) in golden_integrands().iter().zip(GOLDEN)
        {
            let out = pagani.integrate(f);
            assert_eq!(
                out.result.estimate.to_bits(),
                est,
                "{label} estimate drifted with {workers} workers"
            );
            assert_eq!(
                out.result.error_estimate.to_bits(),
                err,
                "{label} error estimate drifted with {workers} workers"
            );
            assert_eq!(out.result.iterations, iters, "{label} iteration count");
            assert_eq!(out.result.regions_generated, regions, "{label} regions");
            assert_eq!(out.result.function_evaluations, evals, "{label} evals");
        }
    }
}

#[test]
fn counting_backend_sees_exactly_one_batched_launch_per_generation() {
    let config = pagani::device::DeviceConfig::test_small().with_memory_capacity(32 << 20);
    let counting = Arc::new(CountingBackend::new(Arc::new(CpuBackend::new(
        config.clone(),
    ))));
    let counted_device = Device::with_backend(counting.clone());
    let plain_device = Device::new(config);

    let f = PaperIntegrand::f4(3);
    let pagani_config = PaganiConfig::test_small(Tolerances::rel(1e-4));
    let counted = Pagani::new(counted_device, pagani_config.clone()).integrate(&f);
    let plain = Pagani::new(plain_device, pagani_config).integrate(&f);

    // SoA evaluation: the whole generation goes down in ONE batched launch,
    // so launches of the "evaluate" kernel equal driver iterations exactly.
    assert_eq!(counting.launches_for("evaluate"), counted.result.iterations);
    // And the wrapper is transparent: results match a plain device to the bit.
    assert_eq!(
        counted.result.estimate.to_bits(),
        plain.result.estimate.to_bits()
    );
    assert_eq!(
        counted.result.error_estimate.to_bits(),
        plain.result.error_estimate.to_bits()
    );
    assert_eq!(counted.result.iterations, plain.result.iterations);
}

#[test]
fn one_launch_matches_the_same_regions_in_three_sub_lists() {
    // A launch covers its whole grid at once and each block writes only its
    // own slot, so cutting a generation into several launches never moves a
    // bit, at any worker count.
    let dim = 3;
    let rule = pagani::quadrature::GenzMalik::new(dim);
    let f = FnIntegrand::new(dim, |x: &[f64]| {
        (5.0 * x[0]).sin() * x[1] + (x[2] * x[0]).exp()
    });
    let pool = pagani::device::MemoryPool::new(64 << 20);
    let arena = ScratchArena::new();
    let list = RegionList::initial_split(&Region::unit_cube(dim), 15, &pool, &arena).unwrap();
    assert_eq!(list.len(), 3375);
    for workers in common::worker_matrix(&[1, 2, 8]) {
        let device = common::device_with_workers(workers);
        let evaluate = |list: &RegionList| {
            let eval = evaluate_all(&device, &rule, &f, list, &arena).unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            (bits(&eval.integrals), bits(&eval.errors), eval.split_axes)
        };
        let whole = evaluate(&list);
        let mut parts: (Vec<u64>, Vec<u64>, Vec<usize>) = Default::default();
        for (start, end) in [(0, 1000), (1000, 2200), (2200, list.len())] {
            let (lo, hi) = (start * dim, end * dim);
            let (lefts, lengths) = (&list.lefts()[lo..hi], &list.lengths()[lo..hi]);
            let sub = RegionList::from_flat_in(dim, lefts, lengths, &pool, &arena).unwrap();
            let (integrals, errors, axes) = evaluate(&sub);
            parts.0.extend(integrals);
            parts.1.extend(errors);
            parts.2.extend(axes);
        }
        assert_eq!(whole, parts, "{workers} workers");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The SoA pack reproduces `RegionList::centered_view`'s centre and
    /// half-width arithmetic bit-for-bit, region by region.
    #[test]
    fn prop_region_pack_round_trips_centered_view(
        dim in 1usize..5,
        depth in 1usize..4,
    ) {
        let device = common::device_with_workers(1);
        let arena = pagani::prelude::ScratchArena::new();
        let list = RegionList::initial_split(
            &pagani::quadrature::Region::unit_cube(dim),
            depth,
            device.memory(),
            &arena,
        )
        .unwrap();
        let pack = RegionPack::pack(&list, &arena);
        prop_assert_eq!(pack.len(), list.len());
        prop_assert_eq!(pack.dim(), dim);
        let mut center = vec![0.0; dim];
        let mut halfwidth = vec![0.0; dim];
        for i in 0..list.len() {
            list.centered_view(i, &mut center, &mut halfwidth);
            for axis in 0..dim {
                prop_assert_eq!(pack.center_of(i)[axis].to_bits(), center[axis].to_bits());
                prop_assert_eq!(
                    pack.halfwidth_of(i)[axis].to_bits(),
                    halfwidth[axis].to_bits()
                );
            }
        }
        pack.retire(&arena);
    }
}
