//! Scalar-path vs batched structure-of-arrays evaluation.
//!
//! The backend redesign replaced `evaluate_all`'s per-region closure
//! launches (one boxed `RuleEstimate` per block, collected into a fresh `Vec`
//! every generation) with one batched `launch_batch` over packed
//! centre/half-width buffers.  This group pins the payoff: `scalar_*`
//! replicates the pre-refactor path — per-block locked slots collected into a
//! `Vec` after the launch — `batched_*` is the live SoA path, both on the
//! same 8-worker device over an identical generation.  The workload is deliberately launch-bound (2-D rule,
//! 17 points per region, thousands of regions) so the per-block bookkeeping —
//! not the integrand — dominates, which is exactly the regime where the flat
//! lane convention earns its keep.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Mutex;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pagani_core::evaluate::evaluate_all;
use pagani_core::region_list::RegionList;
use pagani_core::ScratchArena;
use pagani_device::{Device, DeviceConfig};
use pagani_quadrature::{EvalScratch, FnIntegrand, GenzMalik, Integrand, Region, RuleEstimate};

/// The pre-refactor per-block scratch: rule workspace plus centre/half-width
/// staging buffers, cached per worker thread exactly as the old path did.
struct BlockScratch {
    scratch: EvalScratch,
    center: Vec<f64>,
    halfwidth: Vec<f64>,
}

thread_local! {
    static BLOCK_SCRATCH: RefCell<HashMap<usize, BlockScratch>> = RefCell::new(HashMap::new());
}

fn with_block_scratch<R>(dim: usize, body: impl FnOnce(&mut BlockScratch) -> R) -> R {
    let mut block = BLOCK_SCRATCH
        .with(|cache| cache.borrow_mut().remove(&dim))
        .unwrap_or_else(|| BlockScratch {
            scratch: EvalScratch::new(dim),
            center: vec![0.0; dim],
            halfwidth: vec![0.0; dim],
        });
    let out = body(&mut block);
    BLOCK_SCRATCH.with(|cache| cache.borrow_mut().insert(dim, block));
    out
}

/// Faithful replica of the pre-refactor `evaluate_all`: one closure launch
/// per generation returning a `Vec` of estimates, unpacked on the host.  The
/// launch carries one lane per block that the blocks leave unwritten.
fn evaluate_all_scalar<F: Integrand + ?Sized>(
    device: &Device,
    rule: &GenzMalik,
    integrand: &F,
    list: &RegionList,
    arena: &ScratchArena,
) -> f64 {
    let dim = list.dim();
    // One locked slot per block, exactly what the old per-block-return shim
    // allocated internally: the cost being pinned here.
    let slots: Vec<Mutex<Option<RuleEstimate>>> =
        (0..list.len()).map(|_| Mutex::new(None)).collect();
    let mut unused = arena.take_f64(list.len());
    unused.resize(list.len(), 0.0);
    device
        .launch_batch("soa_eval.scalar", list.len(), 1, &mut unused, |i, _| {
            let est = with_block_scratch(dim, |block| {
                list.centered_view(i, &mut block.center, &mut block.halfwidth);
                rule.evaluate_centered(
                    integrand,
                    &block.center,
                    &block.halfwidth,
                    &mut block.scratch,
                )
            });
            *slots[i].lock().expect("slot lock never poisons") = Some(est);
        })
        .expect("scalar launch is never empty");
    arena.put_f64(unused);
    let estimates: Vec<RuleEstimate> = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock never poisons")
                .expect("every launched block produces a value")
        })
        .collect();
    let mut integrals = arena.take_f64(estimates.len());
    let mut errors = arena.take_f64(estimates.len());
    let mut split_axes = arena.take_axes(estimates.len());
    for est in estimates {
        integrals.push(est.integral);
        errors.push(est.error);
        split_axes.push(est.split_axis);
    }
    let total = integrals.iter().sum();
    arena.put_f64(integrals);
    arena.put_f64(errors);
    arena.put_axes(split_axes);
    total
}

fn bench_soa_eval(c: &mut Criterion) {
    let mut group = c.benchmark_group("soa_eval");
    group.sample_size(30);
    let device = Device::new(DeviceConfig::v100_like().with_worker_threads(8));
    let dim = 2usize;
    let rule = GenzMalik::new(dim);
    let integrand = FnIntegrand::new(dim, |x: &[f64]| x[0] * x[1] + 1.0);
    let arena = ScratchArena::new();
    let list =
        RegionList::initial_split(&Region::unit_cube(dim), 64, device.memory(), &arena).unwrap();
    assert_eq!(list.len(), 4096);

    group.bench_function("scalar_4096_2d", |b| {
        b.iter(|| {
            black_box(evaluate_all_scalar(
                &device, &rule, &integrand, &list, &arena,
            ))
        })
    });
    group.bench_function("batched_4096_2d", |b| {
        b.iter(|| {
            let eval = evaluate_all(&device, &rule, &integrand, &list, &arena)
                .expect("batched launch is never empty");
            let total: f64 = eval.integrals.iter().sum();
            eval.retire(&arena);
            black_box(total)
        })
    });
    group.finish();
}

criterion_group!(soa_eval, bench_soa_eval);
criterion_main!(soa_eval);
