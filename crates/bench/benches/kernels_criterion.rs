//! Criterion micro-benchmarks of the kernels that make up a PAGANI iteration:
//! Genz–Malik region evaluation across dimensions, the parallel reductions and stream
//! compaction of the post-processing step, the threshold search, and region-list
//! splitting.  These complement the figure benchmarks by pinpointing where the wall
//! time of §4.3.2 actually goes.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use pagani_core::classify::ACTIVE;
use pagani_core::region_list::RegionList;
use pagani_core::threshold::threshold_classify;
use pagani_core::ScratchArena;
use pagani_device::{reduce, scan, Device, DeviceConfig, MemoryPool};
use pagani_integrands::paper::PaperIntegrand;
use pagani_quadrature::{EvalScratch, FnIntegrand, GenzMalik, Integrand, Region};

/// One region per iteration.  `genz_malik_evaluate/<dim>` calls f4 through its
/// concrete type; the `dyn_const/<dim>` and `dyn_f4/<dim>` cases call through
/// `&dyn Integrand`, the way every service job calls the rule, so `dyn_const`'s
/// time divided by the rule's `2^d + 2d² + 2d + 1` points (33, 93 and 401 at 3,
/// 5 and 8D) is the rule's own cost per point.
fn bench_genz_malik(c: &mut Criterion) {
    let mut group = c.benchmark_group("genz_malik_evaluate");
    group.sample_size(20);
    for dim in [3usize, 5, 8] {
        let rule = GenzMalik::new(dim);
        let integrand = PaperIntegrand::f4(dim);
        let region = Region::unit_cube(dim);
        group.bench_with_input(BenchmarkId::from_parameter(dim), &dim, |b, _| {
            let mut scratch = EvalScratch::new(dim);
            b.iter(|| {
                let est = rule.evaluate(&integrand, &region, &mut scratch);
                black_box(est.integral)
            });
        });
        let constant = FnIntegrand::new(dim, |_: &[f64]| 1.0);
        let center = region.center();
        let halfwidth = region.halfwidths();
        for (name, f) in [
            ("dyn_const", &constant as &dyn Integrand),
            ("dyn_f4", &integrand),
        ] {
            group.bench_with_input(BenchmarkId::new(name, dim), &dim, |b, _| {
                let mut scratch = EvalScratch::new(dim);
                b.iter(|| {
                    let est = rule.evaluate_centered(
                        f,
                        black_box(&center),
                        black_box(&halfwidth),
                        &mut scratch,
                    );
                    black_box(est.integral)
                });
            });
        }
    }
    group.finish();
}

fn bench_reductions(c: &mut Criterion) {
    let mut group = c.benchmark_group("reductions");
    group.sample_size(20);
    let values: Vec<f64> = (0..1_000_000).map(|i| (i % 1000) as f64 * 1e-3).collect();
    let mask: Vec<u8> = (0..values.len()).map(|i| (i % 3 == 0) as u8).collect();
    group.bench_function("sum_1M", |b| b.iter(|| black_box(reduce::sum(&values))));
    group.bench_function("masked_sum_1M", |b| {
        b.iter(|| black_box(reduce::masked_sum(&values, &mask)))
    });
    // The driver's call: compaction into one reused vector.
    let mut compacted = Vec::with_capacity(values.len());
    group.bench_function("compact_1M", |b| {
        b.iter(|| {
            scan::compact_by_mask_into(&values, &mask, &mut compacted);
            black_box(compacted.len())
        })
    });
    group.finish();
}

fn bench_threshold_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("threshold_classify");
    group.sample_size(20);
    let n = 100_000usize;
    let errors: Vec<f64> = (0..n).map(|i| 1e-12 * (1.0 + (i % 977) as f64)).collect();
    let mask = vec![ACTIVE; n];
    let iteration_error: f64 = errors.iter().sum();
    // One warm arena across iterations, as in the driver loop: candidate-mask
    // probes recycle shelved storage instead of allocating.
    let arena = ScratchArena::new();
    group.bench_function("100k_regions", |b| {
        b.iter(|| {
            let outcome = threshold_classify(&mask, &errors, 1e-6, iteration_error, &arena);
            arena.put_mask(black_box(outcome).mask);
        })
    });
    group.finish();
}

fn bench_region_list(c: &mut Criterion) {
    let mut group = c.benchmark_group("region_list");
    group.sample_size(20);
    let pool = MemoryPool::new(4 << 30);
    let arena = ScratchArena::new();
    let list = RegionList::initial_split(&Region::unit_cube(5), 8, &pool, &arena).unwrap();
    let axes: Vec<usize> = (0..list.len()).map(|i| i % 5).collect();
    let mask: Vec<u8> = (0..list.len()).map(|i| (i % 2) as u8).collect();
    group.bench_function("split_all_32k_5d", |b| {
        b.iter(|| black_box(list.split_all(&axes, &pool, &arena).unwrap().len()))
    });
    group.bench_function("filter_32k_5d", |b| {
        b.iter(|| black_box(list.filter(&mask, &pool, &arena).unwrap().len()))
    });
    group.finish();
}

/// Per-launch overhead of the substrate itself: a small grid with a trivial
/// body, repeated.  With the spawn-per-call substrate this was dominated by
/// OS-thread creation on every launch; the persistent pool pays only queue
/// traffic, so this is the number that makes the fig5/fig6 small-kernel
/// timings meaningful.  A one-thread device pays neither: its launches and
/// timed sections run on the calling thread, and the `_1_worker` entries
/// measure what is left of a device entry then.
fn bench_launch_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("launch_overhead");
    group.sample_size(50);
    let shared = Device::v100_like();
    let mut out = vec![0.0f64; 64];
    group.bench_function("launch_batch_64_trivial_global_pool", |b| {
        b.iter(|| {
            shared
                .launch_batch("bench.trivial", 64, 1, &mut out, |block, slot| {
                    slot[0] = block as f64;
                })
                .unwrap();
            black_box(out[63])
        })
    });
    let pooled = Device::new(DeviceConfig::v100_like().with_worker_threads(2));
    group.bench_function("launch_batch_64_trivial_2_workers", |b| {
        b.iter(|| {
            pooled
                .launch_batch("bench.trivial", 64, 1, &mut out, |block, slot| {
                    slot[0] = block as f64;
                })
                .unwrap();
            black_box(out[63])
        })
    });
    let single = Device::new(DeviceConfig::v100_like().with_worker_threads(1));
    group.bench_function("launch_batch_64_trivial_1_worker", |b| {
        b.iter(|| {
            single
                .launch_batch("bench.trivial", 64, 1, &mut out, |block, slot| {
                    slot[0] = block as f64;
                })
                .unwrap();
            black_box(out[63])
        })
    });
    group.bench_function("timed_section_empty_1_worker", |b| {
        b.iter(|| black_box(single.timed_section("bench.empty", || black_box(1u64))))
    });
    group.finish();
}

fn bench_integrand_suite(c: &mut Criterion) {
    let mut group = c.benchmark_group("integrand_eval");
    group.sample_size(30);
    let point8 = [0.37; 8];
    for integrand in [
        PaperIntegrand::f1(8),
        PaperIntegrand::f4(8),
        PaperIntegrand::f7(8),
    ] {
        group.bench_function(integrand.label(), |b| {
            b.iter(|| black_box(integrand.eval(&point8)))
        });
    }
    group.finish();
}

criterion_group!(
    kernels,
    bench_genz_malik,
    bench_reductions,
    bench_threshold_search,
    bench_region_list,
    bench_launch_overhead,
    bench_integrand_suite
);
criterion_main!(kernels);
