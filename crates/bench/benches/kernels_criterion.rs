//! Criterion micro-benchmarks of the kernels that make up a PAGANI iteration:
//! Genz–Malik region evaluation across dimensions, the parallel reductions and stream
//! compaction of the post-processing step, the threshold search, and the region list's
//! in-place filter-and-split.  These complement the figure benchmarks by pinpointing
//! where the wall time of §4.3.2 actually goes.  One group times the service's result
//! cache at three sizes.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use pagani_core::classify::ACTIVE;
use pagani_core::region_list::RegionList;
use pagani_core::threshold::threshold_classify;
use pagani_core::ScratchArena;
use pagani_device::{reduce, scan, Device, DeviceConfig, MemoryPool};
use pagani_integrands::paper::PaperIntegrand;
use pagani_persist::{CacheKey, CachedResult, ResultCache, Snapshot, SNAPSHOT_FORMAT_VERSION};
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

/// The threshold search over one generation of 100k regions whose errors no
/// threshold can both freeze within the budget and finish half of, so each
/// search probes until the direction-change cap gives up: 19 probes at
/// `100k_regions`'s budget, and 36 at `tight_budget_100k_regions`'s,
/// a hundredth of it (5D f4 at 5 digits runs failing searches of 39 and 35
/// probes).
fn bench_threshold_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("threshold_classify");
    group.sample_size(20);
    let n = 100_000usize;
    let errors: Vec<f64> = (0..n).map(|i| 1e-12 * (1.0 + (i % 977) as f64)).collect();
    let mask = vec![ACTIVE; n];
    let iteration_error: f64 = errors.iter().sum();
    // One warm arena across iterations, as in the driver loop: the search's
    // one mask comes off the shelf instead of being allocated.
    let arena = ScratchArena::new();
    for (name, budget) in [("100k_regions", 1e-6), ("tight_budget_100k_regions", 1e-8)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let outcome = threshold_classify(&mask, &errors, budget, iteration_error, &arena);
                arena.put_mask(black_box(outcome).mask);
            })
        });
    }
    group.finish();
}

/// The filter-and-split of one generation: 32k 5D regions, every other one
/// kept, so each call turns a 32k-region list into the next 32k-region
/// generation in place.
fn bench_region_list(c: &mut Criterion) {
    let mut group = c.benchmark_group("region_list");
    group.sample_size(20);
    let pool = MemoryPool::new(4 << 30);
    let arena = ScratchArena::new();
    let mut list = RegionList::initial_split(&Region::unit_cube(5), 8, &pool, &arena).unwrap();
    let axes: Vec<usize> = (0..list.len()).map(|i| i % 5).collect();
    let mask: Vec<u8> = (0..list.len()).map(|i| (i % 2) as u8).collect();
    group.bench_function("split_active_32k_5d", |b| {
        b.iter(|| {
            list.split_active(&mask, &axes, &pool).unwrap();
            black_box(list.len())
        })
    });
    group.finish();
}

/// The result cache full at 1k, 10k and 100k entries, each a converged result
/// plus a one-region 2D snapshot under a unique integrand name, as a service
/// stores them: a `lookup_result` hit, a `peek_warm_start` of a stored
/// `(integrand, region)`, a `lookup_snapshot` miss, and a `store` of a new
/// name, which evicts the least recently used entry.  No operation reads every
/// entry, so each should cost about the same at every size.
fn bench_result_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("result_cache");
    group.sample_size(20);
    let (lo, hi) = ([0.0, 0.0], [1.0, 1.0]);
    let key = |i: usize| CacheKey::new(&format!("genz-{i:08}"), &lo, &hi, 1e-3, 1e-12);
    let result = CachedResult {
        estimate: 1.0,
        error_estimate: 1e-4,
        iterations: 2,
        function_evaluations: 4_000,
        regions_generated: 64,
    };
    let snapshot = Snapshot {
        version: SNAPSHOT_FORMAT_VERSION,
        integrand_id: "genz".to_string(),
        region_lo: lo.to_vec(),
        region_hi: hi.to_vec(),
        rel_tol: 1e-3,
        abs_tol: 1e-12,
        converged: true,
        dim: 2,
        lefts: lo.to_vec(),
        lengths: hi.to_vec(),
        parent_integrals: None,
        finished_estimate: 1.0,
        finished_error: 1e-4,
        threshold_frozen_error: 0.0,
        function_evaluations: 4_000,
        regions_generated: 64,
        previous_cumulative: None,
        next_iteration: 2,
        latest_estimate: 1.0,
        latest_error: 1e-4,
    };
    // Every entry has the same footprint, so a budget of `n` of them holds
    // exactly `n`.
    let probe = ResultCache::new(usize::MAX);
    probe.store(key(0), Some(result.clone()), Some(snapshot.clone()));
    let entry_bytes = probe.bytes_used();
    for n in [1_000usize, 10_000, 100_000] {
        let cache = ResultCache::new(n * entry_bytes);
        for i in 0..n {
            cache.store(key(i), Some(result.clone()), Some(snapshot.clone()));
        }
        assert_eq!(cache.len(), n);
        let (held, absent) = (key(n / 2), key(n));
        group.bench_function(BenchmarkId::new("lookup_result_hit", n), |b| {
            b.iter(|| black_box(cache.lookup_result(black_box(&held))))
        });
        group.bench_function(BenchmarkId::new("peek_warm_start", n), |b| {
            b.iter(|| {
                let k = black_box(&held);
                black_box(cache.peek_warm_start(
                    &k.integrand_id,
                    &k.region_lo_bits,
                    &k.region_hi_bits,
                ))
            })
        });
        group.bench_function(BenchmarkId::new("lookup_snapshot_miss", n), |b| {
            b.iter(|| {
                let k = black_box(&absent);
                black_box(cache.lookup_snapshot(
                    &k.integrand_id,
                    &k.region_lo_bits,
                    &k.region_hi_bits,
                ))
            })
        });
        let mut next = n;
        group.bench_function(BenchmarkId::new("store_evicting", n), |b| {
            b.iter(|| {
                next += 1;
                cache.store(key(next), Some(result.clone()), Some(snapshot.clone()));
            })
        });
        assert_eq!(cache.len(), n);
    }
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
    bench_result_cache,
    bench_launch_overhead,
    bench_integrand_suite
);
criterion_main!(kernels);
