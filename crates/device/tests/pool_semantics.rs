//! Semantics of the persistent worker pool underneath [`Device`]:
//!
//! * the `worker_threads` cap is honored by parallel calls *nested inside
//!   kernel bodies* (the regression the pool rewrite fixed — the old
//!   spawn-per-call substrate kept the cap in a thread-local that spawned
//!   workers never inherited),
//! * pool execution is deterministic and order-preserving: `map.collect`,
//!   `sum` and `reduce` results are bit-identical across pool sizes and
//!   across repeated runs on the same pool,
//! * a `worker_threads(1)` device has no thread of its own: its launches and
//!   timed sections run on the calling thread, callers sharing it never
//!   overlap, and a panicking kernel leaves it usable.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::thread::ThreadId;
use std::time::Duration;

use pagani_device::{reduce, Device, DeviceConfig};
use proptest::prelude::*;
use rayon::prelude::*;

/// Tracks the peak number of threads simultaneously inside a section.
#[derive(Default)]
struct Gauge {
    active: AtomicUsize,
    peak: AtomicUsize,
}

impl Gauge {
    fn enter(&self) {
        let now = self.active.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak.fetch_max(now, Ordering::SeqCst);
    }
    fn exit(&self) {
        self.active.fetch_sub(1, Ordering::SeqCst);
    }
    fn peak(&self) -> usize {
        self.peak.load(Ordering::SeqCst)
    }
}

/// A slice comfortably above the `reduce` chunking threshold (4096), so the
/// nested `reduce::sum` call really does go through the parallel path.
fn big_values() -> Vec<f64> {
    (0..20_000)
        .map(|i| ((i * 2654435761_usize) % 997) as f64 / 13.0)
        .collect()
}

#[test]
fn nested_reduce_inside_kernel_body_respects_worker_threads_cap() {
    let device = Device::new(DeviceConfig::test_small().with_worker_threads(1));
    let values = big_values();
    let expected_bits = reduce::sum(&values).to_bits();

    let gauge = Gauge::default();
    let mut sums = vec![0.0f64; 8];
    device
        .launch_batch("nested.sum", 8, 1, &mut sums, |_, slot| {
            // Inside a kernel body we must still be inside the device's
            // 1-thread pool, not the machine-wide default.
            assert_eq!(rayon::current_num_threads(), 1);
            // Observe the parallelism of a nested parallel call directly.
            (0..64).into_par_iter().for_each(|_| {
                gauge.enter();
                std::thread::sleep(Duration::from_micros(20));
                gauge.exit();
            });
            // And exercise the real nested workload from the issue: a
            // deterministic parallel reduction over a >CHUNK slice.
            slot[0] = reduce::sum(&values);
        })
        .unwrap();

    assert_eq!(
        gauge.peak(),
        1,
        "nested parallel call escaped the worker_threads(1) cap"
    );
    assert!(sums.iter().all(|&sum| sum.to_bits() == expected_bits));
}

#[test]
fn nested_parallelism_stays_within_a_multi_thread_cap() {
    let cap = 4;
    let device = Device::new(DeviceConfig::test_small().with_worker_threads(cap));
    let gauge = Gauge::default();
    device
        .launch_batch("nested.capped", 8, 1, &mut [0.0; 8], |_, _| {
            assert_eq!(rayon::current_num_threads(), cap);
            (0..32).into_par_iter().for_each(|_| {
                gauge.enter();
                std::thread::sleep(Duration::from_micros(20));
                gauge.exit();
            });
        })
        .unwrap();
    assert!(
        gauge.peak() >= 1 && gauge.peak() <= cap,
        "nested parallelism {} outside 1..={cap}",
        gauge.peak()
    );
}

#[test]
fn a_one_thread_device_runs_its_work_on_the_calling_thread() {
    let device = Device::new(DeviceConfig::test_small().with_worker_threads(1));
    let caller = std::thread::current().id();
    let in_blocks: Mutex<Vec<ThreadId>> = Mutex::new(Vec::new());
    let mut out = vec![0.0f64; 16];
    device
        .launch_batch("caller.blocks", 16, 1, &mut out, |block, slot| {
            in_blocks.lock().unwrap().push(std::thread::current().id());
            slot[0] = block as f64;
        })
        .unwrap();
    let in_section = device.timed_section("caller.section", || std::thread::current().id());

    let in_blocks = in_blocks.into_inner().unwrap();
    assert_eq!(in_blocks.len(), 16);
    assert!(
        in_blocks.iter().all(|&id| id == caller),
        "a kernel block ran off the calling thread"
    );
    assert_eq!(
        in_section, caller,
        "the timed section ran off the calling thread"
    );
    assert!(out.iter().enumerate().all(|(i, &v)| v == i as f64));
}

#[test]
fn threads_sharing_a_one_thread_device_never_overlap() {
    let device = Device::new(DeviceConfig::test_small().with_worker_threads(1));
    let gauge = Gauge::default();
    let start = Barrier::new(2);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let device = device.clone();
            let (gauge, start) = (&gauge, &start);
            scope.spawn(move || {
                start.wait();
                device
                    .launch_batch("shared.sleep", 16, 1, &mut [0.0; 16], |_, _| {
                        gauge.enter();
                        std::thread::sleep(Duration::from_micros(200));
                        gauge.exit();
                    })
                    .unwrap();
            });
        }
    });
    assert_eq!(
        gauge.peak(),
        1,
        "two callers ran on a one-thread device at once"
    );
}

#[test]
fn a_panicking_kernel_on_a_one_thread_device_leaves_it_usable() {
    let device = Device::new(DeviceConfig::test_small().with_worker_threads(1));
    let cap_before = rayon::current_num_threads();
    let mut out = vec![0.0f64; 8];
    let launched = catch_unwind(AssertUnwindSafe(|| {
        device.launch_batch("panics", 8, 1, &mut out, |block, _slot| {
            assert!(block != 5, "boom at block 5");
        })
    }));
    assert!(
        launched.is_err(),
        "the kernel's panic did not reach the caller"
    );
    assert_eq!(rayon::current_num_threads(), cap_before);

    // The second launch comes from another thread, so an entry lock left
    // held by the panic would block it: wait with a timeout, not a join.
    let (done, finished) = std::sync::mpsc::channel();
    let second = std::thread::spawn(move || {
        let mut out = vec![0.0f64; 8];
        let launched = device.launch_batch("after.panic", 8, 1, &mut out, |block, slot| {
            slot[0] = 1.0 + block as f64;
        });
        done.send(launched.map(|()| out)).unwrap();
    });
    let out = finished
        .recv_timeout(Duration::from_secs(30))
        .expect("the device stayed locked after the kernel panicked")
        .unwrap();
    second.join().unwrap();
    assert!(out.iter().enumerate().all(|(i, &v)| v == 1.0 + i as f64));
}

/// Run `op` under a dedicated pool of every size in `caps` and assert all
/// outcomes are identical.
fn identical_across_pools<T, F>(caps: &[usize], op: F) -> T
where
    T: PartialEq + std::fmt::Debug + Send,
    F: Fn() -> T + Send + Sync,
{
    let mut outcomes: Vec<T> = caps
        .iter()
        .map(|&n| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .expect("pool build");
            pool.install(&op)
        })
        .collect();
    let first = outcomes.remove(0);
    for other in outcomes {
        assert_eq!(first, other, "pool size changed the result");
    }
    first
}

#[test]
fn device_launch_batch_is_identical_across_worker_counts() {
    let results: Vec<Vec<u64>> = [1usize, 2, 8]
        .iter()
        .map(|&n| {
            let device = Device::new(DeviceConfig::test_small().with_worker_threads(n));
            let mut out = vec![0.0f64; 3000];
            device
                .launch_batch("det.map", 3000, 1, &mut out, |block, slot| {
                    slot[0] = (block as f64).sin() * 1e9;
                })
                .unwrap();
            out.iter().map(|v| v.to_bits()).collect()
        })
        .collect();
    assert_eq!(results[0], results[1]);
    assert_eq!(results[1], results[2]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn prop_sum_is_bit_identical_across_pool_sizes(
        values in proptest::collection::vec(-1e6f64..1e6, 0..12_000),
    ) {
        let bits = identical_across_pools(&[1, 2, 8], || reduce::sum(&values).to_bits());
        // And across repeated runs in the same (global) context.
        prop_assert_eq!(reduce::sum(&values).to_bits(), reduce::sum(&values).to_bits());
        let _ = bits;
    }

    #[test]
    fn prop_map_collect_preserves_order_across_pool_sizes(
        values in proptest::collection::vec(-1e3f64..1e3, 0..6000),
    ) {
        let collected = identical_across_pools(&[1, 2, 8], || {
            values
                .par_chunks(97)
                .map(|chunk| chunk.iter().map(|v| v * 1.5).sum::<f64>().to_bits())
                .collect::<Vec<u64>>()
        });
        let sequential: Vec<u64> = values
            .chunks(97)
            .map(|chunk| chunk.iter().map(|v| v * 1.5).sum::<f64>().to_bits())
            .collect();
        prop_assert_eq!(collected, sequential);
    }

    #[test]
    fn prop_reduce_is_bit_identical_across_pool_sizes(
        values in proptest::collection::vec(-1e9f64..1e9, 1..8000),
    ) {
        let reduced = identical_across_pools(&[1, 2, 8], || {
            values
                .par_chunks(61)
                .map(|chunk| chunk.iter().copied().fold(f64::MIN, f64::max))
                .reduce(|| f64::MIN, f64::max)
                .to_bits()
        });
        let expected = values.iter().copied().fold(f64::MIN, f64::max).to_bits();
        prop_assert_eq!(reduced, expected);
    }

    #[test]
    fn prop_repeated_runs_on_one_pool_are_bit_identical(
        values in proptest::collection::vec(-1e6f64..1e6, 0..8000),
        cap in 1usize..9,
    ) {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(cap)
            .build()
            .expect("pool build");
        let mask: Vec<u8> = (0..values.len()).map(|i| u8::from(i % 3 != 0)).collect();
        let run = || pool.install(|| reduce::masked_sum(&values, &mask).to_bits());
        prop_assert_eq!(run(), run());
    }
}
