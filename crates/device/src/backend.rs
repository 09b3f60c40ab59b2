//! The pluggable compute-backend seam.
//!
//! PAGANI's driver needs exactly three things from an execution substrate:
//! a batched kernel launch over flat buffers, memory-accounting views, and
//! two reductions.  [`ComputeBackend`] captures that surface as a dyn-safe
//! trait so the driver — and everything above it — is written against the
//! trait, not against the simulated CPU device.  A wgpu-style GPU backend
//! slots in by implementing this trait; nothing in the driver changes.
//!
//! Two implementations live here:
//!
//! * [`CpuBackend`] — the reference implementation: the worker-pool device
//!   (per-kernel profiling, FIFO submission gate).  Its results are
//!   bit-identical across worker counts because every parallel step runs on
//!   the deterministic span-splitting pool.
//! * [`CountingBackend`] — a trivial wrapper that counts launches and lane
//!   bytes while delegating to an inner backend.  It exists to prove the
//!   trait is actually pluggable and to power tests that assert launch
//!   batching (one batched launch per driver generation).
//!
//! # The batched launch contract
//!
//! [`ComputeBackend::launch_batch`] is the structure-of-arrays calling
//! convention: the host passes one flat `f64` output buffer of
//! `grid_size * lanes` values (`lanes ≥ 1`) and every block `i` writes only
//! its own `lanes`-length slot `out[i*lanes .. (i+1)*lanes]`.  Blocks never
//! share output cells, so the convention is race-free by construction and
//! keeps the blessed-reduction discipline (analyzer rule R3): cross-block
//! combining happens on the host via [`ComputeBackend::reduce_sum`] and
//! [`ComputeBackend::reduce_masked_sum`], never by accumulating into
//! captured state inside the kernel.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use rayon::prelude::*;

use crate::device::DeviceConfig;
use crate::error::{DeviceError, DeviceResult};
use crate::gate::FairGate;
use crate::memory::MemoryPool;
use crate::profile::DeviceProfile;
use crate::reduce;

/// Upper bound on the number of contiguous multi-block chunks a launch's
/// lane buffer is split into for parallel dispatch.  Matches the span
/// granularity of the worker pool, so going finer buys no extra parallelism
/// — it only multiplies per-chunk bookkeeping.
const LANE_DISPATCH_SPANS: usize = 64;

/// Static description of a backend, mirroring the fields of
/// [`DeviceConfig`] that callers can rely on whatever the substrate is.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendCaps {
    /// Human-readable backend name, reported in benchmark output.
    pub name: String,
    /// Device memory capacity in bytes; every memory view allocated from
    /// the backend has this capacity.
    pub memory_capacity: usize,
    /// Effective parallel width: how many blocks can make progress
    /// simultaneously (the worker-pool size on the CPU reference).
    pub workers: usize,
}

/// The three primitives PAGANI's driver needs from an execution substrate,
/// as a dyn-safe trait: batched launch, memory views, two reductions — plus
/// the profiling/admission plumbing that keeps [`crate::Device`]'s surface
/// working over `Arc<dyn ComputeBackend>`.
///
/// Implementations must be deterministic: for a fixed input, `launch_batch`
/// must produce bit-identical `out` contents regardless of how many workers
/// execute the grid, and the reductions must combine partial results in an
/// input-length-determined order.
pub trait ComputeBackend: Send + Sync {
    /// Static description of this backend.
    fn caps(&self) -> BackendCaps;

    /// Launch `grid_size` blocks; block `i` is handed its index and the
    /// `lanes`-length slot `out[i*lanes .. (i+1)*lanes]` to write its
    /// results into.  Blocks run in parallel and the call returns once the
    /// whole grid completed (bulk-synchronous).
    ///
    /// # Errors
    /// [`DeviceError::EmptyLaunch`] for an empty grid;
    /// [`DeviceError::InvalidLaunchConfig`] for `lanes == 0` or when
    /// `out.len() != grid_size * lanes`.
    fn launch_batch(
        &self,
        kernel: &'static str,
        grid_size: usize,
        lanes: usize,
        out: &mut [f64],
        body: &(dyn Fn(usize, &mut [f64]) + Sync),
    ) -> DeviceResult<()>;

    /// A fresh, full-capacity memory-accounting view of the backend's
    /// device memory.  Every region list a driver holds reserves its bytes
    /// from a pool created here, so memory accounting — and the
    /// memory-exhaustion behaviour the paper's experiments rely on — is a
    /// backend decision, not a host-side convention.
    fn alloc_memory_view(&self) -> MemoryPool;

    /// Deterministic sum reduction over `values`.
    fn reduce_sum(&self, values: &[f64]) -> f64;

    /// Deterministic sum of `values[i]` where `mask[i] != 0`.
    fn reduce_masked_sum(&self, values: &[f64], mask: &[u8]) -> f64;

    /// Run a host-side section on the backend's workers and record its
    /// wall time in the profile under `kernel` (the post-processing steps
    /// go through here so they show up in the §4.3.2 breakdown).
    fn timed(&self, kernel: &str, op: &mut (dyn FnMut() + Send));

    /// The per-kernel wall-time profile shared by every view of this
    /// backend.
    fn profile(&self) -> &DeviceProfile;

    /// The FIFO admission gate shared by every view of this backend,
    /// sized to [`BackendCaps::workers`].
    fn gate(&self) -> &FairGate;
}

/// The reference [`ComputeBackend`]: a persistent CPU worker pool with
/// batched launches, deterministic reductions, per-kernel profiling and a
/// FIFO submission gate.
///
/// A device of `worker_threads(n)` with `n >= 2` hands each launch,
/// reduction and timed section to its `n` pool workers and waits for
/// them.  A `worker_threads(1)` device has no thread of its own: the same
/// calls run on the thread that makes them, one such thread at a time, with
/// the results a one-worker pool gives.
///
/// This is the substrate every simulated [`crate::Device`] runs on; it is
/// public so tests and custom wrappers (like [`CountingBackend`]) can
/// compose it explicitly via [`crate::Device::with_backend`].
pub struct CpuBackend {
    config: DeviceConfig,
    /// Shared with memory-isolated views so the §4.3.2 breakdown
    /// aggregates every job's kernels, wherever they ran.
    profile: DeviceProfile,
    /// `Some` when the config asked for a dedicated pool; `None` runs on
    /// the shared global pool.  All views of one backend launch onto the
    /// same workers, which is what keeps batch execution free of
    /// oversubscription.
    thread_pool: Option<Arc<rayon::ThreadPool>>,
    /// FIFO admission gate for concurrent job submitters, sized to the
    /// effective worker count.
    gate: FairGate,
}

impl CpuBackend {
    /// Build the reference backend from a device configuration.
    ///
    /// # Panics
    /// Panics if a dedicated worker pool was requested but could not be
    /// built (only under pathological resource exhaustion on the host).
    #[must_use]
    pub fn new(config: DeviceConfig) -> Self {
        let thread_pool = config.worker_threads.map(|threads| {
            Arc::new(
                rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .expect("failed to build device worker pool"),
            )
        });
        let workers = config
            .worker_threads
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        Self {
            config,
            profile: DeviceProfile::new(),
            thread_pool,
            gate: FairGate::new(workers),
        }
    }

    /// Run `op` inside the device's pool, or on the calling thread over the
    /// shared global pool when the device has none.
    ///
    /// A one-thread pool runs `op` on the calling thread under the pool's
    /// entry lock instead of handing it to a worker, which is equivalent: a
    /// cap of 1 already ran every span inline in span order and served one
    /// caller at a time, so results, the cap and [`FairGate`] admission are
    /// unchanged, and each call saves a thread hand-off and wake-up.  Pools
    /// of two or more threads keep the hand-off: running `op` on the caller
    /// there would either put one thread more than the cap to work or queue
    /// concurrent jobs' launches behind one lock.
    fn run_in_pool<R: Send>(&self, op: impl FnOnce() -> R + Send) -> R {
        match &self.thread_pool {
            Some(pool) => pool.install(op),
            None => op(),
        }
    }
}

impl ComputeBackend for CpuBackend {
    fn caps(&self) -> BackendCaps {
        BackendCaps {
            name: self.config.name.clone(),
            memory_capacity: self.config.memory_capacity,
            workers: self.gate.capacity(),
        }
    }

    fn launch_batch(
        &self,
        kernel: &'static str,
        grid_size: usize,
        lanes: usize,
        out: &mut [f64],
        body: &(dyn Fn(usize, &mut [f64]) + Sync),
    ) -> DeviceResult<()> {
        if grid_size == 0 {
            return Err(DeviceError::EmptyLaunch { kernel });
        }
        if lanes == 0 {
            return Err(DeviceError::InvalidLaunchConfig {
                reason: format!("kernel `{kernel}` launched with zero lanes per block"),
            });
        }
        let expected = grid_size.checked_mul(lanes);
        if expected != Some(out.len()) {
            return Err(DeviceError::InvalidLaunchConfig {
                reason: format!(
                    "kernel `{kernel}` launched with an output buffer of {} values; \
                     {grid_size} blocks x {lanes} lanes needs {}",
                    out.len(),
                    expected.map_or_else(|| "more than usize::MAX".to_owned(), |n| n.to_string()),
                ),
            });
        }
        // Hand the substrate coarse multi-block chunks rather than one slice
        // per block: the slice-handle iterator pays per item, so a
        // thousands-block grid as individual lanes-sized chunks would cost
        // more in bookkeeping than the blocks themselves.  Chunk boundaries
        // depend only on the grid size (never the pool size), and each block
        // writes only its own slot, so every lane value is identical across
        // worker counts.
        let span_blocks = grid_size.div_ceil(LANE_DISPATCH_SPANS);
        let start = Instant::now();
        self.run_in_pool(|| {
            out.par_chunks_mut(span_blocks * lanes)
                .enumerate()
                .for_each(|(span, chunk)| {
                    let base = span * span_blocks;
                    for (j, slot) in chunk.chunks_mut(lanes).enumerate() {
                        body(base + j, slot);
                    }
                });
        });
        self.profile.record(kernel, grid_size, start.elapsed());
        Ok(())
    }

    fn alloc_memory_view(&self) -> MemoryPool {
        MemoryPool::new(self.config.memory_capacity)
    }

    fn reduce_sum(&self, values: &[f64]) -> f64 {
        self.run_in_pool(|| reduce::sum(values))
    }

    fn reduce_masked_sum(&self, values: &[f64], mask: &[u8]) -> f64 {
        self.run_in_pool(|| reduce::masked_sum(values, mask))
    }

    fn timed(&self, kernel: &str, op: &mut (dyn FnMut() + Send)) {
        let start = Instant::now();
        self.run_in_pool(op);
        self.profile.record(kernel, 1, start.elapsed());
    }

    fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    fn gate(&self) -> &FairGate {
        &self.gate
    }
}

/// A trivial [`ComputeBackend`] that counts launches, lane bytes and
/// memory views while delegating all execution to an inner backend.
///
/// Wrapping the reference backend with this and asserting on the counters
/// is how tests prove launch batching — e.g. that the driver issues
/// exactly one batched `evaluate` launch per generation.
pub struct CountingBackend {
    inner: Arc<dyn ComputeBackend>,
    launches: Mutex<BTreeMap<&'static str, usize>>,
    lane_bytes: AtomicUsize,
    memory_views: AtomicUsize,
}

impl CountingBackend {
    /// Wrap `inner`, starting all counters at zero.
    #[must_use]
    pub fn new(inner: Arc<dyn ComputeBackend>) -> Self {
        Self {
            inner,
            launches: Mutex::new(BTreeMap::new()),
            lane_bytes: AtomicUsize::new(0),
            memory_views: AtomicUsize::new(0),
        }
    }

    /// Total number of successful `launch_batch` calls.
    #[must_use]
    pub fn launches(&self) -> usize {
        self.launches.lock().values().sum()
    }

    /// Number of successful `launch_batch` calls for one kernel name.
    #[must_use]
    pub fn launches_for(&self, kernel: &str) -> usize {
        self.launches.lock().get(kernel).copied().unwrap_or(0)
    }

    /// Total bytes of lane output transferred across all launches.
    #[must_use]
    pub fn lane_bytes(&self) -> usize {
        self.lane_bytes.load(Ordering::Relaxed)
    }

    /// Number of memory views handed out via `alloc_memory_view`.
    #[must_use]
    pub fn memory_views(&self) -> usize {
        self.memory_views.load(Ordering::Relaxed)
    }
}

impl ComputeBackend for CountingBackend {
    fn caps(&self) -> BackendCaps {
        self.inner.caps()
    }

    fn launch_batch(
        &self,
        kernel: &'static str,
        grid_size: usize,
        lanes: usize,
        out: &mut [f64],
        body: &(dyn Fn(usize, &mut [f64]) + Sync),
    ) -> DeviceResult<()> {
        let bytes = std::mem::size_of_val(out);
        self.inner
            .launch_batch(kernel, grid_size, lanes, out, body)?;
        *self.launches.lock().entry(kernel).or_insert(0) += 1;
        self.lane_bytes.fetch_add(bytes, Ordering::Relaxed);
        Ok(())
    }

    fn alloc_memory_view(&self) -> MemoryPool {
        self.memory_views.fetch_add(1, Ordering::Relaxed);
        self.inner.alloc_memory_view()
    }

    fn reduce_sum(&self, values: &[f64]) -> f64 {
        self.inner.reduce_sum(values)
    }

    fn reduce_masked_sum(&self, values: &[f64], mask: &[u8]) -> f64 {
        self.inner.reduce_masked_sum(values, mask)
    }

    fn timed(&self, kernel: &str, op: &mut (dyn FnMut() + Send)) {
        self.inner.timed(kernel, op);
    }

    fn profile(&self) -> &DeviceProfile {
        self.inner.profile()
    }

    fn gate(&self) -> &FairGate {
        self.inner.gate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu() -> CpuBackend {
        CpuBackend::new(DeviceConfig::test_small())
    }

    #[test]
    fn caps_mirror_the_config() {
        let backend = CpuBackend::new(DeviceConfig::test_small().with_worker_threads(2));
        let caps = backend.caps();
        assert_eq!(caps.name, "simulated-test");
        assert_eq!(caps.memory_capacity, 8 * (1 << 20));
        assert_eq!(caps.workers, 2);
    }

    #[test]
    fn launch_batch_writes_each_block_slot_in_order() {
        let backend = cpu();
        let grid = 2560;
        let mut out = vec![0.0; 3 * grid];
        backend
            .launch_batch("batch", grid, 3, &mut out, &|block, slot| {
                slot[0] = block as f64;
                slot[1] = grid as f64;
                slot[2] = -1.0;
            })
            .unwrap();
        for (i, slot) in out.chunks_exact(3).enumerate() {
            assert_eq!(slot, &[i as f64, 2560.0, -1.0]);
        }
        // 2560 blocks, one launch.
        let t = backend.profile().kernel("batch").unwrap();
        assert_eq!((t.launches, t.blocks), (1, 2560));
    }

    #[test]
    fn launch_batch_rejects_mismatched_output_length() {
        let backend = cpu();
        let mut out = vec![0.0; 7];
        let err = backend
            .launch_batch("bad", 4, 2, &mut out, &|_, _| {})
            .unwrap_err();
        assert!(matches!(err, DeviceError::InvalidLaunchConfig { .. }));
    }

    #[test]
    fn zero_lane_launch_is_rejected() {
        let backend = cpu();
        for out in [&mut [][..], &mut [0.0][..]] {
            let err = backend
                .launch_batch("bad", 4, 0, out, &|_, _| {})
                .unwrap_err();
            assert!(matches!(err, DeviceError::InvalidLaunchConfig { .. }));
        }
        assert!(backend.profile().kernel("bad").is_none());
    }

    #[test]
    fn launch_batch_is_bit_identical_across_worker_counts() {
        let run = |workers: usize| {
            let backend = CpuBackend::new(DeviceConfig::test_small().with_worker_threads(workers));
            let mut out = vec![0.0; 3000];
            backend
                .launch_batch("det", 3000, 1, &mut out, &|block, slot| {
                    let x = block as f64;
                    slot[0] = (x * 0.1).sin() + (x * 0.01).cos();
                })
                .unwrap();
            out
        };
        let reference = run(1);
        for workers in [2, 8] {
            for (a, b) in reference.iter().zip(&run(workers)) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn reductions_delegate_to_the_deterministic_primitives() {
        let backend = cpu();
        let values: Vec<f64> = (0..5000).map(|i| i as f64 * 0.25).collect();
        assert_eq!(
            backend.reduce_sum(&values).to_bits(),
            reduce::sum(&values).to_bits()
        );
        let mask: Vec<u8> = (0..5000).map(|i| u8::from(i % 3 == 0)).collect();
        assert_eq!(
            backend.reduce_masked_sum(&values, &mask).to_bits(),
            reduce::masked_sum(&values, &mask).to_bits()
        );
    }

    #[test]
    fn counting_backend_counts_and_stays_transparent() {
        let inner = Arc::new(cpu());
        let counting = CountingBackend::new(inner);
        let mut out = vec![0.0; 8];
        counting
            .launch_batch("a", 4, 2, &mut out, &|block, slot| {
                slot[0] = block as f64;
                slot[1] = 2.0 * block as f64;
            })
            .unwrap();
        counting
            .launch_batch("b", 2, 1, &mut [0.0; 2], &|_, _| {})
            .unwrap();
        assert_eq!(counting.launches(), 2);
        assert_eq!(counting.launches_for("a"), 1);
        assert_eq!(counting.launches_for("b"), 1);
        assert_eq!(counting.launches_for("missing"), 0);
        assert_eq!(counting.lane_bytes(), (8 + 2) * std::mem::size_of::<f64>());
        assert_eq!(out, vec![0.0, 0.0, 1.0, 2.0, 2.0, 4.0, 3.0, 6.0]);
        // Failed launches are not counted.
        let err = counting
            .launch_batch("a", 0, 1, &mut [], &|_, _| {})
            .unwrap_err();
        assert_eq!(err, DeviceError::EmptyLaunch { kernel: "a" });
        assert_eq!(counting.launches_for("a"), 1);
        // Memory views are counted and still full-capacity.
        let view = counting.alloc_memory_view();
        assert_eq!(counting.memory_views(), 1);
        assert_eq!(view.capacity(), counting.caps().memory_capacity);
    }

    #[test]
    fn timed_records_under_the_given_kernel() {
        let backend = cpu();
        let mut ran = false;
        backend.timed("host.section", &mut || ran = true);
        assert!(ran);
        assert!(backend.profile().kernel("host.section").is_some());
    }
}
