//! The simulated device: configuration, kernel launches and access to memory,
//! primitives and profiling.
//!
//! Since the backend redesign, [`Device`] is a thin handle: an
//! `Arc<dyn ComputeBackend>` plus one [`MemoryPool`] accounting view.  All
//! execution — batched launches, reductions, profiled host sections — goes
//! through the trait, so swapping the substrate (see
//! [`crate::backend`]) leaves every caller of this type untouched.

use std::sync::Arc;

use crate::backend::{ComputeBackend, CpuBackend};
use crate::error::DeviceResult;
use crate::memory::MemoryPool;
use crate::profile::DeviceProfile;
use crate::FairGate;

/// Static description of the simulated accelerator.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceConfig {
    /// Device memory capacity in bytes (the paper's V100 has 16 GiB).
    pub memory_capacity: usize,
    /// Number of worker threads to use.  `Some(n)` gives the device a dedicated
    /// persistent pool of `n` workers that caps every parallel call made during a
    /// launch — including calls nested inside kernel bodies, which inherit the
    /// pool through their worker thread.  `Some(1)` is the exception: the device
    /// spawns no thread, and each launch, reduction and timed section runs on the
    /// thread that calls it, one caller at a time, with nested parallel calls
    /// inline under the same cap of 1 (results are those of a one-worker pool).
    /// `None` uses the shared global pool (all cores).
    pub worker_threads: Option<usize>,
    /// Human-readable device name, reported in benchmark output.
    pub name: String,
}

impl DeviceConfig {
    /// The configuration used throughout the paper: a 16 GiB V100.
    #[must_use]
    pub fn v100_like() -> Self {
        Self {
            memory_capacity: 16 * (1 << 30),
            worker_threads: None,
            name: "simulated-v100".to_owned(),
        }
    }

    /// A small configuration for tests: a few MiB of memory so exhaustion paths are
    /// easy to trigger.
    #[must_use]
    pub fn test_small() -> Self {
        Self {
            memory_capacity: 8 * (1 << 20),
            worker_threads: None,
            name: "simulated-test".to_owned(),
        }
    }

    /// Override the memory capacity (bytes).
    #[must_use]
    pub fn with_memory_capacity(mut self, bytes: usize) -> Self {
        self.memory_capacity = bytes;
        self
    }

    /// Override the worker-thread count.
    #[must_use]
    pub fn with_worker_threads(mut self, threads: usize) -> Self {
        self.worker_threads = Some(threads);
        self
    }
}

impl Default for DeviceConfig {
    fn default() -> Self {
        Self::v100_like()
    }
}

struct DeviceInner {
    config: DeviceConfig,
    /// The execution substrate.  Shared with clones and memory-isolated
    /// views, so workers, the submission gate and the profile are common
    /// to every view of one device.
    backend: Arc<dyn ComputeBackend>,
    /// This view's memory-accounting pool (clones share it; isolated
    /// views get a fresh one from the backend).
    memory: MemoryPool,
}

/// Handle to the simulated accelerator.
///
/// Cloning is cheap and clones share memory accounting and profiling.
#[derive(Clone)]
pub struct Device {
    inner: Arc<DeviceInner>,
}

impl std::fmt::Debug for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Device")
            .field("name", &self.inner.config.name)
            .field("memory_capacity", &self.inner.config.memory_capacity)
            .finish()
    }
}

impl Device {
    /// Create a device from a configuration, running on the reference
    /// [`CpuBackend`].
    ///
    /// # Panics
    /// Panics if a dedicated worker pool was requested but could not be built (this
    /// only happens under pathological resource exhaustion on the host).
    #[must_use]
    pub fn new(config: DeviceConfig) -> Self {
        Self::from_parts(config.clone(), Arc::new(CpuBackend::new(config)))
    }

    /// Create a device over an explicit backend; the configuration is
    /// synthesised from [`ComputeBackend::caps`].
    ///
    /// This is how alternative substrates — or instrumentation wrappers
    /// like [`crate::CountingBackend`] — slot in underneath the whole
    /// integration stack.
    #[must_use]
    pub fn with_backend(backend: Arc<dyn ComputeBackend>) -> Self {
        let caps = backend.caps();
        let config = DeviceConfig {
            memory_capacity: caps.memory_capacity,
            worker_threads: Some(caps.workers),
            name: caps.name,
        };
        Self::from_parts(config, backend)
    }

    fn from_parts(config: DeviceConfig, backend: Arc<dyn ComputeBackend>) -> Self {
        let memory = backend.alloc_memory_view();
        Self {
            inner: Arc::new(DeviceInner {
                config,
                backend,
                memory,
            }),
        }
    }

    /// Device with the paper's V100-like configuration.
    #[must_use]
    pub fn v100_like() -> Self {
        Self::new(DeviceConfig::v100_like())
    }

    /// Small device for tests.
    #[must_use]
    pub fn test_small() -> Self {
        Self::new(DeviceConfig::test_small())
    }

    /// The device configuration.
    #[must_use]
    pub fn config(&self) -> &DeviceConfig {
        &self.inner.config
    }

    /// The device memory pool.
    #[must_use]
    pub fn memory(&self) -> &MemoryPool {
        &self.inner.memory
    }

    /// The accumulated kernel profile.
    #[must_use]
    pub fn profile(&self) -> &DeviceProfile {
        self.inner.backend.profile()
    }

    /// Number of worker threads a kernel launch on this device can occupy: the
    /// dedicated pool's cap, or the host's available parallelism (sampled once
    /// at construction) when the device shares the global pool.  Always equal
    /// to the submission gate's capacity.
    #[must_use]
    pub fn effective_workers(&self) -> usize {
        self.inner.backend.gate().capacity()
    }

    /// The device's FIFO admission gate for concurrent job submitters.
    ///
    /// Sized to [`Device::effective_workers`] and shared by every clone and
    /// every [`Device::isolated_memory_view`], so however many host threads
    /// submit whole jobs to this device, at most a worker-pool's worth are in
    /// flight at once and they are admitted in arrival order.
    #[must_use]
    pub fn submission_gate(&self) -> &FairGate {
        self.inner.backend.gate()
    }

    /// A handle to this device that shares its backend — workers, submission
    /// gate, profile and configuration — but draws from a **fresh,
    /// full-capacity memory pool**.
    ///
    /// This is the per-job memory model of the batch execution engine: each
    /// concurrent job sees the same empty, full-capacity pool it would see if
    /// it were the only job on the device, so memory-pressure heuristics — and
    /// therefore results — are bit-identical to running the job alone.  The
    /// engine assumes each job individually fits the device; enforcing a
    /// *combined* cross-job quota is an explicit non-goal here.
    #[must_use]
    pub fn isolated_memory_view(&self) -> Device {
        Device {
            inner: Arc::new(DeviceInner {
                config: self.inner.config.clone(),
                backend: Arc::clone(&self.inner.backend),
                memory: self.inner.backend.alloc_memory_view(),
            }),
        }
    }

    /// Launch a batched structure-of-arrays kernel: `body` runs once per
    /// block of a `grid_size`-block grid, in parallel, with the block index
    /// and the block's `lanes` output values `out[i*lanes .. (i+1)*lanes]`,
    /// and the call blocks until the whole grid has completed.  This is the
    /// shape of PAGANI's `evaluate` kernel — one launch covers a whole
    /// generation of regions, with the per-region estimates landing in flat,
    /// reusable buffers.  Wall time is recorded in the profile under
    /// `kernel`.
    ///
    /// Blocks never share output cells, so the convention is race-free by
    /// construction; combine across blocks on the host with
    /// [`Device::reduce_sum`] and [`Device::reduce_masked_sum`].
    ///
    /// # Errors
    /// Returns [`crate::DeviceError::EmptyLaunch`] for an empty grid and
    /// [`crate::DeviceError::InvalidLaunchConfig`] for `lanes == 0` or when
    /// `out.len() != grid_size * lanes`.
    pub fn launch_batch<F>(
        &self,
        kernel: &'static str,
        grid_size: usize,
        lanes: usize,
        out: &mut [f64],
        body: F,
    ) -> DeviceResult<()>
    where
        F: Fn(usize, &mut [f64]) + Sync,
    {
        self.inner
            .backend
            .launch_batch(kernel, grid_size, lanes, out, &body)
    }

    /// Deterministic sum reduction on the device's backend.
    #[must_use]
    pub fn reduce_sum(&self, values: &[f64]) -> f64 {
        self.inner.backend.reduce_sum(values)
    }

    /// Deterministic masked sum reduction on the device's backend.
    #[must_use]
    pub fn reduce_masked_sum(&self, values: &[f64], mask: &[u8]) -> f64 {
        self.inner.backend.reduce_masked_sum(values, mask)
    }

    /// Run a host-side parallel section inside the device's worker pool and record it
    /// in the profile.  Used for the post-processing steps so that their time shows
    /// up in the §4.3.2 breakdown.
    pub fn timed_section<R: Send>(&self, kernel: &str, op: impl FnOnce() -> R + Send) -> R {
        let mut op = Some(op);
        let mut slot: Option<R> = None;
        self.inner.backend.timed(kernel, &mut || {
            slot = Some((op.take().expect("timed section body runs once"))());
        });
        slot.expect("backend ran the timed section body")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::CountingBackend;
    use crate::DeviceError;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn launch_runs_every_block_exactly_once() {
        let device = Device::test_small();
        let counter = AtomicUsize::new(0);
        device
            .launch_batch("count", 1000, 1, &mut [0.0; 1000], |_, _| {
                counter.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn launch_batch_preserves_block_order() {
        let device = Device::test_small();
        let mut out = vec![0.0; 64];
        device
            .launch_batch("square", 64, 1, &mut out, |block, slot| {
                slot[0] = (block * block) as f64;
            })
            .unwrap();
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i * i) as f64);
        }
    }

    #[test]
    fn empty_launch_is_an_error() {
        let device = Device::test_small();
        let err = device
            .launch_batch("noop", 0, 1, &mut [], |_, _| {})
            .unwrap_err();
        assert_eq!(err, DeviceError::EmptyLaunch { kernel: "noop" });
    }

    #[test]
    fn launches_are_profiled() {
        let device = Device::test_small();
        let mut out = [0.0; 16];
        device
            .launch_batch("profiled", 16, 1, &mut out, |_, _| {})
            .unwrap();
        device
            .launch_batch("profiled", 16, 1, &mut out, |_, _| {})
            .unwrap();
        let timing = device.profile().kernel("profiled").unwrap();
        assert_eq!(timing.launches, 2);
        assert_eq!(timing.blocks, 32);
    }

    #[test]
    fn dedicated_pool_limits_observed_parallelism() {
        let device = Device::new(DeviceConfig::test_small().with_worker_threads(1));
        // With one worker the blocks run sequentially; verify a data pattern that
        // would be racy under true concurrency is still correct (single writer).
        let mut order = vec![0usize; 32];
        let order_ptr = std::sync::Mutex::new(&mut order);
        device
            .launch_batch("sequential", 32, 1, &mut [0.0; 32], |block, _| {
                let mut guard = order_ptr.lock().unwrap();
                guard[block] = block + 1;
            })
            .unwrap();
        assert!(order.iter().enumerate().all(|(i, &v)| v == i + 1));
    }

    #[test]
    fn large_grids_preserve_block_order_and_coverage() {
        let device = Device::test_small();
        // A grid far wider than the 64 dispatch spans; outputs must still
        // arrive in block order, from one launch.
        let mut out = vec![0.0; 2560];
        device
            .launch_batch("wide.map", 2560, 1, &mut out, |block, slot| {
                slot[0] = block as f64;
            })
            .unwrap();
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as f64));
        let t = device.profile().kernel("wide.map").unwrap();
        assert_eq!((t.launches, t.blocks), (1, 2560));
    }

    #[test]
    fn v100_like_has_16_gib() {
        let device = Device::v100_like();
        assert_eq!(device.config().memory_capacity, 16 * (1 << 30));
    }

    #[test]
    fn timed_section_records_profile() {
        let device = Device::test_small();
        let out = device.timed_section("reduce.sum", || 21 * 2);
        assert_eq!(out, 42);
        assert!(device.profile().kernel("reduce.sum").is_some());
    }

    #[test]
    fn reduction_wrappers_delegate_to_the_backend() {
        let device = Device::test_small();
        let values: Vec<f64> = (0..3000).map(|i| i as f64 * 0.5).collect();
        assert_eq!(
            device.reduce_sum(&values).to_bits(),
            crate::reduce::sum(&values).to_bits()
        );
        let mask: Vec<u8> = (0..3000).map(|i| u8::from(i % 2 == 0)).collect();
        assert_eq!(
            device.reduce_masked_sum(&values, &mask).to_bits(),
            crate::reduce::masked_sum(&values, &mask).to_bits()
        );
    }

    #[test]
    fn clones_share_memory_pool() {
        let device = Device::test_small();
        let clone = device.clone();
        let _held = clone.memory().reserve(1024).unwrap();
        assert_eq!(device.memory().usage().used, 1024);
    }

    #[test]
    fn isolated_view_has_its_own_memory_but_shares_the_profile() {
        let device = Device::test_small();
        let view = device.isolated_memory_view();
        let _held = view.memory().reserve(1024).unwrap();
        assert_eq!(view.memory().usage().used, 1024);
        assert_eq!(
            device.memory().usage().used,
            0,
            "view reservations are not charged to the parent pool"
        );
        assert_eq!(view.memory().capacity(), device.memory().capacity());
        // Kernels launched on the view land in the shared profile.
        view.launch_batch("view.kernel", 8, 1, &mut [0.0; 8], |_, _| {})
            .unwrap();
        assert!(device.profile().kernel("view.kernel").is_some());
    }

    #[test]
    fn isolated_views_share_the_submission_gate() {
        let device = Device::new(DeviceConfig::test_small().with_worker_threads(2));
        assert_eq!(device.submission_gate().capacity(), 2);
        let view = device.isolated_memory_view();
        let _a = device.submission_gate().acquire();
        let _b = view.submission_gate().acquire();
        assert_eq!(device.submission_gate().in_flight(), 2);
        assert_eq!(view.submission_gate().in_flight(), 2);
    }

    #[test]
    fn effective_workers_reflects_the_dedicated_pool() {
        let device = Device::new(DeviceConfig::test_small().with_worker_threads(3));
        assert_eq!(device.effective_workers(), 3);
        let shared = Device::test_small();
        assert!(shared.effective_workers() >= 1);
    }

    #[test]
    fn with_backend_synthesises_the_config_from_caps() {
        let backend = Arc::new(CpuBackend::new(
            DeviceConfig::test_small().with_worker_threads(2),
        ));
        let device = Device::with_backend(backend);
        assert_eq!(device.config().name, "simulated-test");
        assert_eq!(device.config().worker_threads, Some(2));
        assert_eq!(device.effective_workers(), 2);
        assert_eq!(device.memory().capacity(), 8 * (1 << 20));
    }

    #[test]
    fn counting_backend_device_runs_all_existing_paths() {
        let counting = Arc::new(CountingBackend::new(Arc::new(CpuBackend::new(
            DeviceConfig::test_small(),
        ))));
        let device = Device::with_backend(Arc::clone(&counting) as Arc<dyn ComputeBackend>);
        let mut out = vec![0.0; 4];
        device
            .launch_batch("counted", 4, 1, &mut out, |block, slot| {
                slot[0] = block as f64 + 1.0;
            })
            .unwrap();
        assert_eq!(out, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(counting.launches_for("counted"), 1);
        let view = device.isolated_memory_view();
        view.launch_batch("counted", 2, 1, &mut [0.0; 2], |_, _| {})
            .unwrap();
        assert_eq!(counting.launches_for("counted"), 2);
        // Two views: the device's own plus the isolated one.
        assert_eq!(counting.memory_views(), 2);
    }
}
