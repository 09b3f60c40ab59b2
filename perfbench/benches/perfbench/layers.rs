//! Per-layer readings taken from outside the program: device profiles and
//! launch counters snapshotted around the timed phase, service counters,
//! and the per-job tallies the clients kept.

use std::collections::BTreeMap;
use std::sync::Arc;

use pagani_core::ServiceMetrics;
use pagani_device::{ComputeBackend, CountingBackend, CpuBackend, Device, DeviceConfig};

use crate::stats::tail_percentile;
use crate::workloads::Tally;

/// A device the benchmark built, wrapped in a [`CountingBackend`] when the
/// run is traced.
pub struct LaneDevice {
    pub device: Device,
    counting: Option<Arc<CountingBackend>>,
}

impl LaneDevice {
    pub fn new(config: DeviceConfig, traced: bool) -> Self {
        if !traced {
            return Self {
                device: Device::new(config),
                counting: None,
            };
        }
        let counting = Arc::new(CountingBackend::new(Arc::new(CpuBackend::new(config))));
        let backend: Arc<dyn ComputeBackend> = counting.clone();
        Self {
            device: Device::with_backend(backend),
            counting: Some(counting),
        }
    }

    pub fn snapshot(&self) -> DeviceSnap {
        let kernels = self
            .device
            .profile()
            .snapshot()
            .into_iter()
            .map(|(name, t)| (name, (t.launches, t.total.as_secs_f64())))
            .collect();
        let (launches, lane_bytes, memory_views) = self.counting.as_ref().map_or((0, 0, 0), |c| {
            (c.launches(), c.lane_bytes(), c.memory_views())
        });
        DeviceSnap {
            kernels,
            launches,
            lane_bytes,
            memory_views,
        }
    }
}

/// Cumulative device counters at one instant (or the difference of two).
#[derive(Debug, Clone, Default)]
pub struct DeviceSnap {
    /// Per kernel: launches and seconds.
    kernels: BTreeMap<String, (usize, f64)>,
    launches: usize,
    lane_bytes: usize,
    memory_views: usize,
}

impl DeviceSnap {
    /// `self − before`.
    pub fn since(&self, before: &DeviceSnap) -> DeviceSnap {
        let kernels = self
            .kernels
            .iter()
            .map(|(name, &(n, s))| {
                let (n0, s0) = before.kernels.get(name).copied().unwrap_or_default();
                (name.clone(), (n - n0, s - s0))
            })
            .collect();
        DeviceSnap {
            kernels,
            launches: self.launches - before.launches,
            lane_bytes: self.lane_bytes - before.lane_bytes,
            memory_views: self.memory_views - before.memory_views,
        }
    }

    /// Sum of two snapshots (several lanes as one).
    pub fn plus(mut self, other: &DeviceSnap) -> DeviceSnap {
        for (name, &(n, s)) in &other.kernels {
            let entry = self.kernels.entry(name.clone()).or_default();
            entry.0 += n;
            entry.1 += s;
        }
        self.launches += other.launches;
        self.lane_bytes += other.lane_bytes;
        self.memory_views += other.memory_views;
        self
    }

    /// Seconds in kernels whose name starts with `prefix`.
    fn seconds(&self, prefix: &str) -> f64 {
        self.kernels
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, &(_, s))| s)
            .sum()
    }

    /// Launches counted by the device's `CountingBackend` (0 untraced).
    pub fn launch_count(&self) -> usize {
        self.launches
    }

    /// Seconds across every profiled kernel and host section.
    pub fn total_seconds(&self) -> f64 {
        self.seconds("")
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Per-layer metric values by name; names never set read 0.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Kernel and driver layers: the device counters over the timed phase
    /// against the driver wall time and counts of the jobs that ran there.
    pub fn set_driver(&mut self, device: &DeviceSnap, tally: &Tally) {
        let wall = tally.wall_s;
        let (eval_launches, eval_s) = device.kernels.get("evaluate").copied().unwrap_or_default();
        self.set("evaluate.share", ratio(eval_s, wall));
        self.set("evaluate.evals_per_s", ratio(tally.evals as f64, eval_s));
        self.set(
            "evaluate.us_per_launch",
            ratio(eval_s * 1e6, eval_launches as f64),
        );
        self.set(
            "driver.postprocess_share",
            ratio(device.seconds("postprocess."), wall),
        );
        self.set(
            "driver.threshold_share",
            ratio(device.seconds("threshold."), wall),
        );
        self.set(
            "driver.filter_share",
            ratio(device.seconds("filter."), wall),
        );
        self.set(
            "driver.host_share",
            ratio(wall - device.total_seconds(), wall),
        );
        self.set_job_counts(tally);
        self.set_device(device, tally);
    }

    /// Mean driver iterations, evaluations and regions per job, exact from
    /// each `IntegrationResult`.
    pub fn set_job_counts(&mut self, tally: &Tally) {
        let jobs = tally.completed as f64;
        self.set(
            "driver.iterations_per_job",
            ratio(tally.iterations as f64, jobs),
        );
        self.set("driver.evals_per_job", ratio(tally.evals as f64, jobs));
        self.set("driver.regions_per_job", ratio(tally.regions as f64, jobs));
    }

    /// Device counters per job.  On a cache-served workload these are the
    /// only driver-side readings: a hit reports its cached run's counts,
    /// not work done.
    pub fn set_device(&mut self, device: &DeviceSnap, tally: &Tally) {
        let jobs = tally.completed as f64;
        self.set(
            "device.launches_per_job",
            ratio(device.launches as f64, jobs),
        );
        self.set(
            "device.lane_bytes_per_job",
            ratio(device.lane_bytes as f64, jobs),
        );
        self.set(
            "device.memory_views_per_job",
            ratio(device.memory_views as f64, jobs),
        );
    }

    /// Service-layer readings: the clients' submit and overhead timings
    /// (as `remote.*` for the distributed front-end, else `service.*`) and
    /// the services' own counters over the timed phase.
    pub fn set_service(
        &mut self,
        tally: &Tally,
        before: &[ServiceMetrics],
        after: &[ServiceMetrics],
        remote: bool,
    ) {
        let tail = tail_percentile(tally.overhead.count());
        let (submit, p50, tail_name) = if remote {
            (
                "remote.dispatch_us_p50",
                "remote.overhead_ms_p50",
                "remote.overhead_ms_tail",
            )
        } else {
            (
                "service.submit_us_p50",
                "service.overhead_ms_p50",
                "service.overhead_ms_tail",
            )
        };
        self.set(submit, tally.submit.percentile_us(50.0));
        self.set(p50, tally.overhead.percentile_ms(50.0));
        self.set(tail_name, tally.overhead.percentile_ms(tail));
        self.set("cost.admission_us", tally.admission.percentile_us(50.0));

        // Worst lane and priority of the services' recent-window waits.
        let waits = after.iter().flat_map(|m| m.waits).filter(|w| w.count > 0);
        let (w50, w90) = waits.fold((0.0f64, 0.0f64), |(a, b), w| {
            (
                a.max(w.p50.as_secs_f64() * 1e3),
                b.max(w.p90.as_secs_f64() * 1e3),
            )
        });
        self.set("service.queue_wait_ms_p50", w50);
        self.set("service.queue_wait_ms_p90", w90);

        let errors: Vec<f64> = after
            .iter()
            .filter_map(|m| m.prediction_error_ewma)
            .collect();
        self.set(
            "cost.prediction_error",
            ratio(errors.iter().sum(), errors.len() as f64),
        );

        let sum = |f: fn(&ServiceMetrics) -> u64, set: &[ServiceMetrics]| -> f64 {
            set.iter().map(f).sum::<u64>() as f64
        };
        let hits = sum(|m| m.cache_hits, after) - sum(|m| m.cache_hits, before);
        let misses = sum(|m| m.cache_misses, after) - sum(|m| m.cache_misses, before);
        self.set("cache.hit_share", ratio(hits, hits + misses));
        self.set(
            "remote.requeued",
            sum(|m| m.remote_requeued, after) - sum(|m| m.remote_requeued, before),
        );
    }

    /// Lane imbalance: the busiest lane's device seconds over the mean.
    pub fn set_lane_imbalance(&mut self, lanes: &[DeviceSnap]) {
        let busy: Vec<f64> = lanes.iter().map(DeviceSnap::total_seconds).collect();
        let mean = ratio(busy.iter().sum(), busy.len() as f64);
        let max = busy.iter().copied().fold(0.0, f64::max);
        self.set("multi_device.lane_imbalance", ratio(max, mean));
    }
}
