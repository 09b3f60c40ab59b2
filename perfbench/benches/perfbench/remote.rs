//! remote_mix's worker processes: the benchmark binary re-executed in a
//! worker role, one `RemoteWorker` each, on loopback.

use std::io::{BufRead, BufReader, Lines, Read, Write};
use std::process::{Child, ChildStdout, Command, ExitCode, Stdio};
use std::sync::Arc;

use pagani_core::{IntegrandRegistry, RemoteWorker, ResultCache, ServiceBuilder};
use pagani_device::Device;
use pagani_perfbench::JobStream;

use crate::workloads::{
    genz_config, lane_device_config, MIX_CACHE_BYTES, REMOTE_JOBS, REMOTE_WARMUP_JOBS, WARMUP_SEED,
};

/// CPU affinity through the C library's `sched_getaffinity` and
/// `sched_setaffinity`, on a `cpu_set_t` of 1 024 CPUs.
#[cfg(target_os = "linux")]
mod affinity {
    type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    /// The CPUs the calling thread may run on, lowest first.
    pub fn allowed() -> Vec<usize> {
        let mut mask: CpuSet = [0; 16];
        // SAFETY: `mask` is a writable buffer of exactly the size passed,
        // and pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), mask.as_mut_ptr()) } != 0 {
            return Vec::new();
        }
        (0..mask.len() * 64)
            .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    }

    /// Pin thread `tid` (0: the calling thread) to `cpu`; false if the call
    /// fails, as it does for a thread that has exited.
    pub fn pin(tid: i32, cpu: usize) -> bool {
        let mut mask: CpuSet = [0; 16];
        mask[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `mask` is a readable buffer of exactly the size passed; the
        // kernel checks `tid` and `cpu` and fails the call if either is bad.
        unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuSet>(), mask.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }

    pub fn pin(_tid: i32, _cpu: usize) -> bool {
        false
    }
}

/// The CPUs remote_mix alternates its deployment between: the last two this
/// process may run on, highest first (empty where affinity is unavailable).
pub fn remote_cpus() -> Vec<usize> {
    let allowed = affinity::allowed();
    allowed.iter().rev().take(2).copied().collect()
}

/// Pin the calling thread to `cpu`; threads and processes it starts
/// afterwards inherit the pin.
pub fn pin_self(cpu: usize) -> bool {
    affinity::pin(0, cpu)
}

/// Pin every live thread of the processes `pids` to `cpu`; threads they
/// start afterwards inherit the pin.
pub fn pin_processes(pids: &[u32], cpu: usize) {
    for pid in pids {
        let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
            continue;
        };
        for task in tasks.flatten() {
            if let Some(tid) = task.file_name().to_str().and_then(|t| t.parse().ok()) {
                affinity::pin(tid, cpu);
            }
        }
    }
}

/// Peak resident set (VmHWM) of this process in KiB, from procfs.
pub fn vm_hwm_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Worker role: rebuild the job registry from the seed, serve on an
/// OS-assigned loopback port (announced on stdout), and when the front-end
/// closes stdin shut down and report this process's peak RSS.
pub fn worker_main(seed: u64) -> ExitCode {
    let registry = IntegrandRegistry::new();
    JobStream::REMOTE.register(&registry, seed, REMOTE_JOBS);
    JobStream::REMOTE_WARMUP.register(&registry, WARMUP_SEED, REMOTE_WARMUP_JOBS);
    let worker = match RemoteWorker::bind(
        "127.0.0.1:0",
        ServiceBuilder::new(genz_config())
            .device(Device::new(lane_device_config()))
            .cache(Arc::new(ResultCache::new(MIX_CACHE_BYTES))),
        Arc::new(registry),
    ) {
        Ok(worker) => worker,
        Err(err) => {
            eprintln!("perfbench worker: bind failed: {err}");
            return ExitCode::FAILURE;
        }
    };
    let mut out = std::io::stdout();
    if writeln!(out, "LISTENING {}", worker.local_addr())
        .and_then(|()| out.flush())
        .is_err()
    {
        return ExitCode::FAILURE;
    }
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    worker.shutdown();
    let hwm = vm_hwm_kib().unwrap_or(0);
    if writeln!(out, "HWM {hwm}")
        .and_then(|()| out.flush())
        .is_err()
    {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// A running worker process.  Dropping it without [`WorkerProc::stop`]
/// kills the process and waits for it.
pub struct WorkerProc {
    child: Child,
    lines: Lines<BufReader<ChildStdout>>,
    stopped: bool,
}

impl WorkerProc {
    /// Start a worker process; its address is read by [`WorkerProc::addr`].
    pub fn start(seed: u64) -> std::io::Result<Self> {
        let mut child = Command::new(std::env::current_exe()?)
            .args(["--role", "worker"])
            .args(["--seed", &seed.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdout = child.stdout.take().expect("worker stdout is piped");
        Ok(Self {
            child,
            lines: BufReader::new(stdout).lines(),
            stopped: false,
        })
    }

    /// The worker's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Block until the worker announces its listening address.
    pub fn addr(&mut self) -> std::io::Result<String> {
        let line = self.lines.next().unwrap_or_else(|| {
            Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "worker exited before announcing its address",
            ))
        })?;
        line.strip_prefix("LISTENING ")
            .map(str::to_owned)
            .ok_or_else(|| std::io::Error::other(format!("unexpected worker line {line:?}")))
    }

    /// Close the worker's stdin, wait for it to exit, and return its peak
    /// RSS in KiB.
    pub fn stop(mut self) -> std::io::Result<u64> {
        drop(self.child.stdin.take());
        let mut hwm = None;
        for line in &mut self.lines {
            if let Some(kib) = line?.strip_prefix("HWM ") {
                hwm = kib.parse().ok();
            }
        }
        let status = self.child.wait()?;
        self.stopped = true;
        match hwm {
            Some(kib) if status.success() => Ok(kib),
            _ => Err(std::io::Error::other(format!(
                "worker ended with {status} and no peak-RSS report"
            ))),
        }
    }
}

impl Drop for WorkerProc {
    fn drop(&mut self) {
        if !self.stopped {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
