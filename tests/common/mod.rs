//! Helpers shared by the service/scheduling/batch integration-test binaries.
#![allow(dead_code)] // not every test binary uses every helper

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use pagani::prelude::{Device, DeviceConfig};

/// Worker-thread counts under test.  The CI `service-stress` matrix pins a
/// single count through `PAGANI_TEST_WORKER_THREADS`; local runs sweep the
/// caller's default list.
pub fn worker_matrix(default: &[usize]) -> Vec<usize> {
    match std::env::var("PAGANI_TEST_WORKER_THREADS") {
        Ok(value) => vec![value
            .parse()
            .expect("PAGANI_TEST_WORKER_THREADS must be a positive integer")],
        Err(_) => default.to_vec(),
    }
}

/// The standard test device: small profile, 32 MiB pool, `workers` threads.
pub fn device_with_workers(workers: usize) -> Device {
    Device::new(
        DeviceConfig::test_small()
            .with_memory_capacity(32 << 20)
            .with_worker_threads(workers),
    )
}

/// Opens a gate flag when dropped.  A test that parks a lane's workers on
/// the flag binds one *after* the service it gates: locals drop in reverse
/// order, so when an assertion unwinds before the test opens the gate
/// itself, the gate opens before the lane's `Drop` joins the parked workers,
/// and the test fails instead of hanging.
pub struct OpenOnDrop(pub Arc<AtomicBool>);

impl Drop for OpenOnDrop {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}
