//! Simulated massively-parallel accelerator used as the execution substrate for the
//! PAGANI reproduction.
//!
//! The original PAGANI implementation (SC'21) targets an NVIDIA V100 through CUDA:
//! every sub-region is evaluated by one 256-thread block, the region lists live in
//! 16 GiB of device memory, and the post-processing steps are Thrust reductions and
//! prefix scans.  Stable Rust has no mature path to custom GPU kernels, so this crate
//! simulates only what the integrators call, on a multi-core CPU:
//!
//! * [`backend::ComputeBackend`] is the pluggable substrate seam: batched launches
//!   over flat buffers, memory views and two reductions as a dyn-safe trait, with
//!   [`backend::CpuBackend`] as the reference implementation.
//! * [`Device`] is a thin handle over an `Arc<dyn ComputeBackend>` plus a
//!   [`MemoryPool`] accounting view with a configurable byte capacity.  Every region
//!   list reserves its bytes from the pool before the host fills it, so memory
//!   exhaustion — which drives several of the paper's experiments — happens exactly
//!   where it would on the GPU.
//! * [`Device::launch_batch`] runs a *grid* of independent blocks on a Rayon thread
//!   pool, mirroring the bulk-synchronous kernel-launch model (all blocks finish
//!   before the host continues), with each block writing its outputs into its own
//!   slot of one flat structure-of-arrays buffer.
//! * [`reduce`] and [`scan`] provide the Thrust-equivalent primitives used by
//!   PAGANI's post-processing: the sum and masked-sum reductions, and stream
//!   compaction.
//! * [`profile::DeviceProfile`] accumulates per-kernel wall time so the §4.3.2
//!   performance breakdown can be reproduced.
//!
//! Nothing in this crate is specific to numerical integration; it is a small, general
//! bulk-synchronous-parallel substrate.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

pub mod backend;
pub mod error;
pub mod gate;
pub mod memory;
pub mod profile;
pub mod reduce;
pub mod scan;

mod device;

pub use backend::{BackendCaps, ComputeBackend, CountingBackend, CpuBackend};
pub use device::{Device, DeviceConfig};
pub use error::{DeviceError, DeviceResult};
pub use gate::{FairGate, GatePermit};
pub use memory::{MemoryPool, MemoryUsage, Reservation, VecShelf};
pub use profile::{DeviceProfile, KernelTiming};
