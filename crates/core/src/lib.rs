//! PAGANI: the breadth-first parallel adaptive integration algorithm of
//! Sakiotis et al. (SC 2021), implemented on the simulated massively-parallel device
//! of `pagani-device`.
//!
//! Unlike Cuhre and the two-phase GPU method, PAGANI never runs the sequential
//! adaptive loop on any processor.  Every iteration it
//!
//! 1. evaluates **all** regions in the region list in parallel (one block per region),
//! 2. refines their error estimates with Berntsen's two-level estimate,
//! 3. classifies each region as *active* or *finished* by its relative error,
//! 4. reduces the per-region estimates to global estimates and checks termination,
//! 5. optionally runs the heuristic threshold classification (Algorithm 3) to finish
//!    additional low-contribution regions when the integral estimate has converged or
//!    device memory is about to run out,
//! 6. removes the finished regions from memory (their contributions are accumulated
//!    into the *finished* totals and never revisited), and
//! 7. splits every surviving region in half along its rule-selected axis.
//!
//! The public entry point is [`Pagani`]; its [`PaganiOutput`] carries both the
//! [`pagani_quadrature::IntegrationResult`] and an [`trace::ExecutionTrace`] with
//! per-iteration statistics and the threshold-search probes used to reproduce
//! Figures 3, 8 and 9 and the §4.3.2 performance breakdown.
//!
//! Two additional front doors wrap the driver:
//!
//! * [`Integrator`] — the method-agnostic trait every integrator in the
//!   workspace implements (the baselines implement it in `pagani-baselines`),
//!   so harnesses can sweep `Box<dyn Integrator>` values;
//! * [`IntegrationService`] — a resident worker pool serving
//!   `submit(job) → handle` with polling, blocking waits, cooperative
//!   cancellation and graceful shutdown; [`integrate_batch`] is
//!   submit-all-then-wait sugar over it.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

pub mod arena;
pub mod batch;
pub mod builder;
pub mod classify;
pub mod config;
pub mod cost;
pub mod driver;
pub mod evaluate;
pub mod integrator;
pub mod multi_device;
pub mod region_list;
pub mod remote;
pub mod resume;
mod scheduler;
pub mod service;
pub mod threshold;
pub mod trace;

pub use arena::ScratchArena;
pub use batch::{integrate_batch, BatchJob};
pub use builder::ServiceBuilder;
pub use config::{HeuristicFiltering, PaganiConfig};
pub use cost::{
    cost_ceiling, estimated_cost, estimated_footprint_bytes, estimated_job_footprint_bytes,
    job_tolerances, slab_weights, CostKey, CostModel, Ewma,
};
pub use driver::{CancelToken, Pagani, PaganiOutput};
pub use evaluate::{Evaluation, RegionPack, EVAL_LANES};
pub use integrator::{check_cancelled, Capabilities, Integrator, IntegratorFactory};
pub use multi_device::{DispatchMode, MultiDeviceOutput, MultiDevicePagani, MultiDeviceService};
// Persistence types, re-exported so service callers need not depend on
// `pagani-persist` directly.
pub use pagani_persist::{CacheKey, CachedResult, ResultCache, Snapshot, WarmStartInfo};
pub use region_list::RegionList;
pub use remote::{
    DistributedService, IntegrandRegistry, Message, RemoteWorker, WireError, PROTOCOL_VERSION,
};
pub use resume::{ResumableOutput, ResumeError};
pub use service::{
    DeadlineInfeasible, IntegrationService, JobHandle, Priority, QueueFull, Rejected,
    ServiceMetrics, WaitStats,
};
pub use trace::{ExecutionTrace, IterationRecord, ThresholdProbe, ThresholdSearchRecord};
