//! The distributed layer: PAGANI services stretched across processes.
//!
//! Three pieces, layered bottom-up:
//!
//! * the wire protocol ([`Message`], [`PROTOCOL_VERSION`]) — hand-rolled
//!   length-prefixed framing on `std::net`
//!   (the environment is offline; no serde): versioned handshake,
//!   job/result/cancel/heartbeat messages, every f64 travelling as
//!   `to_bits` so results round-trip **bit-exactly** (pinned invariant 9).
//! * [`IntegrandRegistry`] — integrand identity by name, the same scheme as
//!   [`pagani_persist::CacheKey`]; closures never cross the wire.
//! * [`RemoteWorker`] / [`DistributedService`] — a worker process wraps an
//!   ordinary [`crate::IntegrationService`] behind a TCP listener; the
//!   front-end is the in-process services' scheduler with one remote lane
//!   per worker, so placement, priorities, deadlines, backpressure and
//!   admission are the same code: a refused job never crosses the wire,
//!   cancel is forwarded over it, and a dead connection requeues its jobs
//!   on a surviving worker (resuming from a persisted checkpoint where one
//!   exists).
//!
//! Construction goes through [`crate::ServiceBuilder`]:
//! `builder.endpoint(addr).build_distributed()` for the front-end,
//! [`RemoteWorker::bind`] for the worker side.

mod distributed;
mod registry;
mod wire;
mod worker;

pub use distributed::DistributedService;
pub use registry::IntegrandRegistry;
pub use wire::{Message, WireError, PROTOCOL_VERSION};
pub use worker::RemoteWorker;
