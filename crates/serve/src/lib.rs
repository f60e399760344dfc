//! # verifas-serve — the multi-tenant verification service
//!
//! PR 2–4 made one *batch* fast: sharded scheduling, deterministic
//! rounds, streaming per-property results.  This crate makes many
//! batches coexist — the `verifas serve` daemon that keeps verification
//! sessions warm between requests and arbitrates the machine's cores
//! between tenants:
//!
//! * [`session`] — an LRU of loaded [`verifas_core::Engine`]s keyed by
//!   the canonical spec hash ([`verifas_core::spec_hash`]), so a
//!   re-submitted spec pays zero preprocessing,
//! * [`admission`] — priority classes (`interactive` / `batch`) and the
//!   one [`RequestTable`] of queued and running requests: per-class
//!   in-flight limits with a bounded FIFO lane (over-limit requests wait
//!   their turn with a `queued` frame and retry hint, and only lane
//!   *overflow* draws a typed `overloaded` refusal), each request's
//!   cancel token, and the server-global core split (interactive
//!   arrivals squeeze running batch requests to a one-core floor
//!   *mid-search* through the [`verifas_core::SchedulerHandle`] each
//!   request's batch runs on, created at admission so a squeeze lands
//!   whenever it happens — safe because rounds are bit-identical for
//!   any worker count, so preemption never changes a verdict),
//! * [`metrics`] — engine [`verifas_core::ProgressEvent`]s and request
//!   lifecycle folded into Prometheus-style counters for `/metrics`,
//! * [`protocol`] — the JSON request envelope and the newline-delimited
//!   response frames (`admitted`, `report`…, `done`),
//! * [`gateway`] — the transport-independent request path tying the
//!   above together (plus the server-wide
//!   [`verifas_core::MemoryBudget`] that lets searches degrade to typed
//!   `ResourceExhausted` errors instead of OOM-aborting),
//! * [`faults`] — seeded, replayable fault injection for chaos testing
//!   the daemon (socket stalls/resets, worker panics, eviction races,
//!   clock skew),
//! * [`http`] — a dependency-free HTTP/1.1 front end on
//!   [`std::net::TcpListener`] with a fixed worker pool.

pub mod admission;
pub mod error;
pub mod faults;
pub mod gateway;
pub mod http;
pub mod metrics;
pub mod protocol;
pub mod session;

pub use admission::{AdmissionLimits, PriorityClass, RequestId, RequestTable};
pub use error::ServeError;
pub use faults::{FaultPlan, FaultSite};
pub use gateway::{FrameSink, Gateway, ServeConfig};
pub use http::Server;
pub use metrics::{Metrics, RequestOutcome};
pub use protocol::VerifyRequest;
pub use session::{SessionCache, SessionCacheStats, SessionReuse};
