//! Simulation-as-a-service for the stochastic-synthesis engine.
//!
//! This crate turns the workspace's solvers into a network service: a
//! dependency-free HTTP/1.1 JSON server (std `TcpListener` only — the
//! sandbox has no crates.io access) exposing ensembles, exact CME analysis
//! and the paper's synthesis pipeline behind one API. It is the first
//! subsystem that composes **every** crate: `crn` parses wire-format
//! networks (with line+column errors), `gillespie` fans ensemble trials out
//! through the engine's deterministic range/merge machinery, `cme` answers
//! `/exact` and the model-checking endpoint `/check` (single verdicts or
//! parameter-sweep robustness landscapes, each grid point an independent
//! cached solve), and `synthesis`/`lambda` drive `/synthesize`.
//!
//! The three pillars:
//!
//! * **[`Scheduler`]** — a bounded work-stealing job scheduler. Jobs carry
//!   priorities (with an anti-starvation aging rule), cooperative
//!   cancellation down to single-trial granularity, and progress polling.
//!   Ensemble jobs split into chunk tasks that idle workers steal, and the
//!   chunks merge in trial order, so a report computed by any interleaving
//!   of workers is **bit-identical** to a single-threaded run.
//! * **[`ResultCache`]** — a content-addressed LRU cache keyed on
//!   `hash(model text, stepper, params, seed)`. Because the engine is
//!   deterministic for a fixed seed, whole simulation results are
//!   cacheable; replays are byte-identical and marked only by the
//!   `cache: hit` response header. Beside it, a [`StructureCache`] keeps
//!   the rate-free structures of enumerated CME state spaces, so an exact
//!   solve that differs from an earlier one only in its rates weighs a
//!   held structure instead of enumerating again.
//! * **[`Server`]/[`Router`]** — an embeddable blocking HTTP server and
//!   route table; [`serve`] assembles the stock service, and the
//!   `stochsynthd`/`stochsynth-cli` binaries wrap it for operations.
//!
//! # Quickstart (in-process)
//!
//! ```
//! use service::{serve, Client, ServiceConfig};
//!
//! let handle = serve(ServiceConfig::default()).expect("bind");
//! let client = Client::new(handle.addr()).expect("client");
//! let reply = client
//!     .post(
//!         "/simulate",
//!         "{\"network\": \"x -> h @ 3\\nx -> t @ 1\",
//!           \"initial\": {\"x\": 1},
//!           \"trials\": 200, \"seed\": 7, \"wait\": true,
//!           \"classifier\": [
//!             {\"species\": \"h\", \"at_least\": 1, \"outcome\": \"heads\"},
//!             {\"species\": \"t\", \"at_least\": 1, \"outcome\": \"tails\"}]}",
//!     )
//!     .expect("round trip");
//! assert_eq!(reply.status, 200);
//! assert_eq!(reply.header("cache"), Some("miss"));
//! // The same request again is served from the cache, byte for byte.
//! # let again = client.post("/simulate", "{\"network\": \"x -> h @ 3\\nx -> t @ 1\",
//! #   \"initial\": {\"x\": 1}, \"trials\": 200, \"seed\": 7, \"wait\": true,
//! #   \"classifier\": [{\"species\": \"h\", \"at_least\": 1, \"outcome\": \"heads\"},
//! #   {\"species\": \"t\", \"at_least\": 1, \"outcome\": \"tails\"}]}").expect("round trip");
//! # assert_eq!(again.header("cache"), Some("hit"));
//! # assert_eq!(again.body, reply.body);
//! handle.shutdown(std::time::Duration::from_secs(1));
//! handle.join();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
mod app;
mod cache;
mod error;
mod fabric;
pub mod http;
pub mod json;
mod metrics;
mod registry;
mod router;
mod scheduler;
mod server;
mod structures;

mod client;

pub use app::{serve, App, ServiceConfig, ServiceHandle};
pub use cache::{CacheStats, ResultCache};
pub use client::Client;
pub use error::ServiceError;
pub use fabric::{Fabric, FabricConfig, FabricStats, ShardTrace, TRACE_HEADER};
pub use http::{HttpReply, Method, Request, Response};
pub use metrics::{EndpointMetrics, Metrics};
pub use registry::{WorkerRegistry, WorkerSnapshot};
pub use router::{Handler, RouteContext, Router};
pub use scheduler::{
    ChunkOutput, DrainReport, JobId, JobSnapshot, JobState, JobWork, Scheduler, SchedulerStats,
    SchedulerTelemetry, SubmitError,
};
pub use server::{ResponseObserver, Server, ServerHandle};
pub use structures::{
    StructureCache, StructureStats, STRUCTURE_CACHE_BYTES, STRUCTURE_CACHE_ENTRIES,
};
