//! `mc-serve` — multiplicative-complexity optimization as a service.
//!
//! The DAC'19 engine in this workspace optimizes one circuit per process
//! invocation; this crate turns it into a long-running daemon so many
//! clients can share one warm process: one TCP listener, a bounded job
//! queue, a pool of worker threads running `run_job`, and a
//! **semantic result cache** in front of them — a resubmitted or
//! structurally identical circuit is answered from the cache without
//! recomputation.
//!
//! Everything is `std`-only (no tokio, no hyper, no serde), consistent
//! with the workspace's offline no-external-deps policy.
//!
//! The layers, bottom to top:
//!
//! * [`json`] — a minimal JSON value/parser/writer;
//! * [`protocol`] — length-prefixed JSON frames and the typed
//!   [`Request`]/[`Response`] messages (`optimize`, `status`, `stats`,
//!   `shutdown`);
//! * [`queue`] — the bounded blocking job queue (backpressure);
//! * [`cache`] — the canonical job key and the cached result entry;
//! * [`coalesce`] — the one map from job key to a pending or ready
//!   result, under one lock: the LRU bound, the hit/miss counters, and
//!   the coalescing of concurrent misses — every answer, computed or
//!   coalesced, reaches its request through this map;
//! * [`endpoint`] — the accept loop and per-connection frame loop the
//!   daemon and the `mc-cluster` router share;
//! * [`server`] — the daemon's request dispatch and worker pool; a job
//!   that panics fails with [`protocol::ERR_JOB_FAILED`], for its
//!   submitter and every coalesced request, and its worker carries on;
//! * [`client`] — a blocking client library, used by the `mc-client` CLI
//!   binary, the end-to-end tests, and the `serve_bench` load generator.
//!
//! # Examples
//!
//! Boot a daemon on an ephemeral port, optimize a circuit, observe the
//! cache, and shut down:
//!
//! ```
//! use mc_serve::{Client, OptimizeRequest, ServeConfig, Server};
//! use xag_network::{write_bristol, Xag};
//!
//! // A 2-AND circuit for a 1-AND function (x = a & (b ^ c)).
//! let mut xag = Xag::new();
//! let (a, b, c) = (xag.input(), xag.input(), xag.input());
//! let ab = xag.and(a, b);
//! let ac = xag.and(a, c);
//! let x = xag.xor(ab, ac);
//! xag.output(x);
//! let mut text = Vec::new();
//! write_bristol(&xag, &mut text).unwrap();
//!
//! let handle = Server::bind(ServeConfig::default()).unwrap();
//! let mut client = Client::connect(handle.local_addr()).unwrap();
//! let request = OptimizeRequest {
//!     circuit: String::from_utf8(text).unwrap(),
//!     ..OptimizeRequest::default()
//! };
//! let first = client.optimize(request.clone()).unwrap();
//! assert_eq!(first.ands_after, 1);
//! assert!(!first.cached);
//! let again = client.optimize(request).unwrap();
//! assert!(again.cached);
//! client.shutdown().unwrap();
//! handle.join();
//! ```

pub mod cache;
pub mod client;
pub mod coalesce;
pub mod endpoint;
mod join;
pub mod json;
pub mod protocol;
pub mod queue;
pub mod server;
#[doc(hidden)]
pub mod sync;

pub use cache::{canonical_form, fingerprint, job_key, CacheEntry};
pub use client::{Client, ClientError};
pub use coalesce::{CoalescingCache, Plan};
pub use protocol::{
    read_frame, write_frame, BackendStats, ClusterStatsInfo, FlowTiming, FrameError,
    OptimizeRequest, OptimizeResult, RegisterInfo, Request, Response, StatsInfo, StatusInfo,
    MAX_FRAME_LEN, MAX_JOB_ROUNDS,
};
pub use queue::JobQueue;
pub use server::{ServeConfig, Server, ServerHandle};

// Re-exported so protocol consumers (the router, clients, tests) name
// the trace/progress wire types without a direct mc-obs dependency.
pub use mc_obs::{JobProgress, TraceEvent};
