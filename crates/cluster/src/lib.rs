//! `mc-cluster` — a multi-node job router over `mc-serve` backends.
//!
//! One `mc-serve` process caps out at one machine's cores; this crate
//! multiplies it horizontally while *preserving cache locality*. The
//! router sits in front of N backends, speaks the existing frame
//! protocol to clients unchanged (`mc-client` pointed at the router just
//! works), and adds one backend-side membership frame: backends started
//! with `--join <router>` register their address, capacity and current
//! load, again every heartbeat interval; the router pings them, marks
//! them down after missed pings or a failed dispatch, and transparently
//! retries failed dispatches on a surviving backend.
//!
//! Scheduling is **cache-affine**: the router computes the same
//! canonical structural job key as the PR 3 semantic cache
//! (`xag_mc::canon`, hoisted into the core crate so both tiers agree bit
//! for bit) and consistent-hashes its fingerprint onto the backend ring
//! — isomorphic resubmissions land on the backend whose cache is warm.
//! Saturated or down targets fall back to least-loaded placement, and a
//! `cluster_stats` endpoint reports the affinity hit rate plus
//! per-backend queue depth, cache counters, and routed-job totals.
//!
//! Everything is `std`-only (no tokio, no serde), consistent with the
//! workspace's offline no-external-deps policy.
//!
//! The layers:
//!
//! * [`ring`] — the consistent-hash ring (virtual points, stable under
//!   membership change);
//! * [`registry`] — membership, the registration/ping health state
//!   machine, load tracking, and backend selection;
//! * [`health`] — the router-initiated probe loop;
//! * [`router`] — request dispatch on mc-serve's frame endpoint,
//!   placement with failover, and stats aggregation; the `mc-cluster`
//!   binary wraps it.
//!
//! # Examples
//!
//! Boot a router and two joined backends on ephemeral ports, then
//! submit through the router:
//!
//! ```
//! use mc_cluster::{Router, RouterConfig};
//! use mc_serve::{Client, OptimizeRequest, ServeConfig, Server};
//! use xag_network::{write_bristol, Xag};
//!
//! let router = Router::bind(RouterConfig::default()).unwrap();
//! let join = Some(router.local_addr().to_string());
//! let b1 = Server::bind(ServeConfig { join: join.clone(), ..ServeConfig::default() }).unwrap();
//! let b2 = Server::bind(ServeConfig { join, ..ServeConfig::default() }).unwrap();
//!
//! // Wait until both backends registered.
//! let mut client = Client::connect(router.local_addr()).unwrap();
//! for _ in 0..200 {
//!     if client.cluster_stats().unwrap().backends.iter().filter(|b| b.up).count() == 2 {
//!         break;
//!     }
//!     std::thread::sleep(std::time::Duration::from_millis(10));
//! }
//!
//! let mut xag = Xag::new();
//! let (a, b) = (xag.input(), xag.input());
//! let g = xag.and(a, b);
//! xag.output(g);
//! let mut text = Vec::new();
//! write_bristol(&xag, &mut text).unwrap();
//! let result = client
//!     .optimize(OptimizeRequest {
//!         circuit: String::from_utf8(text).unwrap(),
//!         ..OptimizeRequest::default()
//!     })
//!     .unwrap();
//! assert_eq!(result.ands_after, 1);
//!
//! b1.shutdown();
//! b2.shutdown();
//! router.shutdown();
//! ```

pub mod health;
pub mod registry;
pub mod ring;
pub mod router;
pub mod slo;

pub use health::ping_addr;
pub use registry::{Backend, Choice, Registry};
pub use ring::HashRing;
pub use router::{Router, RouterConfig, RouterHandle};
pub use slo::{SloMachine, SloState, SloThresholds};
