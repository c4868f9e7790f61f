//! Backend-side cluster membership: the `--join` agent.
//!
//! When `mc-serve` is started with `--join <router>`, one agent thread
//! runs [`join_loop`]: every heartbeat interval it sends the router one
//! `register` frame on a kept connection, carrying the daemon's
//! reachable address, worker capacity, queue capacity and current load
//! (`queue_depth`, `busy`). Registration is idempotent per address, so
//! the same frame both joins the cluster and keeps the backend's entry
//! current. Any failure — router not up yet, connection dropped, router
//! restarted — drops the connection, and the next tick reconnects and
//! registers again.
//!
//! The agent is deliberately dumb: the router owns the health state
//! machine (failed health-check pings and failed dispatches mark a
//! backend down; a registration or a successful ping brings it back).
//! The agent's only jobs are to exist, to be current, and to exit
//! promptly on daemon shutdown.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use crate::client::Client;
use crate::endpoint::sliced_sleep;
use crate::protocol::RegisterInfo;
use crate::server::{Shared, QUEUE_CAPACITY};

/// Registers with `router`, with the daemon's current load, every
/// `interval` until the daemon shuts down. Never panics: every
/// router-side failure is retried on the next tick.
pub(crate) fn join_loop(shared: &Arc<Shared>, router: &str, advertised: &str, interval: Duration) {
    let mut session: Option<Client> = None;
    while !shared.shutdown.load(Ordering::SeqCst) {
        let status = shared.status();
        let info = RegisterInfo {
            addr: advertised.to_string(),
            capacity: shared.workers,
            queue_capacity: QUEUE_CAPACITY,
            queue_depth: status.queue_depth,
            busy: status.busy,
        };
        session = session
            .or_else(|| Client::connect(router).ok())
            .and_then(|mut client| client.register(info).ok().map(|()| client));
        sliced_sleep(&shared.shutdown, interval);
    }
}
