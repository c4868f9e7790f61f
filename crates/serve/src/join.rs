//! Backend-side cluster membership: the `--join` agent.
//!
//! When `mc-serve` is started with `--join <router>`, one agent thread
//! runs [`join_loop`]: it connects to the router, announces the daemon's
//! reachable address and worker capacity with a `register` frame, and
//! then reports liveness and load (`queue_depth`, `busy`) with periodic
//! `heartbeat` frames on the same connection. Any failure — router not
//! up yet, connection dropped, router restarted and the backend id
//! forgotten — tears the connection down and the next tick reconnects
//! and re-registers (registration is idempotent per address: the router
//! hands the same id back).
//!
//! The agent is deliberately dumb: the router owns the health state
//! machine (missed heartbeats and failed health-check pings mark a
//! backend down; a successful re-register or ping brings it back). The
//! agent's only jobs are to exist, to be current, and to exit promptly
//! on daemon shutdown.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use crate::client::Client;
use crate::endpoint::sliced_sleep;
use crate::server::{Shared, QUEUE_CAPACITY};

/// Registers with `router` and heartbeats every `interval` until the
/// daemon shuts down. Never panics: every router-side failure is retried
/// on the next tick.
pub(crate) fn join_loop(shared: &Arc<Shared>, router: &str, advertised: &str, interval: Duration) {
    let mut session: Option<(Client, u64)> = None;
    while !shared.shutdown.load(Ordering::SeqCst) {
        if session.is_none() {
            session = Client::connect(router).ok().and_then(|mut client| {
                let id = client
                    .register(advertised, shared.workers, QUEUE_CAPACITY)
                    .ok()?;
                Some((client, id))
            });
        }
        let healthy = match session.as_mut() {
            Some((client, id)) => {
                let status = shared.status();
                client
                    .heartbeat(*id, status.queue_depth, status.busy)
                    .is_ok()
            }
            None => true, // nothing to tear down; retry registration next tick
        };
        if !healthy {
            session = None;
        }
        sliced_sleep(&shared.shutdown, interval);
    }
}
