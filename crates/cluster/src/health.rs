//! The router's active health checks.
//!
//! A backend's registrations cannot distinguish "backend died" from
//! "backend's join agent died"; a router-initiated `ping` over a fresh
//! connection probes the thing that matters — whether the backend still
//! answers the frame protocol. So the ping is the router's one failure
//! detector besides a failed dispatch. The router's health thread runs
//! two steps every interval:
//!
//! 1. **probe** — every registered backend is pinged with a short
//!    timeout; a success refreshes liveness (and revives a down
//!    backend), a failure counts toward the miss threshold;
//! 2. **evict** — backends that stayed down for a minute are
//!    deregistered entirely, so ephemeral-port restarts do not leak a
//!    dead entry (and a doomed probe per round) forever.
//!
//! All timeouts are short and per-probe, so one wedged backend delays
//! the loop by at most one 250 ms ping timeout, not forever.

use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use mc_serve::endpoint::sliced_sleep;
use mc_serve::protocol::{read_frame, write_frame, Request, Response};

use crate::registry::Registry;
use crate::router::RouterConfig;

/// Per-probe connect/read/write bound of a health-check ping.
const PING_TIMEOUT: Duration = Duration::from_millis(250);

/// How long a backend may stay down before it is deregistered entirely
/// (ephemeral-port restarts would otherwise leak a dead registry entry
/// per restart).
const EVICT_AFTER: Duration = Duration::from_secs(60);

/// One bounded request/response exchange over a fresh connection:
/// connect, write, and read are each bounded by `timeout`. The shared
/// plumbing under health probes and the router's stats polling.
pub(crate) fn poll_addr(addr: &str, request: &Request, timeout: Duration) -> Option<Response> {
    let addrs = addr.to_socket_addrs().ok()?;
    for a in addrs {
        let Ok(mut stream) = TcpStream::connect_timeout(&a, timeout) else {
            continue;
        };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(timeout));
        let _ = stream.set_write_timeout(Some(timeout));
        if write_frame(&mut stream, &request.to_payload()).is_err() {
            continue;
        }
        if let Ok(Some(payload)) = read_frame(&mut stream) {
            if let Ok(response) = Response::from_payload(&payload) {
                return Some(response);
            }
        }
    }
    None
}

/// Sends one `ping` frame to `addr` and waits for the `pong`, bounding
/// connect, write, and read each by `timeout`.
pub fn ping_addr(addr: &str, timeout: Duration) -> bool {
    matches!(
        poll_addr(addr, &Request::Ping, timeout),
        Some(Response::Pong)
    )
}

/// Runs probe + evict rounds every `config.health_interval` until
/// `shutdown` is set; `on_down` fires once per backend transition
/// to down *and* per eviction, so the router can discard pooled
/// connections. Sleeps in short slices so router shutdown is never
/// blocked on a full interval.
pub(crate) fn health_loop(
    registry: &Registry,
    shutdown: &AtomicBool,
    config: &RouterConfig,
    on_down: &dyn Fn(u64),
) {
    while !shutdown.load(Ordering::SeqCst) {
        sliced_sleep(shutdown, config.health_interval);
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        for backend in registry.snapshot() {
            if shutdown.load(Ordering::SeqCst) {
                return;
            }
            let probe_start = std::time::Instant::now();
            if ping_addr(&backend.addr, PING_TIMEOUT) {
                // The probe doubles as an RTT sample: last observed
                // round trip per backend, scraped via `--metrics`.
                mc_obs::registry()
                    .gauge(&format!(
                        "cluster_backend_rtt_us{{backend=\"{}\"}}",
                        backend.addr
                    ))
                    .set(probe_start.elapsed().as_micros() as u64);
                registry.note_ping_ok(backend.id);
            } else if registry.note_ping_failed(backend.id, config.miss_threshold) {
                mc_obs::registry()
                    .counter("cluster_backend_down_total")
                    .inc();
                on_down(backend.id);
            }
        }
        for id in registry.evict_dead(EVICT_AFTER.as_millis() as u64) {
            on_down(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ping_fails_cleanly_on_a_dead_address() {
        // A port nothing listens on: bind-then-drop reserves one.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        assert!(!ping_addr(&addr, Duration::from_millis(100)));
        assert!(!ping_addr("not an address", Duration::from_millis(100)));
    }
}
