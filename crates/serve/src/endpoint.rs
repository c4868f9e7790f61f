//! The frame endpoint both tiers run: the daemon ([`crate::server`]) and
//! the `mc-cluster` router differ only in how they answer a request.
//!
//! * [`accept_loop`] — a non-blocking accept loop (so it can observe the
//!   shutdown flag, idling 20 ms between polls) that gives every
//!   connection its own reader thread with `TCP_NODELAY` set;
//! * the per-connection loop — read one frame, decode it, hand it to
//!   [`Dispatch::dispatch`], write the reply. An oversized frame gets an
//!   error reply and the connection closes (its body was never read, so
//!   the stream cannot be resynchronized); an undecodable payload gets an
//!   error reply and the connection stays open; a `ShuttingDown` reply
//!   closes the connection once it is sent;
//! * [`sliced_sleep`] — the shutdown-aware sleep of every background
//!   thread (samplers, heartbeats, health checks, the SLO watchdog).

use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::protocol::{read_frame, write_frame, FrameError, Request, Response};

/// Pause between accept polls while no connection is pending.
const ACCEPT_IDLE: Duration = Duration::from_millis(20);

/// Longest single sleep of [`sliced_sleep`]: bounds how long a
/// background thread takes to notice shutdown.
const SHUTDOWN_POLL: Duration = Duration::from_millis(50);

/// A service answering frames on an [`accept_loop`].
pub trait Dispatch: Send + Sync + 'static {
    /// Set once the service shuts down; the accept loop exits when it is.
    fn shutdown_flag(&self) -> &AtomicBool;

    /// Answers one decoded request. Answering with
    /// [`Response::ShuttingDown`] closes the connection after the reply.
    fn dispatch(&self, request: Request) -> Response;
}

/// Accepts connections until `service` shuts down, serving each on its
/// own detached reader thread named `conn_thread`. Readers exit on EOF,
/// on a broken stream, or after answering `shutdown`; holding their
/// handles would let one idle client block the whole shutdown.
pub fn accept_loop<S: Dispatch>(listener: TcpListener, service: &Arc<S>, conn_thread: &str) {
    while !service.shutdown_flag().load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let service = Arc::clone(service);
                let _ = std::thread::Builder::new()
                    .name(conn_thread.to_string())
                    .spawn(move || {
                        let _ = stream.set_nonblocking(false);
                        let _ = stream.set_nodelay(true);
                        connection_loop(stream, &*service);
                    });
            }
            Err(_) => std::thread::sleep(ACCEPT_IDLE),
        }
    }
}

fn send(stream: &mut TcpStream, response: &Response) -> bool {
    // write_frame flushes before returning.
    write_frame(&mut *stream, &response.to_payload()).is_ok()
}

fn connection_loop(mut stream: TcpStream, service: &impl Dispatch) {
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(Some(payload)) => payload,
            Ok(None) => return, // clean EOF
            Err(FrameError::Oversized(n)) => {
                let message = FrameError::Oversized(n).to_string();
                let _ = send(&mut stream, &Response::Error { message });
                return;
            }
            Err(_) => return, // truncated or broken stream
        };
        let response = match Request::from_payload(&payload) {
            Ok(request) => service.dispatch(request),
            Err(message) => Response::Error { message },
        };
        let last = matches!(response, Response::ShuttingDown);
        if !send(&mut stream, &response) || last {
            return;
        }
    }
}

/// Sleeps for `total`, in slices of at most 50 ms, returning early once
/// `shutdown` is set — so a thread with a long interval still exits
/// promptly.
pub fn sliced_sleep(shutdown: &AtomicBool, total: Duration) {
    let mut remaining = total;
    while !shutdown.load(Ordering::SeqCst) && !remaining.is_zero() {
        let slice = remaining.min(SHUTDOWN_POLL);
        std::thread::sleep(slice);
        remaining = remaining.saturating_sub(slice);
    }
}
