//! A blocking client for the optimization service.
//!
//! One [`Client`] wraps one TCP connection and speaks the frame protocol
//! synchronously: each method sends a request and blocks for its
//! response (the server guarantees responses in request order per
//! connection). The `mc-client` CLI, the end-to-end tests, the
//! `serve_bench` load generator and the daemon's `--join` agent, which
//! resends [`Client::register`] on one kept connection, are all built
//! on this type.

use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use crate::protocol::{
    read_frame, write_frame, ClusterStatsInfo, FrameError, OptimizeRequest, OptimizeResult,
    RegisterInfo, Request, Response, StatsInfo, StatusInfo,
};

/// Failure of a client call.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// Frame-level failure (truncated or oversized frame, closed mid-response).
    Frame(FrameError),
    /// The response could not be decoded, or had an unexpected type.
    Protocol(String),
    /// The server answered with an error response.
    Server(String),
}

impl core::fmt::Display for ClientError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Frame(e) => write!(f, "frame error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Frame(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

/// One connection to a running daemon.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to the daemon at `addr` (e.g. `"127.0.0.1:4519"`).
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // The protocol is strict request/response; Nagle only adds latency.
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// Connects like [`Client::connect`], but retries a refused or failed
    /// connection up to `retries` extra times with bounded exponential
    /// backoff (50 ms doubling, capped at 1.6 s per wait) — for scripts
    /// racing a daemon that is still booting.
    ///
    /// # Errors
    ///
    /// Returns the last connection failure once the attempts are
    /// exhausted.
    pub fn connect_with_retry<A: ToSocketAddrs>(
        addr: A,
        retries: usize,
    ) -> std::io::Result<Client> {
        let mut delay = Duration::from_millis(50);
        let mut attempt = 0;
        loop {
            match Client::connect(&addr) {
                Ok(client) => return Ok(client),
                Err(e) if attempt >= retries => return Err(e),
                Err(_) => {
                    std::thread::sleep(delay);
                    delay = (delay * 2).min(Duration::from_millis(1600));
                    attempt += 1;
                }
            }
        }
    }

    /// Sends one request and reads its response.
    ///
    /// # Errors
    ///
    /// See [`ClientError`]; a connection closed before the response
    /// arrives surfaces as [`ClientError::Protocol`].
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.stream, &request.to_payload())?;
        let payload = read_frame(&mut self.stream)?
            .ok_or_else(|| ClientError::Protocol("connection closed before response".into()))?;
        Response::from_payload(&payload).map_err(ClientError::Protocol)
    }

    /// Sends `request` and hands the response to `expect`, which returns
    /// the typed answer or gives the response back: an `error` frame then
    /// becomes [`ClientError::Server`], any other frame
    /// [`ClientError::Protocol`].
    fn call<T>(
        &mut self,
        request: &Request,
        expect: impl FnOnce(Response) -> Result<T, Response>,
    ) -> Result<T, ClientError> {
        match expect(self.request(request)?) {
            Ok(value) => Ok(value),
            Err(Response::Error { message }) => Err(ClientError::Server(message)),
            Err(other) => Err(ClientError::Protocol(format!(
                "unexpected response: {other:?}"
            ))),
        }
    }

    /// Submits a circuit for optimization and blocks for the result.
    ///
    /// # Errors
    ///
    /// A malformed circuit (or any other request-level failure) comes
    /// back as [`ClientError::Server`] with the daemon's message.
    pub fn optimize(&mut self, request: OptimizeRequest) -> Result<OptimizeResult, ClientError> {
        self.call(&Request::Optimize(request), |response| match response {
            Response::Result(result) => Ok(result),
            other => Err(other),
        })
    }

    /// Queries queue and worker occupancy.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn status(&mut self) -> Result<StatusInfo, ClientError> {
        self.call(&Request::Status, |response| match response {
            Response::Status(status) => Ok(status),
            other => Err(other),
        })
    }

    /// Queries service counters (jobs served, cache hit rate, per-flow
    /// timing).
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn stats(&mut self) -> Result<StatsInfo, ClientError> {
        self.call(&Request::Stats, |response| match response {
            Response::Stats(stats) => Ok(stats),
            other => Err(other),
        })
    }

    /// Liveness probe: sends `ping` and measures the round-trip time to
    /// the `pong`. The router's health checks and `mc-client --ping` are
    /// built on this.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn ping(&mut self) -> Result<Duration, ClientError> {
        let t0 = Instant::now();
        self.call(&Request::Ping, |response| match response {
            Response::Pong => Ok(t0.elapsed()),
            other => Err(other),
        })
    }

    /// Backend → router: announces where the router should send jobs,
    /// the backend's capacity and its current load. Registering again
    /// from the same address refreshes that backend's entry.
    ///
    /// # Errors
    ///
    /// See [`ClientError`]; a plain `mc-serve` daemon answers with a
    /// server error naming itself.
    pub fn register(&mut self, info: RegisterInfo) -> Result<(), ClientError> {
        self.call(&Request::Register(info), |response| match response {
            Response::Pong => Ok(()),
            other => Err(other),
        })
    }

    /// Queries a router's per-backend breakdown (affinity counters, per
    /// backend health/load/cache state).
    ///
    /// # Errors
    ///
    /// See [`ClientError`]; a plain backend answers with a server error.
    pub fn cluster_stats(&mut self) -> Result<ClusterStatsInfo, ClientError> {
        self.call(&Request::ClusterStats, |response| match response {
            Response::ClusterStats(stats) => Ok(stats),
            other => Err(other),
        })
    }

    /// Fetches the server's own counts and its process's metric registry
    /// as Prometheus-style text. From a cluster router this includes one
    /// section per healthy backend, keyed by backend id and address.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        self.call(&Request::Metrics, |response| match response {
            Response::Metrics { text } => Ok(text),
            other => Err(other),
        })
    }

    /// Fetches the server's metric-history windows (10s/1m/5m sliding
    /// rates derived from the sampler ring) plus the server's clock at
    /// snapshot time. The windows count that server alone: from a
    /// cluster router they count routed jobs, routed results a backend
    /// answered from its cache, dispatch retries and dispatch latency.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn metrics_history(&mut self) -> Result<(u64, Vec<mc_obs::HistoryWindow>), ClientError> {
        self.call(&Request::MetricsHistory, |response| match response {
            Response::MetricsHistory { at_ms, windows } => Ok((at_ms, windows)),
            other => Err(other),
        })
    }

    /// Fetches the accumulated phase profile. From a cluster router the
    /// phases are merged across backends by path.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn prof_dump(&mut self) -> Result<Vec<mc_obs::PhaseStat>, ClientError> {
        self.call(&Request::ProfDump, |response| match response {
            Response::ProfDump { phases } => Ok(phases),
            other => Err(other),
        })
    }

    /// Fetches recorded trace events, optionally filtered to one trace
    /// ID. From a cluster router this merges the router's own events
    /// with every healthy backend's, sorted onto one timeline, each
    /// distinct event once.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn trace_dump(
        &mut self,
        trace_id: Option<u64>,
    ) -> Result<Vec<mc_obs::TraceEvent>, ClientError> {
        self.call(
            &Request::TraceDump { trace_id },
            |response| match response {
                Response::TraceDump { events } => Ok(events),
                other => Err(other),
            },
        )
    }

    /// Asks the daemon to shut down; returns once it acknowledged.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.call(&Request::Shutdown, |response| match response {
            Response::ShuttingDown => Ok(()),
            other => Err(other),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Sends one `optimize` to a loopback server that answers it with
    /// `reply`.
    fn optimize_answered_by(reply: Response) -> Result<OptimizeResult, ClientError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::scope(|s| {
            s.spawn(move || {
                let (mut stream, _) = listener.accept().unwrap();
                read_frame(&mut stream).unwrap();
                write_frame(&mut stream, &reply.to_payload()).unwrap();
            });
            Client::connect(addr)
                .unwrap()
                .optimize(OptimizeRequest::default())
        })
    }

    #[test]
    fn unexpected_frames_are_protocol_errors_and_error_frames_server_errors() {
        match optimize_answered_by(Response::Pong) {
            Err(ClientError::Protocol(m)) => assert_eq!(m, "unexpected response: Pong"),
            other => panic!("expected a protocol error, got {other:?}"),
        }
        let error = Response::Error {
            message: "no such flow".to_string(),
        };
        match optimize_answered_by(error) {
            Err(ClientError::Server(m)) => assert_eq!(m, "no such flow"),
            other => panic!("expected a server error, got {other:?}"),
        }
    }
}
