//! The wire protocol of the optimization service.
//!
//! Every message is one **frame**: a 4-byte big-endian payload length
//! followed by that many bytes of UTF-8 JSON. Length-prefixing (rather
//! than bare JSON lines) lets the reader reject oversized payloads
//! *before* buffering them and makes truncation detectable: a connection
//! that dies mid-frame yields [`FrameError::Truncated`], never a
//! half-parsed request.
//!
//! Requests and responses are tagged JSON objects (`"type": "optimize"`,
//! `"type": "result"`, …); [`Request`] and [`Response`] are the typed
//! forms with lossless [`Request::to_json`] / [`Request::from_payload`]
//! conversions (and likewise for responses), covered by round-trip tests.
//!
//! Cluster membership is one frame: a backend joined to an `mc-cluster`
//! router sends `register` ([`RegisterInfo`]: address, capacity and
//! current load) every heartbeat interval, and the router answers
//! `pong`. Integers cross the wire as JSON numbers, which readers hold
//! as `f64`, so the decoders take none at or above 2^53; trace ids stay
//! below that bound.

use std::io::{Read, Write};

use mc_obs::{HistoryWindow, JobProgress, PhaseStat, TraceEvent};
use xag_circuits::CircuitFormat;
use xag_mc::{FlowSpec, JobSpec};

use crate::json::{self, Json, EXACT_INT_LIMIT};

/// Hard cap on a frame payload. A Bristol netlist of a few million gates
/// fits comfortably; anything larger is rejected before allocation.
pub const MAX_FRAME_LEN: usize = 32 << 20;

/// Server-side cap on the per-job round cap a client may request.
pub const MAX_JOB_ROUNDS: usize = 1000;

/// Error message a daemon answers with when refusing new work during
/// shutdown. **Stable**: the cluster router matches on it (by equality)
/// to decide that a job is safe to retry on another backend — reword it
/// only together with `mc-cluster`'s failover check.
pub const ERR_SHUTTING_DOWN: &str = "daemon is shutting down";

/// Error message for a job whose computation was abandoned by shutdown.
/// Stable for the same reason as [`ERR_SHUTTING_DOWN`].
pub const ERR_JOB_DROPPED: &str = "job was dropped during shutdown";

/// Error message for a job whose computation failed (the optimizer
/// panicked on it). **Stable**, and deliberately *not* a failover signal:
/// the same job would fail on every backend, so the cluster router passes
/// it to the client and keeps the backend up.
pub const ERR_JOB_FAILED: &str = "job failed during optimization";

/// Failure reading a frame from the wire.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The peer closed (or the stream broke) in the middle of a frame.
    Truncated,
    /// The declared payload length exceeds [`MAX_FRAME_LEN`].
    Oversized(usize),
}

impl core::fmt::Display for FrameError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::Truncated => write!(f, "truncated frame"),
            FrameError::Oversized(n) => {
                write!(f, "oversized frame: {n} bytes (limit {MAX_FRAME_LEN})")
            }
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// Writes one frame (length prefix plus payload).
///
/// # Errors
///
/// Propagates I/O errors; refuses payloads above [`MAX_FRAME_LEN`] with
/// `InvalidInput`.
pub fn write_frame<W: Write>(mut writer: W, payload: &[u8]) -> std::io::Result<()> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "frame payload exceeds MAX_FRAME_LEN",
        ));
    }
    // One buffer, one write: a prefix-then-payload pair of writes would
    // put the 4-byte prefix in its own TCP segment, and Nagle + delayed
    // ACK would turn every request into a ~40 ms round trip.
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload);
    writer.write_all(&frame)?;
    writer.flush()
}

/// Reads one frame. Returns `Ok(None)` on a clean end-of-stream (EOF
/// exactly at a frame boundary); EOF anywhere inside a frame is
/// [`FrameError::Truncated`].
///
/// # Errors
///
/// See [`FrameError`].
pub fn read_frame<R: Read>(mut reader: R) -> Result<Option<Vec<u8>>, FrameError> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        // lint: allow(no-panic-in-request-path): filled < 4 is the loop condition; slice is in range
        match reader.read(&mut len_buf[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(None)
                } else {
                    Err(frame_warn(FrameError::Truncated))
                };
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME_LEN {
        return Err(frame_warn(FrameError::Oversized(len)));
    }
    let mut payload = vec![0u8; len];
    match reader.read_exact(&mut payload) {
        Ok(()) => Ok(Some(payload)),
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
            Err(frame_warn(FrameError::Truncated))
        }
        Err(e) => Err(FrameError::Io(e)),
    }
}

/// Counts a frame-level protocol violation and records a structured warn
/// event, so a flaky or hostile peer shows up in `Metrics`/`TraceDump`
/// instead of only in a per-connection error string.
fn frame_warn(err: FrameError) -> FrameError {
    let name = match &err {
        FrameError::Truncated => "frame_truncated",
        FrameError::Oversized(_) => "frame_oversized",
        FrameError::Io(_) => "frame_io_error",
    };
    mc_obs::registry().counter(&format!("{name}_total")).inc();
    mc_obs::instant(&format!("warn:{name}"), err.to_string());
    err
}

/// An `optimize` request: a circuit and what to do with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptimizeRequest {
    /// The circuit text (Bristol or structural Verilog).
    pub circuit: String,
    /// Input format; `None` lets the server sniff it.
    pub format: Option<CircuitFormat>,
    /// The flow to run. On the wire this is a FlowSpec string (an alias
    /// like `paper` or a full spec like `mc(cut=6);xor;cleanup*`),
    /// parsed and resource-guard-validated at the service edge — a
    /// malformed or hostile spec is a protocol error, never a worker
    /// panic. So is a `par(threads=N){…}` block from an older client:
    /// the grammar no longer has one.
    pub flow: FlowSpec,
    /// Round cap (clamped server-side to [`MAX_JOB_ROUNDS`]).
    pub max_rounds: usize,
    /// Format of the returned netlist.
    pub output: CircuitFormat,
    /// Trace ID to run the job under (0 = none; the server then assigns
    /// its own). The cluster router sets this when forwarding so router
    /// and backend events share one timeline; optional on the wire, so
    /// pre-tracing clients keep working.
    pub trace_id: u64,
}

impl Default for OptimizeRequest {
    fn default() -> Self {
        let JobSpec { flow, max_rounds } = JobSpec::default();
        Self {
            circuit: String::new(),
            format: None,
            flow,
            max_rounds,
            output: CircuitFormat::Bristol,
            trace_id: 0,
        }
    }
}

impl OptimizeRequest {
    /// The job this request asks for, with its round cap clamped to the
    /// service cap. The daemon runs it and the router routes by it:
    /// both derive the canonical job key from this spec, so the two
    /// tiers agree on the key bytes.
    pub fn job_spec(&self) -> JobSpec {
        JobSpec {
            flow: self.flow.clone(),
            max_rounds: self.max_rounds.clamp(1, MAX_JOB_ROUNDS),
        }
    }
}

/// A backend announcing itself and its current load to the cluster
/// router. The join agent resends it every heartbeat interval: each one
/// refreshes the backend's liveness, capacity and load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegisterInfo {
    /// The address clients of the router can reach the backend at.
    pub addr: String,
    /// Worker capacity the backend announces (its pool size); the router
    /// uses it to decide when the backend is saturated.
    pub capacity: usize,
    /// The backend's job-queue bound, so the router can aggregate a
    /// meaningful `status` for the whole cluster.
    pub queue_capacity: usize,
    /// Jobs waiting in the backend's queue.
    pub queue_depth: usize,
    /// Workers currently running a job.
    pub busy: usize,
}

/// A client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Optimize a circuit.
    Optimize(OptimizeRequest),
    /// Report queue and worker occupancy.
    Status,
    /// Report service counters (jobs, cache, per-flow timing).
    Stats,
    /// Liveness probe; answered inline with [`Response::Pong`]. The
    /// cluster router health-checks backends with it, and `Client::ping`
    /// exposes the round-trip time.
    Ping,
    /// Backend → router: join the cluster or report liveness and load,
    /// every heartbeat interval (answered with [`Response::Pong`]).
    Register(RegisterInfo),
    /// Report the router's per-backend breakdown (answered with
    /// [`Response::ClusterStats`]; a plain backend answers with an
    /// error).
    ClusterStats,
    /// Report the service's own counts and the process's metric registry
    /// as Prometheus-style text (answered with [`Response::Metrics`]). A
    /// router appends every healthy backend's section, keyed by backend.
    Metrics,
    /// Report the responder's sliding-window metric history (answered
    /// with [`Response::MetricsHistory`]). Each service's windows count
    /// that service alone: a daemon's its jobs served, cache lookups,
    /// errors and run latency; a router's the jobs it routed (cache hits
    /// are routed results a backend answered from its cache), its
    /// dispatch retries, its errors and its dispatch latency.
    MetricsHistory,
    /// Report the accumulated phase profile in folded-stack form
    /// (answered with [`Response::ProfDump`]). A router merges every
    /// healthy backend's profile per path.
    ProfDump,
    /// Report recorded trace events, optionally filtered to one trace ID
    /// (answered with [`Response::TraceDump`]). A router merges its own
    /// events with every healthy backend's onto one timeline, each
    /// distinct event once.
    TraceDump {
        /// Restrict the dump to this trace ID; `None` returns everything
        /// still in the rings.
        trace_id: Option<u64>,
    },
    /// Stop accepting work and shut the daemon down.
    Shutdown,
}

/// The outcome of one `optimize` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptimizeResult {
    /// Server-assigned job id (cache hits reuse the id of the job that
    /// computed the entry).
    pub job_id: u64,
    /// True iff the response was served from the semantic cache.
    pub cached: bool,
    /// The optimized netlist, in `output` format.
    pub netlist: String,
    /// Format of `netlist`.
    pub output: CircuitFormat,
    /// AND gates before optimization.
    pub ands_before: usize,
    /// XOR gates before optimization.
    pub xors_before: usize,
    /// AND gates after optimization.
    pub ands_after: usize,
    /// XOR gates after optimization.
    pub xors_after: usize,
    /// Multiplicative depth before optimization.
    pub depth_before: usize,
    /// Multiplicative depth after optimization.
    pub depth_after: usize,
    /// Pass executions used.
    pub rounds: usize,
    /// True iff the flow converged before its round cap.
    pub converged: bool,
    /// Wall-clock milliseconds the optimization took (for a cache hit:
    /// the time the original computation took, not the hit's ~0).
    pub millis: u64,
    /// Trace ID the job ran under (0 when tracing was not requested and
    /// the server predates tracing; cache hits report the ID of the
    /// request that asked, not the one that computed).
    pub trace_id: u64,
}

/// Queue and worker occupancy, for the `status` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatusInfo {
    /// Jobs currently waiting in the queue.
    pub queue_depth: usize,
    /// Queue capacity (pushes beyond it block — backpressure).
    pub queue_capacity: usize,
    /// Worker threads in the pool.
    pub workers: usize,
    /// Workers currently running a job.
    pub busy: usize,
    /// Where each currently running job is (pass, round, elapsed) — the
    /// progress-board snapshot, empty on servers that predate it.
    pub running: Vec<JobProgress>,
}

/// Per-flow job count and cumulative optimization time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowTiming {
    /// The flow's canonical key: its normalized spec string
    /// ([`FlowSpec::normalized`]), so alias and expansion submissions
    /// land in one row.
    pub flow: String,
    /// Jobs computed under this flow (cache hits excluded).
    pub jobs: u64,
    /// Total optimization wall-clock, in milliseconds.
    pub total_millis: u64,
}

/// Service counters, for the `stats` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsInfo {
    /// Seconds since the daemon started (for a router: since it started;
    /// aggregated stats keep the router's own uptime).
    pub uptime_secs: u64,
    /// Optimize requests answered (computed + cache hits).
    pub jobs_served: u64,
    /// Semantic-cache hits.
    pub cache_hits: u64,
    /// Semantic-cache misses.
    pub cache_misses: u64,
    /// Entries evicted by the LRU bound.
    pub cache_evictions: u64,
    /// Entries currently cached.
    pub cache_entries: usize,
    /// LRU bound.
    pub cache_capacity: usize,
    /// Jobs currently waiting in the queue.
    pub queue_depth: usize,
    /// Per-flow computation totals.
    pub flows: Vec<FlowTiming>,
}

impl StatsInfo {
    /// Cache hit rate in `[0, 1]`; 0 when nothing was looked up yet.
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// One backend's row in [`ClusterStatsInfo`]: registry state plus the
/// live counters the router polled from the backend (zero when the
/// backend is down or unreachable at poll time).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendStats {
    /// Router-assigned backend id.
    pub id: u64,
    /// The backend's address.
    pub addr: String,
    /// Whether the router currently considers the backend healthy.
    pub up: bool,
    /// Announced worker capacity.
    pub capacity: usize,
    /// Jobs the router has dispatched to it and not yet seen complete.
    pub in_flight: usize,
    /// Jobs the router has routed to it over its lifetime.
    pub jobs_routed: u64,
    /// Queue depth from the last registration.
    pub queue_depth: usize,
    /// Busy workers from the last registration.
    pub busy: usize,
    /// `jobs_served` polled live from the backend.
    pub jobs_served: u64,
    /// Semantic-cache hits polled live from the backend.
    pub cache_hits: u64,
    /// Semantic-cache misses polled live from the backend.
    pub cache_misses: u64,
}

/// The router's per-backend breakdown, for the `cluster_stats` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterStatsInfo {
    /// Seconds since the router started.
    pub uptime_secs: u64,
    /// Optimize requests the router answered from a backend.
    pub jobs_routed: u64,
    /// Dispatch attempts that failed and were retried on another backend.
    pub jobs_retried: u64,
    /// Dispatches that went to the ring-affine target (the backend the
    /// canonical job key consistent-hashes to).
    pub affinity_hits: u64,
    /// Dispatches diverted to a fallback backend (affine target down or
    /// saturated, or retry after a failure).
    pub affinity_fallbacks: u64,
    /// One row per registered backend, id order.
    pub backends: Vec<BackendStats>,
    /// SLO watchdog summary: empty when no SLO is configured (or the
    /// router predates the watchdog), otherwise `"ok"`, or
    /// `"warn: ..."`/`"breach: ..."` naming the violated thresholds.
    pub health: String,
}

impl ClusterStatsInfo {
    /// Fraction of dispatches that reached their ring-affine target, in
    /// `[0, 1]`; 0 before any dispatch.
    pub fn affinity_rate(&self) -> f64 {
        let total = self.affinity_hits + self.affinity_fallbacks;
        if total == 0 {
            0.0
        } else {
            self.affinity_hits as f64 / total as f64
        }
    }
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Optimize`].
    Result(OptimizeResult),
    /// Answer to [`Request::Status`].
    Status(StatusInfo),
    /// Answer to [`Request::Stats`].
    Stats(StatsInfo),
    /// Answer to [`Request::Ping`] and [`Request::Register`].
    Pong,
    /// Answer to [`Request::ClusterStats`].
    ClusterStats(ClusterStatsInfo),
    /// Answer to [`Request::Metrics`]: the registry rendered as
    /// Prometheus-style text.
    Metrics {
        /// One `name value` line per metric; histograms expand to
        /// `_count`/`_sum`/`_p50`/`_p90`/`_p99` lines.
        text: String,
    },
    /// Answer to [`Request::MetricsHistory`]: the 10s/1m/5m window
    /// deltas of the responder's own ring, ending at its newest sample.
    MetricsHistory {
        /// Epoch milliseconds the responder answered at.
        at_ms: u64,
        /// One delta per standard window, shortest first.
        windows: Vec<HistoryWindow>,
    },
    /// Answer to [`Request::ProfDump`]: the accumulated phase profile.
    ProfDump {
        /// Per-path phase timings, sorted by path; `path` joined with
        /// `self_us` is one folded-stack line.
        phases: Vec<PhaseStat>,
    },
    /// Answer to [`Request::TraceDump`]: recorded events, sorted by
    /// start time.
    TraceDump {
        /// The matching events still held in the rings.
        events: Vec<TraceEvent>,
    },
    /// Acknowledgement of [`Request::Shutdown`].
    ShuttingDown,
    /// Any failure the server could map to the request (malformed
    /// circuit, unknown request type, shutdown in progress, …).
    Error {
        /// Human-readable description.
        message: String,
    },
}

fn obj_str(value: &Json, key: &str) -> Result<String, String> {
    value
        .get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string field: {key}"))
}

/// A wire integer, or an error that names the [`EXACT_INT_LIMIT`] for a
/// whole number at or above it and reads `otherwise` for anything else.
fn wire_u64(v: Option<&Json>, key: &str, otherwise: &str) -> Result<u64, String> {
    if let Some(n) = v.and_then(Json::as_u64) {
        return Ok(n);
    }
    match v.and_then(Json::as_f64) {
        Some(n) if n >= EXACT_INT_LIMIT as f64 => Err(format!(
            "out-of-range field: {key} (integers must be below 2^53)"
        )),
        _ => Err(format!("{otherwise}: {key}")),
    }
}

fn obj_usize(value: &Json, key: &str, default: usize) -> Result<usize, String> {
    match value.get(key) {
        None | Some(Json::Null) => Ok(default),
        v => wire_u64(v, key, "non-integer field").map(|n| n as usize),
    }
}

fn obj_u64(value: &Json, key: &str) -> Result<u64, String> {
    wire_u64(value.get(key), key, "missing or non-integer field")
}

fn obj_u64_or(value: &Json, key: &str, default: u64) -> Result<u64, String> {
    match value.get(key) {
        None | Some(Json::Null) => Ok(default),
        v => wire_u64(v, key, "non-integer field"),
    }
}

fn obj_bool(value: &Json, key: &str) -> Result<bool, String> {
    value
        .get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| format!("missing or non-boolean field: {key}"))
}

impl Request {
    /// The JSON form of the request.
    pub fn to_json(&self) -> Json {
        match self {
            Request::Optimize(o) => {
                let mut members = vec![("type".to_string(), Json::from("optimize"))];
                if let Some(f) = o.format {
                    members.push(("format".to_string(), Json::from(f.name())));
                }
                if o.trace_id != 0 {
                    members.push(("trace_id".to_string(), Json::from(o.trace_id)));
                }
                members.extend([
                    ("flow".to_string(), Json::from(o.flow.to_string())),
                    ("max_rounds".to_string(), Json::from(o.max_rounds)),
                    ("output".to_string(), Json::from(o.output.name())),
                    ("circuit".to_string(), Json::from(o.circuit.as_str())),
                ]);
                Json::Obj(members)
            }
            Request::Status => Json::Obj(vec![("type".to_string(), Json::from("status"))]),
            Request::Stats => Json::Obj(vec![("type".to_string(), Json::from("stats"))]),
            Request::Ping => Json::Obj(vec![("type".to_string(), Json::from("ping"))]),
            Request::Register(r) => Json::Obj(vec![
                ("type".to_string(), Json::from("register")),
                ("addr".to_string(), Json::from(r.addr.as_str())),
                ("capacity".to_string(), Json::from(r.capacity)),
                ("queue_capacity".to_string(), Json::from(r.queue_capacity)),
                ("queue_depth".to_string(), Json::from(r.queue_depth)),
                ("busy".to_string(), Json::from(r.busy)),
            ]),
            Request::ClusterStats => {
                Json::Obj(vec![("type".to_string(), Json::from("cluster_stats"))])
            }
            Request::Metrics => Json::Obj(vec![("type".to_string(), Json::from("metrics"))]),
            Request::MetricsHistory => {
                Json::Obj(vec![("type".to_string(), Json::from("metrics_history"))])
            }
            Request::ProfDump => Json::Obj(vec![("type".to_string(), Json::from("prof_dump"))]),
            Request::TraceDump { trace_id } => {
                let mut members = vec![("type".to_string(), Json::from("trace_dump"))];
                if let Some(id) = trace_id {
                    members.push(("trace_id".to_string(), Json::from(*id)));
                }
                Json::Obj(members)
            }
            Request::Shutdown => Json::Obj(vec![("type".to_string(), Json::from("shutdown"))]),
        }
    }

    /// Serializes to frame-payload bytes.
    pub fn to_payload(&self) -> Vec<u8> {
        self.to_json().encode().into_bytes()
    }

    /// Parses a frame payload into a request.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of what is malformed (sent
    /// back to the client as a protocol error). Every rejection is also
    /// counted in `frame_malformed_total` and recorded as a
    /// `warn:frame_malformed` trace event.
    pub fn from_payload(payload: &[u8]) -> Result<Request, String> {
        Self::from_payload_inner(payload).map_err(frame_malformed)
    }

    fn from_payload_inner(payload: &[u8]) -> Result<Request, String> {
        let text = core::str::from_utf8(payload).map_err(|_| "payload is not UTF-8".to_string())?;
        let value = json::parse(text).map_err(|e| e.to_string())?;
        let kind = obj_str(&value, "type")?;
        match kind.as_str() {
            "optimize" => {
                let format = match value.get("format") {
                    None | Some(Json::Null) => None,
                    Some(v) => {
                        let name = v.as_str().ok_or("non-string field: format")?;
                        Some(
                            CircuitFormat::from_name(name)
                                .ok_or_else(|| format!("unknown format: {name}"))?,
                        )
                    }
                };
                // Absent fields default; present fields must be
                // well-typed — a mistyped "flow" silently running the
                // wrong flow would be far worse than an error. The
                // FlowSpec parser also enforces the resource-guard
                // limits, so a hostile `cleanup*9999999` dies right
                // here, before anything is queued.
                let flow = match value.get("flow") {
                    None | Some(Json::Null) => FlowSpec::default(),
                    Some(v) => {
                        let text = v.as_str().ok_or("non-string field: flow")?;
                        FlowSpec::parse(text).map_err(|e| e.to_string())?
                    }
                };
                let output = match value.get("output") {
                    None | Some(Json::Null) => CircuitFormat::Bristol,
                    Some(v) => {
                        let name = v.as_str().ok_or("non-string field: output")?;
                        CircuitFormat::from_name(name)
                            .ok_or_else(|| format!("unknown output format: {name}"))?
                    }
                };
                Ok(Request::Optimize(OptimizeRequest {
                    circuit: obj_str(&value, "circuit")?,
                    format,
                    flow,
                    max_rounds: obj_usize(&value, "max_rounds", JobSpec::default().max_rounds)?,
                    output,
                    trace_id: obj_u64_or(&value, "trace_id", 0)?,
                }))
            }
            "status" => Ok(Request::Status),
            "stats" => Ok(Request::Stats),
            "ping" => Ok(Request::Ping),
            "register" => Ok(Request::Register(RegisterInfo {
                addr: obj_str(&value, "addr")?,
                capacity: obj_usize(&value, "capacity", 1)?,
                queue_capacity: obj_usize(&value, "queue_capacity", 0)?,
                queue_depth: obj_usize(&value, "queue_depth", 0)?,
                busy: obj_usize(&value, "busy", 0)?,
            })),
            "cluster_stats" => Ok(Request::ClusterStats),
            "metrics" => Ok(Request::Metrics),
            "metrics_history" => Ok(Request::MetricsHistory),
            "prof_dump" => Ok(Request::ProfDump),
            "trace_dump" => Ok(Request::TraceDump {
                trace_id: match value.get("trace_id") {
                    None | Some(Json::Null) => None,
                    v => Some(wire_u64(v, "trace_id", "non-integer field")?),
                },
            }),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown request type: {other}")),
        }
    }
}

/// The members of one history window's row in a `metrics_history`
/// answer: raw deltas plus the per-bucket latency counts, from which a
/// reader derives rates and quantiles.
pub fn window_row(w: &HistoryWindow) -> Vec<(String, Json)> {
    vec![
        ("window_secs".to_string(), Json::from(w.window_secs)),
        ("span_ms".to_string(), Json::from(w.span_ms)),
        ("jobs".to_string(), Json::from(w.jobs)),
        ("hits".to_string(), Json::from(w.hits)),
        ("misses".to_string(), Json::from(w.misses)),
        ("retries".to_string(), Json::from(w.retries)),
        ("errors".to_string(), Json::from(w.errors)),
        ("queue_depth".to_string(), Json::from(w.queue_depth)),
        ("busy".to_string(), Json::from(w.busy)),
        ("lat_count".to_string(), Json::from(w.lat_count)),
        ("lat_sum".to_string(), Json::from(w.lat_sum)),
        (
            "lat_buckets".to_string(),
            Json::Arr(w.lat_buckets.iter().map(|&n| Json::from(n)).collect()),
        ),
    ]
}

/// The members of one running job's row in a `status` answer.
pub fn job_row(j: &JobProgress) -> Vec<(String, Json)> {
    vec![
        ("job_id".to_string(), Json::from(j.job_id)),
        ("trace_id".to_string(), Json::from(j.trace_id)),
        ("flow".to_string(), Json::from(j.flow.as_str())),
        ("pass".to_string(), Json::from(j.pass.as_str())),
        ("round".to_string(), Json::from(j.round)),
        ("elapsed_ms".to_string(), Json::from(j.elapsed_ms)),
    ]
}

/// The members of one backend's row in a `cluster_stats` answer.
pub fn backend_row(b: &BackendStats) -> Vec<(String, Json)> {
    vec![
        ("id".to_string(), Json::from(b.id)),
        ("addr".to_string(), Json::from(b.addr.as_str())),
        ("up".to_string(), Json::Bool(b.up)),
        ("capacity".to_string(), Json::from(b.capacity)),
        ("in_flight".to_string(), Json::from(b.in_flight)),
        ("jobs_routed".to_string(), Json::from(b.jobs_routed)),
        ("queue_depth".to_string(), Json::from(b.queue_depth)),
        ("busy".to_string(), Json::from(b.busy)),
        ("jobs_served".to_string(), Json::from(b.jobs_served)),
        ("cache_hits".to_string(), Json::from(b.cache_hits)),
        ("cache_misses".to_string(), Json::from(b.cache_misses)),
    ]
}

/// The members of one phase path's row in a `prof_dump` answer.
pub fn phase_row(p: &PhaseStat) -> Vec<(String, Json)> {
    vec![
        ("path".to_string(), Json::from(p.path.as_str())),
        ("count".to_string(), Json::from(p.count)),
        ("total_us".to_string(), Json::from(p.total_us)),
        ("self_us".to_string(), Json::from(p.self_us)),
    ]
}

fn window_from_json(value: &Json) -> Result<HistoryWindow, String> {
    let lat_buckets = value
        .get("lat_buckets")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|n| n.as_u64().ok_or("non-integer latency bucket".to_string()))
        .collect::<Result<Vec<_>, String>>()?;
    Ok(HistoryWindow {
        window_secs: obj_u64_or(value, "window_secs", 0)?,
        span_ms: obj_u64_or(value, "span_ms", 0)?,
        jobs: obj_u64_or(value, "jobs", 0)?,
        hits: obj_u64_or(value, "hits", 0)?,
        misses: obj_u64_or(value, "misses", 0)?,
        retries: obj_u64_or(value, "retries", 0)?,
        errors: obj_u64_or(value, "errors", 0)?,
        queue_depth: obj_u64_or(value, "queue_depth", 0)?,
        busy: obj_u64_or(value, "busy", 0)?,
        lat_count: obj_u64_or(value, "lat_count", 0)?,
        lat_sum: obj_u64_or(value, "lat_sum", 0)?,
        lat_buckets,
    })
}

/// Counts a structurally invalid request (parsed JSON, unusable content)
/// alongside the frame-level warns, and records a structured warn event.
fn frame_malformed(message: String) -> String {
    mc_obs::registry().counter("frame_malformed_total").inc();
    mc_obs::instant("warn:frame_malformed", message.clone());
    message
}

impl Response {
    /// The JSON form of the response.
    pub fn to_json(&self) -> Json {
        match self {
            Response::Result(r) => Json::Obj(vec![
                ("type".to_string(), Json::from("result")),
                ("job_id".to_string(), Json::from(r.job_id)),
                ("cached".to_string(), Json::Bool(r.cached)),
                ("output".to_string(), Json::from(r.output.name())),
                ("ands_before".to_string(), Json::from(r.ands_before)),
                ("xors_before".to_string(), Json::from(r.xors_before)),
                ("ands_after".to_string(), Json::from(r.ands_after)),
                ("xors_after".to_string(), Json::from(r.xors_after)),
                ("depth_before".to_string(), Json::from(r.depth_before)),
                ("depth_after".to_string(), Json::from(r.depth_after)),
                ("rounds".to_string(), Json::from(r.rounds)),
                ("converged".to_string(), Json::Bool(r.converged)),
                ("millis".to_string(), Json::from(r.millis)),
                ("trace_id".to_string(), Json::from(r.trace_id)),
                ("netlist".to_string(), Json::from(r.netlist.as_str())),
            ]),
            Response::Status(s) => Json::Obj(vec![
                ("type".to_string(), Json::from("status")),
                ("queue_depth".to_string(), Json::from(s.queue_depth)),
                ("queue_capacity".to_string(), Json::from(s.queue_capacity)),
                ("workers".to_string(), Json::from(s.workers)),
                ("busy".to_string(), Json::from(s.busy)),
                (
                    "running".to_string(),
                    Json::Arr(s.running.iter().map(|j| Json::Obj(job_row(j))).collect()),
                ),
            ]),
            Response::Stats(s) => Json::Obj(vec![
                ("type".to_string(), Json::from("stats")),
                ("uptime_secs".to_string(), Json::from(s.uptime_secs)),
                ("jobs_served".to_string(), Json::from(s.jobs_served)),
                ("cache_hits".to_string(), Json::from(s.cache_hits)),
                ("cache_misses".to_string(), Json::from(s.cache_misses)),
                ("cache_evictions".to_string(), Json::from(s.cache_evictions)),
                ("cache_entries".to_string(), Json::from(s.cache_entries)),
                ("cache_capacity".to_string(), Json::from(s.cache_capacity)),
                ("queue_depth".to_string(), Json::from(s.queue_depth)),
                (
                    "flows".to_string(),
                    Json::Arr(
                        s.flows
                            .iter()
                            .map(|t| {
                                Json::Obj(vec![
                                    ("flow".to_string(), Json::from(t.flow.as_str())),
                                    ("jobs".to_string(), Json::from(t.jobs)),
                                    ("total_millis".to_string(), Json::from(t.total_millis)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            Response::Pong => Json::Obj(vec![("type".to_string(), Json::from("pong"))]),
            Response::ClusterStats(c) => {
                let mut members = vec![
                    ("type".to_string(), Json::from("cluster_stats")),
                    ("uptime_secs".to_string(), Json::from(c.uptime_secs)),
                    ("jobs_routed".to_string(), Json::from(c.jobs_routed)),
                    ("jobs_retried".to_string(), Json::from(c.jobs_retried)),
                    ("affinity_hits".to_string(), Json::from(c.affinity_hits)),
                    (
                        "affinity_fallbacks".to_string(),
                        Json::from(c.affinity_fallbacks),
                    ),
                ];
                if !c.health.is_empty() {
                    members.push(("health".to_string(), Json::from(c.health.as_str())));
                }
                members.push((
                    "backends".to_string(),
                    Json::Arr(
                        c.backends
                            .iter()
                            .map(|b| Json::Obj(backend_row(b)))
                            .collect(),
                    ),
                ));
                Json::Obj(members)
            }
            Response::Metrics { text } => Json::Obj(vec![
                ("type".to_string(), Json::from("metrics")),
                ("text".to_string(), Json::from(text.as_str())),
            ]),
            Response::MetricsHistory { at_ms, windows } => Json::Obj(vec![
                ("type".to_string(), Json::from("metrics_history")),
                ("at_ms".to_string(), Json::from(*at_ms)),
                (
                    "windows".to_string(),
                    Json::Arr(windows.iter().map(|w| Json::Obj(window_row(w))).collect()),
                ),
            ]),
            Response::ProfDump { phases } => Json::Obj(vec![
                ("type".to_string(), Json::from("prof_dump")),
                (
                    "phases".to_string(),
                    Json::Arr(phases.iter().map(|p| Json::Obj(phase_row(p))).collect()),
                ),
            ]),
            Response::TraceDump { events } => Json::Obj(vec![
                ("type".to_string(), Json::from("trace_dump")),
                (
                    "events".to_string(),
                    Json::Arr(
                        events
                            .iter()
                            .map(|e| {
                                Json::Obj(vec![
                                    ("trace_id".to_string(), Json::from(e.trace_id)),
                                    ("span".to_string(), Json::from(e.span.as_str())),
                                    ("start_us".to_string(), Json::from(e.start_us)),
                                    ("dur_us".to_string(), Json::from(e.dur_us)),
                                    ("detail".to_string(), Json::from(e.detail.as_str())),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            Response::ShuttingDown => {
                Json::Obj(vec![("type".to_string(), Json::from("shutting_down"))])
            }
            Response::Error { message } => Json::Obj(vec![
                ("type".to_string(), Json::from("error")),
                ("message".to_string(), Json::from(message.as_str())),
            ]),
        }
    }

    /// Serializes to frame-payload bytes.
    pub fn to_payload(&self) -> Vec<u8> {
        self.to_json().encode().into_bytes()
    }

    /// Parses a frame payload into a response.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of what is malformed.
    pub fn from_payload(payload: &[u8]) -> Result<Response, String> {
        let text = core::str::from_utf8(payload).map_err(|_| "payload is not UTF-8".to_string())?;
        let value = json::parse(text).map_err(|e| e.to_string())?;
        let kind = obj_str(&value, "type")?;
        match kind.as_str() {
            "result" => {
                let output_name = obj_str(&value, "output")?;
                let output = CircuitFormat::from_name(&output_name)
                    .ok_or_else(|| format!("unknown output format: {output_name}"))?;
                Ok(Response::Result(OptimizeResult {
                    job_id: obj_u64(&value, "job_id")?,
                    cached: obj_bool(&value, "cached")?,
                    netlist: obj_str(&value, "netlist")?,
                    output,
                    ands_before: obj_usize(&value, "ands_before", 0)?,
                    xors_before: obj_usize(&value, "xors_before", 0)?,
                    ands_after: obj_usize(&value, "ands_after", 0)?,
                    xors_after: obj_usize(&value, "xors_after", 0)?,
                    depth_before: obj_usize(&value, "depth_before", 0)?,
                    depth_after: obj_usize(&value, "depth_after", 0)?,
                    rounds: obj_usize(&value, "rounds", 0)?,
                    converged: obj_bool(&value, "converged")?,
                    millis: obj_u64(&value, "millis")?,
                    trace_id: obj_u64_or(&value, "trace_id", 0)?,
                }))
            }
            "status" => {
                let running = value
                    .get("running")
                    .and_then(Json::as_arr)
                    .unwrap_or(&[])
                    .iter()
                    .map(|j| {
                        Ok(JobProgress {
                            job_id: obj_u64(j, "job_id")?,
                            trace_id: obj_u64_or(j, "trace_id", 0)?,
                            flow: obj_str(j, "flow")?,
                            pass: obj_str(j, "pass").unwrap_or_default(),
                            round: obj_usize(j, "round", 0)?,
                            elapsed_ms: obj_u64_or(j, "elapsed_ms", 0)?,
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(Response::Status(StatusInfo {
                    queue_depth: obj_usize(&value, "queue_depth", 0)?,
                    queue_capacity: obj_usize(&value, "queue_capacity", 0)?,
                    workers: obj_usize(&value, "workers", 0)?,
                    busy: obj_usize(&value, "busy", 0)?,
                    running,
                }))
            }
            "stats" => {
                let flows = value
                    .get("flows")
                    .and_then(Json::as_arr)
                    .unwrap_or(&[])
                    .iter()
                    .map(|t| {
                        Ok(FlowTiming {
                            flow: obj_str(t, "flow")?,
                            jobs: obj_u64(t, "jobs")?,
                            total_millis: obj_u64(t, "total_millis")?,
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(Response::Stats(StatsInfo {
                    uptime_secs: obj_u64_or(&value, "uptime_secs", 0)?,
                    jobs_served: obj_u64(&value, "jobs_served")?,
                    cache_hits: obj_u64(&value, "cache_hits")?,
                    cache_misses: obj_u64(&value, "cache_misses")?,
                    cache_evictions: obj_u64(&value, "cache_evictions")?,
                    cache_entries: obj_usize(&value, "cache_entries", 0)?,
                    cache_capacity: obj_usize(&value, "cache_capacity", 0)?,
                    queue_depth: obj_usize(&value, "queue_depth", 0)?,
                    flows,
                }))
            }
            "pong" => Ok(Response::Pong),
            "cluster_stats" => {
                let backends = value
                    .get("backends")
                    .and_then(Json::as_arr)
                    .unwrap_or(&[])
                    .iter()
                    .map(|b| {
                        Ok(BackendStats {
                            id: obj_u64(b, "id")?,
                            addr: obj_str(b, "addr")?,
                            up: obj_bool(b, "up")?,
                            capacity: obj_usize(b, "capacity", 0)?,
                            in_flight: obj_usize(b, "in_flight", 0)?,
                            jobs_routed: obj_u64_or(b, "jobs_routed", 0)?,
                            queue_depth: obj_usize(b, "queue_depth", 0)?,
                            busy: obj_usize(b, "busy", 0)?,
                            jobs_served: obj_u64_or(b, "jobs_served", 0)?,
                            cache_hits: obj_u64_or(b, "cache_hits", 0)?,
                            cache_misses: obj_u64_or(b, "cache_misses", 0)?,
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(Response::ClusterStats(ClusterStatsInfo {
                    uptime_secs: obj_u64_or(&value, "uptime_secs", 0)?,
                    jobs_routed: obj_u64_or(&value, "jobs_routed", 0)?,
                    jobs_retried: obj_u64_or(&value, "jobs_retried", 0)?,
                    affinity_hits: obj_u64_or(&value, "affinity_hits", 0)?,
                    affinity_fallbacks: obj_u64_or(&value, "affinity_fallbacks", 0)?,
                    backends,
                    health: obj_str(&value, "health").unwrap_or_default(),
                }))
            }
            "metrics" => Ok(Response::Metrics {
                text: obj_str(&value, "text")?,
            }),
            "metrics_history" => {
                let windows = value
                    .get("windows")
                    .and_then(Json::as_arr)
                    .unwrap_or(&[])
                    .iter()
                    .map(window_from_json)
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(Response::MetricsHistory {
                    at_ms: obj_u64_or(&value, "at_ms", 0)?,
                    windows,
                })
            }
            "prof_dump" => {
                let phases = value
                    .get("phases")
                    .and_then(Json::as_arr)
                    .unwrap_or(&[])
                    .iter()
                    .map(|p| {
                        Ok(PhaseStat {
                            path: obj_str(p, "path")?,
                            count: obj_u64_or(p, "count", 0)?,
                            total_us: obj_u64_or(p, "total_us", 0)?,
                            self_us: obj_u64_or(p, "self_us", 0)?,
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(Response::ProfDump { phases })
            }
            "trace_dump" => {
                let events = value
                    .get("events")
                    .and_then(Json::as_arr)
                    .unwrap_or(&[])
                    .iter()
                    .map(|e| {
                        Ok(TraceEvent {
                            trace_id: obj_u64_or(e, "trace_id", 0)?,
                            span: obj_str(e, "span")?,
                            start_us: obj_u64_or(e, "start_us", 0)?,
                            dur_us: obj_u64_or(e, "dur_us", 0)?,
                            detail: obj_str(e, "detail").unwrap_or_default(),
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(Response::TraceDump { events })
            }
            "shutting_down" => Ok(Response::ShuttingDown),
            "error" => Ok(Response::Error {
                message: obj_str(&value, "message")?,
            }),
            other => Err(format!("unknown response type: {other}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_back_to_back() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"first").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, "unicode 🦀".as_bytes()).unwrap();
        let mut reader = wire.as_slice();
        assert_eq!(read_frame(&mut reader).unwrap().unwrap(), b"first");
        assert_eq!(read_frame(&mut reader).unwrap().unwrap(), b"");
        assert_eq!(
            read_frame(&mut reader).unwrap().unwrap(),
            "unicode 🦀".as_bytes()
        );
        assert!(read_frame(&mut reader).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn truncated_frames_are_detected() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"payload").unwrap();
        // Cut inside the payload.
        let cut = &wire[..wire.len() - 3];
        assert!(matches!(read_frame(cut), Err(FrameError::Truncated)));
        // Cut inside the length prefix.
        assert!(matches!(read_frame(&wire[..2]), Err(FrameError::Truncated)));
    }

    #[test]
    fn oversized_frames_are_rejected_without_buffering() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_be_bytes());
        wire.extend_from_slice(b"whatever");
        assert!(matches!(
            read_frame(wire.as_slice()),
            Err(FrameError::Oversized(_))
        ));
        // The writer refuses to produce one in the first place.
        let huge = vec![0u8; MAX_FRAME_LEN + 1];
        assert!(write_frame(Vec::new(), &huge).is_err());
    }

    #[test]
    fn requests_round_trip() {
        let requests = [
            Request::Optimize(OptimizeRequest {
                circuit: "module m (a, o0);\n…".to_string(),
                format: Some(CircuitFormat::Verilog),
                flow: "compress".parse().expect("alias parses"),
                max_rounds: 25,
                output: CircuitFormat::Verilog,
                trace_id: 0xABCD,
            }),
            Request::Optimize(OptimizeRequest {
                circuit: "1 3\n1 2\n1 1\n\n2 1 0 1 2 AND\n".to_string(),
                flow: "mc(cut=5)*2;{xor};cleanup*".parse().expect("spec parses"),
                ..OptimizeRequest::default()
            }),
            Request::Optimize(OptimizeRequest::default()),
            Request::Status,
            Request::Stats,
            Request::Ping,
            Request::Register(RegisterInfo {
                addr: "127.0.0.1:4519".to_string(),
                capacity: 4,
                queue_capacity: 64,
                queue_depth: 2,
                busy: 1,
            }),
            Request::ClusterStats,
            Request::Metrics,
            Request::MetricsHistory,
            Request::ProfDump,
            Request::TraceDump { trace_id: None },
            Request::TraceDump { trace_id: Some(99) },
            Request::Shutdown,
        ];
        for req in requests {
            let payload = req.to_payload();
            assert_eq!(Request::from_payload(&payload).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let responses = [
            Response::Result(OptimizeResult {
                job_id: 7,
                cached: true,
                netlist: "1 3\n1 2\n1 1\n\n2 1 0 1 2 AND\n".to_string(),
                output: CircuitFormat::Bristol,
                ands_before: 3,
                xors_before: 4,
                ands_after: 1,
                xors_after: 7,
                depth_before: 2,
                depth_after: 1,
                rounds: 5,
                converged: true,
                millis: 12,
                trace_id: 0xFEED,
            }),
            Response::Status(StatusInfo {
                queue_depth: 1,
                queue_capacity: 64,
                workers: 4,
                busy: 2,
                running: vec![JobProgress {
                    job_id: 9,
                    trace_id: 0xFEED,
                    flow: "mc(cut=4);xor".to_string(),
                    pass: "mc".to_string(),
                    round: 3,
                    elapsed_ms: 250,
                }],
            }),
            Response::Stats(StatsInfo {
                uptime_secs: 42,
                jobs_served: 10,
                cache_hits: 4,
                cache_misses: 6,
                cache_evictions: 1,
                cache_entries: 5,
                cache_capacity: 128,
                queue_depth: 0,
                flows: vec![FlowTiming {
                    flow: "paper".to_string(),
                    jobs: 6,
                    total_millis: 120,
                }],
            }),
            Response::Pong,
            Response::ClusterStats(ClusterStatsInfo {
                uptime_secs: 17,
                jobs_routed: 40,
                jobs_retried: 2,
                affinity_hits: 35,
                affinity_fallbacks: 5,
                backends: vec![BackendStats {
                    id: 1,
                    addr: "127.0.0.1:4519".to_string(),
                    up: true,
                    capacity: 4,
                    in_flight: 1,
                    jobs_routed: 21,
                    queue_depth: 0,
                    busy: 1,
                    jobs_served: 20,
                    cache_hits: 9,
                    cache_misses: 12,
                }],
                health: "warn: p99_ms 420>400".to_string(),
            }),
            Response::Metrics {
                text: "jobs_total 3\nqueue_wait_us_p99 512\n".to_string(),
            },
            Response::MetricsHistory {
                at_ms: 1_700_000_000_123,
                windows: vec![
                    {
                        let mut w = HistoryWindow::empty(10);
                        w.span_ms = 10_000;
                        w.jobs = 20;
                        w.hits = 5;
                        w.misses = 15;
                        w.lat_count = 2;
                        w.lat_sum = 1_100;
                        w.lat_buckets[7] = 1;
                        w.lat_buckets[10] = 1;
                        w
                    },
                    HistoryWindow::empty(60),
                ],
            },
            Response::ProfDump {
                phases: vec![PhaseStat {
                    path: "pipeline;mc_rewrite;cut_enum".to_string(),
                    count: 12,
                    total_us: 3_400,
                    self_us: 1_234,
                }],
            },
            Response::TraceDump {
                events: vec![TraceEvent {
                    trace_id: 0xFEED,
                    span: "pass:mc".to_string(),
                    start_us: 1_700_000_000_000_000,
                    dur_us: 1500,
                    detail: "rewrites=2 cuts=64 ands=10->8".to_string(),
                }],
            },
            Response::ShuttingDown,
            Response::Error {
                message: "malformed bristol circuit: bad gate line".to_string(),
            },
        ];
        for resp in responses {
            let payload = resp.to_payload();
            assert_eq!(Response::from_payload(&payload).unwrap(), resp);
        }
    }

    #[test]
    fn malformed_payloads_are_errors() {
        assert!(Request::from_payload(b"\xff\xfe").is_err());
        assert!(Request::from_payload(b"{}").is_err());
        assert!(Request::from_payload(br#"{"type":"fly"}"#).is_err());
        assert!(
            Request::from_payload(br#"{"type":"optimize"}"#).is_err(),
            "no circuit"
        );
        assert!(
            Request::from_payload(br#"{"type":"optimize","circuit":"x","flow":"warp"}"#).is_err()
        );
        // Present-but-mistyped fields are rejected, not defaulted.
        assert!(Request::from_payload(br#"{"type":"optimize","circuit":"x","flow":2}"#).is_err());
        assert!(Request::from_payload(br#"{"type":"optimize","circuit":"x","output":1}"#).is_err());
        assert!(Response::from_payload(br#"{"type":"result"}"#).is_err());
    }

    /// New fields are optional on the wire: frames from pre-tracing
    /// peers parse with zero/empty defaults, and a zero trace ID is not
    /// even emitted.
    #[test]
    fn trace_fields_are_backward_compatible() {
        let req = Request::from_payload(br#"{"type":"optimize","circuit":"x"}"#).unwrap();
        match &req {
            Request::Optimize(o) => assert_eq!(o.trace_id, 0),
            other => panic!("unexpected request: {other:?}"),
        }
        assert!(
            !String::from_utf8(req.to_payload())
                .unwrap()
                .contains("trace_id"),
            "zero trace ID stays off the wire"
        );
        let resp = Response::from_payload(
            br#"{"type":"status","queue_depth":1,"queue_capacity":8,"workers":2,"busy":0}"#,
        )
        .unwrap();
        assert_eq!(
            resp,
            Response::Status(StatusInfo {
                queue_depth: 1,
                queue_capacity: 8,
                workers: 2,
                busy: 0,
                running: Vec::new(),
            })
        );
    }

    /// Frame-level violations are counted, not just stringified. Metric
    /// counters are process-global and tests run in parallel, so assert
    /// deltas, never absolute values.
    #[test]
    fn frame_warns_are_counted() {
        let reg = mc_obs::registry();
        let truncated = reg.counter("frame_truncated_total").get();
        let oversized = reg.counter("frame_oversized_total").get();
        let malformed = reg.counter("frame_malformed_total").get();

        let mut wire = Vec::new();
        write_frame(&mut wire, b"payload").unwrap();
        let _ = read_frame(&wire[..wire.len() - 2]);
        assert!(reg.counter("frame_truncated_total").get() > truncated);

        let mut huge = Vec::new();
        huge.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_be_bytes());
        let _ = read_frame(huge.as_slice());
        assert!(reg.counter("frame_oversized_total").get() > oversized);

        let _ = Request::from_payload(br#"{"type":"fly"}"#);
        assert!(reg.counter("frame_malformed_total").get() > malformed);
    }

    /// The resource guard fires during request parsing — a hostile spec
    /// is a structured protocol error naming the violated limit, and it
    /// never reaches a worker.
    #[test]
    fn hostile_flow_specs_are_protocol_errors() {
        let cases = [
            (
                r#"{"type":"optimize","circuit":"x","flow":"cleanup*9999999"}"#,
                "limit",
            ),
            (
                r#"{"type":"optimize","circuit":"x","flow":"{cleanup*1000}*1000"}"#,
                "budget",
            ),
            (
                r#"{"type":"optimize","circuit":"x","flow":"mc(cut=9)"}"#,
                "cut size",
            ),
            (r#"{"type":"optimize","circuit":"x","flow":""}"#, "empty"),
            // The grammar has no `par` unit any more; older clients get a
            // protocol error naming it.
            (
                r#"{"type":"optimize","circuit":"x","flow":"par(threads=2){mc}"}"#,
                "unknown pass atom `par`",
            ),
        ];
        for (payload, needle) in cases {
            let err = Request::from_payload(payload.as_bytes()).expect_err(payload);
            assert!(err.contains(needle), "{payload}: {err}");
        }
        // A well-formed custom spec passes and keeps its structure.
        let req = Request::from_payload(
            br#"{"type":"optimize","circuit":"x","flow":" mc( cut = 6 ) ; xor ; cleanup * "}"#,
        )
        .expect("valid spec");
        match req {
            Request::Optimize(o) => {
                assert_eq!(o.flow.to_string(), "mc(cut=6);xor;cleanup*");
            }
            other => panic!("unexpected request: {other:?}"),
        }
    }

    /// An `optimize` frame from a client that still sends the removed
    /// thread knob decodes to the request without it: the decoder ignores
    /// unknown members.
    #[test]
    fn a_leftover_threads_member_is_ignored() {
        let with = Request::from_payload(
            br#"{"type":"optimize","flow":"paper","threads":4,"max_rounds":25,"circuit":"x"}"#,
        )
        .expect("an unknown member is ignored");
        let without = Request::from_payload(
            br#"{"type":"optimize","flow":"paper","max_rounds":25,"circuit":"x"}"#,
        )
        .expect("valid request");
        assert_eq!(with, without);
    }

    /// The observability frames added after PR 8 degrade gracefully
    /// against older peers: `health` defaults to empty, windows and
    /// phases to nothing.
    #[test]
    fn history_and_health_fields_are_backward_compatible() {
        let resp = Response::from_payload(br#"{"type":"cluster_stats","jobs_routed":3}"#).unwrap();
        match &resp {
            Response::ClusterStats(c) => assert!(c.health.is_empty()),
            other => panic!("unexpected response: {other:?}"),
        }
        assert!(
            !String::from_utf8(resp.to_payload())
                .unwrap()
                .contains("health"),
            "empty health stays off the wire"
        );
        let resp = Response::from_payload(br#"{"type":"metrics_history"}"#).unwrap();
        assert_eq!(
            resp,
            Response::MetricsHistory {
                at_ms: 0,
                windows: Vec::new(),
            }
        );
        let resp = Response::from_payload(br#"{"type":"prof_dump"}"#).unwrap();
        assert_eq!(resp, Response::ProfDump { phases: Vec::new() });
        // A window from a peer with fewer (or no) buckets still parses.
        let resp = Response::from_payload(
            br#"{"type":"metrics_history","at_ms":5,"windows":[{"window_secs":10,"jobs":2}]}"#,
        )
        .unwrap();
        match resp {
            Response::MetricsHistory { windows, .. } => {
                assert_eq!(windows.len(), 1);
                assert_eq!(windows[0].jobs, 2);
                assert!(windows[0].lat_buckets.is_empty());
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }

    #[test]
    fn hit_rate_is_well_defined() {
        let mut stats = StatsInfo {
            uptime_secs: 0,
            jobs_served: 0,
            cache_hits: 0,
            cache_misses: 0,
            cache_evictions: 0,
            cache_entries: 0,
            cache_capacity: 8,
            queue_depth: 0,
            flows: Vec::new(),
        };
        assert_eq!(stats.hit_rate(), 0.0);
        stats.cache_hits = 3;
        stats.cache_misses = 1;
        assert!((stats.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn affinity_rate_is_well_defined() {
        let mut stats = ClusterStatsInfo {
            uptime_secs: 0,
            jobs_routed: 0,
            jobs_retried: 0,
            affinity_hits: 0,
            affinity_fallbacks: 0,
            backends: Vec::new(),
            health: String::new(),
        };
        assert_eq!(stats.affinity_rate(), 0.0);
        stats.affinity_hits = 9;
        stats.affinity_fallbacks = 3;
        assert!((stats.affinity_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn integers_past_2_pow_53_are_refused_as_out_of_range() {
        let range = "out-of-range field: trace_id (integers must be below 2^53)";
        let error = |payload: &str| Request::from_payload(payload.as_bytes()).unwrap_err();
        for ty in ["optimize", "trace_dump"] {
            let at = |id: &str| {
                let circuit = if ty == "optimize" {
                    r#","circuit":"x""#
                } else {
                    ""
                };
                format!(r#"{{"type":"{ty}"{circuit},"trace_id":{id}}}"#)
            };
            assert_eq!(error(&at("9007199254740992")), range, "{ty}: 2^53");
            assert_eq!(error(&at("18446744073709551615")), range, "{ty}: u64::MAX");
            assert_eq!(
                error(&at("1.5")),
                "non-integer field: trace_id",
                "{ty}: a fraction"
            );
            assert_eq!(
                error(&at("-1")),
                "non-integer field: trace_id",
                "{ty}: a negative"
            );
        }
        let below = Request::from_payload(br#"{"type":"trace_dump","trace_id":9007199254740991}"#);
        assert_eq!(
            below,
            Ok(Request::TraceDump {
                trace_id: Some(EXACT_INT_LIMIT - 1)
            })
        );
        let event = |id: &str| {
            let payload =
                format!(r#"{{"type":"trace_dump","events":[{{"trace_id":{id},"span":"s"}}]}}"#);
            Response::from_payload(payload.as_bytes())
        };
        assert_eq!(event("9007199254740992").unwrap_err(), range);
        assert_eq!(event("0.5").unwrap_err(), "non-integer field: trace_id");
    }

    #[test]
    fn register_requires_an_address() {
        assert!(
            Request::from_payload(br#"{"type":"register"}"#).is_err(),
            "no addr"
        );
        // Register defaults capacity and load but never the address.
        let r = Request::from_payload(br#"{"type":"register","addr":"127.0.0.1:1"}"#).unwrap();
        assert_eq!(
            r,
            Request::Register(RegisterInfo {
                addr: "127.0.0.1:1".to_string(),
                capacity: 1,
                queue_capacity: 0,
                queue_depth: 0,
                busy: 0,
            })
        );
    }
}
