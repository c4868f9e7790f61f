//! The `mc-cluster` router: one frame-protocol endpoint in front of N
//! `mc-serve` backends.
//!
//! # Drop-in contract
//!
//! Clients speak to the router exactly as they would to a single
//! backend — same frames, same semantics (`mc-client` pointed at the
//! router just works). Backends additionally speak one membership
//! frame, `register`, which each resends every heartbeat interval with
//! its current load; the router answers it with `pong`.
//!
//! # Routing
//!
//! For every `optimize` the router parses the circuit (a malformed
//! upload is refused here and never consumes a backend slot) and
//! computes the **same canonical job key** the backend's semantic cache
//! will compute — `xag_mc::canon::job_key`, hoisted into the core crate
//! precisely so the two tiers agree bit for bit. The key's fingerprint
//! is consistent-hashed onto the backend ring: isomorphic resubmissions
//! land on the backend that already has the answer cached. The affine
//! target is bypassed only when it is down or saturated (then:
//! least-loaded fallback, counted in `affinity_fallbacks`).
//!
//! The key is computed **once, at the router** — backends recompute it
//! for their local cache, but no coordination is needed: canonicalization
//! is deterministic, so agreement is structural, not negotiated.
//!
//! # Failover
//!
//! A dispatch that fails at the transport level (connect refused,
//! connection died mid-job) marks the backend down immediately, and the
//! job is retried on the next backend in ring order — safe because
//! `optimize` is idempotent (same key, same result; at worst a surviving
//! backend recomputes what the dead one never delivered). A backend
//! that answers "shutting down" is treated the same way. Any other error
//! answer — a failed job included — is the job's own and goes to the
//! client, and the backend stays up. A job tries at
//! most four distinct backends (three retries) before the client sees an
//! error. The bound matters: every failed dispatch marks its backend
//! down, so it caps how many backends one failing job can take out.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mc_obs::{History, HistoryWindow, PhaseStat};
use mc_serve::client::Client;
use mc_serve::endpoint::{accept_loop, sliced_sleep, Dispatch};
use mc_serve::protocol::{
    BackendStats, ClusterStatsInfo, FlowTiming, OptimizeRequest, Request, Response, StatsInfo,
    StatusInfo, ERR_JOB_DROPPED, ERR_SHUTTING_DOWN,
};
use mc_serve::sync::lock_unpoisoned;
use mc_serve::TraceEvent;
use xag_circuits::parse_circuit;
use xag_mc::canon::{fingerprint, job_key};

use crate::health::{health_loop, poll_addr};
use crate::registry::{Backend, Choice, Registry};
use crate::slo::{SloMachine, SloState, SloThresholds};

/// Distinct extra backends a failed dispatch is retried on.
const RETRY_LIMIT: usize = 3;

/// Configuration of [`Router::bind`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Listen address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Pause between health-check rounds.
    pub health_interval: Duration,
    /// Consecutive failed pings before a backend is marked down.
    pub miss_threshold: u32,
    /// Metrics-history sampling interval of the router's own counters.
    pub sample_interval: Duration,
    /// SLO thresholds, evaluated on every sampler tick right after its
    /// snapshot; when empty nothing is evaluated and `cluster_stats`
    /// reports no health summary.
    pub slo: SloThresholds,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            health_interval: Duration::from_millis(500),
            miss_threshold: 3,
            sample_interval: Duration::from_secs(1),
            slo: SloThresholds::default(),
        }
    }
}

struct RouterShared {
    registry: Registry,
    shutdown: AtomicBool,
    started: Instant,
    jobs_routed: AtomicU64,
    jobs_retried: AtomicU64,
    affinity_hits: AtomicU64,
    affinity_fallbacks: AtomicU64,
    /// Idle pooled connections per backend; a warm connection saves the
    /// connect round trip on every affine re-dispatch.
    pool: Mutex<HashMap<u64, Vec<Client>>>,
    stats_poll_timeout: Duration,
    /// The router's own metric-history ring (routing counters and
    /// dispatch latency), read by the SLO watchdog.
    history: History,
    /// The SLO watchdog's current verdict for `cluster_stats`: empty
    /// when no SLO is configured, else `ok` / `warn: …` / `breach: …`.
    health: Mutex<String>,
}

/// Per-backend pooled-connection bound; beyond it connections are
/// dropped rather than parked.
const POOL_PER_BACKEND: usize = 8;

impl RouterShared {
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    fn pool_take(&self, id: u64) -> Option<Client> {
        lock_unpoisoned(&self.pool).get_mut(&id).and_then(Vec::pop)
    }

    fn pool_put(&self, id: u64, client: Client) {
        let mut pool = lock_unpoisoned(&self.pool);
        let slot = pool.entry(id).or_default();
        if slot.len() < POOL_PER_BACKEND {
            slot.push(client);
        }
    }

    fn pool_drop(&self, id: u64) {
        lock_unpoisoned(&self.pool).remove(&id);
    }
}

/// The router daemon's entry point; see [`Router::bind`].
pub struct Router;

impl Router {
    /// Binds the listener, spawns the health checker and the accept
    /// loop, and returns a handle to the running router.
    ///
    /// # Errors
    ///
    /// Propagates socket errors (bad address, port in use, …).
    pub fn bind(config: RouterConfig) -> std::io::Result<RouterHandle> {
        let addrs: Vec<SocketAddr> = config.addr.to_socket_addrs()?.collect();
        let listener = TcpListener::bind(&addrs[..])?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let shared = Arc::new(RouterShared {
            registry: Registry::new(),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            jobs_routed: AtomicU64::new(0),
            jobs_retried: AtomicU64::new(0),
            affinity_hits: AtomicU64::new(0),
            affinity_fallbacks: AtomicU64::new(0),
            pool: Mutex::new(HashMap::new()),
            stats_poll_timeout: Duration::from_secs(2),
            history: History::default(),
            health: Mutex::new(if config.slo.is_empty() {
                String::new()
            } else {
                SloState::Ok.as_str().to_string()
            }),
        });

        let mut threads = Vec::with_capacity(3);
        {
            let shared = Arc::clone(&shared);
            let config = config.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("mc-cluster-health".to_string())
                    .spawn(move || {
                        // Downed or evicted backends take their pooled
                        // connections with them.
                        let on_down = |id: u64| shared.pool_drop(id);
                        health_loop(&shared.registry, &shared.shutdown, &config, &on_down);
                    })
                    // lint: allow(no-panic-in-request-path): bind-time startup; no client connection exists yet
                    .expect("spawn health thread"),
            );
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("mc-cluster-listener".to_string())
                    .spawn(move || accept_loop(listener, &shared, "mc-cluster-conn"))
                    // lint: allow(no-panic-in-request-path): bind-time startup; no client connection exists yet
                    .expect("spawn listener thread"),
            );
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("mc-cluster-sampler".to_string())
                    .spawn(move || sampler_loop(&shared, config.sample_interval, &config.slo))
                    // lint: allow(no-panic-in-request-path): bind-time startup; no client connection exists yet
                    .expect("spawn sampler thread"),
            );
        }

        Ok(RouterHandle {
            local_addr,
            shared,
            threads,
        })
    }
}

/// A running router: its bound address and the means to stop it.
pub struct RouterHandle {
    local_addr: SocketAddr,
    shared: Arc<RouterShared>,
    threads: Vec<JoinHandle<()>>,
}

impl RouterHandle {
    /// The address the listener actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Blocks until the router stops.
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }

    /// Initiates shutdown and waits for the listener and the health
    /// checker to exit. Backends are left running — the router owns
    /// routing, not backend lifecycles.
    pub fn shutdown(self) {
        self.shared.begin_shutdown();
        self.join();
    }
}

impl Dispatch for RouterShared {
    fn shutdown_flag(&self) -> &AtomicBool {
        &self.shutdown
    }

    fn dispatch(&self, request: Request) -> Response {
        match request {
            Request::Ping => Response::Pong,
            Request::Register(r) => {
                self.registry.register(&r);
                Response::Pong
            }
            Request::Status => Response::Status(aggregate_status(self)),
            Request::Stats => Response::Stats(aggregate_stats(self)),
            Request::ClusterStats => Response::ClusterStats(cluster_stats(self)),
            Request::Metrics => Response::Metrics {
                text: cluster_metrics(self),
            },
            Request::MetricsHistory => Response::MetricsHistory {
                at_ms: mc_obs::epoch_us() / 1000,
                windows: cluster_history(self),
            },
            Request::ProfDump => Response::ProfDump {
                phases: cluster_prof(self),
            },
            Request::TraceDump { trace_id } => Response::TraceDump {
                events: cluster_trace_dump(self, trace_id),
            },
            Request::Shutdown => {
                self.begin_shutdown();
                Response::ShuttingDown
            }
            Request::Optimize(req) => route_optimize(self, req),
        }
    }
}

/// One dispatch attempt's outcome.
enum Forward {
    /// The backend answered; pass it to the client.
    Reply(Response),
    /// The backend is unusable for this job; fail over.
    Retry,
}

fn is_shutdown_error(message: &str) -> bool {
    // Exact matches against the protocol's stable shutdown messages —
    // shared constants, so the serve tier cannot reword them without
    // this check following.
    message == ERR_SHUTTING_DOWN || message == ERR_JOB_DROPPED
}

/// Sends the job to one backend, reusing a pooled connection when
/// available (one reconnect attempt covers stale pool entries).
fn forward(shared: &RouterShared, choice: &Choice, req: &OptimizeRequest) -> Forward {
    let request = Request::Optimize(req.clone());
    let mut fresh = false;
    let mut client = match shared.pool_take(choice.id) {
        Some(client) => client,
        None => {
            fresh = true;
            match Client::connect(&choice.addr) {
                Ok(client) => client,
                Err(_) => return Forward::Retry,
            }
        }
    };
    loop {
        match client.request(&request) {
            Ok(Response::Result(r)) => {
                shared.pool_put(choice.id, client);
                return Forward::Reply(Response::Result(r));
            }
            Ok(Response::Error { message }) if is_shutdown_error(&message) => {
                return Forward::Retry;
            }
            Ok(Response::Error { message }) => {
                // A live backend rejected the job for a job-level reason;
                // retrying elsewhere would just repeat it.
                shared.pool_put(choice.id, client);
                return Forward::Reply(Response::Error { message });
            }
            Ok(_) => return Forward::Retry,
            Err(_) if !fresh => {
                // The pooled connection was stale; one fresh connection
                // distinguishes "idle connection aged out" from "backend
                // is gone".
                fresh = true;
                match Client::connect(&choice.addr) {
                    Ok(c) => {
                        client = c;
                        continue;
                    }
                    Err(_) => return Forward::Retry,
                }
            }
            Err(_) => return Forward::Retry,
        }
    }
}

/// Builds a client-facing error response, counting it in
/// `cluster_errors_total` so the history windows and the SLO error rate
/// see every refusal the router produced.
fn router_error(message: String) -> Response {
    mc_obs::registry().counter("cluster_errors_total").inc();
    Response::Error { message }
}

fn route_optimize(shared: &RouterShared, mut req: OptimizeRequest) -> Response {
    if shared.shutdown.load(Ordering::SeqCst) {
        return router_error("router is shutting down".to_string());
    }
    // The trace is born at the cluster edge: assign an ID unless the
    // client brought one, and forward it in the frame, so router dispatch
    // and backend queue/pass events line up under one trace.
    if req.trace_id == 0 {
        req.trace_id = mc_obs::next_trace_id();
    }
    let _trace = mc_obs::trace_scope(req.trace_id);
    // Parse here: a malformed upload is a protocol error at the edge and
    // never consumes a backend dispatch.
    let xag = match parse_circuit(&req.circuit, req.format) {
        Ok(xag) => xag,
        Err(e) => return router_error(e.to_string()),
    };
    // The backend derives its key from the same clamped spec. The flow
    // contributes its *normalized* spec (the typed request was already
    // parse-validated at this edge), so alias/whitespace/`par{}` variants
    // of one flow hash to the same warm backend.
    let spec = req.job_spec();
    let hash = fingerprint(&job_key(&xag, &spec.flow, spec.max_rounds));

    let mut excluded: Vec<u64> = Vec::new();
    for _attempt in 0..=RETRY_LIMIT {
        let Some(choice) = shared.registry.choose(hash, &excluded) else {
            return router_error("no live backend in the cluster".to_string());
        };
        if choice.affine {
            shared.affinity_hits.fetch_add(1, Ordering::Relaxed);
            mc_obs::registry()
                .counter("cluster_affinity_hits_total")
                .inc();
        } else {
            shared.affinity_fallbacks.fetch_add(1, Ordering::Relaxed);
            mc_obs::registry()
                .counter("cluster_affinity_fallbacks_total")
                .inc();
        }
        shared.registry.begin_dispatch(choice.id);
        let dispatch_start = Instant::now();
        let mut dispatch_span = mc_obs::span("cluster:dispatch");
        dispatch_span.detail(format!(
            "backend={} affine={} attempt={}",
            choice.addr,
            choice.affine,
            excluded.len() + 1
        ));
        let outcome = forward(shared, &choice, &req);
        drop(dispatch_span);
        mc_obs::registry()
            .histogram("cluster_dispatch_us")
            .record(dispatch_start.elapsed().as_micros() as u64);
        shared.registry.end_dispatch(choice.id);
        match outcome {
            Forward::Reply(response) => {
                shared.jobs_routed.fetch_add(1, Ordering::Relaxed);
                mc_obs::registry()
                    .counter("cluster_jobs_routed_total")
                    .inc();
                if matches!(response, Response::Error { .. }) {
                    mc_obs::registry().counter("cluster_errors_total").inc();
                }
                return response;
            }
            Forward::Retry => {
                // First-hand failure: down it now; the health loop will
                // notice recovery later.
                shared.registry.mark_down(choice.id);
                shared.pool_drop(choice.id);
                shared.jobs_retried.fetch_add(1, Ordering::Relaxed);
                let reg = mc_obs::registry();
                reg.counter("cluster_dispatch_retries_total").inc();
                reg.counter(&format!(
                    "cluster_failovers_total{{backend=\"{}\"}}",
                    choice.addr
                ))
                .inc();
                mc_obs::instant(
                    "cluster:failover",
                    format!("backend={} marked down, retrying", choice.addr),
                );
                excluded.push(choice.id);
            }
        }
    }
    router_error(format!(
        "job failed on {} backend(s); no further retry",
        excluded.len()
    ))
}

/// Polls every *up* backend's `stats` concurrently (a wedged backend
/// costs one timeout, not one timeout per backend) and returns each
/// registry row paired with its poll result (`None` for down or
/// unresponsive backends).
fn poll_all_stats(shared: &RouterShared) -> Vec<(Backend, Option<StatsInfo>)> {
    poll_up_backends(shared, &Request::Stats)
        .into_iter()
        .map(|(b, polled)| match polled {
            Some(Response::Stats(stats)) => (b, Some(stats)),
            _ => (b, None),
        })
        .collect()
}

/// `status` against a router: the occupancy each up backend last
/// reported with its registration, summed — no live polling, so it is
/// always fast.
fn aggregate_status(shared: &RouterShared) -> StatusInfo {
    let mut status = StatusInfo {
        queue_depth: 0,
        queue_capacity: 0,
        workers: 0,
        busy: 0,
        // Per-job progress lives on the backends; the router's status
        // reads only reported load so it never blocks on a poll.
        running: Vec::new(),
    };
    for b in shared.registry.snapshot() {
        if b.up {
            status.queue_depth += b.queue_depth;
            status.queue_capacity += b.queue_capacity;
            status.workers += b.capacity;
            status.busy += b.busy;
        }
    }
    status
}

/// `stats` against a router: live-polled backend counters summed, so
/// `mc-client --stats` shows cluster-wide cache behavior unchanged.
fn aggregate_stats(shared: &RouterShared) -> StatsInfo {
    let mut total = StatsInfo {
        uptime_secs: shared.started.elapsed().as_secs(),
        jobs_served: 0,
        cache_hits: 0,
        cache_misses: 0,
        cache_evictions: 0,
        cache_entries: 0,
        cache_capacity: 0,
        queue_depth: 0,
        flows: Vec::new(),
    };
    let mut flows: std::collections::BTreeMap<String, (u64, u64)> =
        std::collections::BTreeMap::new();
    for (_, polled) in poll_all_stats(shared) {
        let Some(s) = polled else {
            continue;
        };
        total.jobs_served += s.jobs_served;
        total.cache_hits += s.cache_hits;
        total.cache_misses += s.cache_misses;
        total.cache_evictions += s.cache_evictions;
        total.cache_entries += s.cache_entries;
        total.cache_capacity += s.cache_capacity;
        total.queue_depth += s.queue_depth;
        for t in s.flows {
            let slot = flows.entry(t.flow).or_insert((0, 0));
            slot.0 += t.jobs;
            slot.1 += t.total_millis;
        }
    }
    total.flows = flows
        .into_iter()
        .map(|(flow, (jobs, total_millis))| FlowTiming {
            flow,
            jobs,
            total_millis,
        })
        .collect();
    total
}

/// Polls every *up* backend with `request` concurrently and returns the
/// registry rows paired with whatever each backend answered (`None` for
/// down or unresponsive ones).
fn poll_up_backends(shared: &RouterShared, request: &Request) -> Vec<(Backend, Option<Response>)> {
    let snapshot = shared.registry.snapshot();
    std::thread::scope(|s| {
        let polls: Vec<_> = snapshot
            .iter()
            .map(|b| {
                let addr = b.addr.clone();
                let up = b.up;
                let timeout = shared.stats_poll_timeout;
                s.spawn(move || {
                    if !up {
                        return None;
                    }
                    poll_addr(&addr, request, timeout)
                })
            })
            .collect();
        snapshot
            .into_iter()
            .zip(polls)
            // A panicked poll thread degrades to "backend unpolled" instead
            // of taking the connection thread (and its client) down.
            .map(|(b, poll)| (b, poll.join().unwrap_or_default()))
            .collect()
    })
}

/// `metrics` against a router: the router's own registry first, then one
/// section per backend headed by a comment line keying it — cluster-wide
/// scrape in one round trip, no backend left unlabeled.
fn cluster_metrics(shared: &RouterShared) -> String {
    let mut text = String::from("# router\n");
    text.push_str(&mc_obs::registry().render());
    for (b, polled) in poll_up_backends(shared, &Request::Metrics) {
        use core::fmt::Write as _;
        let _ = writeln!(text, "# backend id={} addr={} up={}", b.id, b.addr, b.up);
        if let Some(Response::Metrics { text: section }) = polled {
            text.push_str(&section);
        }
    }
    text
}

/// `trace-dump` against a router: the router's own events merged with
/// every live backend's onto one wall-clock timeline (all tiers stamp
/// microseconds since the epoch, so a plain sort aligns them).
fn cluster_trace_dump(shared: &RouterShared, trace_id: Option<u64>) -> Vec<TraceEvent> {
    let mut events = mc_obs::trace_dump(trace_id);
    for (_, polled) in poll_up_backends(shared, &Request::TraceDump { trace_id }) {
        if let Some(Response::TraceDump { events: more }) = polled {
            events.extend(more);
        }
    }
    events.sort_by_key(|e| (e.start_us, e.dur_us));
    events
}

/// `metrics-history` against a router: every up backend's windows merged
/// per window length. The merge is *exact* — windows carry raw counter
/// deltas and per-bucket histogram deltas, both of which add — so the
/// cluster window equals what one process observing every backend would
/// have computed. The router's own windows are deliberately left out:
/// every routed job is also a served job on some backend, and merging
/// both tiers would double-count the cluster's throughput.
fn cluster_history(shared: &RouterShared) -> Vec<HistoryWindow> {
    let mut merged: Vec<HistoryWindow> = mc_obs::WINDOWS_SECS
        .iter()
        .map(|&w| HistoryWindow::empty(w))
        .collect();
    for (_, polled) in poll_up_backends(shared, &Request::MetricsHistory) {
        if let Some(Response::MetricsHistory { windows, .. }) = polled {
            for w in windows {
                if let Some(slot) = merged.iter_mut().find(|m| m.window_secs == w.window_secs) {
                    slot.merge(&w);
                }
            }
        }
    }
    merged
}

/// `prof-dump` against a router: the router's own phase profile (usually
/// empty — the router runs no passes) merged with every up backend's,
/// summing by path.
fn cluster_prof(shared: &RouterShared) -> Vec<PhaseStat> {
    let mut by_path: std::collections::BTreeMap<String, PhaseStat> = mc_obs::prof::snapshot()
        .into_iter()
        .map(|p| (p.path.clone(), p))
        .collect();
    for (_, polled) in poll_up_backends(shared, &Request::ProfDump) {
        if let Some(Response::ProfDump { phases }) = polled {
            for p in phases {
                by_path
                    .entry(p.path.clone())
                    .and_modify(|slot| {
                        slot.count += p.count;
                        slot.total_us += p.total_us;
                        slot.self_us += p.self_us;
                    })
                    .or_insert(p);
            }
        }
    }
    by_path.into_values().collect()
}

/// The router's own history sampler: snapshots the routing counters and
/// dispatch-latency histogram into the router's ring every `interval`,
/// keeps the cluster occupancy gauges (queue depth and busy workers
/// summed over up backends, as last reported) current and, when
/// `thresholds` are set, runs the SLO watchdog right after each snapshot
/// ([`slo_tick`]). This local history backs the watchdog alone; the
/// `metrics-history` frame serves the backend merge instead (see
/// [`cluster_history`]).
fn sampler_loop(shared: &RouterShared, interval: Duration, thresholds: &SloThresholds) {
    let reg = mc_obs::registry();
    let mut slo = (!thresholds.is_empty()).then(|| {
        let state_gauge = reg.gauge("slo_state");
        state_gauge.set(SloState::Ok.severity());
        (SloMachine::new(), state_gauge)
    });
    let queue_gauge = reg.gauge("cluster_queue_depth");
    let busy_gauge = reg.gauge("cluster_workers_busy");
    let source = mc_obs::HistorySource {
        jobs: reg.counter("cluster_jobs_routed_total"),
        hits: reg.counter("cluster_affinity_hits_total"),
        misses: reg.counter("cluster_affinity_fallbacks_total"),
        retries: reg.counter("cluster_dispatch_retries_total"),
        errors: reg.counter("cluster_errors_total"),
        queue_depth: Arc::clone(&queue_gauge),
        busy: Arc::clone(&busy_gauge),
        latency: reg.histogram("cluster_dispatch_us"),
    };
    while !shared.shutdown.load(Ordering::SeqCst) {
        let (mut queue, mut busy) = (0u64, 0u64);
        for b in shared.registry.snapshot() {
            if b.up {
                queue += b.queue_depth as u64;
                busy += b.busy as u64;
            }
        }
        queue_gauge.set(queue);
        busy_gauge.set(busy);
        shared
            .history
            .push(source.sample(mc_obs::epoch_us() / 1000));
        if let Some((machine, state_gauge)) = &mut slo {
            slo_tick(shared, thresholds, machine, state_gauge);
        }
        sliced_sleep(&shared.shutdown, interval);
    }
}

/// One tick of the SLO watchdog: derives the observed rates from the
/// 10-second windows — p99 dispatch latency and error rate from the
/// router's own history (they measure what *clients* experience,
/// including failover), cache hit-rate from the merged backend windows
/// (the router has no cache) — and feeds the verdict to the hysteresis
/// machine. Transitions move the `slo_state` gauge, count in
/// `slo_transitions_total`, leave an instant trace event, and rewrite
/// the health summary `cluster_stats` reports.
fn slo_tick(
    shared: &RouterShared,
    thresholds: &SloThresholds,
    machine: &mut SloMachine,
    state_gauge: &mc_obs::Gauge,
) {
    let local = shared
        .history
        .standard_windows()
        .into_iter()
        .find(|w| w.window_secs == 10)
        .unwrap_or_else(|| HistoryWindow::empty(10));
    let p99_us = (local.lat_count > 0).then(|| local.p99_us());
    let error_rate = (local.jobs + local.errors > 0).then(|| local.error_rate());
    let hit_rate = if thresholds.hit_rate.is_some() {
        cluster_history(shared)
            .into_iter()
            .find(|w| w.window_secs == 10)
            .filter(|w| w.hits + w.misses > 0)
            .map(|w| w.hit_rate())
    } else {
        None
    };
    let violations = thresholds.violations(p99_us, hit_rate, error_rate);
    let detail = violations.join(", ");
    if let Some((from, to)) = machine.tick(!violations.is_empty()) {
        state_gauge.set(to.severity());
        mc_obs::registry()
            .counter(&format!(
                "slo_transitions_total{{state=\"{}\"}}",
                to.as_str()
            ))
            .inc();
        mc_obs::instant(
            "slo:transition",
            format!("{} -> {}: {}", from.as_str(), to.as_str(), detail),
        );
    }
    let summary = match machine.state() {
        SloState::Ok => SloState::Ok.as_str().to_string(),
        state if detail.is_empty() => format!("{}: recovering", state.as_str()),
        state => format!("{}: {detail}", state.as_str()),
    };
    *lock_unpoisoned(&shared.health) = summary;
}

fn cluster_stats(shared: &RouterShared) -> ClusterStatsInfo {
    let backends = poll_all_stats(shared)
        .into_iter()
        .map(|(b, polled)| {
            // Live cache counters only from live backends; a down backend
            // reports registry state with zeroed poll fields.
            let (jobs_served, cache_hits, cache_misses) = polled
                .map(|s| (s.jobs_served, s.cache_hits, s.cache_misses))
                .unwrap_or_default();
            BackendStats {
                id: b.id,
                addr: b.addr,
                up: b.up,
                capacity: b.capacity,
                in_flight: b.in_flight,
                jobs_routed: b.jobs_routed,
                queue_depth: b.queue_depth,
                busy: b.busy,
                jobs_served,
                cache_hits,
                cache_misses,
            }
        })
        .collect();
    ClusterStatsInfo {
        uptime_secs: shared.started.elapsed().as_secs(),
        jobs_routed: shared.jobs_routed.load(Ordering::Relaxed),
        jobs_retried: shared.jobs_retried.load(Ordering::Relaxed),
        affinity_hits: shared.affinity_hits.load(Ordering::Relaxed),
        affinity_fallbacks: shared.affinity_fallbacks.load(Ordering::Relaxed),
        health: lock_unpoisoned(&shared.health).clone(),
        backends,
    }
}

#[cfg(test)]
mod tests {
    use mc_serve::protocol::{RegisterInfo, ERR_JOB_FAILED};
    use mc_serve::ClientError;
    use xag_network::{write_bristol, Xag};

    use super::*;

    #[test]
    fn only_shutdown_errors_fail_over() {
        assert!(is_shutdown_error(ERR_SHUTTING_DOWN));
        assert!(is_shutdown_error(ERR_JOB_DROPPED));
        assert!(!is_shutdown_error(ERR_JOB_FAILED));
    }

    /// A backend on which every job fails, and which is otherwise healthy.
    struct FailingBackend {
        shutdown: AtomicBool,
    }

    impl Dispatch for FailingBackend {
        fn shutdown_flag(&self) -> &AtomicBool {
            &self.shutdown
        }

        fn dispatch(&self, request: Request) -> Response {
            match request {
                Request::Optimize(_) => Response::Error {
                    message: ERR_JOB_FAILED.to_string(),
                },
                _ => Response::Pong,
            }
        }
    }

    /// A failed job is the job's fault, not the backend's: the router
    /// passes the error to its client, retries nothing and keeps the
    /// backend up.
    #[test]
    fn a_failed_job_reaches_the_client_and_keeps_its_backend_up() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind the backend");
        let backend_addr = listener.local_addr().expect("backend address");
        listener.set_nonblocking(true).expect("non-blocking accept");
        let backend = Arc::new(FailingBackend {
            shutdown: AtomicBool::new(false),
        });
        let accept = {
            let backend = Arc::clone(&backend);
            std::thread::spawn(move || accept_loop(listener, &backend, "failing-backend"))
        };
        let router = Router::bind(RouterConfig::default()).expect("bind the router");
        let id = router.shared.registry.register(&RegisterInfo {
            addr: backend_addr.to_string(),
            capacity: 1,
            queue_capacity: 64,
            queue_depth: 0,
            busy: 0,
        });

        let mut xag = Xag::new();
        let (a, b) = (xag.input(), xag.input());
        let g = xag.and(a, b);
        xag.output(g);
        let mut text = Vec::new();
        write_bristol(&xag, &mut text).expect("in-memory write");
        let err = Client::connect(router.local_addr())
            .expect("connect")
            .optimize(OptimizeRequest {
                circuit: String::from_utf8(text).expect("bristol is ASCII"),
                ..OptimizeRequest::default()
            })
            .expect_err("every job fails on this backend");
        assert!(
            matches!(&err, ClientError::Server(message) if message == ERR_JOB_FAILED),
            "{err}"
        );
        assert_eq!(router.shared.jobs_retried.load(Ordering::Relaxed), 0);
        let backends = router.shared.registry.snapshot();
        assert!(
            backends.iter().any(|b| b.id == id && b.up),
            "the backend stays up: {backends:?}"
        );

        router.shutdown();
        backend.shutdown.store(true, Ordering::SeqCst);
        accept.join().expect("backend accept loop");
    }
}
