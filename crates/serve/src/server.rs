//! The daemon: TCP listener, per-connection reader threads, worker pool,
//! and the shared state tying them to the queue and the cache.
//!
//! # Thread model
//!
//! * **Listener** — one thread running the frame endpoint's accept loop
//!   ([`crate::endpoint`], shared with the router); every accepted
//!   connection gets its own reader thread.
//! * **Connection readers** — read one frame at a time and answer it
//!   through this daemon's [`Dispatch`] implementation. Cheap requests
//!   (`status`, `stats`, cache hits) are answered inline. A request whose
//!   key is in flight waits for its answer; a first miss also becomes a
//!   job pushed onto the bounded queue — blocking there *is* the
//!   backpressure. Either way the reader then blocks on its waiter
//!   channel in the [`CoalescingCache`], the one path every answer
//!   arrives on, so each connection has at most one job in flight and
//!   responses stay ordered.
//! * **Workers** — `workers` threads popping jobs. Each worker owns one
//!   [`OptContext`] for its whole life and runs every job it pops with
//!   `xag_mc::run_job` on that context (so representatives synthesized
//!   for one client amortize across every later job on the worker), then
//!   commits both export formats to the cache, which wakes every waiter
//!   of the key. A job that panics fails only itself: the worker catches
//!   the panic, aborts the key with [`ERR_JOB_FAILED`], swaps in a fresh
//!   context and pops the next job.
//!
//! Shutdown (a `shutdown` request or [`ServerHandle::shutdown`]) sets the
//! flag and closes the queue: the listener stops accepting, workers drain
//! the queue and exit, blocked submitters get an error response, and
//! readers exit on the next EOF or request.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mc_obs::{Counter, Histogram, History, Sample};
use xag_circuits::{parse_circuit, CircuitFormat};
use xag_mc::{run_job, FlowSpec, JobSpec, OptContext};
use xag_network::{write_bristol, write_verilog, Xag};

use crate::cache::{job_key, CacheEntry};
use crate::coalesce::{CoalescingCache, Plan};
use crate::endpoint::{accept_loop, sliced_sleep, Dispatch};
use crate::protocol::{
    FlowTiming, OptimizeRequest, OptimizeResult, Request, Response, StatsInfo, StatusInfo,
    ERR_JOB_DROPPED, ERR_JOB_FAILED, ERR_SHUTTING_DOWN,
};
use crate::queue::{Closed, JobQueue};
use crate::sync::lock_unpoisoned;

/// Bound of the job queue: pushes beyond it block. `status` and the
/// cluster `register` frame report it as `queue_capacity`.
pub const QUEUE_CAPACITY: usize = 64;

/// Configuration of [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address; use port 0 for an ephemeral port (the bound
    /// address is reported by [`ServerHandle::local_addr`]).
    pub addr: String,
    /// Worker threads in the pool. Each worker holds its own
    /// [`OptContext`] for the daemon's life, so the memory of the
    /// classifier, synthesizer and database memos scales with this count.
    pub workers: usize,
    /// Bound of the semantic result cache (LRU).
    pub cache_capacity: usize,
    /// Address of an `mc-cluster` router to join: once listening, the
    /// daemon registers itself there, with its current load, every
    /// [`heartbeat_interval`](Self::heartbeat_interval) for as long as
    /// it runs. `None` (the default) serves stand-alone.
    pub join: Option<String>,
    /// The address to *announce* to the joined router. Defaults to the
    /// bound address, which is only correct for a concrete bind — a
    /// daemon bound to a wildcard (`0.0.0.0:…`) must set this to the
    /// address the router can actually reach it at.
    pub advertise: Option<String>,
    /// Interval between registrations with the joined router.
    pub heartbeat_interval: Duration,
    /// Interval between metric-history snapshots (the sampler thread).
    pub sample_interval: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2)
                .min(8),
            cache_capacity: 128,
            join: None,
            advertise: None,
            heartbeat_interval: Duration::from_millis(500),
            sample_interval: Duration::from_secs(1),
        }
    }
}

/// One queued optimization job. Its answer goes through the cache: the
/// worker commits or aborts `key`, which wakes every waiter of the key.
struct Job {
    id: u64,
    xag: Xag,
    spec: JobSpec,
    /// `spec.flow`, normalized once: the progress board, the `serve:run`
    /// span and the per-flow row all name the job's flow by it.
    flow: String,
    key: Vec<u8>,
    /// Trace ID the job runs under (request-supplied or server-assigned).
    trace_id: u64,
    /// When the job entered the queue; the worker's pop time minus this
    /// is the queue-wait latency.
    enqueued: Instant,
}

/// Bound on distinct per-flow statistics rows. Rows are keyed by
/// client-controlled normalized specs, and the spec space is huge — an
/// unbounded map would let a client grow server memory (and every
/// `stats` frame, which the cluster router polls) without limit. Flows
/// beyond the bound aggregate into [`FLOW_ROW_OTHER`].
const MAX_FLOW_ROWS: usize = 64;

/// Catch-all per-flow row once [`MAX_FLOW_ROWS`] distinct specs have
/// been seen. Cannot collide with a real row: normalized specs never
/// start with `(`.
const FLOW_ROW_OTHER: &str = "(other)";

/// Aggregate service counters (everything `stats` reports that the cache
/// does not already count).
#[derive(Debug)]
struct ServiceStats {
    jobs_served: u64,
    /// normalized flow spec → (jobs computed, total optimization
    /// millis); at most [`MAX_FLOW_ROWS`] spec rows plus the catch-all.
    per_flow: BTreeMap<String, (u64, u64)>,
}

impl ServiceStats {
    /// Starts with zero-filled rows for the canonical flows, keyed by
    /// their normalized specs: they keep the per-flow breakdown complete
    /// for the router and `serve_bench`, and they always satisfy the
    /// `contains_key` check in the worker loop, so custom-spec churn can
    /// never displace a canonical flow into the catch-all row.
    fn new() -> Self {
        Self {
            jobs_served: 0,
            per_flow: FlowSpec::aliases()
                .iter()
                .filter_map(|(alias, _)| FlowSpec::named(alias))
                .map(|spec| (spec.normalized(), (0, 0)))
                .collect(),
        }
    }
}

pub(crate) struct Shared {
    queue: JobQueue<Job>,
    /// The job-key map, pending or ready; internally locked — see
    /// [`CoalescingCache`].
    cache: CoalescingCache,
    stats: Mutex<ServiceStats>,
    /// This daemon's metric-history ring: its sampler feeds it, the
    /// `MetricsHistory` frame reads it.
    history: History,
    /// This daemon's errors and run latencies, for its ring alone. The
    /// process registry's `serve_errors_total` and `serve_run_us` record
    /// the same events for every daemon in the process, which is what the
    /// benchmark reads; a window read there would count co-resident
    /// daemons' jobs as this one's.
    errors: Counter,
    run_us: Histogram,
    pub(crate) shutdown: AtomicBool,
    busy: AtomicUsize,
    next_job_id: AtomicU64,
    pub(crate) workers: usize,
    started: Instant,
}

impl Shared {
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue.close();
    }

    pub(crate) fn status(&self) -> StatusInfo {
        StatusInfo {
            queue_depth: self.queue.len(),
            queue_capacity: QUEUE_CAPACITY,
            workers: self.workers,
            busy: self.busy.load(Ordering::Relaxed),
            running: mc_obs::progress_snapshot(),
        }
    }

    fn stats(&self) -> StatsInfo {
        let cache = self.cache.counters();
        let stats = lock_unpoisoned(&self.stats);
        StatsInfo {
            uptime_secs: self.started.elapsed().as_secs(),
            jobs_served: stats.jobs_served,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            cache_entries: cache.entries,
            cache_capacity: cache.capacity,
            queue_depth: self.queue.len(),
            // Rows are keyed by normalized spec, so alias and expansion
            // submissions aggregate into one row.
            flows: stats
                .per_flow
                .iter()
                .map(|(flow, &(jobs, total_millis))| FlowTiming {
                    flow: flow.clone(),
                    jobs,
                    total_millis,
                })
                .collect(),
        }
    }

    /// `metrics` against a daemon: the jobs and cache lookups `stats`
    /// reports, which the daemon alone counts, then the process registry.
    fn metrics_text(&self) -> String {
        let stats = self.stats();
        let mut text = format!(
            "serve_cache_hits_total {}\nserve_cache_misses_total {}\nserve_jobs_served_total {}\n",
            stats.cache_hits, stats.cache_misses, stats.jobs_served
        );
        text.push_str(&mc_obs::registry().render());
        text
    }

    /// One snapshot of this daemon's own counts for its history ring.
    fn sample(&self) -> Sample {
        let cache = self.cache.counters();
        Sample {
            at_ms: mc_obs::epoch_us() / 1000,
            jobs: lock_unpoisoned(&self.stats).jobs_served,
            hits: cache.hits,
            misses: cache.misses,
            retries: 0,
            errors: self.errors.get(),
            queue_depth: self.queue.len() as u64,
            busy: self.busy.load(Ordering::Relaxed) as u64,
            lat_count: self.run_us.count(),
            lat_sum: self.run_us.sum(),
            lat_buckets: self.run_us.bucket_counts(),
        }
    }
}

/// The daemon's entry point; see [`Server::bind`].
pub struct Server;

impl Server {
    /// Binds the listener, spawns the worker pool and the accept loop,
    /// and returns a handle to the running service.
    ///
    /// # Errors
    ///
    /// Propagates socket errors (bad address, port in use, …).
    pub fn bind(config: ServeConfig) -> std::io::Result<ServerHandle> {
        let addrs: Vec<SocketAddr> = config.addr.to_socket_addrs()?.collect();
        let listener = TcpListener::bind(&addrs[..])?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            queue: JobQueue::new(QUEUE_CAPACITY),
            cache: CoalescingCache::new(config.cache_capacity),
            stats: Mutex::new(ServiceStats::new()),
            history: History::default(),
            errors: Counter::new(),
            run_us: Histogram::new(),
            shutdown: AtomicBool::new(false),
            busy: AtomicUsize::new(0),
            next_job_id: AtomicU64::new(1),
            workers,
            started: Instant::now(),
        });

        let mut threads = Vec::with_capacity(workers + 2);
        for w in 0..workers {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("mc-serve-worker-{w}"))
                    .spawn(move || worker_loop(&shared))
                    // lint: allow(no-panic-in-request-path): bind-time startup; no client connection exists yet
                    .expect("spawn worker thread"),
            );
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("mc-serve-listener".to_string())
                    .spawn(move || accept_loop(listener, &shared, "mc-serve-conn"))
                    // lint: allow(no-panic-in-request-path): bind-time startup; no client connection exists yet
                    .expect("spawn listener thread"),
            );
        }
        if let Some(router) = config.join.clone() {
            let shared = Arc::clone(&shared);
            let interval = config.heartbeat_interval;
            let advertised = config
                .advertise
                .clone()
                .unwrap_or_else(|| local_addr.to_string());
            threads.push(
                std::thread::Builder::new()
                    .name("mc-serve-join".to_string())
                    .spawn(move || crate::join::join_loop(&shared, &router, &advertised, interval))
                    // lint: allow(no-panic-in-request-path): bind-time startup; no client connection exists yet
                    .expect("spawn join thread"),
            );
        }
        {
            let shared = Arc::clone(&shared);
            let interval = config.sample_interval;
            threads.push(
                std::thread::Builder::new()
                    .name("mc-serve-sampler".to_string())
                    .spawn(move || sampler_loop(&shared, interval))
                    // lint: allow(no-panic-in-request-path): bind-time startup; no client connection exists yet
                    .expect("spawn sampler thread"),
            );
        }

        Ok(ServerHandle {
            local_addr,
            joined: config.join,
            shared,
            threads,
        })
    }
}

/// A running daemon: its bound address and the means to stop it.
pub struct ServerHandle {
    local_addr: SocketAddr,
    joined: Option<String>,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the listener actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The router address this daemon registers with, when started with
    /// a `join` configuration.
    pub fn joined_router(&self) -> Option<&str> {
        self.joined.as_deref()
    }

    /// Blocks until the daemon stops (i.e. until a `shutdown` request
    /// arrives or [`ServerHandle::shutdown`] is called elsewhere).
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }

    /// Initiates shutdown and waits for the listener and workers to
    /// exit. In-queue jobs are drained first; connection readers exit on
    /// their next read.
    pub fn shutdown(self) {
        self.shared.begin_shutdown();
        self.join();
    }
}

/// The metrics sampler: every `interval`, push one cumulative snapshot
/// of this daemon's own counts into its history ring — the data behind
/// `MetricsHistory` and everything `mc-top` draws — and refresh the
/// occupancy gauges from it. Exits with the daemon.
fn sampler_loop(shared: &Arc<Shared>, interval: Duration) {
    let reg = mc_obs::registry();
    let queue_gauge = reg.gauge("serve_queue_depth");
    let busy_gauge = reg.gauge("serve_workers_busy");
    // Registered up front, so a scrape shows them before the first event.
    reg.counter("serve_errors_total");
    reg.histogram("serve_run_us");
    while !shared.shutdown.load(Ordering::SeqCst) {
        let sample = shared.sample();
        queue_gauge.set(sample.queue_depth);
        busy_gauge.set(sample.busy);
        shared.history.push(sample);
        sliced_sleep(&shared.shutdown, interval);
    }
}

impl Dispatch for Shared {
    fn shutdown_flag(&self) -> &AtomicBool {
        &self.shutdown
    }

    fn dispatch(&self, request: Request) -> Response {
        match request {
            Request::Status => Response::Status(self.status()),
            Request::Stats => Response::Stats(self.stats()),
            Request::Ping => Response::Pong,
            // Cluster-handshake frames are the router's business; a plain
            // backend names itself so a misdirected `--join` is obvious.
            Request::Register(_) | Request::ClusterStats => Response::Error {
                message: "not a cluster router (this is an mc-serve backend)".to_string(),
            },
            Request::Metrics => Response::Metrics {
                text: self.metrics_text(),
            },
            Request::MetricsHistory => Response::MetricsHistory {
                at_ms: mc_obs::epoch_us() / 1000,
                windows: self.history.standard_windows(),
            },
            Request::ProfDump => Response::ProfDump {
                phases: mc_obs::prof::snapshot(),
            },
            Request::TraceDump { trace_id } => Response::TraceDump {
                events: mc_obs::trace_dump(trace_id),
            },
            Request::Shutdown => {
                self.begin_shutdown();
                Response::ShuttingDown
            }
            Request::Optimize(req) => handle_optimize(self, req),
        }
    }
}

/// Counts one served job and answers it from `entry`.
fn serve_entry(
    shared: &Shared,
    entry: &CacheEntry,
    cached: bool,
    output: CircuitFormat,
    trace_id: u64,
) -> Response {
    lock_unpoisoned(&shared.stats).jobs_served += 1;
    let r = &entry.result;
    Response::Result(OptimizeResult {
        job_id: entry.job_id,
        cached,
        trace_id,
        netlist: match output {
            CircuitFormat::Bristol => entry.bristol.clone(),
            CircuitFormat::Verilog => entry.verilog.clone(),
        },
        output,
        ands_before: r.ands_before,
        xors_before: r.xors_before,
        ands_after: r.ands_after,
        xors_after: r.xors_after,
        depth_before: r.depth_before,
        depth_after: r.depth_after,
        rounds: r.rounds,
        converged: r.converged,
        millis: entry.millis(),
    })
}

/// An `optimize` failure: counted (the history window reads the count)
/// and answered as a protocol error.
fn optimize_error(shared: &Shared, message: String) -> Response {
    mc_obs::registry().counter("serve_errors_total").inc();
    shared.errors.inc();
    Response::Error { message }
}

fn handle_optimize(shared: &Shared, req: OptimizeRequest) -> Response {
    if shared.shutdown.load(Ordering::SeqCst) {
        return optimize_error(shared, ERR_SHUTTING_DOWN.to_string());
    }
    // A malformed upload is a protocol error, never a worker panic: the
    // parse happens here, behind `Result`, before anything is queued.
    let xag = match parse_circuit(&req.circuit, req.format) {
        Ok(xag) => xag,
        Err(e) => return optimize_error(shared, e.to_string()),
    };
    let spec = req.job_spec();
    let key = job_key(&xag, &spec.flow, spec.max_rounds);

    // The request's trace ID (a router forwarding a traced job) wins;
    // otherwise the job gets its own, so every optimize is traceable.
    let trace_id = if req.trace_id != 0 {
        req.trace_id
    } else {
        mc_obs::next_trace_id()
    };
    let _trace = mc_obs::trace_scope(trace_id);
    let lookup_start = Instant::now();

    // Atomic lookup-or-register in the coalescing cache: a hit answers
    // immediately; a key with an in-flight computation parks a waiter (a
    // coalesced hit); only a genuinely first miss queues a job.
    let (answer, cached) = match shared.cache.plan(&key) {
        Plan::Hit(entry) => {
            // The whole hit path is the locked lookup above — record it,
            // so "how fast is a warm job really" has an answer.
            mc_obs::registry()
                .histogram("serve_cache_hit_us")
                .record(lookup_start.elapsed().as_micros() as u64);
            mc_obs::instant("serve:cache_hit", format!("job={}", entry.job_id));
            return serve_entry(shared, &entry, true, req.output, trace_id);
        }
        Plan::Wait(answer) => (answer, true),
        Plan::Compute(answer) => {
            let job = Job {
                id: shared.next_job_id.fetch_add(1, Ordering::Relaxed),
                xag,
                flow: spec.flow.normalized(),
                spec,
                key,
                trace_id,
                enqueued: Instant::now(),
            };
            // This push blocking on a full queue is the backpressure path.
            if let Err(Closed(job)) = shared.queue.push(job) {
                // Release the key: every request coalesced onto it learns
                // that its job was dropped.
                shared.cache.abort(&job.key, ERR_JOB_DROPPED);
                return optimize_error(shared, ERR_SHUTTING_DOWN.to_string());
            }
            (answer, false)
        }
    };
    // Computed and coalesced answers arrive alike, from the worker's
    // commit or abort of the key; a sender dropped unsent means the
    // daemon went away under the job.
    match answer.recv().unwrap_or(Err(ERR_JOB_DROPPED)) {
        Ok(entry) => {
            if cached {
                mc_obs::registry()
                    .histogram("serve_coalesced_wait_us")
                    .record(lookup_start.elapsed().as_micros() as u64);
                mc_obs::instant("serve:coalesced_hit", format!("job={}", entry.job_id));
            }
            serve_entry(shared, &entry, cached, req.output, trace_id)
        }
        Err(reason) => optimize_error(shared, reason.to_string()),
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    // Occupancy gauges are set from the pool itself at every transition,
    // so `Metrics` is live even between sampler ticks.
    let queue_gauge = mc_obs::registry().gauge("serve_queue_depth");
    let busy_gauge = mc_obs::registry().gauge("serve_workers_busy");
    let mut ctx = OptContext::new();
    while let Some(mut job) = shared.queue.pop() {
        let busy = shared.busy.fetch_add(1, Ordering::Relaxed) + 1;
        busy_gauge.set(busy as u64);
        queue_gauge.set(shared.queue.len() as u64);
        // The job ran under the submitter's trace from here on: queue
        // wait, every pass boundary, and the serialize span all join one
        // timeline, and the progress board answers `Status` mid-run.
        let _trace = mc_obs::trace_scope(job.trace_id);
        let _progress = mc_obs::job_scope(job.id, job.trace_id, job.flow.clone());
        let wait_us = job.enqueued.elapsed().as_micros() as u64;
        mc_obs::registry()
            .histogram("serve_queue_wait_us")
            .record(wait_us);
        mc_obs::record(
            "serve:queue_wait",
            mc_obs::epoch_us().saturating_sub(wait_us),
            wait_us,
            format!("job={}", job.id),
        );
        // A panicking job fails only itself. Its context may have been
        // left mid-update, so the worker goes on with a fresh one.
        let computed = panic::catch_unwind(AssertUnwindSafe(|| {
            compute(&mut ctx, &shared.run_us, &mut job)
        }));
        let busy = shared.busy.fetch_sub(1, Ordering::Relaxed) - 1;
        busy_gauge.set(busy as u64);
        let Ok(entry) = computed else {
            mc_obs::instant("serve:job_failed", format!("job={}", job.id));
            ctx = OptContext::new();
            shared.cache.abort(&job.key, ERR_JOB_FAILED);
            continue;
        };
        {
            let mut stats = lock_unpoisoned(&shared.stats);
            let full = stats.per_flow.len() >= MAX_FLOW_ROWS;
            let row = if !full || stats.per_flow.contains_key(&job.flow) {
                job.flow
            } else {
                FLOW_ROW_OTHER.to_string()
            };
            let slot = stats.per_flow.entry(row).or_insert((0, 0));
            slot.0 += 1;
            slot.1 += entry.millis();
        }
        // The commit wakes the submitter and every request coalesced onto
        // this cold key (exactly one compute).
        shared.cache.commit(&job.key, entry);
    }
}

/// Runs one job on the worker's own context and serializes the answer,
/// recording the run time in `run_us` as well as the process registry.
/// What the context ran before changes how fast the answer comes, never
/// the answer: it memoizes only deterministic classification and synthesis.
fn compute(ctx: &mut OptContext, run_us: &Histogram, job: &mut Job) -> CacheEntry {
    #[cfg(test)]
    tests::poison_hook(&job.xag);
    let run_start = Instant::now();
    let result = {
        let mut run_span = mc_obs::span("serve:run");
        run_span.detail(format!("job={} flow={}", job.id, job.flow));
        run_job(&mut job.xag, ctx, &job.spec)
    };
    let run_elapsed_us = run_start.elapsed().as_micros() as u64;
    mc_obs::registry()
        .histogram("serve_run_us")
        .record(run_elapsed_us);
    run_us.record(run_elapsed_us);

    let serialize_start = Instant::now();
    let serialize_span = mc_obs::span("serve:serialize");
    let clean = job.xag.cleanup();
    let mut bristol = Vec::new();
    // lint: allow(no-panic-in-request-path): Vec<u8> sink; io::Write cannot fail in memory
    write_bristol(&clean, &mut bristol).expect("in-memory write cannot fail");
    let mut verilog = Vec::new();
    // lint: allow(no-panic-in-request-path): Vec<u8> sink; io::Write cannot fail in memory
    write_verilog(&clean, "optimized", &mut verilog).expect("in-memory write cannot fail");
    // The netlists live on in the cache: drop the writers' growth slack.
    bristol.shrink_to_fit();
    verilog.shrink_to_fit();
    drop(serialize_span);
    mc_obs::registry()
        .histogram("serve_serialize_us")
        .record(serialize_start.elapsed().as_micros() as u64);
    mc_obs::registry()
        .counter("serve_jobs_computed_total")
        .inc();
    CacheEntry {
        job_id: job.id,
        // lint: allow(no-panic-in-request-path): both writers emit ASCII only
        bristol: String::from_utf8(bristol).expect("bristol writer emits ASCII"),
        // lint: allow(no-panic-in-request-path): both writers emit ASCII only
        verilog: String::from_utf8(verilog).expect("verilog writer emits ASCII"),
        result,
    }
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc;

    use super::*;
    use crate::client::{Client, ClientError};

    /// Input count of the circuits `compute` panics on (`usize::MAX`:
    /// none). While a test holds the lock, every job waits at the hook.
    static POISON_INPUTS: Mutex<usize> = Mutex::new(usize::MAX);

    /// Runs at the top of `compute` in test builds only.
    pub(super) fn poison_hook(xag: &Xag) {
        let poison = *lock_unpoisoned(&POISON_INPUTS);
        if xag.num_inputs() == poison {
            panic!("poisoned job: {poison} inputs");
        }
    }

    /// A request for the AND of `inputs` fresh inputs.
    fn and_chain(inputs: usize) -> OptimizeRequest {
        let mut xag = Xag::new();
        let first = xag.input();
        let and = (1..inputs).fold(first, |acc, _| {
            let x = xag.input();
            xag.and(acc, x)
        });
        xag.output(and);
        let mut text = Vec::new();
        write_bristol(&xag, &mut text).expect("in-memory write");
        OptimizeRequest {
            circuit: String::from_utf8(text).expect("bristol is ASCII"),
            ..OptimizeRequest::default()
        }
    }

    /// Submits `request` on its own connection and thread, so that a hung
    /// answer fails the test instead of stalling it.
    fn submit(
        addr: SocketAddr,
        request: &OptimizeRequest,
    ) -> mpsc::Receiver<Result<OptimizeResult, ClientError>> {
        let (tx, rx) = mpsc::channel();
        let request = request.clone();
        std::thread::spawn(move || {
            let answer = Client::connect(addr)
                .map_err(ClientError::Io)
                .and_then(|mut client| client.optimize(request));
            let _ = tx.send(answer);
        });
        rx
    }

    fn failed(answer: &mpsc::Receiver<Result<OptimizeResult, ClientError>>) -> bool {
        match answer.recv_timeout(Duration::from_secs(60)) {
            Ok(Err(ClientError::Server(message))) => message == ERR_JOB_FAILED,
            Ok(other) => panic!("want {ERR_JOB_FAILED:?}, got {other:?}"),
            Err(e) => panic!("no answer within 60 s: {e}"),
        }
    }

    /// A job that panics answers `ERR_JOB_FAILED` to its submitter and to
    /// every request coalesced onto it, releases its key and its worker,
    /// and leaves the daemon serving.
    #[test]
    fn a_panicking_job_fails_only_itself() {
        const POISONED: usize = 13;
        let handle = Server::bind(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        })
        .expect("bind on an ephemeral port");
        let addr = handle.local_addr();
        let poisoned = and_chain(POISONED);
        let spec = poisoned.job_spec();
        let xag = parse_circuit(&poisoned.circuit, poisoned.format).expect("parse");
        let key = job_key(&xag, &spec.flow, spec.max_rounds);

        // Hold the one worker at the hook until a duplicate has coalesced
        // onto the poisoned job.
        let mut gate = lock_unpoisoned(&POISON_INPUTS);
        *gate = POISONED;
        let first = submit(addr, &poisoned);
        let duplicate = submit(addr, &poisoned);
        let deadline = Instant::now() + Duration::from_secs(60);
        while handle.shared.cache.waiters(&key) < 2 {
            assert!(Instant::now() < deadline, "the duplicate never coalesced");
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(gate);
        assert!(failed(&first), "the poisoned job fails");
        assert!(failed(&duplicate), "its coalesced duplicate fails with it");

        let mut client = Client::connect(addr).expect("connect");
        assert_eq!(client.status().expect("status").busy, 0);
        let stats = client.stats().expect("stats");
        assert_eq!((stats.cache_misses, stats.cache_hits), (1, 0));

        // The worker survived, and the key was released: a normal job
        // computes, and the poisoned circuit fails again instead of
        // waiting forever.
        let normal = submit(addr, &and_chain(3))
            .recv_timeout(Duration::from_secs(60))
            .expect("answered")
            .expect("a normal job computes");
        assert!(!normal.cached);
        assert!(failed(&submit(addr, &poisoned)), "the resubmission fails");

        *lock_unpoisoned(&POISON_INPUTS) = usize::MAX;
        client.shutdown().expect("shutdown");
        handle.join();
    }
}
