//! The `serve_mix` and `cluster_mix` workloads: the service path.
//!
//! Many small jobs, so the per-job costs (framing, parse, `job_key`,
//! queue, context fork/absorb, serialize) are a large share and the
//! cycle check a tiny one. About half the requests are new circuits —
//! fuzz networks of varied size and XOR ratio, plus the Table-1 reduced
//! rows — and half resubmit an earlier circuit re-serialized in the
//! other format (Bristol ↔ Verilog), so a hit pays parse, canonical key
//! and lookup, not byte equality. Two closed-loop clients take their
//! next request from one shared sequence, like `mc-client` callers that
//! each wait for their reply.
//!
//! A run is a series of rounds. Each round sets up from scratch (inputs,
//! bind, registration, connections, warm-up), then times the stream.
//! Every round replays the same seeded sequence, so rounds are repeated
//! trials and each run holds several setups. The host-speed kernel runs
//! before each round's daemons start and after they have shut down, never
//! next to a live program thread.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use mc_cluster::{Router, RouterConfig, RouterHandle};
use mc_rng::Rng;
use mc_serve::{
    Client, ClusterStatsInfo, OptimizeRequest, OptimizeResult, ServeConfig, Server, ServerHandle,
    StatsInfo,
};
use xag_circuits::epfl::{epfl_suite, Scale};
use xag_circuits::{parse_circuit, CircuitFormat};
use xag_mc::{job_key, FlowSpec};
use xag_network::fuzz::{random_xag, FuzzConfig};
use xag_network::{write_bristol, write_verilog, Xag};

use crate::report::{self, Outcome};
use crate::spans::{SpanId, Tracer};
use crate::{calibrate, checks, phases, stats, Opts};

/// Which tier the clients talk to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// One `mc-serve` daemon on `ServeConfig` defaults.
    Serve,
    /// An `mc-cluster` router (affine policy, defaults) over two
    /// one-worker daemons.
    Cluster,
}

/// Closed-loop client connections.
const CLIENTS: usize = 2;
/// Fuzz-network shapes; the warm-up set and the stream hold the same
/// number of networks of each shape.
const GATES: [usize; 4] = [30, 60, 120, 240];
const INPUTS: [usize; 4] = [6, 8, 12, 16];
const XOR_RATIOS: [f64; 3] = [0.25, 0.5, 0.75];
const SHAPES: usize = GATES.len() * INPUTS.len() * XOR_RATIOS.len();
/// Warm-up circuits that fill the representative database before timing:
/// one network of each shape.
const WARMUP: usize = SHAPES;
/// New fuzz networks per stream (the 19 Table-1 rows come on top).
const NEW_FUZZ: usize = 3 * SHAPES;
/// A resubmission repeats an original at least this many originals back,
/// so most resubmissions find their answer already computed.
const RESUBMIT_LAG: usize = 4;
/// Cache bound far above any round's distinct keys, so the number of
/// computed jobs is exact.
const CACHE_CAPACITY: usize = 1 << 16;
/// Backends behind the router; with one worker each they give as many
/// compute threads as `serve_mix`'s daemon on a two-core host.
const BACKENDS: usize = 2;

/// Seed of the fuzz-network population. The circuits themselves are
/// fixed: drawn per workload seed, a few heavy networks moved the work
/// per stream by more than 10% from seed to seed. The workload seed
/// draws the sequence instead — order, formats, flow spellings and which
/// circuits are resubmitted.
const POPULATION_SEED: u64 = 0x00DA_C019;

/// Two spellings of the `paper` flow. The client renders an alias as its
/// expansion, so the second spelling carries an explicit `*1` that
/// survives on the wire and normalizes away in the daemon.
const FLOW_SPELLINGS: [&str; 2] = ["paper", "{mc(cut=4)*1;mc(cut=6)}*"];

/// One request of the sequence.
struct Request {
    /// Index of the circuit among the round's distinct circuits.
    circuit: usize,
    text: String,
    format: CircuitFormat,
    flow: FlowSpec,
}

struct Inputs {
    warmup: Vec<Request>,
    stream: Vec<Request>,
}

fn serialize(xag: &Xag, format: CircuitFormat, tracer: &Tracer) -> String {
    let mut out = Vec::new();
    tracer
        .time("network.write", None, 0, || match format {
            CircuitFormat::Bristol => write_bristol(xag, &mut out),
            CircuitFormat::Verilog => write_verilog(xag, "bench", &mut out),
        })
        .expect("writing to memory cannot fail");
    String::from_utf8(out).expect("both writers emit ASCII")
}

/// `count` seeded fuzz networks, cycling through every shape in turn.
fn fuzz_networks(rng: &mut Rng, count: usize) -> Vec<Xag> {
    (0..count)
        .map(|i| {
            let config = FuzzConfig {
                gates: GATES[i % GATES.len()],
                inputs: INPUTS[i / GATES.len() % INPUTS.len()],
                xor_ratio: XOR_RATIOS[i / (GATES.len() * INPUTS.len()) % XOR_RATIOS.len()],
                ..FuzzConfig::default()
            };
            random_xag(&config, rng.next_u64())
        })
        .collect()
}

fn other(format: CircuitFormat) -> CircuitFormat {
    match format {
        CircuitFormat::Bristol => CircuitFormat::Verilog,
        CircuitFormat::Verilog => CircuitFormat::Bristol,
    }
}

/// The warm-up set and the seeded request sequence.
fn generate(seed: u64, tracer: &Tracer) -> Inputs {
    let mut population = Rng::seed_from_u64(POPULATION_SEED);
    let mut rng = Rng::seed_from_u64(seed);
    let flow = |rng: &mut Rng| {
        FLOW_SPELLINGS[rng.gen_range(0..FLOW_SPELLINGS.len())]
            .parse::<FlowSpec>()
            .expect("both spellings parse")
    };
    let warmup: Vec<Request> = fuzz_networks(&mut population, WARMUP)
        .iter()
        .enumerate()
        .map(|(circuit, xag)| Request {
            circuit,
            text: serialize(xag, CircuitFormat::Bristol, tracer),
            format: CircuitFormat::Bristol,
            flow: flow(&mut rng),
        })
        .collect();

    // The Table-1 rows are the longest jobs. They sit at evenly spaced
    // places in the first three quarters of the originals, in seeded
    // order, so no seed ends a stream on one long job with the other
    // client idle.
    let mut originals = fuzz_networks(&mut population, NEW_FUZZ);
    rng.shuffle(&mut originals);
    let mut rows: Vec<Xag> = epfl_suite(Scale::Reduced)
        .into_iter()
        .map(|b| b.xag)
        .collect();
    rng.shuffle(&mut rows);
    let spacing = 3 * (NEW_FUZZ + rows.len()) / (4 * rows.len());
    for (k, row) in rows.into_iter().enumerate() {
        originals.insert(k * spacing, row);
    }
    let mut stream = Vec::with_capacity(2 * originals.len());
    let mut sent: Vec<(usize, CircuitFormat, String)> = Vec::new();
    for xag in &originals {
        let circuit = WARMUP + sent.len();
        let format = if rng.gen_bool(0.5) {
            CircuitFormat::Bristol
        } else {
            CircuitFormat::Verilog
        };
        let text = serialize(xag, format, tracer);
        let resubmission = serialize(xag, other(format), tracer);
        stream.push(Request {
            circuit,
            text,
            format,
            flow: flow(&mut rng),
        });
        sent.push((circuit, other(format), resubmission));
        if sent.len() > RESUBMIT_LAG {
            let (circuit, format, text) = &sent[rng.gen_range(0..sent.len() - RESUBMIT_LAG)];
            stream.push(Request {
                circuit: *circuit,
                text: text.clone(),
                format: *format,
                flow: flow(&mut rng),
            });
        }
    }
    Inputs { warmup, stream }
}

/// The daemon(s) of one round.
enum Deployment {
    Serve(ServerHandle),
    Cluster {
        router: RouterHandle,
        backends: Vec<ServerHandle>,
    },
}

impl Deployment {
    /// Binds the tier and, for the cluster, polls `cluster_stats` until
    /// every backend has registered. Returns the address clients use.
    fn start(tier: Tier) -> (Deployment, SocketAddr) {
        let serve = ServeConfig {
            cache_capacity: CACHE_CAPACITY,
            ..ServeConfig::default()
        };
        match tier {
            Tier::Serve => {
                let handle = Server::bind(serve).expect("bind the daemon");
                let addr = handle.local_addr();
                (Deployment::Serve(handle), addr)
            }
            Tier::Cluster => {
                let router = Router::bind(RouterConfig::default()).expect("bind the router");
                let addr = router.local_addr();
                let backends = (0..BACKENDS)
                    .map(|_| {
                        Server::bind(ServeConfig {
                            workers: 1,
                            join: Some(addr.to_string()),
                            ..serve.clone()
                        })
                        .expect("bind a backend")
                    })
                    .collect();
                let mut probe = Client::connect(addr).expect("connect to the router");
                while probe
                    .cluster_stats()
                    .expect("cluster_stats")
                    .backends
                    .iter()
                    .filter(|b| b.up)
                    .count()
                    < BACKENDS
                {
                    std::thread::yield_now();
                }
                (Deployment::Cluster { router, backends }, addr)
            }
        }
    }

    fn shutdown(self) {
        match self {
            Deployment::Serve(handle) => handle.shutdown(),
            Deployment::Cluster { router, backends } => {
                router.shutdown();
                for backend in backends {
                    backend.shutdown();
                }
            }
        }
    }
}

/// Compute threads serving requests.
fn workers(tier: Tier) -> usize {
    match tier {
        Tier::Serve => ServeConfig::default().workers,
        Tier::Cluster => BACKENDS,
    }
}

/// Threads a stream keeps busy: the closed-loop clients have at most
/// [`CLIENTS`] jobs in flight, however many workers serve them.
fn busy_threads(workers: usize) -> usize {
    workers.min(CLIENTS)
}

/// One answered (or failed) request, timed from the client.
struct Record {
    index: usize,
    sent_ns: u64,
    recv_ns: u64,
    result: Result<OptimizeResult, String>,
}

/// Sends `requests` through `clients`, each taking the next request of
/// the shared sequence as soon as its previous reply arrived.
fn send_all(
    clients: &mut [Client],
    requests: &[Request],
    trace_base: u64,
    tracer: &Tracer,
    parent: SpanId,
) -> Vec<Record> {
    let next = AtomicUsize::new(0);
    let origin = Instant::now();
    std::thread::scope(|s| {
        let workers: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let next = &next;
                s.spawn(move || {
                    let mut records = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::SeqCst);
                        let Some(request) = requests.get(index) else {
                            break;
                        };
                        let trace_id = trace_base + index as u64 + 1;
                        let optimize = OptimizeRequest {
                            circuit: request.text.clone(),
                            format: Some(request.format),
                            flow: request.flow.clone(),
                            trace_id,
                            ..OptimizeRequest::default()
                        };
                        let sent_ns = origin.elapsed().as_nanos() as u64;
                        let span = tracer.open("client.request", parent, trace_id);
                        let result = client.optimize(optimize).map_err(|e| e.to_string());
                        tracer.close(span);
                        records.push(Record {
                            index,
                            sent_ns,
                            recv_ns: origin.elapsed().as_nanos() as u64,
                            result,
                        });
                    }
                    records
                })
            })
            .collect();
        let mut all: Vec<Record> = workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread panicked"))
            .collect();
        all.sort_by_key(|r| r.index);
        all
    })
}

/// Client-side timing of one answer, for coalescing classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Timing {
    /// Distinct job key the request maps to.
    key: usize,
    sent_ns: u64,
    recv_ns: u64,
    cached: bool,
}

/// Marks each cached answer that was a coalesced wait: it was sent while
/// the request that computed its key was still in flight, so it waited
/// for that computation instead of finding a finished cache entry.
fn coalesced(timings: &[Timing]) -> Vec<bool> {
    let mut computed_at: HashMap<usize, u64> = HashMap::new();
    for t in timings.iter().filter(|t| !t.cached) {
        computed_at.insert(t.key, t.recv_ns);
    }
    timings
        .iter()
        .map(|t| {
            t.cached
                && computed_at
                    .get(&t.key)
                    .is_some_and(|&done| t.sent_ns < done)
        })
        .collect()
}

/// What one round measured.
struct Round {
    setup_s: f64,
    stream_s: f64,
    /// Host slowdowns measured before the daemons started and after they
    /// shut down.
    slowdowns: [f64; 2],
    /// Peak RSS of the process up to the end of the round's stream.
    peak_rss_mb: f64,
    records: Vec<Record>,
    stats: StatsInfo,
    cluster: Option<ClusterStatsInfo>,
    delta: phases::Snapshot,
}

fn run_round(
    tier: Tier,
    opts: &Opts,
    tracer: &Tracer,
    round: usize,
    setup_start: Instant,
) -> (Round, Inputs) {
    let inputs = generate(opts.seed, tracer);
    let generated_s = setup_start.elapsed().as_secs_f64();
    let threads = busy_threads(workers(tier));
    let slowdown_before = calibrate::slowdown(threads);
    let deploy_start = Instant::now();
    let (deployment, addr) = Deployment::start(tier);
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|_| Client::connect(addr).expect("connect a client"))
        .collect();
    let mut control = Client::connect(addr).expect("connect the control client");
    // Every request of the run carries its own trace id.
    let trace_base = (round as u64 + 1) << 32;
    let warm = send_all(
        &mut clients,
        &inputs.warmup,
        trace_base,
        &Tracer::new(false),
        None,
    );
    assert!(
        warm.iter().all(|r| r.result.is_ok()),
        "warm-up request failed: {:?}",
        warm.iter().find_map(|r| r.result.as_ref().err())
    );
    let setup_s = generated_s + deploy_start.elapsed().as_secs_f64();

    let before = phases::Snapshot::take();
    let trace_base = trace_base + WARMUP as u64;
    let span = tracer.open("stream", None, 0);
    let start = Instant::now();
    let records = send_all(&mut clients, &inputs.stream, trace_base, tracer, span);
    let stream_s = start.elapsed().as_secs_f64();
    // Later rounds inherit the allocator state earlier rounds left, so
    // only the first round's peak is comparable from run to run.
    let peak_rss_mb = crate::peak_rss_mb();
    tracer.close(span);
    let delta = phases::Snapshot::take().since(&before);

    let stats = control.stats().expect("stats");
    let cluster = (tier == Tier::Cluster).then(|| control.cluster_stats().expect("cluster_stats"));
    drop(clients);
    drop(control);
    deployment.shutdown();
    let slowdowns = [slowdown_before, calibrate::slowdown(threads)];
    (
        Round {
            setup_s,
            stream_s,
            slowdowns,
            peak_rss_mb,
            records,
            stats,
            cluster,
            delta,
        },
        inputs,
    )
}

pub fn run(tier: Tier, opts: &Opts, tracer: &Tracer, process_start: Instant) -> Outcome {
    let mut rounds: Vec<Round> = Vec::new();
    let mut timed = 0.0;
    let mut setup_start = process_start;
    let inputs = loop {
        let (round, inputs) = run_round(tier, opts, tracer, rounds.len(), setup_start);
        timed += round.stream_s;
        rounds.push(round);
        if timed >= opts.seconds {
            break inputs;
        }
        setup_start = Instant::now();
    };
    let slowdowns: Vec<f64> = rounds.iter().flat_map(|r| r.slowdowns).collect();

    // Distinct job keys, computed by the benchmark itself.
    let mut keys: HashMap<Vec<u8>, usize> = HashMap::new();
    let mut key_of = |request: &Request| {
        let xag = tracer
            .time("circuits.parse", None, 0, || {
                parse_circuit(&request.text, Some(request.format))
            })
            .expect("the benchmark's own circuit text parses");
        let key = tracer.time("core.job_key", None, 0, || {
            job_key(&xag, &request.flow, OptimizeRequest::default().max_rounds)
        });
        let next = keys.len();
        (*keys.entry(key).or_insert(next), xag)
    };
    for request in &inputs.warmup {
        key_of(request);
    }
    let stream: Vec<(usize, Xag)> = inputs.stream.iter().map(&mut key_of).collect();
    let distinct = keys.len() as u64;

    let mut outcome = Outcome {
        setup_slowdowns: slowdowns.clone(),
        slowdowns,
        ..Outcome::default()
    };
    let mut miss_ms = Vec::new();
    let mut hit_ms = Vec::new();
    let mut all_ms = Vec::new();
    let mut mc = Vec::new();
    let mut depth = Vec::new();
    let mut computed_rounds = 0usize;
    let mut coalesced_waits = 0usize;
    let mut verdicts: HashMap<(usize, &str), bool> = HashMap::new();
    let mut round_miss_p50_ms = Vec::new();
    for (r, round) in rounds.iter().enumerate() {
        let round_misses = miss_ms.len();
        let timings: Vec<Timing> = round
            .records
            .iter()
            .map(|rec| Timing {
                key: stream[rec.index].0,
                sent_ns: rec.sent_ns,
                recv_ns: rec.recv_ns,
                cached: rec.result.as_ref().is_ok_and(|a| a.cached),
            })
            .collect();
        let waits = coalesced(&timings);
        let mut computed: HashMap<usize, &str> = HashMap::new();
        for rec in &round.records {
            if let Ok(answer) = &rec.result {
                if !answer.cached {
                    computed.insert(stream[rec.index].0, &answer.netlist);
                }
            }
        }
        for (rec, wait) in round.records.iter().zip(waits) {
            outcome.attempted += 1;
            let answer = match &rec.result {
                Ok(answer) => answer,
                Err(e) => {
                    outcome.failed += 1;
                    outcome
                        .problems
                        .push(format!("round {r} request {}: {e}", rec.index));
                    continue;
                }
            };
            let (key, input) = &stream[rec.index];
            let circuit = inputs.stream[rec.index].circuit;
            let equivalent = *verdicts
                .entry((circuit, answer.netlist.as_str()))
                .or_insert_with(|| {
                    tracer.time("network.equiv", None, 0, || {
                        checks::equivalent(input, answer.netlist.as_bytes(), opts.seed)
                    })
                });
            // A cached answer must repeat the computed answer for its key.
            let consistent = !answer.cached
                || computed
                    .get(key)
                    .is_none_or(|netlist| *netlist == answer.netlist);
            if !(equivalent && consistent) {
                outcome.failed += 1;
                continue;
            }
            let ms = (rec.recv_ns - rec.sent_ns) as f64 / 1e6;
            all_ms.push(ms);
            if !answer.cached {
                miss_ms.push(ms);
                computed_rounds += answer.rounds;
                // Quality counts each distinct circuit once: a cached
                // answer repeats a computed one, and every round computes
                // the same jobs again. Counting one round keeps the ratios
                // bit-identical whatever the number of rounds.
                if r == 0 {
                    mc.push((answer.ands_before, answer.ands_after));
                    depth.push((answer.depth_before, answer.depth_after));
                }
            } else if wait {
                coalesced_waits += 1;
            } else {
                hit_ms.push(ms);
            }
        }
        round_miss_p50_ms.push(stats::median(&miss_ms[round_misses..]).unwrap_or(0.0));
        if round.stats.cache_misses != distinct {
            outcome.problems.push(format!(
                "round {r}: the daemon computed {} jobs for {distinct} distinct keys",
                round.stats.cache_misses
            ));
        }
    }

    let n = rounds.len() as f64;
    let setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    let streams: Vec<f64> = rounds.iter().map(|r| r.stream_s).collect();
    let answered: usize = rounds
        .iter()
        .map(|r| r.records.iter().filter(|rec| rec.result.is_ok()).count())
        .sum();
    let values = &mut outcome.values;
    values.set(
        "setup_s",
        stats::median(&setups).expect("one round at least"),
    );
    values.set(
        "flow_s",
        stats::median(&streams).expect("one round at least"),
    );
    values.set("jobs_per_s", answered as f64 / streams.iter().sum::<f64>());
    let miss_p50 = stats::median(&miss_ms).unwrap_or(0.0);
    values.set("miss_p50_ms", miss_p50);
    values.set("mc_ratio", stats::geomean_ratio(&mc).unwrap_or(0.0));
    values.set("depth_ratio", stats::geomean_ratio(&depth).unwrap_or(0.0));
    values.set("peak_rss_mb", rounds[0].peak_rss_mb);

    let miss_p90 = stats::tail(&miss_ms, 0.9);
    let hit_p50 = stats::median(&hit_ms).unwrap_or(0.0);
    outcome.meta("rounds", rounds.len());
    outcome.meta("setup_s_per_round", report::listed(&setups));
    outcome.meta("stream_s_per_round", report::listed(&streams));
    outcome.meta("miss_p50_ms_per_round", report::listed(&round_miss_p50_ms));
    outcome.meta("requests_per_round", inputs.stream.len());
    outcome.meta("distinct_keys_per_round", distinct);
    outcome.meta("daemon_workers", workers(tier));
    outcome.meta("kernel_threads", busy_threads(workers(tier)));
    outcome.meta("miss_p50_samples", miss_ms.len());
    outcome.meta("hit_p50_ms", hit_p50);
    outcome.meta("hit_p50_samples", hit_ms.len());
    outcome.meta("coalesced_waits", coalesced_waits);
    match miss_p90 {
        Some(t) => {
            outcome.meta("miss_p90_ms", t.value);
            outcome.meta("miss_p90_samples", t.samples);
            outcome.meta("miss_p90_beyond", t.beyond);
        }
        None => outcome.meta("miss_p90_ms", "unreported: fewer than 10 misses beyond p90"),
    }

    if tracer.on() {
        let mut delta = phases::Snapshot::default();
        for round in &rounds {
            delta.add(&round.delta);
        }
        let mean_ms = |name: &str| stats::mean(&tracer.self_times_s(name)) * 1e3;
        let values = &mut outcome.values;
        values.set("circuits.parse_ms", mean_ms("circuits.parse"));
        values.set("network.write_ms", mean_ms("network.write"));
        values.set(
            "network.equiv_s",
            tracer.self_times_s("network.equiv").iter().sum::<f64>(),
        );
        for name in phases::REPLAY_ONLY {
            values.set(name, 0.0);
        }
        values.set(
            "core.run_job_s",
            delta.histogram_sum("serve_run_us") as f64 / 1e6 / n,
        );
        delta.set_core_values(values, n);
        values.set("core.rounds", computed_rounds as f64 / n);
        values.set("core.job_key_ms", mean_ms("core.job_key"));
        let run_ms = delta.histogram_mean("serve_run_us") / 1e3;
        values.set(
            "serve.queue_wait_ms",
            delta.histogram_mean("serve_queue_wait_us") / 1e3,
        );
        values.set("serve.run_ms", run_ms);
        values.set(
            "serve.serialize_ms",
            delta.histogram_mean("serve_serialize_us") / 1e3,
        );
        values.set("serve.miss_overhead_ms", stats::mean(&miss_ms) - run_ms);
        values.set(
            "serve.hit_lookup_us",
            delta.histogram_mean("serve_cache_hit_us"),
        );
        let (hits, misses) = rounds.iter().fold((0, 0), |(h, m), r| {
            (h + r.stats.cache_hits, m + r.stats.cache_misses)
        });
        values.set("serve.misses", misses as f64 / n);
        values.set(
            "serve.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        values.set(
            "serve.coalesced",
            delta.histogram_count("serve_coalesced_wait_us") as f64 / n,
        );
        values.set(
            "serve.errors",
            delta.counter("serve_errors_total") as f64 / n,
        );
        values.set("client.hit_p50_ms", hit_p50);
        values.set("client.miss_p90_ms", miss_p90.map_or(0.0, |t| t.value));
        let clusters: Vec<&ClusterStatsInfo> =
            rounds.iter().filter_map(|r| r.cluster.as_ref()).collect();
        let dispatch_ms = delta.histogram_mean("cluster_dispatch_us") / 1e3;
        let per_round =
            |f: &dyn Fn(&ClusterStatsInfo) -> f64| clusters.iter().map(|c| f(c)).sum::<f64>() / n;
        if clusters.is_empty() {
            for name in [
                "cluster.dispatch_ms",
                "cluster.edge_ms",
                "cluster.affinity_ratio",
                "cluster.load_skew",
                "cluster.retries",
            ] {
                values.set(name, 0.0);
            }
        } else {
            values.set("cluster.dispatch_ms", dispatch_ms);
            values.set("cluster.edge_ms", stats::mean(&all_ms) - dispatch_ms);
            values.set("cluster.affinity_ratio", per_round(&|c| c.affinity_rate()));
            values.set(
                "cluster.load_skew",
                per_round(&|c| {
                    let misses = c.backends.iter().map(|b| b.cache_misses);
                    let max = misses.clone().max().unwrap_or(0);
                    max as f64 / misses.min().unwrap_or(0).max(1) as f64
                }),
            );
            values.set("cluster.retries", per_round(&|c| c.jobs_retried as f64));
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(key: usize, sent_ns: u64, recv_ns: u64, cached: bool) -> Timing {
        Timing {
            key,
            sent_ns,
            recv_ns,
            cached,
        }
    }

    #[test]
    fn a_hit_sent_before_its_computation_returned_is_a_coalesced_wait() {
        let timings = [
            t(0, 0, 100, false),  // computes key 0
            t(0, 50, 101, true),  // sent while key 0 was in flight
            t(0, 120, 125, true), // sent after: a plain hit
            t(1, 10, 20, true),   // key computed before the stream: a hit
            t(1, 30, 40, true),
        ];
        assert_eq!(coalesced(&timings), vec![false, true, false, false, false]);
    }

    #[test]
    fn the_computing_request_may_be_sent_after_the_waiter() {
        // The other client's resubmission reached the daemon first and
        // computed; the original, sent earlier, waited on it.
        let timings = [t(3, 0, 90, true), t(3, 5, 88, false)];
        assert_eq!(coalesced(&timings), vec![true, false]);
    }

    #[test]
    fn the_kernel_runs_on_as_many_threads_as_the_clients_keep_busy() {
        // A four-worker daemon still has at most two jobs in flight.
        assert_eq!(busy_threads(4), CLIENTS);
        assert_eq!(busy_threads(2), 2);
        assert_eq!(busy_threads(1), 1);
    }

    #[test]
    fn generated_stream_is_seeded_and_half_resubmissions() {
        let tracer = Tracer::new(false);
        let a = generate(11, &tracer);
        let b = generate(11, &tracer);
        let c = generate(12, &tracer);
        let texts = |i: &Inputs| i.stream.iter().map(|r| r.text.clone()).collect::<Vec<_>>();
        assert_eq!(texts(&a), texts(&b));
        assert_ne!(texts(&a), texts(&c));
        assert_eq!(a.warmup.len(), WARMUP);
        let originals = NEW_FUZZ + 19;
        assert_eq!(a.stream.len(), 2 * originals - RESUBMIT_LAG);
        // Every resubmission names an earlier circuit in the other format.
        let mut first: HashMap<usize, CircuitFormat> = HashMap::new();
        for request in &a.stream {
            match first.get(&request.circuit) {
                Some(&format) => assert_eq!(request.format, other(format)),
                None => {
                    first.insert(request.circuit, request.format);
                }
            }
        }
        assert_eq!(first.len(), originals);
    }
}
