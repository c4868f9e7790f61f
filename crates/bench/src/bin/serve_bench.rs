//! Load benchmark for the `mc-serve` daemon: N concurrent clients hammer
//! an in-process server with seeded fuzz networks and the run reports
//! sustained throughput and the cache-hit speedup.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p xag-bench --bin serve_bench \
//!     [--clients N] [--jobs M] [--workers W] [--flow SPEC] [--json PATH]
//! ```
//!
//! `--flow` takes any FlowSpec (alias or full spec, default `paper`), so
//! the throughput and cache-hit curves can be reproduced on custom
//! flows; the `--json` records carry the normalized spec.
//!
//! Two phases, both with all clients running concurrently:
//!
//! * **cold** — every client submits `M` circuits with client-disjoint
//!   seeds, so every job is a cache miss and runs the full paper flow;
//! * **warm** — the same submissions again, so every job is a semantic
//!   cache hit (verified against the daemon's `stats` counters).
//!
//! The cache-hit speedup is the ratio of the phases' per-job wall times.
//! With `--json PATH` one record per phase is written (`threads` carries
//! the client count; gate counts are summed over the unique jobs).

use std::sync::Arc;
use std::time::Instant;

use mc_serve::{Client, OptimizeRequest, ServeConfig, Server};
use xag_bench::{flag_value, json_path_from_args, write_bench_json, BenchRecord, PhaseTimes};
use xag_mc::FlowSpec;
use xag_network::fuzz::{random_xag, FuzzConfig};
use xag_network::write_bristol;

const USAGE: &str =
    "usage: serve_bench [--clients N] [--jobs M] [--workers W] [--flow SPEC] [--json PATH]";

fn bristol_text(seed: u64, cfg: &FuzzConfig) -> String {
    let xag = random_xag(cfg, seed);
    let mut buf = Vec::new();
    write_bristol(&xag, &mut buf).expect("in-memory write cannot fail");
    String::from_utf8(buf).expect("bristol writer emits ASCII")
}

/// Runs one phase: every client submits its circuits; returns the phase
/// wall time and the summed before/after AND counts.
fn run_phase(
    addr: std::net::SocketAddr,
    circuits: &Arc<Vec<Vec<String>>>,
    flow: &FlowSpec,
    expect_cached: bool,
) -> (f64, usize, usize) {
    let t0 = Instant::now();
    let totals = std::thread::scope(|s| {
        let handles: Vec<_> = (0..circuits.len())
            .map(|c| {
                let circuits = Arc::clone(circuits);
                let flow = flow.clone();
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect to daemon");
                    let mut before = 0usize;
                    let mut after = 0usize;
                    for circuit in &circuits[c] {
                        let result = client
                            .optimize(OptimizeRequest {
                                circuit: circuit.clone(),
                                flow: flow.clone(),
                                ..OptimizeRequest::default()
                            })
                            .expect("optimize request");
                        assert_eq!(
                            result.cached, expect_cached,
                            "phase expectation violated (cached={})",
                            result.cached
                        );
                        before += result.ands_before;
                        after += result.ands_after;
                    }
                    (before, after)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .fold((0, 0), |acc, (b, a)| (acc.0 + b, acc.1 + a))
    });
    (t0.elapsed().as_secs_f64(), totals.0, totals.1)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str, default: usize| flag_value(&args, name, USAGE).unwrap_or(default);
    let clients = flag("--clients", 4).max(1);
    let jobs = flag("--jobs", 8).max(1);
    let workers = flag("--workers", 4).max(1);
    let flow: FlowSpec = args
        .iter()
        .position(|a| a == "--flow")
        .and_then(|i| args.get(i + 1))
        .map(|text| FlowSpec::parse(text).expect("--flow takes a valid FlowSpec"))
        .unwrap_or_default();

    let config = ServeConfig {
        workers,
        ..ServeConfig::default()
    };
    let handle = Server::bind(ServeConfig {
        // The warm phase asserts every resubmission hits, so the LRU must
        // hold the whole cold working set.
        cache_capacity: config.cache_capacity.max(clients * jobs),
        ..config
    })
    .expect("bind daemon on an ephemeral port");
    let addr = handle.local_addr();
    println!(
        "serve_bench: daemon on {addr}, {clients} clients × {jobs} jobs, {workers} workers, \
         flow {}",
        flow.normalized()
    );

    // Client-disjoint seeds so the cold phase is all misses.
    let cfg = FuzzConfig::default();
    let circuits: Arc<Vec<Vec<String>>> = Arc::new(
        (0..clients)
            .map(|c| {
                (0..jobs)
                    .map(|j| bristol_text((c * 10_000 + j) as u64, &cfg))
                    .collect()
            })
            .collect(),
    );
    let total_jobs = (clients * jobs) as f64;

    let (cold_s, ands_before, ands_after) = run_phase(addr, &circuits, &flow, false);
    let cold_rate = total_jobs / cold_s;
    println!(
        "cold: {cold_s:.3}s for {} jobs = {cold_rate:.1} jobs/s (AND {ands_before} -> {ands_after})",
        clients * jobs
    );

    let (warm_s, _, _) = run_phase(addr, &circuits, &flow, true);
    let warm_rate = total_jobs / warm_s;
    println!(
        "warm: {warm_s:.3}s for {} jobs = {warm_rate:.1} jobs/s (all cache hits)",
        clients * jobs
    );
    println!(
        "cache-hit speedup: {:.2}x per job",
        cold_s / warm_s.max(1e-9)
    );

    let mut client = Client::connect(addr).expect("connect for stats");
    let stats = client.stats().expect("stats request");
    println!(
        "daemon stats: {} served, {} hits / {} misses ({:.1}% hit rate), {} entries",
        stats.jobs_served,
        stats.cache_hits,
        stats.cache_misses,
        100.0 * stats.hit_rate(),
        stats.cache_entries,
    );
    assert!(
        stats.cache_hits >= (clients * jobs) as u64,
        "warm phase must be served from the cache"
    );
    client.shutdown().expect("shutdown request");
    handle.join();

    if let Some(path) = json_path_from_args(&args) {
        let record = |name: &str, wall_s: f64| BenchRecord {
            bench: "serve_bench".to_string(),
            name: name.to_string(),
            size_before: clients * jobs,
            size_after: clients * jobs,
            depth_before: 0,
            depth_after: 0,
            mc_before: ands_before,
            mc_after: ands_after,
            wall_s,
            threads: clients,
            flow: flow.normalized(),
            phases: PhaseTimes::default(),
        };
        let records = [record("cold", cold_s), record("warm", warm_s)];
        write_bench_json(&path, &records).expect("write --json output");
        println!("wrote 2 records to {}", path.display());
    }
}
