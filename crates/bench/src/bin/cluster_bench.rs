//! Load benchmark for the `mc-cluster` router: M concurrent clients
//! drive an in-process cluster of K `mc-serve` backends through a real
//! router, and the run reports the throughput scaling curve over the
//! backend count plus the warm-phase cache hit rate of affine routing.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p xag-bench --bin cluster_bench \
//!     [--backends K] [--clients M] [--jobs J] [--workers W] [--flow SPEC] [--json PATH]
//! ```
//!
//! `--flow` takes any FlowSpec (alias or full spec, default `paper`), so
//! the scaling curves can be reproduced on custom flows; the `--json`
//! records carry the normalized spec.
//!
//! For each backend count `k` in `1..=K` the bench boots a fresh
//! cluster and runs two phases with all clients concurrent:
//!
//! * **cold** — client-disjoint seeds, every job computes on a backend;
//! * **warm** — the same submissions again; under affine routing every
//!   job should land on the backend that cached it.
//!
//! With `--json PATH` one record per phase is written (`threads` carries
//! the backend count).

use std::sync::Arc;
use std::time::{Duration, Instant};

use mc_cluster::{Router, RouterConfig, RouterHandle};
use mc_serve::{Client, OptimizeRequest, ServeConfig, Server, ServerHandle};
use xag_bench::{
    check_args, flag_value, json_path_from_args, logical_cores, write_bench_json, BenchRecord,
    PhaseTimes,
};
use xag_mc::FlowSpec;
use xag_network::fuzz::{random_xag, FuzzConfig};
use xag_network::write_bristol;

const USAGE: &str =
    "usage: cluster_bench [--backends K] [--clients M] [--jobs J] [--workers W] [--flow SPEC] [--json PATH]";

fn bristol_text(seed: u64, cfg: &FuzzConfig) -> String {
    let xag = random_xag(cfg, seed);
    let mut buf = Vec::new();
    write_bristol(&xag, &mut buf).expect("in-memory write cannot fail");
    String::from_utf8(buf).expect("bristol writer emits ASCII")
}

fn boot_cluster(backends: usize, workers: usize) -> (RouterHandle, Vec<ServerHandle>) {
    let router = Router::bind(RouterConfig {
        // Lenient health bounds: bench boxes may stall arbitrarily, and
        // a spuriously downed backend would corrupt the measurement.
        miss_threshold: 100,
        ..RouterConfig::default()
    })
    .expect("bind router on an ephemeral port");
    let join = router.local_addr().to_string();
    let handles: Vec<ServerHandle> = (0..backends)
        .map(|_| {
            Server::bind(ServeConfig {
                workers,
                join: Some(join.clone()),
                heartbeat_interval: Duration::from_millis(100),
                // The warm phase needs the whole cold working set cached.
                cache_capacity: 4096,
                ..ServeConfig::default()
            })
            .expect("bind backend on an ephemeral port")
        })
        .collect();
    let mut probe = Client::connect(router.local_addr()).expect("connect probe");
    for _ in 0..500 {
        let up = probe
            .cluster_stats()
            .expect("cluster_stats")
            .backends
            .iter()
            .filter(|b| b.up)
            .count();
        if up >= backends {
            return (router, handles);
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("{backends} backend(s) never registered");
}

/// Runs one phase; returns `(wall seconds, cached responses, summed
/// before/after AND counts)`.
fn run_phase(
    addr: std::net::SocketAddr,
    circuits: &Arc<Vec<Vec<String>>>,
    flow: &FlowSpec,
) -> (f64, u64, usize, usize) {
    let t0 = Instant::now();
    let totals = std::thread::scope(|s| {
        let handles: Vec<_> = (0..circuits.len())
            .map(|c| {
                let circuits = Arc::clone(circuits);
                let flow = flow.clone();
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect to router");
                    let mut cached = 0u64;
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
                        cached += result.cached as u64;
                        before += result.ands_before;
                        after += result.ands_after;
                    }
                    (cached, before, after)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .fold((0, 0, 0), |acc, (c, b, a)| {
                (acc.0 + c, acc.1 + b, acc.2 + a)
            })
    });
    (t0.elapsed().as_secs_f64(), totals.0, totals.1, totals.2)
}

struct PhaseRow {
    name: String,
    wall_s: f64,
    ands_before: usize,
    ands_after: usize,
    backends: usize,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    check_args(
        &args,
        0,
        &[],
        &[
            "--backends",
            "--clients",
            "--jobs",
            "--workers",
            "--flow",
            "--json",
        ],
        USAGE,
    );
    let flag = |name: &str, default: usize| flag_value(&args, name, USAGE).unwrap_or(default);
    let max_backends = flag("--backends", 3).max(1);
    let clients = flag("--clients", 4).max(1);
    let jobs = flag("--jobs", 8).max(1);
    let workers = flag("--workers", 2).max(1);
    let flow: FlowSpec = args
        .iter()
        .position(|a| a == "--flow")
        .and_then(|i| args.get(i + 1))
        .map(|text| FlowSpec::parse(text).expect("--flow takes a valid FlowSpec"))
        .unwrap_or_default();
    let total_jobs = (clients * jobs) as f64;

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
    println!(
        "cluster_bench: {clients} clients × {jobs} jobs, {workers} workers/backend, \
         scaling 1..={max_backends} backends, flow {}",
        flow.normalized()
    );

    let mut rows: Vec<PhaseRow> = Vec::new();
    let mut scaling: Vec<(usize, f64, f64, f64)> = Vec::new();
    for k in 1..=max_backends {
        let (router, backends) = boot_cluster(k, workers);
        let addr = router.local_addr();
        let (cold_s, cold_cached, before, after) = run_phase(addr, &circuits, &flow);
        assert_eq!(cold_cached, 0, "cold phase must be all misses");
        let (warm_s, warm_cached, _, _) = run_phase(addr, &circuits, &flow);
        let warm_hit_rate = warm_cached as f64 / total_jobs;
        assert!(
            warm_cached == total_jobs as u64,
            "affine warm phase must be all hits (got {warm_cached}/{total_jobs})"
        );
        let mut probe = Client::connect(addr).expect("connect for stats");
        let cstats = probe.cluster_stats().expect("cluster_stats");
        println!(
            "k={k}: cold {:6.1} jobs/s, warm {:7.1} jobs/s, warm hits {:5.1}%, \
             affinity {:5.1}% ({} retried)",
            total_jobs / cold_s,
            total_jobs / warm_s,
            100.0 * warm_hit_rate,
            100.0 * cstats.affinity_rate(),
            cstats.jobs_retried,
        );
        scaling.push((k, total_jobs / cold_s, total_jobs / warm_s, warm_hit_rate));
        rows.push(PhaseRow {
            name: format!("cold_k{k}"),
            wall_s: cold_s,
            ands_before: before,
            ands_after: after,
            backends: k,
        });
        rows.push(PhaseRow {
            name: format!("warm_k{k}"),
            wall_s: warm_s,
            ands_before: before,
            ands_after: after,
            backends: k,
        });
        for b in backends {
            b.shutdown();
        }
        router.shutdown();
    }

    println!("\nscaling curve (affine routing):");
    println!("  backends  cold jobs/s  warm jobs/s  warm hit rate");
    for (k, cold_rate, warm_rate, hit) in &scaling {
        println!(
            "  {k:>8}  {cold_rate:>11.1}  {warm_rate:>11.1}  {:>12.1}%",
            100.0 * hit
        );
    }

    if let Some(path) = json_path_from_args(&args) {
        let records: Vec<BenchRecord> = rows
            .iter()
            .map(|r| BenchRecord {
                bench: "cluster_bench".to_string(),
                name: r.name.clone(),
                size_before: clients * jobs,
                size_after: clients * jobs,
                depth_before: 0,
                depth_after: 0,
                mc_before: r.ands_before,
                mc_after: r.ands_after,
                wall_s: r.wall_s,
                threads: r.backends,
                logical_cores: logical_cores(),
                flow: flow.normalized(),
                phases: PhaseTimes::default(),
            })
            .collect();
        write_bench_json(&path, &records).expect("write --json output");
        println!("wrote {} records to {}", records.len(), path.display());
    }
}
