//! Load benchmark for the service tier: concurrent clients submit seeded
//! fuzz networks to one in-process `mc-serve` daemon or, with
//! `--backends K`, to an `mc-cluster` router over in-process backends,
//! and the run reports sustained throughput and the cache-hit speedup.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p xag-bench --bin serve_bench \
//!     [--backends K] [--clients N] [--jobs M] [--workers W] [--flow SPEC] [--json PATH]
//! ```
//!
//! Defaults: 4 clients of 8 jobs each, and 4 workers for the daemon or
//! 2 per backend. `--flow` takes any FlowSpec (alias or full spec,
//! default `paper`), so the curves can be reproduced on custom flows;
//! the `--json` records carry the normalized spec.
//!
//! Every measurement runs two phases, all clients concurrent:
//!
//! * **cold** — every client submits `M` circuits with client-disjoint
//!   seeds, so every job is a cache miss and runs the flow;
//! * **warm** — the same submissions again, so every job is a semantic
//!   cache hit that answers with the cold phase's AND counts.
//!
//! Both expectations are asserted. Without `--backends` the phases run
//! once against the daemon, whose `stats` must count the warm hits, and
//! the run prints the cache-hit speedup (the ratio of the phases' wall
//! times). With `--backends K` they run on a freshly booted cluster for
//! each backend count `k` in `1..=K`, where affine routing must land
//! every resubmission on the backend that cached it, and the run prints
//! the throughput scaling curve.
//!
//! With `--json PATH` one record per phase is written:
//! `serve_bench/{cold,warm}` with `threads` = clients, or
//! `cluster_bench/{cold,warm}_k{k}` with `threads` = k. `size_*` carries
//! the job count and `mc_*` the AND counts summed over the jobs.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use mc_cluster::{Router, RouterConfig, RouterHandle};
use mc_serve::{Client, OptimizeRequest, ServeConfig, Server, ServerHandle};
use xag_bench::{check_args, flag_value, json_path_from_args, write_bench_json, BenchRecord};
use xag_mc::FlowSpec;
use xag_network::fuzz::{random_xag, FuzzConfig};
use xag_network::write_bristol;

const USAGE: &str = "usage: serve_bench [--backends K] [--clients N] [--jobs M] [--workers W] \
                     [--flow SPEC] [--json PATH]";

/// The submissions of one phase: `jobs` circuits per client, each client
/// with its own seeds, all run through `flow`.
struct Load {
    clients: usize,
    jobs: usize,
    /// Bristol texts, one list per client.
    circuits: Vec<Vec<String>>,
    flow: FlowSpec,
}

/// One phase over all clients: wall time, cached responses and the
/// summed before/after AND counts.
#[derive(Default)]
struct Phase {
    wall_s: f64,
    cached: usize,
    ands_before: usize,
    ands_after: usize,
}

impl Load {
    fn new(clients: usize, jobs: usize, flow: FlowSpec) -> Self {
        let cfg = FuzzConfig::default();
        let bristol = |seed: u64| {
            let mut buf = Vec::new();
            write_bristol(&random_xag(&cfg, seed), &mut buf).expect("in-memory write cannot fail");
            String::from_utf8(buf).expect("bristol writer emits ASCII")
        };
        let circuits = (0..clients)
            .map(|c| {
                (0..jobs)
                    .map(|j| bristol((c * 10_000 + j) as u64))
                    .collect()
            })
            .collect();
        Self {
            clients,
            jobs,
            circuits,
            flow,
        }
    }

    /// Jobs in one phase, over all clients.
    fn total(&self) -> usize {
        self.clients * self.jobs
    }

    /// Runs one phase against `addr`: every client submits its circuits.
    fn phase(&self, addr: SocketAddr) -> Phase {
        let t0 = Instant::now();
        let clients: Vec<Phase> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .circuits
                .iter()
                .map(|circuits| s.spawn(move || self.client(addr, circuits)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        Phase {
            wall_s: t0.elapsed().as_secs_f64(),
            cached: clients.iter().map(|p| p.cached).sum(),
            ands_before: clients.iter().map(|p| p.ands_before).sum(),
            ands_after: clients.iter().map(|p| p.ands_after).sum(),
        }
    }

    /// One client's part of a phase: submits `circuits` in turn over one
    /// connection.
    fn client(&self, addr: SocketAddr, circuits: &[String]) -> Phase {
        let mut client = Client::connect(addr).expect("connect to the service");
        let mut sums = Phase::default();
        for circuit in circuits {
            let result = client
                .optimize(OptimizeRequest {
                    circuit: circuit.clone(),
                    flow: self.flow.clone(),
                    ..OptimizeRequest::default()
                })
                .expect("optimize request");
            sums.cached += usize::from(result.cached);
            sums.ands_before += result.ands_before;
            sums.ands_after += result.ands_after;
        }
        sums
    }

    /// Runs the cold phase and then the warm phase against `addr`, and
    /// holds them to the cache: all misses, then all hits with the same
    /// AND counts.
    fn cold_and_warm(&self, addr: SocketAddr) -> [Phase; 2] {
        let cold = self.phase(addr);
        assert_eq!(cold.cached, 0, "cold phase must be all misses");
        let warm = self.phase(addr);
        assert_eq!(warm.cached, self.total(), "warm phase must be all hits");
        assert_eq!(
            (warm.ands_before, warm.ands_after),
            (cold.ands_before, cold.ands_after),
            "a cache hit must answer with the computed AND counts"
        );
        [cold, warm]
    }

    /// The `--json` row of `phase`.
    fn record(&self, bench: &str, name: &str, threads: usize, phase: &Phase) -> BenchRecord {
        BenchRecord {
            size_before: self.total(),
            size_after: self.total(),
            mc_before: phase.ands_before,
            mc_after: phase.ands_after,
            wall_s: phase.wall_s,
            threads,
            flow: self.flow.normalized(),
            ..BenchRecord::new(bench, name)
        }
    }
}

/// Measures one daemon: rows `serve_bench/{cold,warm}`.
fn bench_daemon(load: &Load, config: ServeConfig) -> Vec<BenchRecord> {
    let workers = config.workers;
    let handle = Server::bind(config).expect("bind daemon on an ephemeral port");
    let addr = handle.local_addr();
    println!(
        "serve_bench: daemon on {addr}, {} clients × {} jobs, {workers} workers, flow {}",
        load.clients,
        load.jobs,
        load.flow.normalized()
    );
    let [cold, warm] = load.cold_and_warm(addr);
    let total = load.total();
    println!(
        "cold: {:.3}s for {total} jobs = {:.1} jobs/s (AND {} -> {})",
        cold.wall_s,
        total as f64 / cold.wall_s,
        cold.ands_before,
        cold.ands_after
    );
    println!(
        "warm: {:.3}s for {total} jobs = {:.1} jobs/s (all cache hits)",
        warm.wall_s,
        total as f64 / warm.wall_s
    );
    println!(
        "cache-hit speedup: {:.2}x per job",
        cold.wall_s / warm.wall_s.max(1e-9)
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
        stats.cache_hits >= total as u64,
        "warm phase must be served from the cache"
    );
    client.shutdown().expect("shutdown request");
    handle.join();
    vec![
        load.record("serve_bench", "cold", load.clients, &cold),
        load.record("serve_bench", "warm", load.clients, &warm),
    ]
}

/// Boots a router and `backends` backends joined to it, and waits until
/// every backend is up.
fn boot_cluster(backends: usize, config: &ServeConfig) -> (RouterHandle, Vec<ServerHandle>) {
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
                join: Some(join.clone()),
                heartbeat_interval: Duration::from_millis(100),
                ..config.clone()
            })
            .expect("bind backend on an ephemeral port")
        })
        .collect();
    let mut probe = Client::connect(router.local_addr()).expect("connect probe");
    for _ in 0..500 {
        let stats = probe.cluster_stats().expect("cluster_stats");
        if stats.backends.iter().filter(|b| b.up).count() >= backends {
            return (router, handles);
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("{backends} backend(s) never registered");
}

/// Measures a router over 1..=`max_backends` backends: rows
/// `cluster_bench/{cold,warm}_k{k}`.
fn bench_cluster(load: &Load, config: &ServeConfig, max_backends: usize) -> Vec<BenchRecord> {
    println!(
        "serve_bench: {} clients × {} jobs, {} workers/backend, scaling 1..={max_backends} \
         backends, flow {}",
        load.clients,
        load.jobs,
        config.workers,
        load.flow.normalized()
    );
    let total = load.total() as f64;
    let mut records = Vec::new();
    let mut scaling = Vec::new();
    for k in 1..=max_backends {
        let (router, backends) = boot_cluster(k, config);
        let addr = router.local_addr();
        let [cold, warm] = load.cold_and_warm(addr);
        let mut probe = Client::connect(addr).expect("connect for stats");
        let cstats = probe.cluster_stats().expect("cluster_stats");
        let (cold_rate, warm_rate) = (total / cold.wall_s, total / warm.wall_s);
        let warm_hit_rate = warm.cached as f64 / total;
        println!(
            "k={k}: cold {cold_rate:6.1} jobs/s, warm {warm_rate:7.1} jobs/s, warm hits \
             {:5.1}%, affinity {:5.1}% ({} retried)",
            100.0 * warm_hit_rate,
            100.0 * cstats.affinity_rate(),
            cstats.jobs_retried,
        );
        scaling.push((k, cold_rate, warm_rate, warm_hit_rate));
        records.push(load.record("cluster_bench", &format!("cold_k{k}"), k, &cold));
        records.push(load.record("cluster_bench", &format!("warm_k{k}"), k, &warm));
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
    records
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let options = [
        "--backends",
        "--clients",
        "--jobs",
        "--workers",
        "--flow",
        "--json",
    ];
    check_args(&args, 0, &[], &options, USAGE);
    let count = |name: &str| flag_value(&args, name, USAGE).map(|n: usize| n.max(1));
    let backends = count("--backends");
    let load = Load::new(
        count("--clients").unwrap_or(4),
        count("--jobs").unwrap_or(8),
        flag_value(&args, "--flow", USAGE).unwrap_or_default(),
    );
    let defaults = ServeConfig::default();
    let config = ServeConfig {
        workers: count("--workers").unwrap_or(if backends.is_some() { 2 } else { 4 }),
        // The warm phase asserts every resubmission hits, so each cache
        // must hold the whole cold working set.
        cache_capacity: defaults.cache_capacity.max(load.total()),
        ..defaults
    };
    let records = match backends {
        None => bench_daemon(&load, config),
        Some(k) => bench_cluster(&load, &config, k),
    };
    if let Some(path) = json_path_from_args(&args) {
        write_bench_json(&path, &records).expect("write --json output");
        println!("wrote {} records to {}", records.len(), path.display());
    }
}
