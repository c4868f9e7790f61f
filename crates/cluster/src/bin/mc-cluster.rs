//! The cluster router daemon.
//!
//! Usage:
//!
//! ```text
//! mc-cluster [--addr HOST:PORT] [--port-file PATH] [--health-interval-ms N]
//!            [--sample-ms N] [--slo SPEC]
//! ```
//!
//! * `--addr` — listen address; port 0 picks an ephemeral port
//!   (default `127.0.0.1:4520`).
//! * `--port-file` — write the bound address to this file once
//!   listening, for scripts that start the router with port 0.
//! * `--health-interval-ms` — pause between health-check rounds
//!   (default 500); three missed pings in a row mark a backend down.
//! * `--sample-ms` — metrics-history sampling interval of the router's
//!   own counters (default 1000), and so the SLO watchdog's tick.
//! * `--slo` — watchdog thresholds as comma-separated `key=value` pairs
//!   (`p99_ms=400,hit_rate=0.5,error_rate=0.01`); repeatable, later
//!   flags merge. Each sample is followed by one evaluation. Without it
//!   no watchdog runs and `cluster_stats` reports no health summary.
//!
//! Placement is fixed: 32 ring points per backend, an affine target
//! spills to least-loaded placement at 2 in-flight jobs per worker, and
//! a failed dispatch fails over to at most 3 more backends.
//!
//! Backends join with `mc-serve --join <this addr>`. The router runs
//! until a client sends `shutdown` (`mc-client <addr> --shutdown`);
//! shutting the router down leaves the backends running.

use std::time::Duration;

use mc_cluster::{Router, RouterConfig};

fn usage() -> ! {
    eprintln!(
        "usage: mc-cluster [--addr HOST:PORT] [--port-file PATH] [--health-interval-ms N] \
         [--sample-ms N] [--slo SPEC]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = RouterConfig {
        addr: "127.0.0.1:4520".to_string(),
        ..RouterConfig::default()
    };
    let mut port_file: Option<String> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--addr" => config.addr = value(),
            "--port-file" => port_file = Some(value()),
            "--health-interval-ms" => {
                let ms: u64 = value().parse().unwrap_or_else(|_| usage());
                config.health_interval = Duration::from_millis(ms.max(1));
            }
            "--sample-ms" => {
                let ms: u64 = value().parse().unwrap_or_else(|_| usage());
                config.sample_interval = Duration::from_millis(ms.max(1));
            }
            "--slo" => {
                if let Err(e) = config.slo.parse_into(&value()) {
                    eprintln!("mc-cluster: {e}");
                    usage();
                }
            }
            _ => usage(),
        }
    }

    let slo = config.slo;
    let handle = match Router::bind(config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("mc-cluster: bind failed: {e}");
            std::process::exit(1);
        }
    };
    let addr = handle.local_addr();
    println!("mc-cluster routing on {addr}; join backends with: mc-serve --join {addr}");
    if !slo.is_empty() {
        println!("mc-cluster SLO watchdog armed: {slo:?}");
    }
    if let Some(path) = port_file {
        if let Err(e) = std::fs::write(&path, addr.to_string()) {
            eprintln!("mc-cluster: cannot write port file {path}: {e}");
            std::process::exit(1);
        }
    }
    handle.join();
    println!("mc-cluster: shut down");
}
