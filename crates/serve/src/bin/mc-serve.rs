//! The optimization service daemon.
//!
//! Usage:
//!
//! ```text
//! mc-serve [--addr HOST:PORT] [--workers N] [--cache N] [--port-file PATH]
//!          [--join ROUTER_ADDR] [--advertise HOST:PORT] [--heartbeat-ms N] [--sample-ms N]
//! ```
//!
//! * `--addr` — listen address; port 0 picks an ephemeral port
//!   (default `127.0.0.1:4519`).
//! * `--workers` — worker-pool size (default: available parallelism,
//!   capped at 8). The job queue holds 64 jobs; submissions beyond it
//!   block.
//! * `--cache` — semantic-result-cache bound, LRU (default 128).
//! * `--port-file` — write the bound address to this file once
//!   listening, for scripts that start the daemon with port 0.
//! * `--join` — address of an `mc-cluster` router; the daemon registers
//!   itself there, with its current load, every heartbeat interval until
//!   it shuts down.
//! * `--advertise` — the address to announce to the router (required
//!   with `--join` when binding a wildcard address; defaults to the
//!   bound address).
//! * `--heartbeat-ms` — heartbeat interval: the pause between two
//!   registrations with the joined router (default 500).
//! * `--sample-ms` — metrics-history sampling interval (default 1000);
//!   the ring keeps 720 samples, so the default covers 12 minutes.
//!
//! The daemon runs until a client sends a `shutdown` request (e.g.
//! `mc-client <addr> --shutdown`).

use mc_serve::server::QUEUE_CAPACITY;
use mc_serve::{ServeConfig, Server};

fn usage() -> ! {
    eprintln!(
        "usage: mc-serve [--addr HOST:PORT] [--workers N] [--cache N] \
         [--port-file PATH] [--join ROUTER_ADDR] [--advertise HOST:PORT] [--heartbeat-ms N] \
         [--sample-ms N]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = ServeConfig {
        addr: "127.0.0.1:4519".to_string(),
        ..ServeConfig::default()
    };
    let mut port_file: Option<String> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--addr" => config.addr = value(),
            "--workers" => config.workers = value().parse().unwrap_or_else(|_| usage()),
            "--cache" => config.cache_capacity = value().parse().unwrap_or_else(|_| usage()),
            "--port-file" => port_file = Some(value()),
            "--join" => config.join = Some(value()),
            "--advertise" => config.advertise = Some(value()),
            "--heartbeat-ms" => {
                let millis: u64 = value().parse().unwrap_or_else(|_| usage());
                config.heartbeat_interval = std::time::Duration::from_millis(millis.max(1));
            }
            "--sample-ms" => {
                let millis: u64 = value().parse().unwrap_or_else(|_| usage());
                config.sample_interval = std::time::Duration::from_millis(millis.max(1));
            }
            _ => usage(),
        }
    }

    let workers = config.workers;
    let cache = config.cache_capacity;
    let handle = match Server::bind(config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("mc-serve: bind failed: {e}");
            std::process::exit(1);
        }
    };
    let addr = handle.local_addr();
    println!(
        "mc-serve listening on {addr} ({workers} workers, queue {QUEUE_CAPACITY}, cache {cache})"
    );
    if let Some(router) = handle.joined_router() {
        println!("mc-serve joining cluster router at {router}");
    }
    if let Some(path) = port_file {
        if let Err(e) = std::fs::write(&path, addr.to_string()) {
            eprintln!("mc-serve: cannot write port file {path}: {e}");
            std::process::exit(1);
        }
    }
    handle.join();
    println!("mc-serve: shut down");
}
