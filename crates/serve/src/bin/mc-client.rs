//! CLI client for the optimization service.
//!
//! Usage:
//!
//! ```text
//! mc-client <addr> [CIRCUIT.txt | --bench NAME | --fuzz SEED]
//!           [--flow SPEC | --flow-file PATH] [--max-rounds N]
//!           [--format bristol|verilog] [--output bristol|verilog]
//!           [--out PATH|-] [--retry N] [--trace-id N]
//! mc-client <addr> --status | --stats | --cluster-stats | --shutdown
//! mc-client <addr> --ping [--ping-count N]
//! mc-client <addr> --metrics | --trace-dump [--trace-id N]
//! mc-client --list-flows
//! ```
//!
//! `--flow` takes a FlowSpec — an alias (`paper`, `compress`,
//! `from_params`) or a full spec like `'mc(cut=6);xor;cleanup*'`
//! (see DESIGN.md §8 for the grammar); `--flow-file` reads the spec from
//! a file, for flows too long to quote comfortably. `--list-flows`
//! prints the canonical aliases with their expansions and exits.
//!
//! `--retry N` retries a refused initial connection up to `N` times with
//! bounded exponential backoff — for scripts racing a daemon that is
//! still booting. `<addr>` may equally be an `mc-cluster` router: the
//! protocol is identical, and `--cluster-stats` shows the router's
//! per-backend breakdown.
//!
//! Circuit sources (exactly one):
//!
//! * a file in Bristol or structural Verilog (format sniffed unless
//!   `--format` is given);
//! * `--bench NAME` — a generated benchmark, looked up in the EPFL
//!   Table-1 suite (reduced scale) and then the MPC Table-2 suite;
//! * `--fuzz SEED` — a seeded random XAG (the differential-testing
//!   generator), handy for smoke tests.
//!
//! Prints a one-line summary (`cached: true|false` is what scripts grep
//! for); `--out PATH` saves the optimized netlist, `--out -` prints it.
//!
//! Observability: `--metrics` prints the server's metric registry as
//! Prometheus-style text; `--trace-dump` prints recorded trace events
//! (optionally filtered with `--trace-id N`). On an optimize, `--trace-id N`
//! runs the job under that trace ID so a later `--trace-dump --trace-id N`
//! shows it end to end; without it the server assigns one, reported in
//! the summary line. `--ping --ping-count N` reports min/p50/p99 RTT
//! over N samples.

use mc_serve::{Client, OptimizeRequest};
use xag_circuits::epfl::Scale;
use xag_circuits::CircuitFormat;
use xag_mc::{FlowSpec, JobSpec};
use xag_network::fuzz::{random_xag, FuzzConfig};
use xag_network::{write_bristol, Xag};

fn usage() -> ! {
    eprintln!(
        "usage: mc-client <addr> [CIRCUIT | --bench NAME | --fuzz SEED] \
         [--flow SPEC | --flow-file PATH] [--max-rounds N] \
         [--format bristol|verilog] [--output bristol|verilog] [--out PATH|-] [--retry N] \
         [--trace-id N]\n\
         \x20      mc-client <addr> --status | --stats | --cluster-stats | --shutdown\n\
         \x20      mc-client <addr> --ping [--ping-count N]\n\
         \x20      mc-client <addr> --metrics | --trace-dump [--trace-id N]\n\
         \x20      mc-client --list-flows"
    );
    std::process::exit(2);
}

fn list_flows() -> ! {
    println!("canonical flow aliases (pass any alias or full spec to --flow):");
    for (alias, expansion) in FlowSpec::aliases() {
        println!("  {alias:<12} = {expansion}");
    }
    println!(
        "\ngrammar: atoms mc(cut=N) | size(cut=N) | xor | cleanup, sequencing `;`,\n\
         groups {{...}}, repetition *k, until-convergence *\n\
         example: 'mc(cut=6);xor;cleanup*'"
    );
    std::process::exit(0);
}

fn fail(message: impl core::fmt::Display) -> ! {
    eprintln!("mc-client: {message}");
    std::process::exit(1);
}

fn bristol_text(xag: &Xag) -> String {
    let mut buf = Vec::new();
    write_bristol(xag, &mut buf).expect("in-memory write cannot fail");
    String::from_utf8(buf).expect("bristol writer emits ASCII")
}

fn bench_circuit(name: &str) -> String {
    match xag_circuits::epfl::benchmark(name, Scale::Reduced) {
        Ok(b) => bristol_text(&b.xag),
        Err(_) => match xag_circuits::mpc::benchmark(name) {
            Ok(b) => bristol_text(&b.xag),
            Err(e) => fail(e),
        },
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    if args[0] == "--list-flows" {
        list_flows();
    }
    let addr = args[0].clone();

    let mut circuit: Option<String> = None;
    let mut format: Option<CircuitFormat> = None;
    let mut flow = FlowSpec::default();
    let mut max_rounds = JobSpec::default().max_rounds;
    let mut output = CircuitFormat::Bristol;
    let mut out: Option<String> = None;
    let mut action: Option<&str> = None;
    let mut retries = 0usize;
    let mut trace_id: Option<u64> = None;
    let mut ping_count = 1usize;

    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--bench" => circuit = Some(bench_circuit(&value())),
            "--fuzz" => {
                let seed: u64 = value().parse().unwrap_or_else(|_| usage());
                circuit = Some(bristol_text(&random_xag(&FuzzConfig::default(), seed)));
            }
            "--flow" => {
                let text = value();
                flow = FlowSpec::parse(&text)
                    .unwrap_or_else(|e| fail(format_args!("invalid flow spec: {e}")));
            }
            "--flow-file" => {
                let path = value();
                let text = std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| fail(format_args!("cannot read {path}: {e}")));
                flow = FlowSpec::parse(text.trim())
                    .unwrap_or_else(|e| fail(format_args!("invalid flow spec in {path}: {e}")));
            }
            "--list-flows" => list_flows(),
            "--max-rounds" => max_rounds = value().parse().unwrap_or_else(|_| usage()),
            "--format" => {
                let name = value();
                format = Some(
                    CircuitFormat::from_name(&name)
                        .unwrap_or_else(|| fail(format_args!("unknown format: {name}"))),
                );
            }
            "--output" => {
                let name = value();
                output = CircuitFormat::from_name(&name)
                    .unwrap_or_else(|| fail(format_args!("unknown output format: {name}")));
            }
            "--out" => out = Some(value()),
            "--retry" => retries = value().parse().unwrap_or_else(|_| usage()),
            "--trace-id" => trace_id = Some(value().parse().unwrap_or_else(|_| usage())),
            "--ping-count" => ping_count = value().parse().unwrap_or_else(|_| usage()),
            "--status" => action = Some("status"),
            "--stats" => action = Some("stats"),
            "--cluster-stats" => action = Some("cluster-stats"),
            "--ping" => action = Some("ping"),
            "--metrics" => action = Some("metrics"),
            "--trace-dump" => action = Some("trace-dump"),
            "--shutdown" => action = Some("shutdown"),
            path if !path.starts_with("--") => {
                let text = std::fs::read_to_string(path)
                    .unwrap_or_else(|e| fail(format_args!("cannot read {path}: {e}")));
                circuit = Some(text);
            }
            _ => usage(),
        }
    }

    let mut client = Client::connect_with_retry(&addr, retries)
        .unwrap_or_else(|e| fail(format_args!("cannot connect to {addr}: {e}")));

    match action {
        Some("ping") => {
            if ping_count <= 1 {
                let rtt = client.ping().unwrap_or_else(|e| fail(e));
                println!("pong in {} us", rtt.as_micros());
                return;
            }
            let mut samples: Vec<u64> = (0..ping_count)
                .map(|_| client.ping().unwrap_or_else(|e| fail(e)).as_micros() as u64)
                .collect();
            samples.sort_unstable();
            // Nearest-rank percentiles over the sorted samples.
            let rank = |q: f64| samples[((q * (samples.len() - 1) as f64).round()) as usize];
            println!(
                "{} pings: min {} us, p50 {} us, p99 {} us",
                samples.len(),
                samples[0],
                rank(0.50),
                rank(0.99),
            );
            return;
        }
        Some("metrics") => {
            print!("{}", client.metrics().unwrap_or_else(|e| fail(e)));
            return;
        }
        Some("trace-dump") => {
            let events = client.trace_dump(trace_id).unwrap_or_else(|e| fail(e));
            for e in &events {
                println!(
                    "{} +{:<10} trace={:016x} {:<22} {}",
                    e.start_us, e.dur_us, e.trace_id, e.span, e.detail
                );
            }
            eprintln!("{} events", events.len());
            return;
        }
        Some("cluster-stats") => {
            let c = client.cluster_stats().unwrap_or_else(|e| fail(e));
            println!("uptime        : {}s", c.uptime_secs);
            if !c.health.is_empty() {
                println!("health        : {}", c.health);
            }
            println!("jobs_routed   : {}", c.jobs_routed);
            println!("jobs_retried  : {}", c.jobs_retried);
            println!(
                "affinity      : {} hits / {} fallbacks ({:.1}%)",
                c.affinity_hits,
                c.affinity_fallbacks,
                100.0 * c.affinity_rate()
            );
            for b in &c.backends {
                println!(
                    "backend {} {} [{}]: cap {}, in-flight {}, routed {}, queue {}, busy {}, \
                     served {}, cache {}/{} hits/misses",
                    b.id,
                    b.addr,
                    if b.up { "up" } else { "down" },
                    b.capacity,
                    b.in_flight,
                    b.jobs_routed,
                    b.queue_depth,
                    b.busy,
                    b.jobs_served,
                    b.cache_hits,
                    b.cache_misses,
                );
            }
            return;
        }
        Some("status") => {
            let s = client.status().unwrap_or_else(|e| fail(e));
            println!(
                "queue: {}/{}  workers: {} ({} busy)",
                s.queue_depth, s.queue_capacity, s.workers, s.busy
            );
            for j in &s.running {
                println!(
                    "  job {} trace={:016x} flow {} @ pass {} round {} ({} ms)",
                    j.job_id, j.trace_id, j.flow, j.pass, j.round, j.elapsed_ms
                );
            }
            return;
        }
        Some("stats") => {
            let s = client.stats().unwrap_or_else(|e| fail(e));
            println!("uptime        : {}s", s.uptime_secs);
            println!("jobs_served   : {}", s.jobs_served);
            println!("cache_hits    : {}", s.cache_hits);
            println!("cache_misses  : {}", s.cache_misses);
            println!("cache_evicted : {}", s.cache_evictions);
            println!("cache_entries : {}/{}", s.cache_entries, s.cache_capacity);
            println!("hit_rate      : {:.1}%", 100.0 * s.hit_rate());
            println!("queue_depth   : {}", s.queue_depth);
            for t in &s.flows {
                println!(
                    "flow {:<10}: {} jobs, {} ms total",
                    t.flow, t.jobs, t.total_millis
                );
            }
            return;
        }
        Some(_) => {
            client.shutdown().unwrap_or_else(|e| fail(e));
            println!("daemon acknowledged shutdown");
            return;
        }
        None => {}
    }

    let circuit = circuit.unwrap_or_else(|| usage());
    let result = client
        .optimize(OptimizeRequest {
            circuit,
            format,
            flow,
            max_rounds,
            output,
            trace_id: trace_id.unwrap_or(0),
        })
        .unwrap_or_else(|e| fail(e));

    println!(
        "job {} (cached: {}): AND {} -> {}, XOR {} -> {}, depth {} -> {}, \
         {} rounds, {} ms, trace {}{}",
        result.job_id,
        result.cached,
        result.ands_before,
        result.ands_after,
        result.xors_before,
        result.xors_after,
        result.depth_before,
        result.depth_after,
        result.rounds,
        result.millis,
        result.trace_id,
        if result.converged {
            ""
        } else {
            " (round limit)"
        },
    );
    match out.as_deref() {
        Some("-") => print!("{}", result.netlist),
        Some(path) => std::fs::write(path, &result.netlist)
            .unwrap_or_else(|e| fail(format_args!("cannot write {path}: {e}"))),
        None => {}
    }
}
