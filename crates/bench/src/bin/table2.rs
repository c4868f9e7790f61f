//! Regenerates the paper's Table 2 (MPC/FHE benchmarks).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p xag-bench --bin table2 [--heavy] [--rounds N] [--threads N] [--json PATH]
//! ```
//!
//! Without `--heavy` only the arithmetic rows run (adders, multiplier,
//! comparators — seconds). With `--heavy` the block ciphers and hash
//! functions are included; `--rounds N` caps the until-convergence loop on
//! those (default 3; the paper let them run to full convergence on a Xeon,
//! spending hours on SHA-256). With `--threads N` every row additionally
//! runs the sharded parallel engine with one and with `N` workers and
//! reports the (bit-identical) result and the wall-clock speedup. With
//! `--json PATH` a machine-readable record per row is written alongside
//! the printed table.

use xag_bench::{
    json_path_from_args, normalized_geomean, run_flow_threads, write_bench_json, TableRow,
};
use xag_circuits::mpc::mpc_suite;
use xag_mc::OptContext;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let heavy = args.iter().any(|a| a == "--heavy");
    let rounds: usize = args
        .iter()
        .position(|a| a == "--rounds")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);
    let threads: usize = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);

    println!("Table 2: MPC and FHE benchmarks");
    println!("{}", TableRow::header());
    println!("{}", "-".repeat(TableRow::header().len()));

    let mut pairs_one = Vec::new();
    let mut pairs_conv = Vec::new();
    // One context for the whole suite: representatives synthesized for one
    // benchmark are reused by every later one.
    let mut ctx = OptContext::new();
    let mut speedups = Vec::new();
    let mut records = Vec::new();
    for bench in mpc_suite(heavy) {
        // The published MPC circuits are already size-optimized, so no
        // baseline pass; heavy entries get a capped convergence loop.
        let max_rounds = if bench.heavy { rounds } else { 50 };
        let flow = run_flow_threads(&mut ctx, &bench.xag, 0, max_rounds, threads);
        speedups.extend(flow.parallel.as_ref().map(|p| p.speedup()));
        records.extend(flow.records("table2", bench.name, &bench.xag, threads));
        let row = TableRow {
            name: bench.name.to_string(),
            inputs: bench.xag.num_inputs(),
            outputs: bench.xag.num_outputs(),
            flow: flow.clone(),
        };
        println!("{}", row.format());
        pairs_one.push((flow.initial.0, flow.one_round.0));
        pairs_conv.push((flow.initial.0, flow.converged.0));
    }

    println!();
    println!(
        "Normalized geometric mean: one round {:.2}, convergence {:.2}  (paper: 0.68 / 0.56)",
        normalized_geomean(&pairs_one),
        normalized_geomean(&pairs_conv)
    );
    if !speedups.is_empty() {
        let mean = speedups.iter().sum::<f64>() / speedups.len() as f64;
        println!("Mean parallel speedup at {threads} threads: {mean:.2}x");
    }
    if let Some(path) = json_path_from_args(&args) {
        write_bench_json(&path, &records).expect("write --json output");
        println!("wrote {} records to {}", records.len(), path.display());
    }
    if !heavy {
        println!("(run with --heavy to include AES, DES, MD5, SHA-1, SHA-256)");
    }
}
