//! Regenerates the paper's Table 1 (EPFL benchmarks).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p xag-bench --bin table1 [--full] [--threads N] [--json PATH]
//! ```
//!
//! Without `--full` the suite runs at reduced word widths (seconds instead
//! of hours); the improvement *shape* — arithmetic benchmarks gaining far
//! more than random-control ones — is preserved at either scale. With
//! `--threads N` every row additionally runs the sharded parallel engine
//! with one and with `N` workers and reports the (bit-identical) result
//! and the wall-clock speedup. With `--json PATH` a machine-readable
//! record per row (counts/depth before vs after convergence, wall time,
//! threads) is written alongside the printed table.

use xag_bench::{
    json_path_from_args, normalized_geomean, run_flow_threads, write_bench_json, TableRow,
};
use xag_circuits::epfl::{epfl_suite, Scale};
use xag_mc::OptContext;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let full = args.iter().any(|a| a == "--full");
    let threads: usize = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let scale = if full { Scale::Full } else { Scale::Reduced };
    let max_rounds = if full { 60 } else { 30 };

    println!("Table 1: EPFL benchmarks ({scale:?} scale)");
    println!("{}", TableRow::header());
    println!("{}", "-".repeat(TableRow::header().len()));

    let mut arith_pairs_one = Vec::new();
    let mut arith_pairs_conv = Vec::new();
    let mut ctrl_pairs_one = Vec::new();
    let mut ctrl_pairs_conv = Vec::new();

    // One context for the whole suite: representatives synthesized for one
    // benchmark are reused by every later one.
    let mut ctx = OptContext::new();
    let mut speedups = Vec::new();
    let mut records = Vec::new();
    for bench in epfl_suite(scale) {
        let flow = run_flow_threads(&mut ctx, &bench.xag, 2, max_rounds, threads);
        speedups.extend(flow.parallel.as_ref().map(|p| p.speedup()));
        records.extend(flow.records("table1", bench.name, &bench.xag, threads));
        let row = TableRow {
            name: bench.name.to_string(),
            inputs: bench.xag.num_inputs(),
            outputs: bench.xag.num_outputs(),
            flow: flow.clone(),
        };
        println!("{}", row.format());
        let one = (flow.initial.0, flow.one_round.0);
        let conv = (flow.initial.0, flow.converged.0);
        if bench.arithmetic {
            arith_pairs_one.push(one);
            arith_pairs_conv.push(conv);
        } else {
            ctrl_pairs_one.push(one);
            ctrl_pairs_conv.push(conv);
        }
    }

    println!();
    println!(
        "Normalized geometric mean (arithmetic):     one round {:.2}, convergence {:.2}  (paper: 0.60 / 0.49)",
        normalized_geomean(&arith_pairs_one),
        normalized_geomean(&arith_pairs_conv)
    );
    println!(
        "Normalized geometric mean (random-control): one round {:.2}, convergence {:.2}  (paper: 0.90 / 0.87)",
        normalized_geomean(&ctrl_pairs_one),
        normalized_geomean(&ctrl_pairs_conv)
    );
    if !speedups.is_empty() {
        let mean = speedups.iter().sum::<f64>() / speedups.len() as f64;
        println!("Mean parallel speedup at {threads} threads: {mean:.2}x");
    }
    if let Some(path) = json_path_from_args(&args) {
        write_bench_json(&path, &records).expect("write --json output");
        println!("wrote {} records to {}", records.len(), path.display());
    }
}
