//! CI bench-regression gate: replays a fast subset of the benchmarks and
//! holds the results to the committed `BENCH_*.json` perf trajectory.
//!
//! Usage:
//!
//! ```text
//! bench_gate --baseline BENCH_6.json [--samples N] [--wall-tol F] [--ratio-tol F] [--skip-table1]
//! bench_gate --merge OUT.json IN1.json IN2.json ...
//! ```
//!
//! Gate mode replays
//!
//! * the full hot-path microbenchmark ([`xag_bench::hotpath::run_hotpath`],
//!   with the allocation guarantee asserted), and
//! * a two-benchmark subset of Table 1 (`adder`, `int2float` at reduced
//!   scale) through the same flow the `table1` binary records,
//!
//! then compares row by row ([`xag_bench::gate::compare`]): gate counts,
//! depths, cut totals, and allocation counts must match the baseline
//! **exactly** (the engine is deterministic — drift means a correctness
//! or quality regression, not noise); hot-path wall-clock times may not
//! exceed the baseline by more than `--wall-tol` (default 4×), and
//! speedup ratios may not fall below baseline divided by `--ratio-tol`
//! (default 2×). Table-row wall times are informational only — their
//! baseline comes from a warm full-suite run (see
//! [`xag_bench::gate::is_table_row`]). Any violation prints one line
//! and the process exits nonzero.
//!
//! Merge mode concatenates several `--json` outputs (e.g. from `table1`,
//! `table2`, and `hotpath_bench`) into one committed trajectory file,
//! using the workspace's own JSON reader/writer so the result is
//! byte-stable.

use std::path::PathBuf;

use xag_bench::gate::{compare, read_bench_json, GateTolerance};
use xag_bench::hotpath::run_hotpath;
use xag_bench::{run_flow_threads, write_bench_json};
use xag_circuits::epfl::{epfl_suite, Scale};
use xag_mc::OptContext;

/// The Table 1 rows the gate replays: small enough for CI, and covering
/// one arithmetic and one random-control benchmark.
const TABLE1_SUBSET: &[&str] = &["adder", "int2float"];

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();

    if let Some(i) = args.iter().position(|a| a == "--merge") {
        let paths: Vec<PathBuf> = args[i + 1..].iter().map(PathBuf::from).collect();
        let (out, inputs) = paths.split_first().unwrap_or_else(|| {
            eprintln!("usage: bench_gate --merge OUT.json IN1.json [IN2.json ...]");
            std::process::exit(2);
        });
        let mut records = Vec::new();
        for input in inputs {
            let part = read_bench_json(input).unwrap_or_else(|e| {
                eprintln!("bench_gate: {e}");
                std::process::exit(2);
            });
            println!("merged {} records from {}", part.len(), input.display());
            records.extend(part);
        }
        write_bench_json(out, &records).expect("write merged bench json");
        println!("wrote {} records to {}", records.len(), out.display());
        return;
    }

    let Some(baseline_path) = flag_value(&args, "--baseline") else {
        eprintln!("usage: bench_gate --baseline BENCH_6.json [--samples N] [--wall-tol F] [--ratio-tol F] [--skip-table1]");
        std::process::exit(2);
    };
    let samples: usize = flag_value(&args, "--samples")
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);
    let tol = GateTolerance {
        wall_tolerance: flag_value(&args, "--wall-tol")
            .and_then(|v| v.parse().ok())
            .unwrap_or(4.0),
        ratio_tolerance: flag_value(&args, "--ratio-tol")
            .and_then(|v| v.parse().ok())
            .unwrap_or(2.0),
    };

    let baseline = read_bench_json(&PathBuf::from(&baseline_path)).unwrap_or_else(|e| {
        eprintln!("bench_gate: {e}");
        std::process::exit(2);
    });

    // Replay the hot-path microbenchmark with the allocation guarantee
    // asserted.
    let mut replay = run_hotpath(samples, true);

    // Replay the Table 1 subset through the same flow `table1` records.
    // Determinism makes the counts comparable to a full-suite baseline
    // run: context cache state and thread counts never change results.
    if !args.iter().any(|a| a == "--skip-table1") {
        let mut ctx = OptContext::new();
        for bench in epfl_suite(Scale::Reduced) {
            if !TABLE1_SUBSET.contains(&bench.name) {
                continue;
            }
            let flow = run_flow_threads(&mut ctx, &bench.xag, 2, 30, 1);
            println!(
                "table1/{}: {} -> {} ANDs in {:.2}s",
                bench.name, flow.initial.0, flow.converged.0, flow.converged.2
            );
            replay.extend(flow.records("table1", bench.name, &bench.xag, 1));
        }
    }

    let violations = compare(&baseline, &replay, tol);
    if violations.is_empty() {
        println!(
            "bench gate: {} rows checked against {baseline_path} — OK",
            replay.len()
        );
    } else {
        eprintln!("bench gate: {} violation(s):", violations.len());
        for v in &violations {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }
}
