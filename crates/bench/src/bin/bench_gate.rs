//! CI bench-regression gate: replays the benchmarks and holds the
//! results to the committed `BENCH_*.json` perf trajectory.
//!
//! Usage:
//!
//! ```text
//! bench_gate --baseline BENCH_24.json [--samples N] [--wall-tol F] [--ratio-tol F]
//! bench_gate --merge OUT.json IN1.json IN2.json ...
//! ```
//!
//! Gate mode replays
//!
//! * the full hot-path microbenchmark ([`xag_bench::hotpath::run_hotpath`],
//!   with the allocation guarantee asserted), and
//! * every row of Table 1 at reduced scale and of the light Table 2,
//!   through the same [`xag_bench::run_table1`] / [`xag_bench::run_table2`]
//!   the `table1` and `table2` binaries run, on one thread,
//!
//! then compares row by row ([`xag_bench::gate::compare`]): gate counts,
//! depths, cut totals, and allocation counts must match the baseline
//! **exactly** (the engine is deterministic — drift means a correctness
//! or quality regression, not noise), and every table row of the
//! baseline must be replayed; hot-path wall-clock times may not exceed
//! the baseline by more than `--wall-tol` (default 4×), and speedup
//! ratios may not fall below baseline divided by `--ratio-tol` (default
//! 2×). Table-row wall times are informational only (see
//! [`xag_bench::gate::is_table_row`]). Any violation prints one line and
//! the process exits nonzero; an unparsable option prints the usage and
//! exits with status 2.
//!
//! Merge mode concatenates several `--json` outputs (e.g. from `table1`,
//! `table2`, and `hotpath_bench`) into one committed trajectory file,
//! using the workspace's own JSON reader/writer so the result is
//! byte-stable.

use std::path::PathBuf;

use xag_bench::gate::{compare, read_bench_json, GateTolerance};
use xag_bench::hotpath::run_hotpath;
use xag_bench::{check_args, exit_usage, flag_value, run_table1, run_table2, write_bench_json};
use xag_circuits::epfl::Scale;

const USAGE: &str = "usage: bench_gate --baseline BENCH_24.json [--samples N] [--wall-tol F] [--ratio-tol F]\n       \
                     bench_gate --merge OUT.json IN1.json [IN2.json ...]";

fn main() {
    let args: Vec<String> = std::env::args().collect();

    if let Some(i) = args.iter().position(|a| a == "--merge") {
        // Everything after `--merge` is a path; nothing may come before.
        check_args(&args[..i], 0, &[], &[], USAGE);
        let paths: Vec<PathBuf> = args[i + 1..].iter().map(PathBuf::from).collect();
        let (out, inputs) = paths.split_first().unwrap_or_else(|| exit_usage(USAGE));
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

    check_args(
        &args,
        0,
        &[],
        &["--baseline", "--samples", "--wall-tol", "--ratio-tol"],
        USAGE,
    );
    let Some(baseline_path) = flag_value::<String>(&args, "--baseline", USAGE) else {
        exit_usage(USAGE)
    };
    let samples = flag_value(&args, "--samples", USAGE).unwrap_or(3);
    let defaults = GateTolerance::default();
    let tol = GateTolerance {
        wall_tolerance: flag_value(&args, "--wall-tol", USAGE).unwrap_or(defaults.wall_tolerance),
        ratio_tolerance: flag_value(&args, "--ratio-tol", USAGE)
            .unwrap_or(defaults.ratio_tolerance),
    };

    let baseline = read_bench_json(&PathBuf::from(&baseline_path)).unwrap_or_else(|e| {
        eprintln!("bench_gate: {e}");
        std::process::exit(2);
    });

    // Replay the hot-path microbenchmark with the allocation guarantee
    // asserted, then both tables on one thread, as the baseline was
    // recorded.
    let mut replay = run_hotpath(samples, true);
    replay.extend(run_table1(Scale::Reduced));
    replay.extend(run_table2(None));

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
