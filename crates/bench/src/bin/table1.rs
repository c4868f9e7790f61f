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
//! threads) is written alongside the printed table. The rows come from
//! [`xag_bench::run_table1`], which the bench gate replays too.

use xag_bench::{flag_value, json_path_from_args, run_table1, write_bench_json};
use xag_circuits::epfl::Scale;

const USAGE: &str = "usage: table1 [--full] [--threads N] [--json PATH]";

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = if args.iter().any(|a| a == "--full") {
        Scale::Full
    } else {
        Scale::Reduced
    };
    let threads = flag_value(&args, "--threads", USAGE).unwrap_or(1);
    let records = run_table1(scale, threads);
    if let Some(path) = json_path_from_args(&args) {
        write_bench_json(&path, &records).expect("write --json output");
        println!("wrote {} records to {}", records.len(), path.display());
    }
}
