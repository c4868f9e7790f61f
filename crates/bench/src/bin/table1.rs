//! Regenerates the paper's Table 1 (EPFL benchmarks).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p xag-bench --bin table1 [--full] [--json PATH]
//! ```
//!
//! Without `--full` the suite runs at reduced word widths (seconds instead
//! of hours); the improvement *shape* — arithmetic benchmarks gaining far
//! more than random-control ones — is preserved at either scale. With
//! `--json PATH` a machine-readable record per row (counts/depth before
//! vs after convergence, wall time and its phase split) is written
//! alongside the printed table. The rows come from
//! [`xag_bench::run_table1`], which the bench gate replays too.

use xag_bench::{check_args, json_path_from_args, run_table1, write_bench_json};
use xag_circuits::epfl::Scale;

const USAGE: &str = "usage: table1 [--full] [--json PATH]";

fn main() {
    let args: Vec<String> = std::env::args().collect();
    check_args(&args, 0, &["--full"], &["--json"], USAGE);
    let scale = if args.iter().any(|a| a == "--full") {
        Scale::Full
    } else {
        Scale::Reduced
    };
    let records = run_table1(scale);
    if let Some(path) = json_path_from_args(&args) {
        write_bench_json(&path, &records).expect("write --json output");
        println!("wrote {} records to {}", records.len(), path.display());
    }
}
