//! Regenerates the paper's Table 2 (MPC/FHE benchmarks).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p xag-bench --bin table2 [--heavy] [--rounds N] [--json PATH]
//! ```
//!
//! Without `--heavy` only the arithmetic rows run (adders, multiplier,
//! comparators — seconds). With `--heavy` the block ciphers and hash
//! functions are included; `--rounds N` caps the until-convergence loop on
//! those (default 3; the paper let them run to full convergence on a Xeon,
//! spending hours on SHA-256). With `--json PATH` a machine-readable
//! record per row is written alongside the printed table. The rows come from [`xag_bench::run_table2`],
//! which the bench gate replays too.

use xag_bench::{check_args, flag_value, json_path_from_args, run_table2, write_bench_json};

const USAGE: &str = "usage: table2 [--heavy] [--rounds N] [--json PATH]";

fn main() {
    let args: Vec<String> = std::env::args().collect();
    check_args(&args, 0, &["--heavy"], &["--rounds", "--json"], USAGE);
    let heavy = args.iter().any(|a| a == "--heavy");
    let rounds = flag_value(&args, "--rounds", USAGE).unwrap_or(3);
    let records = run_table2(heavy.then_some(rounds));
    if let Some(path) = json_path_from_args(&args) {
        write_bench_json(&path, &records).expect("write --json output");
        println!("wrote {} records to {}", records.len(), path.display());
    }
    if !heavy {
        println!("(run with --heavy to include AES, DES, MD5, SHA-1, SHA-256)");
    }
}
