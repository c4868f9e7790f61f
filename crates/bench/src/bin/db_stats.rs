//! Database and classification statistics (paper §4.1).
//!
//! The paper precomputes `XAG_DB`, one MC-optimum circuit per affine class
//! representative (147 998 of the 150 357 six-variable classes). This
//! reproduction synthesizes entries on demand into the shared
//! [`OptContext`]; this tool reports what the lazily built database looks
//! like after classifying a function sample: entry count, the AND-gate
//! histogram per classified function, and the AND-gate histogram of the
//! distinct database entries.
//!
//! Usage: `cargo run --release -p xag-bench --bin db_stats [samples] [--json PATH]`
//!
//! With `--json PATH` one record is written: `size_before` is the number
//! of functions classified, `size_after` the resulting database entry
//! count (the depth/mc fields do not apply to this tool and are 0).

use xag_bench::{check_args, json_path_from_args, parse_arg, write_bench_json, BenchRecord};
use xag_mc::OptContext;
use xag_tt::Tt;

const USAGE: &str = "usage: db_stats [samples] [--json PATH]";

/// The deterministic sample stream: `(truth table index i) → function`.
fn sample(i: usize) -> Tt {
    let mut state = 0x853c_49e6_748f_ea9bu64;
    state = state
        .rotate_left(23)
        .wrapping_mul(0x2545_f491_4f6c_dd1d)
        .wrapping_add(i as u64);
    // Mix the index in properly so samples differ without a running state.
    state ^= (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let vars = 4 + (i % 3); // 4, 5, 6
    Tt::from_bits(state.rotate_left((i % 64) as u32), vars)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    check_args(&args, 1, &[], &["--json"], USAGE);
    let samples = args
        .get(1)
        .filter(|a| !a.starts_with("--"))
        .map_or(2_000, |v| parse_arg(v, "sample count", USAGE));

    let mut ctx = OptContext::new();
    let t0 = std::time::Instant::now();

    // Exhaustive over ≤3-variable functions, then pseudo-random wider ones.
    let mut histogram = std::collections::BTreeMap::<usize, usize>::new();
    let functions = (0..256u64)
        .map(|bits| Tt::from_bits(bits, 3))
        .chain((0..samples).map(sample));
    for f in functions {
        let frag = ctx.candidate_for_cut(f);
        *histogram.entry(frag.num_ands()).or_insert(0) += 1;
    }

    println!("functions classified : {}", 256 + samples);
    println!("database entries     : {}", ctx.db_size());
    println!("entry AND histogram (per classified function):");
    for (ands, count) in &histogram {
        println!("  {ands:>2} AND gates: {count}");
    }
    println!("entry AND histogram (distinct database entries):");
    for (ands, count) in ctx.db_histogram() {
        println!("  {ands:>2} AND gates: {count}");
    }
    println!();
    println!(
        "(the paper's precomputed XAG_DB holds 147 998 representatives in a \
         2 339 563-node XAG; this database is lazy, so it only holds what \
         the run touched)"
    );
    if let Some(path) = json_path_from_args(&args) {
        // db_stats measures classification, not a flow.
        let record = BenchRecord {
            size_before: 256 + samples,
            size_after: ctx.db_size(),
            wall_s: t0.elapsed().as_secs_f64(),
            ..BenchRecord::new("db_stats", format!("classify-{samples}"))
        };
        write_bench_json(&path, std::slice::from_ref(&record)).expect("write --json output");
        println!("wrote 1 record to {}", path.display());
    }
}
