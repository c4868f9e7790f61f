//! Micro-benchmarks for the optimizer's hot path: cut enumeration, cut
//! functions, and classification.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p xag-bench --bin hotpath_bench [--alloc-check] [--json PATH]
//! ```
//!
//! For each workload (seeded fuzz networks, a reduced-lane Keccak-f, and
//! AES-128 — see [`xag_bench::hotpath::workloads`]) the binary times
//!
//! * `enum` — the current enumeration: dense arena, inline leaf arrays,
//!   and the fused one-sweep cut-function computation
//!   ([`xag_cuts::enumerate_cuts_for`] returns every cut *and* its truth
//!   table);
//! * `enum_legacy` — a faithful reimplementation of the pre-overhaul hot
//!   path ([`xag_cuts::legacy`]): `HashMap<NodeId, Vec<Cut>>`
//!   cut sets with heap-allocated leaf vectors, followed by a per-cut
//!   recursive cone traversal with a fresh `HashMap` memo per call;
//! * `speedup` — the median of the per-sample ratios of the two, timed
//!   interleaved sample by sample (recorded in `wall_s` of the JSON row,
//!   so the perf trajectory files carry the measured speedup, not just
//!   two absolute times), plus a `speedup/geomean` summary row;
//! * `classify_cold` / `classify_warm` — affine classification of the
//!   ≤4-input cut functions from a cold cache, then the pure cache-hit
//!   path, which is dominated by truth-table hashing;
//! * `classify_wide` — classification of the support-reduced five- and
//!   six-input cut functions from a cold cache: the beam search;
//! * `grow` / `grow_speedup` — cut-4 sets grown in place to cut 6
//!   ([`xag_cuts::CutSets::grow`], what a round after a commit-free cut-4
//!   round runs), and the median per-sample ratio of a fresh cut-6
//!   enumeration over it; the grown sets hold the same cut total as
//!   `enum`.
//!
//! Every run records how many heap allocations `enumerate_cuts_for`
//! performs (`allocs/*` rows); with `--alloc-check` it additionally
//! *asserts* the count stays O(log) in the number of cuts (vector
//! doubling only — zero allocations per cut), which is the overhaul's
//! allocation guarantee in executable form, and holds the growth to the
//! same budget.
//!
//! The measurement loop itself lives in [`xag_bench::hotpath::run_hotpath`],
//! shared with the `bench_gate` CI gate so the gate replays exactly what
//! the committed trajectory recorded.

use xag_bench::hotpath::run_hotpath;
use xag_bench::{check_args, json_path_from_args, write_bench_json};

const USAGE: &str = "usage: hotpath_bench [--alloc-check] [--json PATH]";

fn main() {
    let args: Vec<String> = std::env::args().collect();
    check_args(&args, 0, &["--alloc-check"], &["--json"], USAGE);
    let alloc_check = args.iter().any(|a| a == "--alloc-check");
    let records = run_hotpath(5, alloc_check);
    if let Some(path) = json_path_from_args(&args) {
        write_bench_json(&path, &records).expect("write bench json");
        println!("wrote {} records to {}", records.len(), path.display());
    }
}
