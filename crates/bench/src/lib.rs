//! Experiment harness for the DAC'19 reproduction.
//!
//! The [`experiment`] module runs the paper's flow on a benchmark circuit
//! as [`xag_mc::FlowSpec`] runs: generic size rewriting produces the
//! "Initial" column (the paper uses an ABC script; we use the unit-cost
//! rewriter), one `mc` round gives the "One round" columns, and the
//! `paper` flow runs until convergence ("Repeat until convergence"
//! columns). The `table1` and `table2` binaries print the corresponding
//! tables.
//!
//! The [`harness`] module is the workspace's dependency-free criterion
//! stand-in used by the targets under `benches/`. The [`hotpath`] module
//! holds the shared machinery of the hot-path microbenchmarks (workload
//! set, counting allocator), and [`gate`] the
//! comparator the `bench_gate` binary uses to hold every PR to the
//! committed `BENCH_*.json` perf trajectory.

pub mod experiment;
pub mod gate;
pub mod harness;
pub mod hotpath;

pub use experiment::{
    normalized_geomean, run_flow, run_flow_threads, run_flow_with, run_table1, run_table2,
    FlowResult, ParallelResult, TableRow,
};
pub use gate::{compare, read_bench_json, GateTolerance};
pub use harness::{
    exit_usage, flag_value, json_path_from_args, parse_arg, write_bench_json, BenchRecord,
    PhaseTimes,
};
