//! Developer tool: trace per-round AND counts while optimizing a ripple
//! adder, to inspect convergence behaviour.
//!
//! Usage: `debug_adder [bits] [cut_size] [threads] [--json PATH]`
//!
//! The flow is the paper's cut schedule up to `cut_size`
//! (`{mc(cut=4);mc(cut=N)}*`, or `mc(cut=N)*` for `N <= 4`). With
//! `--json PATH` one before/after record of the run is written.

use xag_bench::{
    exit_usage, json_path_from_args, parse_arg, write_bench_json, BenchRecord, PhaseTimes,
};
use xag_circuits::arith::{add_ripple, input_word, output_word};
use xag_mc::{FlowSpec, OptContext};
use xag_network::{Signal, Xag};

const USAGE: &str = "usage: debug_adder [bits] [cut_size] [threads] [--json PATH]";

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    // Positional arguments end at the first option.
    let positional: Vec<&String> = argv[1..]
        .iter()
        .take_while(|a| !a.starts_with("--"))
        .collect();
    let names = ["bits", "cut_size", "threads"];
    if positional.len() > names.len() {
        exit_usage(USAGE);
    }
    let arg = |i: usize, default: usize| -> usize {
        positional
            .get(i)
            .map_or(default, |v| parse_arg(v, names[i], USAGE))
    };
    let bits = arg(0, 16);
    let cut_size = arg(1, 6);
    let threads = arg(2, 1);

    let mut x = Xag::new();
    let a = input_word(&mut x, bits);
    let b = input_word(&mut x, bits);
    let (s, c) = add_ripple(&mut x, &a, &b, Signal::CONST0);
    output_word(&mut x, &s);
    x.output(c);
    println!("initial: {} AND {} XOR", x.num_ands(), x.num_xors());
    let (size_before, depth_before, mc_before) = (x.num_gates(), x.and_depth(), x.num_ands());

    let text = if cut_size > 4 {
        format!("{{mc(cut=4);mc(cut={cut_size})}}*")
    } else {
        format!("mc(cut={cut_size})*")
    };
    let flow = FlowSpec::parse(&text).unwrap_or_else(|e| {
        eprintln!("debug_adder: {e}");
        std::process::exit(2);
    });
    println!("flow: {flow}");

    let mut ctx = OptContext::new();
    let (stats, phases) = PhaseTimes::measure(|| flow.run(&mut x, &mut ctx, threads, 100));
    for (i, r) in stats.passes.iter().enumerate() {
        println!("round {i}: {r}");
    }
    println!("per-pass totals:");
    for p in stats.per_pass() {
        println!(
            "  {:<18} {} runs | {} ANDs saved | {} XORs saved | {} rewrites | {:.2}s",
            p.name,
            p.runs,
            p.ands_saved,
            p.xors_saved,
            p.rewrites_applied,
            p.elapsed.as_secs_f64()
        );
    }
    println!("final: {} AND {} XOR ({stats})", x.num_ands(), x.num_xors());
    if let Some(path) = json_path_from_args(&argv) {
        let record = BenchRecord {
            bench: "debug_adder".to_string(),
            name: format!("adder{bits}"),
            size_before,
            size_after: x.num_gates(),
            depth_before,
            depth_after: x.and_depth(),
            mc_before,
            mc_after: x.num_ands(),
            wall_s: stats.total_time().as_secs_f64(),
            threads,
            flow: flow.normalized(),
            phases,
        };
        write_bench_json(&path, std::slice::from_ref(&record)).expect("write --json output");
        println!("wrote 1 record to {}", path.display());
    }
}
