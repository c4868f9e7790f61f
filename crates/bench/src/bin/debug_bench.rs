//! Developer tool: rewrite one named EPFL benchmark round by round with
//! verbose progress, to localize pathological behaviour.
//!
//! Over one shared [`OptContext`] it runs two `size(cut=6)` rounds, then
//! `mc(cut=6)` rounds until one applies nothing (at most 30), printing
//! each. This is not `run_flow`'s schedule, which runs
//! `{size(cut=4);size(cut=6)}*` for the baseline, then one `mc(cut=6)`
//! round for the "One round" column and `paper`
//! (`{mc(cut=4);mc(cut=6)}*`) from the same baseline, each as a whole
//! flow.
//!
//! Usage: `debug_bench [name] [--json PATH]` — with `--json PATH` one
//! before/after record of the whole phase trace is written.

use xag_bench::{
    check_args, exit_usage, json_path_from_args, write_bench_json, BenchRecord, PhaseTimes,
};
use xag_circuits::epfl::{epfl_suite, Scale};
use xag_mc::{FlowSpec, OptContext, PassStats};
use xag_network::Xag;

const USAGE: &str = "usage: debug_bench [name] [--json PATH]";

/// Runs the one-atom `flow` once and returns its pass statistics.
fn round(flow: &str, xag: &mut Xag, ctx: &mut OptContext) -> PassStats {
    let flow = FlowSpec::parse(flow).expect("valid spec");
    let mut stats = flow.run(xag, ctx, 1);
    stats.passes.remove(0)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    check_args(&args, 1, &[], &["--json"], USAGE);
    let name = args
        .get(1)
        .filter(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "div".into());
    let suite = epfl_suite(Scale::Reduced);
    let Some(bench) = suite.iter().find(|b| b.name == name) else {
        let known: Vec<&str> = suite.iter().map(|b| b.name).collect();
        eprintln!("unknown benchmark {name:?}; known: {}", known.join(", "));
        exit_usage(USAGE)
    };
    let mut xag = bench.xag.cleanup();
    println!(
        "{name}: {} AND {} XOR ({} nodes)",
        xag.num_ands(),
        xag.num_xors(),
        xag.capacity()
    );
    let (size_before, depth_before, mc_before) = (xag.num_gates(), xag.and_depth(), xag.num_ands());
    let t0 = std::time::Instant::now();
    let mut ctx = OptContext::new();
    let ((), phases) = PhaseTimes::measure(|| {
        println!("— size baseline —");
        for i in 0..2 {
            let s = round("size(cut=6)", &mut xag, &mut ctx);
            println!("size round {i}: {s} (capacity {})", xag.capacity());
        }
        xag = xag.cleanup();
        println!("— mc rewriting —");
        for i in 0..30 {
            let s = round("mc(cut=6)", &mut xag, &mut ctx);
            println!(
                "mc round {i}: {s} (capacity {}, db {})",
                xag.capacity(),
                ctx.db_size()
            );
            if s.rewrites_applied == 0 {
                break;
            }
        }
    });
    if let Some(path) = json_path_from_args(&args) {
        let record = BenchRecord {
            size_before,
            size_after: xag.num_gates(),
            depth_before,
            depth_after: xag.and_depth(),
            mc_before,
            mc_after: xag.num_ands(),
            wall_s: t0.elapsed().as_secs_f64(),
            // The phase trace above: two size-baseline rounds, then up
            // to 30 mc rounds (early-exit when a round applies nothing).
            flow: "size(cut=6)*2;mc(cut=6)*30".to_string(),
            phases,
            ..BenchRecord::new("debug_bench", &name)
        };
        write_bench_json(&path, std::slice::from_ref(&record)).expect("write --json output");
        println!("wrote 1 record to {}", path.display());
    }
}
