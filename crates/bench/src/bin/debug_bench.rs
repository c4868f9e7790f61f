//! Developer tool: run the experiment flow phases on one named EPFL
//! benchmark with verbose progress, to localize pathological behaviour.
//!
//! The phases are driven round by round — `size(cut=6)` for the
//! baseline, then `mc(cut=6)` rounds — over one shared [`OptContext`],
//! mirroring the stages `run_flow` runs as whole flows.
//!
//! Usage: `debug_bench [name] [--json PATH]` — with `--json PATH` one
//! before/after record of the whole phase trace is written.

use xag_bench::{
    check_args, exit_usage, json_path_from_args, logical_cores, write_bench_json, BenchRecord,
    PhaseTimes,
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
            bench: "debug_bench".to_string(),
            name: name.clone(),
            size_before,
            size_after: xag.num_gates(),
            depth_before,
            depth_after: xag.and_depth(),
            mc_before,
            mc_after: xag.num_ands(),
            wall_s: t0.elapsed().as_secs_f64(),
            threads: 1,
            logical_cores: logical_cores(),
            // The phase trace above: two size-baseline rounds, then up
            // to 30 mc rounds (early-exit when a round applies nothing).
            flow: "size(cut=6)*2;mc(cut=6)*30".to_string(),
            phases,
        };
        write_bench_json(&path, std::slice::from_ref(&record)).expect("write --json output");
        println!("wrote 1 record to {}", path.display());
    }
}
