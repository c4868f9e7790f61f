//! One workload run of the benchmark, in a fresh process.
//!
//! ```text
//! mc-benchmark --workload <crypto|serve_mix|cluster_mix> --seed <n> --seconds <s>
//!              [--trace 1 --baseline-flow-s <s> --trace-out <path>]
//! mc-benchmark --calibrate <threads>
//! ```
//!
//! Untraced, it prints every end-to-end metric; traced, every per-layer
//! metric. Human-readable lines come first, then a `meta` line, then the
//! result line: one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. `run.py` builds this binary and drives it. With
//! `--calibrate`, it times the host-speed kernel once and prints the
//! seconds; workload runs start it that way as a child process.

mod calibrate;
mod checks;
mod crypto;
mod phases;
mod report;
mod service;
mod spans;
mod stats;

use std::path::PathBuf;
use std::time::Instant;

use report::{Outcome, END_TO_END, PER_LAYER};
use service::Tier;
use spans::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Crypto,
    ServeMix,
    ClusterMix,
}

/// Command-line options of one run.
#[derive(Debug)]
pub struct Opts {
    workload: Workload,
    pub seed: u64,
    /// Timed seconds: passes or rounds repeat until they add up to this.
    pub seconds: f64,
    trace: bool,
    /// The untraced run's `flow_s`, for the tracing overhead ratio.
    baseline_flow_s: Option<f64>,
    trace_out: Option<PathBuf>,
}

const USAGE: &str = "usage: mc-benchmark --workload <crypto|serve_mix|cluster_mix> --seed <n> \
                     --seconds <s> [--trace <0|1>] [--baseline-flow-s <s>] [--trace-out <path>]";

impl Opts {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Opts, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = false;
        let mut baseline_flow_s = None;
        let mut trace_out = None;
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(match value.as_str() {
                        "crypto" => Workload::Crypto,
                        "serve_mix" => Workload::ServeMix,
                        "cluster_mix" => Workload::ClusterMix,
                        _ => return Err(bad("unknown workload")),
                    })
                }
                "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad("expected seconds"))?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err(bad("expected positive seconds"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("expected 0 or 1")),
                    }
                }
                "--baseline-flow-s" => {
                    baseline_flow_s = Some(value.parse().map_err(|_| bad("expected seconds"))?)
                }
                "--trace-out" => trace_out = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let opts = Opts {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
            baseline_flow_s,
            trace_out,
        };
        if opts.trace && opts.baseline_flow_s.is_none() {
            return Err("--trace 1 needs --baseline-flow-s from an untraced run".into());
        }
        Ok(opts)
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

fn json_string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn main() {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, threads] = args.as_slice() {
        if flag == calibrate::FLAG {
            let threads = threads.parse().expect("--calibrate takes a thread count");
            println!("{:?}", calibrate::time_kernel(threads));
            return;
        }
    }
    let opts = match Opts::parse(args.into_iter()) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let tracer = Tracer::new(opts.trace);
    let (name, mut outcome): (&str, Outcome) = match opts.workload {
        Workload::Crypto => ("crypto", crypto::run(&opts, &tracer, process_start)),
        Workload::ServeMix => (
            "serve_mix",
            service::run(Tier::Serve, &opts, &tracer, process_start),
        ),
        Workload::ClusterMix => (
            "cluster_mix",
            service::run(Tier::Cluster, &opts, &tracer, process_start),
        ),
    };
    outcome.normalize_to_reference_host();
    let set = if opts.trace { PER_LAYER } else { END_TO_END };
    if let Some(baseline) = opts.baseline_flow_s {
        let traced = outcome
            .values
            .get("flow_s")
            .expect("every workload measures flow_s");
        outcome
            .values
            .set("obs.trace_overhead_ratio", traced / baseline);
    }
    if let Some(path) = opts.trace_out.as_deref().filter(|_| opts.trace) {
        match tracer.write(path, &mc_obs::trace_dump(None)) {
            Ok(()) => outcome.meta("trace_file", path.display()),
            Err(e) => outcome
                .problems
                .push(format!("writing {}: {e}", path.display())),
        }
    }

    println!(
        "workload {name} seed {} seconds {} trace {}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    print!("{}", report::render_table(set, &outcome.values));
    println!(
        "  {:<26} {:>16.6} {:<6} (failed / attempted = {} / {})",
        "fail_ratio",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        "ratio",
        outcome.failed,
        outcome.attempted
    );
    for problem in &outcome.problems {
        println!("problem: {problem}");
    }
    let available = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut meta = vec![
        ("workload".to_string(), name.to_string()),
        ("seed".to_string(), opts.seed.to_string()),
        ("available_parallelism".to_string(), available.to_string()),
    ];
    meta.append(&mut outcome.meta);
    let fields: Vec<String> = meta
        .iter()
        .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
        .collect();
    println!("meta {{{}}}", fields.join(", "));
    println!("{}", report::render_result(set, &outcome));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Opts, String> {
        Opts::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_a_full_command_line() {
        let opts = parse(&[
            "--workload",
            "serve_mix",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "0",
        ])
        .expect("valid");
        assert_eq!(opts.workload, Workload::ServeMix);
        assert_eq!((opts.seed, opts.seconds, opts.trace), (7, 20.0, false));
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(parse(&["--workload", "nope", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(parse(&["--workload", "crypto", "--seconds", "1"]).is_err());
        assert!(parse(&["--workload", "crypto", "--seed", "1", "--seconds", "0"]).is_err());
        assert!(parse(&[
            "--workload",
            "crypto",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "1"
        ])
        .is_err());
        assert!(parse(&["--workload", "crypto", "--seed"]).is_err());
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
