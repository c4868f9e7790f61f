//! A minimal micro-benchmark harness (criterion stand-in, no external
//! dependencies).
//!
//! The bench targets under `benches/` are compiled with `harness = false`
//! and drive this module from their own `main`. Each measured function
//! runs once for warm-up and then `sample_size` timed iterations; the
//! report prints min / median / mean wall-clock times.
//!
//! The module also hosts the machine-readable side of the experiment
//! binaries: every bench bin accepts `--json <path>`
//! ([`json_path_from_args`]) and emits `BENCH_*.json`-style records
//! ([`BenchRecord`], [`write_bench_json`]) so the perf trajectory across
//! PRs can be consumed by tooling instead of scraped from tables.
//!
//! Environment knobs:
//!
//! * `MC_BENCH_SAMPLES` — overrides every group's sample size (e.g. `=3`
//!   for a smoke run).
//!
//! The bench binaries check their arguments with [`check_args`] and parse
//! their options with [`flag_value`] and [`parse_arg`]: an argument the
//! binary does not accept, or an unparsable value, prints the binary's
//! usage and exits with status 2 instead of being ignored or silently
//! falling back to a default.

use std::hint::black_box as std_black_box;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::time::{Duration, Instant};

use mc_serve::json::Json;

/// Opaque-value barrier, re-exported so bench targets don't reach into
/// `std::hint` themselves.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// A named collection of measurements with a shared sample size.
pub struct BenchGroup {
    name: String,
    sample_size: usize,
}

impl BenchGroup {
    /// Creates a group; `sample_size` defaults to 10 (or
    /// `MC_BENCH_SAMPLES`).
    pub fn new(name: &str) -> Self {
        let sample_size = samples_override().unwrap_or(10);
        println!("benchmark group: {name}");
        Self {
            name: name.to_string(),
            sample_size,
        }
    }

    /// Sets the number of timed iterations per function.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        if samples_override().is_none() {
            self.sample_size = n.max(1);
        }
        self
    }

    /// Measures `f`, printing one report line.
    pub fn bench_function<R>(&mut self, name: &str, f: impl FnMut() -> R) -> &mut Self {
        let _ = self.bench_function_timed(name, f);
        self
    }

    /// Measures `f` like [`BenchGroup::bench_function`] and returns the
    /// median sample, so callers can record it.
    pub fn bench_function_timed<R>(&mut self, name: &str, mut f: impl FnMut() -> R) -> Duration {
        let _ = std_black_box(f()); // warm-up, untimed
        let mut times: Vec<Duration> = (0..self.sample_size).map(|_| time(&mut f)).collect();
        self.report(name, &mut times)
    }

    /// Measures two functions interleaved, sample by sample: `f(0)` and
    /// `f(1)` each run once untimed, then `sample_size` times each, the
    /// side that goes first alternating between samples. Prints one line
    /// per side and one for `ratio_name`, and returns both medians with
    /// the median of the per-sample ratios `f(0) / f(1)`. The two times
    /// of a sample see the same host conditions, so a noisy stretch moves
    /// them together instead of moving one side's median alone.
    pub fn bench_ratio_timed<R>(
        &mut self,
        names: [&str; 2],
        ratio_name: &str,
        mut f: impl FnMut(usize) -> R,
    ) -> ([Duration; 2], f64) {
        self.bench_ratio_prepared(names, ratio_name, |_| (), |side, ()| f(side))
    }

    /// [`BenchGroup::bench_ratio_timed`] where each call `run(side, input)`
    /// takes an input `prepare(side)` builds untimed right before it, for
    /// a measurement that consumes what it works on.
    pub fn bench_ratio_prepared<S, R>(
        &mut self,
        names: [&str; 2],
        ratio_name: &str,
        mut prepare: impl FnMut(usize) -> S,
        mut run: impl FnMut(usize, S) -> R,
    ) -> ([Duration; 2], f64) {
        for side in [0, 1] {
            let input = prepare(side);
            let _ = std_black_box(run(side, input)); // warm-up, untimed
        }
        let mut times = [Vec::new(), Vec::new()];
        let mut ratios = Vec::new();
        for i in 0..self.sample_size {
            let mut sample = [Duration::ZERO; 2];
            for side in [i % 2, 1 - i % 2] {
                let input = prepare(side);
                sample[side] = time(|| run(side, input));
            }
            times[0].push(sample[0]);
            times[1].push(sample[1]);
            ratios.push(ratio(sample[0], sample[1]));
        }
        let medians = [
            self.report(names[0], &mut times[0]),
            self.report(names[1], &mut times[1]),
        ];
        ratios.sort_unstable_by(f64::total_cmp);
        let median_ratio = ratios[ratios.len() / 2];
        println!(
            "  {:<32} {median_ratio:.2}x (median of {} per-sample ratios)",
            format!("{}/{}", self.name, ratio_name),
            ratios.len()
        );
        (medians, median_ratio)
    }

    /// Prints one report line for `times` and returns their median.
    fn report(&self, name: &str, times: &mut [Duration]) -> Duration {
        times.sort_unstable();
        let min = times[0];
        let median = times[times.len() / 2];
        let mean = times.iter().sum::<Duration>() / times.len() as u32;
        println!(
            "  {:<32} min {:>10.3?}  median {:>10.3?}  mean {:>10.3?}  ({} samples)",
            format!("{}/{}", self.name, name),
            min,
            median,
            mean,
            times.len()
        );
        median
    }

    /// Ends the group (parity with the criterion API; prints a blank
    /// line).
    pub fn finish(&mut self) {
        println!();
    }
}

/// Wall time of one call of `f`.
fn time<R>(f: impl FnOnce() -> R) -> Duration {
    let t0 = Instant::now();
    let _ = std_black_box(f());
    t0.elapsed()
}

/// `numerator / denominator`, or 1 when the denominator is zero.
fn ratio(numerator: Duration, denominator: Duration) -> f64 {
    if denominator.as_nanos() > 0 {
        numerator.as_secs_f64() / denominator.as_secs_f64()
    } else {
        1.0
    }
}

/// The `MC_BENCH_SAMPLES` override, when set.
fn samples_override() -> Option<usize> {
    let value = std::env::var("MC_BENCH_SAMPLES").ok()?;
    Some(parse_arg(
        &value,
        "MC_BENCH_SAMPLES",
        "usage: MC_BENCH_SAMPLES=N (timed iterations per benchmark)",
    ))
}

/// Prints `usage` to stderr and exits with status 2.
pub fn exit_usage(usage: &str) -> ! {
    eprintln!("{usage}");
    std::process::exit(2)
}

/// Parses `value`, the argument named `what`; an unparsable value prints
/// `usage` and exits with status 2.
pub fn parse_arg<T: FromStr>(value: &str, what: &str, usage: &str) -> T {
    value.parse().unwrap_or_else(|_| {
        eprintln!("invalid {what}: {value:?}");
        exit_usage(usage)
    })
}

/// Checks `args` (index 0, the binary, excluded) against what a binary
/// takes: at most `positional` bare arguments, all before the first flag,
/// the value-less `switches` and the one-value `options`. Anything else —
/// an unknown flag, a surplus or late bare argument, an option without
/// its value — prints `usage` and exits with status 2.
pub fn check_args(
    args: &[String],
    positional: usize,
    switches: &[&str],
    options: &[&str],
    usage: &str,
) {
    if let Some(error) = arg_error(args, positional, switches, options) {
        eprintln!("{error}");
        exit_usage(usage)
    }
}

/// The first argument [`check_args`] refuses, described for the usage
/// error; `None` when the binary takes them all.
fn arg_error(
    args: &[String],
    positional: usize,
    switches: &[&str],
    options: &[&str],
) -> Option<String> {
    let mut bare = 0;
    let mut flagged = false;
    let mut rest = args.iter().skip(1);
    while let Some(arg) = rest.next() {
        if options.contains(&arg.as_str()) {
            if rest.next().is_none() {
                return Some(format!("{arg} needs a value"));
            }
            flagged = true;
        } else if switches.contains(&arg.as_str()) {
            flagged = true;
        } else if arg.starts_with("--") || flagged || bare == positional {
            return Some(format!("unexpected argument: {arg}"));
        } else {
            bare += 1;
        }
    }
    None
}

/// The value of `flag` in `args` parsed as `T`; `None` when the flag is
/// absent. A flag without a value or with an unparsable one prints
/// `usage` and exits with status 2.
pub fn flag_value<T: FromStr>(args: &[String], flag: &str, usage: &str) -> Option<T> {
    let i = args.iter().position(|a| a == flag)?;
    let Some(value) = args.get(i + 1) else {
        eprintln!("{flag} needs a value");
        exit_usage(usage)
    };
    Some(parse_arg(value, flag, usage))
}

/// One machine-readable benchmark record: the metrics every experiment
/// binary can report uniformly (gate counts are totals, `mc_*` is the
/// AND count — the paper's objective — and `depth_*` the multiplicative
/// depth). Emitters build every row from [`BenchRecord::new`]; binaries
/// for which a field is meaningless keep its default and say so in their
/// docs.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// The bench the row belongs to: the emitting binary (`table1`,
    /// `serve_bench`, …), or `cluster_bench` for the rows of
    /// `serve_bench --backends`.
    pub bench: String,
    /// The row within the binary (benchmark name, phase, …).
    pub name: String,
    /// Total gates before optimization.
    pub size_before: usize,
    /// Total gates after optimization.
    pub size_after: usize,
    /// Multiplicative depth before optimization.
    pub depth_before: usize,
    /// Multiplicative depth after optimization.
    pub depth_after: usize,
    /// AND gates (multiplicative complexity) before optimization.
    pub mc_before: usize,
    /// AND gates after optimization.
    pub mc_after: usize,
    /// Wall-clock seconds of the measured work.
    pub wall_s: f64,
    /// Concurrent clients of a `serve_bench` row, or backends of a
    /// `cluster_bench` row; 1 on every other row.
    pub threads: usize,
    /// Logical cores of the recording host, as
    /// [`std::thread::available_parallelism`] reports them, so that
    /// `threads` and the speedup rows can be read; 0 when it cannot tell,
    /// and in files recorded before rows carried it (`BENCH_17.json` and
    /// older). Informational: the bench gate never compares it.
    pub logical_cores: usize,
    /// The normalized FlowSpec the record measured
    /// (`xag_mc::FlowSpec::normalized`), so rows from custom `--flow`
    /// runs are distinguishable and reproducible; empty for records that
    /// measure no flow (e.g. `db_stats`).
    pub flow: String,
    /// Where the measured run spent its time, by rewriting phase; zero
    /// for records that run no flow and for the service benches, whose
    /// `wall_s` times a stream of requests rather than one run.
    pub phases: PhaseTimes,
}

/// Self times, in seconds, of the rewriting round's named `mc_obs::prof`
/// phases during one measured run, each summed over every profile path
/// that ends in it. Informational: the bench gate never compares them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimes {
    /// Cut enumeration with the fused cut functions (`cut_enum`).
    pub cut_enum_s: f64,
    /// The MFFC bound, candidate lookup and gain estimation of every cut,
    /// outside the two phases below (`propose`).
    pub propose_s: f64,
    /// Affine classification of the cut functions the round's candidate
    /// memo misses (`classify`, inside `propose`); 0 in files recorded
    /// before rows carried it (`BENCH_18.json` and older).
    pub classify_s: f64,
    /// Synthesis of representatives the database misses (`synth`, inside
    /// `propose`); 0 in files recorded before rows carried it.
    pub synth_s: f64,
    /// Re-validation and application of the proposals
    /// (`commit_validate`).
    pub commit_validate_s: f64,
}

impl PhaseTimes {
    /// Runs `run` on a cleared profile (`mc_obs::prof::reset`) and returns
    /// its result with the phase self times it recorded. Every phase must
    /// have ended when `run` returns, which holds for whole flow runs.
    pub fn measure<R>(run: impl FnOnce() -> R) -> (R, PhaseTimes) {
        mc_obs::prof::reset();
        let out = run();
        let mut times = PhaseTimes::default();
        for p in mc_obs::prof::snapshot() {
            let slot = match p.path.rsplit(';').next() {
                Some("cut_enum") => &mut times.cut_enum_s,
                Some("propose") => &mut times.propose_s,
                Some("classify") => &mut times.classify_s,
                Some("synth") => &mut times.synth_s,
                Some("commit_validate") => &mut times.commit_validate_s,
                _ => continue,
            };
            *slot += p.self_us as f64 / 1e6;
        }
        (out, times)
    }
}

/// Extracts the `--json <path>` argument the five experiment binaries
/// share; `None` when absent.
pub fn json_path_from_args(args: &[String]) -> Option<PathBuf> {
    args.iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
}

impl BenchRecord {
    /// Row `name` of `bench` with what every row carries: this host's
    /// logical cores, `threads` 1, zero counts and wall time, no flow and
    /// zero phases. Emitters set the rest with struct update syntax.
    pub fn new(bench: &str, name: impl Into<String>) -> Self {
        Self {
            bench: bench.to_string(),
            name: name.into(),
            size_before: 0,
            size_after: 0,
            depth_before: 0,
            depth_after: 0,
            mc_before: 0,
            mc_after: 0,
            wall_s: 0.0,
            threads: 1,
            logical_cores: std::thread::available_parallelism()
                .map_or(0, std::num::NonZeroUsize::get),
            flow: String::new(),
            phases: PhaseTimes::default(),
        }
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("bench".to_string(), Json::from(self.bench.as_str())),
            ("name".to_string(), Json::from(self.name.as_str())),
            ("size_before".to_string(), Json::from(self.size_before)),
            ("size_after".to_string(), Json::from(self.size_after)),
            ("depth_before".to_string(), Json::from(self.depth_before)),
            ("depth_after".to_string(), Json::from(self.depth_after)),
            ("mc_before".to_string(), Json::from(self.mc_before)),
            ("mc_after".to_string(), Json::from(self.mc_after)),
            ("wall_s".to_string(), Json::from(self.wall_s)),
            ("threads".to_string(), Json::from(self.threads)),
            ("logical_cores".to_string(), Json::from(self.logical_cores)),
            ("flow".to_string(), Json::from(self.flow.as_str())),
            ("cut_enum_s".to_string(), Json::from(self.phases.cut_enum_s)),
            ("propose_s".to_string(), Json::from(self.phases.propose_s)),
            ("classify_s".to_string(), Json::from(self.phases.classify_s)),
            ("synth_s".to_string(), Json::from(self.phases.synth_s)),
            (
                "commit_validate_s".to_string(),
                Json::from(self.phases.commit_validate_s),
            ),
        ])
    }
}

/// Writes the records as a JSON array of objects (the `BENCH_*.json`
/// shape), one record per line for diff-friendliness. Serialization goes
/// through [`mc_serve::json`] — the workspace's one JSON writer.
///
/// # Errors
///
/// Propagates file I/O errors.
pub fn write_bench_json(path: &Path, records: &[BenchRecord]) -> std::io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    writeln!(file, "[")?;
    for (i, r) in records.iter().enumerate() {
        let sep = if i + 1 == records.len() { "" } else { "," };
        writeln!(file, "  {}{sep}", r.to_json().encode())?;
    }
    writeln!(file, "]")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_and_reports() {
        let mut g = BenchGroup::new("test");
        g.sample_size(2);
        let mut calls = 0usize;
        g.bench_function("noop", || {
            calls += 1;
            black_box(calls)
        });
        // 1 warm-up + 2 samples.
        assert_eq!(calls, 3);
        g.finish();
    }

    #[test]
    fn ratio_samples_interleave_and_alternate() {
        let mut g = BenchGroup::new("test");
        g.sample_size(3);
        let mut calls = Vec::new();
        let (_, ratio) = g.bench_ratio_timed(["a", "b"], "a/b", |side| calls.push(side));
        // Warm-up of both, then one of each per sample, first side
        // alternating.
        assert_eq!(calls, [0, 1, 0, 1, 1, 0, 0, 1]);
        assert!(ratio.is_finite());
        g.finish();
    }

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn json_arg_extraction() {
        let args = strings(&["table1", "--full", "--json", "out.json"]);
        assert_eq!(json_path_from_args(&args), Some(PathBuf::from("out.json")));
        assert_eq!(json_path_from_args(&args[..2]), None);
        let dangling = strings(&["--json"]);
        assert_eq!(json_path_from_args(&dangling), None);
        // `table1` takes these arguments, but refuses an unknown flag and
        // the removed thread knob by name, a bare argument, and an option
        // without its value.
        let table1 = |args: &[String]| arg_error(args, 0, &["--full"], &["--json"]);
        assert_eq!(table1(&args), None);
        for flag in ["--bogus", "--threads"] {
            let error = table1(&strings(&["table1", flag, "4"])).expect("refused");
            assert!(error.contains(flag), "{error}");
        }
        assert!(table1(&strings(&["table1", "4"])).is_some());
        assert!(table1(&strings(&["table1", "--json"])).is_some());
        // Bare arguments come first, at most as many as the binary takes:
        // `debug_adder` takes two and no longer a thread count.
        let adder = |args: &[&str]| arg_error(&strings(args), 2, &[], &["--json"]);
        assert_eq!(adder(&["debug_adder", "8", "4", "--json", "a.json"]), None);
        assert!(adder(&["debug_adder", "8", "4", "1"]).is_some());
        assert!(adder(&["debug_adder", "--json", "a.json", "8"]).is_some());
    }

    #[test]
    fn bench_json_is_valid_and_complete() {
        let dir = std::env::temp_dir().join(format!("mc-bench-json-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("records.json");
        let records = vec![
            BenchRecord {
                bench: "table1".to_string(),
                name: "adder \"quoted\"".to_string(),
                size_before: 160,
                size_after: 120,
                depth_before: 32,
                depth_after: 30,
                mc_before: 94,
                mc_after: 32,
                wall_s: 1.25,
                threads: 4,
                logical_cores: 8,
                flow: "{mc(cut=4);mc(cut=6)}*".to_string(),
                phases: PhaseTimes {
                    cut_enum_s: 0.25,
                    propose_s: 0.5,
                    classify_s: 0.375,
                    synth_s: 0.0625,
                    commit_validate_s: 0.125,
                },
            },
            BenchRecord {
                bench: "table1".to_string(),
                name: "bar".to_string(),
                size_before: 1,
                size_after: 1,
                depth_before: 0,
                depth_after: 0,
                mc_before: 0,
                mc_after: 0,
                wall_s: 0.0,
                threads: 1,
                logical_cores: 0,
                flow: String::new(),
                phases: PhaseTimes::default(),
            },
        ];
        write_bench_json(&path, &records).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.trim_start().starts_with('['));
        assert!(text.trim_end().ends_with(']'));
        assert_eq!(text.matches("\"bench\"").count(), 2);
        assert!(text.contains("\\\"quoted\\\""));
        assert!(text.contains("\"mc_after\":32"));
        assert!(text.contains("\"wall_s\":1.25"));
        assert!(text.contains("\"flow\":\"{mc(cut=4);mc(cut=6)}*\""));
        assert!(text.contains("\"propose_s\":0.5"));
        assert!(text.contains("\"classify_s\":0.375"));
        assert!(text.contains("\"synth_s\":0.0625"));
        assert!(text.contains("\"commit_validate_s\":0.125"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
