//! The `crypto` workload: the compile path, with no service.
//!
//! Four Table-2 circuits, each parsed from its Bristol text, run through
//! `run_job` with the `paper` flow, `JobSpec` defaults and a fresh
//! `OptContext` (a one-shot compile pays representative synthesis every
//! time), then written back with `write_bristol`. MD5 is a deep
//! adder-chain hash that the commit-time cycle check dominates; AES and
//! DES are S-box ciphers where classification dominates; Keccak is
//! already MC-optimal, so it is pure overhead. SHA-256 has MD5's shape at
//! about three times the run length, so it is left out.

use std::collections::HashMap;
use std::time::Instant;

use xag_affine::AffineClassifier;
use xag_circuits::{aes, des, hash, keccak, parse_circuit, CircuitFormat};
use xag_cuts::{enumerate_cuts, CutParams};
use xag_mc::{job_key, run_job, FlowSpec, JobSpec, OptContext};
use xag_network::{write_bristol, Xag};
use xag_synth::Synthesizer;
use xag_tt::FxHashSet;

use crate::report::{self, Outcome};
use crate::spans::Tracer;
use crate::{calibrate, checks, phases, stats, Opts};

/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 7;

struct Input {
    name: &'static str,
    text: String,
}

/// Generates and serializes the input set. The circuits are the
/// workload; the seed only seeds the answer checks' simulation.
fn generate() -> Vec<Input> {
    let circuits = [
        ("MD5", hash::md5()),
        ("AES (Key Expansion)", aes::aes128(false)),
        ("DES (No Key Expansion)", des::des(true)),
        ("Keccak-f[400]", keccak::keccak_f(16)),
    ];
    circuits
        .into_iter()
        .map(|(name, xag)| Input {
            name,
            text: bristol_text(&xag),
        })
        .collect()
}

fn bristol_text(xag: &Xag) -> String {
    let mut out = Vec::new();
    write_bristol(xag, &mut out).expect("writing to memory cannot fail");
    String::from_utf8(out).expect("the Bristol writer emits ASCII")
}

/// One compile's answer.
struct Answer {
    input: usize,
    netlist: Result<Vec<u8>, String>,
    counts: (usize, usize, usize, usize),
    rounds: usize,
}

pub fn run(opts: &Opts, tracer: &Tracer, process_start: Instant) -> Outcome {
    // A host-speed sample follows every setup, so `setup_s` is scaled by
    // the speed around the setups themselves. The compiles run one at a
    // time on this thread and leave no thread behind, so the kernel runs
    // next to them with no program thread alive.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut setup_slowdowns = Vec::with_capacity(SETUPS);
    let mut inputs = Vec::new();
    let mut setup_start = process_start;
    for _ in 0..SETUPS {
        inputs = generate();
        setups.push(setup_start.elapsed().as_secs_f64());
        setup_slowdowns.push(calibrate::slowdown(1));
        setup_start = Instant::now();
    }

    let spec = JobSpec {
        flow: "paper".parse::<FlowSpec>().expect("the paper alias parses"),
        ..JobSpec::default()
    };
    let phases_before = phases::Snapshot::take();
    let mut pass_times = Vec::new();
    let mut peak_rss_mb = 0.0;
    let mut latencies_ms = Vec::new();
    let mut answers: Vec<Answer> = Vec::new();
    let mut replay = Replay::default();
    let mut slowdowns = Vec::new();
    let timed = Instant::now();
    loop {
        let pass = pass_times.len();
        let mut pass_s = 0.0;
        for (i, input) in inputs.iter().enumerate() {
            slowdowns.push(calibrate::slowdown(1));
            let trace_id = (pass * inputs.len() + i + 1) as u64;
            let start = Instant::now();
            let job = tracer.open("compile", None, trace_id);
            let compiled = tracer
                .time("circuits.parse", job, trace_id, || {
                    parse_circuit(&input.text, Some(CircuitFormat::Bristol))
                })
                .map_err(|e| e.to_string())
                .map(|mut xag| {
                    let mut ctx = OptContext::new();
                    let result = tracer.time("core.run_job", job, trace_id, || {
                        run_job(&mut xag, &mut ctx, &spec)
                    });
                    let mut netlist = Vec::new();
                    tracer
                        .time("network.write", job, trace_id, || {
                            write_bristol(&xag, &mut netlist)
                        })
                        .map(|()| (result, netlist))
                        .map_err(|e| e.to_string())
                });
            tracer.close(job);
            let elapsed = start.elapsed().as_secs_f64();
            pass_s += elapsed;
            latencies_ms.push(elapsed * 1e3);
            answers.push(match compiled.and_then(|r| r) {
                Ok((result, netlist)) => Answer {
                    input: i,
                    netlist: Ok(netlist),
                    counts: (
                        result.ands_before,
                        result.ands_after,
                        result.depth_before,
                        result.depth_after,
                    ),
                    rounds: result.rounds,
                },
                Err(e) => Answer {
                    input: i,
                    netlist: Err(format!("{}: {e}", input.name)),
                    counts: (0, 0, 0, 0),
                    rounds: 0,
                },
            });
            // The round-one replay runs after the job, outside its spans.
            if tracer.on() && pass == 0 {
                replay.run(tracer, &input.text);
            }
        }
        pass_times.push(pass_s);
        if pass == 0 {
            peak_rss_mb = crate::peak_rss_mb();
        }
        if timed.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    slowdowns.push(calibrate::slowdown(1));
    let phases_delta = phases::Snapshot::take().since(&phases_before);
    let passes = pass_times.len() as f64;

    let mut outcome = Outcome {
        attempted: answers.len() as u64,
        slowdowns,
        setup_slowdowns,
        ..Outcome::default()
    };
    // Every answer is parsed back and checked against its input; later
    // passes must repeat the first pass byte for byte.
    let parsed_inputs: Vec<Xag> = inputs
        .iter()
        .map(|input| {
            parse_circuit(&input.text, Some(CircuitFormat::Bristol))
                .expect("the benchmark's own Bristol text parses")
        })
        .collect();
    let mut verdicts: HashMap<(usize, &[u8]), bool> = HashMap::new();
    for answer in &answers {
        let ok = match &answer.netlist {
            Ok(netlist) => *verdicts
                .entry((answer.input, netlist.as_slice()))
                .or_insert_with(|| {
                    tracer.time("network.equiv", None, 0, || {
                        checks::equivalent(&parsed_inputs[answer.input], netlist, opts.seed)
                    })
                }),
            Err(_) => false,
        };
        if !ok {
            outcome.failed += 1;
        }
    }
    for answer in &answers {
        if let Err(e) = &answer.netlist {
            outcome.problems.push(e.clone());
        }
    }
    for (i, input) in inputs.iter().enumerate() {
        let distinct = answers
            .iter()
            .filter(|a| a.input == i)
            .filter_map(|a| a.netlist.as_ref().ok())
            .collect::<FxHashSet<_>>()
            .len();
        if distinct > 1 {
            outcome.problems.push(format!(
                "{}: passes produced {distinct} different netlists",
                input.name
            ));
        }
    }

    let first_pass = &answers[..inputs.len()];
    let values = &mut outcome.values;
    values.set("setup_s", stats::median(&setups).expect("SETUPS > 0"));
    values.set(
        "flow_s",
        stats::median(&pass_times).expect("one pass at least"),
    );
    values.set(
        "jobs_per_s",
        answers.len() as f64 / pass_times.iter().sum::<f64>(),
    );
    values.set(
        "miss_p50_ms",
        stats::median(&latencies_ms).expect("one compile at least"),
    );
    let mc: Vec<(usize, usize)> = first_pass
        .iter()
        .map(|a| (a.counts.0, a.counts.1))
        .collect();
    let depth: Vec<(usize, usize)> = first_pass
        .iter()
        .map(|a| (a.counts.2, a.counts.3))
        .collect();
    values.set("mc_ratio", stats::geomean_ratio(&mc).expect("four answers"));
    values.set(
        "depth_ratio",
        stats::geomean_ratio(&depth).expect("four answers"),
    );
    values.set("peak_rss_mb", peak_rss_mb);

    if tracer.on() {
        let sum = |name: &str| tracer.self_times_s(name).iter().sum::<f64>();
        let mean_ms = |name: &str| stats::mean(&tracer.self_times_s(name)) * 1e3;
        for xag in &parsed_inputs {
            tracer.time("core.job_key", None, 0, || {
                job_key(xag, &spec.flow, spec.max_rounds)
            });
        }
        values.set("circuits.parse_ms", mean_ms("circuits.parse"));
        values.set("network.write_ms", mean_ms("network.write"));
        values.set("network.equiv_s", sum("network.equiv"));
        values.set("cuts.enum_s", sum("cuts.enum"));
        values.set("cuts.count", replay.cuts as f64);
        values.set("affine.classify_s", sum("affine.classify"));
        values.set("affine.hit_ratio", replay.hit_ratio());
        values.set("synth.synth_s", sum("synth.synthesize"));
        values.set("synth.classes", replay.classes as f64);
        let run_job_s = sum("core.run_job") / passes;
        values.set("core.run_job_s", run_job_s);
        phases_delta.set_core_values(values, passes);
        values.set(
            "core.rounds",
            answers.iter().map(|a| a.rounds).sum::<usize>() as f64 / passes,
        );
        values.set("core.job_key_ms", mean_ms("core.job_key"));
        for name in phases::SERVICE_ONLY {
            values.set(name, 0.0);
        }
        // The phase profile must account for the job: its self times
        // cover `run_job` up to the counting `run_job` does around them.
        let covered = phases_delta.total_self_s() / passes / run_job_s;
        outcome.meta("phase_self_over_run_job", covered);
        if (covered - 1.0).abs() > 0.05 {
            outcome.problems.push(format!(
                "core phase self times cover {covered:.3} of run_job, not 1 ± 0.05"
            ));
        }
    }
    outcome.meta("passes", pass_times.len());
    outcome.meta("setup_s_each", report::listed(&setups));
    outcome.meta("pass_s_each", report::listed(&pass_times));
    outcome.meta("miss_p50_samples", latencies_ms.len());
    outcome.meta(
        "circuits",
        inputs.iter().map(|i| i.name).collect::<Vec<_>>().join(", "),
    );
    outcome
}

/// Round one of the paper flow replayed through the library crates, to
/// time each layer on its own: `mc(cut=4)` cuts, the affine class of
/// every support-reduced cut function, and one synthesis per new class.
#[derive(Default)]
struct Replay {
    cuts: usize,
    hits: u64,
    lookups: u64,
    classes: usize,
}

impl Replay {
    fn run(&mut self, tracer: &Tracer, text: &str) {
        let xag = parse_circuit(text, Some(CircuitFormat::Bristol))
            .expect("the benchmark's own Bristol text parses");
        let params = CutParams {
            cut_size: 4,
            ..CutParams::default()
        };
        let sets = tracer.time("cuts.enum", None, 0, || enumerate_cuts(&xag, &params));
        self.cuts += sets.total();
        let mut classifier = AffineClassifier::new();
        let representatives = tracer.time("affine.classify", None, 0, || {
            let mut reps = Vec::new();
            let mut seen = FxHashSet::default();
            for (node, cuts) in sets.iter() {
                for (cut, &tt) in cuts.iter().zip(sets.functions_of(node)) {
                    if cut.size() < 2 || tt.is_constant() {
                        continue;
                    }
                    let (reduced, _) = tt.shrink_to_support();
                    if reduced.vars() == 0 || reduced.is_constant() {
                        continue;
                    }
                    let rep = classifier.classify(reduced).representative;
                    if seen.insert(rep) {
                        reps.push(rep);
                    }
                }
            }
            reps
        });
        let (hits, misses) = classifier.cache_stats();
        self.hits += hits;
        self.lookups += hits + misses;
        self.classes += representatives.len();
        let mut synth = Synthesizer::new();
        tracer.time("synth.synthesize", None, 0, || {
            for rep in &representatives {
                std::hint::black_box(synth.synthesize(*rep));
            }
        });
    }

    fn hit_ratio(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}
