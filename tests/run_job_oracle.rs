//! Recorded outcomes of the job API, line for line.
//!
//! `tests/golden/run_job_oracle.txt` holds one line per case:
//! `spec  seed  max_rounds  ANDs  XORs  depth  rounds  converged  fnv`,
//! tab-separated, where `fnv` is the FNV-1a fingerprint
//! ([`fingerprint`]) of the optimized network's Verilog netlist. The
//! cases are the three canonical aliases on the twelve `hotpath_equiv`
//! fuzz networks, plus 40 specs drawn from the shared spec sampler with
//! a fixed seed, each on four more fuzz networks and once more under a
//! three-pass budget that cuts most of them short. The file is data, not a snapshot this suite refreshes:
//! any change to what `run_job` returns — gate counts, depth, or a
//! single byte of the netlist — fails here, so a refactor of the engine
//! or the flow executor has to prove it changed nothing.

use mc_repro::mc::flow::sample_spec_text;
use mc_repro::mc::{fingerprint, run_job, FlowSpec, JobSpec, OptContext};
use mc_repro::network::fuzz::{random_xag, FuzzConfig};
use mc_repro::network::{write_verilog, Xag};

/// Seed of the spec sampler.
const SPEC_SEED: u64 = 0x0AC1_E5EC;

/// Sampled specs, each run on [`SPEC_NETWORKS`].
const SPEC_SAMPLES: usize = 40;

/// Fuzz-network seeds the sampled specs run on (disjoint from the
/// twelve alias seeds).
const SPEC_NETWORKS: [u64; 4] = [14, 16, 17, 20];

/// The round cap of the budget cases.
const TIGHT_BUDGET: usize = 3;

/// The fuzz shapes of `tests/hotpath_equiv.rs`, cycled by seed.
fn network(seed: u64) -> Xag {
    let cfg = match seed % 3 {
        0 => FuzzConfig::default(),
        1 => FuzzConfig {
            xor_ratio: 0.8,
            ..FuzzConfig::default()
        },
        _ => FuzzConfig {
            inputs: 10,
            gates: 80,
            depth_bias: 0.85,
            ..FuzzConfig::default()
        },
    };
    random_xag(&cfg, seed).cleanup()
}

fn case_line(spec: &str, seed: u64, max_rounds: usize) -> String {
    let mut xag = network(seed);
    let mut ctx = OptContext::new();
    let job = JobSpec {
        flow: FlowSpec::parse(spec).unwrap_or_else(|e| panic!("{spec}: {e}")),
        max_rounds,
    };
    let result = run_job(&mut xag, &mut ctx, &job);
    let mut netlist = Vec::new();
    write_verilog(&xag.cleanup(), "m", &mut netlist).expect("in-memory write");
    format!(
        "{spec}\t{seed}\t{max_rounds}\t{}\t{}\t{}\t{}\t{}\t{:016x}",
        result.ands_after,
        result.xors_after,
        result.depth_after,
        result.rounds,
        result.converged,
        fingerprint(&netlist)
    )
}

fn oracle_lines() -> Vec<String> {
    let rounds = JobSpec::default().max_rounds;
    let mut lines = Vec::new();
    for (alias, _) in FlowSpec::aliases() {
        for seed in 0..12 {
            lines.push(case_line(alias, seed, rounds));
        }
    }
    let mut rng = mc_rng::Rng::seed_from_u64(SPEC_SEED);
    for _ in 0..SPEC_SAMPLES {
        let spec = sample_spec_text(&mut rng, true);
        for seed in SPEC_NETWORKS {
            lines.push(case_line(&spec, seed, rounds));
        }
        lines.push(case_line(&spec, SPEC_NETWORKS[0], TIGHT_BUDGET));
    }
    lines
}

#[test]
fn run_job_reproduces_every_recorded_outcome() {
    let golden =
        std::fs::read_to_string("tests/golden/run_job_oracle.txt").expect("oracle committed");
    let expected: Vec<&str> = golden.lines().collect();
    let actual = oracle_lines();
    assert_eq!(
        expected.len(),
        3 * 12 + SPEC_SAMPLES * (SPEC_NETWORKS.len() + 1),
        "the oracle file lost or gained cases"
    );
    let diverged: Vec<String> = expected
        .iter()
        .zip(&actual)
        .filter(|(want, got)| **want != got.as_str())
        .map(|(want, got)| format!("  want {want}\n  got  {got}"))
        .collect();
    assert!(
        diverged.is_empty(),
        "{} of {} run_job outcomes changed:\n{}",
        diverged.len(),
        expected.len(),
        diverged.join("\n")
    );
}
