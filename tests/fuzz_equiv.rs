//! Differential fuzzing of every optimization flow.
//!
//! In the spirit of sampler-testing oracles: instead of trusting the
//! rewriting engine because its unit tests pass, drive every canonical
//! flow with a stream of seeded random networks and check each result
//! against the `equiv` oracle. All
//! networks stay within the exhaustive range of the oracle, so a pass
//! here is a proof of functional preservation for every generated case,
//! not a statistical argument.
//!
//! The seed is fixed (override with `MC_FUZZ_SEED=<n>` for exploration),
//! so a failure in CI replays locally from the log.

use mc_repro::mc::flow::sample_spec_text;
use mc_repro::mc::{FlowSpec, OptContext};
use mc_repro::network::fuzz::{random_xag, FuzzConfig};
use mc_repro::network::{equiv_exhaustive, Xag};

/// Default base seed of the differential suite.
const FUZZ_SEED: u64 = 0xDAC1_9F02;

/// Networks per flow; with four flows this exercises ~200 optimizations.
const NETWORKS_PER_FLOW: usize = 50;

fn base_seed() -> u64 {
    std::env::var("MC_FUZZ_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(FUZZ_SEED)
}

/// Cycles through the three generator shapes so every flow sees
/// XOR-heavy, AND-heavy, and mixed networks.
fn network(seed: u64) -> Xag {
    let cfg = match seed % 3 {
        0 => FuzzConfig::default(),
        1 => FuzzConfig::xor_heavy(),
        _ => FuzzConfig::and_heavy(),
    };
    random_xag(&cfg, seed)
}

fn check_flow(name: &str, spec: &str) {
    let mut ctx = OptContext::new();
    let flow = FlowSpec::parse(spec).expect("valid spec");
    let base = base_seed();
    for i in 0..NETWORKS_PER_FLOW {
        let seed = base.wrapping_add(i as u64);
        let mut xag = network(seed);
        let reference = xag.cleanup();
        flow.run(&mut xag, &mut ctx, 100);
        assert!(
            equiv_exhaustive(&reference, &xag.cleanup()),
            "flow {name} broke equivalence on fuzz seed {seed}"
        );
    }
}

#[test]
fn paper_flow_preserves_function_on_random_networks() {
    check_flow("paper", "paper");
}

#[test]
fn compress_flow_preserves_function_on_random_networks() {
    check_flow("compress", "compress");
}

#[test]
fn custom_flow_preserves_function_on_random_networks() {
    check_flow("custom", "{mc(cut=4);xor;cleanup}*");
}

#[test]
fn pass_flow_preserves_function_on_random_networks() {
    check_flow("pass flow", "{mc;xor;cleanup}*");
}

// ---------------------------------------------------------------------
// FlowSpec sampling: instead of fuzzing only the fixed flows above,
// sample the *space of flows* itself — seeded random FlowSpecs (atoms,
// knobs, groups, bounded and until-convergence repetition) — and run every sampled spec over fuzz networks against
// the exhaustive oracle.

/// Random FlowSpecs sampled per run.
const SPEC_SAMPLES: usize = 20;

/// Fuzz networks each sampled spec is checked on.
const NETWORKS_PER_SPEC: usize = 5;

#[test]
fn random_flow_specs_preserve_function_on_random_networks() {
    let base = base_seed();
    let mut rng = mc_rng::Rng::seed_from_u64(base ^ 0x51EC_F102);
    let mut ctx = OptContext::new();
    for s in 0..SPEC_SAMPLES {
        let text = sample_spec_text(&mut rng, true);
        let spec = FlowSpec::parse(&text)
            .unwrap_or_else(|e| panic!("sampled spec {text:?} failed to parse: {e}"));
        for i in 0..NETWORKS_PER_SPEC {
            let seed = base.wrapping_add((s * NETWORKS_PER_SPEC + i) as u64);
            let mut xag = network(seed);
            let reference = xag.cleanup();
            spec.run(&mut xag, &mut ctx, 60);
            assert!(
                equiv_exhaustive(&reference, &xag.cleanup()),
                "sampled spec {text} broke equivalence on fuzz seed {seed}"
            );
        }
    }
}
