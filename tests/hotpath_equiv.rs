//! End-to-end byte-identity of the hot-path overhaul.
//!
//! The golden netlists under `tests/golden/hotpath/` were generated by
//! the **pre-overhaul** implementation (HashMap cut sets, per-cut
//! recursive `cone_tt`, SipHash strash) running the exact recipe below:
//! full paper flow, 30-round cap, on twelve seeded fuzz networks across
//! three structural shapes. The overhaul — dense cut arena, fused
//! one-sweep cut functions, FxHash interior maps, dense side-tables in
//! the rewriting round and `canon` — claims *byte-identical* outputs, so
//! the current implementation must reproduce every golden file exactly:
//! same gates, same wiring, same polarity, same emission order.
//!
//! The cut-set level of the same guarantee (identical leaves and
//! per-node cut order vs. a legacy reimplementation, 100 networks) is
//! pinned by `crates/cuts/tests/differential.rs`; equivalence has its own
//! suite (`fuzz_equiv.rs`).

use mc_repro::mc::{FlowSpec, OptContext};
use mc_repro::network::fuzz::{random_xag, FuzzConfig};
use mc_repro::network::{equiv, write_verilog, Xag};

/// The golden recipe: must stay in lockstep with the generator that
/// produced `tests/golden/hotpath/` (same configs, same seed cycle,
/// same flow, same round cap), or the byte comparison is meaningless.
fn golden_config(seed: u64) -> FuzzConfig {
    match seed % 3 {
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
    }
}

fn optimize(seed: u64) -> (Xag, Xag) {
    let reference = random_xag(&golden_config(seed), seed).cleanup();
    let mut work = reference.clone();
    let mut ctx = OptContext::new();
    FlowSpec::default().run(&mut work, &mut ctx, 30);
    (reference, work.cleanup())
}

fn netlist(x: &Xag) -> Vec<u8> {
    let mut buf = Vec::new();
    write_verilog(x, "m", &mut buf).expect("in-memory write");
    buf
}

#[test]
fn full_flows_reproduce_the_pre_overhaul_netlists_byte_for_byte() {
    for seed in 0..12u64 {
        let golden = std::fs::read(format!("tests/golden/hotpath/seed_{seed:02}.v"))
            .expect("golden netlist committed");
        let (reference, optimized) = optimize(seed);
        let bytes = netlist(&optimized);
        assert!(
            bytes == golden,
            "seed {seed}: optimized netlist diverged from the pre-overhaul golden \
             ({} vs {} bytes) — the hot path changed results, not just speed",
            bytes.len(),
            golden.len()
        );
        // The golden files themselves are only trustworthy if they
        // compute the input function.
        assert!(
            equiv(&reference, &optimized, 0xDAC19, 64),
            "seed {seed}: optimized network is not equivalent to its input"
        );
    }
}

#[test]
fn goldens_are_the_expected_twelve_files() {
    // Guards against a partially-regenerated golden directory silently
    // shrinking the byte-identity test's coverage.
    let mut names: Vec<String> = std::fs::read_dir("tests/golden/hotpath")
        .expect("golden directory committed")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    let expected: Vec<String> = (0..12).map(|s| format!("seed_{s:02}.v")).collect();
    assert_eq!(names, expected);
}
