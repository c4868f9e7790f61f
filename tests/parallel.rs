//! Determinism of the rewriting engine across worker counts: the
//! optimized network must be bit-identical for every thread count — same AND count,
//! same XOR count, same output truth tables, and byte-identical exported
//! netlists. This is the contract that makes `--threads N` safe to use in
//! production: thread count may only change wall-clock, never results.

use mc_repro::circuits::arith::{add_ripple, input_word, output_word};
use mc_repro::circuits::keccak::keccak_f;
use mc_repro::mc::{run_job, FlowSpec, JobSpec, OptContext};
use mc_repro::network::fuzz::{random_xag, FuzzConfig};
use mc_repro::network::{equiv_exhaustive, write_verilog, Signal, Xag};

/// Serializes the cleaned network; byte equality means structural
/// bit-identity (same gates, same wiring, same polarity, same order).
fn netlist(xag: &Xag) -> String {
    let mut buf = Vec::new();
    write_verilog(&xag.cleanup(), "m", &mut buf).expect("write");
    String::from_utf8(buf).expect("utf8")
}

/// Full output truth tables of a ≤6-input network: one 64-bit word per
/// output, bit `m` = output value on minterm `m`.
fn truth_tables(xag: &Xag) -> Vec<u64> {
    assert!(xag.num_inputs() <= 6);
    let words: Vec<u64> = (0..xag.num_inputs())
        .map(|i| {
            [
                0xaaaa_aaaa_aaaa_aaaa,
                0xcccc_cccc_cccc_cccc,
                0xf0f0_f0f0_f0f0_f0f0,
                0xff00_ff00_ff00_ff00,
                0xffff_0000_ffff_0000,
                0xffff_ffff_0000_0000,
            ][i]
        })
        .collect();
    xag.simulate(&words)
}

#[test]
fn fuzz_networks_are_bit_identical_across_thread_counts() {
    for seed in 0..10u64 {
        let cfg = match seed % 3 {
            0 => FuzzConfig::default(),
            1 => FuzzConfig::xor_heavy(),
            _ => FuzzConfig::and_heavy(),
        };
        let base = random_xag(&cfg, seed);
        let mut runs = Vec::new();
        for threads in [1usize, 2, 4] {
            let mut xag = base.cleanup();
            let mut ctx = OptContext::new();
            run_job(
                &mut xag,
                &mut ctx,
                &JobSpec {
                    threads,
                    ..JobSpec::default()
                },
            );
            runs.push((
                threads,
                xag.num_ands(),
                xag.num_xors(),
                truth_tables(&xag),
                netlist(&xag),
            ));
        }
        let (_, ands, xors, tts, text) = &runs[0];
        for (threads, a, x, t, s) in &runs[1..] {
            assert_eq!(
                a, ands,
                "seed {seed}: AND count differs at {threads} threads"
            );
            assert_eq!(
                x, xors,
                "seed {seed}: XOR count differs at {threads} threads"
            );
            assert_eq!(
                t, tts,
                "seed {seed}: truth tables differ at {threads} threads"
            );
            assert_eq!(s, text, "seed {seed}: netlist differs at {threads} threads");
        }
        assert_eq!(tts, &truth_tables(&base), "seed {seed}: function changed");
    }
}

#[test]
fn adder_optimum_is_reached_identically_at_every_thread_count() {
    let build = || {
        let mut x = Xag::new();
        let a = input_word(&mut x, 8);
        let b = input_word(&mut x, 8);
        let (s, c) = add_ripple(&mut x, &a, &b, Signal::CONST0);
        output_word(&mut x, &s);
        x.output(c);
        x
    };
    let mut results = Vec::new();
    for threads in [1usize, 2, 4] {
        let mut xag = build();
        let job = JobSpec {
            threads,
            ..JobSpec::default()
        };
        run_job(&mut xag, &mut OptContext::new(), &job);
        results.push((xag.num_ands(), netlist(&xag)));
        assert!(equiv_exhaustive(&build(), &xag.cleanup()));
    }
    // One engine at every thread count: the results must agree bit for
    // bit and reach the known optimum.
    assert_eq!(results[0], results[1], "1 vs 2 threads");
    assert_eq!(results[0], results[2], "1 vs 4 threads");
    assert_eq!(results[0].0, 8, "n-bit adder has MC n");
}

#[test]
fn keccak_round_function_rewrites_identically_across_thread_counts() {
    // One MC round over Keccak-f[25] (the χ layer is the AND bottleneck
    // the paper targets). A single round keeps the test fast while still
    // covering a real crypto kernel with shared fanout.
    let base = keccak_f(1);
    let round = FlowSpec::parse("mc").expect("valid spec");
    let mut texts = Vec::new();
    for threads in [1usize, 2, 4] {
        let mut xag = base.cleanup();
        let mut ctx = OptContext::new();
        let stats = round.run(&mut xag, &mut ctx, threads, 1);
        assert_eq!(stats.ands_after(), xag.num_ands());
        texts.push(netlist(&xag));
    }
    assert_eq!(texts[0], texts[1], "1 vs 2 threads");
    assert_eq!(texts[0], texts[2], "1 vs 4 threads");
}
