//! Experiment E4 (paper §5.2): the optimizer drives ripple-carry adders to
//! the Boyar–Peralta optimum of exactly one AND gate per bit.

use mc_repro::circuits::arith::{add_ripple, input_word, output_word};
use mc_repro::mc::{run_job, FlowSpec, JobSpec, OptContext};
use mc_repro::network::{equiv_exhaustive, equiv_random, Signal, Xag};

fn adder(bits: usize) -> Xag {
    let mut x = Xag::new();
    let a = input_word(&mut x, bits);
    let b = input_word(&mut x, bits);
    let (s, c) = add_ripple(&mut x, &a, &b, Signal::CONST0);
    output_word(&mut x, &s);
    x.output(c);
    x
}

#[test]
fn eight_bit_adder_reaches_eight_ands() {
    let mut xag = adder(8);
    let reference = xag.cleanup();
    // Textbook: 3 ANDs per bit, minus 2 folded away at bit 0 (cin = 0).
    assert_eq!(xag.num_ands(), 22);
    let result = run_job(&mut xag, &mut OptContext::new(), &JobSpec::default());
    assert!(result.converged);
    assert_eq!(xag.num_ands(), 8, "known optimum is n ANDs");
    assert!(equiv_exhaustive(&reference, &xag.cleanup()));
}

#[test]
fn sixteen_bit_adder_reaches_sixteen_ands() {
    // Same experiment through the flow executor directly: the explicit
    // paper flow must match what the job API does.
    let mut xag = adder(16);
    let reference = xag.cleanup();
    let mut ctx = OptContext::new();
    FlowSpec::default().run(&mut xag, &mut ctx, 1, 100);
    assert_eq!(xag.num_ands(), 16);
    assert!(equiv_random(&reference, &xag.cleanup(), 0xADDE, 64));
}

#[test]
fn thirty_two_bit_adder_reaches_thirty_two_ands() {
    let mut xag = adder(32);
    let reference = xag.cleanup();
    run_job(&mut xag, &mut OptContext::new(), &JobSpec::default());
    assert_eq!(xag.num_ands(), 32, "paper: 32-bit adder optimized to 32");
    assert!(equiv_random(&reference, &xag.cleanup(), 0xADDE, 64));
}
