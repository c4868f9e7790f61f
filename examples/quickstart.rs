//! Quickstart: build an 8-bit adder the textbook way, minimize its AND
//! gates, and verify the result.
//!
//! Run with: `cargo run --release --example quickstart`

use mc_repro::circuits::arith::{add_ripple, input_word, output_word};
use mc_repro::mc::{reduce_xors, run_job, JobSpec, OptContext};
use mc_repro::network::{equiv_exhaustive, Signal, Xag};

fn main() {
    // 1. Build: an 8-bit ripple-carry adder from textbook full adders
    //    (3 AND gates per bit).
    let mut xag = Xag::new();
    let a = input_word(&mut xag, 8);
    let b = input_word(&mut xag, 8);
    let (sum, carry) = add_ripple(&mut xag, &a, &b, Signal::CONST0);
    output_word(&mut xag, &sum);
    xag.output(carry);
    let reference = xag.cleanup();
    println!(
        "before: {} AND, {} XOR gates",
        xag.num_ands(),
        xag.num_xors()
    );

    // 2. Optimize: cut rewriting with affine classification (DAC'19),
    //    the `paper` flow until convergence.
    let result = run_job(&mut xag, &mut OptContext::new(), &JobSpec::default());
    println!(
        "after:  {} AND, {} XOR gates ({} rounds, {:.2}s)",
        xag.num_ands(),
        xag.num_xors(),
        result.rounds,
        result.elapsed.as_secs_f64()
    );

    // 3. Verify: exhaustive equivalence check over all 2^16 inputs.
    assert!(equiv_exhaustive(&reference, &xag.cleanup()));
    println!("equivalence: verified on all {} assignments", 1u64 << 16);

    // Boyar–Peralta proved an n-bit adder needs exactly n AND gates.
    assert_eq!(xag.num_ands(), 8);
    println!("reached the provably optimal 8 AND gates (1 per bit)");

    // 4. Companion pass: shrink the XOR overhead the rewriting introduced
    //    (free in MPC/FHE, but nice for circuit size).
    let tidy = reduce_xors(&xag);
    println!(
        "XOR cleanup: {} → {} XOR gates (ANDs unchanged: {})",
        xag.num_xors(),
        tidy.num_xors(),
        tidy.num_ands()
    );
    assert!(equiv_exhaustive(&reference, &tidy));
}
