//! MPC cost model demo: optimize the SHA-256 message-schedule + round
//! logic and report the effect under free-XOR garbled circuits, where each
//! AND gate costs ciphertexts and XOR gates are free.
//!
//! Run with: `cargo run --release --example mpc_cost` (add `--fast` to run
//! a single rewriting round).

use mc_repro::circuits::hash::sha256;
use mc_repro::mc::{run_job, JobSpec, OptContext};
use mc_repro::network::equiv_random;

/// Half-gates garbling: 2 ciphertexts (32 bytes) per AND, 0 per XOR.
fn garbled_bytes(ands: usize) -> usize {
    ands * 2 * 16
}

fn main() {
    let fast = std::env::args().any(|a| a == "--fast");
    println!("building the SHA-256 compression circuit…");
    let mut xag = sha256();
    let reference = xag.cleanup();
    let (a0, x0) = (xag.num_ands(), xag.num_xors());
    println!(
        "initial:   {a0} AND, {x0} XOR → {} bytes of garbled tables",
        garbled_bytes(a0)
    );

    let job = JobSpec {
        max_rounds: if fast { 1 } else { 3 },
        ..JobSpec::default()
    };
    let result = run_job(&mut xag, &mut OptContext::new(), &job);
    let (a1, x1) = (xag.num_ands(), xag.num_xors());
    println!(
        "optimized: {a1} AND, {x1} XOR → {} bytes of garbled tables",
        garbled_bytes(a1)
    );
    println!(
        "saving: {:.1}% of the garbler's bandwidth ({} rounds, {:.1}s)",
        100.0 * (a0 - a1) as f64 / a0 as f64,
        result.rounds,
        result.elapsed.as_secs_f64()
    );

    assert!(equiv_random(&reference, &xag.cleanup(), 7, 32));
    println!("equivalence: verified on 2048 random vectors");
}
