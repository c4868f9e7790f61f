//! MPC cost model demo: optimize the SHA-256 message-schedule + round
//! logic and report the effect under free-XOR garbled circuits, where each
//! AND gate costs ciphertexts and XOR gates are free.
//!
//! Run with: `cargo run --release --example mpc_cost` (add `--fast` to run
//! a single rewriting round).

use mc_repro::circuits::hash::sha256;
use mc_repro::mc::{protocol_costs, run_job, JobSpec, OptContext};
use mc_repro::network::equiv_random;

fn main() {
    let fast = std::env::args().any(|a| a == "--fast");
    println!("building the SHA-256 compression circuit…");
    let mut xag = sha256();
    let reference = xag.cleanup();
    let before = protocol_costs(&xag);
    println!("initial:   {before}");

    let job = JobSpec {
        max_rounds: if fast { 1 } else { 3 },
        ..JobSpec::default()
    };
    let result = run_job(&mut xag, &mut OptContext::new(), &job);
    let after = protocol_costs(&xag);
    println!("optimized: {after}");
    println!(
        "saving: {:.1}% of the garbler's bandwidth ({} rounds, {:.1}s)",
        100.0 * (before.garbling_bytes - after.garbling_bytes) as f64
            / before.garbling_bytes as f64,
        result.rounds,
        result.elapsed.as_secs_f64()
    );

    assert!(equiv_random(&reference, &xag.cleanup(), 7, 32));
    println!("equivalence: verified on 2048 random vectors");
}
