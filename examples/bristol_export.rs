//! Interoperability demo: optimize a 32-bit comparator and export it as a
//! Bristol-fashion circuit (the MPC community's interchange format), then
//! read it back and confirm the round-trip.
//!
//! Run with: `cargo run --release --example bristol_export`

use mc_repro::circuits::arith::{input_word, less_than_unsigned};
use mc_repro::mc::{run_job, JobSpec, OptContext};
use mc_repro::network::{equiv_random, read_bristol, write_bristol, Xag};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut xag = Xag::new();
    let a = input_word(&mut xag, 32);
    let b = input_word(&mut xag, 32);
    let lt = less_than_unsigned(&mut xag, &a, &b);
    xag.output(lt);
    println!(
        "comparator: {} AND gates before optimization",
        xag.num_ands()
    );

    run_job(&mut xag, &mut OptContext::new(), &JobSpec::default());
    let xag = xag.cleanup();
    println!(
        "comparator: {} AND gates after optimization",
        xag.num_ands()
    );

    let mut text = Vec::new();
    write_bristol(&xag, &mut text)?;
    println!(
        "Bristol export: {} bytes, first lines:\n{}",
        text.len(),
        String::from_utf8_lossy(&text)
            .lines()
            .take(6)
            .collect::<Vec<_>>()
            .join("\n")
    );

    let back = read_bristol(text.as_slice())?;
    assert!(equiv_random(&xag, &back, 99, 32));
    println!("round-trip: verified");
    Ok(())
}
