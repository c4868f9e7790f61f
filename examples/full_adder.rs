//! The paper's running example (Figures 1 and 2, Examples 2.3 and 3.1):
//! a full adder has three AND gates in its textbook XAG, but its carry is
//! the majority function — affine-equivalent to a single AND — so the
//! whole circuit has multiplicative complexity 1.
//!
//! Run with: `cargo run --release --example full_adder`

use mc_repro::affine::AffineClassifier;
use mc_repro::mc::{run_job, JobSpec, OptContext};
use mc_repro::network::{equiv_exhaustive, Xag};
use mc_repro::tt::{AffineOp, Tt};

fn main() {
    // Figure 1(a): the textbook full adder XAG.
    let mut xag = Xag::new();
    let (a, b, cin) = (xag.input(), xag.input(), xag.input());
    let ab = xag.and(a, b);
    let ac = xag.and(a, cin);
    let bc = xag.and(b, cin);
    let t = xag.xor(ab, ac);
    let cout = xag.xor(t, bc);
    let axb = xag.xor(a, b);
    let sum = xag.xor(axb, cin);
    xag.output(sum);
    xag.output(cout);
    println!(
        "Fig. 1: full adder with {} AND, {} XOR",
        xag.num_ands(),
        xag.num_xors()
    );

    // Figure 1(b): the cut of cout over {a, b, cin} computes the majority,
    // truth table 0xe8 as the paper states.
    let leaves = [a.node(), b.node(), cin.node()];
    let cut_tt = xag.cone_tt(cout.node(), &leaves).expect("valid cut");
    println!("cut function of cout: {:#04x} (majority)", cut_tt.bits());
    assert_eq!(cut_tt.bits(), 0xe8);

    // Example 2.3: the majority is affine-equivalent to AND (class 0x88).
    let mut classifier = AffineClassifier::new();
    let c = classifier.classify(cut_tt);
    println!(
        "affine representative: {:#04x}, reached through {} operations:",
        c.representative.bits(),
        c.ops.len()
    );
    for op in &c.ops {
        println!("  {op:?}");
    }
    assert_eq!(AffineOp::apply_all(cut_tt, &c.ops), c.representative);
    // The representative's class also contains the plain 2-input AND.
    let and_class = classifier.classify(Tt::from_bits(0x88, 3).flip_var(2));
    assert_eq!(and_class.representative, c.representative);

    // Example 3.1 / Figure 2: rewriting brings the adder to one AND gate.
    let reference = xag.cleanup();
    run_job(&mut xag, &mut OptContext::new(), &JobSpec::default());
    println!(
        "Fig. 2: optimized full adder has {} AND, {} XOR",
        xag.num_ands(),
        xag.num_xors()
    );
    assert_eq!(xag.num_ands(), 1);
    assert!(equiv_exhaustive(&reference, &xag.cleanup()));
    println!("multiplicative complexity of the full adder: 1 (paper's result)");
}
