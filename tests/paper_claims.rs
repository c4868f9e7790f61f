//! Assertions pinning the paper's qualitative claims, beyond the table
//! reproductions (which live in the `table1`/`table2` binaries).

use mc_repro::affine::AffineClassifier;
use mc_repro::circuits::arith::{input_word, multiply_array, mux_textbook, output_word};
use mc_repro::mc::{reduce_xors, run_job, JobSpec, OptContext};
use mc_repro::network::{equiv_exhaustive, Xag};
use mc_repro::synth::Synthesizer;
use mc_repro::tt::Tt;

/// §1/§2: the full adder's multiplicative complexity is 1, found fully
/// automatically.
#[test]
fn full_adder_mc_is_one() {
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
    let reference = xag.cleanup();
    run_job(&mut xag, &mut OptContext::new(), &JobSpec::default());
    assert_eq!(xag.num_ands(), 1);
    assert_eq!(xag.and_depth(), 1);
    assert!(equiv_exhaustive(&reference, &xag.cleanup()));
}

/// §2.2: the five operations partition functions into 1, 2, 3, 8 classes
/// for 1–4 variables.
#[test]
fn class_counts_match_the_paper() {
    assert_eq!(AffineClassifier::count_classes(1), 1);
    assert_eq!(AffineClassifier::count_classes(2), 2);
    assert_eq!(AffineClassifier::count_classes(3), 3);
    assert_eq!(AffineClassifier::count_classes(4), 8);
}

/// §3: multiplicative complexity is invariant under the affine operations
/// — every member of the majority/AND class synthesizes with one AND gate.
#[test]
fn whole_class_shares_one_and() {
    let mut synth = Synthesizer::new();
    let maj = Tt::from_bits(0xe8, 3);
    for f in [
        maj,
        maj.flip_var(0),
        maj.translate(1, 2),
        !maj,
        maj.xor_input(2),
        maj.swap_vars(0, 2).translate(0, 1).flip_var(1),
    ] {
        let frag = synth.synthesize(f);
        assert_eq!(frag.num_ands(), 1, "{f:?}");
        assert_eq!(frag.eval_tt(), f);
    }
}

/// §5.1 (barrel shifter row): textbook multiplexers collapse from three
/// AND gates to one.
#[test]
fn mux_collapses_to_single_and() {
    let mut xag = Xag::new();
    let s = xag.input();
    let t = xag.input();
    let e = xag.input();
    let m = mux_textbook(&mut xag, s, t, e);
    xag.output(m);
    assert_eq!(xag.num_ands(), 3);
    let reference = xag.cleanup();
    run_job(&mut xag, &mut OptContext::new(), &JobSpec::default());
    assert_eq!(xag.num_ands(), 1);
    assert!(equiv_exhaustive(&reference, &xag.cleanup()));
}

/// §5.2 (multiplier row): partial-product ANDs are irreducible, but the
/// adder tree shrinks — the multiplier improves without reaching the
/// n² floor.
#[test]
fn multiplier_improves_but_keeps_partial_products() {
    let mut xag = Xag::new();
    let a = input_word(&mut xag, 6);
    let b = input_word(&mut xag, 6);
    let p = multiply_array(&mut xag, &a, &b);
    output_word(&mut xag, &p);
    let initial = xag.num_ands();
    let reference = xag.cleanup();
    run_job(&mut xag, &mut OptContext::new(), &JobSpec::default());
    assert!(xag.num_ands() < initial, "multiplier must improve");
    assert!(
        xag.num_ands() >= 36,
        "cannot beat the 36 partial products: {}",
        xag.num_ands()
    );
    assert!(equiv_exhaustive(&reference, &xag.cleanup()));
}

/// Extension: XOR reduction trims the rewriting overhead without touching
/// AND count or multiplicative depth.
#[test]
fn xor_reduction_after_rewriting() {
    let mut xag = Xag::new();
    let a = input_word(&mut xag, 10);
    let b = input_word(&mut xag, 10);
    let (s, c) =
        mc_repro::circuits::arith::add_ripple(&mut xag, &a, &b, mc_repro::network::Signal::CONST0);
    output_word(&mut xag, &s);
    xag.output(c);
    let reference = xag.cleanup();
    run_job(&mut xag, &mut OptContext::new(), &JobSpec::default());
    let before = xag.cleanup();
    let reduced = reduce_xors(&before);
    assert!(reduced.num_xors() <= before.num_xors());
    assert_eq!(reduced.num_ands(), before.num_ands());
    assert!(reduced.and_depth() <= before.and_depth());
    assert!(equiv_exhaustive(&reference, &reduced));
}
