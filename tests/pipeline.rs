//! Behavioural tests for flows of passes run by `FlowSpec::run`: pass
//! ordering, per-pass statistics accumulation, and equivalence after
//! every composed flow.

use mc_repro::mc::{FlowSpec, OptContext};
use mc_repro::network::{equiv_exhaustive, Signal, Xag};

fn flow(spec: &str) -> FlowSpec {
    FlowSpec::parse(spec).expect("valid spec")
}

fn textbook_full_adder() -> Xag {
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
    xag
}

/// A chain of adders: enough XOR-heavy structure that rewriting inflates
/// the linear layers and `xor` has something to compress.
fn adder_chain(bits: usize) -> Xag {
    use mc_repro::circuits::arith::{add_ripple, input_word, output_word};
    let mut x = Xag::new();
    let a = input_word(&mut x, bits);
    let b = input_word(&mut x, bits);
    let c = input_word(&mut x, bits);
    let (s1, c1) = add_ripple(&mut x, &a, &b, Signal::CONST0);
    let (s2, c2) = add_ripple(&mut x, &s1, &c, c1);
    output_word(&mut x, &s2);
    x.output(c2);
    x
}

#[test]
fn paper_flow_drives_full_adder_to_mc_one() {
    let mut xag = textbook_full_adder();
    let reference = xag.cleanup();
    let mut ctx = OptContext::new();
    let stats = flow("paper").run(&mut xag, &mut ctx, 100);
    assert!(stats.converged);
    assert_eq!(xag.num_ands(), 1, "paper: full adder has MC 1");
    assert!(equiv_exhaustive(&reference, &xag.cleanup()));
}

#[test]
fn xor_reduce_after_mc_rewrite_shrinks_xors_without_touching_ands() {
    // Pass ordering matters: `mc` only minimizes AND gates and leaves
    // the linear layers however they fall; a subsequent `xor` compresses
    // them and must leave the AND count exactly where `mc` put it.
    //
    // y1 = a⊕b⊕c, y2 = a⊕b⊕d, y3 = a⊕b⊕e, each associated differently so
    // structural hashing shares no XOR gate (6 gates); Paar extraction
    // shares a⊕b (4 gates). The sums feed AND gates, which are already
    // MC-optimal, so `mc` must not change them.
    let mut xag = Xag::new();
    let (a, b, c) = (xag.input(), xag.input(), xag.input());
    let (d, e) = (xag.input(), xag.input());
    let t1 = xag.xor(a, b);
    let y1 = xag.xor(t1, c);
    let t2 = xag.xor(a, d);
    let y2 = xag.xor(t2, b);
    let t3 = xag.xor(b, e);
    let y3 = xag.xor(t3, a);
    let g1 = xag.and(y1, y2);
    let g2 = xag.and(y2, y3);
    xag.output(g1);
    xag.output(g2);
    assert_eq!((xag.num_ands(), xag.num_xors()), (2, 6));
    let reference = xag.cleanup();
    let mut ctx = OptContext::new();

    let stats = flow("mc(cut=4);mc(cut=6);xor").run(&mut xag, &mut ctx, 100);

    for pass in &stats.passes {
        assert_eq!(
            pass.ands_after, pass.ands_before,
            "{}: AND count must stay at the MC optimum",
            pass.pass
        );
    }
    assert_eq!(xag.num_ands(), 2, "AND gates untouched");
    let xor_pass = stats.passes.last().expect("three passes ran");
    assert_eq!(xor_pass.pass, "xor-reduce");
    assert!(
        xor_pass.xors_after < xor_pass.xors_before,
        "xor found nothing to compress ({} XORs)",
        xor_pass.xors_before
    );
    assert_eq!(
        xor_pass.rewrites_applied,
        xor_pass.xors_before - xor_pass.xors_after
    );
    assert_eq!(xag.num_xors(), 4, "a⊕b is shared across the three sums");
    assert!(equiv_exhaustive(&reference, &xag.cleanup()));
}

#[test]
fn stats_accumulate_per_pass() {
    let mut xag = adder_chain(6);
    let mut ctx = OptContext::new();
    let stats = flow("{mc(cut=4);mc(cut=6);xor;cleanup}*").run(&mut xag, &mut ctx, 100);

    let summary = stats.per_pass();
    // Every executed pass shows up, keyed by name, in first-run order.
    let names: Vec<&str> = summary.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(names[0], "mc-rewrite<4>");
    assert!(names.contains(&"mc-rewrite<6>"));
    // Totals line up with the flat execution list.
    let total_runs: usize = summary.iter().map(|p| p.runs).sum();
    assert_eq!(total_runs, stats.passes.len());
    for p in &summary {
        let runs = stats.passes.iter().filter(|s| s.pass == p.name).count();
        assert_eq!(runs, p.runs, "{}", p.name);
        let saved: i64 = stats
            .passes
            .iter()
            .filter(|s| s.pass == p.name)
            .map(|s| s.ands_before as i64 - s.ands_after as i64)
            .sum();
        assert_eq!(saved, p.ands_saved, "{}", p.name);
    }
    // The MC passes carry the AND savings; the whole flow must have saved
    // some on a textbook adder chain.
    let mc_saved: i64 = summary
        .iter()
        .filter(|p| p.name.starts_with("mc-rewrite"))
        .map(|p| p.ands_saved)
        .sum();
    assert!(mc_saved > 0, "MC passes saved nothing");
}

#[test]
fn composed_flows_preserve_equivalence() {
    let build = [
        ("paper_flow", "paper"),
        ("compress", "compress"),
        ("rewrite+xor+cleanup", "{mc;xor;cleanup}*"),
        ("size-first", "{size(cut=4);mc;xor}*"),
    ];
    let mut ctx = OptContext::new();
    for (name, spec) in build {
        for source in [textbook_full_adder(), adder_chain(5)] {
            let reference = source.cleanup();
            let mut xag = source;
            let before = xag.num_ands();
            flow(spec).run(&mut xag, &mut ctx, 100);
            assert!(xag.num_ands() <= before, "flow {name} raised the AND count");
            assert!(
                equiv_exhaustive(&reference, &xag.cleanup()),
                "flow {name} changed the function"
            );
        }
    }
}

#[test]
fn compress_reduces_total_gates_and_run_once_runs_each_pass_once() {
    let mut xag = adder_chain(6);
    let reference = xag.cleanup();
    let before = xag.num_gates();
    let mut ctx = OptContext::new();

    // The compress passes, each run once.
    let once = flow("size(cut=4);size(cut=6);xor");
    let sweep = once.run(&mut xag, &mut ctx, 100);
    assert_eq!(sweep.passes.len() as u64, once.worst_case_passes());
    assert!(sweep.converged, "a plain sequence runs to completion");
    assert!(xag.num_gates() <= before);
    assert!(equiv_exhaustive(&reference, &xag.cleanup()));
}
