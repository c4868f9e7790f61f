//! Cross-crate integration: generators → cut-rewriting flow →
//! verification → Bristol export, over a sample of both benchmark suites.
//! One [`OptContext`] is shared across every network, exercising database
//! amortization the way the table binaries use it.

use mc_repro::circuits::epfl::{epfl_suite, Scale};
use mc_repro::circuits::mpc::mpc_suite;
use mc_repro::mc::{run_job, FlowSpec, JobSpec, OptContext};
use mc_repro::network::{equiv, read_bristol, write_bristol};

#[test]
fn reduced_epfl_rows_optimize_and_stay_equivalent() {
    let interesting = ["adder", "bar", "int2float", "dec", "priority"];
    let mut ctx = OptContext::new();
    for bench in epfl_suite(Scale::Reduced) {
        if !interesting.contains(&bench.name) {
            continue;
        }
        let mut xag = bench.xag.cleanup();
        let before = xag.num_ands();
        run_job(&mut xag, &mut ctx, &JobSpec::default());
        assert!(xag.num_ands() <= before, "{} regressed", bench.name);
        assert!(
            equiv(&bench.xag, &xag.cleanup(), 42, 64),
            "{} changed function",
            bench.name
        );
    }
}

#[test]
fn comparators_improve_and_roundtrip_through_bristol() {
    let mut ctx = OptContext::new();
    for bench in mpc_suite(false) {
        if !bench.name.starts_with("Comp.") {
            continue;
        }
        let mut xag = bench.xag.cleanup();
        let before = xag.num_ands();
        run_job(&mut xag, &mut ctx, &JobSpec::default());
        // The paper reports 24–28% improvements on the comparators.
        assert!(
            xag.num_ands() < before,
            "{}: no improvement found",
            bench.name
        );
        let xag = xag.cleanup();
        let mut buf = Vec::new();
        write_bristol(&xag, &mut buf).expect("export");
        let back = read_bristol(buf.as_slice()).expect("import");
        assert!(equiv(&xag, &back, 1, 32), "{} roundtrip", bench.name);
    }
}

#[test]
fn one_round_is_cheaper_than_convergence_but_helps() {
    let suite = epfl_suite(Scale::Reduced);
    let bar = suite.iter().find(|b| b.name == "bar").expect("barrel");
    let mut ctx = OptContext::new();
    let mut one = bar.xag.cleanup();
    let mc = FlowSpec::parse("mc").expect("valid spec");
    let round = &mc.run(&mut one, &mut ctx, 1).passes[0];
    assert!(round.ands_after < round.ands_before, "one round helps");

    let mut conv = bar.xag.cleanup();
    run_job(&mut conv, &mut ctx, &JobSpec::default());
    assert!(conv.num_ands() <= one.num_ands(), "convergence ≥ one round");
    // Barrel shifter: textbook muxes (3 ANDs) must collapse toward 1 AND
    // per mux, i.e. at least a 50% cut.
    assert!(
        (conv.num_ands() as f64) < 0.5 * (bar.xag.num_ands() as f64),
        "barrel shifter should improve by ≥ 50% ({} → {})",
        bar.xag.num_ands(),
        conv.num_ands()
    );
}
