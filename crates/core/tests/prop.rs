//! The single most important property of the whole system: no composed
//! flow ever changes network functionality or increases its objective.
//!
//! Randomized with a fixed-seed deterministic generator (no external
//! property-testing dependency); every case is reproducible from its seed.

use mc_rng::Rng;
use xag_mc::{reduce_xors, run_job, FlowSpec, JobSpec, OptContext, PassStats};
use xag_network::{equiv_exhaustive, Signal, Xag};

fn job(flow: &str) -> JobSpec {
    JobSpec {
        flow: FlowSpec::parse(flow).expect("valid spec"),
        ..JobSpec::default()
    }
}

/// One `mc` round with the paper's 6-cuts.
fn one_round(xag: &mut Xag, ctx: &mut OptContext) -> PassStats {
    let stats = FlowSpec::parse("mc")
        .expect("valid spec")
        .run(xag, ctx, 1, 1);
    stats.passes.into_iter().next().expect("one pass ran")
}

#[derive(Debug, Clone)]
struct Recipe {
    inputs: usize,
    and_bias: bool,
    steps: Vec<(u8, usize, bool, usize, bool)>,
}

fn arb_recipe(rng: &mut Rng) -> Recipe {
    let inputs = rng.gen_range(3..9);
    let and_bias = rng.gen();
    let gates = rng.gen_range(5..60);
    let steps = (0..gates)
        .map(|_| {
            (
                rng.next_u64() as u8,
                rng.next_u64() as usize,
                rng.gen(),
                rng.next_u64() as usize,
                rng.gen(),
            )
        })
        .collect();
    Recipe {
        inputs,
        and_bias,
        steps,
    }
}

fn build(recipe: &Recipe) -> Xag {
    let mut x = Xag::new();
    let mut pool: Vec<Signal> = (0..recipe.inputs).map(|_| x.input()).collect();
    for &(kind, a, ca, b, cb) in &recipe.steps {
        let sa = pool[a % pool.len()] ^ ca;
        let sb = pool[b % pool.len()] ^ cb;
        let s = match kind % 4 {
            0 | 1 => x.and(sa, sb),
            2 => {
                if recipe.and_bias {
                    x.or(sa, sb)
                } else {
                    x.xor(sa, sb)
                }
            }
            _ => x.xor(sa, sb),
        };
        pool.push(s);
    }
    for s in pool.iter().rev().take(3) {
        x.output(*s);
    }
    x
}

#[test]
fn mc_rewriting_preserves_function_and_reduces_ands() {
    let mut rng = Rng::seed_from_u64(0xDAC1_9001);
    for case in 0..24 {
        let recipe = arb_recipe(&mut rng);
        let mut xag = build(&recipe);
        let reference = xag.cleanup();
        let before = xag.num_ands();
        let mut ctx = OptContext::new();
        let stats = run_job(&mut xag, &mut ctx, &JobSpec::default());
        assert!(xag.num_ands() <= before, "case {case}: AND count increased");
        assert!(
            equiv_exhaustive(&reference, &xag.cleanup()),
            "case {case}: function changed"
        );
        assert!(stats.rounds >= 1);
        // A converged network gains nothing from another round.
        if stats.converged {
            let again = one_round(&mut xag, &mut ctx);
            assert_eq!(again.ands_after, again.ands_before, "case {case}");
        }
    }
}

#[test]
fn xor_reduction_preserves_function_and_ands() {
    let mut rng = Rng::seed_from_u64(0xDAC1_9002);
    for case in 0..24 {
        let recipe = arb_recipe(&mut rng);
        let mut xag = build(&recipe);
        // Inflate XORs the way rewriting does, then reduce.
        one_round(&mut xag, &mut OptContext::new());
        let reduced = reduce_xors(&xag);
        assert!(
            reduced.num_xors() <= xag.cleanup().num_xors(),
            "case {case}"
        );
        assert!(
            reduced.num_ands() <= xag.cleanup().num_ands(),
            "case {case}"
        );
        assert!(
            equiv_exhaustive(&xag.cleanup(), &reduced),
            "case {case}: function changed"
        );
    }
}

#[test]
fn size_rewriting_preserves_function_and_reduces_size() {
    let mut rng = Rng::seed_from_u64(0xDAC1_9003);
    for case in 0..24 {
        let recipe = arb_recipe(&mut rng);
        let mut xag = build(&recipe);
        let reference = xag.cleanup();
        let before = xag.num_gates();
        run_job(
            &mut xag,
            &mut OptContext::new(),
            &job("{size(cut=4);size(cut=6)}*"),
        );
        assert!(
            xag.num_gates() <= before,
            "case {case}: gate count increased"
        );
        assert!(
            equiv_exhaustive(&reference, &xag.cleanup()),
            "case {case}: function changed"
        );
    }
}

#[test]
fn composed_pipelines_preserve_function() {
    // Every flow in this catalogue — whatever the pass order — must keep
    // the network equivalent and never raise the AND count.
    let flows = [
        ("paper_flow", "paper"),
        ("compress", "compress"),
        ("mc+xor+cleanup", "{mc;xor;cleanup}*"),
        ("xor-first", "{xor;mc(cut=4);mc}*"),
        ("size-then-mc", "{size;mc;cleanup}*"),
    ];
    let mut rng = Rng::seed_from_u64(0xDAC1_9004);
    let mut ctx = OptContext::new();
    for case in 0..10 {
        let recipe = arb_recipe(&mut rng);
        for (name, spec) in flows {
            let mut xag = build(&recipe);
            let reference = xag.cleanup();
            let before = xag.num_ands();
            let stats = FlowSpec::parse(spec)
                .expect("valid spec")
                .run(&mut xag, &mut ctx, 1, 100);
            assert!(
                xag.num_ands() <= before,
                "case {case}, flow {name}: AND count increased"
            );
            assert!(
                equiv_exhaustive(&reference, &xag.cleanup()),
                "case {case}, flow {name}: function changed"
            );
            assert!(!stats.passes.is_empty());
        }
    }
}

#[test]
fn rejected_candidates_never_leak_arena_nodes() {
    // Once a flow has converged, further rounds apply nothing — and must
    // also allocate nothing: instantiated-then-rejected candidates are
    // reclaimed from the arena (the watermark cleanup in the rewrite
    // round).
    let mut rng = Rng::seed_from_u64(0xDAC1_9005);
    for case in 0..12 {
        let recipe = arb_recipe(&mut rng);
        let mut xag = build(&recipe);
        let mut ctx = OptContext::new();
        let stats = run_job(&mut xag, &mut ctx, &JobSpec::default());
        if !stats.converged {
            continue;
        }
        let capacity = xag.capacity();
        let again = one_round(&mut xag, &mut ctx);
        if again.rewrites_applied == 0 {
            assert_eq!(
                xag.capacity(),
                capacity,
                "case {case}: rejected candidates leaked into the arena"
            );
        }
    }
}
