//! Randomized property tests: every enumerated cut of a random network is
//! a valid cut whose function matches brute-force cone evaluation.

use mc_rng::Rng;
use xag_cuts::{cut_function, enumerate_cuts, CutParams, CUT_LIMIT};
use xag_network::{Signal, Xag};

#[derive(Debug, Clone)]
struct Recipe {
    inputs: usize,
    steps: Vec<(bool, usize, bool, usize, bool)>,
}

fn arb_recipe(rng: &mut Rng) -> Recipe {
    let inputs = rng.gen_range(2..11);
    let gates = rng.gen_range(1..50);
    let steps = (0..gates)
        .map(|_| {
            (
                rng.gen(),
                rng.next_u64() as usize,
                rng.gen(),
                rng.next_u64() as usize,
                rng.gen(),
            )
        })
        .collect();
    Recipe { inputs, steps }
}

fn build(recipe: &Recipe) -> Xag {
    let mut x = Xag::new();
    let mut pool: Vec<Signal> = (0..recipe.inputs).map(|_| x.input()).collect();
    for &(is_and, a, ca, b, cb) in &recipe.steps {
        let sa = pool[a % pool.len()] ^ ca;
        let sb = pool[b % pool.len()] ^ cb;
        let s = if is_and { x.and(sa, sb) } else { x.xor(sa, sb) };
        pool.push(s);
    }
    // Output the last few signals so everything stays live.
    for s in pool.iter().rev().take(3) {
        x.output(*s);
    }
    x
}

#[test]
fn cuts_are_valid_and_functions_match() {
    let mut rng = Rng::seed_from_u64(0xC07_0001);
    for case in 0..48 {
        let recipe = arb_recipe(&mut rng);
        let x = build(&recipe);
        let params = CutParams::default();
        let sets = enumerate_cuts(&x, &params);
        for n in x.live_gates() {
            let cuts = sets.of(n);
            assert!(!cuts.is_empty(), "case {case}: gate {n} has no cuts");
            assert!(cuts.len() <= CUT_LIMIT + 1, "case {case}");
            for cut in cuts {
                assert!(cut.size() <= params.cut_size, "case {case}");
                let tt = cut_function(&x, n, cut);
                assert!(tt.is_some(), "case {case}: invalid cut {cut:?} of {n}");
                let tt = tt.unwrap();
                assert_eq!(tt.vars(), cut.size(), "case {case}");
            }
        }
    }
}

#[test]
fn smaller_cut_sizes_give_subsets() {
    let mut rng = Rng::seed_from_u64(0xC07_0002);
    for case in 0..48 {
        let recipe = arb_recipe(&mut rng);
        let x = build(&recipe);
        let small = enumerate_cuts(&x, &CutParams { cut_size: 3 });
        for n in x.live_gates() {
            for cut in small.of(n) {
                assert!(cut.size() <= 3, "case {case}");
            }
        }
    }
}
