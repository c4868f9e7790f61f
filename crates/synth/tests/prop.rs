//! Randomized property tests for MC-oriented synthesis, driven by a
//! fixed-seed deterministic generator.

use mc_rng::Rng;
use xag_synth::{quadratic_rank, Synthesizer};
use xag_tt::Tt;

fn arb_tt(rng: &mut Rng) -> Tt {
    let vars = rng.gen_range(1..7);
    Tt::from_bits(rng.next_u64(), vars)
}

/// Random quadratic function: XOR of random products of linear forms plus a
/// random affine part.
fn arb_quadratic(rng: &mut Rng) -> Tt {
    let n = rng.gen_range(2..7);
    let mask = (1u64 << n) - 1;
    let linf = |m: u64| Tt::from_fn(n, move |x| ((x & m & mask).count_ones() % 2) == 1);
    let mut f = linf(rng.next_u64());
    if rng.gen() {
        f = !f;
    }
    for _ in 0..rng.gen_range(0..4) {
        f = f ^ (linf(rng.next_u64()) & linf(rng.next_u64()));
    }
    f
}

#[test]
fn synthesis_is_functionally_correct() {
    let mut rng = Rng::seed_from_u64(0x5101);
    let mut s = Synthesizer::new();
    for _ in 0..96 {
        let f = arb_tt(&mut rng);
        let frag = s.synthesize(f);
        assert_eq!(frag.eval_tt(), f, "{f:?}");
    }
}

#[test]
fn quadratics_hit_the_symplectic_optimum() {
    let mut rng = Rng::seed_from_u64(0x5102);
    let mut s = Synthesizer::new();
    let mut hits = 0;
    for _ in 0..96 {
        let f = arb_quadratic(&mut rng);
        if f.degree() != 2 {
            continue;
        }
        hits += 1;
        let frag = s.synthesize(f);
        assert_eq!(frag.eval_tt(), f, "{f:?}");
        assert_eq!(frag.num_ands(), quadratic_rank(f) / 2, "{f:?}");
    }
    assert!(hits > 48, "only {hits}/96 samples were quadratic");
}

#[test]
fn complement_costs_the_same() {
    let mut rng = Rng::seed_from_u64(0x5103);
    let mut s = Synthesizer::new();
    for _ in 0..96 {
        let f = arb_tt(&mut rng);
        let a = s.synthesize(f).num_ands();
        let b = s.synthesize(!f).num_ands();
        assert_eq!(a, b, "{f:?}");
    }
}

#[test]
fn degree_lower_bound_is_respected() {
    // A circuit with k ANDs computes degree ≤ 2^k, so k ≥ ⌈log₂ degree⌉.
    let mut rng = Rng::seed_from_u64(0x5105);
    let mut s = Synthesizer::new();
    for _ in 0..96 {
        let f = arb_tt(&mut rng);
        let frag = s.synthesize(f);
        let deg = f.degree();
        if deg >= 1 {
            let lower = (32 - (deg - 1).leading_zeros()) as usize;
            assert!(
                frag.num_ands() >= lower,
                "{f:?}: {} ANDs for degree {deg}",
                frag.num_ands()
            );
        } else {
            assert_eq!(frag.num_ands(), 0, "{f:?}");
        }
    }
}
