//! Randomized property tests for affine classification, driven by a
//! fixed-seed deterministic generator.

use mc_rng::Rng;
use xag_affine::AffineClassifier;
use xag_tt::{AffineOp, Tt};

fn arb_tt(rng: &mut Rng) -> Tt {
    let vars = rng.gen_range(1..7);
    Tt::from_bits(rng.next_u64(), vars)
}

fn arb_op(rng: &mut Rng, vars: usize) -> AffineOp {
    loop {
        match rng.gen_range(0..5) {
            0 => {
                let i = rng.gen_range(0..vars);
                let j = rng.gen_range(0..vars);
                if i != j {
                    return AffineOp::Swap(i, j);
                }
            }
            1 => return AffineOp::FlipInput(rng.gen_range(0..vars)),
            2 => return AffineOp::FlipOutput,
            3 => {
                let dst = rng.gen_range(0..vars);
                let src = rng.gen_range(0..vars);
                if dst != src {
                    return AffineOp::Translate { dst, src };
                }
            }
            _ => return AffineOp::XorOutput(rng.gen_range(0..vars)),
        }
    }
}

#[test]
fn replay_always_reaches_the_representative() {
    let mut rng = Rng::seed_from_u64(0xAF01);
    for _ in 0..64 {
        let f = arb_tt(&mut rng);
        let mut cls = AffineClassifier::new();
        let c = cls.classify(f);
        assert_eq!(AffineOp::apply_all(f, &c.ops), c.representative, "{f:?}");
    }
}

#[test]
fn classification_is_idempotent() {
    let mut rng = Rng::seed_from_u64(0xAF02);
    for _ in 0..64 {
        let f = arb_tt(&mut rng);
        let mut cls = AffineClassifier::new();
        let c = cls.classify(f);
        let c2 = cls.classify(c.representative);
        assert_eq!(c2.representative, c.representative, "{f:?}");
    }
}

#[test]
fn exact_classifier_is_class_invariant() {
    // For ≤ 4 variables classification is exact: any chain of affine
    // operations lands in the same class.
    let mut rng = Rng::seed_from_u64(0xAF03);
    for _ in 0..64 {
        let f = Tt::from_bits(rng.next_u64() & 0xffff, 4);
        let ops: Vec<AffineOp> = (0..rng.gen_range(1..6))
            .map(|_| arb_op(&mut rng, 4))
            .collect();
        let g = AffineOp::apply_all(f, &ops);
        let mut cls = AffineClassifier::new();
        assert_eq!(
            cls.classify(f).representative,
            cls.classify(g).representative,
            "{f:?} {ops:?}"
        );
    }
}

#[test]
fn representative_is_linear_free_for_wide_functions() {
    let mut rng = Rng::seed_from_u64(0xAF05);
    for _ in 0..64 {
        let f = Tt::from_bits(rng.next_u64(), 6);
        let mut cls = AffineClassifier::new();
        let rep = cls.classify(f).representative;
        let anf = rep.anf();
        assert_eq!(anf & 1, 0, "{f:?}");
        for i in 0..6 {
            assert_eq!(
                (anf >> (1u64 << i)) & 1,
                0,
                "{f:?}: linear term x{i} survived"
            );
        }
    }
}
