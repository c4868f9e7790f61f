//! Randomized property tests for affine classification, driven by a
//! fixed-seed deterministic generator.

use mc_rng::Rng;
use xag_affine::{AffineClassifier, Classification};
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
fn a_returned_classification_never_changes() {
    // One classifier sees a stream of five- and six-variable functions —
    // half of them affine images of earlier ones, so classes recur — each
    // followed by its representative. Classifying the whole stream again
    // must return every first answer unchanged: the candidate memo of the
    // rewriting round relies on it.
    let mut rng = Rng::seed_from_u64(0xAF05);
    let mut cls = AffineClassifier::new();
    let mut stream: Vec<(Tt, Classification)> = Vec::new();
    let mut seeds: Vec<Tt> = Vec::new();
    for k in 0..40 {
        let f = if k % 2 == 1 && !seeds.is_empty() {
            let base = seeds[rng.gen_range(0..seeds.len())];
            let ops: Vec<AffineOp> = (0..rng.gen_range(1..6))
                .map(|_| arb_op(&mut rng, base.vars()))
                .collect();
            AffineOp::apply_all(base, &ops)
        } else {
            let f = Tt::from_bits(rng.next_u64(), rng.gen_range(5..7));
            seeds.push(f);
            f
        };
        let c = cls.classify(f);
        let rep = c.representative;
        stream.push((f, c));
        let c_rep = cls.classify(rep);
        stream.push((rep, c_rep));
    }
    for (f, first) in &stream {
        assert_eq!(&cls.classify(*f), first, "{f:?}");
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
