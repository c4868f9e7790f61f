//! Heuristic affine classification for five- and six-variable functions.
//!
//! The exact orbit of a 6-variable function under the affine group is far
//! too large to enumerate (the group has ≈ 2×10¹³ elements), so — like the
//! paper, which runs the Miller–Soeken spectral classifier under an
//! iteration limit — we search heuristically:
//!
//! 1. the *linear part* of the function (constant and degree-1 ANF terms) is
//!    normalized away exactly, using disjoint translations and the output
//!    complement; this alone maps every affine function to the zero
//!    representative;
//! 2. a deterministic beam search over the remaining generators (input
//!    complements, translations, swaps) minimizes the linear-normalized
//!    truth table lexicographically, bounded by an iteration budget.
//!
//! The result is always a valid class member reachable from the input (the
//! operation sequence is returned and replayed in tests); when the budget
//! runs out before the search stabilizes, the classification is still
//! sound, merely a coarser canonical form (`exact == false` in all
//! heuristic cases).

use std::collections::HashSet;

use xag_tt::{AffineOp, Tt};

use crate::Classification;

/// Number of candidate functions kept per beam-search round.
const BEAM_WIDTH: usize = 8;

/// Upper bound on generator applications before the search gives up and
/// returns the best representative found so far (the paper uses an
/// iteration limit of 100 000 on its classification routine).
const ITERATION_LIMIT: usize = 20_000;

/// Rounds without improvement before the search stops early.
const PATIENCE: usize = 2;

#[derive(Clone)]
struct Candidate {
    tt: Tt,
    rank: (u32, u64),
    ops: Vec<AffineOp>,
}

impl Candidate {
    fn new(tt: Tt, ops: Vec<AffineOp>) -> Self {
        Self {
            tt,
            rank: rank(tt),
            ops,
        }
    }
}

/// Search ranking: prefer sparse ANFs (fewer monomials), then
/// lexicographically small truth tables. Sparser forms are closer to the
/// standard representatives and make the search landscape smoother than raw
/// lexicographic comparison.
fn rank(tt: Tt) -> (u32, u64) {
    (tt.anf().count_ones(), tt.bits())
}

/// Removes the constant and all linear terms from the ANF of `tt`,
/// appending the corresponding operations to `ops`.
fn normalize_linear(mut tt: Tt, ops: &mut Vec<AffineOp>) -> Tt {
    let anf = tt.anf();
    for i in 0..tt.vars() {
        if (anf >> (1u64 << i)) & 1 == 1 {
            let op = AffineOp::XorOutput(i);
            tt = op.apply(tt);
            ops.push(op);
        }
    }
    if anf & 1 == 1 {
        tt = !tt;
        ops.push(AffineOp::FlipOutput);
    }
    tt
}

/// Generators used on linear-normalized functions: the linear output part is
/// re-normalized after each application, so disjoint translations and the
/// output complement need not be searched explicitly.
fn structural_generators(n: usize) -> Vec<AffineOp> {
    let mut gens = Vec::new();
    for i in 0..n {
        gens.push(AffineOp::FlipInput(i));
    }
    for i in 0..n {
        for j in 0..n {
            if i != j {
                gens.push(AffineOp::Translate { dst: i, src: j });
            }
        }
    }
    for i in 0..n {
        for j in (i + 1)..n {
            gens.push(AffineOp::Swap(i, j));
        }
    }
    gens
}

/// Classifies a function by linear normalization plus beam search.
pub fn classify(f: Tt) -> Classification {
    search(f, BEAM_WIDTH, ITERATION_LIMIT, PATIENCE)
}

/// The beam search of [`classify`] under explicit limits.
fn search(f: Tt, width: usize, iteration_limit: usize, patience: usize) -> Classification {
    let gens = structural_generators(f.vars());

    let mut initial_ops = Vec::new();
    let start = normalize_linear(f, &mut initial_ops);
    let mut best = Candidate::new(start, initial_ops);
    let mut beam = vec![best.clone()];
    let mut seen: HashSet<Tt> = HashSet::new();
    seen.insert(start);
    let mut iterations = 0usize;
    let mut stale = 0usize;

    'outer: while stale < patience && iterations < iteration_limit {
        let mut expansions: Vec<Candidate> = Vec::new();
        for cand in &beam {
            for &gen in &gens {
                iterations += 1;
                let mut ops = cand.ops.clone();
                ops.push(gen);
                let tt = normalize_linear(gen.apply(cand.tt), &mut ops);
                if seen.insert(tt) {
                    expansions.push(Candidate::new(tt, ops));
                }
                if iterations >= iteration_limit {
                    if expansions.is_empty() {
                        break 'outer;
                    }
                    break;
                }
            }
        }
        if expansions.is_empty() {
            break;
        }
        expansions.sort_by(|a, b| a.rank.cmp(&b.rank).then(a.ops.len().cmp(&b.ops.len())));
        expansions.truncate(width);
        if expansions[0].rank < best.rank {
            best = expansions[0].clone();
            stale = 0;
        } else {
            stale += 1;
        }
        beam = expansions;
    }

    Classification {
        representative: best.tt,
        ops: best.ops,
        exact: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_rng::Rng;

    #[test]
    fn replay_is_valid() {
        for bits in [
            0xdead_beef_cafe_f00du64,
            0x0123_4567_89ab_cdef,
            0x8000_0000_0000_0001,
            0x6996_9669_9669_6996,
        ] {
            let f = Tt::from_bits(bits, 6);
            let c = classify(f);
            assert_eq!(AffineOp::apply_all(f, &c.ops), c.representative);
            assert!(!c.exact);
        }
    }

    #[test]
    fn affine_functions_reach_zero() {
        let parity6 = Tt::from_fn(6, |m| m.count_ones() % 2 == 1);
        let c = classify(parity6);
        assert!(c.representative.is_zero());
        let mixed = Tt::from_fn(5, |m| ((m >> 1) ^ (m >> 4) ^ 1) & 1 == 1);
        assert!(classify(mixed).representative.is_zero());
        assert!(classify(Tt::one(6)).representative.is_zero());
    }

    #[test]
    fn representative_has_no_linear_part() {
        let f = Tt::from_bits(0x1ee7_5eed_0b57_ac1e, 6);
        let c = classify(f);
        let anf = c.representative.anf();
        assert_eq!(anf & 1, 0, "constant term survived");
        for i in 0..6 {
            assert_eq!((anf >> (1u64 << i)) & 1, 0, "linear term x{i} survived");
        }
    }

    #[test]
    fn classification_is_idempotent() {
        let f = Tt::from_bits(0x1ee7_5eed_0b57_ac1e, 6);
        let c = classify(f);
        let c2 = classify(c.representative);
        assert_eq!(c2.representative, c.representative);
    }

    #[test]
    fn generator_images_mostly_share_representatives() {
        // Heuristic consistency: for a sample function, most single-generator
        // images classify to the same representative.
        let f = Tt::from_bits(0x0007_0013_0037_1248, 6);
        let base = classify(f).representative;
        let gens = crate::generators::generators(6);
        let matches = gens
            .iter()
            .filter(|&&gen| classify(gen.apply(f)).representative == base)
            .count();
        // The heuristic cannot guarantee full class consistency (neither can
        // the paper's iteration-limited spectral classifier); we require a
        // meaningful fraction of single-step neighbours to agree.
        assert!(
            matches * 3 >= gens.len(),
            "only {matches}/{} generator images agreed",
            gens.len()
        );
    }

    #[test]
    fn iteration_limit_is_respected() {
        let f = Tt::from_bits(0xfedc_ba98_7654_3210, 6);
        let c = search(f, 4, 120, 2);
        assert_eq!(AffineOp::apply_all(f, &c.ops), c.representative);
    }

    #[test]
    fn tight_budgets_stay_sound() {
        let mut rng = Rng::seed_from_u64(0xAF04);
        for _ in 0..64 {
            let vars = rng.gen_range(1..7);
            let f = Tt::from_bits(rng.next_u64(), vars);
            let limit = rng.gen_range(10..500);
            let c = search(f, 2, limit, 1);
            assert_eq!(
                AffineOp::apply_all(f, &c.ops),
                c.representative,
                "{f:?} limit {limit}"
            );
        }
    }

    #[test]
    fn and_of_six_vars_classifies_compactly() {
        // x0∧…∧x5 is already linear-free; its representative should be no
        // larger than itself.
        let and6 = Tt::from_fn(6, |m| m == 63);
        let c = classify(and6);
        // AND6 has a single ANF monomial; no class member can be sparser, so
        // the search must keep an equally sparse representative.
        assert_eq!(c.representative.anf().count_ones(), 1);
        assert_eq!(AffineOp::apply_all(and6, &c.ops), c.representative);
    }
}
