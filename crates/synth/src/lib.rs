//! Multiplicative-complexity-oriented synthesis of Boolean functions.
//!
//! The DAC'19 flow relies on a database that maps every affine-class
//! representative (up to six inputs) to an XAG with the *minimum* number of
//! AND gates, taken from the NIST SLP collection. This crate is the
//! from-scratch replacement for that database: given a truth table it
//! produces an [`XagFragment`] with as few AND gates as this implementation
//! can establish, using a ladder of techniques:
//!
//! 1. **Affine functions** — zero AND gates, by construction (exact);
//! 2. **Quadratic functions** (ANF degree 2) — a symplectic (Gram–Schmidt
//!    style) decomposition into `rank/2` products of linear forms, which is
//!    provably MC-optimal for this class;
//! 3. **Bounded exact search** — a depth-first SLP search proving MC ≤ 2
//!    where feasible (degree ≤ 4, small variable counts);
//! 4. **Davio recursion** — `f = f₀ ⊕ x_i · ∂f/∂x_i` on the best variable,
//!    with memoization, as the general upper-bound fallback.
//!
//! Every produced fragment is verified against its target truth table
//! before being returned (and cached).
//!
//! # Examples
//!
//! ```
//! use xag_synth::Synthesizer;
//! use xag_tt::Tt;
//!
//! let mut synth = Synthesizer::new();
//! // Majority of three: multiplicative complexity 1 (paper Example 3.1).
//! let frag = synth.synthesize(Tt::from_bits(0xe8, 3));
//! assert_eq!(frag.num_ands(), 1);
//! assert_eq!(frag.eval_tt().bits(), 0xe8);
//! ```

use xag_affine::AffineClassifier;
use xag_network::XagFragment;
use xag_tt::hash::FxHashMap;
use xag_tt::Tt;

mod davio;
mod exact;
mod quadratic;

pub use quadratic::quadratic_rank;

/// Largest (support) variable count for which the exact MC ≤ 2 SLP search
/// runs on functions of degree 3–4. The search is exponential in this
/// bound; 5 buys a few better database entries at a noticeable cache-miss
/// cost, 6 is usually too slow.
const EXACT_SEARCH_MAX_VARS: usize = 4;

/// Fragment synthesizer with a per-instance memoization cache.
///
/// The cache plays the role of the paper's `XAG_DB`: each (pseudo-)
/// representative is synthesized at most once per process.
#[derive(Debug, Clone, Default)]
pub struct Synthesizer {
    cache: FxHashMap<Tt, XagFragment>,
    classifier: AffineClassifier,
}

impl Synthesizer {
    /// Creates a synthesizer with an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Synthesizes a fragment computing `f` over `f.vars()` inputs,
    /// minimizing AND gates. The result is cached and verified against `f`.
    pub fn synthesize(&mut self, f: Tt) -> XagFragment {
        let frag = self.synth_inner(f);
        debug_assert_eq!(frag.eval_tt(), f, "synthesized fragment mismatch");
        frag
    }

    /// Clones the synthesizer for a worker thread, with statistics reset
    /// (see [`AffineClassifier::fork`]).
    pub fn fork(&self) -> Synthesizer {
        Synthesizer {
            cache: self.cache.clone(),
            classifier: self.classifier.fork(),
        }
    }

    /// Merges a fork's cache into this one. Synthesis is deterministic, so
    /// equal keys carry equal fragments and merge order does not matter;
    /// existing entries are kept. Used to fold worker-local synthesizers
    /// back into a shared one after a parallel rewriting round.
    pub fn absorb(&mut self, other: Synthesizer) {
        for (f, frag) in other.cache {
            self.cache.entry(f).or_insert(frag);
        }
        self.classifier.absorb(other.classifier);
    }

    pub(crate) fn synth_inner(&mut self, f: Tt) -> XagFragment {
        if f.is_constant() {
            return XagFragment::constant(f.vars(), f.is_one());
        }
        // Normalize to the support and canonical polarity before the cache.
        let (g, map) = f.shrink_to_support();
        if g.vars() != f.vars() {
            let inner = self.synth_inner(g);
            return inner.with_inputs(f.vars(), &map);
        }
        if let Some(hit) = self.cache.get(&f) {
            return hit.clone();
        }
        // cost(f) == cost(!f): canonicalize polarity on the ANF constant.
        if f.anf() & 1 == 1 {
            let inner = self.synth_inner(!f);
            let frag = inner.complemented();
            self.cache.insert(f, frag.clone());
            return frag;
        }

        let frag = self.synth_core(f);
        debug_assert_eq!(frag.eval_tt(), f);
        self.cache.insert(f, frag.clone());
        frag
    }

    fn synth_core(&mut self, f: Tt) -> XagFragment {
        let degree = f.degree();
        if degree <= 1 {
            return affine_fragment(f);
        }
        if degree == 2 {
            return quadratic::synthesize(f);
        }
        // Multiplicative complexity is affine-invariant: synthesize the
        // class representative (sparser, often lower apparent complexity)
        // and replay the operations as free XOR/NOT/wiring gates. The exact
        // classifier covers up to four variables.
        if f.vars() <= 4 {
            let c = self.classifier.classify(f);
            // Guard against ping-ponging with the polarity canonicalization
            // in `synth_inner`: when the representative is just the
            // complement, the ladder below handles the function directly.
            if !c.ops.is_empty() && c.representative != f && c.representative != !f {
                let rep_frag = self.synth_inner(c.representative);
                let frag = rep_frag.undo_affine_ops(&c.ops);
                debug_assert_eq!(frag.eval_tt(), f);
                return frag;
            }
        }
        // Degree d needs at least ⌈log₂ d⌉ AND gates; MC = 2 is only
        // possible for degree ≤ 4.
        if degree <= 4 && f.vars() <= EXACT_SEARCH_MAX_VARS {
            if let Some(frag) = exact::search_mc2(f) {
                return frag;
            }
        }
        davio::synthesize(self, f)
    }
}

/// Builds the (AND-free) fragment of an affine function.
fn affine_fragment(f: Tt) -> XagFragment {
    let (mask, constant) = f
        .affine_decomposition()
        .expect("affine_fragment requires an affine function");
    let mut frag = XagFragment::new(f.vars());
    let refs: Vec<_> = (0..f.vars())
        .filter(|i| (mask >> i) & 1 == 1)
        .map(XagFragment::input)
        .collect();
    let out = frag.xor_many(&refs);
    frag.set_output(out.complement_if(constant));
    frag
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affine_functions_need_no_ands() {
        let mut s = Synthesizer::new();
        for n in 1..=6usize {
            let parity = Tt::from_fn(n, |m| m.count_ones() % 2 == 1);
            let frag = s.synthesize(parity);
            assert_eq!(frag.num_ands(), 0, "n={n}");
            assert_eq!(frag.eval_tt(), parity);
            let frag_inv = s.synthesize(!parity);
            assert_eq!(frag_inv.num_ands(), 0);
            assert_eq!(frag_inv.eval_tt(), !parity);
        }
    }

    #[test]
    fn majority_and_mux_take_one_and() {
        let mut s = Synthesizer::new();
        let maj = Tt::from_bits(0xe8, 3);
        assert_eq!(s.synthesize(maj).num_ands(), 1);
        let mux = Tt::from_bits(0xd8, 3); // s ? a : b
        assert_eq!(s.synthesize(mux).num_ands(), 1);
    }

    #[test]
    fn and_chains() {
        let mut s = Synthesizer::new();
        for n in 2..=6usize {
            let and_n = Tt::from_fn(n, |m| m == (1 << n) - 1);
            let frag = s.synthesize(and_n);
            assert_eq!(frag.eval_tt(), and_n);
            assert_eq!(frag.num_ands(), n - 1, "AND{n} needs n-1 ANDs");
        }
    }

    #[test]
    fn known_small_mcs() {
        let mut s = Synthesizer::new();
        // All 3-variable functions have MC ≤ 2 (the degree-3 class needs 2).
        for bits in 0..256u64 {
            let f = Tt::from_bits(bits, 3);
            let frag = s.synthesize(f);
            assert_eq!(frag.eval_tt(), f, "function {bits:#x}");
            assert!(frag.num_ands() <= 2, "{bits:#x} used {}", frag.num_ands());
        }
    }

    #[test]
    fn four_var_functions_stay_reasonable() {
        // The true bound is 3; our ladder guarantees ≤ 3 via exact search
        // for degree ≤ 4 (always true at n=4) plus quadratic/davio.
        let mut s = Synthesizer::new();
        let mut worst = 0;
        for bits in (0..65_536u64).step_by(97) {
            let f = Tt::from_bits(bits, 4);
            let frag = s.synthesize(f);
            assert_eq!(frag.eval_tt(), f);
            worst = worst.max(frag.num_ands());
        }
        assert!(worst <= 4, "worst 4-var MC estimate was {worst}");
    }

    #[test]
    fn support_reduction_lifts_correctly() {
        let mut s = Synthesizer::new();
        // f depends only on x1, x4 out of 6 vars.
        let f = Tt::projection(1, 6) & Tt::projection(4, 6);
        let frag = s.synthesize(f);
        assert_eq!(frag.num_inputs(), 6);
        assert_eq!(frag.num_ands(), 1);
        assert_eq!(frag.eval_tt(), f);
    }

    #[test]
    fn cache_is_effective() {
        let mut s = Synthesizer::new();
        let f = Tt::from_bits(0x9e37_79b9_7f4a_7c15, 6);
        let a = s.synthesize(f);
        let b = s.synthesize(f);
        assert_eq!(a, b);
    }
}
