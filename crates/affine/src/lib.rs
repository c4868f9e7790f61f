//! Affine classification of Boolean functions.
//!
//! Two Boolean functions are *affine-equivalent* if one can be obtained from
//! the other by a sequence of the five operations of the paper's
//! Definition 2.1: variable swaps, input complements, output complement,
//! translations `x_i ← x_i ⊕ x_j` and disjoint translations `f ← f ⊕ x_i`.
//! Multiplicative complexity is invariant under all five, so the DAC'19 flow
//! only needs MC-optimal circuits for one *representative* per class
//! (1, 2, 3, 8, 48 and 150 357 classes for 1–6 variables).
//!
//! This crate computes representatives and the operation sequence reaching
//! them:
//!
//! * **Exactly** for functions of up to four variables, by flooding the
//!   entire function space once (the representative is the lexicographically
//!   smallest truth table in the orbit);
//! * **Heuristically** for five and six variables, by a deterministic beam
//!   search over the affine generators with an iteration limit — mirroring
//!   the paper, which also runs its spectral classifier under an iteration
//!   limit and omits the classes it cannot finish.
//!
//! The returned [`Classification`] is always *sound*: replaying
//! `ops` on the input function yields `representative` (this is checked by a
//! debug assertion and by the property tests). Heuristic classification may
//! split one true class into a few pseudo-classes, which only reduces
//! database sharing downstream, never correctness.
//!
//! # Examples
//!
//! ```
//! use xag_affine::AffineClassifier;
//! use xag_tt::{AffineOp, Tt};
//!
//! let mut cls = AffineClassifier::new();
//! // The majority function is affine-equivalent to AND (paper Example 2.3).
//! let maj = cls.classify(Tt::from_bits(0xe8, 3));
//! let and = cls.classify(Tt::from_bits(0x88, 3));
//! assert_eq!(maj.representative, and.representative);
//! assert_eq!(AffineOp::apply_all(Tt::from_bits(0xe8, 3), &maj.ops), maj.representative);
//! ```

use xag_tt::hash::FxHashMap;
use xag_tt::{AffineOp, Tt};

mod beam;
mod exact;
mod generators;

pub use generators::generators;

/// Result of classifying a function: its class representative and the
/// operation sequence mapping the function onto the representative.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Classification {
    /// The class representative (for the exact classifier, the
    /// lexicographically smallest truth table in the affine orbit).
    pub representative: Tt,
    /// Operations such that applying them to the classified function, in
    /// order, yields `representative`.
    pub ops: Vec<AffineOp>,
    /// True iff the representative is the exact orbit minimum (always the
    /// case for functions of at most four variables).
    pub exact: bool,
}

/// Affine classifier with a per-instance memoization cache.
///
/// The cache mirrors the paper's §4.1: "we maintain a cache of computed
/// representatives and affine operations for all considered Boolean
/// functions during rewriting", so no function is classified twice.
#[derive(Debug, Clone, Default)]
pub struct AffineClassifier {
    cache: FxHashMap<Tt, Classification>,
    hits: u64,
    misses: u64,
}

impl AffineClassifier {
    /// Creates a classifier with an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Classifies `f`, returning its representative and the operations
    /// mapping `f` to it. Results are memoized and never replaced: once a
    /// classifier has returned a classification for `f`, it returns the
    /// same one for `f` for as long as it lives.
    ///
    /// Classification is idempotent — the representative classifies to
    /// itself — with one exception for five and six variables. The beam
    /// search is iterated to a fixpoint under a cap of 8 restarts; if the
    /// cap stops it, the final representative is pinned to itself only when
    /// it has no classification yet, and an earlier one (which may lead
    /// further down) stands.
    pub fn classify(&mut self, f: Tt) -> Classification {
        if let Some(c) = self.cache.get(&f) {
            self.hits += 1;
            return c.clone();
        }
        self.misses += 1;
        let c = if f.vars() <= exact::MAX_EXACT_VARS {
            exact::classify(f)
        } else {
            // The beam search is not naturally idempotent (a restart from
            // the found representative may descend further); iterate to a
            // fixpoint and pin the final representative in the cache,
            // unless it already has an entry: a returned classification is
            // never replaced.
            let mut c = beam::classify(f);
            for _ in 0..8 {
                let next = beam::classify(c.representative);
                if next.representative == c.representative {
                    break;
                }
                c.ops.extend(next.ops);
                c.representative = next.representative;
            }
            self.cache
                .entry(c.representative)
                .or_insert_with(|| Classification {
                    representative: c.representative,
                    ops: Vec::new(),
                    exact: false,
                });
            c
        };
        debug_assert_eq!(
            AffineOp::apply_all(f, &c.ops),
            c.representative,
            "classification replay mismatch"
        );
        self.cache.insert(f, c.clone());
        c
    }

    /// `(cache hits, cache misses)` since construction.
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Clones the classifier for a worker thread: the fork keeps the whole
    /// memoization cache but starts its hit/miss statistics at zero, so a
    /// later [`AffineClassifier::absorb`] adds exactly the work the fork
    /// did (instead of double-counting the parent's history).
    pub fn fork(&self) -> AffineClassifier {
        AffineClassifier {
            cache: self.cache.clone(),
            hits: 0,
            misses: 0,
        }
    }

    /// Merges a fork's memoized results into this classifier. Both compute
    /// identical results for identical inputs (the search is
    /// deterministic), so merge order does not matter; existing entries
    /// are kept. Used to fold worker-local classifiers back into a shared
    /// one after a parallel rewriting round.
    pub fn absorb(&mut self, other: AffineClassifier) {
        for (f, c) in other.cache {
            self.cache.entry(f).or_insert(c);
        }
        self.hits = self.hits.saturating_add(other.hits);
        self.misses = self.misses.saturating_add(other.misses);
    }

    /// Number of distinct affine classes among all functions of `n ≤ 4`
    /// variables (computed from the exact tables).
    ///
    /// # Panics
    ///
    /// Panics if `n > 4`.
    pub fn count_classes(n: usize) -> usize {
        exact::count_classes(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_class_counts() {
        // The paper quotes 1, 2, 3, 8 classes for 1..4 variables.
        assert_eq!(AffineClassifier::count_classes(1), 1);
        assert_eq!(AffineClassifier::count_classes(2), 2);
        assert_eq!(AffineClassifier::count_classes(3), 3);
        assert_eq!(AffineClassifier::count_classes(4), 8);
    }

    #[test]
    fn majority_and_and_share_a_class() {
        let mut cls = AffineClassifier::new();
        let maj = cls.classify(Tt::from_bits(0xe8, 3));
        let and = cls.classify(Tt::from_bits(0x88, 3));
        assert_eq!(maj.representative, and.representative);
        assert!(maj.exact);
    }

    #[test]
    fn affine_functions_map_to_zero() {
        let mut cls = AffineClassifier::new();
        for n in 1..=4usize {
            let parity = Tt::from_fn(n, |m| m.count_ones() % 2 == 1);
            let c = cls.classify(parity);
            assert!(c.representative.is_zero(), "n={n}");
        }
    }

    #[test]
    fn replay_is_checked_for_wide_functions() {
        let mut cls = AffineClassifier::new();
        let f = Tt::from_bits(0xdead_beef_0bad_f00d, 6);
        let c = cls.classify(f);
        assert_eq!(AffineOp::apply_all(f, &c.ops), c.representative);
        // The search never returns a denser ANF than the input's.
        assert!(c.representative.anf().count_ones() <= f.anf().count_ones());
    }

    #[test]
    fn cache_hits_are_counted() {
        let mut cls = AffineClassifier::new();
        let f = Tt::from_bits(0xe8, 3);
        let _ = cls.classify(f);
        let _ = cls.classify(f);
        let (hits, misses) = cls.cache_stats();
        assert_eq!(hits, 1);
        assert_eq!(misses, 1);
    }
}
