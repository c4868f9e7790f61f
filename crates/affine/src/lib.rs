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
#[derive(Debug, Default)]
pub struct AffineClassifier {
    cache: FxHashMap<Tt, Entry>,
    hits: u64,
    misses: u64,
}

/// A memoized classification of the entry's key.
#[derive(Debug)]
struct Entry {
    classification: Classification,
    /// The beam search restarted from the key returns the key itself, so
    /// a fixpoint loop that reaches the key can stop without restarting.
    fixpoint: bool,
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
    /// further down) stands. A representative whose restart returned
    /// itself is marked as a fixpoint in its cache entry, and a later loop
    /// that reaches it stops there without searching again; one pinned at
    /// the cap is not marked.
    pub fn classify(&mut self, f: Tt) -> Classification {
        if let Some(e) = self.cache.get(&f) {
            self.hits += 1;
            return e.classification.clone();
        }
        self.misses += 1;
        if f.vars() <= exact::MAX_EXACT_VARS {
            let c = exact::classify(f);
            self.remember(f, &c);
            return c;
        }
        // The beam search is not naturally idempotent (a restart from the
        // found representative may descend further); iterate to a fixpoint,
        // skipping the restart from a representative already known to be
        // one (the search is a pure function), and pin the final
        // representative in the cache unless it already has an entry: a
        // returned classification is never replaced.
        let mut c = beam::classify(f);
        let mut fixpoint = false;
        for _ in 0..8 {
            if self
                .cache
                .get(&c.representative)
                .is_some_and(|e| e.fixpoint)
            {
                fixpoint = true;
                break;
            }
            let next = beam::classify(c.representative);
            if next.representative == c.representative {
                fixpoint = true;
                break;
            }
            c.ops.extend(next.ops);
            c.representative = next.representative;
        }
        self.remember(f, &c);
        let pin = self.cache.entry(c.representative).or_insert_with(|| Entry {
            classification: Classification {
                representative: c.representative,
                ops: Vec::new(),
                exact: false,
            },
            fixpoint: false,
        });
        pin.fixpoint |= fixpoint;
        c
    }

    /// Caches `c` as the classification of `f`, which has no entry yet.
    fn remember(&mut self, f: Tt, c: &Classification) {
        debug_assert_eq!(
            AffineOp::apply_all(f, &c.ops),
            c.representative,
            "classification replay mismatch"
        );
        self.cache.insert(
            f,
            Entry {
                classification: c.clone(),
                fixpoint: false,
            },
        );
    }

    /// `(cache hits, cache misses)` since construction.
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Classifies a function of at most four variables exactly, from
    /// the process-wide orbit tables, without a cache: the answer
    /// [`AffineClassifier::classify`] gives for it.
    ///
    /// # Panics
    ///
    /// Panics if `f` has more than four variables.
    pub fn classify_exact(f: Tt) -> Classification {
        exact::classify(f)
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
    fn restarts_stop_only_at_recorded_fixpoints() {
        // A cached representative whose restart descends further is not a
        // fixpoint: classify such a first-search result before the function
        // whose first search lands on it, and the function must still get
        // the answer a fresh classifier gives it.
        let mut rng = mc_rng::Rng::seed_from_u64(0xF1C5);
        let mut checked = 0;
        for _ in 0..200 {
            let f = Tt::from_bits(rng.next_u64(), rng.gen_range(5..7));
            let first = beam::classify(f).representative;
            if beam::classify(first).representative == first {
                continue;
            }
            let mut cls = AffineClassifier::new();
            let _ = cls.classify(first);
            assert_eq!(
                cls.classify(f),
                AffineClassifier::new().classify(f),
                "{f:?}"
            );
            checked += 1;
        }
        assert!(checked > 0, "no first search left a restart to make");
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
