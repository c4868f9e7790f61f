//! Shared optimization state: the classifier, the synthesizer, and the
//! on-demand representative database.

use xag_affine::AffineClassifier;
use xag_network::XagFragment;
use xag_synth::Synthesizer;
use xag_tt::hash::FxHashMap;
use xag_tt::Tt;

/// The state every optimization pass shares: the affine classifier, the
/// synthesis engine, and the `XAG_DB` of the paper (representative truth
/// table → low-AND circuit), synthesized on demand and cached.
///
/// One context is meant to outlive many passes *and many networks*: a
/// representative synthesized while rewriting one benchmark is reused by
/// every later pass and benchmark, so the database amortizes exactly like
/// the paper's precomputed one (DESIGN.md §3).
///
/// # Examples
///
/// ```
/// use xag_mc::OptContext;
/// use xag_tt::Tt;
///
/// let mut ctx = OptContext::new();
/// let maj = Tt::from_bits(0xe8, 3); // majority: MC 1
/// let frag = ctx.candidate_for_cut(maj);
/// assert_eq!(frag.num_ands(), 1);
/// assert_eq!(frag.eval_tt(), maj);
/// assert_eq!(ctx.db_size(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct OptContext {
    classifier: AffineClassifier,
    synth: Synthesizer,
    /// The `XAG_DB` of the paper: representative truth table → circuit.
    db: FxHashMap<Tt, XagFragment>,
}

impl OptContext {
    /// Creates a context with an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct representatives currently in the database.
    pub fn db_size(&self) -> usize {
        self.db.len()
    }

    /// Clones the context for a worker thread: the fork starts with all of
    /// this context's memoized state, so representatives synthesized before
    /// the parallel region stay amortized inside it.
    ///
    /// Classification and synthesis are deterministic, so a fork produces
    /// the same candidate for the same cut function as its parent — cache
    /// state only affects speed, never results (the invariant the
    /// determinism tests pin down). Cache-hit statistics start at zero in
    /// the fork, so absorbing it back adds only the fork's own work.
    pub fn fork(&self) -> OptContext {
        OptContext {
            classifier: self.classifier.fork(),
            synth: self.synth.fork(),
            db: self.db.clone(),
        }
    }

    /// Merges a fork's state back: database entries, classification cache,
    /// and synthesis cache discovered by the worker are kept; entries the
    /// parent already has win ties (they are equal anyway, by determinism).
    pub fn absorb(&mut self, fork: OptContext) {
        for (tt, frag) in fork.db {
            self.db.entry(tt).or_insert(frag);
        }
        self.classifier.absorb(fork.classifier);
        self.synth.absorb(fork.synth);
    }

    /// AND-gate counts of the database entries, as `(ands, entries)` pairs
    /// sorted by AND count — the shape the paper reports for `XAG_DB`.
    pub fn db_histogram(&self) -> Vec<(usize, usize)> {
        let mut hist = std::collections::BTreeMap::new();
        for frag in self.db.values() {
            *hist.entry(frag.num_ands()).or_insert(0usize) += 1;
        }
        hist.into_iter().collect()
    }

    /// Algorithm 1 of the paper: build the replacement circuit for a cut
    /// function — classify, look the representative up in the database
    /// (synthesizing on a miss), then replay the affine operations.
    pub fn candidate_for_cut(&mut self, tt: Tt) -> XagFragment {
        // Reduce to the support first: classification and the database work
        // on the compacted function.
        let (g, map) = tt.shrink_to_support();
        if g.vars() != tt.vars() {
            let inner = self.candidate_for_cut_reduced(g);
            let lifted = inner.with_inputs(tt.vars(), &map);
            debug_assert_eq!(lifted.eval_tt(), tt);
            return lifted;
        }
        let frag = self.candidate_for_cut_reduced(tt);
        debug_assert_eq!(frag.eval_tt(), tt);
        frag
    }

    fn candidate_for_cut_reduced(&mut self, tt: Tt) -> XagFragment {
        if tt.is_constant() || tt.vars() == 0 {
            return XagFragment::constant(tt.vars(), tt.is_one());
        }
        let classification = self.classifier.classify(tt);
        let rep = classification.representative;
        let rep_frag = match self.db.get(&rep) {
            Some(frag) => frag.clone(),
            None => {
                let frag = self.synth.synthesize(rep);
                self.db.insert(rep, frag.clone());
                frag
            }
        };
        rep_frag.undo_affine_ops(&classification.ops)
    }
}
