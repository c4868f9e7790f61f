//! k-feasible cut enumeration for XAG networks.
//!
//! A *cut* of node `n` is a set of nodes (*leaves*) such that every path
//! from `n` to a primary input passes through a leaf, and every leaf lies on
//! such a path. A cut is *k-feasible* if it has at most `k` leaves. The
//! DAC'19 flow enumerates 6-feasible cuts with at most 12 cuts per node and
//! rewrites the sub-circuit each cut spans (paper §4.1).
//!
//! This implementation follows the classic bottom-up scheme: the cut set of
//! a gate is the k-feasible subset of the pairwise unions of its fanins'
//! cut sets, pruned for dominance (a cut that is a superset of another cut
//! of the same node is redundant) and truncated to a per-node limit, with
//! the trivial cut `{n}` always present so that enumeration can continue
//! upward.
//!
//! The data layout is built for the rewrite hot path:
//!
//! * a [`Cut`] is a `Copy` value with its (at most six) leaves inline — no
//!   per-cut heap allocation anywhere in the enumeration;
//! * [`CutSets`] is a flat arena indexed by dense node id — per-node spans
//!   into one shared `Vec<Cut>`, so fanin cut sets are merged by index
//!   instead of being cloned;
//! * every cut's local function is computed *during* enumeration in the same
//!   bottom-up sweep ([`CutSets::functions_of`]): a merged cut's truth table
//!   is the gate operator applied to the fanin cuts' tables lifted onto the
//!   merged leaf set with [`Tt::expand`], which replaces a per-cut recursive
//!   cone traversal with two table operations.
//!
//! # Examples
//!
//! ```
//! use xag_cuts::{enumerate_cuts, CutParams};
//! use xag_network::Xag;
//!
//! let mut xag = Xag::new();
//! let a = xag.input();
//! let b = xag.input();
//! let c = xag.input();
//! let m = xag.maj(a, b, c);
//! xag.output(m);
//!
//! let cuts = enumerate_cuts(&xag, &CutParams::default());
//! // The majority root has a cut whose leaves are the three inputs.
//! let root_cuts = cuts.of(m.node());
//! assert!(root_cuts
//!     .iter()
//!     .any(|cut| cut.leaves() == [a.node(), b.node(), c.node()]));
//! ```

use xag_network::{NodeId, NodeKind, Xag};
use xag_tt::Tt;

#[doc(hidden)]
pub mod legacy;

/// Maximum number of leaves a [`Cut`] can hold (matches [`xag_tt::MAX_VARS`]).
pub const MAX_CUT_SIZE: usize = 6;

/// Maximum number of cuts kept per node, excluding the trivial cut (the
/// paper found 12 to be a good runtime/quality trade-off).
pub const CUT_LIMIT: usize = 12;

/// A cut: a sorted set of at most six leaf nodes, stored inline, with a
/// precomputed subset signature.
///
/// `Cut` is `Copy` (30 bytes) — cut sets move around by value, never through
/// the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cut {
    signature: u64,
    leaves: [NodeId; MAX_CUT_SIZE],
    len: u8,
}

impl Cut {
    /// Creates a cut from leaf node ids (deduplicated and sorted).
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_CUT_SIZE`] distinct leaves are given.
    pub fn new(leaves: &[NodeId]) -> Self {
        let mut sorted = leaves.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert!(sorted.len() <= MAX_CUT_SIZE, "cut has too many leaves");
        let mut inline = [0 as NodeId; MAX_CUT_SIZE];
        inline[..sorted.len()].copy_from_slice(&sorted);
        let signature = sorted.iter().fold(0u64, |s, &l| s | 1 << (l % 64));
        Self {
            signature,
            leaves: inline,
            len: sorted.len() as u8,
        }
    }

    /// The empty cut (only the constant node has it).
    pub fn empty() -> Self {
        Self {
            signature: 0,
            leaves: [0; MAX_CUT_SIZE],
            len: 0,
        }
    }

    /// The trivial cut `{n}`.
    pub fn trivial(n: NodeId) -> Self {
        let mut leaves = [0 as NodeId; MAX_CUT_SIZE];
        leaves[0] = n;
        Self {
            signature: 1 << (n % 64),
            leaves,
            len: 1,
        }
    }

    /// The sorted leaf nodes.
    #[inline]
    pub fn leaves(&self) -> &[NodeId] {
        &self.leaves[..self.len as usize]
    }

    /// Number of leaves.
    #[inline]
    pub fn size(&self) -> usize {
        self.len as usize
    }

    /// 64-bit subset signature: bit `l % 64` is set for every leaf `l`.
    #[inline]
    pub fn signature(&self) -> u64 {
        self.signature
    }

    /// True iff `self`'s leaves are a subset of `other`'s.
    ///
    /// Signature-first: if `self` sets a signature bit `other` lacks it
    /// cannot be a subset. The exact test is a merge-walk over the two
    /// sorted leaf lists rather than a per-leaf binary search.
    pub fn dominates(&self, other: &Cut) -> bool {
        if self.len > other.len || self.signature & !other.signature != 0 {
            return false;
        }
        let mut j = 0usize;
        let ob = other.leaves();
        'next: for &l in self.leaves() {
            while j < ob.len() {
                match ob[j].cmp(&l) {
                    core::cmp::Ordering::Less => j += 1,
                    core::cmp::Ordering::Equal => {
                        j += 1;
                        continue 'next;
                    }
                    core::cmp::Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }

    /// Merges two cuts, or `None` if the union exceeds `max_size` leaves.
    pub fn merge(&self, other: &Cut, max_size: usize) -> Option<Cut> {
        self.merge_with_positions(other, max_size).map(|m| m.0)
    }

    /// [`Cut::merge`] that additionally reports, for each leaf of `self` and
    /// of `other`, its position in the merged leaf list — exactly the
    /// variable maps [`Tt::expand`] needs to lift the fanin cut functions.
    #[inline]
    pub fn merge_with_positions(
        &self,
        other: &Cut,
        max_size: usize,
    ) -> Option<(Cut, [usize; MAX_CUT_SIZE], [usize; MAX_CUT_SIZE])> {
        debug_assert!(max_size <= MAX_CUT_SIZE);
        let (la, lb) = (self.len as usize, other.len as usize);
        let mut leaves = [0 as NodeId; MAX_CUT_SIZE];
        let mut pa = [0usize; MAX_CUT_SIZE];
        let mut pb = [0usize; MAX_CUT_SIZE];
        let (mut i, mut j, mut k) = (0usize, 0usize, 0usize);
        while i < la || j < lb {
            if k == max_size {
                return None;
            }
            let take_a = j == lb || (i < la && self.leaves[i] <= other.leaves[j]);
            let take_b = i == la || (j < lb && other.leaves[j] <= self.leaves[i]);
            if take_a {
                leaves[k] = self.leaves[i];
                pa[i] = k;
                i += 1;
            }
            if take_b {
                leaves[k] = other.leaves[j];
                pb[j] = k;
                j += 1;
            }
            k += 1;
        }
        Some((
            Cut {
                signature: self.signature | other.signature,
                leaves,
                len: k as u8,
            },
            pa,
            pb,
        ))
    }
}

/// Parameters of the enumeration; every node keeps at most [`CUT_LIMIT`]
/// cuts besides its trivial one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CutParams {
    /// Maximum number of leaves per cut (at most 6, so cut functions fit in
    /// one 64-bit truth table).
    pub cut_size: usize,
}

impl Default for CutParams {
    fn default() -> Self {
        Self {
            cut_size: MAX_CUT_SIZE,
        }
    }
}

/// The cut sets of every live gate (and input) of a network.
///
/// A flat arena: one shared `Vec<Cut>` plus a per-node `(start, end)` span
/// indexed by dense node id, with a parallel `Vec<Tt>` holding each cut's
/// local function computed during enumeration.
#[derive(Debug)]
pub struct CutSets {
    spans: Vec<(u32, u32)>,
    cuts: Vec<Cut>,
    tts: Vec<Tt>,
}

impl CutSets {
    #[inline]
    fn span(&self, n: NodeId) -> (usize, usize) {
        match self.spans.get(n as usize) {
            Some(&(s, e)) => (s as usize, e as usize),
            None => (0, 0),
        }
    }

    /// Cuts of a node (empty slice for unknown/dead nodes).
    #[inline]
    pub fn of(&self, n: NodeId) -> &[Cut] {
        let (s, e) = self.span(n);
        &self.cuts[s..e]
    }

    /// Local functions of a node's cuts, parallel to [`CutSets::of`].
    ///
    /// Entry `i` is the function of cut `i` over its sorted leaves as
    /// variables `x0..`, identical to what [`cut_function`] computes — but it
    /// was produced by the one-pass bottom-up sweep, not a cone traversal.
    #[inline]
    pub fn functions_of(&self, n: NodeId) -> &[Tt] {
        let (s, e) = self.span(n);
        &self.tts[s..e]
    }

    /// Total number of stored cuts.
    pub fn total(&self) -> usize {
        self.cuts.len()
    }

    /// Iterates over `(node, cuts)` pairs in increasing node order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &[Cut])> {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, &(s, e))| e > s)
            .map(|(n, &(s, e))| (n as NodeId, &self.cuts[s as usize..e as usize]))
    }
}

/// Enumerates k-feasible cuts of all live gates of `xag`.
///
/// # Panics
///
/// Panics if `params.cut_size` is 0 or greater than 6.
pub fn enumerate_cuts(xag: &Xag, params: &CutParams) -> CutSets {
    enumerate_cuts_for(xag, &xag.live_gates(), params)
}

/// [`enumerate_cuts`] over a caller-provided topological order of live gates
/// (fanins before fanouts), so the order's DFS is not repeated here.
///
/// # Panics
///
/// Panics if `params.cut_size` is 0 or greater than 6.
pub fn enumerate_cuts_for(xag: &Xag, order: &[NodeId], params: &CutParams) -> CutSets {
    assert!(
        (1..=MAX_CUT_SIZE).contains(&params.cut_size),
        "cut size must be within 1..=6"
    );
    let mut sets = CutSets {
        spans: vec![(0, 0); xag.capacity()],
        cuts: Vec::new(),
        tts: Vec::new(),
    };
    // Constant node: empty cut. Inputs: trivial cut only.
    push_one(&mut sets, 0, Cut::empty(), Tt::zero(1));
    for i in 0..xag.num_inputs() {
        let n = xag.input_signal(i).node();
        push_one(&mut sets, n, Cut::trivial(n), Tt::projection(0, 1));
    }
    // One reusable scratch for the per-node merge; cuts are `Copy`, so
    // nothing below allocates once the buffers have grown. Each candidate
    // remembers the fanin-cut pair it merged — functions are computed only
    // for the cuts that survive dominance pruning and the cut limit.
    let mut merged: Vec<(Cut, u32, u32)> = Vec::new();
    for &n in order {
        merged.clear();
        let (f0, f1) = xag.fanins(n);
        let is_and = xag.kind(n) == NodeKind::And;
        let (s0, e0) = sets.span(f0.node());
        let (s1, e1) = sets.span(f1.node());
        for i0 in s0..e0 {
            let c0 = sets.cuts[i0];
            for i1 in s1..e1 {
                let c1 = sets.cuts[i1];
                // Early size filter: the signature popcount never exceeds the
                // true union size (64-aliasing only collapses bits), so this
                // rejects only genuinely infeasible merges.
                if (c0.signature | c1.signature).count_ones() as usize > params.cut_size {
                    continue;
                }
                let Some(cut) = c0.merge(&c1, params.cut_size) else {
                    continue;
                };
                if merged.iter().any(|(c, _, _)| c.dominates(&cut)) {
                    continue;
                }
                merged.retain(|(c, _, _)| !cut.dominates(c));
                merged.push((cut, i0 as u32, i1 as u32));
            }
        }
        // Priority: smaller cuts first; stable beyond that. Insertion sort —
        // the lists are tiny and std's stable sort may allocate.
        for i in 1..merged.len() {
            let mut j = i;
            while j > 0 && merged[j - 1].0.len > merged[j].0.len {
                merged.swap(j - 1, j);
                j -= 1;
            }
        }
        merged.truncate(CUT_LIMIT);
        let start = sets.cuts.len() as u32;
        for &(cut, i0, i1) in &merged {
            // Fused cut function: replay the merge to recover each leaf's
            // position in the union, lift both fanin tables onto the merged
            // leaf set, and apply the gate operator.
            let (c0, c1) = (sets.cuts[i0 as usize], sets.cuts[i1 as usize]);
            let (u, p0, p1) = c0
                .merge_with_positions(&c1, params.cut_size)
                .expect("cut was produced by this merge");
            debug_assert_eq!(u, cut);
            let t0 = sets.tts[i0 as usize].expand(&p0[..c0.size()], cut.size());
            let t1 = sets.tts[i1 as usize].expand(&p1[..c1.size()], cut.size());
            let t0 = if f0.is_complement() { !t0 } else { t0 };
            let t1 = if f1.is_complement() { !t1 } else { t1 };
            sets.cuts.push(cut);
            sets.tts.push(if is_and { t0 & t1 } else { t0 ^ t1 });
        }
        sets.cuts.push(Cut::trivial(n));
        sets.tts.push(Tt::projection(0, 1));
        sets.spans[n as usize] = (start, sets.cuts.len() as u32);
    }
    sets
}

fn push_one(sets: &mut CutSets, n: NodeId, cut: Cut, tt: Tt) {
    let start = sets.cuts.len() as u32;
    sets.cuts.push(cut);
    sets.tts.push(tt);
    sets.spans[n as usize] = (start, start + 1);
}

/// Computes the local function of `root` over a cut, reduced to the cut
/// leaves as variables `x0..x_{size-1}` in leaf order.
///
/// Returns `None` if the cut is not a valid cut of `root` in `xag`. This
/// walks the cone; cuts produced by [`enumerate_cuts`] already carry their
/// function in [`CutSets::functions_of`].
pub fn cut_function(xag: &Xag, root: NodeId, cut: &Cut) -> Option<Tt> {
    xag.cone_tt(root, cut.leaves())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_adder() -> (Xag, Vec<NodeId>) {
        let mut x = Xag::new();
        let a = x.input();
        let b = x.input();
        let c = x.input();
        let axb = x.xor(a, b);
        let sum = x.xor(axb, c);
        let ab = x.and(a, b);
        let ac = x.and(a, c);
        let bc = x.and(b, c);
        let t = x.xor(ab, ac);
        let cout = x.xor(t, bc);
        x.output(sum);
        x.output(cout);
        let ids = vec![a.node(), b.node(), c.node()];
        (x, ids)
    }

    #[test]
    fn full_adder_cout_cut_is_majority() {
        let (x, ins) = full_adder();
        let sets = enumerate_cuts(&x, &CutParams::default());
        let cout = x.output_signal(1).node();
        let cut = sets
            .of(cout)
            .iter()
            .find(|c| c.leaves() == ins.as_slice())
            .expect("input cut exists");
        let tt = cut_function(&x, cout, cut).expect("valid cut");
        assert_eq!(tt.bits(), 0xe8, "paper Example 3.1: cout cut is ⟨abc⟩");
    }

    #[test]
    fn all_cuts_are_valid_and_dominance_free() {
        let (x, _) = full_adder();
        let sets = enumerate_cuts(&x, &CutParams::default());
        for (n, cuts) in sets.iter() {
            if !x.is_gate(n) {
                continue;
            }
            for (i, c) in cuts.iter().enumerate() {
                assert!(cut_function(&x, n, c).is_some(), "cut {c:?} of {n}");
                for (j, d) in cuts.iter().enumerate() {
                    if i != j && !(c.size() == 1 && c.leaves()[0] == n) {
                        assert!(
                            !(d.dominates(c) && d.leaves() != c.leaves()),
                            "cut {c:?} dominated by {d:?} at node {n}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fused_functions_match_cone_traversal() {
        let (x, _) = full_adder();
        let sets = enumerate_cuts(&x, &CutParams::default());
        for (n, cuts) in sets.iter() {
            if !x.is_gate(n) {
                continue;
            }
            for (cut, &tt) in cuts.iter().zip(sets.functions_of(n)) {
                assert_eq!(cut_function(&x, n, cut), Some(tt), "node {n} cut {cut:?}");
            }
        }
    }

    #[test]
    fn cut_limit_is_respected() {
        // A balanced AND tree over eight inputs: the root has 20
        // dominance-free 6-feasible cuts before truncation.
        let mut x = Xag::new();
        let mut layer: Vec<_> = (0..8).map(|_| x.input()).collect();
        while layer.len() > 1 {
            layer = layer.chunks(2).map(|p| x.and(p[0], p[1])).collect();
        }
        x.output(layer[0]);
        let sets = enumerate_cuts(&x, &CutParams::default());
        for (n, cuts) in sets.iter() {
            if x.is_gate(n) {
                assert!(cuts.len() <= CUT_LIMIT + 1, "node {n}");
            }
        }
        assert_eq!(sets.of(layer[0].node()).len(), CUT_LIMIT + 1);
    }

    #[test]
    fn cut_functions_cover_all_gates() {
        let (x, _) = full_adder();
        let sets = enumerate_cuts(&x, &CutParams::default());
        let mut funcs = 0;
        for n in x.live_gates() {
            for (cut, tt) in sets.of(n).iter().zip(sets.functions_of(n)) {
                if cut.size() == 1 && cut.leaves()[0] == n {
                    continue; // trivial cut
                }
                funcs += 1;
                assert_eq!(cut_function(&x, n, cut), Some(*tt));
                assert!(tt.vars() == cut.size());
            }
        }
        assert!(funcs > 0);
    }

    #[test]
    fn dominates_and_merge_basics() {
        let a = Cut::new(&[3, 1]);
        let b = Cut::new(&[1, 2, 3]);
        assert_eq!(a.leaves(), &[1, 3]);
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        let m = a.merge(&b, MAX_CUT_SIZE).unwrap();
        assert_eq!(m.leaves(), &[1, 2, 3]);
        assert!(a.merge(&b, 2).is_none(), "union exceeds the bound");
    }

    #[test]
    fn merge_positions_index_the_union() {
        let a = Cut::new(&[2, 9]);
        let b = Cut::new(&[2, 5, 11]);
        let (m, pa, pb) = a.merge_with_positions(&b, MAX_CUT_SIZE).unwrap();
        assert_eq!(m.leaves(), &[2, 5, 9, 11]);
        assert_eq!(&pa[..2], &[0, 2]);
        assert_eq!(&pb[..3], &[0, 1, 3]);
    }

    #[test]
    fn dominates_handles_aliased_signatures() {
        // 64-aliasing: 1 and 65 share a signature bit, but {1} ⊄ {65, 2}.
        let a = Cut::new(&[1]);
        let b = Cut::new(&[2, 65]);
        assert!(!a.dominates(&b));
        assert!(Cut::new(&[65]).dominates(&b));
    }
}
