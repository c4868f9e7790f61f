//! The pre-overhaul hot path, kept as test support: per-node `Vec<Cut>`
//! sets behind a `HashMap`, heap-allocated leaf vectors,
//! clone-the-fanin-sets merging, and a recursive per-cut cone traversal
//! with a fresh `HashMap` memo per call. The differential tests in
//! `tests/differential.rs` pin the dense enumeration's *results* to it,
//! and the hot-path benchmark's `enum_legacy` rows measure the dense
//! enumeration's speedup over it.

use std::collections::HashMap;

use xag_network::{NodeId, NodeKind, Xag};
use xag_tt::Tt;

use crate::{CutParams, CUT_LIMIT};

/// The old cut representation: heap-allocated sorted leaf vector plus
/// the 64-bit subset signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cut {
    /// Sorted, deduplicated leaf nodes.
    pub leaves: Vec<NodeId>,
    /// `1 << (leaf % 64)` union over the leaves.
    pub signature: u64,
}

impl Cut {
    /// Creates a cut from leaf ids (sorted and deduplicated here).
    pub fn new(mut leaves: Vec<NodeId>) -> Self {
        leaves.sort_unstable();
        leaves.dedup();
        let signature = leaves.iter().fold(0u64, |s, &l| s | 1 << (l % 64));
        Self { leaves, signature }
    }

    /// True iff `self`'s leaves are a subset of `other`'s.
    pub fn dominates(&self, other: &Cut) -> bool {
        if self.leaves.len() > other.leaves.len() || self.signature & !other.signature != 0 {
            return false;
        }
        self.leaves
            .iter()
            .all(|l| other.leaves.binary_search(l).is_ok())
    }

    /// Union of two cuts, allocating a fresh leaf vector.
    pub fn merge(&self, other: &Cut) -> Cut {
        let mut leaves = Vec::with_capacity(self.leaves.len() + other.leaves.len());
        leaves.extend_from_slice(&self.leaves);
        leaves.extend_from_slice(&other.leaves);
        Cut::new(leaves)
    }
}

/// The old `enumerate_cuts`, including its original loose early size
/// filter (`cut_size + 8`).
pub fn enumerate(xag: &Xag, order: &[NodeId], params: &CutParams) -> HashMap<NodeId, Vec<Cut>> {
    let mut cuts: HashMap<NodeId, Vec<Cut>> = HashMap::new();
    cuts.insert(0, vec![Cut::new(vec![])]);
    for i in 0..xag.num_inputs() {
        let n = xag.input_signal(i).node();
        cuts.insert(n, vec![Cut::new(vec![n])]);
    }
    for &n in order {
        let (f0, f1) = xag.fanins(n);
        let set0 = cuts.get(&f0.node()).cloned().unwrap_or_default();
        let set1 = cuts.get(&f1.node()).cloned().unwrap_or_default();
        let mut merged: Vec<Cut> = Vec::new();
        for c0 in &set0 {
            for c1 in &set1 {
                if (c0.signature | c1.signature).count_ones() as usize > params.cut_size + 8 {
                    continue;
                }
                let cut = c0.merge(c1);
                if cut.leaves.len() > params.cut_size {
                    continue;
                }
                if merged.iter().any(|c| c.dominates(&cut)) {
                    continue;
                }
                merged.retain(|c| !cut.dominates(c));
                merged.push(cut);
            }
        }
        merged.sort_by_key(|c| c.leaves.len());
        merged.truncate(CUT_LIMIT);
        merged.push(Cut::new(vec![n]));
        cuts.insert(n, merged);
    }
    cuts
}

/// The old `Xag::cone_tt`: a fresh `HashMap` memo and a recursive
/// cone walk per call.
pub fn cone_tt(xag: &Xag, root: NodeId, leaves: &[NodeId]) -> Option<Tt> {
    if leaves.len() > 6 {
        return None;
    }
    let nvars = leaves.len();
    let mut memo: HashMap<NodeId, Tt> = HashMap::new();
    for (i, &l) in leaves.iter().enumerate() {
        memo.insert(l, Tt::projection(i, nvars.max(1)));
    }
    memo.insert(0, Tt::zero(nvars.max(1)));
    cone_tt_rec(xag, root, &mut memo)
}

fn cone_tt_rec(xag: &Xag, n: NodeId, memo: &mut HashMap<NodeId, Tt>) -> Option<Tt> {
    if let Some(&t) = memo.get(&n) {
        return Some(t);
    }
    if !xag.is_gate(n) {
        return None;
    }
    let (f0, f1) = xag.fanins(n);
    let t0 = cone_tt_rec(xag, f0.node(), memo)?;
    let t1 = cone_tt_rec(xag, f1.node(), memo)?;
    let t0 = if f0.is_complement() { !t0 } else { t0 };
    let t1 = if f1.is_complement() { !t1 } else { t1 };
    let t = match xag.kind(n) {
        NodeKind::And => t0 & t1,
        NodeKind::Xor => t0 ^ t1,
        _ => unreachable!("order yields gates only"),
    };
    memo.insert(n, t);
    Some(t)
}
