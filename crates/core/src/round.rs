//! The cut-rewriting round — the paper's Algorithm 1 over every gate —
//! and the only rewriting engine of the crate.
//!
//! A round runs in three phases, on the caller's thread and
//! [`OptContext`]:
//!
//! 1. **Enumerate** — the cuts of every live gate and their functions, in
//!    one sweep over the topological order of [`Xag::live_gates`]
//!    ([`enumerate_cuts_for`]).
//! 2. **Propose** — every gate's cuts are evaluated *read-only* against
//!    the network as the round found it (the snapshot), in that same
//!    topological order, producing the best proposal per gate. Each cut's
//!    MFFC is measured before its candidate is built, in epoch-stamped
//!    per-node arrays, and a cut whose MFFC frees no more than
//!    `max(0, best gain so far at its root)` is skipped: the added count
//!    is never negative, so such a cut cannot win. The candidate of each
//!    distinct cut function is built once per round and memoized; the
//!    memo is exact because the database and the classifier cache are
//!    write-once, and debug builds check every memo hit against a rebuild.
//! 3. **Commit** — proposals are applied in topological order with full
//!    re-validation against the live network (leaves alive, cut function
//!    unchanged, gain re-computed with exact MFFC dereferencing,
//!    acyclicity). The acyclicity check walks only the instantiated
//!    fragment's gates, stopping at the cut leaves: once the cut function
//!    is re-validated, no cycle can run through a leaf. Losers are rolled
//!    back to an arena watermark ([`xag_network::Xag::reclaim_above`]), so
//!    rejected candidates never leak.
//!
//! Proposing walks the gates in the order the commit applies them, so
//! proposals arrive already in commit order and need no sort. The commit
//! order and every accept decision are pure functions of the snapshot,
//! and classification and synthesis are deterministic, so a proposal
//! never depends on what the context has cached (DESIGN.md §5).
//!
//! Proposing against a snapshot is not the paper's in-place Algorithm 1,
//! which evaluates each node's cut functions and gains on the network as
//! the rewrites before it have left it: here a rewrite committed early in
//! a round cannot enable a proposal later in the same round, so some
//! gains wait for the next round (DESIGN.md §5).
//!
//! A round that commits nothing leaves the network as it found it, and
//! hands the next round a `Carry`: its cut sets, their order and the
//! roots where it proposed. A next round with the same objective and a
//! larger cut size grows those sets in place ([`CutSets::grow`]) instead
//! of enumerating, and skips every cut no larger than the carried size at
//! each root where the carried round proposed nothing: the same cut, table,
//! context and snapshot already scored a gain ≤ 0 there (DESIGN.md §5).

use std::collections::hash_map::Entry;
use std::time::Instant;

use xag_cuts::{enumerate_cuts_for, CutParams, CutSets};
use xag_network::{ConeScratch, FragRef, NodeId, NodeKind, Signal, Xag, XagFragment};
use xag_tt::hash::FxHashMap;
use xag_tt::Tt;

use crate::context::OptContext;
use crate::stats::PassStats;
use crate::Objective;

/// A rewrite proposed against the snapshot, waiting for commit.
#[derive(Debug, Clone, PartialEq)]
struct Proposal {
    /// The root gate the candidate replaces.
    root: NodeId,
    /// The cut function the candidate implements over `leaves`.
    tt: Tt,
    /// The replacement circuit.
    frag: XagFragment,
    /// The cut leaves, in the order `frag` expects its inputs.
    leaves: Vec<NodeId>,
}

/// What a round that committed nothing proved about the network it left
/// unchanged, kept for the next round of the same flow run.
#[derive(Debug)]
pub(crate) struct Carry {
    objective: Objective,
    /// The topological order the sets were enumerated over.
    order: Vec<NodeId>,
    sets: CutSets,
    /// The roots where the round proposed, in `order`.
    proposed: Vec<NodeId>,
}

/// Cuts a round need not evaluate: at every root outside `proposed`, the
/// cuts of at most `cut_size` leaves scored a gain ≤ 0 one round earlier
/// on the same snapshot.
#[derive(Debug)]
struct Proven {
    cut_size: usize,
    proposed: Vec<NodeId>,
}

/// Reusable state for [`frozen_mffc_with`]: epoch-stamped per-node
/// decrement and membership arrays, in the idiom of
/// [`xag_network::ConeScratch`]. Entry `n` of `dec` is valid only while
/// `dec_stamp[n]` equals the current epoch, and `n` is in the measured MFFC
/// iff `doomed[n]` does, so starting a new measurement is O(1): no
/// clearing, no hashing, and no allocation once the arrays have grown to
/// network size.
#[derive(Debug, Default)]
struct MffcScratch {
    epoch: u32,
    dec_stamp: Vec<u32>,
    dec: Vec<u32>,
    doomed: Vec<u32>,
}

impl MffcScratch {
    /// Starts a measurement on a network of `cap` nodes.
    fn begin(&mut self, cap: usize) {
        if self.dec.len() < cap {
            self.dec_stamp.resize(cap, 0);
            self.dec.resize(cap, 0);
            self.doomed.resize(cap, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Stamp wrap-around: reset so stale entries cannot alias.
            self.dec_stamp.fill(0);
            self.doomed.fill(0);
            self.epoch = 1;
        }
    }

    /// Counts one more dereference of `n` in this measurement and returns
    /// the total so far.
    #[inline]
    fn bump(&mut self, n: NodeId) -> u32 {
        let i = n as usize;
        if self.dec_stamp[i] != self.epoch {
            self.dec_stamp[i] = self.epoch;
            self.dec[i] = 0;
        }
        self.dec[i] += 1;
        self.dec[i]
    }

    #[inline]
    fn doom(&mut self, n: NodeId) {
        self.doomed[n as usize] = self.epoch;
    }

    /// True iff `n` belongs to the MFFC of the last measurement.
    #[inline]
    fn is_doomed(&self, n: NodeId) -> bool {
        self.doomed[n as usize] == self.epoch
    }
}

/// Read-only MFFC measurement on a frozen network: the `(AND, total)`
/// gates that removing `root` (bounded by `leaves`) would free. The member
/// set is left in `scratch` ([`MffcScratch::is_doomed`]). Mirrors
/// [`Xag::deref_cone`] with a local decrement count instead of mutating
/// reference counts, so the snapshot every later proposal of the round
/// reads stays untouched.
fn frozen_mffc_with(
    xag: &Xag,
    root: NodeId,
    leaves: &[NodeId],
    scratch: &mut MffcScratch,
) -> (u32, u32) {
    scratch.begin(xag.capacity());
    scratch.doom(root);
    frozen_mffc_rec(xag, root, leaves, scratch)
}

fn frozen_mffc_rec(
    xag: &Xag,
    n: NodeId,
    leaves: &[NodeId],
    scratch: &mut MffcScratch,
) -> (u32, u32) {
    let mut ands = (xag.kind(n) == NodeKind::And) as u32;
    let mut total = 1u32;
    let (f0, f1) = xag.fanins(n);
    for f in [f0, f1] {
        let fi = f.node();
        let seen = scratch.bump(fi);
        if xag.nref(fi) == seen && xag.is_gate(fi) && !leaves.contains(&fi) {
            scratch.doom(fi);
            let (a, t) = frozen_mffc_rec(xag, fi, leaves, scratch);
            ands += a;
            total += t;
        }
    }
    (ands, total)
}

/// Read-only stand-in for [`XagFragment::count_new_gates`] on a frozen
/// network: gates that hash to live nodes outside the doomed MFFC are
/// free, everything else costs its own gate (reusing a doomed node would
/// keep it alive, cancelling the gain attributed to removing it).
fn estimate_new_gates(
    xag: &Xag,
    frag: &XagFragment,
    leaves: &[Signal],
    mffc: &MffcScratch,
    outs: &mut Vec<Option<Signal>>,
) -> (usize, usize) {
    outs.clear();
    outs.reserve(frag.gates().len());
    let mut added_ands = 0usize;
    let mut added_total = 0usize;
    let resolve = |r: FragRef, outs: &[Option<Signal>]| -> Option<Signal> {
        match r {
            FragRef::Const(c) => Some(Signal::CONST0 ^ c),
            FragRef::Input(i, c) => Some(leaves[i as usize] ^ c),
            FragRef::Gate(g, c) => outs[g as usize].map(|s| s ^ c),
        }
    };
    for gate in frag.gates() {
        let a = resolve(gate.a, outs);
        let b = resolve(gate.b, outs);
        let hit = match (a, b) {
            (Some(a), Some(b)) => {
                if gate.is_and {
                    xag.lookup_and(a, b)
                } else {
                    xag.lookup_xor(a, b)
                }
            }
            _ => None,
        };
        match hit {
            Some(s)
                if s.is_const()
                    || !xag.is_gate(s.node())
                    || (xag.nref(s.node()) > 0 && !mffc.is_doomed(s.node())) =>
            {
                outs.push(Some(s));
            }
            Some(s) => {
                if gate.is_and {
                    added_ands += 1;
                }
                added_total += 1;
                outs.push(Some(s));
            }
            None => {
                if gate.is_and {
                    added_ands += 1;
                }
                added_total += 1;
                outs.push(None);
            }
        }
    }
    (added_ands, added_total)
}

/// Evaluates every cut of every gate of `order` against the snapshot and
/// returns the best proposal per gate, in `order` (plus the number of cut
/// candidates considered).
///
/// Cut functions come straight out of the enumeration sweep
/// ([`CutSets::functions_of`]): the snapshot is frozen for the whole
/// proposal phase, so the tables computed during enumeration are exactly
/// what a cone traversal would return — enumeration and function
/// computation are one fused pass.
///
/// The MFFC is measured before the candidate is built: a candidate's gain
/// is what its MFFC frees minus what it adds, the added count is never
/// negative, and a candidate wins only with a gain above both 0 and the
/// root's best so far. A cut whose MFFC frees no more than that floor
/// cannot win, so it is counted as considered but never classified,
/// synthesized or dry-run.
///
/// The memo maps a cut function to the candidate
/// [`OptContext::candidate_for_cut`] builds for it, so each distinct
/// function is classified, looked up, replayed and lifted once per round
/// instead of once per considered cut, and a fragment is cloned only into
/// a new best proposal. It is exact: the database and the classifier cache
/// are both write-once, so a context returns the same candidate for the
/// same function for as long as it lives. Debug builds check every hit
/// against a rebuild. It lives for one round and is no part of
/// [`OptContext`], so it adds nothing to a daemon's memory. Its keys come
/// from uploaded circuits, like the classifier cache's, so FxHash serves
/// it for the same reason.
///
/// With `proven`, the cuts it names are counted as considered and skipped
/// like the MFFC-bounded ones. That is exact: a root's cuts come smallest
/// first, so its proven cuts precede the rest, and each of them would
/// leave the root's best empty, as it did one round earlier.
fn propose(
    xag: &Xag,
    ctx: &mut OptContext,
    sets: &CutSets,
    order: &[NodeId],
    objective: Objective,
    proven: Option<&Proven>,
) -> (Vec<Proposal>, usize) {
    let mut memo: FxHashMap<Tt, XagFragment> = FxHashMap::default();
    let mut mffc = MffcScratch::default();
    let mut outs: Vec<Option<Signal>> = Vec::new();
    let mut proposals = Vec::new();
    let mut considered = 0usize;
    // Both walk `order`, so the carried proposers are met in turn.
    let mut carried_proposers = proven.map_or(&[][..], |p| &p.proposed).iter().peekable();
    for &root in order {
        let proven_size = match proven {
            Some(p) if carried_proposers.next_if_eq(&&root).is_none() => p.cut_size,
            _ => 0,
        };
        let mut best: Option<(i64, Proposal)> = None;
        let tts = sets.functions_of(root);
        for (ci, cut) in sets.of(root).iter().enumerate() {
            if cut.size() < 2 {
                continue; // trivial and single-leaf cuts
            }
            let tt = tts[ci];
            if tt.is_constant() {
                continue;
            }
            considered += 1;
            if cut.size() <= proven_size {
                continue;
            }
            let (freed_ands, freed_total) = frozen_mffc_with(xag, root, cut.leaves(), &mut mffc);
            let freed = match objective {
                Objective::MultiplicativeComplexity => freed_ands,
                Objective::Size => freed_total,
            } as i64;
            let floor = best.as_ref().map_or(0, |(g, _)| *g);
            if freed <= floor {
                continue;
            }
            let candidate: &XagFragment = match memo.entry(tt) {
                Entry::Occupied(hit) => {
                    debug_assert_eq!(
                        *hit.get(),
                        ctx.candidate_for_cut(tt),
                        "memoized candidate differs from a rebuild for {tt:?}"
                    );
                    hit.into_mut()
                }
                Entry::Vacant(miss) => miss.insert(ctx.candidate_for_cut(tt)),
            };
            let mut leaves = [Signal::CONST0; 6];
            for (k, &l) in cut.leaves().iter().enumerate() {
                leaves[k] = Signal::new(l, false);
            }
            let (added_ands, added_total) =
                estimate_new_gates(xag, candidate, &leaves[..cut.size()], &mffc, &mut outs);
            let added = match objective {
                Objective::MultiplicativeComplexity => added_ands,
                Objective::Size => added_total,
            } as i64;
            let gain = freed - added;
            if gain > floor {
                best = Some((
                    gain,
                    Proposal {
                        root,
                        tt,
                        frag: candidate.clone(),
                        leaves: cut.leaves().to_vec(),
                    },
                ));
            }
        }
        if let Some((_, p)) = best {
            proposals.push(p);
        }
    }
    (proposals, considered)
}

/// Reusable buffers for [`fragment_reaches`]: its DFS stack and visited
/// list, cleared (capacity kept) per commit. Both hold at most a
/// fragment's worth of nodes.
#[derive(Debug, Default)]
struct CycleScratch {
    stack: Vec<NodeId>,
    seen: Vec<NodeId>,
}

/// True iff `root` lies in the transitive fanin of `new_sig`, the output
/// of a fragment just instantiated on the cut `leaves` of `root` — that is,
/// iff substituting `root` by `new_sig` would close a cycle (or be no
/// rewrite at all, when `new_sig` is `root`).
///
/// The DFS stops at the leaves and at non-gates, so it visits only the
/// fragment's own gates. That decides exactly what the full DFS
/// ([`Xag::is_in_tfi`]) decides, provided the caller has checked that the
/// cut still computes the fragment's function: the fragment reads only
/// leaves in that function's support, those leaves lie in the root's
/// transitive fanin, so the root is not in theirs. Each fragment gate is a
/// fresh node or a strash hit whose fanins are leaves, constants or
/// earlier fragment gates, so a path from `new_sig` to `root` that avoids
/// the leaves runs through fragment gates only.
fn fragment_reaches(
    xag: &Xag,
    root: NodeId,
    new_sig: Signal,
    leaves: &[NodeId],
    scratch: &mut CycleScratch,
) -> bool {
    scratch.stack.clear();
    scratch.seen.clear();
    scratch.stack.push(new_sig.node());
    while let Some(n) = scratch.stack.pop() {
        if n == root {
            return true;
        }
        if !xag.is_gate(n) || leaves.contains(&n) || scratch.seen.contains(&n) {
            continue;
        }
        scratch.seen.push(n);
        let (f0, f1) = xag.fanins(n);
        scratch.stack.push(f0.node());
        scratch.stack.push(f1.node());
    }
    false
}

/// Applies proposals in the order given, which [`propose`] makes the
/// topological order of their roots, re-validating each against the live
/// network. Returns the number of accepted rewrites.
///
/// A proposal wins iff, *on the network as left by the previous winners*:
/// its root and all leaves are still alive, the cut still computes the
/// proposed function, the exact gain (MFFC dereferencing + hash-aware
/// dry-run on the live network) is still positive, and the substitution
/// is acyclic ([`fragment_reaches`], bounded by the fragment). Everything
/// else is rolled back to the arena watermark recorded before
/// instantiation.
fn commit_proposals(xag: &mut Xag, proposals: Vec<Proposal>, objective: Objective) -> usize {
    let mut applied = 0usize;
    let mut cone = ConeScratch::new();
    let mut cycle = CycleScratch::default();
    for p in proposals {
        if xag.is_dead(p.root) || !xag.is_gate(p.root) {
            continue;
        }
        if p.leaves.iter().any(|&l| xag.is_dead(l)) {
            continue;
        }
        // The cut must still compute the function the fragment implements;
        // earlier commits may have rewired the cone.
        if xag.cone_tt_with(p.root, &p.leaves, &mut cone) != Some(p.tt) {
            continue;
        }
        let leaf_signals: Vec<Signal> = p.leaves.iter().map(|&l| Signal::new(l, false)).collect();
        let (freed_ands, freed_total) = xag.deref_cone(p.root, &p.leaves);
        let (added_ands, added_total) = p.frag.count_new_gates(xag, &leaf_signals);
        xag.ref_cone(p.root, &p.leaves);
        let gain = match objective {
            Objective::MultiplicativeComplexity => freed_ands as i64 - added_ands as i64,
            Objective::Size => freed_total as i64 - added_total as i64,
        };
        if gain <= 0 {
            continue;
        }
        let watermark = xag.capacity();
        let new_sig = p.frag.instantiate(xag, &leaf_signals);
        let cyclic = fragment_reaches(xag, p.root, new_sig, &p.leaves, &mut cycle);
        debug_assert_eq!(
            cyclic,
            xag.is_in_tfi(p.root, new_sig),
            "bounded cycle check disagrees with the full DFS at root {}",
            p.root
        );
        if !cyclic {
            xag.substitute(p.root, new_sig);
            applied += 1;
        } else {
            xag.reclaim_above(watermark);
        }
    }
    applied
}

/// Counts `(AND, XOR)` gates of a topological order in one walk, instead of
/// two full `num_ands`/`num_xors` DFS passes — before the round and after
/// its commit.
fn count_gates(xag: &Xag, order: &[NodeId]) -> (usize, usize) {
    let ands = order
        .iter()
        .filter(|&&n| xag.kind(n) == NodeKind::And)
        .count();
    (ands, order.len() - ands)
}

/// The first phase of a round: the live gates in topological order and
/// their cut sets.
///
/// A `carry` from a commit-free round with the same objective and a
/// smaller cut size is grown in place, and what it proved comes back for
/// [`propose`]; any other carry is dropped before this round's arena is
/// allocated.
fn cut_sets(
    xag: &Xag,
    cut_params: &CutParams,
    objective: Objective,
    carry: Option<Carry>,
) -> (Vec<NodeId>, CutSets, Option<Proven>) {
    let carry =
        carry.filter(|c| c.objective == objective && c.sets.cut_size() < cut_params.cut_size);
    match carry {
        Some(Carry {
            order,
            mut sets,
            proposed,
            ..
        }) => {
            debug_assert_eq!(
                order,
                xag.live_gates(),
                "a carried round changed the network it proved"
            );
            let proven = Proven {
                cut_size: sets.cut_size(),
                proposed,
            };
            {
                let _p = mc_obs::prof::phase("cut_enum");
                sets.grow(xag, &order, cut_params);
            }
            (order, sets, Some(proven))
        }
        None => {
            let order = xag.live_gates();
            let sets = {
                let _p = mc_obs::prof::phase("cut_enum");
                enumerate_cuts_for(xag, &order, cut_params)
            };
            (order, sets, None)
        }
    }
}

/// One rewriting round over every gate: enumerate (or grow the `carry`),
/// propose against the snapshot, commit in topological order. A round
/// that commits nothing returns the [`Carry`] for the next round.
pub(crate) fn round(
    xag: &mut Xag,
    ctx: &mut OptContext,
    cut_params: &CutParams,
    objective: Objective,
    pass_name: &str,
    carry: Option<Carry>,
) -> (PassStats, Option<Carry>) {
    let _round = mc_obs::prof::phase("par_rewrite");
    // lint: allow(determinism): wall-clock feeds PassStats/metrics timing only; never branches on it
    let start = Instant::now();
    let (order, sets, proven) = cut_sets(xag, cut_params, objective, carry);
    let (ands_before, xors_before) = count_gates(xag, &order);

    // lint: allow(determinism): wall-clock feeds PassStats/metrics timing only; never branches on it
    let propose_start = Instant::now();
    let mut propose_span = mc_obs::span("shard:propose");
    let (proposals, considered) = {
        let _p = mc_obs::prof::phase("propose");
        propose(xag, ctx, &sets, &order, objective, proven.as_ref())
    };
    propose_span.detail(format!(
        "proposals={} considered={considered}",
        proposals.len()
    ));
    drop(propose_span);
    mc_obs::registry()
        .histogram("mc_shard_propose_us")
        .record(propose_start.elapsed().as_micros() as u64);

    // lint: allow(determinism): wall-clock feeds PassStats/metrics timing only; never branches on it
    let commit_start = Instant::now();
    let num_proposals = proposals.len();
    let proposed: Vec<NodeId> = proposals.iter().map(|p| p.root).collect();
    let applied = {
        let _p = mc_obs::prof::phase("commit_validate");
        commit_proposals(xag, proposals, objective)
    };
    let reg = mc_obs::registry();
    reg.histogram("mc_shard_commit_us")
        .record(commit_start.elapsed().as_micros() as u64);
    reg.counter("mc_shard_proposals_total")
        .add(num_proposals as u64);
    reg.counter("mc_shard_commits_total").add(applied as u64);
    mc_obs::record(
        "shard:commit",
        mc_obs::epoch_us().saturating_sub(commit_start.elapsed().as_micros() as u64),
        commit_start.elapsed().as_micros() as u64,
        format!("proposals={num_proposals} applied={applied}"),
    );

    let (ands_after, xors_after) = count_gates(xag, &xag.live_gates());
    let stats = PassStats {
        pass: pass_name.to_string(),
        ands_before,
        xors_before,
        ands_after,
        xors_after,
        rewrites_applied: applied,
        cuts_considered: considered,
        elapsed: start.elapsed(),
    };
    let carry = (applied == 0).then_some(Carry {
        objective,
        order,
        sets,
        proposed,
    });
    (stats, carry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_rng::Rng;
    use xag_cuts::enumerate_cuts;
    use xag_network::equiv_exhaustive;

    fn random_network(seed: u64, gates: usize) -> Xag {
        let mut xag = Xag::new();
        let ins: Vec<Signal> = (0..6).map(|_| xag.input()).collect();
        let mut pool = ins.clone();
        let mut rng = Rng::seed_from_u64(seed);
        for k in 0..gates {
            let a = pool[rng.gen_range(0..pool.len())] ^ rng.gen();
            let b = pool[rng.gen_range(0..pool.len())] ^ rng.gen();
            let s = if k % 3 == 0 {
                xag.xor(a, b)
            } else {
                xag.and(a, b)
            };
            pool.push(s);
        }
        for s in pool.iter().rev().take(4) {
            xag.output(*s);
        }
        xag
    }

    #[test]
    fn frozen_mffc_matches_deref_cone() {
        // One scratch measures every cut of networks whose capacities grow
        // and shrink, and its epoch wraps midway, so a stale stamp from an
        // earlier cut or network would show in the counts or the members.
        let mut scratch = MffcScratch::default();
        for (seed, gates) in [(5u64, 40usize), (6, 90), (7, 15), (8, 60)] {
            let mut xag = random_network(seed, gates);
            let order = xag.live_gates();
            let sets = enumerate_cuts(&xag, &CutParams::default());
            if seed == 7 {
                scratch.epoch = u32::MAX - 3;
            }
            for &root in &order {
                for cut in sets.of(root) {
                    if cut.size() < 2 {
                        continue;
                    }
                    let (fa, ft) = frozen_mffc_with(&xag, root, cut.leaves(), &mut scratch);
                    let members = (0..xag.capacity() as NodeId)
                        .filter(|&n| scratch.is_doomed(n))
                        .count();
                    let (da, dt) = xag.deref_cone(root, cut.leaves());
                    xag.ref_cone(root, cut.leaves());
                    let at = format!("seed {seed} root {root} cut {:?}", cut.leaves());
                    assert_eq!((fa, ft), (da, dt), "{at}");
                    assert_eq!(members, ft as usize, "{at}: MFFC members");
                }
            }
        }
    }

    /// r = a·b feeds o = r ⊕ c, both outputs, with a proposal at r that
    /// only the cycle check can turn down: (a·b ⊕ c) ⊕ c computes r, but
    /// its first two gates hash to r and o, so the fresh third gate reads
    /// o, which reads r. It frees r's AND and adds only a XOR (gain +1).
    fn cyclic_proposal() -> (Xag, Proposal) {
        let mut xag = Xag::new();
        let (a, b, c) = (xag.input(), xag.input(), xag.input());
        let r = xag.and(a, b);
        let o = xag.xor(r, c);
        xag.output(o);
        xag.output(r);
        let leaves = vec![a.node(), b.node(), c.node()];
        let tt = xag
            .cone_tt(r.node(), &leaves)
            .expect("the cut covers the root");
        let mut frag = XagFragment::new(3);
        let g0 = frag.and(XagFragment::input(0), XagFragment::input(1));
        let g1 = frag.xor(g0, XagFragment::input(2));
        let g2 = frag.xor(g1, XagFragment::input(2));
        frag.set_output(g2);
        assert_eq!(frag.eval_tt(), tt);
        let proposal = Proposal {
            root: r.node(),
            tt,
            frag,
            leaves,
        };
        (xag, proposal)
    }

    #[test]
    fn commit_rejects_a_rewrite_that_would_close_a_cycle() {
        let (mut xag, proposal) = cyclic_proposal();
        let reference = xag.cleanup();
        let gates = xag.num_gates();
        let applied = commit_proposals(
            &mut xag,
            vec![proposal],
            Objective::MultiplicativeComplexity,
        );
        assert_eq!(applied, 0, "a cyclic substitution was committed");
        assert_eq!(xag.num_gates(), gates);
        assert!(equiv_exhaustive(&reference, &xag.cleanup()));
    }

    /// A live gate: its id, whether it is an AND, and its fanins.
    type Gate = (NodeId, bool, Signal, Signal);

    /// Every live gate with its kind and fanins, then the outputs.
    fn structure(xag: &Xag) -> (Vec<Gate>, Vec<Signal>) {
        let gates = xag
            .live_gates()
            .into_iter()
            .map(|n| {
                let (f0, f1) = xag.fanins(n);
                (n, xag.kind(n) == NodeKind::And, f0, f1)
            })
            .collect();
        let outputs = (0..xag.num_outputs())
            .map(|i| xag.output_signal(i))
            .collect();
        (gates, outputs)
    }

    /// Runs the cut-6 round after a commit-free round that left `carry`
    /// on `xag` twice, with the carry and without it, and requires the
    /// same proposals, the same `PassStats` (elapsed aside) and the same
    /// network. `again` re-runs the commit-free round for a second carry.
    fn assert_carry_is_exact(
        at: &str,
        xag: &Xag,
        ctx: &mut OptContext,
        objective: Objective,
        carry: Carry,
        again: impl FnOnce(&mut Xag, &mut OptContext) -> Carry,
    ) {
        let six = CutParams { cut_size: 6 };
        let (order, sets, proven) = cut_sets(xag, &six, objective, Some(carry));
        assert!(proven.is_some(), "{at}: the carry was not taken");
        let carried = propose(xag, ctx, &sets, &order, objective, proven.as_ref());
        let (order, sets, _) = cut_sets(xag, &six, objective, None);
        let fresh = propose(xag, ctx, &sets, &order, objective, None);
        assert_eq!(carried, fresh, "{at}: proposals or cuts considered differ");

        let mut with = xag.clone();
        let carry = again(&mut with, ctx);
        let (with_stats, _) = round(&mut with, ctx, &six, objective, "r6", Some(carry));
        let mut without = xag.clone();
        let (without_stats, _) = round(&mut without, ctx, &six, objective, "r6", None);
        let mut without_stats = without_stats;
        without_stats.elapsed = with_stats.elapsed;
        assert_eq!(with_stats, without_stats, "{at}: pass stats differ");
        assert_eq!(
            structure(&with),
            structure(&without),
            "{at}: networks differ"
        );
    }

    /// Runs cut-4 rounds until one commits nothing, and returns its carry
    /// (none if the budget runs out first).
    fn converge_cut_4(xag: &mut Xag, ctx: &mut OptContext, objective: Objective) -> Option<Carry> {
        let four = CutParams { cut_size: 4 };
        for _ in 0..20 {
            let (stats, carry) = round(xag, ctx, &four, objective, "r4", None);
            if stats.rewrites_applied == 0 {
                return carry;
            }
        }
        None
    }

    #[test]
    fn a_carried_cut_6_round_equals_a_fresh_one() {
        let mut networks: Vec<(String, Xag)> = xag_circuits::epfl::epfl_suite(Default::default())
            .into_iter()
            .map(|b| (b.name.to_string(), b.xag))
            .collect();
        for seed in 0..24u64 {
            networks.push((
                format!("fuzz {seed}"),
                random_network(seed, 30 + seed as usize * 5),
            ));
        }
        let mut ctx = OptContext::new();
        let mut carried = 0;
        for (name, network) in &networks {
            for objective in [Objective::MultiplicativeComplexity, Objective::Size] {
                let mut xag = network.clone();
                let Some(carry) = converge_cut_4(&mut xag, &mut ctx, objective) else {
                    continue;
                };
                carried += 1;
                let at = format!("{name} {objective:?}");
                assert_carry_is_exact(&at, &xag, &mut ctx, objective, carry, |xag, ctx| {
                    converge_cut_4(xag, ctx, objective).expect("the round stays commit-free")
                });
            }
        }
        assert!(carried >= networks.len(), "only {carried} carried rounds");
    }

    #[test]
    fn a_carry_whose_only_proposal_was_rejected_is_exact() {
        // The carried round proposed only at r, and its commit was turned
        // down: the network is unchanged but for a reclaimed node above
        // the arena the carried sets were built for.
        let objective = Objective::MultiplicativeComplexity;
        let (mut xag, proposal) = cyclic_proposal();
        let root = proposal.root;
        let carry_of = move |xag: &mut Xag, _: &mut OptContext| {
            let order = xag.live_gates();
            let sets = enumerate_cuts_for(xag, &order, &CutParams { cut_size: 4 });
            Carry {
                objective,
                order,
                sets,
                proposed: vec![root],
            }
        };
        let mut ctx = OptContext::new();
        let carry = carry_of(&mut xag, &mut ctx);
        let capacity = xag.capacity();
        assert_eq!(commit_proposals(&mut xag, vec![proposal], objective), 0);
        assert!(
            xag.capacity() > capacity,
            "the rejected commit left no node"
        );
        assert_carry_is_exact("cycle", &xag, &mut ctx, objective, carry, carry_of);
    }

    #[test]
    fn a_carry_keeps_every_cut_at_a_root_that_proposed() {
        // Each carry stands for a round whose proposals were all turned
        // down at commit: its sets and proposers come from a cut-4 propose
        // on networks that have rewrites left, so the carried proposers
        // hold real proposals that the next round must find again.
        let objective = Objective::MultiplicativeComplexity;
        let carry_of = |xag: &mut Xag, ctx: &mut OptContext| {
            let order = xag.live_gates();
            let sets = enumerate_cuts_for(xag, &order, &CutParams { cut_size: 4 });
            let (proposals, _) = propose(xag, ctx, &sets, &order, objective, None);
            Carry {
                objective,
                order,
                sets,
                proposed: proposals.iter().map(|p| p.root).collect(),
            }
        };
        let mut ctx = OptContext::new();
        let mut proposers = 0;
        for seed in 1..9u64 {
            let mut xag = random_network(seed, 40);
            let carry = carry_of(&mut xag, &mut ctx);
            proposers += carry.proposed.len();
            let at = format!("seed {seed}");
            assert_carry_is_exact(&at, &xag, &mut ctx, objective, carry, carry_of);
        }
        assert!(proposers > 0, "no carried round proposed");
    }

    #[test]
    fn round_preserves_function_and_reduces_ands() {
        for seed in [1u64, 2, 3, 4] {
            let mut xag = random_network(seed, 40);
            let reference = xag.cleanup();
            let before = xag.num_ands();
            let mut ctx = OptContext::new();
            let (stats, _) = round(
                &mut xag,
                &mut ctx,
                &CutParams::default(),
                Objective::MultiplicativeComplexity,
                "round-test",
                None,
            );
            assert!(xag.num_ands() <= before);
            assert_eq!(stats.ands_after, xag.num_ands());
            assert!(equiv_exhaustive(&reference, &xag.cleanup()), "seed {seed}");
        }
    }
}
