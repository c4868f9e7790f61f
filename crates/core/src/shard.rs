//! The cut-rewriting round — the paper's Algorithm 1 over every gate —
//! and the only rewriting engine of the crate.
//!
//! The paper's loop is embarrassingly parallel at the cut level:
//! candidate cuts are classified, resynthesized, and evaluated
//! independently. Concurrent *mutation* of one strashed network is where
//! semantic corruption creeps in, though, so every round is split into
//! three phases with very different concurrency regimes:
//!
//! 1. **Shard** — the frozen network is partitioned into disjoint
//!    fanout-free windows ([`partition_windows`]): every single-fanout gate
//!    is grouped with the gate that consumes it, so each window is an
//!    MFFC-style cluster that one rewrite is likely to touch as a whole.
//!    Windows are packed into shards balanced by estimated cut work.
//! 2. **Propose** — every root's enumerated cuts are evaluated
//!    *read-only* against the frozen network, producing the best
//!    proposal per root. With one thread this runs inline on the
//!    caller's [`OptContext`]; with more, a worker pool on
//!    [`std::thread::scope`] claims shards off a shared queue, each worker
//!    owning a thread-local [`OptContext`] fork. Because classification
//!    and synthesis are deterministic, a proposal depends only on the
//!    frozen network — never on which worker computed it or on cache
//!    state. Each cut's MFFC is measured before its candidate is built,
//!    in epoch-stamped per-node arrays, and a cut whose MFFC frees no
//!    more than `max(0, best gain so far at its root)` is skipped: the
//!    added count is never negative, so such a cut cannot win. Each
//!    proposing thread builds the candidate of each distinct cut function
//!    once per round and memoizes it; the memo is exact because the
//!    database and the classifier cache are write-once, and debug builds
//!    check every memo hit against a rebuild.
//! 3. **Commit** — back on one thread, proposals are applied in
//!    topological order with full re-validation against the live network
//!    (leaves alive, cut function unchanged, gain re-computed with exact
//!    MFFC dereferencing, acyclicity). The acyclicity check walks only the
//!    instantiated fragment's gates, stopping at the cut leaves: once the
//!    cut function is re-validated, no cycle can run through a leaf.
//!    Losers are rolled back to an arena watermark
//!    ([`xag_network::Xag::reclaim_above`]), so rejected candidates never
//!    leak.
//!
//! The commit order and every accept decision are pure functions of the
//! frozen snapshot, so the result is **bit-identical for every thread
//! count** — the property `tests/parallel.rs` pins down. The only
//! randomness is the shard-claim shuffle (load balancing) under a fixed
//! seed, which affects wall-clock only; it draws from [`mc_rng`], never
//! wall-clock.
//!
//! Proposing against a frozen snapshot is not the paper's in-place
//! Algorithm 1, which evaluates each node's cut functions and gains on
//! the network as the rewrites before it have left it: here a rewrite
//! committed early in a round cannot enable a proposal later in the same
//! round, so some gains wait for the next round (DESIGN.md §5).

use std::collections::hash_map::Entry;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use mc_rng::Rng;
use xag_cuts::{enumerate_cuts_for, CutParams, CutSets};
use xag_network::{ConeScratch, FragRef, NodeId, NodeKind, Signal, Xag, XagFragment};
use xag_tt::hash::FxHashMap;
use xag_tt::Tt;

use crate::context::OptContext;
use crate::stats::PassStats;
use crate::Objective;

/// How many shards to cut the work into: a few per thread, so the shared
/// queue can rebalance when windows have uneven rewrite cost.
const SHARDS_PER_THREAD: usize = 4;

/// Seed of the shard-claim shuffle. Fixed — never wall-clock — so
/// parallel runs are reproducible; it cannot affect results, only
/// scheduling.
const CLAIM_SEED: u64 = 0xDAC1_9DAC_19DA_C19D;

/// One unit of proposal work: a topologically contiguous set of window
/// roots with their member gates.
#[derive(Debug, Clone)]
pub struct Shard {
    /// Rewrite roots owned by this shard, in topological order.
    pub roots: Vec<NodeId>,
    /// Estimated work (total enumerated cuts over all roots).
    pub weight: usize,
}

/// A rewrite proposed against the frozen snapshot, waiting for commit.
#[derive(Debug, Clone)]
struct Proposal {
    /// The root gate the candidate replaces.
    root: NodeId,
    /// Topological position of `root` in the snapshot (commit sort key).
    pos: usize,
    /// The cut function the candidate implements over `leaves`.
    tt: Tt,
    /// The replacement circuit.
    frag: XagFragment,
    /// The cut leaves, in the order `frag` expects its inputs.
    leaves: Vec<NodeId>,
}

/// Partitions the live gates of `xag` into at most `num_shards` disjoint
/// shards of fanout-free windows.
///
/// A gate with a single reference belongs to the window of its unique
/// fanout (it is inside that gate's maximum fanout-free cone); every other
/// gate roots a window of its own. Whole windows are then packed into
/// shards by cumulative cut count, walking the windows in topological
/// order so each shard covers a contiguous slice of the network.
pub fn partition_windows(
    xag: &Xag,
    order: &[NodeId],
    sets: &CutSets,
    num_shards: usize,
) -> Vec<Shard> {
    // Window assignment, bottom-up: a single-fanout gate joins its
    // consumer's window once that consumer is seen; since `order` is
    // topological, walk it in reverse so consumers are assigned first.
    // Node ids are dense, so the assignment is a flat side table.
    const UNASSIGNED: NodeId = NodeId::MAX;
    let mut window_of: Vec<NodeId> = vec![UNASSIGNED; xag.capacity()];
    for &n in order.iter().rev() {
        if window_of[n as usize] == UNASSIGNED {
            window_of[n as usize] = n;
        }
        let root = window_of[n as usize];
        let (f0, f1) = xag.fanins(n);
        for f in [f0, f1] {
            let fi = f.node();
            if xag.is_gate(fi) && xag.nref(fi) == 1 {
                window_of[fi as usize] = root;
            }
        }
    }
    // Collect window members in topological order, keyed by window root.
    let mut members: FxHashMap<NodeId, Vec<NodeId>> = FxHashMap::default();
    let mut window_order: Vec<NodeId> = Vec::new();
    for &n in order {
        let root = window_of[n as usize];
        let entry = members.entry(root).or_default();
        if entry.is_empty() {
            window_order.push(root);
        }
        entry.push(n);
    }
    // Pack windows into shards by cumulative weight.
    let total_weight: usize = order.iter().map(|&n| sets.of(n).len().max(1)).sum();
    let num_shards = num_shards.clamp(1, window_order.len().max(1));
    let target = total_weight.div_ceil(num_shards);
    let mut shards: Vec<Shard> = Vec::with_capacity(num_shards);
    let mut current = Shard {
        roots: Vec::new(),
        weight: 0,
    };
    for w in window_order {
        let window = &members[&w];
        let weight: usize = window.iter().map(|&n| sets.of(n).len().max(1)).sum();
        if !current.roots.is_empty()
            && current.weight + weight > target
            && shards.len() + 1 < num_shards
        {
            shards.push(std::mem::replace(
                &mut current,
                Shard {
                    roots: Vec::new(),
                    weight: 0,
                },
            ));
        }
        current.roots.extend_from_slice(window);
        current.weight += weight;
    }
    if !current.roots.is_empty() {
        shards.push(current);
    }
    shards
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
/// reference counts, so any number of workers can measure overlapping
/// cones concurrently.
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

/// One proposing thread's state for one round: the candidate memo and the
/// buffers of the MFFC measurement and the dry run. The inline path makes
/// one; each worker makes one and reuses it across every shard it claims.
///
/// The memo maps a cut function to the candidate
/// [`OptContext::candidate_for_cut`] builds for it, so each distinct
/// function is classified, looked up, replayed and lifted once per round
/// instead of once per considered cut, and a fragment is cloned only into
/// a new best proposal. It is exact: the database and the classifier cache
/// are both write-once, so a context returns the same candidate for the
/// same function for as long as it lives. Debug builds check every hit
/// against a rebuild. It lives for one round on one thread and is no part
/// of [`OptContext`], so it adds nothing to `fork` and `absorb` and nothing
/// to a daemon's memory. Its keys come from uploaded circuits, like the
/// classifier cache's, so FxHash serves it for the same reason.
#[derive(Debug, Default)]
struct ProposeScratch {
    memo: FxHashMap<Tt, XagFragment>,
    mffc: MffcScratch,
    outs: Vec<Option<Signal>>,
}

/// Evaluates every cut of every root in one shard against the frozen
/// network and returns the best proposal per root (plus the number of cut
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
/// Candidates come from the round's memo in `scratch`.
fn propose_shard(
    xag: &Xag,
    ctx: &mut OptContext,
    sets: &CutSets,
    shard: &Shard,
    pos: &[usize],
    objective: Objective,
    scratch: &mut ProposeScratch,
) -> (Vec<Proposal>, usize) {
    let ProposeScratch { memo, mffc, outs } = scratch;
    let mut proposals = Vec::new();
    let mut considered = 0usize;
    for &root in &shard.roots {
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
            let (freed_ands, freed_total) = frozen_mffc_with(xag, root, cut.leaves(), mffc);
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
                estimate_new_gates(xag, candidate, &leaves[..cut.size()], mffc, outs);
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
                        pos: pos[root as usize],
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

/// Applies proposals in topological order, re-validating each against the
/// live network. Returns the number of accepted rewrites.
///
/// A proposal wins iff, *on the network as left by the previous winners*:
/// its root and all leaves are still alive, the cut still computes the
/// proposed function, the exact gain (MFFC dereferencing + hash-aware
/// dry-run on the live network) is still positive, and the substitution
/// is acyclic ([`fragment_reaches`], bounded by the fragment). Everything
/// else is rolled back to the arena watermark recorded before
/// instantiation.
fn commit_proposals(xag: &mut Xag, mut proposals: Vec<Proposal>, objective: Objective) -> usize {
    proposals.sort_by_key(|p| p.pos);
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

/// One rewriting round over every gate: shard, propose on `threads`
/// workers, commit deterministically. With `threads <= 1` the proposal
/// phase runs inline on the caller's context; results are bit-identical
/// either way.
pub(crate) fn round(
    xag: &mut Xag,
    ctx: &mut OptContext,
    cut_params: &CutParams,
    objective: Objective,
    threads: usize,
    pass_name: &str,
) -> PassStats {
    let _round = mc_obs::prof::phase("par_rewrite");
    // lint: allow(determinism): wall-clock feeds PassStats/metrics timing only; never branches on it
    let start = Instant::now();
    let order = xag.live_gates();
    let (ands_before, xors_before) = count_gates(xag, &order);

    let sets = {
        let _p = mc_obs::prof::phase("cut_enum");
        enumerate_cuts_for(xag, &order, cut_params)
    };
    let mut pos: Vec<usize> = vec![0; xag.capacity()];
    for (i, &n) in order.iter().enumerate() {
        pos[n as usize] = i;
    }

    let threads = threads.max(1);
    let num_shards = if threads == 1 {
        1
    } else {
        threads * SHARDS_PER_THREAD
    };
    let shards = partition_windows(xag, &order, &sets, num_shards);
    mc_obs::registry()
        .counter("mc_shard_windows_total")
        .add(shards.len() as u64);

    // lint: allow(determinism): wall-clock feeds PassStats/metrics timing only; never branches on it
    let propose_start = Instant::now();
    let mut propose_span = mc_obs::span("shard:propose");
    let mut proposals: Vec<Proposal> = Vec::new();
    let mut considered = 0usize;
    if threads == 1 || shards.len() <= 1 {
        let mut scratch = ProposeScratch::default();
        for shard in &shards {
            let _p = mc_obs::prof::phase("propose");
            let (props, c) = propose_shard(xag, ctx, &sets, shard, &pos, objective, &mut scratch);
            proposals.extend(props);
            considered += c;
        }
    } else {
        // Claim order is shuffled (seeded) so long windows spread across
        // workers; the claim order cannot affect results, only wall-clock.
        let mut claim: Vec<usize> = (0..shards.len()).collect();
        Rng::seed_from_u64(CLAIM_SEED).shuffle(&mut claim);
        let next = AtomicUsize::new(0);
        let frozen: &Xag = xag;
        // Trace IDs live in a thread-local; carry the round's ID into the
        // scoped workers so their propose spans join the job's trace.
        let trace_id = mc_obs::current_trace_id();
        let (all, forks) = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads.min(shards.len()))
                .map(|_| {
                    let mut wctx = ctx.fork();
                    let (claim, next, shards, sets, pos) = (&claim, &next, &shards, &sets, &pos);
                    s.spawn(move || {
                        let _trace = mc_obs::trace_scope(trace_id);
                        // The worker's own phase stack roots at the round
                        // name, so its per-shard propose phases fold to the
                        // same `par_rewrite;propose` path the inline run
                        // produces — and flush once per worker, not per
                        // shard, when the root guard drops.
                        let _round = mc_obs::prof::phase("par_rewrite");
                        let mut scratch = ProposeScratch::default();
                        let mut mine: Vec<(usize, Vec<Proposal>, usize)> = Vec::new();
                        loop {
                            // Schedule-fuzz crossing: inert in production
                            // (one relaxed load), perturbs the claim race
                            // under `tests/schedule_fuzz.rs` to prove the
                            // commit is claim-order-independent.
                            mc_rng::sched::yield_point(mc_rng::sched::site::SHARD_CLAIM);
                            let k = next.fetch_add(1, Ordering::Relaxed);
                            if k >= claim.len() {
                                break;
                            }
                            let si = claim[k];
                            let _p = mc_obs::prof::phase("propose");
                            let (props, c) = propose_shard(
                                frozen,
                                &mut wctx,
                                sets,
                                &shards[si],
                                pos,
                                objective,
                                &mut scratch,
                            );
                            drop(_p);
                            mc_rng::sched::yield_point(mc_rng::sched::site::SHARD_PROPOSE);
                            mine.push((si, props, c));
                        }
                        (mine, wctx)
                    })
                })
                .collect();
            let mut all: Vec<(usize, Vec<Proposal>, usize)> = Vec::new();
            let mut forks: Vec<OptContext> = Vec::new();
            for h in handles {
                let (mine, wctx) = h.join().expect("rewrite worker panicked");
                all.extend(mine);
                forks.push(wctx);
            }
            (all, forks)
        });
        for fork in forks {
            ctx.absorb(fork);
        }
        // Deterministic aggregation: shard index order, not completion
        // order.
        let mut all = all;
        all.sort_by_key(|(si, _, _)| *si);
        for (_, props, c) in all {
            proposals.extend(props);
            considered += c;
        }
    }

    propose_span.detail(format!(
        "windows={} proposals={} considered={considered}",
        shards.len(),
        proposals.len()
    ));
    drop(propose_span);
    mc_obs::registry()
        .histogram("mc_shard_propose_us")
        .record(propose_start.elapsed().as_micros() as u64);

    // lint: allow(determinism): wall-clock feeds PassStats/metrics timing only; never branches on it
    let commit_start = Instant::now();
    let num_proposals = proposals.len();
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
    PassStats {
        pass: pass_name.to_string(),
        ands_before,
        xors_before,
        ands_after,
        xors_after,
        rewrites_applied: applied,
        cuts_considered: considered,
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xag_cuts::enumerate_cuts;
    use xag_network::equiv_exhaustive;

    fn textbook_full_adder() -> Xag {
        let mut xag = Xag::new();
        let (a, b, cin) = (xag.input(), xag.input(), xag.input());
        let ab = xag.and(a, b);
        let ac = xag.and(a, cin);
        let bc = xag.and(b, cin);
        let t = xag.xor(ab, ac);
        let cout = xag.xor(t, bc);
        let axb = xag.xor(a, b);
        let sum = xag.xor(axb, cin);
        xag.output(sum);
        xag.output(cout);
        xag
    }

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
    fn windows_partition_all_live_gates() {
        let xag = random_network(11, 40);
        let sets = enumerate_cuts(&xag, &CutParams::default());
        let order = xag.live_gates();
        for shards in [
            partition_windows(&xag, &order, &sets, 1),
            partition_windows(&xag, &order, &sets, 3),
            partition_windows(&xag, &order, &sets, 64),
        ] {
            let mut covered: Vec<NodeId> = shards.iter().flat_map(|s| s.roots.clone()).collect();
            covered.sort_unstable();
            let mut expected = order.clone();
            expected.sort_unstable();
            assert_eq!(covered, expected, "every live gate in exactly one shard");
        }
    }

    #[test]
    fn single_fanout_gates_share_a_shard_with_their_consumer() {
        let xag = textbook_full_adder();
        let sets = enumerate_cuts(&xag, &CutParams::default());
        let order = xag.live_gates();
        // Ask for more shards than windows: splits happen only at window
        // boundaries, so every single-fanout gate stays with its consumer.
        let shards = partition_windows(&xag, &order, &sets, 64);
        for shard in &shards {
            for &n in &shard.roots {
                if xag.nref(n) == 1 {
                    let consumer_shard = shards
                        .iter()
                        .position(|s| {
                            s.roots.iter().any(|&m| {
                                m != n
                                    && xag.is_gate(m)
                                    && (xag.fanins(m).0.node() == n || xag.fanins(m).1.node() == n)
                            })
                        })
                        .or_else(|| shards.iter().position(|s| s.roots.contains(&n)));
                    assert_eq!(
                        consumer_shard,
                        shards.iter().position(|s| s.roots.contains(&n)),
                        "gate {n} separated from its single consumer"
                    );
                }
            }
        }
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

    #[test]
    fn commit_rejects_a_rewrite_that_would_close_a_cycle() {
        // r = a·b feeds o = r ⊕ c; both are outputs.
        let mut xag = Xag::new();
        let (a, b, c) = (xag.input(), xag.input(), xag.input());
        let r = xag.and(a, b);
        let o = xag.xor(r, c);
        xag.output(o);
        xag.output(r);
        let reference = xag.cleanup();
        let gates = xag.num_gates();
        let leaves = vec![a.node(), b.node(), c.node()];
        let tt = xag
            .cone_tt(r.node(), &leaves)
            .expect("the cut covers the root");
        // (a·b ⊕ c) ⊕ c computes r, but its first two gates hash to r and
        // o, so the fresh third gate reads o, which reads r. It frees r's
        // AND and adds only a XOR (gain +1), so only the cycle check can
        // turn it down.
        let mut frag = XagFragment::new(3);
        let g0 = frag.and(XagFragment::input(0), XagFragment::input(1));
        let g1 = frag.xor(g0, XagFragment::input(2));
        let g2 = frag.xor(g1, XagFragment::input(2));
        frag.set_output(g2);
        assert_eq!(frag.eval_tt(), tt);
        let proposal = Proposal {
            root: r.node(),
            pos: 0,
            tt,
            frag,
            leaves,
        };
        let applied = commit_proposals(
            &mut xag,
            vec![proposal],
            Objective::MultiplicativeComplexity,
        );
        assert_eq!(applied, 0, "a cyclic substitution was committed");
        assert_eq!(xag.num_gates(), gates);
        assert!(equiv_exhaustive(&reference, &xag.cleanup()));
    }

    #[test]
    fn parallel_round_preserves_function_and_reduces_ands() {
        for seed in [1u64, 2, 3, 4] {
            let mut xag = random_network(seed, 40);
            let reference = xag.cleanup();
            let before = xag.num_ands();
            let mut ctx = OptContext::new();
            let stats = round(
                &mut xag,
                &mut ctx,
                &CutParams::default(),
                Objective::MultiplicativeComplexity,
                2,
                "par-test",
            );
            assert!(xag.num_ands() <= before);
            assert_eq!(stats.ands_after, xag.num_ands());
            assert!(equiv_exhaustive(&reference, &xag.cleanup()), "seed {seed}");
        }
    }

    #[test]
    fn thread_count_does_not_change_the_result() {
        for seed in [7u64, 8, 9] {
            let base = random_network(seed, 40);
            let mut results = Vec::new();
            for threads in [1usize, 2, 4] {
                let mut xag = base.cleanup();
                let mut ctx = OptContext::new();
                round(
                    &mut xag,
                    &mut ctx,
                    &CutParams::default(),
                    Objective::MultiplicativeComplexity,
                    threads,
                    "par-test",
                );
                let clean = xag.cleanup();
                results.push((clean.num_ands(), clean.num_xors()));
            }
            assert_eq!(results[0], results[1], "seed {seed}: 1 vs 2 threads");
            assert_eq!(results[0], results[2], "seed {seed}: 1 vs 4 threads");
        }
    }
}
