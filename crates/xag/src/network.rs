use xag_tt::hash::FxHashMap;
use xag_tt::Tt;

use crate::signal::Signal;

/// Dense index of a network node.
pub type NodeId = u32;

/// The kind of a network node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// The constant-zero node (always node 0).
    Const,
    /// A primary input; the payload is the input position.
    Input(u32),
    /// A two-input AND gate.
    And,
    /// A two-input XOR gate.
    Xor,
}

#[derive(Debug, Clone, Copy)]
struct Node {
    kind: NodeKind,
    f0: Signal,
    f1: Signal,
}

type StrashKey = (bool, Signal, Signal);

enum Norm {
    /// The gate folds to an existing signal.
    Trivial(Signal),
    /// A canonical gate: kind, fanins, and an output complement (XOR only).
    Gate {
        is_and: bool,
        a: Signal,
        b: Signal,
        out_compl: bool,
    },
}

fn normalize_and(a: Signal, b: Signal) -> Norm {
    if a == Signal::CONST0 || b == Signal::CONST0 || a == !b {
        return Norm::Trivial(Signal::CONST0);
    }
    if a == Signal::CONST1 {
        return Norm::Trivial(b);
    }
    if b == Signal::CONST1 || a == b {
        return Norm::Trivial(a);
    }
    let (a, b) = if a <= b { (a, b) } else { (b, a) };
    Norm::Gate {
        is_and: true,
        a,
        b,
        out_compl: false,
    }
}

fn normalize_xor(a: Signal, b: Signal) -> Norm {
    if a.is_const() {
        return Norm::Trivial(b ^ a.is_complement());
    }
    if b.is_const() {
        return Norm::Trivial(a ^ b.is_complement());
    }
    if a.abs() == b.abs() {
        return Norm::Trivial(Signal::new(0, a != b));
    }
    let out_compl = a.is_complement() ^ b.is_complement();
    let (a, b) = (a.abs(), b.abs());
    let (a, b) = if a <= b { (a, b) } else { (b, a) };
    Norm::Gate {
        is_and: false,
        a,
        b,
        out_compl,
    }
}

/// Reusable state for [`Xag::live_gates_into`].
///
/// Holds the DFS colouring and stack so repeated topological-order requests
/// (one per rewrite round, window build, canonicalization, …) reuse the same
/// buffers instead of re-allocating them.
#[derive(Debug, Default, Clone)]
pub struct TopoScratch {
    state: Vec<u8>, // 0 new, 1 open, 2 done
    stack: Vec<(NodeId, bool)>,
}

impl TopoScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Reusable memo for [`Xag::cone_tt_with`].
///
/// A dense epoch-stamped table: entry `n` is valid only if its stamp equals
/// the current epoch, so starting a new cone evaluation is O(1) — no clearing,
/// no hashing, no allocation once the buffers have grown to network size.
#[derive(Debug, Default, Clone)]
pub struct ConeScratch {
    epoch: u32,
    stamp: Vec<u32>,
    tt: Vec<Tt>,
    stack: Vec<NodeId>,
}

impl ConeScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn begin(&mut self, cap: usize) {
        if self.stamp.len() < cap {
            self.stamp.resize(cap, 0);
            self.tt.resize(cap, Tt::zero(1));
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Stamp wrap-around: reset so stale entries cannot alias.
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
    }

    #[inline]
    fn get(&self, n: NodeId) -> Option<Tt> {
        if self.stamp[n as usize] == self.epoch {
            Some(self.tt[n as usize])
        } else {
            None
        }
    }

    #[inline]
    fn set(&mut self, n: NodeId, t: Tt) {
        self.stamp[n as usize] = self.epoch;
        self.tt[n as usize] = t;
    }
}

/// A XOR-AND graph: a structurally hashed logic network of two-input AND and
/// XOR gates with complemented edges.
///
/// See the [crate documentation](crate) for an overview and an example.
#[derive(Debug, Clone)]
pub struct Xag {
    nodes: Vec<Node>,
    pis: Vec<NodeId>,
    pos: Vec<Signal>,
    strash: FxHashMap<StrashKey, NodeId>,
    nref: Vec<u32>,
    fanouts: Vec<Vec<NodeId>>,
    dead: Vec<bool>,
    replacement: Vec<Option<Signal>>,
}

impl Default for Xag {
    fn default() -> Self {
        Self::new()
    }
}

impl Xag {
    /// Creates an empty network containing only the constant-zero node.
    pub fn new() -> Self {
        Self {
            nodes: vec![Node {
                kind: NodeKind::Const,
                f0: Signal::CONST0,
                f1: Signal::CONST0,
            }],
            pis: Vec::new(),
            pos: Vec::new(),
            strash: FxHashMap::default(),
            nref: vec![0],
            fanouts: vec![Vec::new()],
            dead: vec![false],
            replacement: vec![None],
        }
    }

    /// Adds a primary input and returns its signal.
    pub fn input(&mut self) -> Signal {
        let id = self.alloc(
            NodeKind::Input(self.pis.len() as u32),
            Signal::CONST0,
            Signal::CONST0,
        );
        self.pis.push(id);
        Signal::new(id, false)
    }

    /// Adds `n` primary inputs.
    pub fn inputs(&mut self, n: usize) -> Vec<Signal> {
        (0..n).map(|_| self.input()).collect()
    }

    /// Marks a signal as a primary output and returns its output position.
    pub fn output(&mut self, s: Signal) -> usize {
        self.nref[s.node() as usize] += 1;
        self.pos.push(s);
        self.pos.len() - 1
    }

    /// The constant signal with the given value.
    pub fn constant(&self, value: bool) -> Signal {
        Signal::new(0, value)
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.pis.len()
    }

    /// Number of primary outputs.
    pub fn num_outputs(&self) -> usize {
        self.pos.len()
    }

    /// Signal of the `i`-th primary input.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn input_signal(&self, i: usize) -> Signal {
        Signal::new(self.pis[i], false)
    }

    /// Signal driving the `i`-th primary output.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn output_signal(&self, i: usize) -> Signal {
        self.resolve(self.pos[i])
    }

    /// The kind of a node.
    pub fn kind(&self, n: NodeId) -> NodeKind {
        self.nodes[n as usize].kind
    }

    /// True iff the node is an AND or XOR gate.
    pub fn is_gate(&self, n: NodeId) -> bool {
        matches!(self.nodes[n as usize].kind, NodeKind::And | NodeKind::Xor)
    }

    /// The two fanins of a gate node.
    ///
    /// # Panics
    ///
    /// Panics if the node is not a gate.
    pub fn fanins(&self, n: NodeId) -> (Signal, Signal) {
        assert!(self.is_gate(n), "node {n} is not a gate");
        let node = &self.nodes[n as usize];
        (node.f0, node.f1)
    }

    /// Reference count of a node (live fanouts plus primary-output uses).
    pub fn nref(&self, n: NodeId) -> u32 {
        self.nref[n as usize]
    }

    /// True iff the node has been removed from the network.
    pub fn is_dead(&self, n: NodeId) -> bool {
        self.dead[n as usize]
    }

    /// Total number of allocated node slots (including dead nodes).
    pub fn capacity(&self) -> usize {
        self.nodes.len()
    }

    fn alloc(&mut self, kind: NodeKind, f0: Signal, f1: Signal) -> NodeId {
        let id = self.nodes.len() as NodeId;
        self.nodes.push(Node { kind, f0, f1 });
        self.nref.push(0);
        self.fanouts.push(Vec::new());
        self.dead.push(false);
        self.replacement.push(None);
        if matches!(kind, NodeKind::And | NodeKind::Xor) {
            self.nref[f0.node() as usize] += 1;
            self.nref[f1.node() as usize] += 1;
            self.fanouts[f0.node() as usize].push(id);
            self.fanouts[f1.node() as usize].push(id);
        }
        id
    }

    fn lookup_or_create(&mut self, is_and: bool, a: Signal, b: Signal, out_compl: bool) -> Signal {
        let key = (is_and, a, b);
        if let Some(&n) = self.strash.get(&key) {
            return Signal::new(n, out_compl);
        }
        let kind = if is_and { NodeKind::And } else { NodeKind::Xor };
        let id = self.alloc(kind, a, b);
        self.strash.insert(key, id);
        Signal::new(id, out_compl)
    }

    /// Creates (or finds) the AND of two signals.
    pub fn and(&mut self, a: Signal, b: Signal) -> Signal {
        let (a, b) = (self.resolve(a), self.resolve(b));
        match normalize_and(a, b) {
            Norm::Trivial(s) => s,
            Norm::Gate {
                is_and,
                a,
                b,
                out_compl,
            } => self.lookup_or_create(is_and, a, b, out_compl),
        }
    }

    /// Creates (or finds) the XOR of two signals.
    pub fn xor(&mut self, a: Signal, b: Signal) -> Signal {
        let (a, b) = (self.resolve(a), self.resolve(b));
        match normalize_xor(a, b) {
            Norm::Trivial(s) => s,
            Norm::Gate {
                is_and,
                a,
                b,
                out_compl,
            } => self.lookup_or_create(is_and, a, b, out_compl),
        }
    }

    /// The complement of a signal (free: flips the edge attribute).
    pub fn not(&self, a: Signal) -> Signal {
        !a
    }

    /// OR via De Morgan: `a | b = !(!a & !b)`.
    pub fn or(&mut self, a: Signal, b: Signal) -> Signal {
        let g = self.and(!a, !b);
        !g
    }

    /// Two-input multiplexer `if s { t } else { e }`, built with one AND
    /// gate: `e ⊕ s·(t⊕e)`.
    pub fn mux(&mut self, s: Signal, t: Signal, e: Signal) -> Signal {
        let d = self.xor(t, e);
        let sd = self.and(s, d);
        self.xor(sd, e)
    }

    /// Majority of three signals with one AND gate:
    /// `⟨abc⟩ = (a⊕c)(b⊕c) ⊕ c`.
    pub fn maj(&mut self, a: Signal, b: Signal, c: Signal) -> Signal {
        let ac = self.xor(a, c);
        let bc = self.xor(b, c);
        let t = self.and(ac, bc);
        self.xor(t, c)
    }

    /// Looks up an AND gate without creating it.
    ///
    /// Returns the signal the gate would evaluate to if it (or a trivial
    /// simplification) already exists.
    pub fn lookup_and(&self, a: Signal, b: Signal) -> Option<Signal> {
        let (a, b) = (self.resolve(a), self.resolve(b));
        match normalize_and(a, b) {
            Norm::Trivial(s) => Some(s),
            Norm::Gate {
                is_and,
                a,
                b,
                out_compl,
            } => self
                .strash
                .get(&(is_and, a, b))
                .map(|&n| Signal::new(n, out_compl)),
        }
    }

    /// Looks up a XOR gate without creating it. See [`Xag::lookup_and`].
    pub fn lookup_xor(&self, a: Signal, b: Signal) -> Option<Signal> {
        let (a, b) = (self.resolve(a), self.resolve(b));
        match normalize_xor(a, b) {
            Norm::Trivial(s) => Some(s),
            Norm::Gate {
                is_and,
                a,
                b,
                out_compl,
            } => self
                .strash
                .get(&(is_and, a, b))
                .map(|&n| Signal::new(n, out_compl)),
        }
    }

    /// Follows replacement records left behind by [`Xag::substitute`].
    pub fn resolve(&self, mut s: Signal) -> Signal {
        while let Some(r) = self.replacement[s.node() as usize] {
            s = r ^ s.is_complement();
        }
        s
    }

    fn key_of(&self, n: NodeId) -> Option<StrashKey> {
        let node = &self.nodes[n as usize];
        match node.kind {
            NodeKind::And => Some((true, node.f0, node.f1)),
            NodeKind::Xor => Some((false, node.f0, node.f1)),
            _ => None,
        }
    }

    fn unhash(&mut self, n: NodeId) {
        if let Some(key) = self.key_of(n) {
            if self.strash.get(&key) == Some(&n) {
                self.strash.remove(&key);
            }
        }
    }

    fn kill(&mut self, n: NodeId) {
        if self.dead[n as usize] || !self.is_gate(n) {
            return;
        }
        debug_assert_eq!(self.nref[n as usize], 0);
        self.dead[n as usize] = true;
        self.unhash(n);
        let (f0, f1) = self.fanins(n);
        for f in [f0, f1] {
            let fi = f.node() as usize;
            self.nref[fi] -= 1;
            if self.nref[fi] == 0 {
                self.kill(f.node());
            }
        }
    }

    /// Replaces node `old` by signal `new_sig` everywhere, re-normalizing and
    /// re-hashing the transitive fanout. Nodes whose reference count drops to
    /// zero are removed.
    ///
    /// The caller must ensure `old` is not in the transitive fanin of
    /// `new_sig`; violating this creates a cycle. [`Xag::is_in_tfi`]
    /// decides that in time linear in the fanin cone; a caller that has
    /// just instantiated `new_sig` over known cut leaves can bound the
    /// search by what it instantiated, as the rewriting round's commit
    /// does.
    ///
    /// # Panics
    ///
    /// Panics if `old` is not a gate node.
    pub fn substitute(&mut self, old: NodeId, new_sig: Signal) {
        assert!(self.is_gate(old), "can only substitute gate nodes");
        let mut work = vec![(old, new_sig)];
        while let Some((old, new_sig)) = work.pop() {
            if self.dead[old as usize] {
                continue;
            }
            let new_sig = self.resolve(new_sig);
            if new_sig.node() == old {
                continue;
            }
            // Re-point primary outputs.
            for i in 0..self.pos.len() {
                if self.pos[i].node() == old {
                    let c = self.pos[i].is_complement();
                    self.nref[old as usize] -= 1;
                    self.pos[i] = new_sig ^ c;
                    self.nref[new_sig.node() as usize] += 1;
                }
            }
            // Re-point fanouts.
            let parents = std::mem::take(&mut self.fanouts[old as usize]);
            for p in parents {
                if self.dead[p as usize] || !self.is_gate(p) {
                    continue;
                }
                let (f0, f1) = self.fanins(p);
                if f0.node() != old && f1.node() != old {
                    continue; // stale fanout entry
                }
                self.unhash(p);
                let remap = |f: Signal| {
                    if f.node() == old {
                        new_sig ^ f.is_complement()
                    } else {
                        f
                    }
                };
                let (g0, g1) = (remap(f0), remap(f1));
                for f in [f0, f1] {
                    if f.node() == old {
                        self.nref[old as usize] -= 1;
                        self.nref[new_sig.node() as usize] += 1;
                        self.fanouts[new_sig.node() as usize].push(p);
                    }
                }
                self.nodes[p as usize].f0 = g0;
                self.nodes[p as usize].f1 = g1;
                let is_and = self.nodes[p as usize].kind == NodeKind::And;
                let norm = if is_and {
                    normalize_and(g0, g1)
                } else {
                    normalize_xor(g0, g1)
                };
                match norm {
                    Norm::Trivial(s) => work.push((p, s)),
                    Norm::Gate {
                        is_and,
                        a,
                        b,
                        out_compl,
                    } => {
                        // When the XOR normalization pushes a complement out
                        // (`out_compl`), the node cannot flip polarity in
                        // place: keep the parity on the second fanin edge
                        // instead. This never allocates nodes, which keeps
                        // substitution cascades linear (a fresh node per
                        // re-normalized parent blows up quadratically).
                        let (na, nb) = if out_compl { (a, !b) } else { (a, b) };
                        let key = (is_and, na, nb);
                        let canonical_hit = if out_compl {
                            // A canonical twin computing xor(a, b) may
                            // already exist; its complement is p's function.
                            self.strash.get(&(is_and, a, b)).copied()
                        } else {
                            None
                        };
                        match self.strash.get(&key) {
                            Some(&q) if q != p => {
                                work.push((p, Signal::new(q, false)));
                            }
                            _ => match canonical_hit {
                                Some(q) if q != p => {
                                    work.push((p, Signal::new(q, true)));
                                }
                                _ => {
                                    // Adopt the stored form (same fanin
                                    // nodes, so reference counts are
                                    // unaffected).
                                    self.nodes[p as usize].f0 = na;
                                    self.nodes[p as usize].f1 = nb;
                                    self.strash.insert(key, p);
                                }
                            },
                        }
                    }
                }
            }
            self.replacement[old as usize] = Some(new_sig);
            if self.nref[old as usize] == 0 {
                self.kill(old);
            }
        }
    }

    /// Removes a dangling gate — a node nothing references, typically a
    /// rewrite candidate that was instantiated and then rejected — along
    /// with every fanin-cone node whose reference count drops to zero.
    ///
    /// No-op for constants, inputs, dead nodes, and nodes that still have
    /// references, so it is always safe to call on a signal's node.
    pub fn remove_dangling(&mut self, n: NodeId) {
        if self.is_gate(n) && !self.dead[n as usize] && self.nref[n as usize] == 0 {
            self.kill(n);
        }
    }

    /// Removes every dangling gate allocated at or above `watermark`
    /// (typically a [`Xag::capacity`] value recorded before instantiating a
    /// rewrite candidate), top-down so fanin references cascade.
    ///
    /// This is the shard-local reclamation primitive of the parallel
    /// rewriting engine: each commit records the arena watermark before
    /// instantiating a candidate and rolls back to it when the candidate is
    /// rejected, so rejected rewrites never leak nodes — regardless of
    /// which shard proposed them.
    pub fn reclaim_above(&mut self, watermark: usize) {
        for id in (watermark..self.capacity()).rev() {
            self.remove_dangling(id as NodeId);
        }
    }

    /// True iff node `target` lies in the transitive fanin cone of `of`.
    ///
    /// The reference check, O(TFI): a DFS over the whole fanin cone of
    /// `of` with a visited table the size of the arena, allocated per
    /// call. The rewriting round does not call it in release builds; its
    /// commit runs a DFS bounded by the instantiated fragment and, in
    /// debug builds, asserts that both agree.
    pub fn is_in_tfi(&self, target: NodeId, of: Signal) -> bool {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![of.node()];
        while let Some(n) = stack.pop() {
            if n == target {
                return true;
            }
            if seen[n as usize] || !self.is_gate(n) {
                continue;
            }
            seen[n as usize] = true;
            let (f0, f1) = self.fanins(n);
            stack.push(f0.node());
            stack.push(f1.node());
        }
        false
    }

    /// Gate nodes reachable from the primary outputs, in topological order
    /// (fanins before fanouts).
    ///
    /// Allocates fresh buffers on every call; hot paths should hold a
    /// [`TopoScratch`] and an order `Vec` and use [`Xag::live_gates_into`].
    pub fn live_gates(&self) -> Vec<NodeId> {
        let mut scratch = TopoScratch::new();
        let mut order = Vec::new();
        self.live_gates_into(&mut scratch, &mut order);
        order
    }

    /// Collects the live gates in topological order into `order`, reusing the
    /// buffers of `scratch` (and of `order`, which is cleared first).
    pub fn live_gates_into(&self, scratch: &mut TopoScratch, order: &mut Vec<NodeId>) {
        order.clear();
        let state = &mut scratch.state;
        state.clear();
        state.resize(self.nodes.len(), 0u8);
        let stack = &mut scratch.stack;
        stack.clear();
        stack.extend(self.pos.iter().map(|s| (self.resolve(*s).node(), false)));
        while let Some((n, expanded)) = stack.pop() {
            if state[n as usize] == 2 {
                continue;
            }
            if expanded {
                state[n as usize] = 2;
                if self.is_gate(n) {
                    order.push(n);
                }
                continue;
            }
            if state[n as usize] == 1 {
                continue;
            }
            state[n as usize] = 1;
            stack.push((n, true));
            if self.is_gate(n) {
                let (f0, f1) = self.fanins(n);
                if state[f0.node() as usize] == 0 {
                    stack.push((f0.node(), false));
                }
                if state[f1.node() as usize] == 0 {
                    stack.push((f1.node(), false));
                }
            }
        }
    }

    /// Number of AND gates reachable from the outputs (the circuit's
    /// multiplicative complexity in the paper's terminology).
    pub fn num_ands(&self) -> usize {
        self.live_gates()
            .iter()
            .filter(|&&n| self.nodes[n as usize].kind == NodeKind::And)
            .count()
    }

    /// Number of XOR gates reachable from the outputs.
    pub fn num_xors(&self) -> usize {
        self.live_gates()
            .iter()
            .filter(|&&n| self.nodes[n as usize].kind == NodeKind::Xor)
            .count()
    }

    /// Total number of live gates.
    pub fn num_gates(&self) -> usize {
        self.live_gates().len()
    }

    /// Multiplicative depth: the maximum number of AND gates on any
    /// input-to-output path. This is the second cost metric of FHE (each
    /// AND level consumes noise budget); XOR gates and inverters are free
    /// in depth as well.
    pub fn and_depth(&self) -> usize {
        let mut depth = vec![0usize; self.nodes.len()];
        for n in self.live_gates() {
            let (f0, f1) = self.fanins(n);
            let d = depth[f0.node() as usize].max(depth[f1.node() as usize]);
            depth[n as usize] = d + (self.nodes[n as usize].kind == NodeKind::And) as usize;
        }
        self.pos
            .iter()
            .map(|s| depth[self.resolve(*s).node() as usize])
            .max()
            .unwrap_or(0)
    }

    /// Word-parallel simulation: given one 64-bit pattern word per input,
    /// returns one word per output (bit `k` of a word belongs to test
    /// vector `k`).
    ///
    /// # Panics
    ///
    /// Panics if `input_words.len() != self.num_inputs()`.
    pub fn simulate(&self, input_words: &[u64]) -> Vec<u64> {
        assert_eq!(input_words.len(), self.num_inputs());
        let mut values = vec![0u64; self.nodes.len()];
        for (k, &pi) in self.pis.iter().enumerate() {
            values[pi as usize] = input_words[k];
        }
        for n in self.live_gates() {
            let node = &self.nodes[n as usize];
            let v0 = values[node.f0.node() as usize]
                ^ if node.f0.is_complement() { u64::MAX } else { 0 };
            let v1 = values[node.f1.node() as usize]
                ^ if node.f1.is_complement() { u64::MAX } else { 0 };
            values[n as usize] = match node.kind {
                NodeKind::And => v0 & v1,
                NodeKind::Xor => v0 ^ v1,
                _ => unreachable!(),
            };
        }
        self.pos
            .iter()
            .map(|s| {
                let s = self.resolve(*s);
                values[s.node() as usize] ^ if s.is_complement() { u64::MAX } else { 0 }
            })
            .collect()
    }

    /// Evaluates the network on a single assignment (bit `i` of `assignment`
    /// is input `i`).
    pub fn evaluate(&self, assignment: u64) -> Vec<bool> {
        let words: Vec<u64> = (0..self.num_inputs())
            .map(|i| {
                if (assignment >> i) & 1 == 1 {
                    u64::MAX
                } else {
                    0
                }
            })
            .collect();
        self.simulate(&words).iter().map(|&w| w & 1 == 1).collect()
    }

    /// Computes the local function of `root` expressed over the given cut
    /// `leaves` (at most six node ids).
    ///
    /// Returns `None` if the cone reaches a primary input or has more than
    /// six leaves — i.e. if `leaves` is not a valid cut of `root`.
    ///
    /// Allocates a fresh memo on every call; hot paths should hold a
    /// [`ConeScratch`] and use [`Xag::cone_tt_with`].
    pub fn cone_tt(&self, root: NodeId, leaves: &[NodeId]) -> Option<Tt> {
        self.cone_tt_with(root, leaves, &mut ConeScratch::new())
    }

    /// [`Xag::cone_tt`] with a caller-provided memo, allocation-free once the
    /// scratch has grown to network size.
    pub fn cone_tt_with(
        &self,
        root: NodeId,
        leaves: &[NodeId],
        scratch: &mut ConeScratch,
    ) -> Option<Tt> {
        if leaves.len() > 6 {
            return None;
        }
        let nvars = leaves.len().max(1);
        scratch.begin(self.nodes.len());
        for (i, &l) in leaves.iter().enumerate() {
            scratch.set(l, Tt::projection(i, nvars));
        }
        scratch.set(0, Tt::zero(nvars));
        let mut stack = std::mem::take(&mut scratch.stack);
        stack.clear();
        stack.push(root);
        let mut valid = true;
        while let Some(&n) = stack.last() {
            if scratch.get(n).is_some() {
                stack.pop();
                continue;
            }
            if !self.is_gate(n) {
                valid = false; // reached a PI that is not a leaf
                break;
            }
            let (f0, f1) = self.fanins(n);
            match (scratch.get(f0.node()), scratch.get(f1.node())) {
                (Some(t0), Some(t1)) => {
                    stack.pop();
                    let t0 = if f0.is_complement() { !t0 } else { t0 };
                    let t1 = if f1.is_complement() { !t1 } else { t1 };
                    let t = match self.nodes[n as usize].kind {
                        NodeKind::And => t0 & t1,
                        NodeKind::Xor => t0 ^ t1,
                        _ => unreachable!(),
                    };
                    scratch.set(n, t);
                }
                (t0, t1) => {
                    if t0.is_none() {
                        stack.push(f0.node());
                    }
                    if t1.is_none() {
                        stack.push(f1.node());
                    }
                }
            }
        }
        scratch.stack = stack;
        if valid {
            scratch.get(root)
        } else {
            None
        }
    }

    /// Dereferences the maximum fanout-free cone of `root` bounded by
    /// `leaves`, returning `(AND gates, total gates)` that would be freed by
    /// removing `root`. Must be undone with [`Xag::ref_cone`] before any
    /// other mutation.
    pub fn deref_cone(&mut self, root: NodeId, leaves: &[NodeId]) -> (u32, u32) {
        let mut ands = (self.nodes[root as usize].kind == NodeKind::And) as u32;
        let mut total = 1u32;
        let (f0, f1) = self.fanins(root);
        for f in [f0, f1] {
            let fi = f.node();
            self.nref[fi as usize] -= 1;
            if self.nref[fi as usize] == 0 && self.is_gate(fi) && !leaves.contains(&fi) {
                let (a, t) = self.deref_cone(fi, leaves);
                ands += a;
                total += t;
            }
        }
        (ands, total)
    }

    /// Undoes [`Xag::deref_cone`].
    pub fn ref_cone(&mut self, root: NodeId, leaves: &[NodeId]) -> (u32, u32) {
        let mut ands = (self.nodes[root as usize].kind == NodeKind::And) as u32;
        let mut total = 1u32;
        let (f0, f1) = self.fanins(root);
        for f in [f0, f1] {
            let fi = f.node();
            if self.nref[fi as usize] == 0 && self.is_gate(fi) && !leaves.contains(&fi) {
                let (a, t) = self.ref_cone(fi, leaves);
                ands += a;
                total += t;
            }
            self.nref[fi as usize] += 1;
        }
        (ands, total)
    }

    /// Rebuilds the network, dropping dead and unreachable nodes. Primary
    /// inputs and outputs keep their order.
    pub fn cleanup(&self) -> Xag {
        let mut out = Xag::new();
        // Node ids are dense indices, so a flat side table beats a hash map.
        let mut map: Vec<Signal> = vec![Signal::CONST0; self.nodes.len()];
        for &pi in &self.pis {
            map[pi as usize] = out.input();
        }
        for n in self.live_gates() {
            let (f0, f1) = self.fanins(n);
            let a = map[f0.node() as usize] ^ f0.is_complement();
            let b = map[f1.node() as usize] ^ f1.is_complement();
            let s = match self.nodes[n as usize].kind {
                NodeKind::And => out.and(a, b),
                NodeKind::Xor => out.xor(a, b),
                _ => unreachable!(),
            };
            map[n as usize] = s;
        }
        for po in &self.pos {
            let po = self.resolve(*po);
            let s = map[po.node() as usize] ^ po.is_complement();
            out.output(s);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_adder(xag: &mut Xag) -> (Signal, Signal) {
        let a = xag.input();
        let b = xag.input();
        let c = xag.input();
        let axb = xag.xor(a, b);
        let sum = xag.xor(axb, c);
        let ab = xag.and(a, b);
        let ac = xag.and(a, c);
        let bc = xag.and(b, c);
        let t = xag.xor(ab, ac);
        let cout = xag.xor(t, bc);
        (sum, cout)
    }

    #[test]
    fn constant_folding() {
        let mut x = Xag::new();
        let a = x.input();
        assert_eq!(x.and(a, Signal::CONST0), Signal::CONST0);
        assert_eq!(x.and(a, Signal::CONST1), a);
        assert_eq!(x.and(a, a), a);
        assert_eq!(x.and(a, !a), Signal::CONST0);
        assert_eq!(x.xor(a, Signal::CONST0), a);
        assert_eq!(x.xor(a, Signal::CONST1), !a);
        assert_eq!(x.xor(a, a), Signal::CONST0);
        assert_eq!(x.xor(a, !a), Signal::CONST1);
        assert_eq!(x.num_gates(), 0);
    }

    #[test]
    fn structural_hashing_dedups() {
        let mut x = Xag::new();
        let a = x.input();
        let b = x.input();
        let g1 = x.and(a, b);
        let g2 = x.and(b, a);
        assert_eq!(g1, g2);
        let x1 = x.xor(a, b);
        let x2 = x.xor(!a, !b);
        assert_eq!(x1, x2);
        let x3 = x.xor(!a, b);
        assert_eq!(x3, !x1);
    }

    #[test]
    fn full_adder_counts() {
        let mut x = Xag::new();
        let (sum, cout) = full_adder(&mut x);
        x.output(sum);
        x.output(cout);
        assert_eq!(x.num_ands(), 3);
        assert_eq!(x.num_xors(), 4);
        // Check functionality on all 8 assignments.
        for m in 0..8u64 {
            let bits = x.evaluate(m);
            let ones = m.count_ones();
            assert_eq!(bits[0], ones % 2 == 1, "sum at {m}");
            assert_eq!(bits[1], ones >= 2, "cout at {m}");
        }
    }

    #[test]
    fn maj_uses_one_and() {
        let mut x = Xag::new();
        let a = x.input();
        let b = x.input();
        let c = x.input();
        let m = x.maj(a, b, c);
        x.output(m);
        assert_eq!(x.num_ands(), 1);
        for i in 0..8u64 {
            assert_eq!(x.evaluate(i)[0], i.count_ones() >= 2);
        }
    }

    #[test]
    fn mux_works() {
        let mut x = Xag::new();
        let s = x.input();
        let t = x.input();
        let e = x.input();
        let m = x.mux(s, t, e);
        x.output(m);
        assert_eq!(x.num_ands(), 1);
        for i in 0..8u64 {
            let (sv, tv, ev) = (i & 1 == 1, i & 2 == 2, i & 4 == 4);
            assert_eq!(x.evaluate(i)[0], if sv { tv } else { ev });
        }
    }

    #[test]
    fn simulate_words() {
        let mut x = Xag::new();
        let a = x.input();
        let b = x.input();
        let g = x.and(a, !b);
        x.output(g);
        let out = x.simulate(&[0b1100, 0b1010]);
        assert_eq!(out[0] & 0xf, 0b0100);
    }

    #[test]
    fn cone_tt_of_full_adder_cout() {
        let mut x = Xag::new();
        let (sum, cout) = full_adder(&mut x);
        x.output(sum);
        x.output(cout);
        let leaves: Vec<NodeId> = (0..3).map(|i| x.input_signal(i).node()).collect();
        let t = x.cone_tt(x.output_signal(1).node(), &leaves).unwrap();
        assert_eq!(t.bits(), 0xe8); // majority, as in the paper
    }

    #[test]
    fn substitute_rewires_and_kills() {
        let mut x = Xag::new();
        let a = x.input();
        let b = x.input();
        let c = x.input();
        // cout computed the expensive way.
        let ab = x.and(a, b);
        let ac = x.and(a, c);
        let bc = x.and(b, c);
        let t = x.xor(ab, ac);
        let cout = x.xor(t, bc);
        x.output(cout);
        assert_eq!(x.num_ands(), 3);
        // The cheap majority.
        let m = x.maj(a, b, c);
        let before: Vec<u64> = x.simulate(&[0xff00ff00, 0xcccccccc, 0xaaaaaaaa]);
        x.substitute(cout.node(), m);
        let after: Vec<u64> = x.simulate(&[0xff00ff00, 0xcccccccc, 0xaaaaaaaa]);
        assert_eq!(before, after);
        assert_eq!(x.num_ands(), 1);
        assert_eq!(x.num_xors(), 3);
    }

    #[test]
    fn substitute_by_constant_cascades() {
        let mut x = Xag::new();
        let a = x.input();
        let b = x.input();
        let g = x.and(a, b);
        let h = x.xor(g, b);
        x.output(h);
        // Replace g by constant 0: h collapses to b.
        x.substitute(g.node(), Signal::CONST0);
        assert_eq!(x.num_gates(), 0);
        assert_eq!(x.output_signal(0), b);
    }

    #[test]
    fn substitute_merges_structural_duplicates() {
        let mut x = Xag::new();
        let a = x.input();
        let b = x.input();
        let c = x.input();
        let g1 = x.and(a, b);
        let g2 = x.and(a, c);
        let u = x.xor(g1, b);
        let v = x.xor(g2, b);
        let w = x.and(u, v);
        x.output(w);
        // Substituting c by b makes g2 ≡ g1, hence u ≡ v and w ≡ u.
        x.substitute(g2.node(), g1);
        assert_eq!(x.resolve(v), x.resolve(u));
        let out = x.output_signal(0);
        assert_eq!(out, x.resolve(u));
    }

    #[test]
    fn deref_ref_cone_roundtrip() {
        let mut x = Xag::new();
        let a = x.input();
        let b = x.input();
        let c = x.input();
        let ab = x.and(a, b);
        let abc = x.and(ab, c);
        let other = x.xor(ab, c); // shares ab
        x.output(abc);
        x.output(other);
        let leaves = [a.node(), b.node(), c.node()];
        let refs_before: Vec<u32> = (0..x.capacity() as u32).map(|n| x.nref(n)).collect();
        let freed = x.deref_cone(abc.node(), &leaves);
        // ab is shared with `other`, so only abc itself is freed.
        assert_eq!(freed, (1, 1));
        let back = x.ref_cone(abc.node(), &leaves);
        assert_eq!(back, freed);
        let refs_after: Vec<u32> = (0..x.capacity() as u32).map(|n| x.nref(n)).collect();
        assert_eq!(refs_before, refs_after);
    }

    #[test]
    fn and_depth_counts_only_ands() {
        let mut x = Xag::new();
        let a = x.input();
        let b = x.input();
        let c = x.input();
        // XOR chain: depth 0.
        let t1 = x.xor(a, b);
        let t2 = x.xor(t1, c);
        // Two AND levels.
        let g1 = x.and(t2, a);
        let g2 = x.and(g1, b);
        let out = x.xor(g2, c);
        x.output(out);
        assert_eq!(x.and_depth(), 2);
        let mut y = Xag::new();
        let p = y.input();
        let q = y.input();
        let r = y.xor(p, q);
        y.output(r);
        assert_eq!(y.and_depth(), 0);
    }

    #[test]
    fn cleanup_drops_dangling() {
        let mut x = Xag::new();
        let a = x.input();
        let b = x.input();
        let keep = x.and(a, b);
        let _dangling = x.xor(a, b);
        x.output(keep);
        let y = x.cleanup();
        assert_eq!(y.num_inputs(), 2);
        assert_eq!(y.num_gates(), 1);
        assert_eq!(y.num_ands(), 1);
    }

    #[test]
    fn is_in_tfi_detects_cycles() {
        let mut x = Xag::new();
        let a = x.input();
        let b = x.input();
        let g = x.and(a, b);
        let h = x.xor(g, a);
        x.output(h);
        assert!(x.is_in_tfi(g.node(), h));
        assert!(!x.is_in_tfi(h.node(), g));
    }
}
