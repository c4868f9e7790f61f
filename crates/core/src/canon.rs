//! Canonical structural serialization of a network — the shared cache
//! key of the service tiers.
//!
//! Two submissions should land on the same cache line (and, in a
//! cluster, on the same backend) whenever they are the *same circuit*,
//! even if their files list gates in different orders or their builders
//! allocated nodes differently. [`canonical_form`] produces that
//! equivalence-class key in two steps:
//!
//! 1. **Topological relabel** — the network is rebuilt with
//!    [`Xag::cleanup`], which re-runs every gate through the structural
//!    hashing (strash) constructors, normalizing fanin order, complement
//!    placement, and constant folding exactly like the optimizer's own
//!    view of the network.
//! 2. **Canonical numbering** — gates are then numbered by a greedy
//!    topological order that always picks the ready gate with the
//!    smallest `(kind, fanin-label, fanin-label)` key. Because strash
//!    guarantees no two gates share `(kind, fanins)`, this order is a
//!    *total* order determined by the graph alone — original node ids,
//!    construction order, and file gate order cannot leak into it.
//!
//! The serialized form (I/O counts, gates in canonical order, outputs) is
//! used directly as the map key, so equality is exact — the 64-bit
//! [`fingerprint`] is only a compact handle (the cluster router hashes it
//! onto its backend ring; the map itself compares full keys). Structural
//! identity is deliberately the *whole* key modulo nothing else: two
//! functionally equivalent but structurally different circuits are
//! different jobs (deciding functional equivalence is the expensive
//! problem the optimizer itself works on).
//!
//! This module lives in `xag-mc` rather than in the serve tier so that
//! the single-node semantic cache (`mc-serve`) and the cluster router
//! (`mc-cluster`) agree on the key **bit for bit**: the router computes
//! [`job_key`] once to pick a backend, and the backend computes the same
//! bytes to index its local cache — isomorphic resubmissions therefore
//! land on a warm backend.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use xag_network::{NodeId, NodeKind, Xag};

/// Serializes a network into its canonical structural form. Isomorphic
/// networks (same graph modulo node numbering and gate order, same PI/PO
/// order) produce identical bytes.
pub fn canonical_form(xag: &Xag) -> Vec<u8> {
    let x = xag.cleanup();
    let gates = x.live_gates();

    // Dense side-tables — `cleanup` rebuilds the network with compact
    // node ids, so `x.capacity()` is tight and Vec indexing beats any
    // hash map here.
    //
    // label[node] — inputs get 1..=n_in (const node is 0), gates are
    // numbered on assignment below.
    let mut label: Vec<u32> = vec![0; x.capacity()];
    for i in 0..x.num_inputs() {
        label[x.input_signal(i).node() as usize] = i as u32 + 1;
    }

    // Dependency counts and fanout adjacency among the live gates.
    let mut pending: Vec<u32> = vec![0; x.capacity()];
    let mut fanout: Vec<Vec<NodeId>> = vec![Vec::new(); x.capacity()];
    for &g in &gates {
        let (f0, f1) = x.fanins(g);
        let mut deps = 0;
        for f in [f0, f1] {
            if x.is_gate(f.node()) {
                deps += 1;
                fanout[f.node() as usize].push(g);
            }
        }
        pending[g as usize] = deps;
    }

    // Encoded operand: label in the high bits, complement in the low bit
    // — so ordering by the encoding orders by (label, complement).
    let op_of = |label: &[u32], s: xag_network::Signal| -> u64 {
        let l = label[s.node() as usize] as u64;
        (l << 1) | s.is_complement() as u64
    };
    let entry_of = |label: &[u32], x: &Xag, g: NodeId| -> (u8, u64, u64, NodeId) {
        let (f0, f1) = x.fanins(g);
        let (mut a, mut b) = (op_of(label, f0), op_of(label, f1));
        if a > b {
            core::mem::swap(&mut a, &mut b);
        }
        let kind = match x.kind(g) {
            NodeKind::And => 0u8,
            NodeKind::Xor => 1u8,
            _ => unreachable!("live_gates yields gates only"),
        };
        (kind, a, b, g)
    };

    // Greedy canonical topological numbering: repeatedly take the ready
    // gate with the smallest (kind, op, op) key. Strash uniqueness makes
    // the key prefix unique, so the trailing NodeId never decides.
    let mut ready: BinaryHeap<Reverse<(u8, u64, u64, NodeId)>> = gates
        .iter()
        .filter(|&&g| pending[g as usize] == 0)
        .map(|&g| Reverse(entry_of(&label, &x, g)))
        .collect();
    let mut ordered: Vec<(u8, u64, u64)> = Vec::with_capacity(gates.len());
    let mut next_label = x.num_inputs() as u32 + 1;
    while let Some(Reverse((kind, a, b, g))) = ready.pop() {
        label[g as usize] = next_label;
        next_label += 1;
        ordered.push((kind, a, b));
        for &c in &fanout[g as usize] {
            let p = &mut pending[c as usize];
            *p -= 1;
            if *p == 0 {
                ready.push(Reverse(entry_of(&label, &x, c)));
            }
        }
    }
    debug_assert_eq!(ordered.len(), gates.len(), "live gates form a DAG");

    let mut bytes = Vec::with_capacity(16 + ordered.len() * 9 + x.num_outputs() * 4);
    bytes.extend_from_slice(b"XAG1");
    bytes.extend_from_slice(&(x.num_inputs() as u32).to_le_bytes());
    bytes.extend_from_slice(&(x.num_outputs() as u32).to_le_bytes());
    bytes.extend_from_slice(&(ordered.len() as u32).to_le_bytes());
    for (kind, a, b) in ordered {
        bytes.push(kind);
        bytes.extend_from_slice(&(a as u32).to_le_bytes());
        bytes.extend_from_slice(&(b as u32).to_le_bytes());
    }
    for i in 0..x.num_outputs() {
        let s = x.output_signal(i);
        bytes.extend_from_slice(&(op_of(&label, s) as u32).to_le_bytes());
    }
    bytes
}

/// The full cache key of a job: the canonical circuit plus everything
/// else that determines the optimized result (flow and round cap, see
/// [`crate::run_job`]).
///
/// The flow contributes its **normalized** bytes
/// ([`crate::FlowSpec::normalized`]), not the text the client sent: the
/// alias `paper`, its written-out expansion, and any whitespace or
/// grouping variant of it all fold to the same key (one warm entry
/// cluster-wide), while specs that differ semantically — `mc(cut=4)` vs
/// `mc(cut=6)` — can never collide.
pub fn job_key(xag: &Xag, flow: &crate::FlowSpec, max_rounds: usize) -> Vec<u8> {
    let mut key = canonical_form(xag);
    key.push(0xff);
    key.extend_from_slice(flow.normalized().as_bytes());
    key.extend_from_slice(&(max_rounds as u64).to_le_bytes());
    key
}

/// FNV-1a over a byte string — a compact handle for a key. The semantic
/// cache compares full keys, so collisions cannot corrupt results; the
/// cluster router uses the fingerprint of [`job_key`] as the point it
/// hashes onto the backend ring.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use xag_network::fuzz::{random_xag, FuzzConfig};
    use xag_network::{read_bristol, write_bristol, Signal};

    /// The same function graph, built twice with permuted gate-creation
    /// order and swapped operand order.
    fn build_pair() -> (Xag, Xag) {
        // Graph: o0 = (a & b) ^ (c & !a); o1 = maj(a, b, c).
        let mut p = Xag::new();
        let (a, b, c) = (p.input(), p.input(), p.input());
        let ab = p.and(a, b);
        let ca = p.and(c, !a);
        let x = p.xor(ab, ca);
        let m = p.maj(a, b, c);
        p.output(x);
        p.output(m);

        // Same graph, different creation order and swapped operands.
        let mut q = Xag::new();
        let (a, b, c) = (q.input(), q.input(), q.input());
        let ca = q.and(!a, c);
        let m = q.maj(a, b, c);
        let ab = q.and(b, a);
        let x = q.xor(ca, ab);
        q.output(x);
        q.output(m);
        (p, q)
    }

    #[test]
    fn permuted_isomorphic_networks_share_a_canonical_form() {
        let (p, q) = build_pair();
        assert_eq!(canonical_form(&p), canonical_form(&q));
        assert_eq!(
            fingerprint(&canonical_form(&p)),
            fingerprint(&canonical_form(&q))
        );
    }

    #[test]
    fn bristol_round_trip_preserves_the_canonical_form() {
        // Export → reimport renumbers every node; the canonical form must
        // not notice.
        let cfg = FuzzConfig::default();
        for seed in 0..10u64 {
            let x = random_xag(&cfg, seed);
            let mut buf = Vec::new();
            write_bristol(&x, &mut buf).unwrap();
            let y = read_bristol(buf.as_slice()).unwrap();
            assert_eq!(canonical_form(&x), canonical_form(&y), "seed {seed}");
        }
    }

    #[test]
    fn different_structure_different_form() {
        let mut p = Xag::new();
        let (a, b) = (p.input(), p.input());
        let g = p.and(a, b);
        p.output(g);
        let mut q = Xag::new();
        let (a, b) = (q.input(), q.input());
        let g = q.xor(a, b);
        q.output(g);
        assert_ne!(canonical_form(&p), canonical_form(&q));
        // Complemented output is a different circuit, too.
        let mut r = Xag::new();
        let (a, b) = (r.input(), r.input());
        let g = r.and(a, b);
        r.output(!g);
        assert_ne!(canonical_form(&p), canonical_form(&r));
        // Constant outputs work.
        let mut s = Xag::new();
        let _ = s.input();
        s.output(Signal::CONST1);
        let mut t = Xag::new();
        let _ = t.input();
        t.output(Signal::CONST0);
        assert_ne!(canonical_form(&s), canonical_form(&t));
    }

    #[test]
    fn job_key_separates_flows_and_round_caps() {
        let spec = |text: &str| crate::FlowSpec::parse(text).expect("test specs parse");
        let (p, _) = build_pair();
        let a = job_key(&p, &spec("paper"), 100);
        assert_eq!(a, job_key(&p, &spec("paper"), 100));
        assert_ne!(a, job_key(&p, &spec("compress"), 100));
        assert_ne!(a, job_key(&p, &spec("paper"), 50));
    }

    /// Alias, expansion, whitespace variants, and extra group braces of
    /// one flow share a single cache key; semantically distinct knobs
    /// never do.
    #[test]
    fn job_key_folds_the_normalized_spec() {
        let spec = |text: &str| crate::FlowSpec::parse(text).expect("test specs parse");
        let (p, _) = build_pair();
        let paper = job_key(&p, &spec("paper"), 100);
        for equivalent in [
            "{mc(cut=4);mc(cut=6)}*",
            " { mc( cut = 4 ) ; mc( cut = 6 ) } * ",
            "{{mc(cut=4);mc(cut=6)}}*",
        ] {
            assert_eq!(paper, job_key(&p, &spec(equivalent), 100), "{equivalent}");
        }
        assert_ne!(
            job_key(&p, &spec("mc(cut=4)"), 100),
            job_key(&p, &spec("mc(cut=6)"), 100),
            "distinct cut knobs must miss each other"
        );
        assert_ne!(
            job_key(&p, &spec("mc(cut=6)*2"), 100),
            job_key(&p, &spec("mc(cut=6)*3"), 100)
        );
    }
}
