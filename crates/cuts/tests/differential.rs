//! Differential tests pinning the dense arena enumeration to the legacy
//! implementation it replaced.
//!
//! [`xag_cuts::legacy`] is a faithful reimplementation of the
//! pre-overhaul enumeration: `HashMap<NodeId, Vec<Cut>>` sets,
//! heap-allocated leaf vectors, clone-the-fanin-sets merging, the loose
//! `cut_size + 8` early filter, and a recursive per-cut cone traversal
//! with a fresh `HashMap` memo. Across 100 seeded fuzz networks the
//! dense enumeration must produce **exactly** the same cut sets — same
//! leaves, same per-node order after the priority sort — and its fused
//! truth tables must equal the cone oracle's. That is the "byte
//! identical" guarantee at the data-structure level; the end-to-end
//! netlist identity is pinned by `tests/hotpath_equiv.rs` at the
//! workspace root.

use xag_cuts::{cut_function, enumerate_cuts_for, legacy, Cut as DenseCut, CutParams};
use xag_network::fuzz::{random_xag, FuzzConfig};
use xag_network::{NodeId, Xag};
use xag_tt::Tt;

/// 100 structurally diverse seeded networks: the default shape, an
/// XOR-heavy shape, and a deeper/narrower shape, cycling by seed.
fn network(seed: u64) -> Xag {
    let cfg = match seed % 3 {
        0 => FuzzConfig::default(),
        1 => FuzzConfig {
            xor_ratio: 0.8,
            ..FuzzConfig::default()
        },
        _ => FuzzConfig {
            inputs: 10,
            gates: 80,
            depth_bias: 0.85,
            ..FuzzConfig::default()
        },
    };
    random_xag(&cfg, seed)
}

#[test]
fn dense_enumeration_matches_legacy_across_100_fuzz_networks() {
    for params in [CutParams::default(), CutParams { cut_size: 4 }] {
        for seed in 0..100u64 {
            let xag = network(seed);
            let order = xag.live_gates();
            let dense = enumerate_cuts_for(&xag, &order, &params);
            let old = legacy::enumerate(&xag, &order, &params);
            for &n in &order {
                let new_cuts: &[DenseCut] = dense.of(n);
                let old_cuts = &old[&n];
                assert_eq!(
                    new_cuts.len(),
                    old_cuts.len(),
                    "seed {seed} node {n}: cut count diverged"
                );
                for (i, (nc, oc)) in new_cuts.iter().zip(old_cuts).enumerate() {
                    assert_eq!(
                        nc.leaves(),
                        &oc.leaves[..],
                        "seed {seed} node {n} cut {i}: leaves diverged"
                    );
                }
            }
        }
    }
}

#[test]
fn fused_functions_match_the_cone_oracle_across_fuzz_networks() {
    let params = CutParams::default();
    for seed in 0..100u64 {
        let xag = network(seed);
        let order = xag.live_gates();
        let dense = enumerate_cuts_for(&xag, &order, &params);
        for &n in &order {
            let tts = dense.functions_of(n);
            for (i, cut) in dense.of(n).iter().enumerate() {
                if cut.size() == 1 && cut.leaves()[0] == n {
                    // Trivial cut: stored as the 1-var projection.
                    assert_eq!(tts[i], Tt::projection(0, 1), "seed {seed} node {n}");
                    continue;
                }
                let oracle = cut_function(&xag, n, cut)
                    .expect("enumerated cuts are valid cuts of their root");
                assert_eq!(
                    tts[i], oracle,
                    "seed {seed} node {n} cut {i}: fused function diverged from cone oracle"
                );
                let old_oracle = legacy::cone_tt(&xag, n, cut.leaves())
                    .expect("legacy cone traversal agrees on validity");
                assert_eq!(tts[i], old_oracle, "seed {seed} node {n} cut {i}");
            }
        }
    }
}

/// The tightened early filter (`popcount > cut_size`, without the old
/// `+ 8` slack) can never reject a feasible merge: a signature's
/// popcount never exceeds the true leaf count (64-aliasing only
/// collapses bits), so `popcount(sig0 | sig1) > cut_size` implies the
/// true union is larger than `cut_size` too. Exercised with node ids
/// spanning several 64-blocks so aliased signatures actually occur.
#[test]
fn size_filter_never_rejects_a_feasible_merge() {
    // Small deterministic LCG, seeds the leaf-set shapes.
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move |bound: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % bound
    };
    let mut saw_aliased = false;
    for _ in 0..10_000 {
        let make = |next: &mut dyn FnMut(u64) -> u64| {
            let len = 1 + next(6) as usize;
            let leaves: Vec<NodeId> = (0..len).map(|_| next(200) as NodeId).collect();
            DenseCut::new(&leaves)
        };
        let a = make(&mut next);
        let b = make(&mut next);
        let mut union: Vec<NodeId> = a.leaves().iter().chain(b.leaves()).copied().collect();
        union.sort_unstable();
        union.dedup();
        let popcount = (a.signature() | b.signature()).count_ones() as usize;
        assert!(
            popcount <= union.len(),
            "signature popcount {popcount} exceeded true union size {}",
            union.len()
        );
        saw_aliased |= popcount < union.len();
        for cut_size in 1..=6usize {
            if union.len() <= cut_size {
                // Feasible merge: the filter must let it through...
                assert!(popcount <= cut_size, "filter rejected a feasible merge");
                // ...and the merge itself must succeed with the union.
                let merged = a.merge(&b, cut_size).expect("feasible merge succeeds");
                assert_eq!(merged.leaves(), &union[..]);
            }
        }
    }
    assert!(
        saw_aliased,
        "test never produced an aliased signature — widen the id range"
    );
}
