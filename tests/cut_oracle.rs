//! Recorded cut sets of four Table-2 ciphers, digest for digest.
//!
//! `tests/golden/cut_digests.txt` holds one line per (circuit, cut size):
//! `circuit  cut_size  gates  cuts  fnv`, tab-separated, where `fnv` is an
//! FNV-1a digest over every live gate of the freshly built network, in
//! topological order: the gate's id, its cut count, and for each cut (in
//! the order [`enumerate_cuts_for`] stores them) its leaves and the bits
//! of its fused truth table. The file is data, not a snapshot this suite
//! refreshes: a change to which cuts a node keeps, to their order, or to
//! a single table bit fails here, so a faster enumeration has to prove
//! that it changed nothing. Cut-4 sets grown in place to cut 6
//! ([`CutSets::grow`]) must give the recorded cut-6 lines too.

use mc_repro::circuits::{aes, des, hash, keccak};
use mc_repro::cuts::{enumerate_cuts_for, CutParams, CutSets};
use mc_repro::network::{NodeId, Xag};

/// The cut sizes of the paper's flow: 4 for the first passes, 6 after.
const CUT_SIZES: [usize; 2] = [4, 6];

/// Streaming FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
}

fn case_line(name: &str, order: &[NodeId], sets: &CutSets) -> String {
    let mut fnv = Fnv::new();
    let mut cuts = 0usize;
    for &n in order {
        let (node_cuts, tts) = (sets.of(n), sets.functions_of(n));
        fnv.word(n as u64);
        fnv.word(node_cuts.len() as u64);
        for (cut, tt) in node_cuts.iter().zip(tts) {
            fnv.word(cut.size() as u64);
            for &leaf in cut.leaves() {
                fnv.word(leaf as u64);
            }
            fnv.word(tt.vars() as u64);
            fnv.word(tt.bits());
        }
        cuts += node_cuts.len();
    }
    format!(
        "{name}\t{}\t{}\t{cuts}\t{:016x}",
        sets.cut_size(),
        order.len(),
        fnv.0
    )
}

fn circuits() -> [(&'static str, Xag); 4] {
    [
        ("MD5", hash::md5()),
        ("AES (Key Expansion)", aes::aes128(false)),
        ("DES (No Key Expansion)", des::des(true)),
        ("Keccak-f[400]", keccak::keccak_f(16)),
    ]
}

fn golden_lines() -> Vec<String> {
    let golden = std::fs::read_to_string("tests/golden/cut_digests.txt").expect("oracle committed");
    golden.lines().map(str::to_string).collect()
}

#[test]
fn enumeration_reproduces_every_recorded_cut_set() {
    let expected = golden_lines();
    let mut actual = Vec::new();
    for (name, xag) in &circuits() {
        let order = xag.live_gates();
        for cut_size in CUT_SIZES {
            let sets = enumerate_cuts_for(xag, &order, &CutParams { cut_size });
            actual.push(case_line(name, &order, &sets));
        }
    }
    assert_eq!(
        expected.len(),
        actual.len(),
        "the oracle file lost or gained cases"
    );
    let diverged: Vec<String> = expected
        .iter()
        .zip(&actual)
        .filter(|(want, got)| **want != got.as_str())
        .map(|(want, got)| format!("  want {want}\n  got  {got}"))
        .collect();
    assert!(
        diverged.is_empty(),
        "{} of {} cut-set digests changed:\n{}",
        diverged.len(),
        expected.len(),
        diverged.join("\n")
    );
}

#[test]
fn growing_cut_4_sets_in_place_reproduces_the_recorded_cut_6_sets() {
    let expected = golden_lines();
    for (name, xag) in &circuits() {
        let order = xag.live_gates();
        let mut sets = enumerate_cuts_for(xag, &order, &CutParams { cut_size: 4 });
        sets.grow(xag, &order, &CutParams { cut_size: 6 });
        let got = case_line(name, &order, &sets);
        let want = expected
            .iter()
            .find(|line| line.starts_with(&format!("{name}\t6\t")))
            .expect("the oracle records every circuit at cut 6");
        assert_eq!(
            *want, got,
            "{name}: grown cut-6 sets differ from the record"
        );
    }
}
