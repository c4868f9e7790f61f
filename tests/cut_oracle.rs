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
//! that it changed nothing.

use mc_repro::circuits::{aes, des, hash, keccak};
use mc_repro::cuts::{enumerate_cuts_for, CutParams};
use mc_repro::network::Xag;

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

fn case_line(name: &str, xag: &Xag, cut_size: usize) -> String {
    let order = xag.live_gates();
    let sets = enumerate_cuts_for(xag, &order, &CutParams { cut_size });
    let mut fnv = Fnv::new();
    let mut cuts = 0usize;
    for &n in &order {
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
        "{name}\t{cut_size}\t{}\t{cuts}\t{:016x}",
        order.len(),
        fnv.0
    )
}

fn oracle_lines() -> Vec<String> {
    let circuits = [
        ("MD5", hash::md5()),
        ("AES (Key Expansion)", aes::aes128(false)),
        ("DES (No Key Expansion)", des::des(true)),
        ("Keccak-f[400]", keccak::keccak_f(16)),
    ];
    let mut lines = Vec::new();
    for (name, xag) in &circuits {
        for cut_size in CUT_SIZES {
            lines.push(case_line(name, xag, cut_size));
        }
    }
    lines
}

#[test]
fn enumeration_reproduces_every_recorded_cut_set() {
    let golden = std::fs::read_to_string("tests/golden/cut_digests.txt").expect("oracle committed");
    let expected: Vec<&str> = golden.lines().collect();
    let actual = oracle_lines();
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
