//! Recorded affine classifications of wide functions, digest for digest.
//!
//! `tests/golden/classify_digests.txt` holds one line per case:
//! `case  functions  fnv`, tab-separated. The four cipher cases take every
//! distinct five- or six-variable function among the support-reduced
//! cut-size-6 cut functions of the freshly built MD5, AES (Key
//! Expansion), DES (No Key Expansion) and Keccak-f[400] networks, in
//! topological order and stored cut order, each function once across the
//! four; the two random cases take seeded random five- and six-variable
//! functions. One [`AffineClassifier`] classifies them all in that fixed
//! order, and `fnv` is an FNV-1a digest over every function's input,
//! representative, `exact` flag and operation sequence. The file is data,
//! not a snapshot this suite refreshes: a different representative or a
//! single different operation fails here, so a faster classifier has to
//! prove that it changed nothing.

use mc_repro::affine::{AffineClassifier, Classification};
use mc_repro::circuits::{aes, des, hash, keccak};
use mc_repro::cuts::{enumerate_cuts_for, CutParams};
use mc_repro::network::Xag;
use mc_repro::tt::hash::FxHashSet;
use mc_repro::tt::{AffineOp, Tt};
use mc_rng::Rng;

/// Random functions per width in each random case.
const RANDOM_FUNCTIONS: usize = 100;

/// Seed of the random cases.
const RANDOM_SEED: u64 = 0xC1A5_51F7;

/// Streaming FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn tt(&mut self, tt: Tt) {
        self.word(tt.vars() as u64);
        self.word(tt.bits());
    }

    fn classification(&mut self, f: Tt, c: &Classification) {
        self.tt(f);
        self.tt(c.representative);
        self.word(c.exact as u64);
        self.word(c.ops.len() as u64);
        for &op in &c.ops {
            let words: &[usize] = match op {
                AffineOp::Swap(i, j) => &[0, i, j],
                AffineOp::FlipInput(i) => &[1, i],
                AffineOp::FlipOutput => &[2],
                AffineOp::Translate { dst, src } => &[3, dst, src],
                AffineOp::XorOutput(i) => &[4, i],
            };
            for &w in words {
                self.word(w as u64);
            }
        }
    }
}

/// The distinct support-reduced five- and six-variable cut functions of
/// `xag` at cut size 6 that `seen` does not hold yet, in topological and
/// stored cut order.
fn wide_cut_functions(xag: &Xag, seen: &mut FxHashSet<Tt>) -> Vec<Tt> {
    let order = xag.live_gates();
    let sets = enumerate_cuts_for(xag, &order, &CutParams { cut_size: 6 });
    let mut functions = Vec::new();
    for &n in &order {
        for &tt in sets.functions_of(n) {
            let (g, _) = tt.shrink_to_support();
            if g.vars() >= 5 && seen.insert(g) {
                functions.push(g);
            }
        }
    }
    functions
}

fn case_line(name: &str, cls: &mut AffineClassifier, functions: &[Tt]) -> String {
    let mut fnv = Fnv::new();
    for &f in functions {
        let c = cls.classify(f);
        fnv.classification(f, &c);
    }
    format!("{name}\t{}\t{:016x}", functions.len(), fnv.0)
}

fn oracle_lines() -> Vec<String> {
    let circuits = [
        ("MD5", hash::md5()),
        ("AES (Key Expansion)", aes::aes128(false)),
        ("DES (No Key Expansion)", des::des(true)),
        ("Keccak-f[400]", keccak::keccak_f(16)),
    ];
    let mut cls = AffineClassifier::new();
    let mut seen = FxHashSet::default();
    let mut lines = Vec::new();
    for (name, xag) in &circuits {
        let functions = wide_cut_functions(xag, &mut seen);
        lines.push(case_line(name, &mut cls, &functions));
    }
    let mut rng = Rng::seed_from_u64(RANDOM_SEED);
    for vars in [5, 6] {
        let functions: Vec<Tt> = (0..RANDOM_FUNCTIONS)
            .map(|_| Tt::from_bits(rng.next_u64(), vars))
            .collect();
        lines.push(case_line(&format!("random-{vars}"), &mut cls, &functions));
    }
    lines
}

#[test]
fn classifier_reproduces_every_recorded_answer() {
    let golden =
        std::fs::read_to_string("tests/golden/classify_digests.txt").expect("oracle committed");
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
        "{} of {} classification digests changed:\n{}",
        diverged.len(),
        expected.len(),
        diverged.join("\n")
    );
}
