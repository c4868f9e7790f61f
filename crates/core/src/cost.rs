//! Protocol-level cost models from the paper's §1 motivation.
//!
//! The paper motivates AND minimization through three application domains;
//! this module turns a network's gate counts into those domain costs so
//! users can see what a rewrite is worth in protocol terms:
//!
//! * **MPC over garbled circuits with free XOR** — the garbler transmits
//!   ciphertexts per AND gate only (two with the half-gates optimization);
//! * **FHE** — XOR is noise-free, AND consumes noise: the *multiplicative
//!   depth* bounds the required ciphertext modulus/levels;
//! * **Post-quantum signatures from MPC-in-the-head (Picnic-style)** — the
//!   paper cites that the signature size is proportional to the AND count
//!   of the underlying block cipher.

use xag_network::Xag;

/// Cost summary of a network under the paper's three application models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtocolCosts {
    /// Number of AND gates (the multiplicative complexity of the circuit).
    pub ands: usize,
    /// Number of XOR gates (free in all three models).
    pub xors: usize,
    /// Multiplicative depth (FHE levels).
    pub and_depth: usize,
    /// Bytes the garbler transmits under half-gates garbling
    /// (2 ciphertexts of 16 bytes per AND; XOR free).
    pub garbling_bytes: usize,
    /// Per-AND contribution to an MPC-in-the-head signature, in bits,
    /// using the ZKB++/Picnic accounting of roughly three bits of view per
    /// AND per parallel repetition, at 219 repetitions for 128-bit
    /// security.
    pub signature_bits: usize,
}

/// Half-gates garbling: ciphertexts per AND gate.
const HALF_GATES_CIPHERTEXTS: usize = 2;
/// AES-128-based ciphertext size in bytes.
const CIPHERTEXT_BYTES: usize = 16;
/// ZKB++ parallel repetitions for 128-bit security (Picnic-L1).
const MPC_ITH_REPETITIONS: usize = 219;
/// Bits of view revealed per AND gate per repetition in ZKB++.
const BITS_PER_AND_PER_REP: usize = 3;

/// Evaluates the three cost models on a network.
///
/// # Examples
///
/// ```
/// use xag_mc::{protocol_costs, run_job, JobSpec, OptContext};
/// use xag_network::Xag;
///
/// let mut xag = Xag::new();
/// let (a, b, c) = (xag.input(), xag.input(), xag.input());
/// let ab = xag.and(a, b);
/// let ac = xag.and(a, c);
/// let t = xag.xor(ab, ac);
/// xag.output(t);
/// let before = protocol_costs(&xag);
/// run_job(&mut xag, &mut OptContext::new(), &JobSpec::default());
/// let after = protocol_costs(&xag);
/// assert!(after.garbling_bytes < before.garbling_bytes);
/// ```
pub fn protocol_costs(xag: &Xag) -> ProtocolCosts {
    let ands = xag.num_ands();
    ProtocolCosts {
        ands,
        xors: xag.num_xors(),
        and_depth: xag.and_depth(),
        garbling_bytes: ands * HALF_GATES_CIPHERTEXTS * CIPHERTEXT_BYTES,
        signature_bits: ands * BITS_PER_AND_PER_REP * MPC_ITH_REPETITIONS,
    }
}

impl core::fmt::Display for ProtocolCosts {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} AND / {} XOR | depth {} | garbling {} B | MPC-in-the-head ≈ {} KiB/signature",
            self.ands,
            self.xors,
            self.and_depth,
            self.garbling_bytes,
            self.signature_bits / 8 / 1024
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costs_scale_with_ands_only() {
        let mut x = Xag::new();
        let a = x.input();
        let b = x.input();
        let g = x.and(a, b);
        let h = x.xor(g, a);
        x.output(h);
        let c = protocol_costs(&x);
        assert_eq!(c.ands, 1);
        assert_eq!(c.xors, 1);
        assert_eq!(c.and_depth, 1);
        assert_eq!(c.garbling_bytes, 32);
        assert_eq!(c.signature_bits, 3 * 219);

        // Adding XORs must not change AND-driven costs.
        let mut y = Xag::new();
        let a = y.input();
        let b = y.input();
        let g = y.and(a, b);
        let t1 = y.xor(g, a);
        let t2 = y.xor(t1, b);
        y.output(t2);
        let c2 = protocol_costs(&y);
        assert_eq!(c2.garbling_bytes, c.garbling_bytes);
        assert_eq!(c2.signature_bits, c.signature_bits);
    }

    #[test]
    fn display_is_informative() {
        let mut x = Xag::new();
        let a = x.input();
        let b = x.input();
        let g = x.and(a, b);
        x.output(g);
        let text = format!("{}", protocol_costs(&x));
        assert!(text.contains("1 AND"));
        assert!(text.contains("depth 1"));
    }
}
