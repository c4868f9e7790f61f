//! Keccak-f permutation circuits (the SHA-3 core).
//!
//! Keccak is the MPC community's favourite hash precisely because of its
//! multiplicative structure: the only nonlinear step, χ, is *quadratic* —
//! `a ← a ⊕ (¬b · c)` along rows of five — so the whole permutation costs
//! exactly `rounds · b/5 · 5 = rounds · b` AND gates... before synthesis.
//! The generator emits the textbook χ form (one AND per state bit); the
//! optimizer cannot beat one AND per χ term (degree argument) but exercises
//! the θ linear layer heavily.
//!
//! The lane width `w ∈ {1, 2, 4, 8, 16, 32, 64}` selects the permutation
//! size `b = 25·w` (Keccak-f\[25\] … Keccak-f\[1600\]); round count is the
//! standard `12 + 2·log₂ w`. Round constants come from the specification's
//! degree-8 LFSR, and rotation offsets from the (x, y)-walk, so no tables
//! are copied in.

use xag_network::{Signal, Xag};

/// Round-constant LFSR of the Keccak specification: `rc(t)` is bit 0 of
/// `x^t mod x⁸+x⁶+x⁵+x⁴+1` over GF(2).
fn rc_bit(t: usize) -> bool {
    let mut r: u16 = 1;
    for _ in 0..t {
        r <<= 1;
        if r & 0x100 != 0 {
            r ^= 0x171; // x⁸+x⁶+x⁵+x⁴+1
        }
    }
    r & 1 == 1
}

/// The 24 round constants for lane width `w`.
fn round_constants(w: usize, rounds: usize) -> Vec<u64> {
    (0..rounds)
        .map(|ir| {
            let mut rc = 0u64;
            for j in 0..=6 {
                let pos = (1usize << j) - 1;
                if pos < w && rc_bit(j + 7 * ir) {
                    rc |= 1 << pos;
                }
            }
            rc
        })
        .collect()
}

/// ρ rotation offsets via the specification's (x, y) walk.
fn rho_offsets(w: usize) -> [[usize; 5]; 5] {
    let mut off = [[0usize; 5]; 5];
    let (mut x, mut y) = (1usize, 0usize);
    for t in 0..24 {
        off[x][y] = ((t + 1) * (t + 2) / 2) % w;
        let nx = y;
        let ny = (2 * x + 3 * y) % 5;
        x = nx;
        y = ny;
    }
    off
}

type Lane = Vec<Signal>;

fn rotl_lane(l: &Lane, r: usize) -> Lane {
    let w = l.len();
    (0..w).map(|i| l[(i + w - (r % w)) % w]).collect()
}

/// Builds the Keccak-f[25·w] permutation circuit: `25·w` inputs and
/// outputs, lane `(x, y)` occupying bits `w·(x + 5y) ..`.
///
/// # Panics
///
/// Panics if `w` is not a power of two in `1..=64`.
pub fn keccak_f(w: usize) -> Xag {
    assert!(
        w.is_power_of_two() && w <= 64,
        "lane width must be 2^l ≤ 64"
    );
    let l = w.trailing_zeros() as usize;
    let rounds = 12 + 2 * l;
    let rcs = round_constants(w, rounds);
    let rho = rho_offsets(w);

    let mut xag = Xag::new();
    let mut lanes: Vec<Vec<Lane>> = (0..5)
        .map(|_| (0..5).map(|_| Vec::new()).collect())
        .collect();
    // Inputs in lane order (x + 5y).
    for y in 0..5 {
        for x in 0..5 {
            lanes[x][y] = (0..w).map(|_| xag.input()).collect();
        }
    }

    for rc in &rcs {
        // θ: column parities.
        let c: Vec<Lane> = (0..5)
            .map(|x| {
                (0..w)
                    .map(|z| {
                        let mut acc = Signal::CONST0;
                        for y in 0..5 {
                            acc = xag.xor(acc, lanes[x][y][z]);
                        }
                        acc
                    })
                    .collect()
            })
            .collect();
        let d: Vec<Lane> = (0..5)
            .map(|x| {
                let rot = rotl_lane(&c[(x + 1) % 5], 1);
                (0..w).map(|z| xag.xor(c[(x + 4) % 5][z], rot[z])).collect()
            })
            .collect();
        for x in 0..5 {
            for y in 0..5 {
                for z in 0..w {
                    lanes[x][y][z] = xag.xor(lanes[x][y][z], d[x][z]);
                }
            }
        }
        // ρ and π.
        let mut b: Vec<Vec<Lane>> = vec![vec![Vec::new(); 5]; 5];
        for x in 0..5 {
            for y in 0..5 {
                b[y][(2 * x + 3 * y) % 5] = rotl_lane(&lanes[x][y], rho[x][y]);
            }
        }
        // χ: the quadratic layer, one AND per state bit.
        for x in 0..5 {
            for y in 0..5 {
                lanes[x][y] = (0..w)
                    .map(|z| {
                        let not_b1 = !b[(x + 1) % 5][y][z];
                        let t = xag.and(not_b1, b[(x + 2) % 5][y][z]);
                        xag.xor(b[x][y][z], t)
                    })
                    .collect();
            }
        }
        // ι.
        for z in 0..w {
            if (rc >> z) & 1 == 1 {
                lanes[0][0][z] = !lanes[0][0][z];
            }
        }
    }
    for y in 0..5 {
        for x in 0..5 {
            for z in 0..w {
                xag.output(lanes[x][y][z]);
            }
        }
    }
    xag
}

/// Value-domain model of the same permutation, for validation.
pub fn keccak_f_software(w: usize, state: &mut [u64; 25]) {
    let l = w.trailing_zeros() as usize;
    let rounds = 12 + 2 * l;
    let rcs = round_constants(w, rounds);
    let rho = rho_offsets(w);
    let mask = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
    let rotl = |v: u64, r: usize| -> u64 {
        if r.is_multiple_of(w) {
            v
        } else {
            ((v << (r % w)) | (v >> (w - r % w))) & mask
        }
    };
    let lane = |s: &[u64; 25], x: usize, y: usize| s[x + 5 * y];
    for rc in &rcs {
        let mut c = [0u64; 5];
        for (x, cx) in c.iter_mut().enumerate() {
            *cx = (0..5).fold(0, |a, y| a ^ lane(state, x, y));
        }
        let mut d = [0u64; 5];
        for (x, dx) in d.iter_mut().enumerate() {
            *dx = c[(x + 4) % 5] ^ rotl(c[(x + 1) % 5], 1);
        }
        for x in 0..5 {
            for y in 0..5 {
                state[x + 5 * y] ^= d[x];
            }
        }
        let mut b = [0u64; 25];
        for x in 0..5 {
            for y in 0..5 {
                b[y + 5 * ((2 * x + 3 * y) % 5)] = rotl(lane(state, x, y), rho[x][y]);
            }
        }
        for x in 0..5 {
            for y in 0..5 {
                state[x + 5 * y] =
                    b[x + 5 * y] ^ ((!b[(x + 1) % 5 + 5 * y] & mask) & b[(x + 2) % 5 + 5 * y]);
            }
        }
        state[0] ^= rc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn circuit_matches_software_model() {
        for w in [1usize, 2, 4] {
            let xag = keccak_f(w);
            assert_eq!(xag.num_inputs(), 25 * w);
            assert_eq!(xag.num_outputs(), 25 * w);
            // χ: one AND per state bit per round.
            let rounds = 12 + 2 * w.trailing_zeros() as usize;
            assert_eq!(xag.num_ands(), 25 * w * rounds);

            let mut state = [0u64; 25];
            for (i, s) in state.iter_mut().enumerate() {
                *s = ((i as u64).wrapping_mul(0x9e37_79b9) >> 3) & ((1 << w) - 1);
            }
            let mut words = vec![0u64; 25 * w];
            for lane_idx in 0..25 {
                let (x, y) = (lane_idx % 5, lane_idx / 5);
                for z in 0..w {
                    words[w * (x + 5 * y) + z] = if (state[lane_idx] >> z) & 1 == 1 {
                        u64::MAX
                    } else {
                        0
                    };
                }
            }
            let out = xag.simulate(&words);
            keccak_f_software(w, &mut state);
            for lane_idx in 0..25 {
                let (x, y) = (lane_idx % 5, lane_idx / 5);
                let mut got = 0u64;
                for z in 0..w {
                    got |= (out[w * (x + 5 * y) + z] & 1) << z;
                }
                assert_eq!(got, state[lane_idx], "w={w} lane {lane_idx}");
            }
        }
    }

    #[test]
    fn full_keccak1600_has_the_expected_and_count() {
        let xag = keccak_f(64);
        assert_eq!(xag.num_inputs(), 1600);
        assert_eq!(xag.num_ands(), 1600 * 24);
    }

    #[test]
    fn rho_offsets_cover_24_lanes() {
        let off = rho_offsets(64);
        // (0,0) keeps offset 0; all other 24 lanes get assigned.
        assert_eq!(off[0][0], 0);
        // Spot-check two published offsets for w = 64.
        assert_eq!(off[1][0], 1);
        assert_eq!(off[0][2], 3);
    }

    #[test]
    fn smallest_instance_has_textbook_and_count() {
        // Keccak-f[25]: 12 rounds × 25 χ terms, one AND each.
        let xag = keccak_f(1);
        assert_eq!(xag.num_ands(), 300);
        assert!(xag.and_depth() >= 12, "one AND level per round");
    }
}
