use crate::VarCountError;

/// Maximum number of variables representable by [`Tt`].
pub const MAX_VARS: usize = 6;

/// Truth tables of the six variable projections `x0..x5`.
///
/// `PROJECTIONS[i]` has bit `m` set iff `(m >> i) & 1 == 1`.
const PROJECTIONS: [u64; 6] = [
    0xaaaa_aaaa_aaaa_aaaa,
    0xcccc_cccc_cccc_cccc,
    0xf0f0_f0f0_f0f0_f0f0,
    0xff00_ff00_ff00_ff00,
    0xffff_0000_ffff_0000,
    0xffff_ffff_0000_0000,
];

/// A complete truth table of a Boolean function with up to six variables.
///
/// The entire table lives in one `u64`: bit `m` stores `f(m)` where variable
/// `i` of minterm `m` is `(m >> i) & 1`. This is the representation the DAC'19
/// paper uses for cut functions ("truth tables for 6-input functions can be
/// efficiently stored as a single 64-bit unsigned integer").
///
/// Bits above `2^vars` are always kept zero, so `==` is semantic equality for
/// tables with the same variable count.
///
/// # Examples
///
/// ```
/// use xag_tt::Tt;
///
/// let a = Tt::projection(0, 2);
/// let b = Tt::projection(1, 2);
/// assert_eq!((a & b).bits(), 0x8); // AND of two variables
/// assert_eq!((a ^ b).bits(), 0x6); // XOR of two variables
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tt {
    bits: u64,
    vars: u8,
}

impl core::fmt::Debug for Tt {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Tt({:#018x}, {} vars)", self.bits, self.vars)
    }
}

impl core::fmt::Display for Tt {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let digits = (1usize << self.vars).div_ceil(4);
        write!(f, "{:0width$x}", self.bits, width = digits.max(1))
    }
}

impl core::fmt::LowerHex for Tt {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        core::fmt::LowerHex::fmt(&self.bits, f)
    }
}

impl core::fmt::Binary for Tt {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        core::fmt::Binary::fmt(&self.bits, f)
    }
}

impl Tt {
    /// Full bit mask for a table over `vars` variables.
    #[inline]
    pub(crate) fn mask(vars: usize) -> u64 {
        if vars >= MAX_VARS {
            u64::MAX
        } else {
            (1u64 << (1usize << vars)) - 1
        }
    }

    /// Creates a truth table from raw bits.
    ///
    /// Bits above position `2^vars` are silently cleared.
    ///
    /// # Panics
    ///
    /// Panics if `vars > 6`. Use [`Tt::try_from_bits`] for a fallible
    /// variant.
    #[inline]
    pub fn from_bits(bits: u64, vars: usize) -> Self {
        Self::try_from_bits(bits, vars).expect("too many variables")
    }

    /// Fallible variant of [`Tt::from_bits`].
    ///
    /// # Errors
    ///
    /// Returns [`VarCountError`] if `vars > 6`.
    #[inline]
    pub fn try_from_bits(bits: u64, vars: usize) -> Result<Self, VarCountError> {
        if vars > MAX_VARS {
            return Err(VarCountError { vars });
        }
        Ok(Self {
            bits: bits & Self::mask(vars),
            vars: vars as u8,
        })
    }

    /// The constant-zero function over `vars` variables.
    #[inline]
    pub fn zero(vars: usize) -> Self {
        Self::from_bits(0, vars)
    }

    /// The constant-one function over `vars` variables.
    #[inline]
    pub fn one(vars: usize) -> Self {
        Self::from_bits(u64::MAX, vars)
    }

    /// The constant function with the given value.
    #[inline]
    pub fn constant(value: bool, vars: usize) -> Self {
        if value {
            Self::one(vars)
        } else {
            Self::zero(vars)
        }
    }

    /// The projection `f(x) = x_i` over `vars` variables.
    ///
    /// # Panics
    ///
    /// Panics if `i >= vars` or `vars > 6`.
    #[inline]
    pub fn projection(i: usize, vars: usize) -> Self {
        assert!(
            i < vars,
            "projection index {i} out of range for {vars} vars"
        );
        Self::from_bits(PROJECTIONS[i], vars)
    }

    /// Builds a table by evaluating `f` on every minterm.
    ///
    /// ```
    /// use xag_tt::Tt;
    /// let maj = Tt::from_fn(3, |m| (m.count_ones() >= 2) as u64 == 1);
    /// assert_eq!(maj.bits(), 0xe8);
    /// ```
    pub fn from_fn(vars: usize, mut f: impl FnMut(u64) -> bool) -> Self {
        let mut bits = 0u64;
        for m in 0..(1u64 << vars) {
            if f(m) {
                bits |= 1 << m;
            }
        }
        Self::from_bits(bits, vars)
    }

    /// Raw bits of the table (bits above `2^vars` are zero).
    #[inline]
    pub fn bits(self) -> u64 {
        self.bits
    }

    /// Number of variables of the function.
    #[inline]
    pub fn vars(self) -> usize {
        self.vars as usize
    }

    /// Number of minterms (table length).
    #[inline]
    pub fn len(self) -> usize {
        1usize << self.vars
    }

    /// Always false: a truth table has at least one entry.
    #[inline]
    pub fn is_empty(self) -> bool {
        false
    }

    /// Evaluates the function at a minterm.
    #[inline]
    pub fn eval(self, minterm: u64) -> bool {
        debug_assert!(minterm < (1 << self.vars));
        (self.bits >> minterm) & 1 == 1
    }

    /// Number of minterms on which the function is one.
    #[inline]
    pub fn count_ones(self) -> u32 {
        self.bits.count_ones()
    }

    /// True iff the function is constant zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.bits == 0
    }

    /// True iff the function is constant one.
    #[inline]
    pub fn is_one(self) -> bool {
        self.bits == Self::mask(self.vars())
    }

    /// True iff the function is constant.
    #[inline]
    pub fn is_constant(self) -> bool {
        self.is_zero() || self.is_one()
    }

    /// Reinterprets the function over a larger variable count (new variables
    /// are don't-cares; the table is replicated).
    ///
    /// # Panics
    ///
    /// Panics if `vars` is smaller than the current count or exceeds 6.
    pub fn extend_to(self, vars: usize) -> Self {
        assert!(vars >= self.vars() && vars <= MAX_VARS);
        let mut bits = self.bits;
        for v in self.vars()..vars {
            bits |= bits << (1usize << v);
        }
        Self::from_bits(bits, vars)
    }

    /// Negative cofactor: `f` with `x_i = 0` (result independent of `x_i`).
    #[inline]
    pub fn cofactor0(self, i: usize) -> Self {
        assert!(i < self.vars());
        let lo = self.bits & !PROJECTIONS[i];
        Self {
            bits: lo | (lo << (1usize << i)),
            vars: self.vars,
        }
    }

    /// Positive cofactor: `f` with `x_i = 1` (result independent of `x_i`).
    #[inline]
    pub fn cofactor1(self, i: usize) -> Self {
        assert!(i < self.vars());
        let hi = self.bits & PROJECTIONS[i];
        Self {
            bits: hi | (hi >> (1usize << i)),
            vars: self.vars,
        }
    }

    /// Boolean difference `∂f/∂x_i = f|x_i=0 ⊕ f|x_i=1`.
    #[inline]
    pub fn derivative(self, i: usize) -> Self {
        self.cofactor0(i) ^ self.cofactor1(i)
    }

    /// True iff the function depends on variable `i`.
    #[inline]
    pub fn depends_on(self, i: usize) -> bool {
        !self.derivative(i).is_zero()
    }

    /// Bit mask of variables the function actually depends on.
    pub fn support(self) -> u64 {
        let mut s = 0;
        for i in 0..self.vars() {
            if self.depends_on(i) {
                s |= 1 << i;
            }
        }
        s
    }

    /// Number of variables the function actually depends on.
    #[inline]
    pub fn support_size(self) -> usize {
        self.support().count_ones() as usize
    }

    /// Compacts the function onto its support.
    ///
    /// Returns the reduced table together with the original indices of the
    /// surviving variables (in increasing order): entry `k` of the vector is
    /// the original variable feeding new variable `k`.
    pub fn shrink_to_support(self) -> (Self, Vec<usize>) {
        let mut t = self;
        let mut map = Vec::new();
        let mut next = 0usize;
        for i in 0..self.vars() {
            if t.depends_on(i) {
                if i != next {
                    t = t.swap_vars(next, i);
                }
                map.push(i);
                next += 1;
            }
        }
        let bits = t.bits & Self::mask(next);
        (Self::from_bits(bits, next), map)
    }

    /// Replaces `x_i` by `x_i ⊕ x_j` (the paper's translational operation).
    ///
    /// The result `g` satisfies `g(x) = f(x_0, …, x_i ⊕ x_j, …)`. Applying the
    /// same operation twice yields the original function.
    ///
    /// # Panics
    ///
    /// Panics if `i == j` or either index is out of range.
    pub fn translate(self, i: usize, j: usize) -> Self {
        assert!(i != j && i < self.vars() && j < self.vars());
        // For minterms with x_j = 1 the value comes from the minterm with
        // x_i flipped; minterms with x_j = 0 are unchanged.
        let flipped = self.flip_var(i).bits;
        Self {
            bits: (self.bits & !PROJECTIONS[j]) | (flipped & PROJECTIONS[j]),
            vars: self.vars,
        }
    }

    /// Complements input `x_i`: returns `g(x) = f(x_0, …, !x_i, …)`.
    #[inline]
    pub fn flip_var(self, i: usize) -> Self {
        assert!(i < self.vars());
        let shift = 1usize << i;
        let hi = self.bits & PROJECTIONS[i];
        let lo = self.bits & !PROJECTIONS[i];
        Self {
            bits: (hi >> shift) | (lo << shift),
            vars: self.vars,
        }
    }

    /// Swaps variables `x_i` and `x_j`.
    pub fn swap_vars(self, i: usize, j: usize) -> Self {
        if i == j {
            return self;
        }
        // Swap via three translations, mirroring the XOR-swap identity.
        self.translate(i, j).translate(j, i).translate(i, j)
    }

    /// XORs input `x_i` into the output: returns `g = f ⊕ x_i` (the paper's
    /// disjoint translational operation).
    #[inline]
    pub fn xor_input(self, i: usize) -> Self {
        assert!(i < self.vars());
        Self {
            bits: self.bits ^ (PROJECTIONS[i] & Self::mask(self.vars())),
            vars: self.vars,
        }
    }

    /// Algebraic normal form (positive-polarity Reed–Muller) coefficients.
    ///
    /// Bit `S` of the result is the ANF coefficient of the monomial
    /// `∏_{i ∈ S} x_i`. The transform is an involution, see [`Tt::from_anf`].
    ///
    /// ```
    /// use xag_tt::Tt;
    /// let maj = Tt::from_bits(0xe8, 3);
    /// // maj = x0x1 ⊕ x0x2 ⊕ x1x2: coefficients at 0b011, 0b101, 0b110.
    /// assert_eq!(maj.anf(), 0b0110_1000);
    /// ```
    pub fn anf(self) -> u64 {
        let mut t = self.bits;
        for (i, p) in PROJECTIONS.iter().enumerate().take(self.vars()) {
            t ^= (t & !p) << (1usize << i);
        }
        t & Self::mask(self.vars())
    }

    /// Builds a truth table from ANF coefficients (inverse of [`Tt::anf`]).
    pub fn from_anf(anf: u64, vars: usize) -> Self {
        // The Möbius transform over GF(2) is an involution.
        Self::from_bits(Tt::from_bits(anf, vars).anf(), vars)
    }

    /// Algebraic degree (0 for constants; 1 for non-constant affine
    /// functions).
    pub fn degree(self) -> u32 {
        let anf = self.anf();
        let mut best = 0;
        for s in 0..(1u64 << self.vars()) {
            if (anf >> s) & 1 == 1 {
                best = best.max(s.count_ones());
            }
        }
        best
    }

    /// True iff the function is affine: `f = c ⊕ ⨁_{i∈S} x_i`.
    pub fn is_affine(self) -> bool {
        self.degree() <= 1
    }

    /// Decomposes an affine function into `(variable mask, constant)` such
    /// that `f = constant ⊕ ⨁_{i ∈ mask} x_i`, or `None` if `f` is not
    /// affine.
    pub fn affine_decomposition(self) -> Option<(u64, bool)> {
        let anf = self.anf();
        let constant = anf & 1 == 1;
        let mut mask = 0u64;
        let mut rest = anf & !1;
        while rest != 0 {
            let s = rest.trailing_zeros() as u64;
            if s.count_ones() != 1 {
                return None;
            }
            mask |= s;
            rest &= rest - 1;
        }
        Some((mask, constant))
    }

    /// Re-expresses the function over a wider variable set.
    ///
    /// `positions` gives, for each current variable `k` (in order), its index
    /// in the new variable set; it must be strictly increasing with entries
    /// below `vars`. Variables of the result not named in `positions` are
    /// don't-cares. This is the lifting step of the one-sweep cut-function
    /// computation: a fanin cut's table over its own leaves becomes a table
    /// over the merged cut's leaves.
    ///
    /// ```
    /// use xag_tt::Tt;
    /// // x0 & x1 lifted onto a 4-var set as x1 & x3.
    /// let f = Tt::projection(0, 2) & Tt::projection(1, 2);
    /// let g = f.expand(&[1, 3], 4);
    /// assert_eq!(g, Tt::projection(1, 4) & Tt::projection(3, 4));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `positions.len() != self.vars()`, `vars > 6`, or `positions`
    /// is not strictly increasing within range.
    pub fn expand(self, positions: &[usize], vars: usize) -> Self {
        assert!(vars <= MAX_VARS, "too many variables");
        assert_eq!(positions.len(), self.vars(), "one position per variable");
        assert!(
            positions.windows(2).all(|w| w[0] < w[1]) && positions.last().is_none_or(|&p| p < vars),
            "positions not increasing or in range"
        );
        // Extending to `vars` variables makes every new variable a
        // don't-care above the current ones. Then move each current
        // variable, highest first, up to its position: the slot it lands in
        // holds a don't-care, so one delta swap of the minterms with
        // `x_k = 1, x_p = 0` against those with `x_k = 0, x_p = 1` is the
        // whole move, and it leaves a don't-care behind at `k`.
        let mut bits = self.extend_to(vars).bits;
        for (k, &p) in positions.iter().enumerate().rev() {
            if p != k {
                let shift = (1usize << p) - (1usize << k);
                let low = PROJECTIONS[k] & !PROJECTIONS[p];
                let t = (bits ^ (bits >> shift)) & low;
                bits ^= t | (t << shift);
            }
        }
        Self::from_bits(bits, vars)
    }

    /// Rademacher–Walsh spectrum: `S_w = Σ_m (-1)^{f(m) ⊕ w·m}`.
    ///
    /// The returned vector has `2^vars` entries; `S_0 = 2^n - 2·weight(f)`.
    pub fn walsh_spectrum(self) -> Vec<i32> {
        let n = self.vars();
        let len = 1usize << n;
        let mut s: Vec<i32> = (0..len)
            .map(|m| if self.eval(m as u64) { -1 } else { 1 })
            .collect();
        let mut h = 1;
        while h < len {
            let mut i = 0;
            while i < len {
                for j in i..i + h {
                    let (a, b) = (s[j], s[j + h]);
                    s[j] = a + b;
                    s[j + h] = a - b;
                }
                i += h * 2;
            }
            h *= 2;
        }
        s
    }
}

impl core::ops::Not for Tt {
    type Output = Tt;
    #[inline]
    fn not(self) -> Tt {
        Tt {
            bits: !self.bits & Tt::mask(self.vars()),
            vars: self.vars,
        }
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl core::ops::$trait for Tt {
            type Output = Tt;
            #[inline]
            fn $method(self, rhs: Tt) -> Tt {
                assert_eq!(self.vars, rhs.vars, "mismatched variable counts");
                Tt {
                    bits: self.bits $op rhs.bits,
                    vars: self.vars,
                }
            }
        }
    };
}

impl_binop!(BitAnd, bitand, &);
impl_binop!(BitOr, bitor, |);
impl_binop!(BitXor, bitxor, ^);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projections_match_definition() {
        for n in 1..=6 {
            for i in 0..n {
                let p = Tt::projection(i, n);
                for m in 0..(1u64 << n) {
                    assert_eq!(p.eval(m), (m >> i) & 1 == 1);
                }
            }
        }
    }

    #[test]
    fn mask_is_applied() {
        let t = Tt::from_bits(u64::MAX, 3);
        assert_eq!(t.bits(), 0xff);
        assert!(t.is_one());
    }

    #[test]
    fn from_bits_rejects_wide() {
        assert!(Tt::try_from_bits(0, 7).is_err());
        let err = Tt::try_from_bits(0, 9).unwrap_err();
        assert_eq!(err.vars, 9);
        assert!(err.to_string().contains("9"));
    }

    #[test]
    fn cofactors_and_derivative() {
        let a = Tt::projection(0, 3);
        let b = Tt::projection(1, 3);
        let f = a & b;
        assert!(f.cofactor0(0).is_zero());
        assert_eq!(f.cofactor1(0), b);
        assert_eq!(f.derivative(0), b);
        assert!(f.depends_on(0) && f.depends_on(1) && !f.depends_on(2));
        assert_eq!(f.support(), 0b011);
    }

    #[test]
    fn shannon_expansion_reconstructs() {
        for bits in [0xe8u64, 0x96, 0x1234_5678_9abc_def0] {
            for n in [3usize, 6] {
                let f = Tt::from_bits(bits, n);
                for i in 0..n {
                    let xi = Tt::projection(i, n);
                    let rebuilt = (xi & f.cofactor1(i)) | (!xi & f.cofactor0(i));
                    assert_eq!(rebuilt, f);
                }
            }
        }
    }

    #[test]
    fn translate_is_involution_and_correct() {
        let f = Tt::from_bits(0xcafe_f00d_dead_beef, 6);
        for i in 0..6 {
            for j in 0..6 {
                if i == j {
                    continue;
                }
                let g = f.translate(i, j);
                // g(x) = f(..., x_i ⊕ x_j, ...)
                for m in 0..64u64 {
                    let xj = (m >> j) & 1;
                    let m2 = m ^ (xj << i);
                    assert_eq!(g.eval(m), f.eval(m2));
                }
                assert_eq!(g.translate(i, j), f);
            }
        }
    }

    #[test]
    fn swap_vars_matches_semantics() {
        let f = Tt::from_bits(0x1ee7_c0de_0dd5_ba11, 6);
        for i in 0..6 {
            for j in 0..6 {
                let g = f.swap_vars(i, j);
                for m in 0..64u64 {
                    let bi = (m >> i) & 1;
                    let bj = (m >> j) & 1;
                    let m2 = (m & !((1 << i) | (1 << j))) | (bj << i) | (bi << j);
                    assert_eq!(g.eval(m), f.eval(m2));
                }
            }
        }
    }

    #[test]
    fn flip_var_matches_semantics() {
        let f = Tt::from_bits(0x0123_4567_89ab_cdef, 6);
        for i in 0..6 {
            let g = f.flip_var(i);
            for m in 0..64u64 {
                assert_eq!(g.eval(m), f.eval(m ^ (1 << i)));
            }
            assert_eq!(g.flip_var(i), f);
        }
    }

    #[test]
    fn anf_of_known_functions() {
        let a = Tt::projection(0, 2);
        let b = Tt::projection(1, 2);
        assert_eq!((a & b).anf(), 0b1000);
        assert_eq!((a ^ b).anf(), 0b0110);
        assert_eq!((a | b).anf(), 0b1110); // x0 ⊕ x1 ⊕ x0x1
        assert_eq!(Tt::one(2).anf(), 0b0001);
    }

    #[test]
    fn anf_roundtrip() {
        for bits in [0u64, 0xe8, 0x96, 0xdead_beef_1337_c0de] {
            let f = Tt::from_bits(bits, 6);
            assert_eq!(Tt::from_anf(f.anf(), 6), f);
        }
    }

    #[test]
    fn degree_and_affinity() {
        assert_eq!(Tt::zero(4).degree(), 0);
        assert_eq!(Tt::one(4).degree(), 0);
        let parity = Tt::from_fn(4, |m| m.count_ones() % 2 == 1);
        assert_eq!(parity.degree(), 1);
        assert!(parity.is_affine());
        assert_eq!(parity.affine_decomposition(), Some((0b1111, false)));
        assert_eq!((!parity).affine_decomposition(), Some((0b1111, true)));
        let maj = Tt::from_bits(0xe8, 3);
        assert_eq!(maj.degree(), 2);
        assert_eq!(maj.affine_decomposition(), None);
        let and3 = Tt::from_fn(3, |m| m == 7);
        assert_eq!(and3.degree(), 3);
    }

    #[test]
    fn walsh_spectrum_basics() {
        // S_0 = 2^n - 2 * weight.
        let f = Tt::from_bits(0xe8, 3);
        let s = f.walsh_spectrum();
        assert_eq!(s[0], 8 - 2 * f.count_ones() as i32);
        // Parseval: Σ S_w² = 2^{2n}.
        let sum: i64 = s.iter().map(|&v| (v as i64) * (v as i64)).sum();
        assert_eq!(sum, 64);
        // Spectrum of x0 over 1 var: S = [0, 2] with sign convention ±.
        let x0 = Tt::projection(0, 1);
        assert_eq!(x0.walsh_spectrum(), vec![0, 2]);
    }

    #[test]
    fn shrink_to_support_compacts() {
        // f = x1 & x3 over 5 vars.
        let f = Tt::projection(1, 5) & Tt::projection(3, 5);
        let (g, map) = f.shrink_to_support();
        assert_eq!(map, vec![1, 3]);
        assert_eq!(g.vars(), 2);
        assert_eq!(g.bits(), 0x8);
    }

    #[test]
    fn expand_matches_semantics() {
        // Every source width, four fixed tables plus three seeded random
        // ones per width, every target width and every strictly increasing
        // position vector: expand then evaluate by index map.
        let mut rng = mc_rng::Rng::seed_from_u64(0xe8a9_d001);
        for n in 1..=MAX_VARS {
            let random = [rng.next_u64(), rng.next_u64(), rng.next_u64()];
            for bits in [0x8u64, 0x6, 0xe8, 0x96].into_iter().chain(random) {
                let f = Tt::from_bits(bits, n);
                for vars in n..=6 {
                    // All strictly increasing position vectors of length n.
                    let mut stack = vec![(Vec::new(), 0usize)];
                    while let Some((prefix, start)) = stack.pop() {
                        if prefix.len() == n {
                            let g = f.expand(&prefix, vars);
                            for m in 0..(1u64 << vars) {
                                let mut sub = 0u64;
                                for (k, &p) in prefix.iter().enumerate() {
                                    sub |= ((m >> p) & 1) << k;
                                }
                                assert_eq!(g.eval(m), f.eval(sub));
                            }
                            continue;
                        }
                        for p in start..vars {
                            let mut next = prefix.clone();
                            next.push(p);
                            stack.push((next, p + 1));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn expand_rejects_bad_positions() {
        let f = Tt::from_bits(0x8, 2);
        for (positions, vars) in [
            (&[1usize, 0][..], 3),
            (&[1, 1], 3),
            (&[0, 3], 3),
            (&[0], 3),
            (&[0, 1], 7),
        ] {
            let expanded = std::panic::catch_unwind(|| f.expand(positions, vars));
            assert!(expanded.is_err(), "{positions:?} into {vars} vars");
        }
    }

    #[test]
    fn expand_identity_and_extend() {
        let f = Tt::from_bits(0xe8, 3);
        assert_eq!(f.expand(&[0, 1, 2], 3), f);
        assert_eq!(f.expand(&[0, 1, 2], 5), f.extend_to(5));
        let g = Tt::from_bits(0xdead_beef_1337_c0de, 6);
        assert_eq!(g.expand(&[0, 1, 2, 3, 4, 5], 6), g);
    }

    #[test]
    fn extend_replicates() {
        let f = Tt::from_bits(0x8, 2);
        let g = f.extend_to(4);
        assert_eq!(g.vars(), 4);
        for m in 0..16u64 {
            assert_eq!(g.eval(m), f.eval(m & 3));
        }
    }
}
