use xag_tt::{AffineOp, Tt};

use crate::network::Xag;
use crate::signal::Signal;

/// Reference to a value inside an [`XagFragment`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FragRef {
    /// A constant value.
    Const(bool),
    /// Fragment input `i`, complemented if the flag is set.
    Input(u8, bool),
    /// Output of fragment gate `g`, complemented if the flag is set.
    Gate(u16, bool),
}

impl FragRef {
    /// Complements the reference.
    #[must_use]
    pub fn complement(self) -> FragRef {
        match self {
            FragRef::Const(c) => FragRef::Const(!c),
            FragRef::Input(i, c) => FragRef::Input(i, !c),
            FragRef::Gate(g, c) => FragRef::Gate(g, !c),
        }
    }

    /// Conditionally complements the reference.
    #[must_use]
    pub fn complement_if(self, cond: bool) -> FragRef {
        if cond {
            self.complement()
        } else {
            self
        }
    }
}

/// One gate of a fragment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FragmentGate {
    /// True for AND, false for XOR.
    pub is_and: bool,
    /// First operand.
    pub a: FragRef,
    /// Second operand.
    pub b: FragRef,
}

/// A small single-output sub-circuit template over `k` abstract inputs.
///
/// Fragments are the currency of the DAC'19 flow: the database maps each
/// affine-class representative to a fragment, and cut rewriting instantiates
/// fragments onto the cut leaves of a live network. A fragment is
/// *structural*: instantiating it through [`XagFragment::instantiate`] runs
/// the target network's constant folding and structural hashing, so shared
/// logic is reused automatically.
///
/// # Examples
///
/// ```
/// use xag_network::{Xag, XagFragment};
/// use xag_tt::Tt;
///
/// // Majority with a single AND gate: (a⊕c)(b⊕c) ⊕ c.
/// let mut f = XagFragment::new(3);
/// let ac = f.xor(XagFragment::input(0), XagFragment::input(2));
/// let bc = f.xor(XagFragment::input(1), XagFragment::input(2));
/// let p = f.and(ac, bc);
/// let out = f.xor(p, XagFragment::input(2));
/// f.set_output(out);
/// assert_eq!(f.num_ands(), 1);
/// assert_eq!(f.eval_tt().bits(), 0xe8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XagFragment {
    inputs: u8,
    gates: Vec<FragmentGate>,
    output: FragRef,
}

impl XagFragment {
    /// Creates an empty fragment over `k` inputs with constant-zero output.
    ///
    /// # Panics
    ///
    /// Panics if `k > 64`.
    pub fn new(k: usize) -> Self {
        assert!(k <= 64, "fragments support at most 64 inputs");
        Self {
            inputs: k as u8,
            gates: Vec::new(),
            output: FragRef::Const(false),
        }
    }

    /// A fragment computing a constant.
    pub fn constant(k: usize, value: bool) -> Self {
        let mut f = Self::new(k);
        f.set_output(FragRef::Const(value));
        f
    }

    /// Reference to fragment input `i`.
    pub fn input(i: usize) -> FragRef {
        FragRef::Input(i as u8, false)
    }

    /// Number of fragment inputs.
    pub fn num_inputs(&self) -> usize {
        self.inputs as usize
    }

    /// Number of AND gates in the fragment.
    pub fn num_ands(&self) -> usize {
        self.gates.iter().filter(|g| g.is_and).count()
    }

    /// Number of XOR gates in the fragment.
    pub fn num_xors(&self) -> usize {
        self.gates.iter().filter(|g| !g.is_and).count()
    }

    /// The gates in topological order.
    pub fn gates(&self) -> &[FragmentGate] {
        &self.gates
    }

    /// The output reference.
    pub fn output(&self) -> FragRef {
        self.output
    }

    /// Sets the fragment output.
    pub fn set_output(&mut self, r: FragRef) {
        self.output = r;
    }

    fn push(&mut self, is_and: bool, a: FragRef, b: FragRef) -> FragRef {
        self.gates.push(FragmentGate { is_and, a, b });
        FragRef::Gate((self.gates.len() - 1) as u16, false)
    }

    /// Appends an AND gate and returns its output reference.
    pub fn and(&mut self, a: FragRef, b: FragRef) -> FragRef {
        self.push(true, a, b)
    }

    /// Appends a XOR gate and returns its output reference.
    pub fn xor(&mut self, a: FragRef, b: FragRef) -> FragRef {
        self.push(false, a, b)
    }

    /// XOR of many references (returns a constant for an empty list).
    pub fn xor_many(&mut self, refs: &[FragRef]) -> FragRef {
        let mut acc = FragRef::Const(false);
        for &r in refs {
            acc = match acc {
                FragRef::Const(false) => r,
                FragRef::Const(true) => r.complement(),
                _ => {
                    if let FragRef::Const(c) = r {
                        acc.complement_if(c)
                    } else {
                        self.xor(acc, r)
                    }
                }
            };
        }
        acc
    }

    /// Instantiates the fragment in `xag`, connecting fragment input `i` to
    /// `leaves[i]`. Returns the output signal.
    ///
    /// # Panics
    ///
    /// Panics if `leaves.len() != self.num_inputs()`.
    pub fn instantiate(&self, xag: &mut Xag, leaves: &[Signal]) -> Signal {
        assert_eq!(leaves.len(), self.num_inputs());
        let mut outs: Vec<Signal> = Vec::with_capacity(self.gates.len());
        let resolve = |r: FragRef, outs: &[Signal]| -> Signal {
            match r {
                FragRef::Const(c) => Signal::CONST0 ^ c,
                FragRef::Input(i, c) => leaves[i as usize] ^ c,
                FragRef::Gate(g, c) => outs[g as usize] ^ c,
            }
        };
        for gate in &self.gates {
            let a = resolve(gate.a, &outs);
            let b = resolve(gate.b, &outs);
            let s = if gate.is_and {
                xag.and(a, b)
            } else {
                xag.xor(a, b)
            };
            outs.push(s);
        }
        resolve(self.output, &outs)
    }

    /// Estimates how many *new* `(AND, total)` gates instantiating this
    /// fragment on `leaves` would create, exploiting the network's
    /// structural hashing.
    ///
    /// Gates that hash to nodes with a zero reference count are counted as
    /// new: after a rewrite they would only survive because the fragment
    /// uses them, cancelling out the gain attributed to removing them.
    pub fn count_new_gates(&self, xag: &Xag, leaves: &[Signal]) -> (usize, usize) {
        assert_eq!(leaves.len(), self.num_inputs());
        // Virtual signal per gate: Some(existing signal) or None (new node).
        let mut outs: Vec<Option<Signal>> = Vec::with_capacity(self.gates.len());
        let mut added = 0usize;
        let mut added_total = 0usize;
        let resolve = |r: FragRef, outs: &[Option<Signal>]| -> Option<Signal> {
            match r {
                FragRef::Const(c) => Some(Signal::CONST0 ^ c),
                FragRef::Input(i, c) => Some(leaves[i as usize] ^ c),
                FragRef::Gate(g, c) => outs[g as usize].map(|s| s ^ c),
            }
        };
        for gate in &self.gates {
            let a = resolve(gate.a, &outs);
            let b = resolve(gate.b, &outs);
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
                Some(s) if s.is_const() || !xag.is_gate(s.node()) || xag.nref(s.node()) > 0 => {
                    outs.push(Some(s));
                }
                Some(s) => {
                    // Hash hit on a node scheduled for deletion: reusing it
                    // keeps it alive, so it still costs its own gate.
                    if gate.is_and {
                        added += 1;
                    }
                    added_total += 1;
                    outs.push(Some(s));
                }
                None => {
                    if gate.is_and {
                        added += 1;
                    }
                    added_total += 1;
                    outs.push(None);
                }
            }
        }
        (added, added_total)
    }

    /// Evaluates the fragment into a truth table over its inputs.
    ///
    /// # Panics
    ///
    /// Panics if the fragment has more than six inputs.
    pub fn eval_tt(&self) -> Tt {
        let n = self.num_inputs();
        assert!(n <= 6, "eval_tt supports at most six inputs");
        let nv = n.max(1);
        let mut outs: Vec<Tt> = Vec::with_capacity(self.gates.len());
        let resolve = |r: FragRef, outs: &[Tt]| -> Tt {
            let t = match r {
                FragRef::Const(c) => Tt::constant(c, nv),
                FragRef::Input(i, _) => Tt::projection(i as usize, nv),
                FragRef::Gate(g, _) => outs[g as usize],
            };
            match r {
                FragRef::Const(_) => t,
                FragRef::Input(_, c) | FragRef::Gate(_, c) => {
                    if c {
                        !t
                    } else {
                        t
                    }
                }
            }
        };
        for gate in &self.gates {
            let a = resolve(gate.a, &outs);
            let b = resolve(gate.b, &outs);
            outs.push(if gate.is_and { a & b } else { a ^ b });
        }
        resolve(self.output, &outs)
    }

    /// Returns a copy with the output complemented.
    #[must_use]
    pub fn complemented(&self) -> XagFragment {
        let mut f = self.clone();
        f.output = f.output.complement();
        f
    }

    /// Applies an affine operation *to the circuit*: if this fragment
    /// computes `h`, the result computes `op(h)` using only wiring changes
    /// and XOR gates — never an AND gate. This is how the DAC'19 flow turns
    /// a representative's minimum circuit into a circuit for any class
    /// member (paper Fig. 2).
    ///
    /// ```
    /// use xag_network::XagFragment;
    /// use xag_tt::{AffineOp, Tt};
    ///
    /// // AND fragment → majority by replaying Example 2.3's operations.
    /// let mut and = XagFragment::new(3);
    /// let g = and.and(XagFragment::input(0), XagFragment::input(1));
    /// and.set_output(g);
    /// let maj = [
    ///     AffineOp::FlipInput(1),
    ///     AffineOp::Translate { dst: 1, src: 2 },
    ///     AffineOp::Translate { dst: 0, src: 1 },
    ///     AffineOp::XorOutput(0),
    /// ]
    /// .iter()
    /// .fold(and, |f, &op| f.apply_affine_op(op));
    /// assert_eq!(maj.eval_tt().bits(), 0xe8);
    /// assert_eq!(maj.num_ands(), 1);
    /// ```
    #[must_use]
    pub fn apply_affine_op(&self, op: AffineOp) -> XagFragment {
        match op {
            AffineOp::FlipOutput => self.complemented(),
            AffineOp::XorOutput(i) => {
                let mut f = self.clone();
                let out = f.xor(f.output, XagFragment::input(i));
                f.set_output(out);
                f
            }
            AffineOp::FlipInput(i) => {
                let flip = |r: FragRef| match r {
                    FragRef::Input(k, c) if k as usize == i => FragRef::Input(k, !c),
                    other => other,
                };
                XagFragment {
                    inputs: self.inputs,
                    gates: self
                        .gates
                        .iter()
                        .map(|g| FragmentGate {
                            is_and: g.is_and,
                            a: flip(g.a),
                            b: flip(g.b),
                        })
                        .collect(),
                    output: flip(self.output),
                }
            }
            AffineOp::Swap(i, j) => {
                let map: Vec<usize> = (0..self.num_inputs())
                    .map(|k| {
                        if k == i {
                            j
                        } else if k == j {
                            i
                        } else {
                            k
                        }
                    })
                    .collect();
                self.with_inputs(self.num_inputs(), &map)
            }
            AffineOp::Translate { dst, src } => {
                // Prepend t = x_dst ⊕ x_src and reroute reads of x_dst to t.
                let mut f = XagFragment::new(self.num_inputs());
                let t = f.xor(XagFragment::input(dst), XagFragment::input(src));
                let reroute = |r: FragRef| match r {
                    FragRef::Input(k, c) if k as usize == dst => t.complement_if(c),
                    FragRef::Gate(g, c) => FragRef::Gate(g + 1, c),
                    other => other,
                };
                for g in &self.gates {
                    f.gates.push(FragmentGate {
                        is_and: g.is_and,
                        a: reroute(g.a),
                        b: reroute(g.b),
                    });
                }
                f.set_output(reroute(self.output));
                f
            }
        }
    }

    /// Replays a classification's operation sequence on a representative's
    /// circuit: if this fragment computes the representative `r` and
    /// `ops` maps some function `f` to `r` (each affine operation is an
    /// involution), the result computes `f`.
    #[must_use]
    pub fn undo_affine_ops(&self, ops: &[AffineOp]) -> XagFragment {
        ops.iter()
            .rev()
            .fold(self.clone(), |f, &op| f.apply_affine_op(op))
    }

    /// Appends all gates of `other` (which must have the same input count)
    /// to this fragment, returning `other`'s output re-indexed into `self`.
    ///
    /// # Panics
    ///
    /// Panics if the input counts differ.
    pub fn append_fragment(&mut self, other: &XagFragment) -> FragRef {
        assert_eq!(self.inputs, other.inputs, "fragment input counts differ");
        let offset = self.gates.len() as u16;
        let shift = |r: FragRef| match r {
            FragRef::Gate(g, c) => FragRef::Gate(g + offset, c),
            other => other,
        };
        for g in &other.gates {
            self.gates.push(FragmentGate {
                is_and: g.is_and,
                a: shift(g.a),
                b: shift(g.b),
            });
        }
        shift(other.output)
    }

    /// Re-expresses the fragment over `n` inputs, feeding old input `i` from
    /// new input `map[i]`. Used to lift a fragment synthesized on a
    /// function's support back to the full variable set.
    ///
    /// # Panics
    ///
    /// Panics if `map.len() != self.num_inputs()` or any entry is `≥ n`.
    #[must_use]
    pub fn with_inputs(&self, n: usize, map: &[usize]) -> XagFragment {
        assert_eq!(map.len(), self.num_inputs());
        assert!(map.iter().all(|&m| m < n), "input map entry out of range");
        let remap = |r: FragRef| match r {
            FragRef::Input(i, c) => FragRef::Input(map[i as usize] as u8, c),
            other => other,
        };
        XagFragment {
            inputs: n as u8,
            gates: self
                .gates
                .iter()
                .map(|g| FragmentGate {
                    is_and: g.is_and,
                    a: remap(g.a),
                    b: remap(g.b),
                })
                .collect(),
            output: remap(self.output),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn maj_fragment() -> XagFragment {
        let mut f = XagFragment::new(3);
        let ac = f.xor(XagFragment::input(0), XagFragment::input(2));
        let bc = f.xor(XagFragment::input(1), XagFragment::input(2));
        let p = f.and(ac, bc);
        let out = f.xor(p, XagFragment::input(2));
        f.set_output(out);
        f
    }

    #[test]
    fn eval_tt_matches_instantiation() {
        let f = maj_fragment();
        assert_eq!(f.eval_tt().bits(), 0xe8);
        let mut xag = Xag::new();
        let ins: Vec<_> = (0..3).map(|_| xag.input()).collect();
        let out = f.instantiate(&mut xag, &ins);
        xag.output(out);
        for m in 0..8u64 {
            assert_eq!(xag.evaluate(m)[0], m.count_ones() >= 2);
        }
        assert_eq!(xag.num_ands(), 1);
    }

    #[test]
    fn instantiation_reuses_existing_gates() {
        let f = maj_fragment();
        let mut xag = Xag::new();
        let ins: Vec<_> = (0..3).map(|_| xag.input()).collect();
        let o1 = f.instantiate(&mut xag, &ins);
        let gates_after_first = xag.num_gates();
        let o2 = f.instantiate(&mut xag, &ins);
        assert_eq!(o1, o2);
        assert_eq!(xag.num_gates(), gates_after_first);
        // And the dry-run sees full reuse only for referenced nodes.
        xag.output(o1);
        assert_eq!(f.count_new_gates(&xag, &ins).0, 0);
    }

    #[test]
    fn count_new_gates_on_empty_network() {
        let f = maj_fragment();
        let mut xag = Xag::new();
        let ins: Vec<_> = (0..3).map(|_| xag.input()).collect();
        assert_eq!(f.count_new_gates(&xag, &ins).0, 1);
    }

    #[test]
    fn complemented_output() {
        let f = maj_fragment().complemented();
        assert_eq!(f.eval_tt().bits(), (!Tt::from_bits(0xe8, 3)).bits());
    }

    #[test]
    fn xor_many_folds_constants() {
        let mut f = XagFragment::new(2);
        let out = f.xor_many(&[
            FragRef::Const(true),
            XagFragment::input(0),
            FragRef::Const(true),
            XagFragment::input(1),
        ]);
        f.set_output(out);
        assert_eq!(f.num_xors(), 1);
        assert_eq!(f.eval_tt().bits(), 0b0110);
    }
}
