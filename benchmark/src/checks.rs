//! Answer checks: every answer is parsed back and compared with its input.

use xag_circuits::{parse_circuit, CircuitFormat};
use xag_network::{equiv, Xag};

/// Simulation rounds of 64 vectors for circuits above 16 inputs; at or
/// below 16 inputs `equiv` sweeps all `2^n` assignments instead.
const EQUIV_ROUNDS: usize = 128;

/// Parses the Bristol `netlist` and checks it against `input`:
/// exhaustively up to 16 inputs, by seeded simulation above.
pub fn equivalent(input: &Xag, netlist: &[u8], seed: u64) -> bool {
    let Ok(text) = std::str::from_utf8(netlist) else {
        return false;
    };
    let Ok(answer) = parse_circuit(text, Some(CircuitFormat::Bristol)) else {
        return false;
    };
    answer.num_inputs() == input.num_inputs()
        && answer.num_outputs() == input.num_outputs()
        && equiv(input, &answer, seed, EQUIV_ROUNDS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xag_network::write_bristol;

    fn bristol(xag: &Xag) -> Vec<u8> {
        let mut out = Vec::new();
        write_bristol(xag, &mut out).expect("in-memory write");
        out
    }

    #[test]
    fn accepts_an_equivalent_answer_and_rejects_a_wrong_one() {
        let mut input = Xag::new();
        let (a, b, c) = (input.input(), input.input(), input.input());
        let ab = input.and(a, b);
        let ac = input.and(a, c);
        let x = input.xor(ab, ac);
        input.output(x);

        let mut good = Xag::new();
        let (a, b, c) = (good.input(), good.input(), good.input());
        let bc = good.xor(b, c);
        let x = good.and(a, bc);
        good.output(x);
        assert!(equivalent(&input, &bristol(&good), 1));

        let mut wrong = Xag::new();
        let (a, b, _) = (wrong.input(), wrong.input(), wrong.input());
        let x = wrong.and(a, b);
        wrong.output(x);
        assert!(!equivalent(&input, &bristol(&wrong), 1));
        assert!(!equivalent(&input, b"not a circuit", 1));
    }
}
