//! Tseitin encoding of gate-level circuits into CNF.
//!
//! The standard linear-size encoding used in SAT-based test generation
//! since Larrabee: one variable per gate, a handful of clauses per gate
//! kind. This is the CNF representation the paper assumes (its reference
//! [11]).

use crate::copies::{encode_copy, CopyRoles};
use crate::mux::MuxEncoding;
use crate::sink::ClauseSink;
use gatediag_netlist::{Circuit, Gate, GateId, GateKind};
use gatediag_sat::{Lit, Var};

/// Variable map of one encoded circuit copy.
///
/// Encoding a circuit yields one solver variable per gate; constraining and
/// reading values goes through this map.
#[derive(Clone, Debug)]
pub struct CircuitVars {
    vars: Vec<Var>,
}

impl CircuitVars {
    pub(crate) fn from_vars(vars: Vec<Var>) -> Self {
        CircuitVars { vars }
    }

    /// The variable carrying the value of gate `id`.
    #[inline]
    pub fn var(&self, id: GateId) -> Var {
        self.vars[id.index()]
    }

    /// The positive literal of gate `id`'s variable.
    #[inline]
    pub fn lit(&self, id: GateId, value: bool) -> Lit {
        self.var(id).lit(value)
    }

    /// Replaces `out`'s contents with the positive literals of `gate`'s
    /// fan-ins, so an encoding loop reuses one buffer for every gate.
    pub(crate) fn fanin_lits(&self, gate: Gate<'_>, out: &mut Vec<Lit>) {
        out.clear();
        out.extend(gate.fanins().iter().map(|&f| self.lit(f, true)));
    }

    /// All gate variables in gate-id order.
    pub fn all(&self) -> &[Var] {
        &self.vars
    }
}

/// Emits the clauses tying `y` to `kind(fanins)`: the per-gate step of
/// [`encode_copy`], the one circuit-copy encoder.
///
/// When `guard` is `Some(s)`, every clause gets the extra literal `s`,
/// making the constraint vacuous when `s` is true — this implements the
/// "gate value is free when its select line is on" semantics of the
/// inline correction-multiplexer encoding.
///
/// # Panics
///
/// Panics on source kinds other than constants (inputs have no defining
/// clauses) or on arity violations.
pub(crate) fn encode_gate<S: ClauseSink>(
    sink: &mut S,
    kind: GateKind,
    y: Var,
    fanins: &[Lit],
    guard: Option<Lit>,
) {
    sink.gate_encoded();
    macro_rules! clause {
        ($lits:expr) => {
            emit(sink, $lits, guard)
        };
    }
    let yp = y.positive();
    let yn = y.negative();
    match kind {
        GateKind::Input => panic!("primary inputs have no defining clauses"),
        GateKind::Const0 => clause!([yn]),
        GateKind::Const1 => clause!([yp]),
        GateKind::Buf => {
            let a = fanins[0];
            clause!([yn, a]);
            clause!([yp, !a]);
        }
        GateKind::Not => {
            let a = fanins[0];
            clause!([yn, !a]);
            clause!([yp, a]);
        }
        GateKind::And | GateKind::Nand => {
            // t = AND(fanins); y = t (And) or !t (Nand).
            let (t_true, t_false) = if kind == GateKind::And {
                (yp, yn)
            } else {
                (yn, yp)
            };
            for &a in fanins {
                clause!([t_false, a]);
            }
            clause!(fanins.iter().map(|&a| !a).chain([t_true]));
        }
        GateKind::Or | GateKind::Nor => {
            let (t_true, t_false) = if kind == GateKind::Or {
                (yp, yn)
            } else {
                (yn, yp)
            };
            for &a in fanins {
                clause!([t_true, !a]);
            }
            clause!(fanins.iter().copied().chain([t_false]));
        }
        GateKind::Xor | GateKind::Xnor => {
            // Chain binary XORs through aux variables; the last step folds
            // the optional negation into the output polarity.
            assert!(fanins.len() >= 2, "XOR needs at least two fan-ins");
            let mut acc = fanins[0];
            for (i, &b) in fanins.iter().enumerate().skip(1) {
                let last = i == fanins.len() - 1;
                let out = if last {
                    if kind == GateKind::Xor {
                        yp
                    } else {
                        yn
                    }
                } else {
                    sink.new_var().positive()
                };
                // out <-> acc XOR b
                clause!([!out, acc, b]);
                clause!([!out, !acc, !b]);
                clause!([out, !acc, b]);
                clause!([out, acc, !b]);
                acc = out;
            }
        }
    }
}

/// Clauses up to this many literals are built on the stack.
const STACK_LITS: usize = 16;

/// Adds `lits` followed by the optional `guard` as one clause, built in
/// a stack buffer unless it is longer than [`STACK_LITS`].
fn emit<S: ClauseSink>(sink: &mut S, lits: impl IntoIterator<Item = Lit>, guard: Option<Lit>) {
    let mut buf = [Lit::from_code(0); STACK_LITS];
    let mut len = 0;
    let mut lits = lits.into_iter().chain(guard);
    for lit in lits.by_ref() {
        if len == STACK_LITS {
            let long: Vec<Lit> = buf.iter().copied().chain([lit]).chain(lits).collect();
            sink.add_clause(&long);
            return;
        }
        buf[len] = lit;
        len += 1;
    }
    sink.add_clause(&buf[..len]);
}

/// Encodes a full circuit copy; returns the gate-to-variable map.
///
/// Inputs get fresh unconstrained variables; every other gate gets a
/// variable plus its defining clauses.
///
/// # Examples
///
/// ```
/// use gatediag_cnf::{encode_circuit, CnfCollector};
///
/// let c = gatediag_netlist::c17();
/// let mut sink = CnfCollector::new();
/// let vars = encode_circuit(&mut sink, &c);
/// assert!(sink.num_vars() >= c.len());
/// assert_eq!(vars.all().len(), c.len());
/// ```
pub fn encode_circuit<S: ClauseSink>(sink: &mut S, circuit: &Circuit) -> CircuitVars {
    encode_copy(sink, circuit, &CopyRoles::default(), MuxEncoding::Inline).vars
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::CnfCollector;
    use gatediag_netlist::{c17, parity_tree, ripple_carry_adder, RandomCircuitSpec, VectorGen};
    use gatediag_sat::{SolveResult, Solver};
    use gatediag_sim::simulate;

    /// Constrain the encoded inputs to `vector`, solve, and compare every
    /// gate variable against the simulator.
    fn check_encoding_matches_sim(circuit: &gatediag_netlist::Circuit, vector: &[bool]) {
        let mut solver = Solver::new();
        let vars = encode_circuit(&mut solver, circuit);
        for (&pi, &v) in circuit.inputs().iter().zip(vector) {
            solver.add_clause(&[vars.lit(pi, v)]);
        }
        assert_eq!(solver.solve(&[]), SolveResult::Sat);
        let expected = simulate(circuit, vector);
        for (id, _) in circuit.iter() {
            assert_eq!(
                solver.model_value(vars.lit(id, true)),
                Some(expected[id.index()]),
                "gate {id} mismatch"
            );
        }
    }

    #[test]
    fn c17_encoding_matches_simulation() {
        let c = c17();
        for pattern in 0..32u32 {
            let vector: Vec<bool> = (0..5).map(|i| pattern >> i & 1 == 1).collect();
            check_encoding_matches_sim(&c, &vector);
        }
    }

    #[test]
    fn adder_encoding_matches_simulation() {
        let c = ripple_carry_adder(3);
        let mut gen = VectorGen::new(&c, 4);
        for _ in 0..16 {
            check_encoding_matches_sim(&c, &gen.next_vector());
        }
    }

    #[test]
    fn parity_encoding_matches_simulation() {
        // Exercises the n-ary XOR chain.
        let c = parity_tree(5);
        for pattern in 0..32u32 {
            let vector: Vec<bool> = (0..5).map(|i| pattern >> i & 1 == 1).collect();
            check_encoding_matches_sim(&c, &vector);
        }
    }

    #[test]
    fn random_circuits_match_simulation() {
        for seed in 0..5 {
            let c = RandomCircuitSpec::new(6, 2, 40).seed(seed).generate();
            let mut gen = VectorGen::new(&c, seed + 100);
            for _ in 0..8 {
                check_encoding_matches_sim(&c, &gen.next_vector());
            }
        }
    }

    #[test]
    fn encoding_is_linear_size() {
        let small = {
            let mut sink = CnfCollector::new();
            encode_circuit(
                &mut sink,
                &RandomCircuitSpec::new(8, 3, 100).seed(0).generate(),
            );
            sink.clauses().len()
        };
        let large = {
            let mut sink = CnfCollector::new();
            encode_circuit(
                &mut sink,
                &RandomCircuitSpec::new(8, 3, 400).seed(0).generate(),
            );
            sink.clauses().len()
        };
        assert!(
            large < 6 * small,
            "clause growth should be roughly linear: {small} -> {large}"
        );
    }

    #[test]
    fn guarded_gate_is_free_when_guard_true() {
        // y = AND(a, b) guarded by s: with s = 1 the solver may pick any y.
        let mut solver = Solver::new();
        let a = solver.new_var();
        let b = solver.new_var();
        let y = solver.new_var();
        let s = solver.new_var();
        encode_gate(
            &mut solver,
            GateKind::And,
            y,
            &[a.positive(), b.positive()],
            Some(s.positive()),
        );
        // s=1, a=1, b=1: y may be 0 (freed).
        assert_eq!(
            solver.solve(&[s.positive(), a.positive(), b.positive(), y.negative()]),
            SolveResult::Sat
        );
        // s=0, a=1, b=1: y must be 1.
        assert_eq!(
            solver.solve(&[s.negative(), a.positive(), b.positive(), y.negative()]),
            SolveResult::Unsat
        );
        assert_eq!(
            solver.solve(&[s.negative(), a.positive(), b.positive(), y.positive()]),
            SolveResult::Sat
        );
    }
}
