//! Constrained circuit copies and model-harvest helpers for
//! SAT-guided discriminating-test generation.
//!
//! The testgen queries in `gatediag_core::testgen` stack several copies
//! of the same circuit into one solver: the golden reference, the faulty
//! circuit as manufactured, a copy with a candidate's gates *freed*
//! (paper Definition 3: a correction may drive any value there), and a
//! family of copies with those gates *pinned* to concrete constants
//! (universal expansion of "no free values rectify this output"). All
//! copies share their primary inputs, so a model is a single input
//! vector; the harvest helpers extract it either as a plain `Vec<bool>`
//! or directly into `PackedSim`-layout pattern words.

use crate::sink::ClauseSink;
use crate::tseitin::{encode_gate, CircuitVars};
use gatediag_netlist::{Circuit, GateId, GateKind};
use gatediag_sat::{Lit, Solver, Var};

/// Encodes a circuit copy with the gates in `freed` left unconstrained.
///
/// Freed gates still get variables (so fanouts reference them), but their
/// defining clauses are dropped: the solver may assign them any value,
/// which is exactly the paper's Definition 3 notion of a correction at
/// those locations. Freeing a primary input is a no-op (inputs never have
/// defining clauses).
pub fn encode_freed_copy<S: ClauseSink>(
    sink: &mut S,
    circuit: &Circuit,
    freed: &[GateId],
) -> CircuitVars {
    let vars: Vec<Var> = (0..circuit.len()).map(|_| sink.new_var()).collect();
    let map = CircuitVars::from_vars(vars);
    let mut fanins: Vec<Lit> = Vec::new();
    for &id in circuit.topo_order() {
        let gate = circuit.gate(id);
        if gate.kind() == GateKind::Input || freed.contains(&id) {
            continue;
        }
        map.fanin_lits(gate, &mut fanins);
        encode_gate(sink, gate.kind(), map.var(id), &fanins, None);
    }
    map
}

/// Encodes a circuit copy with each gate in `pinned` forced to a constant.
///
/// Pinned gates get a unit clause instead of their defining clauses — one
/// hardwired point of the universal expansion over a candidate's free
/// values.
///
/// # Panics
///
/// Panics if a pinned gate is a primary input: inputs are shared across
/// copies via [`tie_inputs`], so pinning one would constrain every copy.
pub fn encode_pinned_copy<S: ClauseSink>(
    sink: &mut S,
    circuit: &Circuit,
    pinned: &[(GateId, bool)],
) -> CircuitVars {
    let vars: Vec<Var> = (0..circuit.len()).map(|_| sink.new_var()).collect();
    let map = CircuitVars::from_vars(vars);
    let mut fanins: Vec<Lit> = Vec::new();
    for &(id, value) in pinned {
        assert_ne!(
            circuit.gate(id).kind(),
            GateKind::Input,
            "cannot pin a primary input"
        );
        sink.add_clause(&[map.lit(id, value)]);
    }
    for &id in circuit.topo_order() {
        let gate = circuit.gate(id);
        if gate.kind() == GateKind::Input || pinned.iter().any(|&(p, _)| p == id) {
            continue;
        }
        map.fanin_lits(gate, &mut fanins);
        encode_gate(sink, gate.kind(), map.var(id), &fanins, None);
    }
    map
}

/// Ties the primary inputs of two encoded copies together positionally.
///
/// `a` and `b` pair each copy's variable map with its circuit's
/// `inputs()` list; the two lists must have equal length (the copies may
/// come from different `Circuit` objects whose gate ids differ).
pub fn tie_inputs(solver: &mut Solver, a: (&CircuitVars, &[GateId]), b: (&CircuitVars, &[GateId])) {
    assert_eq!(a.1.len(), b.1.len(), "input count mismatch");
    for (&ai, &bi) in a.1.iter().zip(b.1) {
        let x = a.0.lit(ai, true);
        let y = b.0.lit(bi, true);
        solver.add_clause(&[!x, y]);
        solver.add_clause(&[x, !y]);
    }
}

/// Reads the model's input vector (in `inputs` order) after a SAT outcome.
///
/// # Panics
///
/// Panics if the solver holds no model.
pub fn harvest_input_vector(solver: &Solver, vars: &CircuitVars, inputs: &[GateId]) -> Vec<bool> {
    inputs
        .iter()
        .map(|&pi| {
            solver
                .model_value(vars.lit(pi, true))
                .expect("model available after SAT")
        })
        .collect()
}

/// Harvests the model's input vector directly into `PackedSim`-layout
/// pattern words: bit `lane % 64` of word `words[i * words_per_input +
/// lane / 64]` receives input `i`'s value (the rIC3 `rt_dfs_simulate`
/// harvest-into-bitvec idiom).
///
/// # Panics
///
/// Panics if the solver holds no model or `lane` exceeds the buffer.
pub fn harvest_input_lane(
    solver: &Solver,
    vars: &CircuitVars,
    inputs: &[GateId],
    words: &mut [u64],
    words_per_input: usize,
    lane: usize,
) {
    assert!(lane / 64 < words_per_input, "lane out of range");
    let bit = 1u64 << (lane % 64);
    for (i, &pi) in inputs.iter().enumerate() {
        let value = solver
            .model_value(vars.lit(pi, true))
            .expect("model available after SAT");
        let word = &mut words[i * words_per_input + lane / 64];
        if value {
            *word |= bit;
        } else {
            *word &= !bit;
        }
    }
}

/// Blocks `vector` (over `inputs`, positionally) so later solves must
/// produce a different input assignment.
pub fn block_input_vector(
    solver: &mut Solver,
    vars: &CircuitVars,
    inputs: &[GateId],
    vector: &[bool],
) {
    let clause: Vec<Lit> = inputs
        .iter()
        .zip(vector)
        .map(|(&pi, &v)| vars.lit(pi, !v))
        .collect();
    solver.add_clause(&clause);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tseitin::encode_circuit;
    use gatediag_netlist::c17;
    use gatediag_sat::{SolveResult, Solver};
    use gatediag_sim::simulate;

    #[test]
    fn freed_gate_may_take_any_value() {
        let c = c17();
        // Free the first non-input gate; the solver may then set it to a
        // value the gate function would forbid.
        let freed = c
            .iter()
            .find(|(_, g)| g.kind() != GateKind::Input)
            .map(|(id, _)| id)
            .unwrap();
        let vector = vec![true; c.inputs().len()];
        let honest = simulate(&c, &vector)[freed.index()];
        let mut solver = Solver::new();
        let vars = encode_freed_copy(&mut solver, &c, &[freed]);
        for (&pi, &v) in c.inputs().iter().zip(&vector) {
            solver.add_clause(&[vars.lit(pi, v)]);
        }
        assert_eq!(
            solver.solve(&[vars.lit(freed, !honest)]),
            SolveResult::Sat,
            "freed gate should accept the dishonest value"
        );
    }

    #[test]
    fn pinned_gate_holds_its_constant_and_propagates() {
        let c = c17();
        let pinned = c
            .iter()
            .find(|(_, g)| g.kind() != GateKind::Input)
            .map(|(id, _)| id)
            .unwrap();
        for value in [false, true] {
            let mut solver = Solver::new();
            let vars = encode_pinned_copy(&mut solver, &c, &[(pinned, value)]);
            assert_eq!(
                solver.solve(&[vars.lit(pinned, !value)]),
                SolveResult::Unsat
            );
            assert_eq!(solver.solve(&[vars.lit(pinned, value)]), SolveResult::Sat);
        }
    }

    #[test]
    fn tied_copies_agree_on_inputs_and_harvest_matches() {
        let c = c17();
        let mut solver = Solver::new();
        let a = encode_circuit(&mut solver, &c);
        let b = encode_circuit(&mut solver, &c);
        tie_inputs(&mut solver, (&a, c.inputs()), (&b, c.inputs()));
        assert_eq!(solver.solve(&[]), SolveResult::Sat);
        let va = harvest_input_vector(&solver, &a, c.inputs());
        let vb = harvest_input_vector(&solver, &b, c.inputs());
        assert_eq!(va, vb);

        // The packed harvest of the same model round-trips through
        // unpacking the lane.
        let words_per_input = 2;
        let mut words = vec![0u64; c.inputs().len() * words_per_input];
        for lane in [0usize, 63, 64, 127] {
            harvest_input_lane(&solver, &a, c.inputs(), &mut words, words_per_input, lane);
            let unpacked: Vec<bool> = (0..c.inputs().len())
                .map(|i| words[i * words_per_input + lane / 64] >> (lane % 64) & 1 == 1)
                .collect();
            assert_eq!(unpacked, va, "lane {lane}");
        }
    }

    #[test]
    fn blocking_forbids_the_vector() {
        let c = c17();
        let mut solver = Solver::new();
        let vars = encode_circuit(&mut solver, &c);
        let mut seen = std::collections::HashSet::new();
        // 5 inputs: exactly 32 distinct vectors exist, then UNSAT.
        for _ in 0..32 {
            assert_eq!(solver.solve(&[]), SolveResult::Sat);
            let v = harvest_input_vector(&solver, &vars, c.inputs());
            assert!(seen.insert(v.clone()), "blocked vector reappeared");
            block_input_vector(&mut solver, &vars, c.inputs(), &v);
        }
        assert_eq!(solver.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    #[should_panic(expected = "cannot pin a primary input")]
    fn pinning_an_input_is_rejected() {
        let c = c17();
        let pi = c.inputs()[0];
        let mut solver = Solver::new();
        let _ = encode_pinned_copy(&mut solver, &c, &[(pi, true)]);
    }
}
