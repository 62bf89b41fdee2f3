//! Circuit copies: the one encoder every copy goes through, and the
//! input tie/harvest helpers of SAT-guided discriminating-test
//! generation.
//!
//! Every SAT engine stacks Tseitin copies of a circuit into one solver,
//! and a copy differs from the plain circuit only in how some gates are
//! encoded ([`GateRole`]): *freed* (paper Definition 3: a correction may
//! drive any value there — the SAT validity backend and test
//! generation's keeper copy), *pinned* to a constant (test generation's
//! universal expansion over a candidate's free values) or *selected*
//! behind a correction multiplexer (paper Fig. 2 — BSAT, and sequential
//! BSAT over the time-frame expansion). [`encode_copy`] emits all of
//! them; [`encode_circuit`](crate::encode_circuit), [`encode_freed_copy`],
//! [`encode_pinned_copy`] and
//! [`encode_instrumented_copy`](crate::encode_instrumented_copy) are
//! one-line calls of it.
//!
//! Test-generation queries tie their copies' primary inputs together, so
//! a model is a single input vector; the harvest helpers extract it either
//! as a plain `Vec<bool>` or directly into `PackedSim`-layout pattern
//! words.

use crate::mux::{InstrumentedCopy, MuxEncoding};
use crate::sink::ClauseSink;
use crate::tseitin::{encode_gate, CircuitVars};
use gatediag_netlist::{Circuit, GateId, GateKind};
use gatediag_sat::{Lit, Solver, Var};

/// How [`encode_copy`] encodes one gate of a circuit copy.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum GateRole {
    /// The gate's defining clauses: it computes its function.
    #[default]
    Plain,
    /// No defining clauses: the solver may give the gate any value.
    Freed,
    /// A unit clause holds the gate at this constant instead of its
    /// defining clauses.
    Pinned(bool),
    /// A correction multiplexer with this select line: the gate computes
    /// its function while the select is 0 and is free while it is 1,
    /// encoded as the copy's [`MuxEncoding`] says.
    Selected(Var),
}

/// The [`GateRole`] of every gate of one circuit copy, dense by gate id.
///
/// A gate never [`set`](CopyRoles::set) is [`GateRole::Plain`], so
/// `CopyRoles::default()` describes a plain copy of any circuit. One
/// `CopyRoles` may serve many copies (BSAT's select lines are shared by
/// every test's copy).
#[derive(Clone, Debug, Default)]
pub struct CopyRoles {
    roles: Vec<GateRole>,
    /// The pinned gates, in the order their unit clauses are emitted.
    pins: Vec<(GateId, bool)>,
}

impl CopyRoles {
    /// Roles freeing `gates` (freeing a primary input is a no-op: inputs
    /// never have defining clauses).
    pub(crate) fn freed(gates: &[GateId]) -> CopyRoles {
        let mut roles = CopyRoles::default();
        for &g in gates {
            roles.set(g, GateRole::Freed);
        }
        roles
    }

    /// Roles pinning each gate of `pins` to its constant; the unit clauses
    /// follow the order of `pins`.
    pub(crate) fn pinned(pins: &[(GateId, bool)]) -> CopyRoles {
        let mut roles = CopyRoles::default();
        for &(g, value) in pins {
            roles.set(g, GateRole::Pinned(value));
        }
        roles
    }

    /// Gives `gate` its role. Pinning appends the gate's unit clause to
    /// the pin list, so set each gate once.
    pub fn set(&mut self, gate: GateId, role: GateRole) {
        let i = gate.index();
        if i >= self.roles.len() {
            self.roles.resize(i + 1, GateRole::Plain);
        }
        self.roles[i] = role;
        if let GateRole::Pinned(value) = role {
            self.pins.push((gate, value));
        }
    }

    /// The role of `gate`.
    #[inline]
    pub(crate) fn role(&self, gate: GateId) -> GateRole {
        self.roles.get(gate.index()).copied().unwrap_or_default()
    }
}

/// Encodes one circuit copy: a fresh variable per gate in gate-id order,
/// the unit clauses of the pinned gates in pin order, then every
/// non-input gate in topological order as its role in `roles` says.
///
/// This is the one loop every circuit copy in the workspace is emitted
/// by. `encoding` shapes the [`GateRole::Selected`] gates only.
///
/// # Panics
///
/// Panics if a pinned gate is a primary input: inputs are shared across
/// copies via [`tie_inputs`], so pinning one would constrain every copy.
///
/// # Examples
///
/// ```
/// use gatediag_cnf::{encode_copy, CnfCollector, CopyRoles, GateRole, MuxEncoding};
///
/// let c = gatediag_netlist::c17();
/// let mut sink = CnfCollector::new();
/// let mut roles = CopyRoles::default();
/// roles.set(c.find("G16").unwrap(), GateRole::Freed);
/// let copy = encode_copy(&mut sink, &c, &roles, MuxEncoding::Inline);
/// assert_eq!(copy.vars.all().len(), c.len());
/// ```
pub fn encode_copy<S: ClauseSink>(
    sink: &mut S,
    circuit: &Circuit,
    roles: &CopyRoles,
    encoding: MuxEncoding,
) -> InstrumentedCopy {
    let vars: Vec<Var> = (0..circuit.len()).map(|_| sink.new_var()).collect();
    let map = CircuitVars::from_vars(vars);
    for &(id, value) in &roles.pins {
        assert_ne!(
            circuit.gate(id).kind(),
            GateKind::Input,
            "cannot pin a primary input"
        );
        sink.add_clause(&[map.lit(id, value)]);
    }
    let mut injected = match encoding {
        MuxEncoding::Inline => Vec::new(),
        MuxEncoding::ExplicitMux { .. } => vec![None; circuit.len()],
    };
    let mut fanins: Vec<Lit> = Vec::new();
    for &id in circuit.topo_order() {
        let gate = circuit.gate(id);
        if gate.kind() == GateKind::Input {
            continue;
        }
        let select = match roles.role(id) {
            GateRole::Plain => None,
            GateRole::Freed | GateRole::Pinned(_) => continue,
            GateRole::Selected(s) => Some(s),
        };
        map.fanin_lits(gate, &mut fanins);
        let y = map.var(id);
        match (select, encoding) {
            (None, _) => encode_gate(sink, gate.kind(), y, &fanins, None),
            (Some(s), MuxEncoding::Inline) => {
                encode_gate(sink, gate.kind(), y, &fanins, Some(s.positive()));
            }
            (Some(s), MuxEncoding::ExplicitMux { force_c_zero }) => {
                let f = sink.new_var();
                encode_gate(sink, gate.kind(), f, &fanins, None);
                let c = sink.new_var();
                injected[id.index()] = Some(c);
                let (sp, sn) = (s.positive(), s.negative());
                // y = s ? c : f
                sink.add_clause(&[sn, c.negative(), y.positive()]);
                sink.add_clause(&[sn, c.positive(), y.negative()]);
                sink.add_clause(&[sp, f.negative(), y.positive()]);
                sink.add_clause(&[sp, f.positive(), y.negative()]);
                if force_c_zero {
                    sink.add_clause(&[sp, c.negative()]);
                }
            }
        }
    }
    InstrumentedCopy {
        vars: map,
        injected,
    }
}

/// Encodes a circuit copy with the gates in `freed` left unconstrained:
/// they still get variables (so fanouts reference them) but no defining
/// clauses, so the solver may assign them any value — the paper's
/// Definition 3 notion of a correction at those locations.
pub fn encode_freed_copy<S: ClauseSink>(
    sink: &mut S,
    circuit: &Circuit,
    freed: &[GateId],
) -> CircuitVars {
    encode_copy(sink, circuit, &CopyRoles::freed(freed), MuxEncoding::Inline).vars
}

/// Encodes a circuit copy with each gate in `pinned` forced to a constant
/// by a unit clause instead of its defining clauses — one hardwired point
/// of the universal expansion over a candidate's free values.
///
/// # Panics
///
/// Panics if a pinned gate is a primary input (see [`encode_copy`]).
pub fn encode_pinned_copy<S: ClauseSink>(
    sink: &mut S,
    circuit: &Circuit,
    pinned: &[(GateId, bool)],
) -> CircuitVars {
    encode_copy(
        sink,
        circuit,
        &CopyRoles::pinned(pinned),
        MuxEncoding::Inline,
    )
    .vars
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
