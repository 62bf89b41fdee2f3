//! Correction-multiplexer instrumentation (Fig. 2 of the paper).
//!
//! SAT-based diagnosis inserts a multiplexer at every candidate gate: when
//! the shared select line `s_g` is 0 the gate drives its normal function;
//! when `s_g` is 1 the gate's value is freed (an arbitrary per-test value,
//! modelling replacement by an arbitrary Boolean function).
//!
//! Two encodings are provided:
//!
//! * [`MuxEncoding::Inline`] — each defining clause of the gate is guarded
//!   with the select literal, freeing the output when selected. No extra
//!   variables; this is the efficient modern formulation.
//! * [`MuxEncoding::ExplicitMux`] — the paper-faithful construction: a
//!   fresh variable `f` for the original function, a fresh free variable
//!   `c` for the injected value, and mux clauses `y = s ? c : f`. The
//!   `force_c_zero` flag reproduces the advanced-approach optimisation
//!   (Sec. 2.3) that pins `c` to 0 while the mux is off, saving up to |I|
//!   decisions.

use crate::copies::{encode_copy, CopyRoles, GateRole};
use crate::sink::ClauseSink;
use crate::tseitin::CircuitVars;
use gatediag_netlist::{Circuit, GateId, GateKind};
use gatediag_sat::Var;

/// Choice of multiplexer encoding (see module docs).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum MuxEncoding {
    /// Guard each gate clause with the select literal (no extra variables).
    #[default]
    Inline,
    /// Explicit `y = s ? c : f` construction from the paper's Fig. 2.
    ExplicitMux {
        /// Add `s ∨ ¬c` clauses pinning the injected value to 0 while the
        /// mux is off (the advanced-approach search-space reduction).
        force_c_zero: bool,
    },
}

/// Shared select lines over the instrumented gate sites.
///
/// One select variable per site, shared by every encoded circuit copy, so a
/// gate is corrected for all tests or none (the key BSAT property). A site
/// may stand for several gates of the encoded circuit, its *instances*:
/// over a time-frame expansion a gate-change error acts in every frame, so
/// one select guards the gate's instance in each frame.
#[derive(Clone, Debug)]
pub struct Instrumentation {
    sites: Vec<GateId>,
    /// `selects[i]` is the select of `sites[i]`.
    selects: Vec<Var>,
    /// [`GateRole::Selected`] at every instance of every site.
    roles: CopyRoles,
}

impl Instrumentation {
    /// Allocates one select variable per site, in site order, guarding the
    /// gates `instances(site)` of the encoded `circuit`. A combinational
    /// copy passes `std::iter::once`: each site is its own one instance.
    ///
    /// # Panics
    ///
    /// Panics if an instance is a primary input (inputs cannot be
    /// corrected) or is listed twice.
    pub fn new<S, I>(
        sink: &mut S,
        circuit: &Circuit,
        sites: &[GateId],
        instances: impl Fn(GateId) -> I,
    ) -> Self
    where
        S: ClauseSink,
        I: IntoIterator<Item = GateId>,
    {
        let mut roles = CopyRoles::default();
        let mut selects = Vec::with_capacity(sites.len());
        for &site in sites {
            let select = sink.new_var();
            for gate in instances(site) {
                assert!(
                    circuit.gate(gate).kind() != GateKind::Input,
                    "cannot instrument primary input {gate}"
                );
                assert!(
                    roles.role(gate) == GateRole::Plain,
                    "gate {gate} instrumented twice"
                );
                roles.set(gate, GateRole::Selected(select));
            }
            selects.push(select);
        }
        Instrumentation {
            sites: sites.to_vec(),
            selects,
            roles,
        }
    }

    /// The instrumented sites, in construction order.
    pub fn sites(&self) -> &[GateId] {
        &self.sites
    }

    /// The select variable guarding `gate` of the encoded circuit, if any.
    pub fn select(&self, gate: GateId) -> Option<Var> {
        match self.roles.role(gate) {
            GateRole::Selected(s) => Some(s),
            _ => None,
        }
    }

    /// All select variables, parallel to [`Instrumentation::sites`].
    pub fn select_vars(&self) -> &[Var] {
        &self.selects
    }
}

/// One instrumented circuit copy.
#[derive(Clone, Debug)]
pub struct InstrumentedCopy {
    /// Gate-value variables of this copy.
    pub vars: CircuitVars,
    /// The per-copy injected-value variables, dense by gate id under the
    /// `ExplicitMux` encoding and empty under `Inline`.
    pub injected: Vec<Option<Var>>,
}

/// Encodes one circuit copy with correction muxes at the instrumented
/// sites. Select lines come from `inst` and are shared across copies.
///
/// # Examples
///
/// ```
/// use gatediag_cnf::{encode_instrumented_copy, Instrumentation, MuxEncoding};
/// use gatediag_sat::Solver;
///
/// let c = gatediag_netlist::c17();
/// let site = c.find("G16").unwrap();
/// let mut solver = Solver::new();
/// let inst = Instrumentation::new(&mut solver, &c, &[site], std::iter::once);
/// let copy = encode_instrumented_copy(&mut solver, &c, &inst, MuxEncoding::Inline);
/// assert_eq!(copy.vars.all().len(), c.len());
/// ```
pub fn encode_instrumented_copy<S: ClauseSink>(
    sink: &mut S,
    circuit: &Circuit,
    inst: &Instrumentation,
    encoding: MuxEncoding,
) -> InstrumentedCopy {
    encode_copy(sink, circuit, &inst.roles, encoding)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gatediag_netlist::c17;
    use gatediag_sat::{SolveResult, Solver};
    use gatediag_sim::simulate;

    fn all_encodings() -> [MuxEncoding; 3] {
        [
            MuxEncoding::Inline,
            MuxEncoding::ExplicitMux {
                force_c_zero: false,
            },
            MuxEncoding::ExplicitMux { force_c_zero: true },
        ]
    }

    #[test]
    fn unselected_muxes_behave_like_plain_circuit() {
        let c = c17();
        for encoding in all_encodings() {
            let sites: Vec<_> = c
                .iter()
                .filter(|(_, g)| !g.kind().is_source())
                .map(|(id, _)| id)
                .collect();
            let mut solver = Solver::new();
            let inst = Instrumentation::new(&mut solver, &c, &sites, std::iter::once);
            let copy = encode_instrumented_copy(&mut solver, &c, &inst, encoding);
            // All selects off.
            for v in inst.select_vars() {
                solver.add_clause(&[v.negative()]);
            }
            for pattern in 0..32u32 {
                let vector: Vec<bool> = (0..5).map(|i| pattern >> i & 1 == 1).collect();
                let assumptions: Vec<_> = c
                    .inputs()
                    .iter()
                    .zip(&vector)
                    .map(|(&pi, &v)| copy.vars.lit(pi, v))
                    .collect();
                assert_eq!(solver.solve(&assumptions), SolveResult::Sat);
                let expected = simulate(&c, &vector);
                for (id, _) in c.iter() {
                    assert_eq!(
                        solver.model_value(copy.vars.lit(id, true)),
                        Some(expected[id.index()]),
                        "{encoding:?} gate {id}"
                    );
                }
            }
        }
    }

    #[test]
    fn selected_mux_frees_the_gate() {
        let c = c17();
        let site = c.find("G16").unwrap();
        let out = c.find("G22").unwrap();
        for encoding in all_encodings() {
            let mut solver = Solver::new();
            let inst = Instrumentation::new(&mut solver, &c, &[site], std::iter::once);
            let copy = encode_instrumented_copy(&mut solver, &c, &inst, encoding);
            let s = inst.select(site).unwrap();
            // Fix one input vector; with the mux on, both values of the
            // freed gate (and of the output) must be reachable. G1=0 makes
            // G10 = NAND(G1,G3) = 1, so G22 = NAND(G10,G16) = !G16 is
            // sensitive to the freed gate.
            let vector = [false, true, true, true, true];
            let mut assumptions: Vec<_> = c
                .inputs()
                .iter()
                .zip(vector.iter())
                .map(|(&pi, &v)| copy.vars.lit(pi, v))
                .collect();
            assumptions.push(s.positive());
            for val in [false, true] {
                let mut a = assumptions.clone();
                a.push(copy.vars.lit(site, val));
                assert_eq!(
                    solver.solve(&a),
                    SolveResult::Sat,
                    "{encoding:?}: freed gate cannot take value {val}"
                );
            }
            // And the downstream output actually changes with the choice.
            let mut seen = std::collections::HashSet::new();
            for val in [false, true] {
                let mut a = assumptions.clone();
                a.push(copy.vars.lit(site, val));
                solver.solve(&a);
                seen.insert(solver.model_value(copy.vars.lit(out, true)).unwrap());
            }
            assert_eq!(seen.len(), 2, "{encoding:?}: mux has no downstream effect");
        }
    }

    #[test]
    fn force_c_zero_pins_injected_value() {
        let c = c17();
        let site = c.find("G16").unwrap();
        let mut solver = Solver::new();
        let inst = Instrumentation::new(&mut solver, &c, &[site], std::iter::once);
        let copy = encode_instrumented_copy(
            &mut solver,
            &c,
            &inst,
            MuxEncoding::ExplicitMux { force_c_zero: true },
        );
        let s = inst.select(site).unwrap();
        let cvar = copy.injected[site.index()].unwrap();
        // With the mux off, c must be 0.
        assert_eq!(
            solver.solve(&[s.negative(), cvar.positive()]),
            SolveResult::Unsat
        );
        assert_eq!(
            solver.solve(&[s.negative(), cvar.negative()]),
            SolveResult::Sat
        );
    }

    #[test]
    #[should_panic(expected = "primary input")]
    fn rejects_input_site() {
        let c = c17();
        let pi = c.inputs()[0];
        let mut solver = Solver::new();
        let _ = Instrumentation::new(&mut solver, &c, &[pi], std::iter::once);
    }

    #[test]
    #[should_panic(expected = "instrumented twice")]
    fn rejects_duplicate_site() {
        let c = c17();
        let site = c.find("G16").unwrap();
        let mut solver = Solver::new();
        let _ = Instrumentation::new(&mut solver, &c, &[site, site], std::iter::once);
    }
}
