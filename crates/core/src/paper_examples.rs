//! The paper's witness circuits (Fig. 5) as reusable fixtures.
//!
//! These two tiny circuits carry the theoretical payload of Sec. 3:
//!
//! * [`lemma2_witness`] — a cover returned by COV that is *not* a valid
//!   correction (Lemma 2 ⇒ Theorem 1);
//! * [`lemma4_witness`] — a valid correction that COV can never return
//!   because path tracing never marks one of its gates (Lemma 4 ⇒
//!   Theorem 2).
//!
//! The circuits are reconstructed from the lemma proofs (the figure's gate
//! labels are preserved via gate names); the tests in this module and the
//! `relations` integration tests verify that each circuit exhibits exactly
//! the behaviour the proofs claim.

use crate::test_set::{Test, TestSet};
use gatediag_netlist::{Circuit, CircuitBuilder, GateKind};

/// A witness fixture: a faulty circuit plus the single failing test from
/// the paper's figure.
#[derive(Clone, Debug)]
pub struct Witness {
    /// The circuit under diagnosis.
    pub circuit: Circuit,
    /// The single-test test-set of the figure.
    pub tests: TestSet,
}

/// Fig. 5(a): the erroneous output can only be fixed by touching `A` or
/// `D` (or the output itself), yet `{B}` (or `{C}`) covers the single
/// path-tracing candidate set.
///
/// Construction: `A = AND(x1, x2)` with `x1 = x2 = 1`, `B = BUF(A)`,
/// `C = BUF(A)`, `D = NOR(B, C)` as output. The output reads 0 but should
/// be 1. Both of `D`'s inputs carry the NOR's controlling value 1, so path
/// tracing marks exactly one of `B`/`C` — giving `C_1 = {A, B, D}` (or
/// `{A, C, D}`). `{B}` covers `C_1`, but forcing `B` alone leaves
/// `D = NOR(·, 1) = 0`: not a valid correction.
pub fn lemma2_witness() -> Witness {
    let mut b = CircuitBuilder::new();
    b.name("fig5a");
    let x1 = b.input("x1");
    let x2 = b.input("x2");
    let a = b.gate(GateKind::And, vec![x1, x2], "A");
    let gb = b.gate(GateKind::Buf, vec![a], "B");
    let gc = b.gate(GateKind::Buf, vec![a], "C");
    let d = b.gate(GateKind::Nor, vec![gb, gc], "D");
    b.output(d);
    let circuit = b.finish().expect("fig5a is well-formed");
    let tests = TestSet::new(vec![Test {
        vector: vec![true, true],
        output: d,
        expected: true,
    }]);
    Witness { circuit, tests }
}

/// Fig. 5(b): `{A, B}` is a valid correction for `k = 2`, but path tracing
/// produces the single candidate set `{A, C, D, E}` which does not contain
/// `B` — so COV can never report `{A, B}`.
///
/// Construction (inputs `a = b = 1`, `c = 0`):
/// `A = AND(a, b) = 1`, `B = AND(b, c) = 0`, `C = NOT(A) = 0`,
/// `D = AND(C, B) = 0`, `E = BUF(D) = 0` as output, expected 1.
/// At `D` both inputs are 0 (AND-controlling); tracing marks the first
/// fan-in `C` and proceeds through `A`, never touching `B`. Changing
/// `A` and `B` together (`A → 0 ⇒ C = 1`, `B → 1`) makes
/// `D = 1 ⇒ E = 1`: a valid, irredundant size-2 correction.
pub fn lemma4_witness() -> Witness {
    let mut bld = CircuitBuilder::new();
    bld.name("fig5b");
    let a_in = bld.input("a");
    let b_in = bld.input("b");
    let c_in = bld.input("c");
    let a = bld.gate(GateKind::And, vec![a_in, b_in], "A");
    let b = bld.gate(GateKind::And, vec![b_in, c_in], "B");
    let c = bld.gate(GateKind::Not, vec![a], "C");
    let d = bld.gate(GateKind::And, vec![c, b], "D");
    let e = bld.gate(GateKind::Buf, vec![d], "E");
    bld.output(e);
    let circuit = bld.finish().expect("fig5b is well-formed");
    let tests = TestSet::new(vec![Test {
        vector: vec![true, true, false],
        output: e,
        expected: true,
    }]);
    Witness { circuit, tests }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bsat::{basic_sat_diagnose, BsatOptions};
    use crate::bsim::{basic_sim_diagnose, BsimOptions};
    use crate::cov::{sc_diagnose, CovOptions};
    use crate::validity::{is_valid_correction, ValidityBackend, ValidityOracle};
    use gatediag_sim::simulate;

    #[test]
    fn lemma2_figure_values_match() {
        let w = lemma2_witness();
        let v = simulate(&w.circuit, &w.tests.tests()[0].vector);
        let d = w.circuit.find("D").unwrap();
        assert!(!v[d.index()], "output must be erroneous 0 (expected 1)");
    }

    #[test]
    fn lemma2_path_trace_marks_a_b_d() {
        let w = lemma2_witness();
        let bsim = basic_sim_diagnose(&w.circuit, &w.tests, BsimOptions::default());
        let names: Vec<&str> = bsim.candidate_sets[0]
            .iter()
            .map(|g| w.circuit.gate_name(g).unwrap())
            .collect();
        assert_eq!(names, vec!["A", "B", "D"]);
    }

    #[test]
    fn lemma2_cover_b_is_not_a_valid_correction() {
        let w = lemma2_witness();
        let cov = sc_diagnose(&w.circuit, &w.tests, 2, CovOptions::default());
        let b = w.circuit.find("B").unwrap();
        // {B} is a COV solution (it hits the single candidate set)...
        assert!(
            cov.solutions.contains(&vec![b]),
            "{{B}} should be a cover: {:?}",
            cov.solutions
        );
        // ...but it is not a valid correction (Lemma 2).
        assert!(!is_valid_correction(&w.circuit, &w.tests, &[b]));
        let mut sat = ValidityOracle::with_backend(&w.circuit, ValidityBackend::Sat);
        assert!(!sat.is_valid(&w.tests, &[b]));
    }

    #[test]
    fn lemma2_theorem1_cov_minus_bsat_nonempty() {
        let w = lemma2_witness();
        let cov = sc_diagnose(&w.circuit, &w.tests, 2, CovOptions::default());
        let bsat = basic_sat_diagnose(&w.circuit, &w.tests, 2, BsatOptions::default());
        // Theorem 1: some COV solution is not a BSAT solution.
        assert!(cov
            .solutions
            .iter()
            .any(|sol| !bsat.solutions.contains(sol)));
        // And all BSAT solutions are valid (Lemma 1).
        for sol in &bsat.solutions {
            assert!(is_valid_correction(&w.circuit, &w.tests, sol));
        }
    }

    #[test]
    fn lemma4_figure_values_match() {
        let w = lemma4_witness();
        let v = simulate(&w.circuit, &w.tests.tests()[0].vector);
        let c = &w.circuit;
        assert!(v[c.find("A").unwrap().index()]);
        assert!(!v[c.find("B").unwrap().index()]);
        assert!(!v[c.find("C").unwrap().index()]);
        assert!(!v[c.find("D").unwrap().index()]);
        assert!(!v[c.find("E").unwrap().index()], "output erroneous 0");
    }

    #[test]
    fn lemma4_path_trace_marks_acde_only() {
        let w = lemma4_witness();
        let bsim = basic_sim_diagnose(&w.circuit, &w.tests, BsimOptions::default());
        let names: Vec<&str> = bsim.candidate_sets[0]
            .iter()
            .map(|g| w.circuit.gate_name(g).unwrap())
            .collect();
        assert_eq!(names, vec!["A", "C", "D", "E"]);
    }

    #[test]
    fn lemma4_ab_is_valid_but_cov_misses_it() {
        let w = lemma4_witness();
        let a = w.circuit.find("A").unwrap();
        let b = w.circuit.find("B").unwrap();
        // {A, B} is a valid correction...
        assert!(is_valid_correction(&w.circuit, &w.tests, &[a, b]));
        let mut sat = ValidityOracle::with_backend(&w.circuit, ValidityBackend::Sat);
        assert!(sat.is_valid(&w.tests, &[a, b]));
        // ...and irredundant (neither singleton suffices)...
        assert!(!is_valid_correction(&w.circuit, &w.tests, &[a]));
        assert!(!is_valid_correction(&w.circuit, &w.tests, &[b]));
        // ...BSAT with k=2 finds it (Lemma 3)...
        let bsat = basic_sat_diagnose(&w.circuit, &w.tests, 2, BsatOptions::default());
        assert!(
            bsat.solutions.contains(&vec![a, b]),
            "BSAT must find {{A,B}}: {:?}",
            bsat.solutions
        );
        // ...but COV cannot (Lemma 4 / Theorem 2).
        let cov = sc_diagnose(&w.circuit, &w.tests, 2, CovOptions::default());
        assert!(
            !cov.solutions.contains(&vec![a, b]),
            "COV must miss {{A,B}}: {:?}",
            cov.solutions
        );
    }

    #[test]
    fn lemma4_bsat_singletons_are_d_and_e() {
        let w = lemma4_witness();
        let d = w.circuit.find("D").unwrap();
        let e = w.circuit.find("E").unwrap();
        let bsat = basic_sat_diagnose(&w.circuit, &w.tests, 1, BsatOptions::default());
        assert_eq!(bsat.solutions, vec![vec![d], vec![e]]);
    }
}
