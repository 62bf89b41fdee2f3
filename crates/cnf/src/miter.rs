//! Miter construction and SAT-based equivalence checking.
//!
//! The paper's test-sets "may be provided after test-bench simulations,
//! formal verification, or after failing a post-production test". The
//! formal-verification path is a miter: two circuits share their inputs,
//! and a SAT query asks for an input making some output pair differ. Each
//! such counterexample is precisely a failing test triple `(t, o, v)` —
//! SAT-based directed test generation for diagnosis when random
//! simulation fails to expose an error.

use crate::copies::{block_input_vector, harvest_input_vector, tie_inputs};
use crate::sink::ClauseSink;
use crate::tseitin::encode_circuit;
use gatediag_netlist::{Circuit, GateId};
use gatediag_sat::{Lit, SolveResult, Solver};

/// A distinguishing input vector plus the outputs it separates, paired
/// with the golden circuit's value for each differing output.
pub type Distinguisher = (Vec<bool>, Vec<(GateId, bool)>);

/// Checks functional equivalence of two same-interface circuits.
///
/// Returns `None` when equivalent, otherwise a distinguishing input vector
/// together with the differing outputs and their golden values.
///
/// # Panics
///
/// Panics if the interfaces differ in shape.
///
/// # Examples
///
/// ```
/// use gatediag_cnf::check_equivalence;
/// use gatediag_netlist::{c17, inject_errors};
///
/// let golden = c17();
/// assert!(check_equivalence(&golden, &golden).is_none());
/// let (faulty, _) = inject_errors(&golden, 1, 3);
/// // A gate-change error on c17 is always detectable.
/// assert!(check_equivalence(&golden, &faulty).is_some());
/// ```
pub fn check_equivalence(golden: &Circuit, faulty: &Circuit) -> Option<Distinguisher> {
    distinguishing_vectors(golden, faulty, 1).pop()
}

/// Enumerates up to `want` distinct distinguishing input vectors
/// (SAT-based directed test generation) on a miter: two plain copies with
/// tied inputs and one "this output pair differs" variable per primary
/// output, at least one of them true.
///
/// Each entry is `(vector, differing outputs with golden values)`. Fewer
/// than `want` entries are returned when the circuits admit fewer
/// distinguishing vectors.
///
/// # Panics
///
/// Panics if the interfaces differ in shape.
pub fn distinguishing_vectors(
    golden: &Circuit,
    faulty: &Circuit,
    want: usize,
) -> Vec<Distinguisher> {
    assert_eq!(
        golden.inputs().len(),
        faulty.inputs().len(),
        "input count mismatch"
    );
    assert_eq!(
        golden.outputs().len(),
        faulty.outputs().len(),
        "output count mismatch"
    );
    let mut solver = Solver::new();
    let g = encode_circuit(&mut solver, golden);
    let f = encode_circuit(&mut solver, faulty);
    tie_inputs(&mut solver, (&g, golden.inputs()), (&f, faulty.inputs()));
    // diff_o <-> (golden_o XOR faulty_o)
    let mut diffs = Vec::with_capacity(golden.outputs().len());
    for (&go, &fo) in golden.outputs().iter().zip(faulty.outputs()) {
        let d = ClauseSink::new_var(&mut solver);
        let (gl, fl) = (g.lit(go, true), f.lit(fo, true));
        solver.add_clause(&[d.negative(), gl, fl]);
        solver.add_clause(&[d.negative(), !gl, !fl]);
        solver.add_clause(&[d.positive(), !gl, fl]);
        solver.add_clause(&[d.positive(), gl, !fl]);
        diffs.push((go, d));
    }
    // At least one output differs.
    let clause: Vec<Lit> = diffs.iter().map(|&(_, d)| d.positive()).collect();
    solver.add_clause(&clause);
    let mut found = Vec::new();
    while found.len() < want && solver.solve(&[]) == SolveResult::Sat {
        let vector = harvest_input_vector(&solver, &g, golden.inputs());
        let differing = diffs
            .iter()
            .filter(|&&(_, d)| solver.model_value(d.positive()) == Some(true))
            .map(|&(o, _)| {
                let golden_value = solver
                    .model_value(g.lit(o, true))
                    .expect("model available after SAT");
                (o, golden_value)
            })
            .collect();
        block_input_vector(&mut solver, &g, golden.inputs(), &vector);
        found.push((vector, differing));
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use gatediag_netlist::{c17, inject_errors, parity_tree, RandomCircuitSpec};
    use gatediag_sim::simulate;

    #[test]
    fn identical_circuits_are_equivalent() {
        for c in [c17(), parity_tree(6)] {
            assert!(check_equivalence(&c, &c).is_none());
        }
    }

    #[test]
    fn counterexamples_really_distinguish() {
        for seed in 0..5 {
            let golden = RandomCircuitSpec::new(6, 3, 40).seed(seed).generate();
            let (faulty, _) = inject_errors(&golden, 1, seed);
            match check_equivalence(&golden, &faulty) {
                None => {
                    // The injected error must then be functionally redundant:
                    // exhaustively confirm on up to 2^6 vectors.
                    for pattern in 0..1u64 << golden.inputs().len() {
                        let vector: Vec<bool> = (0..golden.inputs().len())
                            .map(|i| pattern >> i & 1 == 1)
                            .collect();
                        assert_eq!(
                            simulate(&golden, &vector)
                                .iter()
                                .zip(golden.outputs())
                                .map(|(_, &o)| simulate(&golden, &vector)[o.index()])
                                .collect::<Vec<_>>(),
                            faulty
                                .outputs()
                                .iter()
                                .map(|&o| simulate(&faulty, &vector)[o.index()])
                                .collect::<Vec<_>>(),
                            "seed {seed}: miter said equivalent but vector differs"
                        );
                    }
                }
                Some((vector, diffs)) => {
                    assert!(!diffs.is_empty());
                    let g = simulate(&golden, &vector);
                    let f = simulate(&faulty, &vector);
                    for (o, golden_value) in diffs {
                        assert_eq!(g[o.index()], golden_value);
                        assert_ne!(f[o.index()], golden_value, "seed {seed}");
                    }
                }
            }
        }
    }

    #[test]
    fn distinguishing_vectors_are_distinct_and_valid() {
        let golden = c17();
        let (faulty, _) = inject_errors(&golden, 1, 9);
        let tests = distinguishing_vectors(&golden, &faulty, 5);
        assert!(!tests.is_empty());
        let mut seen = std::collections::HashSet::new();
        for (vector, diffs) in &tests {
            assert!(seen.insert(vector.clone()), "duplicate vector");
            let g = simulate(&golden, vector);
            let f = simulate(&faulty, vector);
            for &(o, v) in diffs {
                assert_eq!(g[o.index()], v);
                assert_ne!(f[o.index()], v);
            }
        }
    }

    #[test]
    fn exhausts_when_few_vectors_distinguish() {
        // NOT vs BUF on one input: every vector distinguishes; ask for more
        // than exist (2 input patterns).
        let golden = gatediag_netlist::parse_bench("INPUT(a)\nOUTPUT(y)\ny = BUF(a)\n").unwrap();
        let faulty = gatediag_netlist::parse_bench("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n").unwrap();
        let tests = distinguishing_vectors(&golden, &faulty, 10);
        assert_eq!(tests.len(), 2);
    }

    #[test]
    #[should_panic(expected = "input count mismatch")]
    fn rejects_interface_mismatch() {
        let a = c17();
        let b = parity_tree(4);
        let _ = check_equivalence(&a, &b);
    }
}
