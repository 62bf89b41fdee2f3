//! Cross-crate property tests: the full inject → test → diagnose pipeline
//! on randomized circuits, checking engine agreements and soundness
//! end-to-end.

use gatediag::netlist::{inject_errors, write_bench, Circuit, GateId, RandomCircuitSpec};
use gatediag::{
    basic_sat_diagnose, brute_force_diagnose, generate_failing_tests, is_valid_correction,
    sc_diagnose, sim_backtrack_diagnose, BsatOptions, CovEngine, CovOptions, SimBacktrackOptions,
    TestSet, ValidityBackend, ValidityOracle,
};
use proptest::prelude::*;

/// Validity by the SAT backend, the cross-check for the auto-dispatched
/// (simulation-backed) [`is_valid_correction`].
fn sat_valid(circuit: &Circuit, tests: &TestSet, candidates: &[GateId]) -> bool {
    ValidityOracle::with_backend(circuit, ValidityBackend::Sat).is_valid(tests, candidates)
}

#[derive(Clone, Debug)]
struct Case {
    seed: u64,
    p: usize,
    m: usize,
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (0u64..2_000, 1usize..=2, 2usize..=6).prop_map(|(seed, p, m)| Case { seed, p, m })
}

fn build(case: &Case) -> Option<(Circuit, Vec<GateId>, TestSet)> {
    let golden = RandomCircuitSpec::new(5, 3, 30).seed(case.seed).generate();
    let (faulty, sites) = inject_errors(&golden, case.p, case.seed);
    let tests = generate_failing_tests(&golden, &faulty, case.m, case.seed, 4096);
    if tests.is_empty() {
        None
    } else {
        Some((faulty, sites.iter().map(|s| s.gate).collect(), tests))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Lemma 3 as a property: BSAT output equals the brute-force set of
    /// irredundant valid corrections on arbitrary random instances.
    #[test]
    fn bsat_equals_ground_truth(case in case_strategy()) {
        let Some((faulty, _, tests)) = build(&case) else { return Ok(()); };
        let k = case.p.min(2);
        let bsat = basic_sat_diagnose(&faulty, &tests, k, BsatOptions::default());
        prop_assert!(bsat.complete);
        let brute = brute_force_diagnose(&faulty, &tests, k);
        prop_assert_eq!(bsat.solutions, brute);
    }

    /// The two COV engines agree on the complete solution list.
    #[test]
    fn cov_engines_agree(case in case_strategy()) {
        let Some((faulty, _, tests)) = build(&case) else { return Ok(()); };
        let sat = sc_diagnose(&faulty, &tests, 2, CovOptions::default());
        let bnb = sc_diagnose(
            &faulty,
            &tests,
            2,
            CovOptions { engine: CovEngine::BranchAndBound, ..CovOptions::default() },
        );
        prop_assert_eq!(sat.solutions, bnb.solutions);
    }

    /// Every engine's solutions pass both validity oracles identically,
    /// and every advanced-sim solution appears in BSAT's complete set.
    #[test]
    fn engine_solutions_are_coherent(case in case_strategy()) {
        let Some((faulty, _, tests)) = build(&case) else { return Ok(()); };
        let bsat = basic_sat_diagnose(&faulty, &tests, 2, BsatOptions::default());
        let sim = sim_backtrack_diagnose(&faulty, &tests, 2, SimBacktrackOptions::default());
        for sol in &sim {
            prop_assert!(bsat.solutions.contains(sol), "{:?} not in BSAT", sol);
        }
        for sol in &bsat.solutions {
            prop_assert!(is_valid_correction(&faulty, &tests, sol));
            prop_assert!(sat_valid(&faulty, &tests, sol));
        }
    }

    /// `.bench` round-trip preserves diagnosis behaviour: parsing the
    /// written netlist yields a circuit with identical BSAT solutions
    /// (modulo the id relabeling, compared via gate names).
    #[test]
    fn bench_round_trip_preserves_diagnosis(case in case_strategy()) {
        let Some((faulty, _, tests)) = build(&case) else { return Ok(()); };
        let text = write_bench(&faulty);
        let reparsed = gatediag::netlist::parse_bench(&text).expect("round trip parses");
        prop_assert_eq!(reparsed.num_functional_gates(), faulty.num_functional_gates());
        // Re-map the tests: inputs/outputs keep names.
        let remap = |g: GateId| -> GateId {
            let name = faulty.gate_name(g).expect("generated gates are named");
            reparsed.find(name).expect("name survives round trip")
        };
        let remapped: TestSet = tests
            .iter()
            .map(|t| {
                // Input ORDER may differ after reparse; rebuild by name.
                let mut vector = vec![false; reparsed.inputs().len()];
                for (&pi, &v) in faulty.inputs().iter().zip(&t.vector) {
                    let new_pi = remap(pi);
                    let pos = reparsed
                        .inputs()
                        .iter()
                        .position(|&x| x == new_pi)
                        .expect("input stays an input");
                    vector[pos] = v;
                }
                gatediag::Test { vector, output: remap(t.output), expected: t.expected }
            })
            .collect();
        let a = basic_sat_diagnose(&faulty, &tests, 1, BsatOptions::default());
        let b = basic_sat_diagnose(&reparsed, &remapped, 1, BsatOptions::default());
        let a_names: Vec<Vec<&str>> = a
            .solutions
            .iter()
            .map(|sol| sol.iter().map(|&g| faulty.gate_name(g).unwrap()).collect())
            .collect();
        let mut b_names: Vec<Vec<&str>> = b
            .solutions
            .iter()
            .map(|sol| sol.iter().map(|&g| reparsed.gate_name(g).unwrap()).collect())
            .collect();
        for sol in &mut b_names {
            sol.sort();
        }
        let mut a_sorted = a_names;
        for sol in &mut a_sorted {
            sol.sort();
        }
        a_sorted.sort();
        b_names.sort();
        prop_assert_eq!(a_sorted, b_names);
    }

    /// More tests can only shrink or keep BSAT's solution set at k=1
    /// (additional constraints never add size-1 corrections).
    #[test]
    fn more_tests_never_add_singleton_solutions(case in case_strategy()) {
        let Some((faulty, _, tests)) = build(&case) else { return Ok(()); };
        if tests.len() < 2 { return Ok(()); }
        let half = tests.prefix(tests.len() / 2);
        let small = basic_sat_diagnose(&faulty, &half, 1, BsatOptions::default());
        let big = basic_sat_diagnose(&faulty, &tests, 1, BsatOptions::default());
        for sol in &big.solutions {
            prop_assert!(
                small.solutions.contains(sol),
                "{:?} appeared only with more tests", sol
            );
        }
    }
}
