//! Executable versions of the paper's theory (Sec. 3): Lemmas 1-4 and
//! Theorems 1-2, checked on the Fig. 5 witnesses and on randomized
//! circuits with brute-force ground truth, plus property tests of the
//! whole inject → test → diagnose pipeline on random circuits.

use gatediag::core::paper_examples::{lemma2_witness, lemma4_witness};
use gatediag::netlist::{inject_errors, write_bench, Circuit, GateId, RandomCircuitSpec};
use gatediag::{
    basic_sat_diagnose, brute_force_covers, brute_force_diagnose, generate_failing_tests,
    is_valid_correction, run_engine, sc_diagnose, BsatOptions, BsimOptions, CovOptions,
    DiagnosisProblem, EngineConfig, EngineKind, MarkPolicy, SequenceTest, SequenceTestSet, TestSet,
    ValidityBackend, ValidityOracle,
};
use proptest::prelude::*;

/// Validity by the SAT backend, the cross-check for the auto-dispatched
/// (simulation-backed) [`is_valid_correction`].
fn sat_valid(circuit: &Circuit, tests: &TestSet, candidates: &[GateId]) -> bool {
    ValidityOracle::with_backend(circuit, ValidityBackend::Sat).is_valid(tests, candidates)
}

fn random_case(seed: u64, p: usize, m: usize) -> Option<(Circuit, Vec<GateId>, TestSet)> {
    let golden = RandomCircuitSpec::new(6, 3, 35).seed(seed).generate();
    let (faulty, sites) = inject_errors(&golden, p, seed);
    let tests = generate_failing_tests(&golden, &faulty, m, seed, 8192);
    if tests.is_empty() {
        None
    } else {
        Some((faulty, sites.iter().map(|s| s.gate).collect(), tests))
    }
}

/// Lemma 1: every solution of the BSAT instance is a valid correction.
#[test]
fn lemma1_bsat_solutions_are_valid() {
    let mut checked = 0;
    for seed in 0..8 {
        let Some((faulty, _, tests)) = random_case(seed, 2, 8) else {
            continue;
        };
        let result = basic_sat_diagnose(&faulty, &tests, 2, BsatOptions::default());
        assert!(result.complete);
        for sol in &result.solutions {
            assert!(
                is_valid_correction(&faulty, &tests, sol),
                "seed {seed}: invalid BSAT solution {sol:?}"
            );
            checked += 1;
        }
    }
    assert!(checked > 0, "no solutions were exercised");
}

/// Lemma 2 / Theorem 1: on the Fig. 5(a) witness, COV produces a solution
/// that is not a valid correction, hence not produced by BSAT.
#[test]
fn lemma2_and_theorem1_on_witness() {
    let w = lemma2_witness();
    let cov = sc_diagnose(&w.circuit, &w.tests, 2, CovOptions::default());
    let bsat = basic_sat_diagnose(&w.circuit, &w.tests, 2, BsatOptions::default());
    let invalid_covers: Vec<_> = cov
        .solutions
        .iter()
        .filter(|sol| !is_valid_correction(&w.circuit, &w.tests, sol))
        .collect();
    assert!(
        !invalid_covers.is_empty(),
        "Lemma 2 witness lost: all covers valid"
    );
    for sol in &invalid_covers {
        assert!(
            !bsat.solutions.contains(sol),
            "invalid correction {sol:?} appeared in BSAT output"
        );
    }
}

/// Lemma 3: BSAT returns exactly all irredundant valid corrections up to
/// size k — equal to the brute-force ground truth.
#[test]
fn lemma3_bsat_equals_brute_force() {
    for seed in 0..6 {
        let Some((faulty, _, tests)) = random_case(seed, 1, 6) else {
            continue;
        };
        for k in 1..=2 {
            let bsat = basic_sat_diagnose(&faulty, &tests, k, BsatOptions::default());
            let brute = brute_force_diagnose(&faulty, &tests, k);
            assert_eq!(
                bsat.solutions, brute,
                "seed {seed} k {k}: BSAT and brute force disagree"
            );
        }
    }
}

/// Lemma 4 / Theorem 2: on the Fig. 5(b) witness, a valid correction
/// exists that COV cannot produce but BSAT does.
#[test]
fn lemma4_and_theorem2_on_witness() {
    let w = lemma4_witness();
    let a = w.circuit.find("A").unwrap();
    let b = w.circuit.find("B").unwrap();
    let target = vec![a, b];
    assert!(sat_valid(&w.circuit, &w.tests, &target));
    let bsat = basic_sat_diagnose(&w.circuit, &w.tests, 2, BsatOptions::default());
    let cov = sc_diagnose(&w.circuit, &w.tests, 2, CovOptions::default());
    assert!(bsat.solutions.contains(&target));
    assert!(!cov.solutions.contains(&target));
}

/// Randomized Theorem 1 direction: every *valid* COV solution appears in
/// BSAT's output (since BSAT is complete over irredundant valid
/// corrections and COV covers are irredundant hitting sets).
#[test]
fn valid_irredundant_covers_are_found_by_bsat() {
    for seed in 0..6 {
        let Some((faulty, _, tests)) = random_case(seed, 1, 6) else {
            continue;
        };
        let cov = sc_diagnose(&faulty, &tests, 2, CovOptions::default());
        let bsat = basic_sat_diagnose(&faulty, &tests, 2, BsatOptions::default());
        for sol in &cov.solutions {
            if is_valid_correction(&faulty, &tests, sol) {
                // A valid cover may still be redundant as a correction
                // (a strict subset may already be valid); only irredundant
                // ones must appear in BSAT's output.
                let irredundant = sol.iter().all(|g| {
                    let without: Vec<GateId> = sol.iter().copied().filter(|h| h != g).collect();
                    !is_valid_correction(&faulty, &tests, &without)
                });
                if irredundant {
                    assert!(
                        bsat.solutions.contains(sol),
                        "seed {seed}: valid irredundant cover {sol:?} missing from BSAT"
                    );
                }
            }
        }
    }
}

/// The two validity oracles agree on every solution either engine emits.
#[test]
fn oracles_agree_on_engine_outputs() {
    for seed in 0..5 {
        let Some((faulty, _, tests)) = random_case(seed, 2, 6) else {
            continue;
        };
        let cov = sc_diagnose(&faulty, &tests, 2, CovOptions::default());
        let bsat = basic_sat_diagnose(&faulty, &tests, 2, BsatOptions::default());
        for sol in cov.solutions.iter().chain(&bsat.solutions) {
            assert_eq!(
                is_valid_correction(&faulty, &tests, sol),
                sat_valid(&faulty, &tests, sol),
                "oracle disagreement on {sol:?}"
            );
        }
    }
}

/// Stuck-at faults (the production-test model) are diagnosed exactly like
/// design errors: the tied gate is a valid correction and BSAT finds it.
#[test]
fn stuck_at_faults_are_diagnosable() {
    use gatediag::netlist::inject_stuck_at;
    let mut exercised = 0;
    for seed in 0..6u64 {
        let golden = RandomCircuitSpec::new(6, 3, 35).seed(seed).generate();
        let target = golden
            .iter()
            .filter(|(_, g)| !g.kind().is_source())
            .map(|(id, _)| id)
            .nth(seed as usize % 5)
            .expect("circuit has functional gates");
        for value in [false, true] {
            let faulty = inject_stuck_at(&golden, target, value);
            let tests = generate_failing_tests(&golden, &faulty, 6, seed, 8192);
            if tests.is_empty() {
                continue; // fault is redundant under random tests
            }
            let result = basic_sat_diagnose(&faulty, &tests, 1, BsatOptions::default());
            assert!(
                result.solutions.contains(&vec![target]),
                "seed {seed} sa{} at {target}: missing from {:?}",
                value as u8,
                result.solutions
            );
            exercised += 1;
        }
    }
    assert!(exercised > 0, "no stuck-at case was observable");
}

/// SAT-generated distinguishing vectors (miter-based ATPG) feed the
/// diagnosis engines exactly like random tests.
#[test]
fn miter_generated_tests_drive_diagnosis() {
    use gatediag::cnf::distinguishing_vectors;
    use gatediag::Test;
    for seed in 0..4u64 {
        let golden = RandomCircuitSpec::new(6, 3, 35).seed(seed + 50).generate();
        let (faulty, sites) = inject_errors(&golden, 1, seed);
        let vectors = distinguishing_vectors(&golden, &faulty, 6);
        if vectors.is_empty() {
            continue; // functionally redundant error
        }
        let tests: TestSet = vectors
            .into_iter()
            .flat_map(|(vector, diffs)| {
                diffs.into_iter().map(move |(output, expected)| Test {
                    vector: vector.clone(),
                    output,
                    expected,
                })
            })
            .collect();
        let result = basic_sat_diagnose(&faulty, &tests, 1, BsatOptions::default());
        assert!(
            result.solutions.contains(&vec![sites[0].gate]),
            "seed {seed}: miter tests missed the real site"
        );
        for sol in &result.solutions {
            assert!(is_valid_correction(&faulty, &tests, sol));
        }
    }
}

/// The injected error sites always form a valid correction, and with
/// k = p BSAT always returns at least one solution.
#[test]
fn injected_errors_always_diagnosable() {
    for seed in 0..8 {
        for p in 1..=3usize {
            let Some((faulty, errors, tests)) = random_case(seed * 31 + p as u64, p, 8) else {
                continue;
            };
            assert!(
                is_valid_correction(&faulty, &tests, &errors),
                "seed {seed} p {p}: real sites invalid?!"
            );
            let result = basic_sat_diagnose(&faulty, &tests, p, BsatOptions::default());
            assert!(
                !result.solutions.is_empty(),
                "seed {seed} p {p}: no corrections found though {errors:?} is valid"
            );
        }
    }
}

/// At one frame the sequential problem is the combinational one. On a
/// latch-free circuit, one-frame sequences built from a test set's vectors
/// unroll to a renumbered copy of the circuit whose instances project
/// back one to one, so `seq-bsat` equals `bsat` and `seq-bsim` equals
/// `bsim`, down to the projected candidate sets and mark counts.
#[test]
fn one_frame_sequential_problem_equals_the_combinational_one() {
    let mut checked = 0;
    for seed in 0..8 {
        let Some((faulty, _, tests)) = random_case(seed, 2, 8) else {
            continue;
        };
        let sequences: SequenceTestSet = tests
            .iter()
            .map(|t| SequenceTest {
                initial_state: Vec::new(),
                vectors: vec![t.vector.clone()],
                frame: 0,
                output: t.output,
                expected: t.expected,
            })
            .collect();
        let combinational = DiagnosisProblem::combinational(faulty.clone(), tests);
        let sequential = DiagnosisProblem::sequential(faulty, sequences);
        let config = EngineConfig {
            k: 2,
            ..EngineConfig::default()
        };
        for (seq, comb) in [
            (EngineKind::SeqBsat, EngineKind::Bsat),
            (EngineKind::SeqBsim, EngineKind::Bsim),
        ] {
            let s = run_engine(seq, &sequential, &config);
            let c = run_engine(comb, &combinational, &config);
            assert!(c.complete, "seed {seed}: {comb} truncated");
            assert_eq!(
                (&s.solutions, &s.candidates, s.complete),
                (&c.solutions, &c.candidates, c.complete),
                "seed {seed}: {seq} differs from {comb}"
            );
        }
        for policy in [MarkPolicy::FirstControlling, MarkPolicy::AllControlling] {
            let options = BsimOptions {
                policy,
                ..BsimOptions::default()
            };
            let s = sequential.trace(options);
            let c = combinational.trace(options);
            assert_eq!(s.candidate_sets, c.candidate_sets, "seed {seed} {policy:?}");
            assert_eq!(s.mark_counts, c.mark_counts, "seed {seed} {policy:?}");
        }
        checked += 1;
    }
    assert!(checked > 0, "no workload was exercised");
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

    /// Fig. 4 as a property: COV's complete covers equal the brute-force
    /// irredundant covers of its BSIM candidate sets.
    #[test]
    fn cov_equals_brute_force_covers(case in case_strategy()) {
        let Some((faulty, _, tests)) = build(&case) else { return Ok(()); };
        let cov = sc_diagnose(&faulty, &tests, 2, CovOptions::default());
        prop_assert!(cov.complete);
        let sets: Vec<Vec<GateId>> = cov
            .bsim
            .as_ref()
            .expect("sc_diagnose keeps its BSIM result")
            .candidate_sets
            .iter()
            .map(|set| set.iter().collect())
            .collect();
        prop_assert_eq!(cov.solutions, brute_force_covers(&sets, 2));
    }

    /// BSAT's solutions pass both validity oracles identically.
    #[test]
    fn engine_solutions_are_coherent(case in case_strategy()) {
        let Some((faulty, _, tests)) = build(&case) else { return Ok(()); };
        let bsat = basic_sat_diagnose(&faulty, &tests, 2, BsatOptions::default());
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
