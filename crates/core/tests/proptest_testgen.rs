//! Property tests for SAT-guided discriminating-test generation: every
//! vector harvested from a solver model must round-trip through packed
//! simulation as a real failing test, and blocking clauses must actually
//! exclude previously harvested vectors from later queries.
//!
//! The unit tests in `gatediag_core::testgen` pin hand-picked scenarios;
//! here random circuit shapes, injection seeds and error multiplicities
//! are fuzzed together, so any disagreement between the CNF encoding and
//! the simulation semantics (a mis-encoded gate, a harvest bit written to
//! the wrong lane, a blocking clause over the wrong variables) surfaces
//! as a counterexample.

use gatediag_core::{
    generate_discriminating_tests, generate_failing_tests, run_engine, Budget, DiagnosisProblem,
    EngineConfig, EngineKind, Parallelism, TestSet, ValidityBackend,
};
use gatediag_netlist::{inject_errors, Circuit, GateId, GateKind, RandomCircuitSpec};
use gatediag_sim::simulate;
use proptest::prelude::*;

/// A random workload with an observable injected error: the golden and
/// faulty circuits and the failing tests.
fn workload(seed: u64, errors: usize) -> Option<(Circuit, Circuit, TestSet)> {
    let golden = RandomCircuitSpec::new(5, 3, 30).seed(seed).generate();
    let (faulty, _) = inject_errors(&golden, errors, seed);
    let tests = generate_failing_tests(&golden, &faulty, 8, seed, 1 << 13);
    if tests.is_empty() {
        return None;
    }
    Some((golden, faulty, tests))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Harvest round-trip: every test the generator emits was harvested
    /// from a SAT model into packed-simulation lanes — replaying it
    /// through plain simulation must reproduce a genuine failing test
    /// (golden's value is `expected`, the faulty circuit disagrees), and
    /// the shrinkage invariants must hold.
    #[test]
    fn harvested_tests_replay_as_real_failing_tests(
        seed in 0u64..300,
        errors in 1usize..=2,
    ) {
        let Some((golden, faulty, tests)) = workload(seed, errors) else {
            return Ok(());
        };
        let run = run_engine(
                EngineKind::Cov,
                &DiagnosisProblem::combinational(faulty.clone(), tests.clone()),
                &EngineConfig::default(),
            );
        let outcome = generate_discriminating_tests(
            &golden,
            &faulty,
            &run.solutions,
            &Budget::default(),
            Parallelism::Sequential,
            ValidityBackend::default(),
        );
        prop_assert_eq!(outcome.solutions_before, run.solutions.len());
        prop_assert!(outcome.solutions_after <= outcome.solutions_before);
        prop_assert_eq!(outcome.solutions_after, outcome.survivors.len());
        prop_assert!(
            outcome.survivors.windows(2).all(|w| w[0] < w[1]),
            "survivor indices not ascending"
        );
        for t in &outcome.tests {
            let g = simulate(&golden, &t.vector);
            let f = simulate(&faulty, &t.vector);
            // Harvested `expected` is golden's value; the faulty circuit
            // must disagree (a genuine failing test).
            prop_assert_eq!(g[t.output.index()], t.expected);
            prop_assert_ne!(f[t.output.index()], t.expected);
        }
    }

    /// Blocking round-trip: every harvested vector is blocked in every
    /// later query, so the phase's tests (in harvest order) never return
    /// to a vector they have moved past. Every single non-input gate is a
    /// candidate here, so most workloads harvest several vectors.
    #[test]
    fn blocked_vectors_never_reappear(
        seed in 0u64..300,
        errors in 1usize..=2,
    ) {
        let Some((golden, faulty, _)) = workload(seed, errors) else {
            return Ok(());
        };
        let candidates: Vec<Vec<GateId>> = faulty
            .iter()
            .filter(|(_, g)| g.kind() != GateKind::Input)
            .map(|(id, _)| vec![id])
            .collect();
        let outcome = generate_discriminating_tests(
            &golden,
            &faulty,
            &candidates,
            &Budget::default(),
            Parallelism::Sequential,
            ValidityBackend::default(),
        );
        prop_assert_eq!(outcome.truncation, None);
        let mut harvested: Vec<&Vec<bool>> = Vec::new();
        for t in &outcome.tests {
            if harvested.last() != Some(&&t.vector) {
                prop_assert!(
                    !harvested.contains(&&t.vector),
                    "blocked vector harvested again"
                );
                harvested.push(&t.vector);
            }
        }
        // One vector per refuted candidate at most.
        prop_assert!(harvested.len() <= candidates.len());
    }
}
