//! No-behavioral-drift guard for the packed/incremental hot-path rewrite.
//!
//! The BSIM batching and validity screening were rewritten from per-test scalar simulation to `PackedSim` sweeps. These
//! tests pin the rewritten entry points against straightforward
//! reimplementations of the seed's scalar algorithms: candidate sets,
//! mark counts and verdicts must be *bit-identical* on the paper examples
//! and on randomly generated circuits.

use gatediag_core::{
    basic_sim_diagnose, generate_failing_tests, path_trace, BsimOptions, BsimResult, MarkPolicy,
    Test, TestSet, ValidityBackend, ValidityOracle,
};
use gatediag_netlist::{c17, inject_errors, GateId, GateSet, RandomCircuitSpec};
use gatediag_sim::{simulate, simulate_forced};

/// Validity by the forced-value simulation backend, one fresh oracle per
/// call.
fn sim_valid(circuit: &gatediag_netlist::Circuit, tests: &TestSet, candidates: &[GateId]) -> bool {
    ValidityOracle::with_backend(circuit, ValidityBackend::Sim).is_valid(tests, candidates)
}

/// The seed's `basic_sim_diagnose`: one scalar simulation per test.
fn reference_bsim(
    circuit: &gatediag_netlist::Circuit,
    tests: &TestSet,
    options: BsimOptions,
) -> BsimResult {
    let mut candidate_sets = Vec::with_capacity(tests.len());
    let mut mark_counts = vec![0u32; circuit.len()];
    let mut union = GateSet::new(circuit.len());
    for test in tests {
        let values = simulate(circuit, &test.vector);
        let marked = path_trace(circuit, &values, test.output, options);
        for g in marked.iter() {
            mark_counts[g.index()] += 1;
        }
        union.union_with(&marked);
        candidate_sets.push(marked);
    }
    let work = candidate_sets.len() as u64;
    BsimResult {
        candidate_sets,
        mark_counts,
        union,
        truncation: None,
        work,
    }
}

/// The seed's validity oracle: per test, scalar simulation of every
/// forced-value combination.
fn reference_validity(
    circuit: &gatediag_netlist::Circuit,
    tests: &TestSet,
    candidates: &[GateId],
) -> bool {
    tests.iter().all(|t| {
        let combos = 1u64 << candidates.len();
        (0..combos).any(|combo| {
            let forced: Vec<(GateId, bool)> = candidates
                .iter()
                .enumerate()
                .map(|(i, &g)| (g, combo >> i & 1 == 1))
                .collect();
            let values = simulate_forced(circuit, &t.vector, &forced);
            values[t.output.index()] == t.expected
        })
    })
}

fn workloads() -> Vec<(gatediag_netlist::Circuit, Vec<GateId>, TestSet)> {
    let mut out = Vec::new();
    // Paper example circuit.
    for seed in 0..4u64 {
        let golden = c17();
        let (faulty, sites) = inject_errors(&golden, 1, seed);
        let tests = generate_failing_tests(&golden, &faulty, 8, seed, 4096);
        if !tests.is_empty() {
            out.push((faulty, sites.iter().map(|s| s.gate).collect(), tests));
        }
    }
    // Random circuits, 1-2 injected errors, enough tests to span
    // multiple 64-lane words in the BSIM batch.
    for seed in 0..6u64 {
        let golden = RandomCircuitSpec::new(7, 3, 60).seed(seed).generate();
        let p = 1 + (seed as usize % 2);
        let (faulty, sites) = inject_errors(&golden, p, seed);
        let tests = generate_failing_tests(&golden, &faulty, 80, seed, 1 << 14);
        if !tests.is_empty() {
            out.push((faulty, sites.iter().map(|s| s.gate).collect(), tests));
        }
    }
    out
}

#[test]
fn bsim_is_bit_identical_to_scalar_reference() {
    for (faulty, _, tests) in workloads() {
        for policy in [MarkPolicy::FirstControlling, MarkPolicy::AllControlling] {
            for include_inputs in [false, true] {
                let options = BsimOptions {
                    policy,
                    include_inputs,
                    ..BsimOptions::default()
                };
                let fast = basic_sim_diagnose(&faulty, &tests, options);
                let reference = reference_bsim(&faulty, &tests, options);
                assert_eq!(fast.mark_counts, reference.mark_counts);
                assert_eq!(fast.candidate_sets, reference.candidate_sets);
                assert_eq!(
                    fast.union.iter().collect::<Vec<_>>(),
                    reference.union.iter().collect::<Vec<_>>()
                );
                assert_eq!(fast.gmax(), reference.gmax());
            }
        }
    }
}

#[test]
fn bsim_batches_beyond_one_word_per_sweep() {
    // At least one workload must exceed 64 tests so the multi-word sweep
    // path is exercised, not just the single-word fast path.
    assert!(
        workloads().iter().any(|(_, _, t)| t.len() > 64),
        "no workload spans multiple pattern words"
    );
}

#[test]
fn validity_verdicts_are_bit_identical_to_scalar_reference() {
    for (faulty, errors, tests) in workloads() {
        let functional: Vec<GateId> = faulty
            .iter()
            .filter(|(_, g)| !g.kind().is_source())
            .map(|(id, _)| id)
            .collect();
        // Real error sites (valid) plus sliding windows of functional
        // gates (a mix of valid and invalid candidate sets).
        let mut candidate_sets: Vec<Vec<GateId>> = vec![errors.clone()];
        for start in (0..functional.len().saturating_sub(3)).step_by(7) {
            candidate_sets.push(functional[start..start + 3].to_vec());
            candidate_sets.push(vec![functional[start]]);
        }
        candidate_sets.push(Vec::new());
        for candidates in candidate_sets {
            let small = tests.prefix_at_most(6);
            assert_eq!(
                sim_valid(&faulty, &small, &candidates),
                reference_validity(&faulty, &small, &candidates),
                "verdict drift on {candidates:?}"
            );
        }
    }
}

#[test]
fn validity_multiword_and_multibatch_paths_match_reference() {
    // 7 candidates -> 128 combos -> 2 words per gate (multi-word path);
    // 11 candidates -> 2048 combos -> two batches at the 16-word
    // SCREEN_WORDS cap (batch-restart path). Both must agree with the
    // scalar exhaustive reference, from multiple circuit regions so both
    // verdicts are plausible.
    let mut exercised = 0;
    for seed in 0..8u64 {
        let golden = RandomCircuitSpec::new(7, 3, 60).seed(seed).generate();
        let (faulty, _) = inject_errors(&golden, 1, seed);
        let tests = generate_failing_tests(&golden, &faulty, 4, seed, 1 << 14);
        if tests.is_empty() {
            continue;
        }
        let functional: Vec<GateId> = faulty
            .iter()
            .filter(|(_, g)| !g.kind().is_source())
            .map(|(id, _)| id)
            .collect();
        for size in [7usize, 11] {
            if functional.len() < size {
                continue;
            }
            for candidates in [&functional[..size], &functional[functional.len() - size..]] {
                exercised += 1;
                assert_eq!(
                    sim_valid(&faulty, &tests, candidates),
                    reference_validity(&faulty, &tests, candidates),
                    "seed {seed}: verdict drift on |C| = {size}"
                );
            }
        }
        if exercised >= 8 {
            break;
        }
    }
    assert!(exercised >= 4, "wide candidate sets never exercised");
}

#[test]
fn empty_test_set_edge_cases_agree() {
    let c = c17();
    let empty = TestSet::default();
    let fast = basic_sim_diagnose(&c, &empty, BsimOptions::default());
    assert!(fast.candidate_sets.is_empty());
    assert!(sim_valid(&c, &empty, &[]));
}

#[test]
fn single_test_struct_roundtrip() {
    // Path tracing through the public scalar API still matches the packed
    // diagnose on a hand-built test.
    let c = c17();
    let t = Test {
        vector: vec![false; 5],
        output: c.find("G22").unwrap(),
        expected: true,
    };
    let ts = TestSet::new(vec![t.clone()]);
    let fast = basic_sim_diagnose(&c, &ts, BsimOptions::default());
    let values = simulate(&c, &t.vector);
    let reference = path_trace(&c, &values, t.output, BsimOptions::default());
    assert_eq!(fast.candidate_sets[0], reference);
}
