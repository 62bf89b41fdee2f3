//! Pins `generate_failing_tests` against the search it implements, kept
//! here as a test-only oracle: draw each vector with
//! `VectorGen::next_vector`, simulate both circuits on it with the scalar
//! simulator, and take the first `want` distinct (vector, output)
//! failures, vector by vector and then in `golden.outputs()` order.
//!
//! Both must return the same `TestSet` — same tests, same order — for
//! every circuit, fault model, seed, `want` and `max_vectors`, including
//! vector budgets whose last packed word is partial, `want` limits
//! reached in the middle of a vector that fails on several outputs, and
//! circuit pairs whose input lists differ (where no cone is taken).

use gatediag_core::{generate_failing_tests, Test, TestSet};
use gatediag_netlist::{
    c17, inject_errors, parse_bench, try_inject_faults, Circuit, CircuitBuilder, FaultModel,
    GateId, GateKind, RandomCircuitSpec, VectorGen,
};
use gatediag_sim::simulate;
use proptest::prelude::*;
use std::collections::HashSet;

/// Every distinct (vector, output) failure among the first `max_vectors`
/// vectors, in order, each with the index of the vector that first
/// exposed it.
fn scalar_failures(
    golden: &Circuit,
    faulty: &Circuit,
    seed: u64,
    max_vectors: usize,
) -> Vec<(usize, Test)> {
    let mut gen = VectorGen::new(golden, seed);
    let mut seen: HashSet<(Vec<bool>, GateId)> = HashSet::new();
    let mut failures = Vec::new();
    for index in 0..max_vectors {
        let vector = gen.next_vector();
        let g = simulate(golden, &vector);
        let f = simulate(faulty, &vector);
        for &o in golden.outputs() {
            if g[o.index()] != f[o.index()] && seen.insert((vector.clone(), o)) {
                let test = Test {
                    vector: vector.clone(),
                    output: o,
                    expected: g[o.index()],
                };
                failures.push((index, test));
            }
        }
    }
    failures
}

/// The first `want` of `failures` exposed within `max_vectors` vectors.
fn first_failures(failures: &[(usize, Test)], want: usize, max_vectors: usize) -> TestSet {
    failures
        .iter()
        .filter(|(index, _)| *index < max_vectors)
        .take(want)
        .map(|(_, test)| test.clone())
        .collect()
}

fn reference_failing_tests(
    golden: &Circuit,
    faulty: &Circuit,
    want: usize,
    seed: u64,
    max_vectors: usize,
) -> TestSet {
    first_failures(
        &scalar_failures(golden, faulty, seed, max_vectors),
        want,
        max_vectors,
    )
}

fn assert_same(golden: &Circuit, faulty: &Circuit, want: usize, seed: u64, max_vectors: usize) {
    assert_eq!(
        generate_failing_tests(golden, faulty, want, seed, max_vectors),
        reference_failing_tests(golden, faulty, want, seed, max_vectors),
        "want {want}, seed {seed}, max_vectors {max_vectors}"
    );
}

#[test]
fn every_fault_model_matches_the_scalar_search() {
    // A narrow circuit, whose vectors repeat, and one wider than 64
    // inputs, whose packed vectors span two transpose tiles.
    let circuits = [
        RandomCircuitSpec::new(10, 5, 80).seed(3).generate(),
        RandomCircuitSpec::new(70, 6, 160).seed(4).generate(),
    ];
    for golden in &circuits {
        for model in FaultModel::ALL {
            for (p, seed) in [(1, 1u64), (1, 2), (2, 3)] {
                let Some((faulty, _)) = try_inject_faults(golden, model, p, seed) else {
                    continue;
                };
                let failures = scalar_failures(golden, &faulty, seed, 4096);
                for max_vectors in [1, 63, 512, 700, 4096] {
                    for want in [1, 8, 64] {
                        assert_eq!(
                            generate_failing_tests(golden, &faulty, want, seed, max_vectors),
                            first_failures(&failures, want, max_vectors),
                            "{model}, p {p}, seed {seed}, want {want}, max_vectors {max_vectors}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn unaligned_inputs_match_the_scalar_search() {
    // An input declared after a gate: the input lists differ, so every
    // gate counts as changed and both circuits are swept in full.
    let build = |late_input: bool, kind: GateKind| {
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let c = b.input("c");
        let (x, d) = if late_input {
            let x = b.gate(GateKind::And, vec![a, c], "x");
            (x, b.input("d"))
        } else {
            let d = b.input("d");
            (b.gate(GateKind::And, vec![a, c], "x"), d)
        };
        let y = b.gate(kind, vec![x, d], "y");
        let z = b.gate(GateKind::Nor, vec![y, c], "z");
        b.output(y);
        b.output(z);
        b.finish().unwrap()
    };
    let golden = build(false, GateKind::Xor);
    let faulty = build(true, GateKind::Or);
    assert_ne!(golden.inputs(), faulty.inputs());
    for max_vectors in [1, 63, 700] {
        for want in [1, 8, 64] {
            assert_same(&golden, &faulty, want, 6, max_vectors);
        }
    }
}

#[test]
fn partial_last_words_match_the_per_lane_generator() {
    let golden = RandomCircuitSpec::new(6, 4, 50).seed(21).generate();
    let (faulty, _) = inject_errors(&golden, 2, 21);
    for max_vectors in [1, 2, 63, 64, 65, 127, 511, 512, 513, 700, 1025] {
        for want in [1, 3, 1000] {
            assert_same(&golden, &faulty, want, 5, max_vectors);
        }
    }
}

#[test]
fn undrawn_lanes_of_a_partial_word_never_become_tests() {
    // NOR versus OR over 20 inputs: every vector fails, including the
    // all-zero one that fills the undrawn lanes of a partial last word
    // but is (almost surely) never drawn itself.
    let inputs: String = (0..20).map(|i| format!("INPUT(a{i})\n")).collect();
    let args: Vec<String> = (0..20).map(|i| format!("a{i}")).collect();
    let bench = |kind: &str| format!("{inputs}OUTPUT(y)\ny = {kind}({})\n", args.join(", "));
    let golden = parse_bench(&bench("NOR")).unwrap();
    let faulty = parse_bench(&bench("OR")).unwrap();
    for max_vectors in [1, 65, 130, 600] {
        let tests = generate_failing_tests(&golden, &faulty, 10_000, 4, max_vectors);
        assert_eq!(tests.len(), max_vectors);
        assert_same(&golden, &faulty, 10_000, 4, max_vectors);
    }
}

#[test]
fn want_reached_mid_vector_matches_the_per_lane_generator() {
    // G16 feeds both c17 outputs: as a NOR it fails some vectors on both
    // outputs at once, so small `want` values stop between the two
    // outputs of one vector.
    let golden = c17();
    let g16 = golden.find("G16").unwrap();
    let faulty = golden.with_gate_kind(g16, GateKind::Nor);
    let full = generate_failing_tests(&golden, &faulty, 64, 3, 8192);
    let mut per_vector = std::collections::HashMap::new();
    for t in &full {
        *per_vector.entry(t.vector.clone()).or_insert(0usize) += 1;
    }
    assert!(per_vector.values().any(|&n| n >= 2));
    for want in 1..=full.len() + 1 {
        assert_same(&golden, &faulty, want, 3, 8192);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn word_level_generator_matches_the_per_lane_one(
        circuit_seed in 0u64..1000,
        inputs in 2usize..12,
        outputs in 1usize..6,
        gates in 8usize..60,
        errors in 1usize..=3,
        seed in 0u64..1000,
        want in 1usize..40,
        max_vectors in 1usize..1600,
    ) {
        let golden = RandomCircuitSpec::new(inputs, outputs, gates)
            .seed(circuit_seed)
            .generate();
        let (faulty, _) = inject_errors(&golden, errors, seed);
        prop_assert_eq!(
            generate_failing_tests(&golden, &faulty, want, seed, max_vectors),
            reference_failing_tests(&golden, &faulty, want, seed, max_vectors)
        );
    }
}
