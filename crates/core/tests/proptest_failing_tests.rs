//! Pins the word-level `generate_failing_tests` against the per-lane
//! generator it replaced, kept here as a test-only oracle: draw every
//! vector as a `Vec<bool>`, pack the batch, sweep both circuits, then
//! compare golden and faulty lane by lane and output by output.
//!
//! Both must return the same `TestSet` — same tests, same order — for
//! every circuit, seed, `want` and `max_vectors`, including vector
//! budgets whose last packed word is partial and `want` limits reached
//! in the middle of a vector that fails on several outputs.

use gatediag_core::{generate_failing_tests, Test, TestSet};
use gatediag_netlist::{
    c17, inject_errors, parse_bench, Circuit, GateId, GateKind, RandomCircuitSpec, VectorGen,
};
use gatediag_sim::{pack_vectors_into, PackedSim};
use proptest::prelude::*;
use std::collections::HashSet;

/// The per-lane generator: 512 vectors per batch, each unpacked and
/// checked output by output.
fn per_lane_failing_tests(
    golden: &Circuit,
    faulty: &Circuit,
    want: usize,
    seed: u64,
    max_vectors: usize,
) -> TestSet {
    const BATCH: usize = 512;
    let mut gen = VectorGen::new(golden, seed);
    let mut tests = Vec::with_capacity(want);
    let mut seen: HashSet<(Vec<bool>, GateId)> = HashSet::new();
    let mut tried = 0usize;
    let mut golden_sim = PackedSim::new(golden);
    let mut faulty_sim = PackedSim::new(faulty);
    let mut packed = Vec::new();
    while tests.len() < want && tried < max_vectors {
        let batch: Vec<Vec<bool>> = (0..BATCH.min(max_vectors - tried))
            .map(|_| gen.next_vector())
            .collect();
        tried += batch.len();
        let words = pack_vectors_into(golden, &batch, &mut packed);
        golden_sim.reset(words);
        golden_sim.set_input_words(&packed);
        golden_sim.sweep();
        faulty_sim.reset(words);
        faulty_sim.set_input_words(&packed);
        faulty_sim.sweep();
        for (lane, vector) in batch.iter().enumerate() {
            if tests.len() >= want {
                break;
            }
            for &o in golden.outputs() {
                let g = golden_sim.lane(o, lane);
                if g != faulty_sim.lane(o, lane) && seen.insert((vector.clone(), o)) {
                    tests.push(Test {
                        vector: vector.clone(),
                        output: o,
                        expected: g,
                    });
                    if tests.len() >= want {
                        break;
                    }
                }
            }
        }
    }
    TestSet::new(tests)
}

fn assert_same(golden: &Circuit, faulty: &Circuit, want: usize, seed: u64, max_vectors: usize) {
    assert_eq!(
        generate_failing_tests(golden, faulty, want, seed, max_vectors),
        per_lane_failing_tests(golden, faulty, want, seed, max_vectors),
        "want {want}, seed {seed}, max_vectors {max_vectors}"
    );
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
            per_lane_failing_tests(&golden, &faulty, want, seed, max_vectors)
        );
    }
}
