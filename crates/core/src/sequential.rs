//! Sequential diagnosis: multi-frame tests, engines and validity.
//!
//! The paper notes the SAT-based approach "has also been applied to
//! diagnose sequential errors efficiently" (its reference [4], Ali et
//! al., ICCAD 2004). The construction: unroll the sequential circuit over
//! the test sequence's time frames; a gate-change error affects *every*
//! frame, so the per-gate select line is shared across frames (and across
//! test sequences), exactly like it is shared across test copies in the
//! combinational case.
//!
//! The sequential engines are the combinational ones over that expansion:
//! [`DiagnosisProblem::sequential`](crate::DiagnosisProblem::sequential)
//! is the problem whose encoded circuit is the unrolling of
//! [`sequence_tests_to_unrolled`], with each gate's instances in every
//! frame as its site and the unrolled gates projected back onto the
//! original ones:
//!
//! | combinational | sequential |
//! |---------------|------------|
//! | [`Test`](crate::Test) / [`TestSet`](crate::TestSet) | [`SequenceTest`] / [`SequenceTestSet`] |
//! | [`generate_failing_tests`](crate::generate_failing_tests) | [`generate_failing_sequences`] (frame-major packed, on [`SeqPackedSim`]) |
//! | [`DiagnosisProblem::combinational`](crate::DiagnosisProblem::combinational) | [`DiagnosisProblem::sequential`](crate::DiagnosisProblem::sequential) |
//! | [`is_valid_correction`](crate::is_valid_correction) | [`DiagnosisProblem::is_valid`](crate::DiagnosisProblem::is_valid) on a sequential problem (the same [`ValidityOracle`](crate::ValidityOracle) over the unrolling) |
//!
//! [`run_engine`](crate::run_engine) runs
//! [`EngineKind::SeqBsim`](crate::EngineKind) and
//! [`EngineKind::SeqBsat`](crate::EngineKind) on a sequential problem, and
//! each keeps its combinational twin's deterministic work unit: **tests
//! traced** for seq-BSIM and **conflicts** for seq-BSAT (see
//! [`crate::budget`]).

use crate::test_set::TestSet;
use gatediag_netlist::{unroll, Circuit, FairCoins, GateId, StateView, Unrolling};
use gatediag_sim::{pack_rows_into, SeqPackedSim};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A sequential diagnosis test: an input sequence driving the circuit from
/// a known initial state, with one erroneous primary output at one frame.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SequenceTest {
    /// Initial flip-flop state (in `circuit.latches()` order).
    pub initial_state: Vec<bool>,
    /// Per-frame primary-input vectors (real inputs only, in the order
    /// given by [`real_inputs`]).
    pub vectors: Vec<Vec<bool>>,
    /// Frame at which the erroneous output was observed.
    pub frame: usize,
    /// The erroneous primary output (an output of the original circuit).
    pub output: GateId,
    /// Its correct value.
    pub expected: bool,
}

/// An ordered set of [`SequenceTest`]s — the sequential counterpart of
/// [`TestSet`](crate::TestSet), with the same prefix-reuse conventions.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct SequenceTestSet {
    tests: Vec<SequenceTest>,
}

impl SequenceTestSet {
    /// Wraps a list of sequence tests.
    pub fn new(tests: Vec<SequenceTest>) -> Self {
        SequenceTestSet { tests }
    }

    /// The tests, in order.
    pub fn tests(&self) -> &[SequenceTest] {
        &self.tests
    }

    /// Number of sequence tests.
    pub fn len(&self) -> usize {
        self.tests.len()
    }

    /// `true` if there are no tests.
    pub fn is_empty(&self) -> bool {
        self.tests.is_empty()
    }

    /// Iterates over the tests.
    pub fn iter(&self) -> std::slice::Iter<'_, SequenceTest> {
        self.tests.iter()
    }

    /// The first `min(m, len)` tests as a new set.
    pub fn prefix_at_most(&self, m: usize) -> SequenceTestSet {
        SequenceTestSet {
            tests: self.tests[..m.min(self.tests.len())].to_vec(),
        }
    }

    /// The longest sequence length in the set (0 when empty).
    pub fn max_frames(&self) -> usize {
        self.tests
            .iter()
            .map(|t| t.vectors.len())
            .max()
            .unwrap_or(0)
    }
}

impl FromIterator<SequenceTest> for SequenceTestSet {
    fn from_iter<T: IntoIterator<Item = SequenceTest>>(iter: T) -> Self {
        SequenceTestSet {
            tests: iter.into_iter().collect(),
        }
    }
}

impl<'a> IntoIterator for &'a SequenceTestSet {
    type Item = &'a SequenceTest;
    type IntoIter = std::slice::Iter<'a, SequenceTest>;

    fn into_iter(self) -> Self::IntoIter {
        self.tests.iter()
    }
}

/// The circuit's *real* primary inputs (excluding flip-flop pseudo-inputs),
/// in `circuit.inputs()` order.
///
/// Computed from the O(n) [`StateView`] lowering — one membership pass
/// instead of the former O(inputs × latches) repeated scan over the latch
/// list.
pub fn real_inputs(circuit: &Circuit) -> Vec<GateId> {
    StateView::new(circuit).real_inputs().to_vec()
}

/// Simulates an input sequence; returns the full value assignment per
/// frame. Re-exported reference semantics of
/// [`gatediag_sim::simulate_sequence`].
///
/// # Panics
///
/// Panics if `initial_state` or any vector has the wrong width.
pub fn simulate_sequence(
    circuit: &Circuit,
    initial_state: &[bool],
    vectors: &[Vec<bool>],
) -> Vec<Vec<bool>> {
    gatediag_sim::simulate_sequence(circuit, initial_state, vectors)
}

/// Generates up to `want` failing sequence tests for a golden/faulty pair
/// by frame-major packed random sequence simulation (both circuits start
/// from the all-zero state; up to 64 sequences per packed batch).
///
/// Each returned test pinpoints the first frame/output where the faulty
/// circuit deviates on a sequence. Deterministic per seed.
pub fn generate_failing_sequences(
    golden: &Circuit,
    faulty: &Circuit,
    frames: usize,
    want: usize,
    seed: u64,
    max_sequences: usize,
) -> SequenceTestSet {
    assert_eq!(
        golden.inputs().len(),
        faulty.inputs().len(),
        "golden/faulty input mismatch"
    );
    let view = StateView::new(golden);
    let reals = view.real_inputs().len();
    let real_outputs = view.real_outputs();
    let mut coins = FairCoins::new(ChaCha8Rng::seed_from_u64(seed ^ 0x94d0_49bb_1331_11eb));
    let mut tests = Vec::new();
    let initial_state = vec![false; view.num_latches()];
    let zero_state = vec![0u64; view.num_latches()];
    let mut golden_sim = SeqPackedSim::new(golden);
    let mut faulty_sim = SeqPackedSim::new(faulty);
    let mut packed = Vec::new();
    let mut generated = 0usize;
    while tests.len() < want && generated < max_sequences {
        let batch = 64.min(max_sequences - generated);
        generated += batch;
        // Drawing order matches the scalar per-sequence generator: for
        // each sequence, frames × real-input bits, one `gen_bool(0.5)`
        // coin each.
        let seqs: Vec<Vec<Vec<bool>>> = (0..batch)
            .map(|_| {
                (0..frames)
                    .map(|_| (0..reals).map(|_| coins.flip()).collect())
                    .collect()
            })
            .collect();
        golden_sim.begin(1, &zero_state);
        faulty_sim.begin(1, &zero_state);
        // Per frame, per real output: (golden word, faulty word).
        let mut frame_outs: Vec<Vec<(u64, u64)>> = Vec::with_capacity(frames);
        for frame in 0..frames {
            let rows: Vec<&[bool]> = seqs.iter().map(|s| s[frame].as_slice()).collect();
            pack_rows_into(reals, &rows, &mut packed);
            golden_sim.step(&packed);
            faulty_sim.step(&packed);
            frame_outs.push(
                real_outputs
                    .iter()
                    .map(|&o| (golden_sim.value_words(o)[0], faulty_sim.value_words(o)[0]))
                    .collect(),
            );
        }
        for (lane, seq) in seqs.iter().enumerate() {
            if tests.len() >= want {
                break;
            }
            'frames: for (frame, outs) in frame_outs.iter().enumerate() {
                for (oi, &(g, f)) in outs.iter().enumerate() {
                    let gv = g >> lane & 1 == 1;
                    if gv != (f >> lane & 1 == 1) {
                        tests.push(SequenceTest {
                            initial_state: initial_state.clone(),
                            vectors: seq.clone(),
                            frame,
                            output: real_outputs[oi],
                            expected: gv,
                        });
                        break 'frames;
                    }
                }
            }
        }
    }
    SequenceTestSet::new(tests)
}

/// Converts sequence tests into combinational [`TestSet`]s over the
/// unrolled circuit (for reusing combinational engines and the validity
/// oracle on sequential problems). The unrolling spans the longest
/// sequence; a shorter sequence's later frames get all-zero inputs, which
/// cannot matter, since an output at frame `f` depends only on frames
/// `≤ f`. The returned test-set targets the unrolled circuit of
/// [`unroll`].
///
/// Note: combinational diagnosis over the unrolling treats each *frame
/// instance* of a gate as an independent candidate; a sequential
/// [`DiagnosisProblem`](crate::DiagnosisProblem) groups the instances by
/// original gate and projects them back onto it.
///
/// # Panics
///
/// Panics if `tests` is empty.
pub fn sequence_tests_to_unrolled(
    circuit: &Circuit,
    tests: &SequenceTestSet,
) -> (Unrolling, TestSet) {
    assert!(!tests.is_empty(), "need at least one sequence test");
    let unrolled = unroll(circuit, tests.max_frames());
    let reals = real_inputs(circuit);
    // Position of each unrolled input in `unrolled.circuit.inputs()`.
    let mut position = vec![usize::MAX; unrolled.circuit.len()];
    for (i, &pi) in unrolled.circuit.inputs().iter().enumerate() {
        position[pi.index()] = i;
    }
    let mut set = Vec::with_capacity(tests.len());
    for test in tests {
        let mut vector = vec![false; unrolled.circuit.inputs().len()];
        for (init_pi, &v) in unrolled.initial_state.iter().zip(&test.initial_state) {
            vector[position[init_pi.index()]] = v;
        }
        for (frame, values) in test.vectors.iter().enumerate() {
            for (&pi, &v) in reals.iter().zip(values) {
                vector[position[unrolled.instance(frame, pi).index()]] = v;
            }
        }
        set.push(crate::test_set::Test {
            vector,
            output: unrolled.instance(test.frame, test.output),
            expected: test.expected,
        });
    }
    (unrolled, TestSet::new(set))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bsim::{BsimOptions, BsimResult, MarkPolicy};
    use crate::budget::{Budget, Truncation};
    use crate::engine::{run_engine, EngineConfig, EngineKind};
    use crate::problem::DiagnosisProblem;
    use gatediag_netlist::{
        inject_errors, parse_bench, CircuitBuilder, GateKind, RandomCircuitSpec,
    };
    use gatediag_sim::simulate;
    use rand::Rng;

    fn toggle_circuit() -> Circuit {
        parse_bench("INPUT(en)\nOUTPUT(out)\nq = DFF(d)\nd = XOR(q, en)\nout = BUF(q)\n").unwrap()
    }

    /// Sequential BSIM: BSIM over the unrolling, projected onto `circuit`.
    fn seq_bsim(circuit: &Circuit, tests: &SequenceTestSet, options: BsimOptions) -> BsimResult {
        DiagnosisProblem::sequential(circuit.clone(), tests.clone()).trace(options)
    }

    /// Sequential BSAT through the engine entry point.
    fn seq_bsat(
        circuit: &Circuit,
        tests: &SequenceTestSet,
        config: EngineConfig,
    ) -> crate::engine::EngineRun {
        let problem = DiagnosisProblem::sequential(circuit.clone(), tests.clone());
        run_engine(EngineKind::SeqBsat, &problem, &config)
    }

    #[test]
    fn sequence_simulation_matches_hand_computation() {
        let c = toggle_circuit();
        let frames = simulate_sequence(&c, &[false], &[vec![true], vec![false], vec![true]]);
        let out = c.find("out").unwrap();
        // q: 0 -> 1 -> 1 -> 0; out shows q before update.
        assert!(!frames[0][out.index()]);
        assert!(frames[1][out.index()]);
        assert!(frames[2][out.index()]);
    }

    #[test]
    fn real_inputs_excludes_latch_outputs_on_many_latch_circuit() {
        // Regression for the O(inputs × latches) scan: a wide sequential
        // circuit with hundreds of latches must still resolve quickly and
        // correctly. 200 real inputs + 200 latches = 400 pseudo-inputs.
        let mut b = CircuitBuilder::new();
        let mut reals = Vec::new();
        for i in 0..200 {
            reals.push(b.input(format!("pi{i}")));
        }
        for (i, &real) in reals.iter().enumerate() {
            let q = b.input(format!("q{i}"));
            let d = b.gate(GateKind::Xor, vec![q, real], format!("d{i}"));
            b.output(d);
            b.latch(q, d);
        }
        let c = b.finish().unwrap();
        assert_eq!(c.inputs().len(), 400);
        let got = real_inputs(&c);
        assert_eq!(got, reals, "real inputs must be exactly the non-latch PIs");
    }

    #[test]
    fn failing_sequences_really_fail() {
        let golden = toggle_circuit();
        let d = golden.find("d").unwrap();
        let faulty = golden.with_gate_kind(d, gatediag_netlist::GateKind::Xnor);
        let tests = generate_failing_sequences(&golden, &faulty, 4, 8, 3, 512);
        assert!(!tests.is_empty());
        for t in &tests {
            let g = simulate_sequence(&golden, &t.initial_state, &t.vectors);
            let f = simulate_sequence(&faulty, &t.initial_state, &t.vectors);
            assert_eq!(g[t.frame][t.output.index()], t.expected);
            assert_ne!(f[t.frame][t.output.index()], t.expected);
        }
    }

    #[test]
    fn packed_generation_matches_scalar_reference() {
        // The frame-major packed generator must reproduce exactly what the
        // scalar per-sequence generator would find: same sequences (same
        // RNG draw order), same first-deviation frame/output per sequence.
        let golden = RandomCircuitSpec::new(5, 3, 30)
            .latches(3)
            .seed(1)
            .generate();
        let (faulty, _) = inject_errors(&golden, 1, 1);
        let tests = generate_failing_sequences(&golden, &faulty, 3, 64, 1, 256);
        let view = StateView::new(&golden);
        let reals = view.real_inputs().len();
        let mut rng = ChaCha8Rng::seed_from_u64(1 ^ 0x94d0_49bb_1331_11eb);
        let initial = vec![false; golden.latches().len()];
        let mut expect = Vec::new();
        for _ in 0..256 {
            if expect.len() >= 64 {
                break;
            }
            let vectors: Vec<Vec<bool>> = (0..3)
                .map(|_| (0..reals).map(|_| rng.gen_bool(0.5)).collect())
                .collect();
            let g_frames = simulate_sequence(&golden, &initial, &vectors);
            let f_frames = simulate_sequence(&faulty, &initial, &vectors);
            'frames: for (frame, (g, f)) in g_frames.iter().zip(&f_frames).enumerate() {
                for &o in view.real_outputs() {
                    if g[o.index()] != f[o.index()] {
                        expect.push(SequenceTest {
                            initial_state: initial.clone(),
                            vectors: vectors.clone(),
                            frame,
                            output: o,
                            expected: g[o.index()],
                        });
                        break 'frames;
                    }
                }
            }
        }
        assert_eq!(tests.tests(), expect.as_slice());
    }

    #[test]
    fn seq_bsim_implicates_the_error() {
        let golden = toggle_circuit();
        let d = golden.find("d").unwrap();
        let faulty = golden.with_gate_kind(d, gatediag_netlist::GateKind::Xnor);
        let tests = generate_failing_sequences(&golden, &faulty, 4, 6, 3, 512);
        assert!(!tests.is_empty());
        let result = seq_bsim(
            &faulty,
            &tests,
            BsimOptions {
                policy: MarkPolicy::AllControlling,
                ..BsimOptions::default()
            },
        );
        assert_eq!(result.candidate_sets.len(), tests.len());
        for (i, set) in result.candidate_sets.iter().enumerate() {
            assert!(set.contains(d), "error gate missing from C_{i}");
        }
        assert!(result.union.contains(d));
        assert!(result.truncation.is_none());
        // The latch output is state, never a candidate; a gate marked in
        // several frames counts once per test.
        assert!(!result.union.contains(faulty.find("q").unwrap()));
        assert_eq!(result.mark_counts[d.index()] as usize, tests.len());
    }

    #[test]
    fn seq_bsim_work_budget_traces_a_test_prefix() {
        let golden = toggle_circuit();
        let d = golden.find("d").unwrap();
        let faulty = golden.with_gate_kind(d, gatediag_netlist::GateKind::Xnor);
        let tests = generate_failing_sequences(&golden, &faulty, 4, 6, 3, 512);
        assert!(tests.len() >= 2);
        // The work unit is one test traced, whatever its length.
        let budget = Budget {
            work: Some(1),
            ..Budget::default()
        };
        let result = seq_bsim(
            &faulty,
            &tests,
            BsimOptions {
                budget,
                ..BsimOptions::default()
            },
        );
        assert_eq!(result.candidate_sets.len(), 1);
        assert_eq!(result.truncation, Some(Truncation::Work));
        assert_eq!(result.work, 1);
        // The traced prefix matches an unbudgeted run's first set.
        let full = seq_bsim(&faulty, &tests, BsimOptions::default());
        assert_eq!(result.candidate_sets[0], full.candidate_sets[0]);
    }

    #[test]
    fn sequential_diagnosis_finds_injected_error() {
        let golden = toggle_circuit();
        let d = golden.find("d").unwrap();
        let faulty = golden.with_gate_kind(d, gatediag_netlist::GateKind::Xnor);
        let tests = generate_failing_sequences(&golden, &faulty, 4, 6, 3, 512);
        assert!(!tests.is_empty());
        let diag = seq_bsat(
            &faulty,
            &tests,
            EngineConfig {
                max_solutions: 1000,
                ..EngineConfig::default()
            },
        );
        assert!(diag.complete);
        assert!(
            diag.solutions.contains(&vec![d]),
            "error gate {d} missing from {:?}",
            diag.solutions
        );
        let problem = DiagnosisProblem::sequential(faulty, tests);
        for sol in &diag.solutions {
            assert!(
                problem.is_valid(sol),
                "invalid sequential correction {sol:?}"
            );
        }
    }

    #[test]
    fn sequential_diagnosis_on_random_sequential_circuit() {
        for seed in 0..3 {
            let golden = RandomCircuitSpec::new(5, 3, 30)
                .latches(3)
                .seed(seed)
                .generate();
            let (faulty, sites) = inject_errors(&golden, 1, seed);
            let tests = generate_failing_sequences(&golden, &faulty, 3, 4, seed, 1024);
            if tests.is_empty() {
                continue;
            }
            let diag = seq_bsat(&faulty, &tests, EngineConfig::default());
            assert!(
                diag.solutions.contains(&vec![sites[0].gate]),
                "seed {seed}: real site missing from {:?}",
                diag.solutions
            );
            let problem = DiagnosisProblem::sequential(faulty, tests);
            for sol in &diag.solutions {
                assert!(problem.is_valid(sol));
            }
        }
    }

    #[test]
    fn seq_bsat_diagnoses_mixed_length_sequences() {
        // 2- and 4-frame sequences in one set: the zero-padded unrolling
        // over the longest serves both. By Lemma 3 the k = 1 solutions
        // are exactly the single gates that are valid corrections.
        let golden = toggle_circuit();
        let d = golden.find("d").unwrap();
        let faulty = golden.with_gate_kind(d, gatediag_netlist::GateKind::Xnor);
        let short = generate_failing_sequences(&golden, &faulty, 2, 2, 1, 512);
        let long = generate_failing_sequences(&golden, &faulty, 4, 2, 2, 512);
        assert!(!short.is_empty() && !long.is_empty());
        let tests: SequenceTestSet = short.iter().chain(&long).cloned().collect();
        assert_eq!(tests.max_frames(), 4);
        let diag = seq_bsat(&faulty, &tests, EngineConfig::default());
        assert!(diag.complete);
        let problem = DiagnosisProblem::sequential(faulty.clone(), tests);
        assert!(!problem.is_valid(&[]));
        let valid_singletons: Vec<Vec<GateId>> = faulty
            .iter()
            .filter(|(_, g)| g.kind() != GateKind::Input)
            .map(|(id, _)| vec![id])
            .filter(|set| problem.is_valid(set))
            .collect();
        assert!(valid_singletons.contains(&vec![d]));
        assert_eq!(diag.solutions, valid_singletons);
        for sol in &diag.solutions {
            assert!(problem.is_valid(sol));
        }
    }

    #[test]
    fn sat_solution_cap_reports_solutions_truncation() {
        let golden = toggle_circuit();
        let d = golden.find("d").unwrap();
        let faulty = golden.with_gate_kind(d, gatediag_netlist::GateKind::Xnor);
        let tests = generate_failing_sequences(&golden, &faulty, 4, 4, 3, 512);
        assert!(!tests.is_empty());
        let config = |max_solutions| EngineConfig {
            k: 2,
            max_solutions,
            ..EngineConfig::default()
        };
        let full = seq_bsat(&faulty, &tests, config(10_000));
        if full.solutions.len() < 2 {
            return;
        }
        let capped = seq_bsat(&faulty, &tests, config(1));
        assert!(!capped.complete);
        assert_eq!(capped.truncation, Some(Truncation::Solutions));
        assert_eq!(capped.solutions.len(), 1);
    }

    #[test]
    fn unrolled_test_conversion_is_consistent() {
        let golden = toggle_circuit();
        let d = golden.find("d").unwrap();
        let faulty = golden.with_gate_kind(d, gatediag_netlist::GateKind::Xnor);
        let tests = generate_failing_sequences(&golden, &faulty, 3, 4, 5, 512);
        if tests.is_empty() {
            return;
        }
        let (unrolled_faulty, test_set) = sequence_tests_to_unrolled(&faulty, &tests);
        // Combinational simulation of the unrolled faulty circuit must show
        // the erroneous value (i.e. the test fails on it).
        for t in &test_set {
            let v = simulate(&unrolled_faulty.circuit, &t.vector);
            assert_ne!(v[t.output.index()], t.expected);
        }
    }

    #[test]
    fn unrolled_conversion_spans_mixed_lengths() {
        let golden = toggle_circuit();
        let d = golden.find("d").unwrap();
        let faulty = golden.with_gate_kind(d, gatediag_netlist::GateKind::Xnor);
        let short = generate_failing_sequences(&golden, &faulty, 2, 2, 1, 512);
        let long = generate_failing_sequences(&golden, &faulty, 4, 2, 2, 512);
        assert!(!short.is_empty() && !long.is_empty());
        // A longer test after a shorter one, and a shorter after a longer.
        for tests in [
            short
                .iter()
                .chain(&long)
                .cloned()
                .collect::<SequenceTestSet>(),
            long.iter().chain(&short).cloned().collect(),
        ] {
            let (unrolled, set) = sequence_tests_to_unrolled(&faulty, &tests);
            assert_eq!(unrolled.frames(), 4);
            assert_eq!(set.len(), tests.len());
            for (t, seq) in set.iter().zip(&tests) {
                let v = simulate(&unrolled.circuit, &t.vector);
                assert_ne!(v[t.output.index()], t.expected);
                let frames = simulate_sequence(&faulty, &seq.initial_state, &seq.vectors);
                assert_eq!(v[t.output.index()], frames[seq.frame][seq.output.index()]);
            }
        }
    }

    #[test]
    fn empty_candidates_cannot_fix_failing_sequences() {
        let golden = toggle_circuit();
        let d = golden.find("d").unwrap();
        let faulty = golden.with_gate_kind(d, gatediag_netlist::GateKind::Xnor);
        let tests = generate_failing_sequences(&golden, &faulty, 3, 2, 1, 512);
        if tests.is_empty() {
            return;
        }
        assert!(!DiagnosisProblem::sequential(faulty.clone(), tests).is_valid(&[]));
        assert!(DiagnosisProblem::sequential(faulty, SequenceTestSet::default()).is_valid(&[]));
    }

    #[test]
    fn sequence_test_set_prefix_and_frames() {
        let t = |frames: usize| SequenceTest {
            initial_state: vec![],
            vectors: vec![vec![]; frames],
            frame: 0,
            output: GateId::new(0),
            expected: false,
        };
        let set = SequenceTestSet::new(vec![t(2), t(5), t(3)]);
        assert_eq!(set.len(), 3);
        assert_eq!(set.max_frames(), 5);
        assert_eq!(set.prefix_at_most(2).len(), 2);
        assert_eq!(set.prefix_at_most(99).len(), 3);
        assert!(SequenceTestSet::default().is_empty());
        assert_eq!(SequenceTestSet::default().max_frames(), 0);
    }
}
