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
//! This module is the sequential counterpart of the combinational engine
//! stack:
//!
//! | combinational | sequential |
//! |---------------|------------|
//! | [`Test`](crate::Test) / [`TestSet`](crate::TestSet) | [`SequenceTest`] / [`SequenceTestSet`] |
//! | [`generate_failing_tests`](crate::generate_failing_tests) | [`generate_failing_sequences`] (frame-major packed) |
//! | [`basic_sim_diagnose`](crate::basic_sim_diagnose) | [`sequential_sim_diagnose`] (path tracing across frames) |
//! | [`basic_sat_diagnose`](crate::basic_sat_diagnose) | [`sequential_sat_diagnose`] (time-frame expansion) |
//! | [`is_valid_correction`](crate::is_valid_correction) | [`is_valid_sequential_correction`] (the same [`ValidityOracle`] over the unrolling) |
//!
//! Both engines are available behind
//! [`EngineKind::SeqBsim`](crate::EngineKind) /
//! [`EngineKind::SeqBsat`](crate::EngineKind) via
//! [`run_sequential_engine`](crate::run_sequential_engine). The
//! simulation side runs on [`SeqPackedSim`] — 64·W sequences per packed
//! frame sweep, latch state words carried frame-to-frame — and its
//! deterministic work unit is **frames × sequences**; the SAT side's work
//! unit is **SAT queries** (enumeration calls), with
//! [`Budget::conflicts`] threaded to the solver as usual.

use crate::bsim::BsimOptions;
use crate::bsim::BsimResult;
use crate::budget::{Budget, Truncation};
use crate::test_set::TestSet;
use crate::validity::ValidityOracle;
use gatediag_cnf::{encode_copy, ClauseSink, CopyRoles, GateRole, MuxEncoding, Totalizer};
use gatediag_netlist::{
    unroll, Circuit, FairCoins, GateId, GateKind, GateSet, StateView, Unrolling,
};
use gatediag_sat::{enumerate_positive_subsets, Lit, Solver, SolverStats, Var};
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

/// Sequential `BasicSimDiagnose`: path tracing across time frames.
///
/// All traced tests are simulated frame-major on one [`SeqPackedSim`]
/// (one lane per test); per test, tracing starts at the erroneous output
/// in its failing frame and walks backwards over sensitised paths,
/// crossing frame boundaries through the latches (a latch `q`
/// pseudo-input at frame `f > 0` continues at its `d` gate in frame
/// `f - 1`; frame 0's state is given, hence not correctable). Candidates
/// are *original* gates — a gate sensitised in any frame is implicated
/// once, mirroring the shared select line of the SAT formulation.
///
/// The deterministic work unit is **frames × sequences**: a work budget
/// truncates the test list to the longest prefix whose total frame count
/// fits, exactly like BSIM truncates to a test prefix.
/// [`BsimOptions::parallelism`] is accepted for config uniformity but
/// unused — the single packed pass is already batch-parallel, so results
/// are trivially identical for every worker count.
pub fn sequential_sim_diagnose(
    circuit: &Circuit,
    tests: &SequenceTestSet,
    options: BsimOptions,
) -> BsimResult {
    let view = StateView::new(circuit);
    let mut meter = options.budget.meter();
    // Longest test prefix whose Σ frames fits the work budget.
    let mut traced = 0usize;
    let mut work = 0u64;
    for test in tests.iter() {
        let frames = test.vectors.len() as u64;
        if work + frames > meter.remaining_work() {
            break;
        }
        work += frames;
        traced += 1;
    }
    let work_truncated = traced < tests.len();
    let tests_slice = &tests.tests()[..traced];
    let mut candidate_sets: Vec<GateSet> = Vec::with_capacity(traced);
    let mut mark_counts = vec![0u32; circuit.len()];
    let mut union = GateSet::new(circuit.len());
    let mut deadline_hit = false;
    if traced > 0 {
        let frames = tests_slice
            .iter()
            .map(|t| t.vectors.len())
            .max()
            .unwrap_or(0);
        let words = traced.div_ceil(64).max(1);
        let reals = view.real_inputs().len();
        let initial: Vec<&[bool]> = tests_slice
            .iter()
            .map(|t| t.initial_state.as_slice())
            .collect();
        let mut state = Vec::new();
        pack_rows_into(view.num_latches(), &initial, &mut state);
        let mut sim = SeqPackedSim::new(circuit);
        sim.begin(words, &state);
        // Frame-major pass over every traced sequence at once, snapshotting
        // the full packed value array per frame for the traces below.
        // Sequences shorter than the longest are padded with zero vectors;
        // their padded frames are never read.
        let zero = vec![false; reals];
        let mut packed = Vec::new();
        let mut snapshots: Vec<Vec<u64>> = Vec::with_capacity(frames);
        let mut completed = 0usize;
        // The deadline probe mirrors BSIM's between-batch check: one poll
        // per frame (the opt-in nondeterministic limit).
        let deadline = meter.deadline();
        for frame in 0..frames {
            if deadline.is_some_and(|d| std::time::Instant::now() >= d) {
                // The wall deadline fired mid-pass; trace only the tests
                // whose sequences fit in the completed frames.
                deadline_hit = true;
                break;
            }
            let rows: Vec<&[bool]> = tests_slice
                .iter()
                .map(|t| {
                    t.vectors
                        .get(frame)
                        .map_or(zero.as_slice(), |v| v.as_slice())
                })
                .collect();
            pack_rows_into(reals, &rows, &mut packed);
            sim.step(&packed);
            snapshots.push(sim.values().to_vec());
            completed = frame + 1;
        }
        let w = sim.words_per_gate();
        for (lane, test) in tests_slice.iter().enumerate() {
            if test.vectors.len() > completed {
                // Only possible after a deadline abort.
                break;
            }
            let marked = seq_path_trace(circuit, &view, &snapshots, w, lane, test, options);
            for g in marked.iter() {
                mark_counts[g.index()] += 1;
            }
            union.union_with(&marked);
            candidate_sets.push(marked);
        }
    }
    if deadline_hit {
        meter.note(Truncation::Deadline);
    } else if work_truncated {
        meter.note(Truncation::Work);
    }
    let work = candidate_sets
        .iter()
        .zip(tests_slice)
        .map(|(_, t)| t.vectors.len() as u64)
        .sum();
    BsimResult {
        candidate_sets,
        mark_counts,
        union,
        truncation: meter.truncation(),
        work,
    }
}

/// Backward path trace from `(test.frame, test.output)` over the
/// snapshotted frame values of one sequence lane.
fn seq_path_trace(
    circuit: &Circuit,
    view: &StateView,
    snapshots: &[Vec<u64>],
    words_per_gate: usize,
    lane: usize,
    test: &SequenceTest,
    options: BsimOptions,
) -> GateSet {
    let (word, bit) = (lane / 64, lane % 64);
    let value_at = |frame: usize, g: GateId| -> bool {
        snapshots[frame][g.index() * words_per_gate + word] >> bit & 1 == 1
    };
    let kinds = circuit.kinds();
    let (heads, edges) = circuit.fanin_csr();
    let mut visited: Vec<GateSet> = (0..=test.frame)
        .map(|_| GateSet::new(circuit.len()))
        .collect();
    let mut candidates = GateSet::new(circuit.len());
    let mut worklist: Vec<(usize, GateId)> = vec![(test.frame, test.output)];
    while let Some((frame, id)) = worklist.pop() {
        if !visited[frame].insert(id) {
            continue;
        }
        let kind = kinds[id.index()];
        if kind == GateKind::Input {
            if let Some(slot) = view.latch_slot_of(id) {
                if frame > 0 {
                    // Cross the frame boundary: continue at the latch's
                    // data gate in the previous frame.
                    worklist.push((frame - 1, view.latch_d()[slot]));
                }
                // Frame 0's state is part of the test, not correctable.
            } else if options.include_inputs {
                candidates.insert(id);
            }
            continue;
        }
        if kind.is_source() {
            candidates.insert(id);
            continue;
        }
        candidates.insert(id);
        let fanins = &edges[heads[id.index()] as usize..heads[id.index() + 1] as usize];
        match kind.controlling_value() {
            Some(cv) => {
                let mut controlling = fanins
                    .iter()
                    .copied()
                    .filter(|&f| value_at(frame, f) == cv)
                    .peekable();
                if controlling.peek().is_some() {
                    match options.policy {
                        crate::bsim::MarkPolicy::FirstControlling => {
                            worklist.push((frame, controlling.next().expect("peeked non-empty")));
                        }
                        crate::bsim::MarkPolicy::AllControlling => {
                            worklist.extend(controlling.map(|f| (frame, f)));
                        }
                    }
                } else {
                    worklist.extend(fanins.iter().map(|&f| (frame, f)));
                }
            }
            None => worklist.extend(fanins.iter().map(|&f| (frame, f))),
        }
    }
    candidates
}

/// Options for [`sequential_sat_diagnose`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SeqBsatOptions {
    /// Stop after this many solutions (`complete = false` if hit).
    pub max_solutions: usize,
    /// Cooperative budget. The deterministic work unit is **SAT queries**
    /// (one per enumerated solution plus one closing query per size
    /// bound); [`Budget::conflicts`] is threaded to the solver and the
    /// opt-in wall deadline rides on the solver's cooperative hook.
    pub budget: Budget,
}

impl Default for SeqBsatOptions {
    fn default() -> Self {
        SeqBsatOptions {
            max_solutions: 1_000_000,
            budget: Budget::default(),
        }
    }
}

/// Result of a sequential SAT-based diagnosis run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SeqDiagnosis {
    /// Corrections in terms of the *original* circuit's gates, sorted by
    /// (size, lexicographic).
    pub solutions: Vec<Vec<GateId>>,
    /// `false` if enumeration was truncated.
    pub complete: bool,
    /// Why the run stopped early, if it did. Always `Some` exactly when
    /// `complete` is `false`.
    pub truncation: Option<Truncation>,
    /// Solver statistics after the run.
    pub stats: SolverStats,
}

/// Sequential `BasicSATDiagnose`: one unrolled instrumented copy per
/// sequence test, select lines shared per original gate across frames and
/// tests.
///
/// All tests must have the same sequence length.
///
/// # Panics
///
/// Panics if `tests` is empty or sequence lengths differ.
pub fn sequential_sat_diagnose(
    circuit: &Circuit,
    tests: &SequenceTestSet,
    k: usize,
    options: SeqBsatOptions,
) -> SeqDiagnosis {
    assert!(!tests.is_empty(), "need at least one sequence test");
    let frames = tests.tests()[0].vectors.len();
    assert!(
        tests.iter().all(|t| t.vectors.len() == frames),
        "all sequences must have the same length"
    );
    let unrolled = unroll(circuit, frames);
    let view = StateView::new(circuit);
    let reals = view.real_inputs();

    let mut solver = Solver::new();
    // One shared select per original functional gate.
    let sites: Vec<GateId> = circuit
        .iter()
        .filter(|(_, g)| g.kind() != GateKind::Input)
        .map(|(id, _)| id)
        .collect();
    let selects: Vec<Var> = sites
        .iter()
        .map(|_| ClauseSink::new_var(&mut solver))
        .collect();
    // The per-gate guard map over the unrolling: a site's instance in
    // every frame shares the site's select, in every test's copy.
    let mut guards = CopyRoles::default();
    for frame in 0..frames {
        for (&site, &select) in sites.iter().zip(&selects) {
            guards.set(unrolled.instance(frame, site), GateRole::Selected(select));
        }
    }

    for test in tests {
        let vars = encode_copy(&mut solver, &unrolled.circuit, &guards, MuxEncoding::Inline).vars;
        // Constrain initial state.
        for (&init_pi, &v) in unrolled.initial_state.iter().zip(&test.initial_state) {
            solver.add_clause(&[vars.lit(init_pi, v)]);
        }
        // Constrain per-frame real inputs.
        for (frame, vector) in test.vectors.iter().enumerate() {
            for (&pi, &v) in reals.iter().zip(vector) {
                solver.add_clause(&[vars.lit(unrolled.instance(frame, pi), v)]);
            }
        }
        // Constrain the erroneous output at its frame.
        let out_inst = unrolled.instance(test.frame, test.output);
        solver.add_clause(&[vars.lit(out_inst, test.expected)]);
    }

    let select_lits: Vec<Lit> = selects.iter().map(|v| v.positive()).collect();
    let totalizer = Totalizer::new(&mut solver, &select_lits, k.min(selects.len()));

    // Work unit: SAT queries. Conflicts and the deadline thread straight
    // into the solver, exactly like the combinational BSAT.
    let mut meter = options.budget.meter();
    solver.set_conflict_budget(options.budget.conflicts);
    solver.set_deadline(options.budget.deadline_instant());

    let mut solutions: Vec<Vec<GateId>> = Vec::new();
    let mut truncation: Option<Truncation> = None;
    'sizes: for size in 1..=k.min(selects.len()) {
        let queries = meter.remaining_work();
        if queries < 2 {
            // Cannot afford even one solution plus its closing query.
            meter.note(Truncation::Work);
            break 'sizes;
        }
        let remaining = options.max_solutions.saturating_sub(solutions.len());
        if remaining == 0 {
            truncation = Some(Truncation::Solutions);
            break 'sizes;
        }
        let cap = remaining.min(usize::try_from(queries - 1).unwrap_or(usize::MAX));
        let assumptions: Vec<Lit> = totalizer.at_most(size).into_iter().collect();
        let out = enumerate_positive_subsets(&mut solver, &selects, &assumptions, cap);
        meter.charge(out.solutions.len() as u64 + 1);
        for subset in out.solutions {
            let mut gates: Vec<GateId> = subset
                .iter()
                // The selects are consecutive variables in site order.
                .map(|v| sites[v.index() - selects[0].index()])
                .collect();
            gates.sort();
            solutions.push(gates);
        }
        if !out.complete {
            truncation = Some(if out.gave_up {
                if solver.deadline_hit() {
                    Truncation::Deadline
                } else {
                    Truncation::Conflicts
                }
            } else if cap < remaining {
                // The binding cap was the query budget, not max_solutions.
                Truncation::Work
            } else {
                Truncation::Solutions
            });
            break 'sizes;
        }
    }
    let truncation = Truncation::merge(truncation, meter.truncation());
    solutions.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
    SeqDiagnosis {
        solutions,
        complete: truncation.is_none(),
        truncation,
        stats: solver.stats(),
    }
}

/// Exact validity check for sequential corrections: a gate-change
/// correction acts in every frame, so the candidates' instances in every
/// frame of the unrolling are checked by the combinational
/// [`ValidityOracle`] against the unrolled tests of
/// [`sequence_tests_to_unrolled`]. A latch output's frame-0 instance is
/// the initial-state input, which no correction drives, so only its later
/// frames count.
pub fn is_valid_sequential_correction(
    circuit: &Circuit,
    tests: &SequenceTestSet,
    candidates: &[GateId],
) -> bool {
    if tests.is_empty() {
        return true;
    }
    let (unrolled, set) = sequence_tests_to_unrolled(circuit, tests);
    let mut instances = Vec::with_capacity(candidates.len() * unrolled.frames());
    for frame in 0..unrolled.frames() {
        for &g in candidates {
            let instance = unrolled.instance(frame, g);
            if unrolled.circuit.gate(instance).kind() != GateKind::Input {
                instances.push(instance);
            }
        }
    }
    instances.sort_unstable();
    instances.dedup();
    ValidityOracle::new(&unrolled.circuit).is_valid(&set, &instances)
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
/// instance* of a gate as an independent candidate; only the sequential
/// engine above shares selects per original gate.
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
    use crate::bsim::MarkPolicy;
    use gatediag_netlist::{inject_errors, parse_bench, CircuitBuilder, RandomCircuitSpec};
    use gatediag_sim::simulate;
    use rand::Rng;

    fn toggle_circuit() -> Circuit {
        parse_bench("INPUT(en)\nOUTPUT(out)\nq = DFF(d)\nd = XOR(q, en)\nout = BUF(q)\n").unwrap()
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
    fn sequential_sim_diagnose_implicates_the_error() {
        let golden = toggle_circuit();
        let d = golden.find("d").unwrap();
        let faulty = golden.with_gate_kind(d, gatediag_netlist::GateKind::Xnor);
        let tests = generate_failing_sequences(&golden, &faulty, 4, 6, 3, 512);
        assert!(!tests.is_empty());
        let result = sequential_sim_diagnose(
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
    }

    #[test]
    fn sequential_sim_diagnose_work_budget_truncates_to_prefix() {
        let golden = toggle_circuit();
        let d = golden.find("d").unwrap();
        let faulty = golden.with_gate_kind(d, gatediag_netlist::GateKind::Xnor);
        let tests = generate_failing_sequences(&golden, &faulty, 4, 6, 3, 512);
        assert!(tests.len() >= 2);
        // Each test costs 4 frames; a budget of 4 traces exactly one test.
        let budget = Budget {
            work: Some(4),
            ..Budget::default()
        };
        let result = sequential_sim_diagnose(
            &faulty,
            &tests,
            BsimOptions {
                budget,
                ..BsimOptions::default()
            },
        );
        assert_eq!(result.candidate_sets.len(), 1);
        assert_eq!(result.truncation, Some(Truncation::Work));
        assert_eq!(result.work, 4);
        // The traced prefix matches an unbudgeted run's first set.
        let full = sequential_sim_diagnose(&faulty, &tests, BsimOptions::default());
        assert_eq!(result.candidate_sets[0], full.candidate_sets[0]);
    }

    #[test]
    fn sequential_diagnosis_finds_injected_error() {
        let golden = toggle_circuit();
        let d = golden.find("d").unwrap();
        let faulty = golden.with_gate_kind(d, gatediag_netlist::GateKind::Xnor);
        let tests = generate_failing_sequences(&golden, &faulty, 4, 6, 3, 512);
        assert!(!tests.is_empty());
        let diag = sequential_sat_diagnose(
            &faulty,
            &tests,
            1,
            SeqBsatOptions {
                max_solutions: 1000,
                ..SeqBsatOptions::default()
            },
        );
        assert!(diag.complete);
        assert!(
            diag.solutions.contains(&vec![d]),
            "error gate {d} missing from {:?}",
            diag.solutions
        );
        for sol in &diag.solutions {
            assert!(
                is_valid_sequential_correction(&faulty, &tests, sol),
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
            let diag = sequential_sat_diagnose(&faulty, &tests, 1, SeqBsatOptions::default());
            assert!(
                diag.solutions.contains(&vec![sites[0].gate]),
                "seed {seed}: real site missing from {:?}",
                diag.solutions
            );
            for sol in &diag.solutions {
                assert!(is_valid_sequential_correction(&faulty, &tests, sol));
            }
        }
    }

    #[test]
    fn sat_work_budget_preempts_as_queries() {
        let golden = toggle_circuit();
        let d = golden.find("d").unwrap();
        let faulty = golden.with_gate_kind(d, gatediag_netlist::GateKind::Xnor);
        let tests = generate_failing_sequences(&golden, &faulty, 4, 4, 3, 512);
        assert!(!tests.is_empty());
        let diag = sequential_sat_diagnose(
            &faulty,
            &tests,
            1,
            SeqBsatOptions {
                budget: Budget {
                    work: Some(0),
                    ..Budget::default()
                },
                ..SeqBsatOptions::default()
            },
        );
        assert!(!diag.complete);
        assert_eq!(diag.truncation, Some(Truncation::Work));
        assert!(diag.solutions.is_empty());
        // Deterministic: the preempted run reproduces itself.
        let again = sequential_sat_diagnose(
            &faulty,
            &tests,
            1,
            SeqBsatOptions {
                budget: Budget {
                    work: Some(0),
                    ..Budget::default()
                },
                ..SeqBsatOptions::default()
            },
        );
        assert_eq!(diag, again);
    }

    #[test]
    fn sat_solution_cap_reports_solutions_truncation() {
        let golden = toggle_circuit();
        let d = golden.find("d").unwrap();
        let faulty = golden.with_gate_kind(d, gatediag_netlist::GateKind::Xnor);
        let tests = generate_failing_sequences(&golden, &faulty, 4, 4, 3, 512);
        assert!(!tests.is_empty());
        let full = sequential_sat_diagnose(&faulty, &tests, 2, SeqBsatOptions::default());
        if full.solutions.len() < 2 {
            return;
        }
        let capped = sequential_sat_diagnose(
            &faulty,
            &tests,
            2,
            SeqBsatOptions {
                max_solutions: 1,
                ..SeqBsatOptions::default()
            },
        );
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
        assert!(!is_valid_sequential_correction(&faulty, &tests, &[]));
        assert!(is_valid_sequential_correction(
            &faulty,
            &SequenceTestSet::default(),
            &[]
        ));
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
