//! Tests and test-sets (Definition 1 of the paper) and their generation.

use gatediag_netlist::{fanin_cone, fanout_cone, Circuit, GateId, GateSet, VectorGen};
use gatediag_sim::PackedSim;

/// A diagnosis test: the triple `(t, o, v)` of Definition 1.
///
/// `vector` is the primary-input assignment, `output` the primary output
/// observed to be erroneous under it, and `expected` the correct value that
/// output should have taken.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Test {
    /// Primary input values, in `circuit.inputs()` order.
    pub vector: Vec<bool>,
    /// The erroneous primary output.
    pub output: GateId,
    /// The correct value for `output`.
    pub expected: bool,
}

/// An ordered set of [`Test`]s (Definition 2).
///
/// Order matters for reproducing the paper's experiments: diagnosing with
/// `m ∈ {4, 8, 16, 32}` tests uses prefixes of one generated set, "a part
/// of the same test-set" as in Sec. 5.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct TestSet {
    tests: Vec<Test>,
}

impl TestSet {
    /// Wraps a list of tests.
    pub const fn new(tests: Vec<Test>) -> Self {
        TestSet { tests }
    }

    /// The tests, in order.
    pub fn tests(&self) -> &[Test] {
        &self.tests
    }

    /// Number of tests (the paper's `m`).
    pub fn len(&self) -> usize {
        self.tests.len()
    }

    /// `true` if there are no tests.
    pub fn is_empty(&self) -> bool {
        self.tests.is_empty()
    }

    /// Iterates over the tests.
    pub fn iter(&self) -> std::slice::Iter<'_, Test> {
        self.tests.iter()
    }

    /// The first `m` tests as a new set (prefix reuse as in the paper).
    ///
    /// # Panics
    ///
    /// Panics if `m > self.len()`. Use [`TestSet::prefix_at_most`] when
    /// the generator may have found fewer than `m` tests.
    pub fn prefix(&self, m: usize) -> TestSet {
        TestSet {
            tests: self.tests[..m].to_vec(),
        }
    }

    /// The first `min(m, len)` tests as a new set — the clamping variant
    /// of [`TestSet::prefix`] for callers whose generator may come up
    /// short (e.g. a near-redundant injected error).
    pub fn prefix_at_most(&self, m: usize) -> TestSet {
        self.prefix(m.min(self.tests.len()))
    }
}

impl FromIterator<Test> for TestSet {
    fn from_iter<T: IntoIterator<Item = Test>>(iter: T) -> Self {
        TestSet {
            tests: iter.into_iter().collect(),
        }
    }
}

impl<'a> IntoIterator for &'a TestSet {
    type Item = &'a Test;
    type IntoIter = std::slice::Iter<'a, Test>;

    fn into_iter(self) -> Self::IntoIter {
        self.tests.iter()
    }
}

/// Generates `want` failing tests by random simulation of the golden and
/// faulty circuit pair.
///
/// Random vectors are drawn straight into packed input words, 512 per
/// batch. Only outputs in the fan-out cone of the gates that differ
/// between the two circuits can differ, so each batch sweeps the golden
/// circuit over those outputs' fan-in cones and the faulty one over the
/// fan-out cone, on top of the golden values. The golden and faulty words
/// of those outputs are XORed and ORed into one "some output differs"
/// mask per word; only the set lanes of that mask are unpacked. Every
/// (vector, output) pair on which the circuits disagree yields a [`Test`]
/// whose `expected` value comes from the golden circuit, in vector order
/// and then `circuit.outputs()` order. The returned set is
/// duplicate-free: the random generator may repeat a vector, but each
/// distinct `(vector, output)` failure is reported once, at its first
/// occurrence. Returns fewer than `want` tests if `max_vectors` random
/// vectors do not expose enough failures (e.g. the injected error is
/// close to redundant).
///
/// The `tests.vectors` obs counter charges the vectors drawn.
///
/// # Panics
///
/// Panics if the two circuits have different input/output shapes.
///
/// # Examples
///
/// ```
/// use gatediag_netlist::{c17, inject_errors};
/// use gatediag_core::generate_failing_tests;
///
/// let golden = c17();
/// let (faulty, _) = inject_errors(&golden, 1, 3);
/// let tests = generate_failing_tests(&golden, &faulty, 8, 3, 4096);
/// for t in &tests {
///     // Each test really fails on the faulty circuit.
///     let v = gatediag_sim::simulate(&faulty, &t.vector);
///     assert_ne!(v[t.output.index()], t.expected);
/// }
/// ```
pub fn generate_failing_tests(
    golden: &Circuit,
    faulty: &Circuit,
    want: usize,
    seed: u64,
    max_vectors: usize,
) -> TestSet {
    assert_eq!(
        golden.inputs().len(),
        faulty.inputs().len(),
        "golden/faulty input mismatch"
    );
    assert_eq!(
        golden.outputs().len(),
        faulty.outputs().len(),
        "golden/faulty output mismatch"
    );
    // Multi-word batches: one sweep of each circuit covers up to `BATCH`
    // random vectors, and both engines reuse their buffers across
    // batches.
    const BATCH: usize = 512;
    let cone = ObservableCone::new(golden, faulty);
    if cone.outputs.is_empty() {
        return TestSet::default();
    }
    let mut gen = VectorGen::new(golden, seed);
    // No capacity from `want`: a caller may ask for more tests than
    // memory holds and rely on `max_vectors` to end the search.
    let mut tests = Vec::new();
    let mut seen: std::collections::HashSet<(Vec<bool>, GateId)> = std::collections::HashSet::new();
    let mut tried = 0usize;
    let mut golden_sim = PackedSim::new(golden);
    let mut faulty_sim = PackedSim::new(faulty);
    let mut packed = Vec::new();
    let mut differs = Vec::new();
    while tests.len() < want && tried < max_vectors {
        let n = BATCH.min(max_vectors - tried);
        tried += n;
        let words = gen.next_packed(n, &mut packed);
        // Every batch but a short last one has the first one's width.
        if words != golden_sim.words_per_gate() {
            golden_sim.reset(words);
            faulty_sim.reset(words);
        }
        golden_sim.set_input_words(&packed);
        golden_sim.sweep_gates(&cone.golden);
        // Read only by a cone that holds inputs, when every gate counts
        // as changed.
        faulty_sim.set_input_words(&packed);
        for &b in &cone.boundary {
            faulty_sim.force(b, golden_sim.value_words(b));
        }
        faulty_sim.sweep_gates(&cone.faulty);
        differs.clear();
        differs.resize(words, 0u64);
        for &o in &cone.outputs {
            let g = golden_sim.value_words(o);
            let f = faulty_sim.value_words(o);
            for (d, (g, f)) in differs.iter_mut().zip(g.iter().zip(f)) {
                *d |= g ^ f;
            }
        }
        // Lanes past `n` carry all-zero inputs that were never drawn.
        if !n.is_multiple_of(64) {
            differs[words - 1] &= (1u64 << (n % 64)) - 1;
        }
        'batch: for (w, &mask) in differs.iter().enumerate() {
            let mut bits = mask;
            while bits != 0 {
                let lane = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let vector: Vec<bool> = (0..golden.inputs().len())
                    .map(|i| packed[i * words + w] >> (lane % 64) & 1 == 1)
                    .collect();
                for &o in &cone.outputs {
                    let g = golden_sim.lane(o, lane);
                    if g != faulty_sim.lane(o, lane) && seen.insert((vector.clone(), o)) {
                        tests.push(Test {
                            vector: vector.clone(),
                            output: o,
                            expected: g,
                        });
                        if tests.len() >= want {
                            break 'batch;
                        }
                    }
                }
            }
        }
    }
    gatediag_obs::count("tests.vectors", tried as u64);
    TestSet::new(tests)
}

/// The part of a golden/faulty pair that random simulation must
/// evaluate to find every output on which the two differ.
///
/// Gate ids align: the fault models rebuild the golden circuit gate by
/// gate and append any new gate past `golden.len()`. A faulty gate is
/// *changed* if its id is past `golden.len()` or its kind or fan-in ids
/// differ from the golden gate's; if the input lists (or the gate counts)
/// differ, every gate counts as changed. Then:
///
/// * an unchanged gate outside the fan-out cone of the changed gates
///   keeps its golden value on every vector, by induction along the
///   topological order: same function of the same fan-ins, none of them
///   in the cone (inputs take the same words by position);
/// * so an output outside the cone cannot differ, and only the outputs
///   in the cone are compared;
/// * the faulty cone reads, besides itself, only unchanged gates outside
///   it (the *boundary*), whose golden values are its faulty ones.
///
/// So the golden circuit is swept over the fan-in cone of the compared
/// outputs and the boundary, and the faulty one over the boundary, which
/// takes the golden words, and its cone. Outputs are golden ids, as in
/// the tests, and index the faulty simulator too.
struct ObservableCone {
    /// Golden gates to evaluate, in golden topological order.
    golden: Vec<GateId>,
    /// Faulty gates outside the cone that the cone reads.
    boundary: Vec<GateId>,
    /// Faulty gates to evaluate: the boundary and the cone, in faulty
    /// topological order.
    faulty: Vec<GateId>,
    /// The outputs in the cone, in `golden.outputs()` order.
    outputs: Vec<GateId>,
}

impl ObservableCone {
    fn new(golden: &Circuit, faulty: &Circuit) -> ObservableCone {
        let all_changed = golden.inputs() != faulty.inputs() || faulty.len() < golden.len();
        let changed: Vec<GateId> = (0..faulty.len())
            .map(GateId::new)
            .filter(|&id| {
                all_changed
                    || id.index() >= golden.len()
                    || golden.kind(id) != faulty.kind(id)
                    || golden.fanins(id) != faulty.fanins(id)
            })
            .collect();
        let cone = fanout_cone(faulty, &changed);
        let outputs: Vec<GateId> = golden
            .outputs()
            .iter()
            .copied()
            .filter(|&o| all_changed || cone.contains(o))
            .collect();
        let mut boundary = GateSet::new(faulty.len());
        for id in cone.iter() {
            for &f in faulty.fanins(id) {
                if !cone.contains(f) {
                    boundary.insert(f);
                }
            }
        }
        let mut evaluated = boundary.clone();
        evaluated.union_with(&cone);
        let boundary: Vec<GateId> = boundary.iter().collect();
        let golden_roots: Vec<GateId> = outputs.iter().chain(&boundary).copied().collect();
        let read = fanin_cone(golden, &golden_roots);
        let in_order = |circuit: &Circuit, gates: &GateSet| -> Vec<GateId> {
            let order = circuit.topo_order().iter().copied();
            order.filter(|&id| gates.contains(id)).collect()
        };
        ObservableCone {
            golden: in_order(golden, &read),
            faulty: in_order(faulty, &evaluated),
            boundary,
            outputs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gatediag_netlist::{c17, inject_errors, ripple_carry_adder};
    use gatediag_sim::simulate;

    #[test]
    fn generated_tests_fail_on_faulty_and_pass_on_golden() {
        let golden = ripple_carry_adder(4);
        let (faulty, _) = inject_errors(&golden, 2, 9);
        let ts = generate_failing_tests(&golden, &faulty, 16, 9, 4096);
        assert!(!ts.is_empty(), "injected error should be observable");
        for t in &ts {
            let g = simulate(&golden, &t.vector);
            let f = simulate(&faulty, &t.vector);
            assert_eq!(g[t.output.index()], t.expected);
            assert_ne!(f[t.output.index()], t.expected);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let golden = c17();
        let (faulty, _) = inject_errors(&golden, 1, 1);
        let a = generate_failing_tests(&golden, &faulty, 8, 5, 1024);
        let b = generate_failing_tests(&golden, &faulty, 8, 5, 1024);
        assert_eq!(a, b);
    }

    #[test]
    fn prefix_takes_first_tests() {
        let golden = c17();
        let (faulty, _) = inject_errors(&golden, 1, 2);
        let ts = generate_failing_tests(&golden, &faulty, 8, 7, 4096);
        if ts.len() >= 4 {
            let p = ts.prefix(4);
            assert_eq!(p.len(), 4);
            assert_eq!(p.tests(), &ts.tests()[..4]);
        }
    }

    #[test]
    fn prefix_at_most_clamps_instead_of_panicking() {
        let golden = c17();
        let (faulty, _) = inject_errors(&golden, 1, 2);
        let ts = generate_failing_tests(&golden, &faulty, 8, 7, 4096);
        let clamped = ts.prefix_at_most(ts.len() + 100);
        assert_eq!(clamped, ts);
        if !ts.is_empty() {
            assert_eq!(ts.prefix_at_most(1).len(), 1);
        }
        assert!(TestSet::default().prefix_at_most(32).is_empty());
    }

    #[test]
    fn generated_sets_are_duplicate_free() {
        // A tiny input space forces the random generator to repeat
        // vectors long before `max_vectors` runs out; the set must still
        // be (vector, output)-unique.
        let golden =
            gatediag_netlist::parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n")
                .unwrap();
        let faulty =
            gatediag_netlist::parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = OR(a, b)\n").unwrap();
        let ts = generate_failing_tests(&golden, &faulty, 64, 11, 4096);
        // AND vs OR differ exactly on the two one-hot vectors.
        assert_eq!(ts.len(), 2, "expected the two distinct failures, once each");
        let mut seen = std::collections::HashSet::new();
        for t in &ts {
            assert!(
                seen.insert((t.vector.clone(), t.output)),
                "duplicate (vector, output) in generated set"
            );
        }
    }

    #[test]
    fn respects_vector_budget() {
        let golden = c17();
        // golden vs golden: no failures possible.
        let ts = generate_failing_tests(&golden, &golden, 4, 0, 256);
        assert!(ts.is_empty());
    }

    #[test]
    fn searches_sweep_only_the_observable_cone() {
        use gatediag_netlist::{inject_stuck_at, RandomCircuitSpec};
        use std::sync::Arc;
        let golden = RandomCircuitSpec::new(12, 6, 200).seed(5).generate();
        let observed = |faulty: &Circuit, max_vectors: usize| {
            let sink = Arc::new(gatediag_obs::Sink::new());
            let tests = {
                let _guard = gatediag_obs::install(Arc::clone(&sink));
                generate_failing_tests(&golden, faulty, usize::MAX, 1, max_vectors)
            };
            (tests, sink.take_trace())
        };
        // No gate changed: no output can differ, and no vector is drawn.
        let (tests, trace) = observed(&golden, 1000);
        assert!(tests.is_empty());
        assert_eq!(trace.counter("tests.vectors"), 0);
        assert_eq!(trace.counter("sim.sweeps"), 0);
        // One deep stuck-at: each of the three batches (512, 512, 76
        // vectors) sweeps the two cone lists, far fewer gates than two
        // full sweeps.
        let site = golden
            .topo_order()
            .iter()
            .copied()
            .rfind(|&id| !golden.kind(id).is_source() && !golden.is_output(id))
            .unwrap();
        let faulty = inject_stuck_at(&golden, site, true);
        let cone = ObservableCone::new(&golden, &faulty);
        let evaluated = cone.golden.len() + cone.faulty.len();
        assert!(evaluated < golden.len(), "{evaluated} of {}", golden.len());
        let (_, trace) = observed(&faulty, 1100);
        assert_eq!(trace.counter("tests.vectors"), 1100);
        assert_eq!(trace.counter("sim.sweeps"), 6);
        assert_eq!(trace.counter("sim.gate_evals"), 3 * evaluated as u64);
    }

    #[test]
    fn collects_multiple_failing_outputs_per_vector() {
        // An error feeding both outputs can fail both on one vector.
        let golden = c17();
        let g16 = golden.find("G16").unwrap();
        let faulty = golden.with_gate_kind(g16, gatediag_netlist::GateKind::Nor);
        let ts = generate_failing_tests(&golden, &faulty, 64, 3, 8192);
        let mut by_vector = std::collections::HashMap::new();
        for t in &ts {
            *by_vector.entry(t.vector.clone()).or_insert(0usize) += 1;
        }
        assert!(
            by_vector.values().any(|&n| n >= 2),
            "expected some vector to fail on both outputs"
        );
    }
}
