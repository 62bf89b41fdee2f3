//! BSIM: basic simulation-based diagnosis by path tracing (paper Fig. 1).
//!
//! `PathTrace` walks backwards from the erroneous output over the simulated
//! faulty circuit, at each gate following one input at a controlling value
//! (or all inputs when none is controlling). `BasicSimDiagnose` runs it per
//! test, yielding one candidate set `C_i` per test plus the mark counts
//! `M(g)` used to rank candidates.

use crate::budget::{Budget, Truncation};
use crate::test_set::TestSet;
use gatediag_netlist::{Circuit, GateId, GateKind, GateSet};
use gatediag_sim::{pack_vectors_into, parallel_map_init_while, PackedSim, Parallelism};

/// How path tracing treats multiple controlling inputs.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum MarkPolicy {
    /// Mark exactly one controlling input (the first in fan-in order) —
    /// the paper's Fig. 1 step (3).
    #[default]
    FirstControlling,
    /// Mark every controlling input — a conservative variant that makes
    /// `C_i` a superset of the paper's; used for ablation.
    AllControlling,
}

/// Options for [`path_trace`] / [`basic_sim_diagnose`].
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct BsimOptions {
    /// Controlling-input marking policy.
    pub policy: MarkPolicy,
    /// Whether primary inputs appear in candidate sets. The paper corrects
    /// gates only, so the default is `false`; tracing still passes through
    /// inputs either way.
    pub include_inputs: bool,
    /// Worker count for sharding the packed sweeps and per-test path
    /// traces. The result is bit-identical for every setting.
    pub parallelism: Parallelism,
    /// Cooperative budget. BSIM's deterministic work unit is **one test
    /// traced**: a work budget truncates the test list to a prefix (a pure
    /// function of the input, so still bit-identical for every worker
    /// count), while the opt-in wall deadline stops between sweep batches
    /// (nondeterministic — see [`crate::budget`]). `conflicts` is ignored
    /// (BSIM runs no solver).
    pub budget: Budget,
}

/// Result of [`basic_sim_diagnose`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BsimResult {
    /// Candidate set `C_i` per *traced* test, in test order. Equal in
    /// length to the test set unless a budget truncated the run, in which
    /// case it is the traced prefix (see [`BsimResult::truncation`]).
    pub candidate_sets: Vec<GateSet>,
    /// `M(g)`: number of tests whose candidate set contains `g`.
    pub mark_counts: Vec<u32>,
    /// Union of all candidate sets (`∪ C_i`).
    pub union: GateSet,
    /// Why the run stopped early, if it did (`None` = all tests traced).
    pub truncation: Option<Truncation>,
    /// Deterministic work charged: the number of tests actually traced.
    pub work: u64,
}

impl BsimResult {
    /// Gates marked by the maximal number of tests
    /// (`G_max = {g : ∀h: M(g) ≥ M(h)}`, Table 3).
    pub fn gmax(&self) -> Vec<GateId> {
        let best = self.mark_counts.iter().copied().max().unwrap_or(0);
        if best == 0 {
            return Vec::new();
        }
        self.mark_counts
            .iter()
            .enumerate()
            .filter(|&(_, &m)| m == best)
            .map(|(i, _)| GateId::new(i))
            .collect()
    }
}

/// Path tracing from one erroneous output over pre-simulated values
/// (paper Fig. 1, steps 2-4).
///
/// `values` must be the faulty circuit's simulation of the test vector.
/// Returns the marked candidate gates.
///
/// # Panics
///
/// Panics if `values.len() != circuit.len()`.
pub fn path_trace(
    circuit: &Circuit,
    values: &[bool],
    output: GateId,
    options: BsimOptions,
) -> GateSet {
    assert_eq!(values.len(), circuit.len(), "value array size mismatch");
    path_trace_values(circuit, |g| values[g.index()], output, options)
}

/// Path tracing directly over packed simulation words: reads lane `lane`
/// of gate-major `words` (`words_per_gate` words per gate) without
/// unpacking a full `Vec<bool>` per test.
///
/// `words` is the layout produced by
/// [`PackedSim::values`](gatediag_sim::PackedSim::values).
///
/// # Panics
///
/// Panics if `words.len() != circuit.len() * words_per_gate` or the lane
/// is out of range.
pub fn path_trace_packed(
    circuit: &Circuit,
    words: &[u64],
    words_per_gate: usize,
    lane: usize,
    output: GateId,
    options: BsimOptions,
) -> GateSet {
    assert_eq!(
        words.len(),
        circuit.len() * words_per_gate,
        "packed value array size mismatch"
    );
    assert!(lane < words_per_gate * 64, "lane out of range");
    let (word, bit) = (lane / 64, lane % 64);
    path_trace_values(
        circuit,
        |g| words[g.index() * words_per_gate + word] >> bit & 1 == 1,
        output,
        options,
    )
}

/// Shared tracing kernel over an arbitrary value accessor, so the scalar
/// and packed entry points cannot drift apart. Walks the circuit's CSR
/// arrays directly — this loop runs once per (test, output) and is the
/// remaining per-test cost after simulation is amortised over packed
/// sweeps.
fn path_trace_values(
    circuit: &Circuit,
    value_of: impl Fn(GateId) -> bool,
    output: GateId,
    options: BsimOptions,
) -> GateSet {
    let kinds = circuit.kinds();
    let (heads, edges) = circuit.fanin_csr();
    let mut visited = GateSet::new(circuit.len());
    let mut candidates = GateSet::new(circuit.len());
    let mut worklist = Vec::with_capacity(64);
    worklist.push(output);
    while let Some(id) = worklist.pop() {
        if !visited.insert(id) {
            continue;
        }
        let kind = kinds[id.index()];
        if kind == GateKind::Input {
            if options.include_inputs {
                candidates.insert(id);
            }
            continue;
        }
        if kind.is_source() {
            // Constants are correctable candidates but have no fan-ins to
            // trace through.
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
                    .filter(|&f| value_of(f) == cv)
                    .peekable();
                if controlling.peek().is_some() {
                    match options.policy {
                        MarkPolicy::FirstControlling => {
                            worklist.push(controlling.next().expect("peeked non-empty"));
                        }
                        MarkPolicy::AllControlling => worklist.extend(controlling),
                    }
                } else {
                    worklist.extend_from_slice(fanins);
                }
            }
            // No controlling value (XOR/XNOR/NOT/BUF): every input is on a
            // sensitised path.
            None => worklist.extend_from_slice(fanins),
        }
    }
    candidates
}

/// `BasicSimDiagnose` (paper Fig. 1 step 5): path tracing per test.
///
/// # Examples
///
/// ```
/// use gatediag_core::{basic_sim_diagnose, generate_failing_tests, BsimOptions};
/// use gatediag_netlist::{c17, inject_errors};
///
/// let golden = c17();
/// let (faulty, sites) = inject_errors(&golden, 1, 3);
/// let tests = generate_failing_tests(&golden, &faulty, 8, 3, 4096);
/// let result = basic_sim_diagnose(&faulty, &tests, BsimOptions::default());
/// // With a single error, the real site is in every candidate set.
/// // (Guaranteed by the theory for single errors under AllControlling;
/// // overwhelmingly common under the paper's FirstControlling policy.)
/// assert_eq!(result.candidate_sets.len(), tests.len());
/// # let _ = sites;
/// ```
pub fn basic_sim_diagnose(circuit: &Circuit, tests: &TestSet, options: BsimOptions) -> BsimResult {
    // One bit-parallel sweep covers up to `SWEEP_PATTERNS` tests: the
    // faulty circuit is simulated once per batch and path tracing reads
    // candidate values straight out of the packed words, so the per-test
    // cost is the trace itself, not a full scalar resimulation.
    const SWEEP_PATTERNS: usize = 512;
    // Cooperative budget: the deterministic work unit is one traced test,
    // so a work budget simply truncates the test list to a prefix *before*
    // the fan-out — the truncation point is a pure function of the input
    // and therefore bit-identical for every worker count. The wall
    // deadline, by contrast, is checked between batches below.
    let mut meter = options.budget.meter();
    let traced = usize::try_from(meter.remaining_work())
        .unwrap_or(usize::MAX)
        .min(tests.len());
    let work_truncated = traced < tests.len();
    let tests_slice = &tests.tests()[..traced];
    // Sharding: each batch (one packed sweep + its path traces) is an
    // independent unit claimed off the pool's shared index. With fewer
    // batches than workers, batches shrink (in whole 64-test words) so
    // every worker gets a share of both the sweeps and the traces. The
    // per-test results do not depend on how tests are grouped into
    // batches, so any chunking is bit-identical to the sequential one.
    //
    // Under the default `Auto`, the work floor keeps small workloads
    // (tiny circuits or few tests) inline; explicit `Fixed(n)` or a
    // `GATEDIAG_WORKERS` override always fans out as requested.
    let workers = options.parallelism.workers_for(
        traced.div_ceil(64),
        circuit.len().saturating_mul(traced),
        gatediag_sim::AUTO_WORK_FLOOR,
    );
    let chunk = if workers > 1 {
        (traced.div_ceil(workers)).div_ceil(64) * 64
    } else {
        SWEEP_PATTERNS
    }
    .clamp(64, SWEEP_PATTERNS);
    let batches: Vec<&[crate::test_set::Test]> = tests_slice.chunks(chunk).collect();
    // The deadline probe is the cooperative checkpoint between batches; a
    // `None` budget compiles down to a constant-true probe.
    let deadline = meter.deadline();
    let per_batch: Vec<Option<Vec<GateSet>>> = parallel_map_init_while(
        workers,
        batches.len(),
        || (PackedSim::new(circuit), Vec::new(), Vec::new()),
        |(sim, packed, vectors), b| {
            let batch = batches[b];
            vectors.clear();
            vectors.extend(batch.iter().map(|t| t.vector.as_slice()));
            let words = pack_vectors_into(circuit, vectors, packed);
            sim.reset(words);
            sim.set_input_words(packed);
            sim.sweep();
            batch
                .iter()
                .enumerate()
                .map(|(lane, test)| {
                    path_trace_packed(circuit, sim.values(), words, lane, test.output, options)
                })
                .collect()
        },
        || deadline.is_none_or(|d| std::time::Instant::now() < d),
    );
    let mut candidate_sets = Vec::with_capacity(traced);
    let mut mark_counts = vec![0u32; circuit.len()];
    let mut union = GateSet::new(circuit.len());
    let mut deadline_hit = false;
    for batch in per_batch {
        let Some(batch) = batch else {
            // The deadline fired mid-fan-out: keep the contiguous prefix of
            // traced tests (later batches may have completed on other
            // workers, but a gap would misalign `C_i` with test `i`).
            deadline_hit = true;
            break;
        };
        for marked in batch {
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
    let work = candidate_sets.len() as u64;
    BsimResult {
        candidate_sets,
        mark_counts,
        union,
        truncation: meter.truncation(),
        work,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_set::{generate_failing_tests, Test};
    use gatediag_netlist::{c17, inject_errors, CircuitBuilder, RandomCircuitSpec};
    use gatediag_sim::simulate;

    fn trace_c17(vector: [bool; 5], output: &str, options: BsimOptions) -> Vec<String> {
        let c = c17();
        let values = simulate(&c, &vector);
        let marked = path_trace(&c, &values, c.find(output).unwrap(), options);
        let mut names: Vec<String> = marked
            .iter()
            .map(|g| c.gate_name(g).unwrap().to_string())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn path_trace_marks_output_gate() {
        let marked = trace_c17([false; 5], "G22", BsimOptions::default());
        assert!(marked.contains(&"G22".to_string()));
    }

    #[test]
    fn path_trace_hand_computed_c17() {
        // Inputs all 0: G10=NAND(0,0)=1, G11=1, G16=NAND(0,1)=1,
        // G19=NAND(1,0)=1, G22=NAND(G10=1,G16=1)=0.
        // At G22 no input is controlling (cv of NAND is 0) -> mark both.
        // G10: inputs G1=0,G3=0 both controlling -> mark first (G1, input).
        // G16: inputs G2=0 (controlling), G11 -> mark G2 (input).
        let marked = trace_c17([false; 5], "G22", BsimOptions::default());
        assert_eq!(marked, vec!["G10", "G16", "G22"]);
        // With inputs included, G1 and G2 appear too.
        let with_inputs = trace_c17(
            [false; 5],
            "G22",
            BsimOptions {
                include_inputs: true,
                ..BsimOptions::default()
            },
        );
        assert_eq!(with_inputs, vec!["G1", "G10", "G16", "G2", "G22"]);
    }

    #[test]
    fn all_controlling_is_superset_of_first_controlling() {
        let c = RandomCircuitSpec::new(6, 2, 60).seed(3).generate();
        let (faulty, _) = inject_errors(&c, 2, 3);
        let tests = generate_failing_tests(&c, &faulty, 8, 3, 4096);
        let first = basic_sim_diagnose(&faulty, &tests, BsimOptions::default());
        let all = basic_sim_diagnose(
            &faulty,
            &tests,
            BsimOptions {
                policy: MarkPolicy::AllControlling,
                ..BsimOptions::default()
            },
        );
        for (f, a) in first.candidate_sets.iter().zip(&all.candidate_sets) {
            for g in f.iter() {
                assert!(a.contains(g), "{g} in first-controlling but not all");
            }
        }
    }

    #[test]
    fn single_error_site_is_in_every_set_under_all_controlling() {
        // Theory: with one error, the error site lies on a sensitised path
        // to the erroneous output, and AllControlling marks every
        // sensitised path.
        for seed in 0..6 {
            let golden = RandomCircuitSpec::new(6, 3, 50).seed(seed).generate();
            let (faulty, sites) = inject_errors(&golden, 1, seed);
            let tests = generate_failing_tests(&golden, &faulty, 6, seed, 4096);
            let result = basic_sim_diagnose(
                &faulty,
                &tests,
                BsimOptions {
                    policy: MarkPolicy::AllControlling,
                    ..BsimOptions::default()
                },
            );
            for (i, set) in result.candidate_sets.iter().enumerate() {
                assert!(
                    set.contains(sites[0].gate),
                    "seed {seed}: error {} missing from C_{i}",
                    sites[0].gate
                );
            }
        }
    }

    #[test]
    fn mark_counts_sum_matches_sets() {
        let golden = c17();
        let (faulty, _) = inject_errors(&golden, 1, 4);
        let tests = generate_failing_tests(&golden, &faulty, 8, 4, 4096);
        let result = basic_sim_diagnose(&faulty, &tests, BsimOptions::default());
        let total: u32 = result.mark_counts.iter().sum();
        let expected: usize = result.candidate_sets.iter().map(|s| s.len()).sum();
        assert_eq!(total as usize, expected);
        // Union is consistent.
        for (id, &m) in result.mark_counts.iter().enumerate() {
            assert_eq!(m > 0, result.union.contains(GateId::new(id)));
        }
    }

    #[test]
    fn gmax_contains_argmax_only() {
        let golden = c17();
        let (faulty, _) = inject_errors(&golden, 1, 8);
        let tests = generate_failing_tests(&golden, &faulty, 8, 8, 4096);
        let result = basic_sim_diagnose(&faulty, &tests, BsimOptions::default());
        let gmax = result.gmax();
        assert!(!gmax.is_empty());
        let best = result.mark_counts.iter().copied().max().unwrap();
        for g in &gmax {
            assert_eq!(result.mark_counts[g.index()], best);
        }
        for (i, &m) in result.mark_counts.iter().enumerate() {
            if m == best {
                assert!(gmax.contains(&GateId::new(i)));
            }
        }
    }

    #[test]
    fn trace_marks_constants_without_tracing_through() {
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let k = b.anon_gate(GateKind::Const1, vec![]);
        let g = b.gate(GateKind::Xor, vec![a, k], "g");
        b.output(g);
        let c = b.finish().unwrap();
        let values = simulate(&c, &[true]);
        let marked = path_trace(&c, &values, g, BsimOptions::default());
        assert!(marked.contains(g));
        assert!(marked.contains(k), "constants are correctable candidates");
    }

    #[test]
    fn multiplicity_bound_holds_when_premise_holds() {
        // Paper Sec. 2.2 (citing Kuehlmann et al. [10]): "because the
        // candidate set of each test contains at least one actual error
        // site, at least one actual error site is marked by more than m/p
        // tests". The pigeonhole consequence of the premise is
        // max_e M(e) >= ceil(m/p); we verify exactly that whenever the
        // premise holds (interacting errors can violate it, which is part
        // of why BSIM offers no guarantees).
        let mut premise_held = 0;
        for seed in 0..10u64 {
            for p in 2..=3usize {
                let golden = RandomCircuitSpec::new(6, 3, 50).seed(seed).generate();
                let (faulty, sites) = inject_errors(&golden, p, seed);
                let tests = generate_failing_tests(&golden, &faulty, 8, seed, 8192);
                if tests.len() < 4 {
                    continue;
                }
                let result = basic_sim_diagnose(
                    &faulty,
                    &tests,
                    BsimOptions {
                        policy: MarkPolicy::AllControlling,
                        ..BsimOptions::default()
                    },
                );
                let premise = result
                    .candidate_sets
                    .iter()
                    .all(|set| sites.iter().any(|s| set.contains(s.gate)));
                if !premise {
                    continue;
                }
                premise_held += 1;
                let m = tests.len();
                let best_error_marks = sites
                    .iter()
                    .map(|s| result.mark_counts[s.gate.index()] as usize)
                    .max()
                    .expect("at least one site");
                assert!(
                    best_error_marks >= m.div_ceil(p),
                    "seed {seed} p {p}: max error marks {best_error_marks} < ceil({m}/{p})"
                );
            }
        }
        assert!(premise_held > 0, "premise never held — no case exercised");
    }

    #[test]
    fn empty_test_set_gives_empty_result() {
        let c = c17();
        let result = basic_sim_diagnose(&c, &TestSet::default(), BsimOptions::default());
        assert!(result.candidate_sets.is_empty());
        assert!(result.union.is_empty());
        assert!(result.gmax().is_empty());
    }

    #[test]
    fn multi_output_test_traces_designated_output_only() {
        let c = c17();
        let t = Test {
            vector: vec![false; 5],
            output: c.find("G23").unwrap(),
            expected: true,
        };
        let result = basic_sim_diagnose(&c, &TestSet::new(vec![t]), BsimOptions::default());
        // G22's private fan-in G10 must not be marked when tracing G23.
        let g10 = c.find("G10").unwrap();
        assert!(!result.candidate_sets[0].contains(g10));
    }
}
