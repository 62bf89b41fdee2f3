//! One diagnosis problem for combinational and sequential runs:
//! [`DiagnosisProblem`].

use crate::bsat::{resolve_sites, sat_diagnose, BsatOptions, BsatResult};
use crate::bsim::{basic_sim_diagnose, BsimOptions, BsimResult};
use crate::sequential::{sequence_tests_to_unrolled, SequenceTestSet};
use crate::test_set::TestSet;
use crate::validity::ValidityOracle;
use gatediag_netlist::{Circuit, GateId, GateKind, GateSet, StateView, Unrolling};
use std::sync::{Arc, OnceLock};

/// The encoding of a sequential problem without sequences: there is no
/// frame to unroll, so it is the circuit itself with no tests.
static NO_TESTS: TestSet = TestSet::new(Vec::new());

/// A diagnosis problem: what every engine of
/// [`run_engine`](crate::run_engine) diagnoses.
///
/// Every engine diagnoses failing tests of an *encoded* circuit whose
/// gates map onto the gates of the circuit it reports on. A problem is
/// that tuple: the encoded circuit, its [`TestSet`], the grouping of each
/// reported gate (a *site*) into encoded instances, and the projection of
/// each instance back onto a reported gate.
///
/// * A **combinational** problem encodes the faulty circuit itself: every
///   site is its own single instance and projects onto itself.
/// * A **sequential** problem (the paper's reference \[4\], Ali et al.)
///   encodes the time-frame expansion of its sequence tests
///   ([`sequence_tests_to_unrolled`]). A gate-change error acts in every
///   frame, so a site groups its instances in every frame
///   ([`Unrolling::instances`]), and BSAT's select line guards all of
///   them, exactly as it is shared across test copies. An instance
///   projects onto the gate it implements ([`Unrolling::original`]),
///   except the instances of a latch output: its `init_*` input is the
///   test's initial state and its later frames' buffers only link one
///   frame's `d` gate to the next, so they implicate nothing.
///
/// The expansion is built on first use, inside the engine phase that
/// needs it, and kept for later runs on the same problem.
///
/// # Examples
///
/// Sequential BSIM and BSAT on one problem; the time-frame expansion is
/// built once, by the first run.
///
/// ```
/// use gatediag_core::{
///     generate_failing_sequences, run_engine, DiagnosisProblem, EngineConfig, EngineKind,
/// };
/// use gatediag_netlist::{inject_errors, RandomCircuitSpec};
///
/// let golden = RandomCircuitSpec::new(5, 3, 30).latches(3).seed(1).generate();
/// let (faulty, sites) = inject_errors(&golden, 1, 1);
/// let tests = generate_failing_sequences(&golden, &faulty, 3, 4, 1, 1024);
/// let problem = DiagnosisProblem::sequential(faulty, tests);
/// if !problem.is_empty() {
///     let config = EngineConfig::default();
///     let bsim = run_engine(EngineKind::SeqBsim, &problem, &config);
///     let bsat = run_engine(EngineKind::SeqBsat, &problem, &config);
///     assert!(bsat.solutions.contains(&vec![sites[0].gate]));
///     assert!(bsat.solutions.iter().all(|sol| problem.is_valid(sol)));
///     assert!(bsim.candidates.contains(&sites[0].gate));
/// }
/// ```
#[derive(Clone, Debug)]
pub struct DiagnosisProblem {
    /// The circuit whose gates the engines report.
    circuit: Arc<Circuit>,
    shape: Shape,
}

#[derive(Clone, Debug)]
enum Shape {
    Combinational(TestSet),
    /// The sequence tests and their time-frame expansion, built on first
    /// use.
    Sequential(SequenceTestSet, OnceLock<Arc<(Unrolling, TestSet)>>),
}

impl DiagnosisProblem {
    /// The combinational problem: `tests` fail on `circuit`, which is
    /// encoded as it is.
    pub fn combinational(circuit: impl Into<Arc<Circuit>>, tests: TestSet) -> Self {
        DiagnosisProblem {
            circuit: circuit.into(),
            shape: Shape::Combinational(tests),
        }
    }

    /// The sequential problem: the sequences `tests` fail on `circuit`,
    /// which is encoded as its time-frame expansion over the longest of
    /// them.
    pub fn sequential(circuit: impl Into<Arc<Circuit>>, tests: SequenceTestSet) -> Self {
        DiagnosisProblem {
            circuit: circuit.into(),
            shape: Shape::Sequential(tests, OnceLock::new()),
        }
    }

    /// The circuit whose gates the engines report.
    pub(crate) fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// `true` for a sequential problem.
    pub(crate) fn is_sequential(&self) -> bool {
        matches!(self.shape, Shape::Sequential(..))
    }

    /// Number of failing tests (or sequences).
    pub fn len(&self) -> usize {
        match &self.shape {
            Shape::Combinational(tests) => tests.len(),
            Shape::Sequential(tests, _) => tests.len(),
        }
    }

    /// `true` when there is no failing test.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The encoded circuit, its tests and, for a sequential problem, the
    /// unrolling that groups and projects its gates (`None`: every gate
    /// stands for itself). Builds the expansion on first use.
    pub(crate) fn encoded(&self) -> (&Circuit, &TestSet, Option<&Unrolling>) {
        match &self.shape {
            Shape::Combinational(tests) => (&self.circuit, tests, None),
            Shape::Sequential(tests, _) if tests.is_empty() => (&self.circuit, &NO_TESTS, None),
            Shape::Sequential(tests, expansion) => {
                let (unrolling, set) = &**expansion
                    .get_or_init(|| Arc::new(sequence_tests_to_unrolled(&self.circuit, tests)));
                (&unrolling.circuit, set, Some(unrolling))
            }
        }
    }

    /// Path tracing on the problem:
    /// [`basic_sim_diagnose`](crate::basic_sim_diagnose) over the encoded
    /// circuit, each traced test's candidate set projected onto the
    /// reported gates. A gate marked in several frames is implicated once
    /// per test, mirroring the select line sequential BSAT shares across
    /// frames, and [`BsimResult::mark_counts`] counts it once per test.
    /// The truncation and work are the encoded run's.
    ///
    /// # Examples
    ///
    /// ```
    /// use gatediag_core::{generate_failing_sequences, BsimOptions, DiagnosisProblem};
    /// use gatediag_netlist::{parse_bench, GateKind};
    ///
    /// let golden =
    ///     parse_bench("INPUT(en)\nOUTPUT(out)\nq = DFF(d)\nd = XOR(q, en)\nout = BUF(q)\n")
    ///         .unwrap();
    /// let d = golden.find("d").unwrap();
    /// let faulty = golden.with_gate_kind(d, GateKind::Xnor);
    /// let tests = generate_failing_sequences(&golden, &faulty, 4, 6, 3, 512);
    /// let problem = DiagnosisProblem::sequential(faulty, tests);
    /// let traced = problem.trace(BsimOptions::default());
    /// assert!(traced.candidate_sets.iter().all(|c| c.contains(d)));
    /// ```
    pub fn trace(&self, options: BsimOptions) -> BsimResult {
        let (encoded, tests, unrolling) = self.encoded();
        let run = basic_sim_diagnose(encoded, tests, options);
        let Some(unrolling) = unrolling else {
            return run;
        };
        let view = StateView::new(&self.circuit);
        let mut mark_counts = vec![0u32; self.circuit.len()];
        let mut union = GateSet::new(self.circuit.len());
        let candidate_sets = run
            .candidate_sets
            .iter()
            .map(|marked| {
                let mut projected = GateSet::new(self.circuit.len());
                for instance in marked.iter() {
                    let gate = unrolling.original(instance);
                    if view.latch_slot_of(gate).is_none() {
                        projected.insert(gate);
                    }
                }
                for gate in projected.iter() {
                    mark_counts[gate.index()] += 1;
                }
                union.union_with(&projected);
                projected
            })
            .collect();
        BsimResult {
            candidate_sets,
            mark_counts,
            union,
            truncation: run.truncation,
            work: run.work,
        }
    }

    /// `BasicSATDiagnose` on the problem: one select per non-input
    /// reported gate, guarding the gate's encoded instances in every test
    /// copy. The solutions are reported gates.
    pub(crate) fn solve(&self, k: usize, options: BsatOptions) -> BsatResult {
        let (encoded, tests, unrolling) = self.encoded();
        let sites = resolve_sites(&self.circuit);
        sat_diagnose(
            encoded,
            tests,
            &sites,
            |gate| instances(unrolling, gate),
            k,
            options,
        )
    }

    /// Exact validity of the reported gates `candidates`: the
    /// [`ValidityOracle`] on the encoded circuit, with the candidates'
    /// instances as the gates a correction may change. An instance that
    /// is an encoded input (a latch output's initial state) is no gate a
    /// correction changes, so it is left out.
    pub fn is_valid(&self, candidates: &[GateId]) -> bool {
        let (encoded, tests, unrolling) = self.encoded();
        let mut expanded: Vec<GateId> = candidates
            .iter()
            .flat_map(|&gate| instances(unrolling, gate))
            .filter(|&instance| encoded.gate(instance).kind() != GateKind::Input)
            .collect();
        expanded.sort_unstable();
        expanded.dedup();
        ValidityOracle::new(encoded).is_valid(tests, &expanded)
    }
}

/// The encoded instances of the reported gate `gate`, in frame order: its
/// instance in every frame of `unrolling`, or `gate` itself.
fn instances(unrolling: Option<&Unrolling>, gate: GateId) -> impl Iterator<Item = GateId> + '_ {
    let frames = unrolling.map_or(1, Unrolling::frames);
    (0..frames).map(move |frame| unrolling.map_or(gate, |u| u.instance(frame, gate)))
}
