//! BSAT: SAT-based diagnosis (paper Fig. 2/3, `BasicSATDiagnose`).
//!
//! One instrumented circuit copy per test (correction multiplexers with
//! select lines shared across copies), inputs and the expected output value
//! constrained per copy, cardinality bound `Σ s_g ≤ k`. Solutions — read
//! off the select lines — are *guaranteed valid corrections* (Lemma 1),
//! and iterating `k = 1..K` with subset blocking yields exactly the
//! corrections with only essential candidates (Lemma 3).
//!
//! Of the advanced options of Sec. 2.3 this engine keeps the
//! explicit-mux encoding with `c = 0` pinning ([`MuxEncoding`]) and, for
//! the Sec. 6 hybrid, seeding of the solver's decision heuristic from
//! simulation results ([`BsatOptions::hints`]). Every non-input gate
//! receives a correction multiplexer.
//!
//! The instance build encodes one instrumented copy into a recorded
//! clause block ([`BlockRecorder`]) and stamps it once per test
//! ([`Solver::add_block`]): the copies differ only by a variable offset,
//! and a stamp appends a copy's normalised clauses, arena words and
//! watchers in bulk, leaving the solver exactly as encoding the copy
//! clause by clause would. After an earlier test's pins force a select
//! line at the root, the remaining copies go in clause by clause.
//!
//! The same instance build and enumeration loop serve every
//! [`DiagnosisProblem`](crate::DiagnosisProblem): on a sequential one
//! (engine `seq-bsat`) each gate's select guards its instance in every
//! frame of the time-frame expansion.

use crate::budget::{Budget, Truncation};
use crate::test_set::TestSet;
use gatediag_cnf::{
    encode_instrumented_copy, BlockRecorder, Instrumentation, MuxEncoding, Totalizer,
};
use gatediag_netlist::{Circuit, GateId, GateKind};
use gatediag_sat::{enumerate_positive_subsets, Lit, Solver, SolverStats, Var};
use std::time::{Duration, Instant};

/// Options for [`basic_sat_diagnose`].
#[derive(Clone, PartialEq, Debug)]
pub struct BsatOptions {
    /// Multiplexer encoding (inline guards vs the paper's explicit mux).
    pub encoding: MuxEncoding,
    /// Stop after this many solutions (`complete = false` if hit).
    pub max_solutions: usize,
    /// VSIDS seed hints `(gate, weight)`: bumps the gate's select variable
    /// and sets its phase to "selected" — the Sec. 6 hybrid lever.
    pub hints: Vec<(GateId, f64)>,
    /// Cooperative budget. BSAT's deterministic work unit **is** solver
    /// conflicts, so [`Budget::work`] and [`Budget::conflicts`] merge into
    /// one solver limit (the smaller wins, bounding each enumeration
    /// query); the opt-in wall deadline threads into the solver's
    /// cooperative deadline hook.
    pub budget: Budget,
}

impl Default for BsatOptions {
    fn default() -> Self {
        BsatOptions {
            encoding: MuxEncoding::default(),
            max_solutions: 1_000_000,
            hints: Vec::new(),
            budget: Budget::default(),
        }
    }
}

/// Result of a SAT-based diagnosis run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BsatResult {
    /// All solutions (sets of gates to change), each sorted by gate id,
    /// the list sorted by (size, lexicographic).
    pub solutions: Vec<Vec<GateId>>,
    /// `false` if truncated by `max_solutions` or the budget.
    pub complete: bool,
    /// Why the run stopped early, if it did. Always `Some` when
    /// `complete` is `false`.
    pub truncation: Option<Truncation>,
    /// Time to build the CNF (Table 2 "CNF").
    pub build_time: Duration,
    /// Time until the first solution (Table 2 "One").
    pub first_solution_time: Duration,
    /// Total run time (Table 2 "All").
    pub total_time: Duration,
    /// Solver statistics after the run.
    pub stats: SolverStats,
}

/// The multiplexer sites: every non-input gate, in id order.
pub(crate) fn resolve_sites(circuit: &Circuit) -> Vec<GateId> {
    circuit
        .iter()
        .filter(|(_, g)| g.kind() != GateKind::Input)
        .map(|(id, _)| id)
        .collect()
}

/// `BasicSATDiagnose(I, T, k)` — Fig. 3.
///
/// Builds one instrumented copy per test, then for `i = 1..k` enumerates
/// all solutions under the assumption `Σ s_g ≤ i`, blocking each solution
/// (and thus its supersets) before moving to the next bound.
///
/// # Examples
///
/// ```
/// use gatediag_core::{basic_sat_diagnose, generate_failing_tests, BsatOptions};
/// use gatediag_core::is_valid_correction;
/// use gatediag_netlist::{c17, inject_errors};
///
/// let golden = c17();
/// let (faulty, _) = inject_errors(&golden, 1, 3);
/// let tests = generate_failing_tests(&golden, &faulty, 8, 3, 4096);
/// let result = basic_sat_diagnose(&faulty, &tests, 1, BsatOptions::default());
/// // Lemma 1: every BSAT solution is a valid correction.
/// for sol in &result.solutions {
///     assert!(is_valid_correction(&faulty, &tests, sol));
/// }
/// ```
pub fn basic_sat_diagnose(
    circuit: &Circuit,
    tests: &TestSet,
    k: usize,
    options: BsatOptions,
) -> BsatResult {
    let sites = resolve_sites(circuit);
    sat_diagnose(circuit, tests, &sites, std::iter::once, k, options)
}

/// The instance build and enumeration loop of `BasicSATDiagnose` over
/// copies of `encoded`, with the select of each site guarding the gates
/// `instances(site)` of `encoded` (see [`Instrumentation::new`]).
pub(crate) fn sat_diagnose<I: IntoIterator<Item = GateId>>(
    encoded: &Circuit,
    tests: &TestSet,
    sites: &[GateId],
    instances: impl Fn(GateId) -> I,
    k: usize,
    options: BsatOptions,
) -> BsatResult {
    let build_start = Instant::now();
    let mut solver = Solver::new();
    let instance = {
        let _encode = gatediag_obs::span("encode");
        let inst = Instrumentation::new(&mut solver, encoded, sites, instances);
        build_instance(&mut solver, encoded, tests, &inst, k, &options)
    };
    let build_time = build_start.elapsed();

    let mut solutions: Vec<Vec<GateId>> = Vec::new();
    let mut first_solution_time = Duration::ZERO;
    let mut truncation: Option<Truncation> = None;
    let enum_start = Instant::now();
    // The budget's work unit is conflicts here, so `work` and `conflicts`
    // merge into one solver limit; the wall deadline (if any) rides on the
    // solver's own cooperative hook.
    let (conflict_limit, conflict_reason) = options.budget.conflict_limit();
    solver.set_conflict_budget(conflict_limit);
    solver.set_deadline(options.budget.deadline_instant());
    let limit = k.min(instance.selectors.len());
    let enumerate_span = gatediag_obs::span("enumerate");
    'sizes: for size in 1..=limit {
        let assumptions: Vec<Lit> = instance
            .totalizer
            .as_ref()
            .and_then(|t| t.at_most(size))
            .into_iter()
            .collect();
        let remaining = options.max_solutions.saturating_sub(solutions.len());
        if remaining == 0 {
            truncation = Some(Truncation::Solutions);
            break 'sizes;
        }
        let out =
            enumerate_positive_subsets(&mut solver, &instance.selectors, &assumptions, remaining);
        if solutions.is_empty() {
            if let Some(found) = out.first_found {
                first_solution_time = build_time + found.duration_since(enum_start);
            }
        }
        for subset in out.solutions {
            let mut gates: Vec<GateId> = subset
                .iter()
                .map(|v| instance.gate_of_selector(*v))
                .collect();
            gates.sort();
            solutions.push(gates);
        }
        if !out.complete {
            truncation = Some(if !out.gave_up {
                Truncation::Solutions
            } else if solver.deadline_hit() {
                Truncation::Deadline
            } else {
                conflict_reason
            });
            break 'sizes;
        }
    }
    drop(enumerate_span);
    solutions.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
    BsatResult {
        solutions,
        complete: truncation.is_none(),
        truncation,
        build_time,
        first_solution_time,
        total_time: build_time + enum_start.elapsed(),
        stats: solver.stats(),
    }
}

struct Instance {
    selectors: Vec<Var>,
    sites: Vec<GateId>,
    totalizer: Option<Totalizer>,
}

impl Instance {
    /// The site of selector `v`, in O(1): the selectors are consecutive
    /// variables in site order, which [`build_instance`] checks.
    fn gate_of_selector(&self, v: Var) -> GateId {
        self.sites[v.index() - self.selectors[0].index()]
    }
}

fn build_instance(
    solver: &mut Solver,
    circuit: &Circuit,
    tests: &TestSet,
    inst: &Instrumentation,
    k: usize,
    options: &BsatOptions,
) -> Instance {
    // The per-test instrumented copies differ only by a variable offset,
    // so copy 0 is encoded once into a recorded block and every test's
    // copy is stamped from it (`Solver::add_block`), followed by the
    // test's input and output pins. The stamp leaves the solver exactly
    // as encoding each copy clause by clause would, so the search is the
    // one a direct encoding gets.
    if !tests.is_empty() {
        let mut recorder = BlockRecorder::starting_at(solver.num_vars());
        let template = encode_instrumented_copy(&mut recorder, circuit, inst, options.encoding);
        recorder.reserve(solver, tests.len());
        for test in tests {
            let shift = recorder.stamp(solver);
            let lit = |gate: GateId, value: bool| {
                Var::from_index(template.vars.var(gate).index() + shift).lit(value)
            };
            for (&pi, &v) in circuit.inputs().iter().zip(&test.vector) {
                solver.add_clause(&[lit(pi, v)]);
            }
            solver.add_clause(&[lit(test.output, test.expected)]);
        }
    }
    let selectors = inst.select_vars().to_vec();
    // `Instrumentation::new` allocates one selector per site, in order.
    assert!(
        selectors
            .iter()
            .enumerate()
            .all(|(k, v)| v.index() == selectors[0].index() + k),
        "selectors are consecutive variables"
    );
    let totalizer = if selectors.is_empty() {
        None
    } else {
        let lits: Vec<Lit> = selectors.iter().map(|v| v.positive()).collect();
        Some(Totalizer::new(solver, &lits, k.min(selectors.len())))
    };
    // Hybrid seeding: prioritise hinted select variables and bias their
    // phase towards "selected".
    for (gate, weight) in &options.hints {
        if let Some(v) = inst.select(*gate) {
            solver.bump_variable(v, *weight);
            solver.set_polarity(v, true);
        }
    }
    Instance {
        selectors,
        sites: inst.sites().to_vec(),
        totalizer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_set::{generate_failing_tests, Test};
    use crate::validity::is_valid_correction;
    use gatediag_netlist::{inject_errors, CircuitBuilder, RandomCircuitSpec};

    fn setup(seed: u64, p: usize, m: usize) -> (Circuit, Circuit, TestSet) {
        let golden = RandomCircuitSpec::new(6, 3, 40).seed(seed).generate();
        let (faulty, _) = inject_errors(&golden, p, seed);
        let tests = generate_failing_tests(&golden, &faulty, m, seed, 8192);
        (golden, faulty, tests)
    }

    #[test]
    fn solutions_are_valid_corrections_lemma1() {
        for seed in 0..4 {
            let (_, faulty, tests) = setup(seed, 1, 6);
            if tests.is_empty() {
                continue;
            }
            let result = basic_sat_diagnose(&faulty, &tests, 2, BsatOptions::default());
            assert!(result.complete);
            assert!(!result.solutions.is_empty(), "error must be diagnosable");
            for sol in &result.solutions {
                assert!(
                    is_valid_correction(&faulty, &tests, sol),
                    "seed {seed}: BSAT returned invalid correction {sol:?}"
                );
            }
        }
    }

    #[test]
    fn real_error_site_appears_in_some_solution() {
        for seed in 0..4 {
            let golden = RandomCircuitSpec::new(6, 3, 40).seed(seed).generate();
            let (faulty, sites) = inject_errors(&golden, 1, seed);
            let tests = generate_failing_tests(&golden, &faulty, 6, seed, 8192);
            if tests.is_empty() {
                continue;
            }
            let result = basic_sat_diagnose(&faulty, &tests, 1, BsatOptions::default());
            // The singleton {error site} is a valid size-1 correction, so it
            // must be enumerated at k = 1.
            assert!(
                result.solutions.contains(&vec![sites[0].gate]),
                "seed {seed}: error site {} not among {:?}",
                sites[0].gate,
                result.solutions
            );
        }
    }

    #[test]
    fn encodings_agree() {
        let (_, faulty, tests) = setup(7, 2, 6);
        if tests.is_empty() {
            return;
        }
        let base = basic_sat_diagnose(&faulty, &tests, 2, BsatOptions::default());
        for encoding in [
            MuxEncoding::ExplicitMux {
                force_c_zero: false,
            },
            MuxEncoding::ExplicitMux { force_c_zero: true },
        ] {
            let other = basic_sat_diagnose(
                &faulty,
                &tests,
                2,
                BsatOptions {
                    encoding,
                    ..BsatOptions::default()
                },
            );
            assert_eq!(
                base.solutions, other.solutions,
                "{encoding:?} changed the solution space"
            );
        }
    }

    #[test]
    fn solutions_contain_only_essential_candidates_lemma3() {
        let (_, faulty, tests) = setup(3, 2, 8);
        if tests.is_empty() {
            return;
        }
        let result = basic_sat_diagnose(&faulty, &tests, 3, BsatOptions::default());
        for sol in &result.solutions {
            for drop in sol {
                let without: Vec<GateId> = sol.iter().copied().filter(|g| g != drop).collect();
                assert!(
                    !is_valid_correction(&faulty, &tests, &without),
                    "{sol:?} minus {drop} is still valid — candidate not essential"
                );
            }
        }
    }

    #[test]
    fn hints_do_not_change_solutions() {
        let (_, faulty, tests) = setup(9, 1, 6);
        if tests.is_empty() {
            return;
        }
        let plain = basic_sat_diagnose(&faulty, &tests, 2, BsatOptions::default());
        let hinted_gates: Vec<(GateId, f64)> = faulty
            .iter()
            .filter(|(_, g)| !g.kind().is_source())
            .map(|(id, _)| (id, 10.0))
            .collect();
        let hinted = basic_sat_diagnose(
            &faulty,
            &tests,
            2,
            BsatOptions {
                hints: hinted_gates,
                ..BsatOptions::default()
            },
        );
        assert_eq!(plain.solutions, hinted.solutions);
    }

    #[test]
    fn max_solutions_truncates() {
        let (_, faulty, tests) = setup(2, 2, 6);
        if tests.is_empty() {
            return;
        }
        let result = basic_sat_diagnose(
            &faulty,
            &tests,
            3,
            BsatOptions {
                max_solutions: 1,
                ..BsatOptions::default()
            },
        );
        assert_eq!(result.solutions.len(), 1);
        assert!(!result.complete);
    }

    #[test]
    fn first_solution_time_is_the_first_model() {
        // A 300-buffer chain with two failing tests: each buffer alone is
        // a valid correction, so the k = 1 layer holds 300 solutions, one
        // solve each. Table 2's "One" is the time to the first of them,
        // not to the end of the layer.
        let mut b = CircuitBuilder::new();
        let mut x = b.input("a");
        for i in 0..300 {
            x = b.gate(GateKind::Buf, vec![x], format!("n{i}"));
        }
        b.output(x);
        let chain = b.finish().unwrap();
        let tests = TestSet::new(
            [false, true]
                .into_iter()
                .map(|a| Test {
                    vector: vec![a],
                    output: x,
                    expected: !a,
                })
                .collect(),
        );
        let r = basic_sat_diagnose(&chain, &tests, 1, BsatOptions::default());
        assert_eq!(r.solutions.len(), 300);
        let first = r.first_solution_time - r.build_time;
        let enumeration = r.total_time - r.build_time;
        assert!(
            first < enumeration / 2,
            "first solution at {first:?} of a {enumeration:?} enumeration"
        );
    }

    #[test]
    fn timing_fields_are_coherent() {
        let (_, faulty, tests) = setup(1, 1, 4);
        if tests.is_empty() {
            return;
        }
        let r = basic_sat_diagnose(&faulty, &tests, 1, BsatOptions::default());
        assert!(r.build_time <= r.total_time);
        if !r.solutions.is_empty() {
            assert!(r.first_solution_time <= r.total_time);
        }
    }
}
