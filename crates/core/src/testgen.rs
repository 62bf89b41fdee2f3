//! SAT-guided discriminating-test generation — closing the sim↔SAT loop.
//!
//! Random test sets (see [`crate::generate_failing_tests`]) often leave a
//! diagnosis ambiguous: several correction candidates rectify every test
//! seen so far. This module asks the CDCL solver the question simulation
//! cannot ask: *is there an input vector that tells two candidates
//! apart?* — the combinational form of the measurement-selection loop in
//! "Sequential Diagnosis by Abstraction", built from this workspace's
//! existing Tseitin machinery.
//!
//! # The refutation query
//!
//! For a candidate `C` (a set of gates, paper Definition 3: a correction
//! may drive any values at those gates), one query stacks into a single
//! solver, all sharing their primary inputs ([`gatediag_cnf::tie_inputs`]):
//!
//! * the **golden** circuit `G` and the **faulty** circuit `F`;
//! * `2^|C|` copies of `F` with `C`'s gates **pinned** to each constant
//!   assignment ([`gatediag_cnf::encode_pinned_copy`]) — the universal
//!   expansion of "no free values at `C` rectify this output".
//!
//! A per-output selector `d_o` (with an at-least-one clause) activates,
//! for its output `o`: `F[o] ≠ G[o]` (the model is a genuinely *failing*
//! test with expected value `G[o]`) and `P[o] ≠ G[o]` for every pinned
//! copy (`C` cannot rectify `(t, o, G[o])`). A SAT model is therefore an
//! input vector yielding a failing test that **refutes** `C`; `UNSAT`
//! (under the accumulated blocking clauses) proves `C` *golden-consistent*
//! — no unseen failing test can ever refute it.
//!
//! Golden-consistency is also why one query per candidate suffices to
//! tell candidates apart: every failing test is rectifiable by every
//! golden-consistent candidate, so two of them can never be told apart by
//! failing tests — they are behaviorally equivalent as diagnoses and
//! merge into one ambiguity class.
//!
//! The phase is one pass over the candidates. Each query runs under the
//! run budget's remaining conflicts, so a query the budget stops leaves
//! nothing for a later one: the pass ends there and reports
//! [`Truncation::TestGen`].
//!
//! Each model is harvested both as a plain vector (for the blocking
//! clause that guarantees progress) and directly into
//! [`PackedSim`](gatediag_sim::PackedSim)
//! pattern words (the rIC3 `rt_dfs_simulate` harvest-into-bitvec idiom);
//! one packed sweep of golden and faulty then confirms every harvested
//! vector and collects *all* its failing `(vector, output, expected)`
//! triples into the generated [`TestSet`]. Finally the input solutions
//! are re-screened against the generated tests alone, which is where the
//! `solutions_before → solutions_after` shrinkage comes from.
//!
//! Everything is deterministic: fresh solvers per query, no randomness,
//! no wall-clock dependence unless a deadline is explicitly configured —
//! so campaign reports stay byte-identical across worker counts.

use crate::budget::{Budget, Truncation};
use crate::test_set::{Test, TestSet};
use crate::validity::{screen_valid_corrections, ValidityBackend};
use gatediag_cnf::{
    block_input_vector, encode_circuit, encode_pinned_copy, harvest_input_lane,
    harvest_input_vector, tie_inputs, CircuitVars, ClauseSink,
};
use gatediag_netlist::{Circuit, GateId, GateKind};
use gatediag_sat::{SolveResult, Solver, SolverStats};
use gatediag_sim::Parallelism;

/// Universal-expansion cap: candidates with more gates than this would
/// need `2^|C|` pinned copies per query and are left unresolved instead
/// (they survive as their own ambiguity class).
pub const EXPAND_MAX: usize = 4;

/// Result of one test-generation phase.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TestGenOutcome {
    /// The generated failing tests: every failing `(vector, output)`
    /// triple of every harvested vector, in harvest order (duplicate-free
    /// — blocking clauses make the vectors pairwise distinct).
    pub tests: TestSet,
    /// Number of input solutions (`= solutions.len()` at entry).
    pub solutions_before: usize,
    /// Number of solutions still valid for the generated tests
    /// (`survivors.len()`; always `≤ solutions_before`).
    pub solutions_after: usize,
    /// Indices (into the input solutions, ascending) of the solutions
    /// that survive the re-screen. Unscreened solutions (re-screen
    /// truncated) are conservatively kept.
    pub survivors: Vec<usize>,
    /// Partition of [`TestGenOutcome::survivors`] into ambiguity classes:
    /// all survivors *proven golden-consistent* are behaviorally
    /// equivalent and merge into one class; every unproven survivor
    /// (expansion cap, budget, or truncated re-screen) is its own class.
    /// Values are solution indices; `classes.len()` is the campaign's
    /// `ambiguity_classes` column.
    pub classes: Vec<Vec<usize>>,
    /// `Some(`[`Truncation::TestGen`]`)` when the run budget stopped the
    /// phase before it resolved every candidate (work, conflicts or
    /// deadline, or a truncated re-screen); `None` when the phase ran to
    /// completion.
    pub truncation: Option<Truncation>,
    /// Accumulated SAT statistics of every query plus the re-screen.
    pub stats: SolverStats,
}

/// `true` when `candidate` can take the refuted side of a query: small
/// enough for universal expansion and free of primary inputs (inputs are
/// fixed by the test vector, not correctable).
fn expandable(circuit: &Circuit, candidate: &[GateId]) -> bool {
    candidate.len() <= EXPAND_MAX
        && candidate
            .iter()
            .all(|&g| circuit.gate(g).kind() != GateKind::Input)
}

/// Encodes the refutation query of `refuted` into `solver`; returns the
/// golden copy's variable map (the canonical input vector).
fn build_query(
    solver: &mut Solver,
    golden: &Circuit,
    faulty: &Circuit,
    refuted: &[GateId],
) -> CircuitVars {
    let g = encode_circuit(solver, golden);
    let f = encode_circuit(solver, faulty);
    tie_inputs(solver, (&g, golden.inputs()), (&f, faulty.inputs()));
    let mut pinned_copies = Vec::with_capacity(1 << refuted.len());
    for mask in 0..1usize << refuted.len() {
        let pinned: Vec<(GateId, bool)> = refuted
            .iter()
            .enumerate()
            .map(|(i, &gate)| (gate, mask >> i & 1 == 1))
            .collect();
        let copy = encode_pinned_copy(solver, faulty, &pinned);
        tie_inputs(solver, (&g, golden.inputs()), (&copy, faulty.inputs()));
        pinned_copies.push(copy);
    }
    let mut at_least_one = Vec::with_capacity(golden.outputs().len());
    for (&go, &fo) in golden.outputs().iter().zip(faulty.outputs()) {
        let d = ClauseSink::new_var(solver);
        let dn = d.negative();
        let gl = g.lit(go, true);
        let fl = f.lit(fo, true);
        // d -> F[o] != G[o]: the vector is a failing test on o.
        solver.add_clause(&[dn, gl, fl]);
        solver.add_clause(&[dn, !gl, !fl]);
        // d -> P[o] != G[o] for every hardwired assignment of the
        // refuted candidate: no free values rectify o.
        for copy in &pinned_copies {
            let pl = copy.lit(fo, true);
            solver.add_clause(&[dn, gl, pl]);
            solver.add_clause(&[dn, !gl, !pl]);
        }
        at_least_one.push(d.positive());
    }
    solver.add_clause(&at_least_one);
    g
}

/// Resolution state of one input solution during the phase loop.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Status {
    /// Not yet queried, or the query the budget stopped.
    Open,
    /// Proven golden-consistent: no unseen failing test refutes it.
    Consistent,
    /// A harvested test provably refutes it.
    Refuted,
    /// Structurally unqueryable (expansion cap / contains an input).
    Skipped,
}

/// Runs the discriminating-test generation phase: one pass of refutation
/// queries over the expandable candidates, harvesting/blocking models,
/// confirming them by one packed simulation sweep, then re-screening the
/// input solutions against the generated tests alone.
///
/// `budget` is the surrounding run's budget. Its work unit here is **one
/// SAT query**, its conflict limit caps the phase's *cumulative*
/// conflicts, and a query it stops ends the pass. `parallelism` and
/// `backend` configure the final re-screen (bit-identical results for
/// every setting).
pub fn generate_discriminating_tests(
    golden: &Circuit,
    faulty: &Circuit,
    solutions: &[Vec<GateId>],
    budget: &Budget,
    parallelism: Parallelism,
    backend: ValidityBackend,
) -> TestGenOutcome {
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
    let mut meter = budget.meter();
    let mut stats = SolverStats::default();
    let mut status: Vec<Status> = solutions
        .iter()
        .map(|sol| {
            if expandable(faulty, sol) {
                Status::Open
            } else {
                Status::Skipped
            }
        })
        .collect();

    // Harvest buffers: each model goes into a plain vector (for the
    // blocking clause) and straight into PackedSim-layout pattern words
    // (lane = harvest index) for the batch confirmation sweep below; a
    // candidate yields at most one vector.
    let open_count = status.iter().filter(|&&s| s == Status::Open).count();
    let words_per_input = open_count.max(1).div_ceil(64);
    let mut words = vec![0u64; golden.inputs().len() * words_per_input];
    let mut harvested: Vec<Vec<bool>> = Vec::new();
    let mut conflicts_left = budget.conflicts;
    let deadline = budget.deadline_instant();
    let mut stopped = false;

    for index in 0..solutions.len() {
        if status[index] != Status::Open {
            continue;
        }
        if conflicts_left == Some(0) || !meter.charge(1) {
            stopped = true;
            break;
        }
        gatediag_obs::count("testgen.queries", 1);
        let mut solver = Solver::new();
        let vars = build_query(&mut solver, golden, faulty, &solutions[index]);
        for vector in &harvested {
            block_input_vector(&mut solver, &vars, golden.inputs(), vector);
        }
        solver.set_conflict_budget(conflicts_left);
        solver.set_deadline(deadline);
        let result = solver.solve(&[]);
        let query_stats = solver.stats();
        if let Some(left) = &mut conflicts_left {
            *left = left.saturating_sub(query_stats.conflicts);
        }
        stats.absorb(&query_stats);
        match result {
            SolveResult::Sat => {
                let vector = harvest_input_vector(&solver, &vars, golden.inputs());
                harvest_input_lane(
                    &solver,
                    &vars,
                    golden.inputs(),
                    &mut words,
                    words_per_input,
                    harvested.len(),
                );
                harvested.push(vector);
                status[index] = Status::Refuted;
            }
            SolveResult::Unsat => status[index] = Status::Consistent,
            SolveResult::Unknown => {
                stopped = true;
                break;
            }
        }
    }

    // Confirmation sweep: one packed simulation of golden and faulty over
    // every harvested lane at once; each failing (vector, output) pair
    // becomes a generated test.
    let mut tests = Vec::new();
    if !harvested.is_empty() {
        let mut golden_sim = gatediag_sim::PackedSim::new(golden);
        let mut faulty_sim = gatediag_sim::PackedSim::new(faulty);
        golden_sim.reset(words_per_input);
        golden_sim.set_input_words(&words);
        golden_sim.sweep();
        faulty_sim.reset(words_per_input);
        faulty_sim.set_input_words(&words);
        faulty_sim.sweep();
        for (lane, vector) in harvested.iter().enumerate() {
            let before = tests.len();
            for (&go, &fo) in golden.outputs().iter().zip(faulty.outputs()) {
                let g = golden_sim.lane(go, lane);
                if g != faulty_sim.lane(fo, lane) {
                    tests.push(Test {
                        vector: vector.clone(),
                        output: go,
                        expected: g,
                    });
                }
            }
            debug_assert!(
                tests.len() > before,
                "harvested vector is not a failing test"
            );
        }
    }
    let tests = TestSet::new(tests);

    // Re-screen the input solutions against the generated tests alone:
    // the shrinkage measurement. Unscreened solutions (truncated screen)
    // are conservatively kept.
    let mut screen_truncated = false;
    let verdicts: Vec<bool> = if tests.is_empty() {
        vec![true; solutions.len()]
    } else {
        let screen =
            screen_valid_corrections(faulty, &tests, solutions, parallelism, backend, budget);
        stats.absorb(&screen.stats);
        screen_truncated = screen.truncation.is_some();
        let mut verdicts = screen.verdicts;
        verdicts.resize(solutions.len(), true);
        verdicts
    };
    let survivors: Vec<usize> = (0..solutions.len()).filter(|&i| verdicts[i]).collect();

    // Equivalence classes: all proven-golden-consistent survivors merge
    // into one (no failing test can ever separate them); every unproven
    // survivor stays its own class.
    let mut classes: Vec<Vec<usize>> = Vec::new();
    let mut consistent_class: Option<usize> = None;
    for &index in &survivors {
        if status[index] == Status::Consistent {
            match consistent_class {
                Some(c) => classes[c].push(index),
                None => {
                    consistent_class = Some(classes.len());
                    classes.push(vec![index]);
                }
            }
        } else {
            classes.push(vec![index]);
        }
    }

    TestGenOutcome {
        solutions_before: solutions.len(),
        solutions_after: survivors.len(),
        tests,
        survivors,
        classes,
        truncation: (stopped || screen_truncated).then_some(Truncation::TestGen),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_engine, EngineConfig, EngineKind};
    use crate::problem::DiagnosisProblem;
    use crate::test_set::generate_failing_tests;
    use crate::validity::is_valid_correction;
    use gatediag_netlist::{c17, inject_errors, RandomCircuitSpec};

    /// A workload with an observable single injected error and its site.
    fn workload(seed: u64) -> Option<(Circuit, Circuit, GateId, TestSet)> {
        let golden = RandomCircuitSpec::new(6, 3, 50).seed(seed).generate();
        let (faulty, sites) = inject_errors(&golden, 1, seed);
        let tests = generate_failing_tests(&golden, &faulty, 8, seed, 1 << 14);
        if tests.is_empty() {
            return None;
        }
        Some((golden, faulty, sites[0].gate, tests))
    }

    fn defaults() -> (Budget, Parallelism, ValidityBackend) {
        (
            Budget::default(),
            Parallelism::Sequential,
            ValidityBackend::default(),
        )
    }

    #[test]
    fn generated_tests_fail_and_refuted_solutions_really_die() {
        let mut exercised = false;
        for seed in 0..8 {
            let Some((golden, faulty, _, tests)) = workload(seed) else {
                continue;
            };
            let run = run_engine(
                EngineKind::Cov,
                &DiagnosisProblem::combinational(faulty.clone(), tests.clone()),
                &EngineConfig::default(),
            );
            let (budget, par, backend) = defaults();
            let outcome = generate_discriminating_tests(
                &golden,
                &faulty,
                &run.solutions,
                &budget,
                par,
                backend,
            );
            assert_eq!(outcome.solutions_before, run.solutions.len());
            assert!(outcome.solutions_after <= outcome.solutions_before);
            assert_eq!(outcome.solutions_after, outcome.survivors.len());
            for t in &outcome.tests {
                let g = gatediag_sim::simulate(&golden, &t.vector);
                let f = gatediag_sim::simulate(&faulty, &t.vector);
                assert_eq!(g[t.output.index()], t.expected, "not golden's value");
                assert_ne!(f[t.output.index()], t.expected, "not a failing test");
            }
            // Dropped solutions are exactly those invalid for the
            // generated tests (no truncation in this configuration).
            assert_eq!(outcome.truncation, None);
            for (i, sol) in run.solutions.iter().enumerate() {
                assert_eq!(
                    outcome.survivors.contains(&i),
                    is_valid_correction(&faulty, &outcome.tests, sol),
                    "seed {seed}: survivor set disagrees with the validity oracle"
                );
            }
            exercised |= !outcome.tests.is_empty();
        }
        assert!(exercised, "no workload produced any discriminating test");
    }

    #[test]
    fn deterministic_given_inputs() {
        for seed in 0..8 {
            let Some((golden, faulty, _, tests)) = workload(seed) else {
                continue;
            };
            let run = run_engine(
                EngineKind::Cov,
                &DiagnosisProblem::combinational(faulty.clone(), tests.clone()),
                &EngineConfig::default(),
            );
            let (budget, par, backend) = defaults();
            let a = generate_discriminating_tests(
                &golden,
                &faulty,
                &run.solutions,
                &budget,
                par,
                backend,
            );
            let b = generate_discriminating_tests(
                &golden,
                &faulty,
                &run.solutions,
                &budget,
                gatediag_sim::Parallelism::Fixed(4),
                backend,
            );
            assert_eq!(a, b, "seed {seed}: parallel re-screen drifted");
            return;
        }
        panic!("no observable workload");
    }

    #[test]
    fn golden_consistent_candidates_merge_into_one_class() {
        // The true error site is golden-consistent (freeing it can mimic
        // the golden function), and so is any superset of it: both must
        // survive and share one ambiguity class.
        for seed in 0..16 {
            let Some((golden, faulty, site, _)) = workload(seed) else {
                continue;
            };
            let other = faulty
                .iter()
                .find(|(id, g)| *id != site && g.kind() != GateKind::Input)
                .map(|(id, _)| id)
                .unwrap();
            let superset = {
                let mut s = vec![site, other];
                s.sort();
                s
            };
            let solutions = vec![vec![site], superset];
            let (budget, par, backend) = defaults();
            let outcome =
                generate_discriminating_tests(&golden, &faulty, &solutions, &budget, par, backend);
            assert_eq!(outcome.truncation, None, "seed {seed}");
            assert_eq!(outcome.solutions_after, 2, "seed {seed}: {outcome:?}");
            assert_eq!(
                outcome.classes,
                vec![vec![0, 1]],
                "seed {seed}: golden-consistent pair did not merge"
            );
            assert!(outcome.tests.is_empty(), "seed {seed}");
            return;
        }
        panic!("no observable workload");
    }

    #[test]
    fn work_budget_truncates_with_testgen_reason() {
        for seed in 0..16 {
            let Some((golden, faulty, _, tests)) = workload(seed) else {
                continue;
            };
            let run = run_engine(
                EngineKind::Cov,
                &DiagnosisProblem::combinational(faulty.clone(), tests.clone()),
                &EngineConfig::default(),
            );
            if run.solutions.len() < 2 {
                continue;
            }
            let (_, par, backend) = defaults();
            let budget = Budget {
                work: Some(1),
                ..Budget::default()
            };
            let outcome = generate_discriminating_tests(
                &golden,
                &faulty,
                &run.solutions,
                &budget,
                par,
                backend,
            );
            assert_eq!(outcome.truncation, Some(Truncation::TestGen), "seed {seed}");
            assert!(outcome.truncation.unwrap().is_preemption());
            // Still well-formed and conservative.
            assert!(outcome.solutions_after <= outcome.solutions_before);
            return;
        }
        panic!("no workload with at least two covers");
    }

    #[test]
    fn oversized_candidates_survive_as_their_own_class() {
        let golden = c17();
        let (faulty, sites) = inject_errors(&golden, 1, 3);
        let site = sites[0].gate;
        let big: Vec<GateId> = faulty
            .iter()
            .filter(|(_, g)| g.kind() != GateKind::Input)
            .map(|(id, _)| id)
            .take(EXPAND_MAX + 1)
            .collect();
        assert!(big.len() > EXPAND_MAX);
        let solutions = vec![vec![site], big];
        let (budget, par, backend) = defaults();
        let outcome =
            generate_discriminating_tests(&golden, &faulty, &solutions, &budget, par, backend);
        // The oversized set is never queried: it survives (whole-circuit
        // supersets rectify everything) as a singleton class, separate
        // from the proven-consistent site.
        assert_eq!(outcome.solutions_after, 2);
        assert_eq!(outcome.classes.len(), 2);
        assert_eq!(outcome.truncation, None);
    }
}
