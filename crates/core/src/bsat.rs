//! BSAT: SAT-based diagnosis (paper Fig. 2/3, `BasicSATDiagnose`).
//!
//! One instrumented circuit copy per test (correction multiplexers with
//! select lines shared across copies), inputs and the expected output value
//! constrained per copy, cardinality bound `Σ s_g ≤ k`. Solutions — read
//! off the select lines — are *guaranteed valid corrections* (Lemma 1),
//! and iterating `k = 1..K` with subset blocking yields exactly the
//! corrections with only essential candidates (Lemma 3).
//!
//! The advanced options of Sec. 2.3 are all available: the explicit-mux
//! encoding with `c = 0` pinning, dominator-based two-pass site selection,
//! test-set partitioning, and (for the Sec. 6 hybrid) seeding of the
//! solver's decision heuristic from simulation results.

use crate::budget::{Budget, Truncation};
use crate::test_set::TestSet;
use crate::validity::{screen_valid_corrections, ValidityBackend};
use gatediag_cnf::{
    encode_instrumented_copy, CnfCollector, Instrumentation, MuxEncoding, Totalizer,
};
use gatediag_netlist::{ffr_roots, Circuit, GateId, GateSet};
use gatediag_sat::{enumerate_positive_subsets, Lit, Solver, SolverStats, Var};
use gatediag_sim::{parallel_map_init, Parallelism};
use std::time::{Duration, Instant};

/// Which gates receive correction multiplexers.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub enum SiteSelection {
    /// Every functional gate (the basic approach).
    #[default]
    AllGates,
    /// Only fan-out-free-region roots — the dominator-based first pass of
    /// the advanced approach; combine with [`two_pass_sat_diagnose`] for
    /// full gate-level resolution.
    Dominators,
    /// An explicit site list (hybrid flows restrict to BSIM candidates).
    Custom(Vec<GateId>),
}

/// Options for [`basic_sat_diagnose`].
#[derive(Clone, PartialEq, Debug)]
pub struct BsatOptions {
    /// Multiplexer encoding (inline guards vs the paper's explicit mux).
    pub encoding: MuxEncoding,
    /// Where to insert multiplexers.
    pub sites: SiteSelection,
    /// Stop after this many solutions (`complete = false` if hit).
    pub max_solutions: usize,
    /// Conflict budget across the whole run (`None` = unlimited).
    pub conflict_budget: Option<u64>,
    /// VSIDS seed hints `(gate, weight)`: bumps the gate's select variable
    /// and sets its phase to "selected" — the Sec. 6 hybrid lever.
    pub hints: Vec<(GateId, f64)>,
    /// Worker count for the parallelizable SAT-side phases: the per-test
    /// CNF copies of the instance build are *generated* on a worker pool
    /// (each worker Tseitin-encodes whole copies into a pre-assigned
    /// variable block) and replayed into the solver in test order, and
    /// [`partitioned_sat_diagnose`]'s full-test-set validation screens
    /// candidate solutions across workers. The CDCL search itself stays
    /// sequential, so results are bit-identical for every setting.
    pub parallelism: Parallelism,
    /// Cooperative budget. BSAT's deterministic work unit **is** solver
    /// conflicts, so [`Budget::work`] and [`Budget::conflicts`] merge with
    /// the legacy [`BsatOptions::conflict_budget`] into one solver limit
    /// (the smallest wins, bounding each enumeration query); the opt-in
    /// wall deadline threads into the solver's cooperative deadline hook.
    pub budget: Budget,
}

impl Default for BsatOptions {
    fn default() -> Self {
        BsatOptions {
            encoding: MuxEncoding::default(),
            sites: SiteSelection::default(),
            max_solutions: 1_000_000,
            conflict_budget: None,
            hints: Vec::new(),
            parallelism: Parallelism::default(),
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

fn resolve_sites(circuit: &Circuit, selection: &SiteSelection) -> Vec<GateId> {
    match selection {
        SiteSelection::AllGates => circuit
            .iter()
            .filter(|(_, g)| g.kind() != gatediag_netlist::GateKind::Input)
            .map(|(id, _)| id)
            .collect(),
        SiteSelection::Dominators => {
            let roots = ffr_roots(circuit);
            let mut set = GateSet::new(circuit.len());
            for (id, g) in circuit.iter() {
                if g.kind() != gatediag_netlist::GateKind::Input {
                    let r = roots[id.index()];
                    if circuit.gate(r).kind() != gatediag_netlist::GateKind::Input {
                        set.insert(r);
                    }
                }
            }
            set.iter().collect()
        }
        SiteSelection::Custom(sites) => sites.clone(),
    }
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
    let sites = resolve_sites(circuit, &options.sites);
    let build_start = Instant::now();
    let mut solver = Solver::new();
    let instance = {
        let _encode = gatediag_obs::span("encode");
        build_instance(&mut solver, circuit, tests, &sites, k, &options)
    };
    let build_time = build_start.elapsed();

    let mut solutions: Vec<Vec<GateId>> = Vec::new();
    let mut first_solution_time = Duration::ZERO;
    let mut truncation: Option<Truncation> = None;
    let enum_start = Instant::now();
    // The budget's work unit is conflicts here, so `work`, `conflicts` and
    // the legacy `conflict_budget` knob merge into one solver limit; the
    // wall deadline (if any) rides on the solver's own cooperative hook.
    let budget = options.budget.merge_conflicts(options.conflict_budget);
    let (conflict_limit, conflict_reason) = budget.conflict_limit();
    solver.set_conflict_budget(conflict_limit);
    solver.set_deadline(budget.deadline_instant());
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
        for subset in out.solutions {
            if solutions.is_empty() {
                first_solution_time = build_time + enum_start.elapsed();
            }
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
    sites: &[GateId],
    k: usize,
    options: &BsatOptions,
) -> Instance {
    let inst = Instrumentation::new(solver, circuit, sites);
    // The per-test instrumented copies are independent given the shared
    // select lines, so their Tseitin encoding — the bulk of the paper's
    // Table 2 "CNF" time — shards across workers: every copy allocates an
    // identical variable block, so copy `i`'s block base is known in
    // advance and workers encode into `CnfCollector`s starting there.
    // Replaying the collected clauses into the solver *in test order*
    // reproduces the sequential build's exact clause/variable sequence,
    // so the search (and hence the diagnosis output) is bit-identical for
    // every worker count.
    let work = tests.len().saturating_mul(circuit.len()).saturating_mul(4);
    let workers = options
        .parallelism
        .workers_for(tests.len(), work, gatediag_sim::AUTO_WORK_FLOOR);
    if workers <= 1 || tests.len() <= 1 {
        for test in tests {
            let copy = encode_instrumented_copy(solver, circuit, &inst, options.encoding);
            for (&pi, &v) in circuit.inputs().iter().zip(&test.vector) {
                solver.add_clause(&[copy.vars.lit(pi, v)]);
            }
            solver.add_clause(&[copy.vars.lit(test.output, test.expected)]);
        }
    } else {
        let base = solver.num_vars();
        let encode_copy = |var_base: usize| {
            let mut sink = CnfCollector::starting_at(var_base);
            let copy = encode_instrumented_copy(&mut sink, circuit, &inst, options.encoding);
            let (allocated, clauses) = sink.into_parts();
            (copy, allocated, clauses)
        };
        // Copy 0 pins the per-copy variable demand; the rest fan out.
        let (copy0, vars_per_copy, clauses0) = encode_copy(base);
        let rest = parallel_map_init(
            workers,
            tests.len() - 1,
            || (),
            |(), i| encode_copy(base + (i + 1) * vars_per_copy),
        );
        let mut copies = Vec::with_capacity(tests.len());
        copies.push((copy0, vars_per_copy, clauses0));
        copies.extend(rest);
        for _ in 0..tests.len() * vars_per_copy {
            solver.new_var();
        }
        for ((copy, allocated, clauses), test) in copies.iter().zip(tests) {
            debug_assert_eq!(
                *allocated, vars_per_copy,
                "instrumented copies must allocate identical variable blocks"
            );
            for clause in clauses {
                solver.add_clause(clause);
            }
            for (&pi, &v) in circuit.inputs().iter().zip(&test.vector) {
                solver.add_clause(&[copy.vars.lit(pi, v)]);
            }
            solver.add_clause(&[copy.vars.lit(test.output, test.expected)]);
        }
    }
    let selectors = inst.select_vars();
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

/// The advanced two-pass flow (Sec. 2.3): first diagnose with muxes only at
/// dominators (fan-out-free-region roots), then refine each hit region at
/// gate granularity.
///
/// Returns the union of the refined runs' solutions, deduplicated and
/// sorted. The refined pass instruments all gates of every region whose
/// root occurred in a first-pass solution.
pub fn two_pass_sat_diagnose(
    circuit: &Circuit,
    tests: &TestSet,
    k: usize,
    options: BsatOptions,
) -> BsatResult {
    let first = basic_sat_diagnose(
        circuit,
        tests,
        k,
        BsatOptions {
            sites: SiteSelection::Dominators,
            ..options.clone()
        },
    );
    // Collect regions to refine.
    let roots = ffr_roots(circuit);
    let mut hit_roots = GateSet::new(circuit.len());
    for sol in &first.solutions {
        for &g in sol {
            hit_roots.insert(g);
        }
    }
    let mut refined_sites = GateSet::new(circuit.len());
    for (id, g) in circuit.iter() {
        if !g.kind().is_source() && hit_roots.contains(roots[id.index()]) {
            refined_sites.insert(id);
        }
    }
    let sites: Vec<GateId> = refined_sites.iter().collect();
    let mut second = basic_sat_diagnose(
        circuit,
        tests,
        k,
        BsatOptions {
            sites: SiteSelection::Custom(sites),
            ..options
        },
    );
    second.build_time += first.build_time;
    second.total_time += first.total_time;
    // Phases in run order: the dominator pass ran first, so its reason
    // wins ties (see `Truncation::merge`).
    second.truncation = Truncation::merge(first.truncation, second.truncation);
    second.complete = second.truncation.is_none();
    second
}

/// When diagnosis with bound `k` is infeasible, explains why: returns a
/// subset of test indices that *jointly* admit no correction of size ≤ k
/// (an unsat core over the tests; not necessarily minimal).
///
/// Returns `None` when the tests are diagnosable with bound `k` (a
/// correction exists). Useful when `k` was under-estimated: the core
/// pinpoints the tests proving that more (or different) gates must change.
pub fn conflicting_test_core(
    circuit: &Circuit,
    tests: &TestSet,
    k: usize,
    options: &BsatOptions,
) -> Option<Vec<usize>> {
    let sites = resolve_sites(circuit, &options.sites);
    let mut solver = Solver::new();
    let inst = Instrumentation::new(&mut solver, circuit, &sites);
    // One activation literal per test; all test constraints are guarded so
    // the solver can tell us which subset conflicts.
    let mut activators = Vec::with_capacity(tests.len());
    for test in tests {
        let a = gatediag_cnf::ClauseSink::new_var(&mut solver);
        let copy = encode_instrumented_copy(&mut solver, circuit, &inst, options.encoding);
        for (&pi, &v) in circuit.inputs().iter().zip(&test.vector) {
            solver.add_clause(&[a.negative(), copy.vars.lit(pi, v)]);
        }
        solver.add_clause(&[a.negative(), copy.vars.lit(test.output, test.expected)]);
        activators.push(a);
    }
    let selectors = inst.select_vars();
    let mut assumptions: Vec<Lit> = activators.iter().map(|a| a.positive()).collect();
    if !selectors.is_empty() {
        let lits: Vec<Lit> = selectors.iter().map(|v| v.positive()).collect();
        let totalizer = Totalizer::new(&mut solver, &lits, k.min(selectors.len()));
        assumptions.extend(totalizer.at_most(k.min(selectors.len())));
    }
    match solver.solve(&assumptions) {
        gatediag_sat::SolveResult::Sat => None,
        _ => {
            let failed = solver.failed_assumptions();
            let core: Vec<usize> = activators
                .iter()
                .enumerate()
                .filter(|(_, a)| failed.contains(&a.positive()))
                .map(|(i, _)| i)
                .collect();
            Some(core)
        }
    }
}

/// The advanced test-set partitioning heuristic (Sec. 2.3): diagnose with a
/// first chunk of `partition_size` tests (a much smaller SAT instance),
/// then keep only candidates that an exact validity check (auto-dispatched
/// between the sim and SAT oracles, screened in parallel per
/// [`BsatOptions::parallelism`]) confirms against the *full* test-set.
///
/// Sound (every returned solution is a valid correction for all tests) but
/// not complete: a correction that is not irredundant on the first chunk
/// can be missed. The speed/completeness trade-off is measured in the
/// ablation benchmarks.
pub fn partitioned_sat_diagnose(
    circuit: &Circuit,
    tests: &TestSet,
    k: usize,
    partition_size: usize,
    options: BsatOptions,
) -> BsatResult {
    assert!(partition_size > 0, "partition size must be positive");
    if tests.len() <= partition_size {
        return basic_sat_diagnose(circuit, tests, k, options);
    }
    let chunk = tests.prefix_at_most(partition_size);
    let parallelism = options.parallelism;
    let mut result = basic_sat_diagnose(circuit, &chunk, k, options);
    let verify_start = Instant::now();
    // Full-test-set validation of the chunk's candidates: independent per
    // candidate set, screened across workers with the auto-dispatching
    // oracle (verdicts are exact, so the retained list is bit-identical
    // for every worker count).
    let screen = screen_valid_corrections(
        circuit,
        tests,
        &result.solutions,
        parallelism,
        ValidityBackend::Auto,
        &Budget::default(),
    );
    let mut keep = screen.verdicts.iter();
    result
        .solutions
        .retain(|_| *keep.next().expect("verdict per solution"));
    result.total_time += verify_start.elapsed();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_set::generate_failing_tests;
    use crate::validity::is_valid_correction;
    use gatediag_netlist::{c17, inject_errors, RandomCircuitSpec};

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
    fn dominator_sites_are_subset_of_all_gates() {
        let c = c17();
        let all = resolve_sites(&c, &SiteSelection::AllGates);
        let dom = resolve_sites(&c, &SiteSelection::Dominators);
        assert!(!dom.is_empty());
        assert!(dom.len() <= all.len());
        for d in &dom {
            assert!(all.contains(d));
        }
    }

    #[test]
    fn two_pass_finds_valid_corrections() {
        let (_, faulty, tests) = setup(5, 1, 6);
        if tests.is_empty() {
            return;
        }
        let refined = two_pass_sat_diagnose(&faulty, &tests, 2, BsatOptions::default());
        assert!(!refined.solutions.is_empty());
        for sol in &refined.solutions {
            assert!(is_valid_correction(&faulty, &tests, sol));
        }
    }

    #[test]
    fn partitioning_is_sound() {
        let (_, faulty, tests) = setup(11, 1, 8);
        if tests.len() < 8 {
            return;
        }
        let part = partitioned_sat_diagnose(&faulty, &tests, 2, 4, BsatOptions::default());
        for sol in &part.solutions {
            assert!(
                is_valid_correction(&faulty, &tests, sol),
                "partitioned diagnosis returned invalid {sol:?}"
            );
        }
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
    fn conflicting_core_is_none_when_diagnosable() {
        let (_, faulty, tests) = setup(4, 1, 6);
        if tests.is_empty() {
            return;
        }
        // k = 1 with a single injected error: always diagnosable.
        assert_eq!(
            conflicting_test_core(&faulty, &tests, 1, &BsatOptions::default()),
            None
        );
    }

    #[test]
    fn conflicting_core_explains_infeasibility() {
        // Find a 2-error workload where no single-gate correction exists.
        for seed in 0..30 {
            let golden = RandomCircuitSpec::new(6, 3, 40).seed(seed).generate();
            let (faulty, _) = inject_errors(&golden, 2, seed);
            let tests = generate_failing_tests(&golden, &faulty, 8, seed, 8192);
            if tests.len() < 2 {
                continue;
            }
            let k1 = basic_sat_diagnose(&faulty, &tests, 1, BsatOptions::default());
            if !k1.solutions.is_empty() {
                continue; // diagnosable at k=1, try another seed
            }
            let core = conflicting_test_core(&faulty, &tests, 1, &BsatOptions::default())
                .expect("infeasible at k=1 must yield a core");
            assert!(core.len() >= 2, "a single test is always rectifiable");
            // The core tests alone are already infeasible at k = 1.
            let core_tests: TestSet = core.iter().map(|&i| tests.tests()[i].clone()).collect();
            let sub = basic_sat_diagnose(&faulty, &core_tests, 1, BsatOptions::default());
            assert!(
                sub.solutions.is_empty(),
                "seed {seed}: core {core:?} is not actually conflicting"
            );
            return; // one good case suffices
        }
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
