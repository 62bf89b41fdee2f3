//! Pins the CDCL solver's search trajectory, not just its verdicts.
//!
//! Campaign records carry per-instance `conflicts/decisions/propagations/
//! restarts/learnt_clauses/gc_runs`, served responses carry `conflicts`,
//! and truncated enumerations report whichever models the search meets
//! first. A change to `gatediag_sat::Solver` that keeps verdicts but
//! alters the search (a different tie-break, a different literal order in
//! a clause, a different restart point) would silently move all of
//! those. Each workload here therefore folds *every* `solve()` into one
//! FNV-1a fingerprint: the result, all `SolverStats` fields, the full
//! model and `failed_assumptions`. A speed-only change must reproduce
//! the pinned fingerprints exactly; a deliberate heuristic change must
//! re-pin them (and everything downstream, such as benchmark digests).
//!
//! The BSAT and COV workloads drive the solver through faithful copies of
//! the engines' enumeration loops (same CNF, same clause order, same
//! assumptions and blocking clauses) and cross-check the copies against
//! `basic_sat_diagnose` / `sc_diagnose`: identical solutions and identical
//! solver statistics, so the fingerprint covers the engines' real search.

use gatediag_cnf::{encode_instrumented_copy, Instrumentation, MuxEncoding, Totalizer};
use gatediag_core::{
    basic_sat_diagnose, basic_sim_diagnose, prepare, sc_diagnose, BsatOptions, BsimOptions, Budget,
    CovOptions, DiagnoseRequest, PreparedTests, TestSet, Truncation,
};
use gatediag_netlist::{s1423_like, s6669_like, Circuit, GateId, GateKind};
use gatediag_sat::{Lit, SolveResult, Solver, Var};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;

/// FNV-1a over every observable of every `solve()` in one workload, plus
/// the aggregates the rare-path asserts need.
struct Trajectory {
    hash: u64,
    solves: u64,
    /// Solves that ran out of conflict budget.
    unknowns: u64,
    /// Largest `conflicts` count any single solver reached.
    max_conflicts: u64,
    removed_clauses: u64,
    gc_runs: u64,
}

impl Trajectory {
    fn new() -> Self {
        Trajectory {
            hash: 0xcbf2_9ce4_8422_2325,
            solves: 0,
            unknowns: 0,
            max_conflicts: 0,
            removed_clauses: 0,
            gc_runs: 0,
        }
    }

    fn byte(&mut self, b: u8) {
        self.hash ^= u64::from(b);
        self.hash = self.hash.wrapping_mul(0x0100_0000_01b3);
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.byte(b);
        }
    }

    /// Solves and folds the outcome into the fingerprint.
    fn solve(&mut self, solver: &mut Solver, assumptions: &[Lit]) -> SolveResult {
        let result = solver.solve(assumptions);
        self.solves += 1;
        self.unknowns += u64::from(result == SolveResult::Unknown);
        self.byte(match result {
            SolveResult::Sat => 1,
            SolveResult::Unsat => 2,
            SolveResult::Unknown => 3,
        });
        let s = solver.stats();
        for field in [
            s.conflicts,
            s.decisions,
            s.propagations,
            s.restarts,
            s.learnt_clauses,
            s.removed_clauses,
            s.gc_runs,
        ] {
            self.word(field);
        }
        if result == SolveResult::Sat {
            for v in 0..solver.num_vars() {
                self.byte(match solver.model_value(Var::from_index(v).positive()) {
                    Some(false) => 0,
                    Some(true) => 1,
                    None => 2,
                });
            }
        }
        let failed = solver.failed_assumptions();
        self.word(failed.len() as u64);
        for lit in failed {
            self.word(lit.code() as u64);
        }
        result
    }

    /// Records a finished solver's totals for the rare-path asserts.
    fn retire(&mut self, solver: &Solver) {
        let s = solver.stats();
        self.max_conflicts = self.max_conflicts.max(s.conflicts);
        self.removed_clauses += s.removed_clauses;
        self.gc_runs += s.gc_runs;
    }
}

/// `enumerate_positive_subsets`, with every solve fingerprinted.
/// Returns `(solutions, conflicts, complete)`, where `conflicts` holds
/// the solver's conflict count right after each solution's solve: what
/// a run capped at that solution would have spent, which [`cov`] needs
/// to check the work of an engine that stops at the cap.
fn enumerate(
    t: &mut Trajectory,
    solver: &mut Solver,
    selectors: &[Var],
    assumptions: &[Lit],
    limit: usize,
) -> (Vec<Vec<Var>>, Vec<u64>, bool) {
    let mut solutions = Vec::new();
    let mut conflicts = Vec::new();
    loop {
        if solutions.len() >= limit {
            return (solutions, conflicts, false);
        }
        match t.solve(solver, assumptions) {
            SolveResult::Sat => {
                let subset: Vec<Var> = selectors
                    .iter()
                    .copied()
                    .filter(|v| solver.model_value(v.positive()) == Some(true))
                    .collect();
                let block: Vec<Lit> = subset.iter().map(|v| v.negative()).collect();
                solutions.push(subset);
                conflicts.push(solver.stats().conflicts);
                if block.is_empty() {
                    return (solutions, conflicts, true);
                }
                solver.add_clause(&block);
            }
            SolveResult::Unsat => return (solutions, conflicts, true),
            SolveResult::Unknown => return (solutions, conflicts, false),
        }
    }
}

fn failing_tests(golden: &Circuit, p: usize, seed: u64) -> (Circuit, TestSet) {
    let request = DiagnoseRequest {
        p,
        seed,
        ..DiagnoseRequest::default()
    };
    let prepared = prepare(golden, &request);
    let faulty = prepared.faulty.expect("the circuit is injectable");
    let PreparedTests::Combinational(tests) = prepared.tests else {
        unreachable!("combinational request")
    };
    assert!(!tests.is_empty(), "p={p} seed={seed}: no failing tests");
    ((*faulty).clone(), tests)
}

/// `basic_sat_diagnose` (all gates, default encoding),
/// fingerprinted; asserts the copy matches the engine.
fn bsat(t: &mut Trajectory, golden: &Circuit, p: usize, seed: u64, max_solutions: usize) {
    let (faulty, tests) = failing_tests(golden, p, seed);
    let sites: Vec<GateId> = faulty
        .iter()
        .filter(|(_, g)| g.kind() != GateKind::Input)
        .map(|(id, _)| id)
        .collect();
    let mut solver = Solver::new();
    let inst = Instrumentation::new(&mut solver, &faulty, &sites, std::iter::once);
    for test in &tests {
        let copy = encode_instrumented_copy(&mut solver, &faulty, &inst, MuxEncoding::default());
        for (&pi, &v) in faulty.inputs().iter().zip(&test.vector) {
            solver.add_clause(&[copy.vars.lit(pi, v)]);
        }
        solver.add_clause(&[copy.vars.lit(test.output, test.expected)]);
    }
    let selectors = inst.select_vars();
    let lits: Vec<Lit> = selectors.iter().map(|v| v.positive()).collect();
    let k = p.min(selectors.len());
    let totalizer = Totalizer::new(&mut solver, &lits, k);
    let mut solutions: Vec<Vec<GateId>> = Vec::new();
    for size in 1..=k {
        let assumptions: Vec<Lit> = totalizer.at_most(size).into_iter().collect();
        let remaining = max_solutions.saturating_sub(solutions.len());
        if remaining == 0 {
            break;
        }
        let (found, _, complete) = enumerate(t, &mut solver, selectors, &assumptions, remaining);
        for subset in found {
            let mut gates: Vec<GateId> = subset
                .iter()
                .map(|v| inst.sites()[selectors.iter().position(|s| s == v).unwrap()])
                .collect();
            gates.sort();
            solutions.push(gates);
        }
        if !complete {
            break;
        }
    }
    solutions.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
    t.retire(&solver);

    let engine = basic_sat_diagnose(
        &faulty,
        &tests,
        p,
        BsatOptions {
            max_solutions,
            ..BsatOptions::default()
        },
    );
    assert_eq!(
        solutions, engine.solutions,
        "BSAT copy drifted from the engine"
    );
    assert_eq!(
        solver.stats(),
        engine.stats,
        "BSAT copy searched differently"
    );
}

/// `sc_diagnose` with the SAT cover engine: one solver per top-level
/// branch, fingerprinted; asserts the copy matches the engine.
/// `conflict_budget` is the per-branch [`Budget::conflicts`].
///
/// The copy enumerates every branch in full, so the fingerprint covers
/// every branch's search. The engine computes only the covers it
/// reports: it stops each branch at its share of the cap (the first
/// `cap` covers in branch order) and builds no solver at all at `p = 1`.
/// So its `work` is the copy's conflicts up to the cap point, and zero
/// cover conflicts at `p = 1`; and only a branch that ran out of
/// conflicts before the cap point preempts the run.
fn cov(
    t: &mut Trajectory,
    golden: &Circuit,
    p: usize,
    seed: u64,
    max_solutions: usize,
    conflict_budget: Option<u64>,
) {
    let (faulty, tests) = failing_tests(golden, p, seed);
    let bsim = basic_sim_diagnose(&faulty, &tests, BsimOptions::default());
    let sets: Vec<Vec<GateId>> = bsim
        .candidate_sets
        .iter()
        .map(|s| s.iter().collect())
        .collect();
    let branch_set = sets.iter().min_by_key(|s| s.len()).unwrap();
    let cap = max_solutions.max(1);
    let mut found: Vec<Vec<GateId>> = Vec::new();
    // The cover conflicts the engine spends, and whether a kept branch ran
    // out of conflicts.
    let mut reported_conflicts = 0u64;
    let mut preempted = false;
    for b in 0..branch_set.len() {
        let mut solver = Solver::new();
        let mut var_of: HashMap<GateId, Var> = HashMap::new();
        let mut gate_of: Vec<GateId> = Vec::new();
        let mut selectors: Vec<Var> = Vec::new();
        for set in &sets {
            for &g in set {
                var_of.entry(g).or_insert_with(|| {
                    gate_of.push(g);
                    selectors.push(solver.new_var());
                    *selectors.last().unwrap()
                });
            }
        }
        for set in &sets {
            let clause: Vec<Lit> = set.iter().map(|g| var_of[g].positive()).collect();
            solver.add_clause(&clause);
        }
        solver.add_clause(&[var_of[&branch_set[b]].positive()]);
        for g in &branch_set[..b] {
            solver.add_clause(&[var_of[g].negative()]);
        }
        let limit = p.min(selectors.len());
        let lits: Vec<Lit> = selectors.iter().map(|v| v.positive()).collect();
        let totalizer = Totalizer::new(&mut solver, &lits, limit);
        solver.set_conflict_budget(conflict_budget);
        let mut branch: Vec<Vec<GateId>> = Vec::new();
        let mut conflicts_at: Vec<u64> = Vec::new();
        let unknowns_before = t.unknowns;
        for size in 1..=limit {
            let assumptions: Vec<Lit> = totalizer.at_most(size).into_iter().collect();
            let remaining = cap.saturating_sub(branch.len());
            if remaining == 0 {
                break;
            }
            let (subsets, conflicts, complete) =
                enumerate(t, &mut solver, &selectors, &assumptions, remaining);
            conflicts_at.extend(conflicts);
            for subset in subsets {
                branch.push(
                    subset
                        .iter()
                        .map(|v| gate_of[selectors.iter().position(|s| s == v).unwrap()])
                        .collect(),
                );
            }
            if !complete {
                break;
            }
        }
        // The branch's share of the cap: every earlier branch was kept in
        // full unless the merged list already reached the cap.
        let share = cap.saturating_sub(found.len());
        if p > 1 && share > 0 {
            if branch.len() >= share {
                reported_conflicts += conflicts_at[share - 1];
            } else {
                reported_conflicts += solver.stats().conflicts;
                preempted |= t.unknowns > unknowns_before;
            }
        }
        t.retire(&solver);
        found.extend(branch);
    }
    found.truncate(cap);
    for sol in &mut found {
        sol.sort();
    }
    found.sort();
    found.dedup();
    let mut solutions: Vec<Vec<GateId>> = found
        .into_iter()
        .filter(|sol| {
            sol.iter().all(|g| {
                let without: Vec<GateId> = sol.iter().copied().filter(|&h| h != *g).collect();
                sets.iter()
                    .any(|set| !without.iter().any(|h| set.contains(h)))
            })
        })
        .collect();
    solutions.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));

    let engine = sc_diagnose(
        &faulty,
        &tests,
        p,
        CovOptions {
            max_solutions,
            budget: Budget {
                conflicts: conflict_budget,
                ..Budget::default()
            },
            ..CovOptions::default()
        },
    );
    assert_eq!(
        solutions, engine.solutions,
        "COV copy drifted from the engine"
    );
    assert_eq!(
        engine.truncation == Some(Truncation::Conflicts),
        preempted,
        "COV copy and engine disagree on the preemption"
    );
    assert_eq!(
        reported_conflicts + bsim.work,
        engine.work,
        "COV copy searched differently"
    );
}

fn random_3sat(solver: &mut Solver, vars: usize, clauses: usize, seed: u64) -> Vec<Var> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let v: Vec<Var> = (0..vars).map(|_| solver.new_var()).collect();
    for _ in 0..clauses {
        let clause: Vec<Lit> = (0..3)
            .map(|_| v[rng.gen_range(0..vars)].lit(rng.gen_bool(0.5)))
            .collect();
        solver.add_clause(&clause);
    }
    v
}

#[allow(clippy::needless_range_loop)] // pigeonhole index math
fn pigeonhole(solver: &mut Solver, n: usize, m: usize) {
    let p: Vec<Vec<Var>> = (0..n)
        .map(|_| (0..m).map(|_| solver.new_var()).collect())
        .collect();
    for row in &p {
        let clause: Vec<Lit> = row.iter().map(|v| v.positive()).collect();
        solver.add_clause(&clause);
    }
    for j in 0..m {
        for i1 in 0..n {
            for i2 in (i1 + 1)..n {
                solver.add_clause(&[p[i1][j].negative(), p[i2][j].negative()]);
            }
        }
    }
}

/// Model enumeration with blocking clauses under changing assumptions:
/// exercises `failed_assumptions` and incremental clause addition.
fn incremental_blocking(t: &mut Trajectory) {
    let mut solver = Solver::new();
    let v = random_3sat(&mut solver, 90, 340, 21);
    let mut rng = ChaCha8Rng::seed_from_u64(22);
    for round in 0..12 {
        let assumptions: Vec<Lit> = (0..1 + round % 4)
            .map(|_| v[rng.gen_range(0..v.len())].lit(rng.gen_bool(0.5)))
            .collect();
        for _ in 0..25 {
            if t.solve(&mut solver, &assumptions) != SolveResult::Sat {
                break;
            }
            let block: Vec<Lit> = v[..14]
                .iter()
                .map(|&x| x.lit(solver.model_value(x.positive()) != Some(true)))
                .collect();
            solver.add_clause(&block);
        }
    }
    t.retire(&solver);
}

/// Conflict budgets that stop the search mid-way (`Unknown`), then let
/// it finish.
fn conflict_budget(t: &mut Trajectory) {
    let mut solver = Solver::new();
    pigeonhole(&mut solver, 7, 6);
    for budget in [1, 37, 250] {
        solver.set_conflict_budget(Some(budget));
        assert_eq!(t.solve(&mut solver, &[]), SolveResult::Unknown);
    }
    solver.set_conflict_budget(None);
    assert_eq!(t.solve(&mut solver, &[]), SolveResult::Unsat);
    t.retire(&solver);
}

/// External decision hints (the hybrid flow's lever): saved phases and
/// additive activity bumps, including one large enough to force an
/// activity rescale.
fn hints(t: &mut Trajectory) {
    let mut solver = Solver::new();
    let v = random_3sat(&mut solver, 120, 480, 31);
    let mut rng = ChaCha8Rng::seed_from_u64(32);
    for (i, &x) in v.iter().enumerate() {
        if i % 3 == 0 {
            solver.set_polarity(x, rng.gen_bool(0.5));
        }
        if i % 5 == 0 {
            solver.bump_variable(x, f64::from(rng.gen_range(0u32..8)) * 0.75);
        }
    }
    t.solve(&mut solver, &[]);
    solver.bump_variable(v[7], 1e101);
    for _ in 0..10 {
        let a = v[rng.gen_range(0..v.len())].lit(rng.gen_bool(0.5));
        solver.set_polarity(a.var(), !a.is_positive());
        t.solve(&mut solver, &[a]);
    }
    t.retire(&solver);
}

/// A long search: thousands of conflicts on one solver, so learnt-clause
/// reduction, arena garbage collection and the VSIDS activity rescale
/// (after ~4 490 conflicts at decay 0.95) all run.
fn long_search(t: &mut Trajectory) {
    let mut solver = Solver::new();
    pigeonhole(&mut solver, 9, 8);
    solver.set_conflict_budget(Some(9_000));
    t.solve(&mut solver, &[]);
    t.retire(&solver);
}

fn check(name: &str, run: impl FnOnce(&mut Trajectory), expected: u64) -> Trajectory {
    let mut t = Trajectory::new();
    run(&mut t);
    assert!(t.solves > 0, "{name}: no solves");
    assert_eq!(
        t.hash, expected,
        "{name}: solver trajectory changed ({} solves, fingerprint {:#018x})",
        t.solves, t.hash
    );
    t
}

#[test]
fn bsat_trajectories_are_pinned() {
    let golden = s1423_like(1);
    check(
        "bsat p1 s1",
        |t| bsat(t, &golden, 1, 1, 1000),
        0x0f31_6f06_6dd1_388f,
    );
    check(
        "bsat p2 s1",
        |t| bsat(t, &golden, 2, 1, 1000),
        0x137a_7341_a4eb_b1b4,
    );
    check(
        "bsat p2 s2",
        |t| bsat(t, &golden, 2, 2, 1000),
        0xe905_f26b_0bbc_96e8,
    );
    check(
        "bsat p2 s3 truncated",
        |t| bsat(t, &golden, 2, 3, 60),
        0x4215_e7bf_61c8_95e6,
    );
}

/// `s6669_like`'s BSAT instance is several times the size of
/// `s1423_like`'s and its watch lists spill a typical L2, so it takes the
/// propagation paths that only a large, cache-cold instance exercises.
#[test]
fn large_bsat_trajectory_is_pinned() {
    let golden = s6669_like(1);
    check(
        "s6669 bsat p1 s1",
        |t| bsat(t, &golden, 1, 1, 1000),
        0xbbfc_c787_1d88_47a9,
    );
}

#[test]
fn cov_trajectories_are_pinned() {
    let golden = s1423_like(1);
    check(
        "cov p2 s1",
        |t| cov(t, &golden, 2, 1, 1000, None),
        0x6ff5_587b_8cdc_6350,
    );
    check(
        "cov p4 s3 truncated",
        |t| cov(t, &golden, 4, 3, 40, None),
        0x61a1_e7fe_f239_c384,
    );
    // k = 1: every covering campaign instance takes this path.
    check(
        "cov p1 s2",
        |t| cov(t, &golden, 1, 2, 1000, None),
        0x47e8_3644_94c8_6f4f,
    );
    let budgeted = check(
        "cov p2 s1 conflict budget",
        |t| cov(t, &golden, 2, 1, 1000, Some(5)),
        0xd1ee_5a2f_a207_9dfc,
    );
    assert!(budgeted.unknowns > 0, "no branch ran out of conflicts");
}

#[test]
fn raw_solver_trajectories_are_pinned_and_reach_the_rare_paths() {
    check(
        "incremental blocking",
        incremental_blocking,
        0xdb8c_9b31_12c1_16aa,
    );
    check("conflict budget", conflict_budget, 0x5284_8fb1_1344_10e2);
    check("hints", hints, 0x4f5e_6325_9f40_c939);
    let long = check("long search", long_search, 0xd91b_e524_612c_a0f3);
    assert!(long.removed_clauses > 0, "no learnt-clause reduction ran");
    assert!(long.gc_runs > 0, "no arena garbage collection ran");
    assert!(
        long.max_conflicts > 4_490,
        "no activity rescale: only {} conflicts",
        long.max_conflicts
    );
}
