//! COV: diagnosis as set covering over path-tracing candidate sets
//! (paper Fig. 4, `SCDiagnose`).
//!
//! The candidate sets `C_1..C_m` produced by BSIM form a covering instance:
//! a solution picks at least one marked gate per test, is irredundant, and
//! has at most `k` gates. The paper solves the covering with Zchaff; we
//! provide the same SAT formulation (one selector variable per marked
//! gate, one at-least-one clause per test, totalizer bound, incremental
//! `k = 1..K` with subset blocking) plus an independent branch-and-bound
//! engine used for cross-checking.

use crate::bsim::{basic_sim_diagnose, BsimOptions, BsimResult};
use crate::budget::{Budget, BudgetMeter, Truncation};
use crate::test_set::TestSet;
use gatediag_cnf::{ClauseSink, Totalizer};
use gatediag_netlist::{Circuit, GateId};
use gatediag_sat::{enumerate_positive_subsets, Lit, Solver, Var};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Engine used to enumerate covers.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum CovEngine {
    /// SAT formulation solved with the CDCL engine (the paper's choice).
    #[default]
    Sat,
    /// Explicit branch-and-bound enumeration (cross-check / no-SAT mode).
    BranchAndBound,
}

/// Options for [`sc_diagnose`] / [`cover_all`].
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct CovOptions {
    /// Enumeration engine.
    pub engine: CovEngine,
    /// Stop after this many solutions (`complete = false` if hit).
    pub max_solutions: usize,
    /// Path-tracing options for the BSIM phase (its `parallelism` field
    /// shards the packed sweeps). The covering phase runs on the calling
    /// thread.
    pub bsim: BsimOptions,
    /// Cooperative budget. COV's deterministic work unit depends on the
    /// engine: **branch-and-bound node expansions** for
    /// [`CovEngine::BranchAndBound`], **solver conflicts** for
    /// [`CovEngine::Sat`]. The work budget applies *per top-level
    /// branch*, each with its own meter, merged in branch order. A
    /// `k = 1` SAT cover runs no solver, so no conflict limit can trip
    /// it. In [`sc_diagnose`] the same work
    /// number first bounds the BSIM phase in *its* unit (one test
    /// traced = one unit; a preempted BSIM phase short-circuits the run)
    /// — phase units are not commensurable and are never summed. The wall deadline is shared
    /// across phases and branches (opt-in, nondeterministic).
    pub budget: Budget,
}

impl Default for CovOptions {
    fn default() -> Self {
        CovOptions {
            engine: CovEngine::default(),
            max_solutions: 1_000_000,
            bsim: BsimOptions::default(),
            budget: Budget::default(),
        }
    }
}

/// Result of a covering run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CovResult {
    /// All irredundant covers of size ≤ k, each sorted by gate id; the
    /// list is sorted by (size, lexicographic) for determinism.
    pub solutions: Vec<Vec<GateId>>,
    /// `false` if `max_solutions` truncated the enumeration.
    pub complete: bool,
    /// Time spent building the instance: the SAT engine's covering base
    /// (selectors, set clauses, totalizer), plus the BSIM phase for
    /// [`sc_diagnose`], as in Table 2's "CNF" column.
    pub build_time: Duration,
    /// Time until the first solution (Table 2 "One").
    pub first_solution_time: Duration,
    /// Total time including enumeration (Table 2 "All").
    pub total_time: Duration,
    /// Why the run stopped early, if it did: a budget reason, or
    /// [`Truncation::Solutions`] for the `max_solutions` cap. Always
    /// `Some` when `complete` is `false`.
    pub truncation: Option<Truncation>,
    /// Deterministic work charged (tests traced by the BSIM phase plus
    /// the covering engine's units — see [`CovOptions::budget`]). The
    /// SAT engine charges only the conflicts spent on the covers it
    /// reports: none at `k = 1`, where it runs no solver, and in a
    /// capped run none past the first `max_solutions` covers.
    pub work: u64,
    /// The BSIM result the covering instance was built from (absent for
    /// [`cover_all`] on raw sets).
    pub bsim: Option<BsimResult>,
}

/// `SCDiagnose(I, T, k)` — Fig. 4: BSIM first, then all irredundant covers
/// of the candidate sets up to size `k`.
///
/// # Examples
///
/// ```
/// use gatediag_core::{sc_diagnose, generate_failing_tests, CovOptions};
/// use gatediag_netlist::{c17, inject_errors};
///
/// let golden = c17();
/// let (faulty, _) = inject_errors(&golden, 1, 3);
/// let tests = generate_failing_tests(&golden, &faulty, 8, 3, 4096);
/// let result = sc_diagnose(&faulty, &tests, 1, CovOptions::default());
/// // Every solution hits every candidate set.
/// let bsim = result.bsim.as_ref().unwrap();
/// for sol in &result.solutions {
///     for set in &bsim.candidate_sets {
///         assert!(sol.iter().any(|&g| set.contains(g)));
///     }
/// }
/// ```
pub fn sc_diagnose(circuit: &Circuit, tests: &TestSet, k: usize, options: CovOptions) -> CovResult {
    let build_start = Instant::now();
    // Anchor the budget once so the BSIM phase and the covering phase race
    // the same wall deadline. The work number bounds *each phase in its
    // own unit* (tests traced, then covering nodes/conflicts) — the units
    // are not commensurable, so they are never summed across phases; a
    // preempted BSIM phase short-circuits the run instead.
    let budget = options.budget.anchored(build_start);
    let mut bsim_options = options.bsim;
    bsim_options.budget = budget;
    let bsim = basic_sim_diagnose(circuit, tests, bsim_options);
    if let Some(reason) = bsim.truncation {
        // The budget ran out while (or before) collecting candidate sets:
        // covering a partial instance would report covers of the traced
        // prefix as if they were covers of the full test set, so stop
        // here and report the preemption.
        let elapsed = build_start.elapsed();
        return CovResult {
            solutions: Vec::new(),
            complete: false,
            build_time: elapsed,
            first_solution_time: Duration::ZERO,
            total_time: elapsed,
            truncation: Some(reason),
            work: bsim.work,
            bsim: Some(bsim),
        };
    }
    let sets: Vec<Vec<GateId>> = bsim
        .candidate_sets
        .iter()
        .map(|s| s.iter().collect())
        .collect();
    let mut cover_options = options;
    cover_options.budget = budget;
    let mut result = cover_all(&sets, k, cover_options);
    result.build_time += build_start.elapsed() - result.total_time;
    result.work += bsim.work;
    result.bsim = Some(bsim);
    result
}

/// Enumerates all irredundant covers of the given sets up to size `k`
/// (the covering phase of Fig. 4, usable on raw abstract sets — see the
/// paper's Example 1).
///
/// An empty collection of sets has the empty cover as its only solution.
/// If any set is empty, there is no cover at all.
///
/// A run truncated by `max_solutions` reports the irredundant part of
/// the first `max_solutions.max(1)` covers the engine meets.
/// [`CovEngine::Sat`] computes no cover past that prefix: it stops each
/// top-level branch at its share of the cap, and at `k = 1` it runs no
/// solver at all, since the size-one covers are the gates common to
/// every set.
pub fn cover_all(sets: &[Vec<GateId>], k: usize, options: CovOptions) -> CovResult {
    let total_start = Instant::now();
    let budget = options.budget.anchored(total_start);
    let out = match options.engine {
        CovEngine::Sat => cover_sat(sets, k, options.max_solutions, &budget),
        CovEngine::BranchAndBound => cover_bnb(sets, k, options.max_solutions, &budget),
    };
    let mut solutions = out.solutions;
    for sol in &mut solutions {
        sol.sort();
    }
    solutions.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
    CovResult {
        solutions,
        complete: out.truncation.is_none(),
        build_time: out.build_time,
        first_solution_time: out.first_solution_time,
        total_time: total_start.elapsed(),
        truncation: out.truncation,
        work: out.work,
        bsim: None,
    }
}

/// What a covering engine hands back to [`cover_all`].
struct CoverOutcome {
    solutions: Vec<Vec<GateId>>,
    build_time: Duration,
    first_solution_time: Duration,
    /// `None` = complete; [`Truncation::Solutions`] for the cap, a budget
    /// reason otherwise.
    truncation: Option<Truncation>,
    /// Engine-defined work units spent (nodes / conflicts).
    work: u64,
}

/// SAT cover enumeration, partitioned over the top-level branch set.
///
/// Like [`cover_bnb`], the root branches on the smallest set: every cover
/// must contain one of its gates, so "first branch-set gate contained"
/// partitions the solution space into disjoint branches. Branch `b` gets
/// its *own* CDCL solver with `s_{g_b}` asserted and `s_{g_j}` (`j < b`)
/// denied as root units, then runs the usual incremental `k`-loop with
/// subset blocking. Each branch's enumeration depends only on its own
/// solver, so the branch-ordered merge is deterministic. The branches run
/// one after another on the calling thread: the stop at the cap (below)
/// needs the covers of the earlier branches before it can start the
/// next one.
///
/// The branch-independent part of the instance — selectors, set clauses
/// and the totalizer's clause stream — is a [`CoverBase`], built once per
/// call and shared by every branch; a branch clones its solver, adds its
/// units and replays the totalizer (see [`CoverBase::branch_solver`]).
///
/// Within a branch, subset blocking alone cannot reject a cover whose
/// redundant gate *is* the branch gate (the witness subset lives in an
/// earlier branch), so the merged list is filtered for irredundancy
/// explicitly — the same final filter the branch-and-bound engine
/// applies. For complete runs the result is exactly the irredundant
/// covers of size ≤ `k` (paper Lemma 3).
///
/// # Only the reported covers are computed
///
/// The reported list is the irredundant part of the first
/// `cap = max_solutions.max(1)` covers in branch order, each branch's in
/// its enumeration order, and a run is truncated when that prefix is
/// full. Two shortcuts compute exactly this prefix and nothing past it:
///
/// * **`k = 1` needs no solver** ([`size_one_covers`]). Branch `b`
///   asserts `s_{g_b}`, denies the earlier branch gates and allows at
///   most one selector, so its only possible model is `{g_b}`, which
///   satisfies every set clause iff `g_b` is in every set. A gate
///   repeated in the branch set makes its later branch inconsistent
///   (`s_g` both asserted and denied), so it counts once. The covers are
///   therefore the gates common to every set, in branch-set order, first
///   occurrences only.
/// * **No branch runs past the cap.** Branch `b` keeps only its share,
///   `cap` minus the covers of branches `0..b`. Enumeration is
///   deterministic and stops as soon as it holds its limit, so a branch
///   capped at `r` yields the first `r` models of its uncapped run and
///   spends exactly the conflicts that run had spent right after its
///   `r`-th model. So no branch starts once the prefix is full, and each
///   branch gets its share as its cap.
///
/// Solutions, `complete` and `truncation` are those of enumerating every
/// branch in full and then cutting the merged list at the cap, with two
/// deliberate budget differences: a `k = 1` cover spends no conflicts,
/// so a conflict limit (or the wall deadline) cannot trip it; and a
/// budget that would have run out in a branch only after the prefix was
/// full no longer turns the cap truncation into a preemption — the rule
/// BSAT's capped enumeration already follows. `work` counts only the
/// conflicts of the kept prefix.
fn cover_sat(
    sets: &[Vec<GateId>],
    k: usize,
    max_solutions: usize,
    budget: &Budget,
) -> CoverOutcome {
    let build_start = Instant::now();
    if sets.is_empty() {
        return trivial_outcome(vec![Vec::new()], build_start.elapsed());
    }
    if sets.iter().any(|s| s.is_empty()) || k == 0 {
        return trivial_outcome(Vec::new(), build_start.elapsed());
    }
    let branch_set = sets
        .iter()
        .min_by_key(|set| set.len())
        .expect("sets checked non-empty");
    let cap = max_solutions.max(1);
    if k == 1 {
        return size_one_covers(sets, branch_set, cap, build_start);
    }
    let base = CoverBase::new(sets, branch_set, k);
    let build_time = build_start.elapsed();
    let enum_start = Instant::now();
    // The SAT engine's work unit is solver conflicts: the work budget and
    // the conflict budget merge into one solver limit, installed on each
    // branch's own solver (bounding every enumeration query, so the
    // truncation points are a pure function of the instance), and the
    // wall deadline plugs into the solver's cooperative deadline hook.
    let (conflict_limit, conflict_reason) = budget.conflict_limit();
    let deadline = budget.deadline_instant();
    let mut found: Vec<Vec<GateId>> = Vec::new();
    let mut first_elapsed: Option<Duration> = None;
    let mut budget_truncation: Option<Truncation> = None;
    let mut work = 0u64;
    for b in 0..branch_set.len() {
        if found.len() >= cap {
            break;
        }
        let mut solver = base.branch_solver(b);
        solver.set_conflict_budget(conflict_limit);
        solver.set_deadline(deadline);
        let branch = enumerate_cover_branch(
            &base,
            solver,
            cap - found.len(),
            enum_start,
            conflict_reason,
        );
        first_elapsed = first_elapsed.or(branch.first_elapsed);
        budget_truncation = budget_truncation.or(branch.truncation);
        work += branch.work;
        found.extend(branch.solutions);
    }
    let truncated = found.len() >= cap;
    CoverOutcome {
        // Cross-branch irredundancy filter (see the function docs).
        solutions: SetHits::new(sets).irredundant(found),
        build_time,
        first_solution_time: first_elapsed.map_or(Duration::ZERO, |t| build_time + t),
        truncation: budget_truncation.or(truncated.then_some(Truncation::Solutions)),
        work,
    }
}

/// [`cover_sat`] at `k = 1`: the gates of `branch_set` that hit every
/// set, first occurrences only, in branch-set order and cut at `cap` —
/// exactly the covers the per-branch solvers would find (see the
/// function docs there), without building a covering instance or
/// spending a conflict.
fn size_one_covers(
    sets: &[Vec<GateId>],
    branch_set: &[GateId],
    cap: usize,
    build_start: Instant,
) -> CoverOutcome {
    let hits = SetHits::new(sets);
    let mut found: Vec<Vec<GateId>> = Vec::new();
    for (i, &g) in branch_set.iter().enumerate() {
        if found.len() >= cap {
            break;
        }
        if hits.hits_every_set(g) && !branch_set[..i].contains(&g) {
            found.push(vec![g]);
        }
    }
    let truncated = found.len() >= cap;
    let build_time = build_start.elapsed();
    CoverOutcome {
        first_solution_time: if found.is_empty() {
            Duration::ZERO
        } else {
            build_time
        },
        solutions: hits.irredundant(found),
        build_time,
        truncation: truncated.then_some(Truncation::Solutions),
        work: 0,
    }
}

/// The branch-independent part of the SAT covering instance, built once
/// per [`cover_sat`] call and read concurrently by every branch.
///
/// A branch solver must search exactly as one encoded from scratch in
/// the order selectors, set clauses, branch units, totalizer. That order
/// matters because [`Solver::add_clause`] simplifies every clause
/// against the root units already present: the totalizer clauses must
/// meet the branch units, so they cannot live in the shared solver. The
/// base therefore holds the solver only up to the set clauses, and
/// records the totalizer as a clause stream that each branch replays
/// after its units — with the same interleaving of fresh variables and
/// clauses as a direct encoding — which reproduces the clause database,
/// and therefore the search, bit for bit.
struct CoverBase {
    /// Selector variables `0..n`, one per distinct gate in first-seen
    /// order over the sets.
    selectors: Vec<Var>,
    /// The gate selector `v` stands for, indexed by `v.index()`.
    gate_of: Vec<GateId>,
    /// The selector of each branch-set gate, in branch-set order.
    branch_vars: Vec<Var>,
    /// The selectors and one at-least-one clause per set.
    solver: Solver,
    /// The largest bound the `k`-loop asks for: `k.min(n)`.
    limit: usize,
    /// The totalizer over all selectors, up to `limit`; its variables
    /// start at `n` and exist once [`CoverBase::branch_solver`] replays
    /// `totalizer_cnf`.
    totalizer: Totalizer,
    totalizer_cnf: Recording,
}

impl CoverBase {
    fn new(sets: &[Vec<GateId>], branch_set: &[GateId], k: usize) -> Self {
        let mut solver = Solver::new();
        let mut var_of: HashMap<GateId, Var> = HashMap::new();
        let mut gate_of: Vec<GateId> = Vec::new();
        for set in sets {
            for &g in set {
                var_of.entry(g).or_insert_with(|| {
                    gate_of.push(g);
                    solver.new_var()
                });
            }
        }
        for set in sets {
            let clause: Vec<_> = set.iter().map(|g| var_of[g].positive()).collect();
            solver.add_clause(&clause);
        }
        let selectors: Vec<Var> = (0..gate_of.len()).map(Var::from_index).collect();
        let select_lits: Vec<_> = selectors.iter().map(|v| v.positive()).collect();
        let limit = k.min(selectors.len());
        let mut totalizer_cnf = Recording::starting_at(selectors.len());
        let totalizer = Totalizer::new(&mut totalizer_cnf, &select_lits, limit);
        CoverBase {
            branch_vars: branch_set.iter().map(|g| var_of[g]).collect(),
            selectors,
            gate_of,
            solver,
            limit,
            totalizer,
            totalizer_cnf,
        }
    }

    /// The encoded instance of branch `b`: covers containing
    /// `branch_set[b]` and none of `branch_set[..b]`.
    ///
    /// Charges the `cnf.vars`/`cnf.clauses` counters as encoding the
    /// branch from scratch through the counting [`ClauseSink`] does: every
    /// selector and totalizer variable, and the totalizer clauses.
    fn branch_solver(&self, b: usize) -> Solver {
        let mut solver = self.solver.clone();
        // The branch constraints (root units), before the totalizer (see
        // the type docs). A duplicated branch gate makes a later branch
        // inconsistent, which is exactly right: the first occurrence's
        // branch already owns those covers.
        solver.add_clause(&[self.branch_vars[b].positive()]);
        for v in &self.branch_vars[..b] {
            solver.add_clause(&[v.negative()]);
        }
        self.totalizer_cnf.replay(&mut solver);
        gatediag_obs::count(
            "cnf.vars",
            (self.selectors.len() + self.totalizer_cnf.vars) as u64,
        );
        gatediag_obs::count("cnf.clauses", self.totalizer_cnf.clauses.len() as u64);
        solver
    }
}

/// A formula fragment recorded for replay into solvers that already hold
/// `base` variables. Unlike [`gatediag_cnf::CnfCollector`] it charges no
/// obs counters (the replaying branch does) and keeps, per clause, how
/// many variables had been allocated before it, so a replay reproduces
/// the exact interleaving of [`Solver::new_var`] and
/// [`Solver::add_clause`] calls of a direct encoding.
struct Recording {
    base: usize,
    /// Variables allocated by this recording.
    vars: usize,
    /// Per clause: `(variables allocated before it, end offset in lits)`.
    clauses: Vec<(usize, usize)>,
    lits: Vec<Lit>,
}

impl Recording {
    fn starting_at(base: usize) -> Self {
        Recording {
            base,
            vars: 0,
            clauses: Vec::new(),
            lits: Vec::new(),
        }
    }

    /// Allocates the recorded variables and adds the recorded clauses to
    /// `solver`, which must hold exactly `base` variables.
    fn replay(&self, solver: &mut Solver) {
        debug_assert_eq!(solver.num_vars(), self.base);
        let mut start = 0;
        for &(vars_before, end) in &self.clauses {
            while solver.num_vars() < self.base + vars_before {
                solver.new_var();
            }
            solver.add_clause(&self.lits[start..end]);
            start = end;
        }
        while solver.num_vars() < self.base + self.vars {
            solver.new_var();
        }
    }
}

impl ClauseSink for Recording {
    fn new_var(&mut self) -> Var {
        self.vars += 1;
        Var::from_index(self.base + self.vars - 1)
    }

    fn add_clause(&mut self, lits: &[Lit]) {
        self.lits.extend_from_slice(lits);
        self.clauses.push((self.vars, self.lits.len()));
    }
}

/// A trivial (empty-instance) outcome: complete, no work.
fn trivial_outcome(solutions: Vec<Vec<GateId>>, build_time: Duration) -> CoverOutcome {
    CoverOutcome {
        solutions,
        build_time,
        first_solution_time: build_time,
        truncation: None,
        work: 0,
    }
}

/// Which sets each gate hits, as a bitmask over set indices: the index
/// behind the irredundancy filter and the size-one covers.
struct SetHits {
    /// The mask of a gate that hits every set.
    every: Vec<u64>,
    of: HashMap<GateId, Vec<u64>>,
}

impl SetHits {
    /// An `O(Σ|set|)` pass over `sets`.
    fn new(sets: &[Vec<GateId>]) -> Self {
        let words = sets.len().div_ceil(64);
        let mut of: HashMap<GateId, Vec<u64>> = HashMap::new();
        for (i, set) in sets.iter().enumerate() {
            for &g in set {
                of.entry(g).or_insert_with(|| vec![0; words])[i / 64] |= 1 << (i % 64);
            }
        }
        let mut every = vec![0u64; words];
        for i in 0..sets.len() {
            every[i / 64] |= 1 << (i % 64);
        }
        SetHits { every, of }
    }

    /// Whether `{g}` is a cover. `g` must occur in some set.
    fn hits_every_set(&self, g: GateId) -> bool {
        self.of[&g] == self.every
    }

    /// Normalises the covers `found` (each sorted, list sorted and
    /// deduplicated) and keeps the irredundant ones: those in which every
    /// gate hits some set that no other gate of the cover hits. The
    /// covers have distinct gates, all drawn from the sets. One cover
    /// costs `O(|cover| · |sets| / 64)`.
    fn irredundant(&self, mut found: Vec<Vec<GateId>>) -> Vec<Vec<GateId>> {
        for sol in &mut found {
            sol.sort();
        }
        found.sort();
        found.dedup();
        // Sets hit by at least one / at least two gates of the cover.
        let mut once = vec![0u64; self.every.len()];
        let mut twice = vec![0u64; self.every.len()];
        found.retain(|sol| {
            once.fill(0);
            twice.fill(0);
            for g in sol {
                for ((o, t), &h) in once.iter_mut().zip(&mut twice).zip(&self.of[g]) {
                    *t |= *o & h;
                    *o |= h;
                }
            }
            sol.iter()
                .all(|g| self.of[g].iter().zip(&twice).any(|(&h, &t)| h & !t != 0))
        });
        found
    }
}

/// What one top-level branch of the SAT cover engine reports back.
struct BranchOutcome {
    solutions: Vec<Vec<GateId>>,
    first_elapsed: Option<Duration>,
    truncation: Option<Truncation>,
    work: u64,
}

/// One branch of the sharded SAT cover enumeration on its encoded
/// `solver` ([`CoverBase::branch_solver`], with the per-branch
/// cooperative budget installed — see [`CovOptions::budget`]);
/// `conflict_reason` is the [`Truncation`] to report when the conflict
/// limit trips.
fn enumerate_cover_branch(
    base: &CoverBase,
    mut solver: Solver,
    cap: usize,
    enum_start: Instant,
    conflict_reason: Truncation,
) -> BranchOutcome {
    let mut solutions: Vec<Vec<GateId>> = Vec::new();
    let mut first_elapsed: Option<Duration> = None;
    let mut truncation: Option<Truncation> = None;
    for size in 1..=base.limit {
        let assumptions: Vec<_> = base.totalizer.at_most(size).into_iter().collect();
        let remaining = cap.saturating_sub(solutions.len());
        if remaining == 0 {
            break;
        }
        let out = enumerate_positive_subsets(&mut solver, &base.selectors, &assumptions, remaining);
        for subset in out.solutions {
            if solutions.is_empty() {
                first_elapsed = Some(enum_start.elapsed());
            }
            solutions.push(subset.iter().map(|v| base.gate_of[v.index()]).collect());
        }
        if !out.complete {
            if out.gave_up {
                truncation = Some(if solver.deadline_hit() {
                    Truncation::Deadline
                } else {
                    conflict_reason
                });
            }
            break;
        }
    }
    BranchOutcome {
        solutions,
        first_elapsed,
        truncation,
        work: solver.stats().conflicts,
    }
}
/// Branch-and-bound cover enumeration on the calling thread.
///
/// An unbudgeted run is one recursion from the empty root: a shared
/// solution list and a global early exit at the cap.
///
/// The effective cap is `max_solutions.max(1)`: the recursion only
/// notices truncation *after* pushing a solution, so even
/// `max_solutions == 0` reports the first cover found.
///
/// # Budgeted runs
///
/// With a work or deadline budget the engine decomposes the search over
/// the gates of the top-level branch set (the smallest set, as in the
/// recursion): each branch gets its own meter (the full work budget,
/// counted in node expansions; the shared absolute deadline) and its own
/// cap, and the branches run in order and merge in branch order, the
/// merged list then cut at the cap. A truncation is thus a set of
/// per-branch truncations, each a pure function of its branch.
fn cover_bnb(
    sets: &[Vec<GateId>],
    k: usize,
    max_solutions: usize,
    budget: &Budget,
) -> CoverOutcome {
    let build_start = Instant::now();
    if sets.is_empty() {
        return trivial_outcome(vec![Vec::new()], build_start.elapsed());
    }
    if sets.iter().any(|s| s.is_empty()) {
        return trivial_outcome(Vec::new(), build_start.elapsed());
    }
    let build_time = build_start.elapsed();
    let enum_start = Instant::now();
    let cap = max_solutions.max(1);
    let mut found: Vec<Vec<GateId>> = Vec::new();
    let mut first_elapsed: Option<Duration> = None;
    let mut budget_truncation: Option<Truncation> = None;
    let mut work = 0u64;
    if budget.work.is_none() && budget.deadline_ms.is_none() {
        // With empty `chosen` the recursion picks the smallest branch
        // set itself, and its budget check handles `k == 0`. The meter
        // is unlimited, so the hot loop pays one add per node and never
        // polls the clock.
        let mut meter = Budget::default().meter();
        recurse(
            sets,
            k,
            &mut Vec::new(),
            &mut found,
            cap,
            &mut first_elapsed,
            enum_start,
            &mut meter,
        );
        work = meter.work_used();
    } else if k > 0 {
        // Ties resolve to the first set, as in the recursion.
        let branch_set = sets
            .iter()
            .min_by_key(|set| set.len())
            .expect("sets checked non-empty");
        let root_meter = budget.meter();
        for &g in branch_set {
            let mut local: Vec<Vec<GateId>> = Vec::new();
            let mut local_first = None;
            let mut meter = root_meter.fork();
            recurse(
                sets,
                k - 1,
                &mut vec![g],
                &mut local,
                cap,
                &mut local_first,
                enum_start,
                &mut meter,
            );
            if first_elapsed.is_none() {
                first_elapsed = local_first;
            }
            if budget_truncation.is_none() {
                budget_truncation = meter.truncation();
            }
            work += meter.work_used();
            found.extend(local);
        }
    }
    let truncated = found.len() >= cap;
    found.truncate(cap);
    CoverOutcome {
        solutions: SetHits::new(sets).irredundant(found),
        build_time,
        first_solution_time: first_elapsed.map_or(Duration::ZERO, |t| build_time + t),
        truncation: budget_truncation.or(truncated.then_some(Truncation::Solutions)),
        work,
    }
}

/// The cover search. An unbudgeted run enters once with an empty
/// `chosen` (the full recursion); a budgeted branch enters with its root
/// gate pre-chosen. `found` is the unbudgeted run's shared list or a
/// branch's local list, capped at `cap`
/// (`max_solutions.max(1)`, see [`cover_bnb`]). `meter` charges one work
/// unit per node expansion — the engine's cooperative checkpoint; an
/// unlimited meter reduces it to a counter.
#[allow(clippy::too_many_arguments)] // one search frame's full context
fn recurse(
    sets: &[Vec<GateId>],
    budget: usize,
    chosen: &mut Vec<GateId>,
    found: &mut Vec<Vec<GateId>>,
    cap: usize,
    first_elapsed: &mut Option<Duration>,
    enum_start: Instant,
    meter: &mut BudgetMeter,
) {
    if found.len() >= cap || !meter.charge(1) {
        return;
    }
    // Find the smallest uncovered set to branch on.
    let uncovered = sets
        .iter()
        .filter(|set| !set.iter().any(|g| chosen.contains(g)))
        .min_by_key(|set| set.len());
    let Some(branch_set) = uncovered else {
        if found.is_empty() {
            *first_elapsed = Some(enum_start.elapsed());
        }
        found.push(chosen.clone());
        return;
    };
    if budget == 0 {
        return;
    }
    for &g in branch_set {
        chosen.push(g);
        recurse(
            sets,
            budget - 1,
            chosen,
            found,
            cap,
            first_elapsed,
            enum_start,
            meter,
        );
        chosen.pop();
        if found.len() >= cap || meter.truncation().is_some() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_set::generate_failing_tests;
    use gatediag_netlist::{inject_errors, RandomCircuitSpec};

    fn g(i: usize) -> GateId {
        GateId::new(i)
    }

    fn both_engines(sets: &[Vec<GateId>], k: usize) -> (Vec<Vec<GateId>>, Vec<Vec<GateId>>) {
        let sat = cover_all(
            sets,
            k,
            CovOptions {
                engine: CovEngine::Sat,
                ..CovOptions::default()
            },
        );
        let bnb = cover_all(
            sets,
            k,
            CovOptions {
                engine: CovEngine::BranchAndBound,
                ..CovOptions::default()
            },
        );
        assert!(sat.complete && bnb.complete);
        (sat.solutions, bnb.solutions)
    }

    /// The paper's Example 1: C1={A,B,F,G}, C2={C,D,E,F,G}, C3={B,C,E,H}.
    fn example1_sets() -> Vec<Vec<GateId>> {
        // A=0 B=1 C=2 D=3 E=4 F=5 G=6 H=7
        vec![
            vec![g(0), g(1), g(5), g(6)],
            vec![g(2), g(3), g(4), g(5), g(6)],
            vec![g(1), g(2), g(4), g(7)],
        ]
    }

    #[test]
    fn example1_finds_bd_with_k2() {
        let (sat, bnb) = both_engines(&example1_sets(), 2);
        assert_eq!(sat, bnb);
        // {B, D} is one possible solution (paper Example 1).
        assert!(sat.contains(&vec![g(1), g(3)]), "missing {{B,D}}: {sat:?}");
        // Every solution hits all three sets and is within the bound.
        for sol in &sat {
            assert!(sol.len() <= 2);
            for set in example1_sets() {
                assert!(
                    sol.iter().any(|x| set.contains(x)),
                    "{sol:?} misses {set:?}"
                );
            }
        }
    }

    #[test]
    fn example1_finds_adh_with_k3() {
        let (sat, bnb) = both_engines(&example1_sets(), 3);
        assert_eq!(sat, bnb);
        // {A, D, H} is the paper's "another solution" (requires k = 3).
        assert!(
            sat.contains(&vec![g(0), g(3), g(7)]),
            "missing {{A,D,H}}: {sat:?}"
        );
        // But it must NOT appear at k = 2.
        let (sat2, _) = both_engines(&example1_sets(), 2);
        assert!(!sat2.contains(&vec![g(0), g(3), g(7)]));
    }

    #[test]
    fn solutions_are_irredundant() {
        let sets = example1_sets();
        let (sat, _) = both_engines(&sets, 3);
        for sol in &sat {
            for drop in sol {
                let without: Vec<GateId> = sol.iter().copied().filter(|x| x != drop).collect();
                let still_covers = sets
                    .iter()
                    .all(|set| without.iter().any(|x| set.contains(x)));
                assert!(!still_covers, "{sol:?} minus {drop} still covers");
            }
        }
    }

    #[test]
    fn engines_agree_on_random_instances() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(99);
        for round in 0..25 {
            let universe = rng.gen_range(3..9usize);
            let num_sets = rng.gen_range(1..5usize);
            let sets: Vec<Vec<GateId>> = (0..num_sets)
                .map(|_| {
                    let size = rng.gen_range(1..=universe);
                    let mut items: Vec<usize> = (0..universe).collect();
                    for i in (1..items.len()).rev() {
                        items.swap(i, rng.gen_range(0..=i));
                    }
                    items.truncate(size);
                    items.into_iter().map(g).collect()
                })
                .collect();
            let k = rng.gen_range(1..4usize);
            let (sat, bnb) = both_engines(&sets, k);
            assert_eq!(sat, bnb, "round {round}: sets {sets:?} k {k}");
        }
    }

    /// Every subset of the gates of `sets` with at most `k` gates that
    /// hits every set and stays irredundant, in [`CovResult`] order.
    fn brute_force_covers(sets: &[Vec<GateId>], k: usize) -> Vec<Vec<GateId>> {
        let mut gates: Vec<GateId> = sets.iter().flatten().copied().collect();
        gates.sort();
        gates.dedup();
        let hits_all =
            |cover: &[GateId]| sets.iter().all(|set| set.iter().any(|g| cover.contains(g)));
        let mut covers: Vec<Vec<GateId>> = (0..1u32 << gates.len())
            .filter(|mask| mask.count_ones() as usize <= k)
            .map(|mask| {
                (0..gates.len())
                    .filter(|&i| mask >> i & 1 == 1)
                    .map(|i| gates[i])
                    .collect::<Vec<_>>()
            })
            .filter(|cover| {
                hits_all(cover)
                    && cover.iter().all(|g| {
                        let without: Vec<GateId> =
                            cover.iter().copied().filter(|h| h != g).collect();
                        !hits_all(&without)
                    })
            })
            .collect();
        covers.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
        covers
    }

    #[test]
    fn engines_match_brute_force_oracle() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2006);
        let mut repeated_branch_sets = 0;
        for round in 0..80 {
            let universe = rng.gen_range(1..=9usize);
            let num_sets = rng.gen_range(0..=5usize);
            // Sampling with replacement repeats gates inside a set; sets
            // drawn from one small universe share gates.
            let mut sets: Vec<Vec<GateId>> = (0..num_sets)
                .map(|_| {
                    let size = rng.gen_range(1..=universe.min(4));
                    (0..size).map(|_| g(rng.gen_range(0..universe))).collect()
                })
                .collect();
            // Every other round, repeat a gate inside the branch set (the
            // first smallest set) without changing its length.
            if round % 2 == 0 {
                if let Some(branch) = sets.iter_mut().min_by_key(|set| set.len()) {
                    if branch.len() >= 2 {
                        let first = branch[0];
                        *branch.last_mut().unwrap() = first;
                    }
                }
            }
            let branch = sets.iter().min_by_key(|set| set.len());
            if branch.is_some_and(|set| (1..set.len()).any(|i| set[..i].contains(&set[i]))) {
                repeated_branch_sets += 1;
            }
            let k = rng.gen_range(0..=3usize);
            let expected = brute_force_covers(&sets, k);
            let (sat, bnb) = both_engines(&sets, k);
            assert_eq!(sat, expected, "round {round}: SAT, sets {sets:?} k {k}");
            assert_eq!(bnb, expected, "round {round}: B&B, sets {sets:?} k {k}");
        }
        assert!(
            repeated_branch_sets >= 10,
            "only {repeated_branch_sets} branch sets with repeated gates"
        );
    }

    /// What [`cover_sat`] reported before it stopped at the cap: every
    /// top-level branch enumerated in full on its own solver (k = 1
    /// included), the merged list cut at the cap, then filtered.
    /// Returns the [`cover_all`] fields that must match, plus how many
    /// covers the branches found in all.
    fn cover_sat_in_full(
        sets: &[Vec<GateId>],
        k: usize,
        max_solutions: usize,
    ) -> (Vec<Vec<GateId>>, Option<Truncation>, u64, usize) {
        let branch_set = sets.iter().min_by_key(|set| set.len()).unwrap();
        let cap = max_solutions.max(1);
        let base = CoverBase::new(sets, branch_set, k);
        let mut found: Vec<Vec<GateId>> = Vec::new();
        let mut work = 0;
        for b in 0..branch_set.len() {
            let branch = enumerate_cover_branch(
                &base,
                base.branch_solver(b),
                cap,
                Instant::now(),
                Truncation::Conflicts,
            );
            assert_eq!(branch.truncation, None, "unbudgeted branch preempted");
            work += branch.work;
            found.extend(branch.solutions);
        }
        let raw = found.len();
        let truncation = (found.len() >= cap).then_some(Truncation::Solutions);
        found.truncate(cap);
        let mut solutions = SetHits::new(sets).irredundant(found);
        solutions.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
        (solutions, truncation, work, raw)
    }

    #[test]
    fn sat_engine_reports_what_full_enumeration_reports() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(18);
        // A repeated gate common to every set, at the head of the branch
        // set: at k = 1 and cap 2 the SAT branches find it once and the
        // run is complete.
        let mut instances = vec![vec![vec![g(3), g(1), g(3)], vec![g(3), g(2), g(0), g(5)]]];
        while instances.len() < 40 {
            let universe = rng.gen_range(2..=8usize);
            let num_sets = rng.gen_range(1..=4usize);
            // Sampling with replacement repeats gates inside a set.
            let sets: Vec<Vec<GateId>> = (0..num_sets)
                .map(|_| {
                    let size = rng.gen_range(1..=universe.min(5));
                    (0..size).map(|_| g(rng.gen_range(0..universe))).collect()
                })
                .collect();
            instances.push(sets);
        }
        let mut cap_inside_a_branch = 0;
        for sets in &instances {
            for k in 1..=3 {
                let (_, _, _, raw) = cover_sat_in_full(sets, k, usize::MAX);
                for max_solutions in 1..=raw + 1 {
                    let (solutions, truncation, work, _) =
                        cover_sat_in_full(sets, k, max_solutions);
                    let run = cover_all(
                        sets,
                        k,
                        CovOptions {
                            engine: CovEngine::Sat,
                            max_solutions,
                            ..CovOptions::default()
                        },
                    );
                    let case = format!("sets {sets:?} k {k} cap {max_solutions}");
                    assert_eq!(run.solutions, solutions, "{case}");
                    assert_eq!(run.truncation, truncation, "{case}");
                    assert_eq!(run.complete, truncation.is_none(), "{case}");
                    assert!(run.work <= work, "{case}: work {} > {work}", run.work);
                    if k == 1 {
                        assert_eq!(run.work, 0, "{case}: k = 1 spent conflicts");
                    } else if run.work < work && max_solutions < raw {
                        cap_inside_a_branch += 1;
                    }
                }
            }
        }
        assert!(
            cap_inside_a_branch >= 10,
            "only {cap_inside_a_branch} capped runs skipped conflicts"
        );
    }

    #[test]
    fn empty_sets_edge_cases() {
        let empty: Vec<Vec<GateId>> = Vec::new();
        let (sat, bnb) = both_engines(&empty, 2);
        assert_eq!(sat, vec![Vec::<GateId>::new()]);
        assert_eq!(bnb, sat);
        let unhittable = vec![vec![g(0)], vec![]];
        let (sat, bnb) = both_engines(&unhittable, 2);
        assert!(sat.is_empty());
        assert!(bnb.is_empty());
    }

    #[test]
    fn max_solutions_truncates() {
        let sets = example1_sets();
        let out = cover_all(
            &sets,
            3,
            CovOptions {
                max_solutions: 2,
                ..CovOptions::default()
            },
        );
        assert!(!out.complete);
        assert!(out.solutions.len() <= 2);
    }

    #[test]
    fn sat_cover_counts_its_base_build() {
        let out = cover_all(&example1_sets(), 3, CovOptions::default());
        assert!(out.build_time > Duration::ZERO);
        assert!(out.build_time <= out.first_solution_time);
        assert!(out.first_solution_time <= out.total_time);
    }

    #[test]
    fn sc_diagnose_end_to_end() {
        let golden = RandomCircuitSpec::new(6, 3, 50).seed(5).generate();
        let (faulty, _) = inject_errors(&golden, 2, 5);
        let tests = generate_failing_tests(&golden, &faulty, 8, 5, 4096);
        if tests.is_empty() {
            return;
        }
        let result = sc_diagnose(&faulty, &tests, 2, CovOptions::default());
        assert!(result.complete);
        let bsim = result.bsim.as_ref().unwrap();
        for sol in &result.solutions {
            assert!(sol.len() <= 2);
            for set in &bsim.candidate_sets {
                assert!(sol.iter().any(|&x| set.contains(x)));
            }
        }
        // Timing fields are coherent.
        assert!(result.first_solution_time <= result.total_time + result.build_time);
    }
}
