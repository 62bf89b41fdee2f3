//! Valid-correction oracles (Definition 3 of the paper).
//!
//! A candidate set `C` is a *valid correction* when replacing the functions
//! of the gates in `C` can rectify every test. Because a replacement
//! function is arbitrary, its output on any single test vector is a free
//! Boolean value — so validity decomposes per test into "∃ values at `C`
//! making the designated output correct". Two independent backends answer
//! that question:
//!
//! * forced-value simulation ([`ValidityBackend::Sim`]) — 1024 value
//!   combinations per incremental packed sweep (exact, exponential in
//!   `|C|`);
//! * SAT ([`ValidityBackend::Sat`]) — the circuit encoded once with `C`
//!   freed, then one assumption-based query per test (exact, scales to
//!   large `C`).
//!
//! The two must always agree; property tests enforce it. Validity is
//! monotone under supersets (force the extra gates to the values they
//! would compute anyway), which the essentiality analysis relies on.
//!
//! The public surface is one question behind one type: a
//! [`ValidityOracle`] auto-dispatches per call from `|C|` and the
//! candidates' fan-out cone size (or stays pinned to one backend), and
//! keeps its simulation baseline warm across calls, so cross-candidate
//! loops hold one oracle per loop. [`is_valid_correction`] is the one-shot
//! form; [`screen_valid_corrections`] screens many candidate sets at once
//! under a [`Budget`] — one oracle per worker, work-stealing over the
//! sets, verdicts bit-identical for every worker count.

use crate::budget::{Budget, Truncation};
use crate::test_set::{Test, TestSet};
use gatediag_cnf::{encode_gate, ClauseSink};
use gatediag_netlist::{Circuit, GateId, GateKind};
use gatediag_sat::{SolveResult, Solver, SolverStats, Var};
use gatediag_sim::{parallel_map_init_while, PackedSim, Parallelism};
use std::time::Instant;

/// Words per gate used by the forced-value screening sweeps: 16 words =
/// 1024 candidate-value combinations per incremental propagation.
const SCREEN_WORDS: usize = 16;

/// A reusable forced-value validity oracle over one circuit.
///
/// Owns a [`PackedSim`] plus its scratch buffers, so a tight loop over
/// candidate sets (e.g. the backtrack search of
/// [`crate::sim_backtrack_diagnose`]) pays the O(gates) buffer setup and
/// the full baseline sweep *once*, after which every call re-simulates
/// only the fan-out cones of the inputs and candidate gates that changed
/// since the previous call. Outside the crate it is reached through a
/// [`ValidityOracle`] pinned to [`ValidityBackend::Sim`].
///
/// # Examples
///
/// ```
/// use gatediag_core::{generate_failing_tests, ValidityBackend, ValidityOracle};
/// use gatediag_netlist::{c17, inject_errors};
///
/// let golden = c17();
/// let (faulty, sites) = inject_errors(&golden, 1, 42);
/// let tests = generate_failing_tests(&golden, &faulty, 8, 42, 4096);
/// let mut oracle = ValidityOracle::with_backend(&faulty, ValidityBackend::Sim);
/// // The real error site is a valid correction; screening more
/// // candidates reuses the engine's baseline incrementally.
/// assert!(oracle.is_valid(&tests, &[sites[0].gate]));
/// ```
#[derive(Debug)]
pub(crate) struct SimValidityEngine<'c> {
    circuit: &'c Circuit,
    sim: PackedSim<'c>,
    force_words: Vec<u64>,
    /// Words per gate the engine is currently sized for (0 = unsized).
    words: usize,
    /// Whether `sim` holds a consistent baseline (a full sweep has run
    /// since the last `reset`), enabling propagate-only updates.
    primed: bool,
}

impl<'c> SimValidityEngine<'c> {
    /// Creates an engine for `circuit`. Buffers are sized lazily on the
    /// first [`SimValidityEngine::is_valid`] call.
    pub(crate) fn new(circuit: &'c Circuit) -> SimValidityEngine<'c> {
        SimValidityEngine {
            circuit,
            sim: PackedSim::new(circuit),
            force_words: Vec::new(),
            words: 0,
            primed: false,
        }
    }

    /// Exact validity of `candidates`, reusing the engine's baseline from
    /// previous calls. Bit-identical to a fresh engine's verdict.
    ///
    /// # Panics
    ///
    /// Panics if `candidates.len() > 16` (use the SAT oracle instead) or
    /// if a candidate is a primary input.
    pub(crate) fn is_valid(&mut self, tests: &TestSet, candidates: &[GateId]) -> bool {
        assert!(
            candidates.len() <= SIM_MAX_CANDIDATES,
            "simulation oracle limited to 16 candidates; use the SAT backend"
        );
        for &g in candidates {
            assert!(
                self.circuit.gate(g).kind() != GateKind::Input,
                "candidate {g} is a primary input"
            );
        }
        let combos = 1u64 << candidates.len();
        let words = (combos.div_ceil(64) as usize).min(SCREEN_WORDS);
        if self.words != words {
            // Repartitioning invalidates the value array; the next test
            // needs a full sweep again.
            self.sim.reset(words);
            self.force_words.clear();
            self.force_words.resize(words, 0);
            self.words = words;
            self.primed = false;
        }
        for t in tests {
            if !self.test_rectifiable(t, candidates) {
                return false;
            }
        }
        true
    }

    fn test_rectifiable(&mut self, test: &Test, candidates: &[GateId]) -> bool {
        let words = self.words;
        let combos = 1u64 << candidates.len();
        // Per-test baseline: every lane carries the same input vector. An
        // unprimed engine needs one full sweep (the value array is zeroed
        // and inconsistent); after that, every test of every call reuses
        // the previous values and propagates only the cones of inputs
        // that changed.
        self.sim.clear_forced();
        self.sim.set_inputs_broadcast(&test.vector);
        if self.primed {
            self.sim.propagate();
        } else {
            self.sim.sweep();
            self.primed = true;
        }
        let mut base = 0u64;
        while base < combos {
            let lanes = (combos - base).min(64 * words as u64);
            // Lane l encodes combination base + l: candidate i takes bit i.
            for (i, &g) in candidates.iter().enumerate() {
                for (w, word) in self.force_words.iter_mut().enumerate() {
                    let mut bits = 0u64;
                    for lane in 0..64u64 {
                        let combo = base + w as u64 * 64 + lane;
                        bits |= (combo >> i & 1) << lane;
                        if combo + 1 >= combos {
                            break;
                        }
                    }
                    *word = bits;
                }
                self.sim.force(g, &self.force_words);
            }
            self.sim.propagate();
            let out_words = self.sim.value_words(test.output);
            for lane in 0..lanes {
                let bit = out_words[(lane / 64) as usize] >> (lane % 64) & 1 == 1;
                if bit == test.expected {
                    return true;
                }
            }
            base += lanes;
        }
        false
    }
}

/// A reusable SAT validity oracle for one `(circuit, candidate set)` pair.
///
/// Encodes the circuit *once* with the candidate gates' defining clauses
/// omitted (their variables are free — precisely the "mux on" semantics),
/// then answers per-test rectifiability queries under *assumptions*
/// (inputs and the expected output value), so checking `|T|` tests costs
/// one encoding instead of `|T|`. Learnt clauses accumulate across tests,
/// which is sound (they are implied by the circuit clauses alone) and
/// usually speeds up later tests of the same set. Outside the module it
/// is reached through a [`ValidityOracle`] pinned to
/// [`ValidityBackend::Sat`] (or auto-dispatched there for large sets).
///
/// # Examples
///
/// ```
/// use gatediag_core::{generate_failing_tests, ValidityBackend, ValidityOracle};
/// use gatediag_netlist::{c17, inject_errors};
///
/// let golden = c17();
/// let (faulty, sites) = inject_errors(&golden, 1, 42);
/// let tests = generate_failing_tests(&golden, &faulty, 8, 42, 4096);
/// let mut oracle = ValidityOracle::with_backend(&faulty, ValidityBackend::Sat);
/// assert!(oracle.is_valid(&tests, &[sites[0].gate]));
/// ```
#[derive(Debug)]
struct SatValidityEngine<'c> {
    circuit: &'c Circuit,
    solver: Solver,
    vars: Vec<Var>,
}

/// Outcome of one budgeted rectifiability query
/// ([`SatValidityEngine::query`]).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum ValidityVerdict {
    /// Some assignment of the freed candidates rectifies the test.
    Rectifiable,
    /// No assignment rectifies the test (the candidate set is invalid).
    NotRectifiable,
    /// The solver gave up on its conflict budget or deadline before a
    /// verdict; the caller should treat the set as unscreened.
    Unknown(Truncation),
}

impl<'c> SatValidityEngine<'c> {
    /// Encodes `circuit` with `candidates` freed.
    ///
    /// # Panics
    ///
    /// Panics if a candidate is a primary input.
    fn new(circuit: &'c Circuit, candidates: &[GateId]) -> SatValidityEngine<'c> {
        let mut freed = vec![false; circuit.len()];
        for &g in candidates {
            assert!(
                circuit.gate(g).kind() != GateKind::Input,
                "candidate {g} is a primary input"
            );
            freed[g.index()] = true;
        }
        let mut solver = Solver::new();
        let vars: Vec<Var> = (0..circuit.len())
            .map(|_| ClauseSink::new_var(&mut solver))
            .collect();
        for &id in circuit.topo_order() {
            let gate = circuit.gate(id);
            if gate.kind() == GateKind::Input || freed[id.index()] {
                continue;
            }
            let fanins: Vec<_> = gate
                .fanins()
                .iter()
                .map(|&f| vars[f.index()].positive())
                .collect();
            encode_gate(&mut solver, gate.kind(), vars[id.index()], &fanins, None);
        }
        SatValidityEngine {
            circuit,
            solver,
            vars,
        }
    }

    /// Whether some assignment of the freed candidate values makes the
    /// test's designated output take its expected value. A solver that
    /// gives up (conflict budget or deadline, see
    /// [`SatValidityEngine::set_limits`]) reports
    /// [`ValidityVerdict::Unknown`] instead of silently conflating "gave
    /// up" with "not rectifiable".
    fn query(&mut self, test: &Test) -> ValidityVerdict {
        let mut assumptions: Vec<_> = self
            .circuit
            .inputs()
            .iter()
            .zip(&test.vector)
            .map(|(&pi, &v)| self.vars[pi.index()].lit(v))
            .collect();
        assumptions.push(self.vars[test.output.index()].lit(test.expected));
        match self.solver.solve(&assumptions) {
            SolveResult::Sat => ValidityVerdict::Rectifiable,
            SolveResult::Unsat => ValidityVerdict::NotRectifiable,
            SolveResult::Unknown => ValidityVerdict::Unknown(if self.solver.deadline_hit() {
                Truncation::Deadline
            } else {
                Truncation::Conflicts
            }),
        }
    }

    /// Installs a per-query conflict budget and/or an absolute wall
    /// deadline on the engine's solver (`None` = unlimited, the default).
    /// The conflict budget is deterministic; the deadline is not.
    fn set_limits(&mut self, conflicts: Option<u64>, deadline: Option<Instant>) {
        self.solver.set_conflict_budget(conflicts);
        self.solver.set_deadline(deadline);
    }

    /// Cumulative solver statistics across every query this engine ran —
    /// the real cost of SAT-backed validity screening, which callers
    /// aggregating per-run stats (the campaign's `auto` engine) must not
    /// drop on the floor.
    fn stats(&self) -> SolverStats {
        self.solver.stats()
    }
}

/// Outcome of a budgeted batch screen
/// ([`screen_valid_corrections`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ScreenOutcome {
    /// Verdicts for the *screened prefix* of the input sets, in input
    /// order. Shorter than the input only under `Work` or `Deadline`
    /// truncation (unscreened sets have no verdict at all — the caller
    /// must not report them, so always zip against this list rather than
    /// the input). A `Conflicts` truncation does **not** shorten the
    /// list: the set whose query gave up is conservatively screened as
    /// invalid, and the reason is recorded here.
    pub verdicts: Vec<bool>,
    /// SAT statistics accumulated over every screened set, in input
    /// order (all zero when only the simulation backend ran).
    pub stats: SolverStats,
    /// Why screening stopped early, if it did.
    pub truncation: Option<Truncation>,
    /// Deterministic work charged: the number of sets screened.
    pub work: u64,
}

/// Screens many candidate sets under a cooperative [`Budget`]: one
/// [`ValidityOracle`] per worker, work-stealing over the sets, verdicts in
/// input order (bit-identical for every worker count), with the SAT
/// statistics and any truncation reported alongside.
///
/// The deterministic work unit is **one candidate set screened**: a work
/// budget truncates the set list to a prefix before the fan-out, so the
/// verdict prefix is bit-identical for every worker count. The SAT
/// conflict budget applies per rectifiability query inside each screened
/// set (a set whose query gives up screens as *invalid*, with the reason
/// recorded — deterministic, since the CDCL search is). The wall deadline
/// stops between sets (nondeterministic, opt-in). `backend` pins the
/// validity backend, or [`ValidityBackend::Auto`] to dispatch per set.
pub fn screen_valid_corrections(
    circuit: &Circuit,
    tests: &TestSet,
    candidate_sets: &[Vec<GateId>],
    parallelism: Parallelism,
    backend: ValidityBackend,
    budget: &Budget,
) -> ScreenOutcome {
    let meter = budget.meter();
    let screened = usize::try_from(meter.remaining_work())
        .unwrap_or(usize::MAX)
        .min(candidate_sets.len());
    let work_truncated = screened < candidate_sets.len();
    // The work unit here is *sets*, not conflicts, so only the explicit
    // conflict budget caps the per-query SAT searches.
    let conflicts = budget.conflicts;
    let deadline = meter.deadline();
    let work_estimate = screened
        .saturating_mul(circuit.len())
        .saturating_mul(tests.len().max(1));
    let workers = parallelism.workers_for(screened, work_estimate, gatediag_sim::AUTO_WORK_FLOOR);
    let per_set = parallel_map_init_while(
        workers,
        screened,
        || {
            let mut oracle = ValidityOracle::with_backend(circuit, backend);
            oracle.set_limits(conflicts, deadline);
            oracle
        },
        |oracle, i| {
            let verdict = oracle.is_valid(tests, &candidate_sets[i]);
            (verdict, oracle.take_stats(), oracle.take_truncation())
        },
        || deadline.is_none_or(|d| Instant::now() < d),
    );
    let mut verdicts = Vec::with_capacity(screened);
    let mut stats = SolverStats::default();
    let mut truncation: Option<Truncation> = None;
    let mut deadline_hit = false;
    for entry in per_set {
        let Some((verdict, set_stats, set_truncation)) = entry else {
            // Deadline between sets: keep the contiguous verdict prefix.
            deadline_hit = true;
            break;
        };
        verdicts.push(verdict);
        stats.absorb(&set_stats);
        if truncation.is_none() {
            truncation = set_truncation;
        }
    }
    let work = verdicts.len() as u64;
    ScreenOutcome {
        verdicts,
        stats,
        truncation: if deadline_hit {
            Some(Truncation::Deadline)
        } else if work_truncated {
            Some(Truncation::Work)
        } else {
            truncation
        },
        work,
    }
}

/// Which validity oracle a call should use.
///
/// The two oracles are exact and always agree (property-tested), so the
/// backend only trades time: forced-value simulation is exponential in
/// `|C|` but touches only the candidates' fan-out cones, while SAT scales
/// to large `C` but pays a circuit-sized encoding and CDCL search per
/// test. [`ValidityBackend::Auto`] picks per call from `|C|` and the
/// candidates' fan-out cone size, so callers do not hardcode a backend.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum ValidityBackend {
    /// Choose per call from `|C|` and the candidates' fan-out cone size.
    #[default]
    Auto,
    /// Always forced-value simulation (panics if `|C| > 16`).
    Sim,
    /// Always the per-test SAT oracle.
    Sat,
}

/// Largest candidate set the simulation backend accepts (`2^16`
/// combinations per test).
pub const SIM_MAX_CANDIDATES: usize = 16;

/// Cost-model constant: a per-test SAT solve is charged roughly this many
/// scalar operations per circuit gate (encoding amortised, CDCL search
/// included). Calibrated coarsely from the SAT screen timings committed
/// at `ff32b1a`; only the crossover matters, not the absolute value.
const SAT_COST_PER_GATE: u64 = 48;

/// Resolves [`ValidityBackend::Auto`] for one call: `Sim` or `Sat`.
///
/// `Sim` is the fast path whenever it is feasible and its exponential
/// term stays small: the per-test cost model is
/// `ceil(2^|C| / 1024) · cone(C)` for simulation (1024 = lanes per
/// incremental sweep) versus `SAT_COST_PER_GATE · gates` for SAT. The
/// test count multiplies both sides equally and therefore drops out of
/// the comparison.
fn resolve_validity_backend(circuit: &Circuit, candidates: &[GateId]) -> ValidityBackend {
    if candidates.len() > SIM_MAX_CANDIDATES {
        return ValidityBackend::Sat;
    }
    if candidates.len() <= 10 {
        // At most one 1024-lane sweep per test: simulation never loses.
        return ValidityBackend::Sim;
    }
    let combos = 1u64 << candidates.len();
    let sweeps = combos.div_ceil(64 * SCREEN_WORDS as u64);
    let cone = fanout_cone_size(circuit, candidates) as u64;
    let sim_cost = sweeps.saturating_mul(cone.max(1));
    let sat_cost = SAT_COST_PER_GATE.saturating_mul(circuit.len() as u64);
    if sim_cost <= sat_cost {
        ValidityBackend::Sim
    } else {
        ValidityBackend::Sat
    }
}

/// Number of gates in the union of the candidates' fan-out cones — the
/// region an incremental forced-value sweep actually re-simulates.
fn fanout_cone_size(circuit: &Circuit, candidates: &[GateId]) -> usize {
    let mut visited = vec![false; circuit.len()];
    let mut stack: Vec<GateId> = Vec::new();
    for &g in candidates {
        if !visited[g.index()] {
            visited[g.index()] = true;
            stack.push(g);
        }
    }
    let mut size = 0usize;
    while let Some(id) = stack.pop() {
        size += 1;
        for &f in circuit.fanouts(id) {
            if !visited[f.index()] {
                visited[f.index()] = true;
                stack.push(f);
            }
        }
    }
    size
}

/// Exact validity with automatic backend dispatch.
///
/// One-shot convenience over [`ValidityOracle::new`] — loops over many
/// candidate sets should hold a [`ValidityOracle`] instead.
pub fn is_valid_correction(circuit: &Circuit, tests: &TestSet, candidates: &[GateId]) -> bool {
    ValidityOracle::new(circuit).is_valid(tests, candidates)
}

/// A reusable auto-dispatching validity oracle.
///
/// Owns a primed forced-value simulation engine as the fast path and
/// falls back to the per-test SAT oracle when the cost model (or an
/// explicit [`ValidityBackend`]) says so. Cross-candidate loops keep the
/// simulation engine's incremental baseline warm across calls, and large
/// candidate sets do not panic — they route to SAT.
///
/// # Examples
///
/// ```
/// use gatediag_core::{generate_failing_tests, ValidityOracle};
/// use gatediag_netlist::{c17, inject_errors};
///
/// let golden = c17();
/// let (faulty, sites) = inject_errors(&golden, 1, 42);
/// let tests = generate_failing_tests(&golden, &faulty, 8, 42, 4096);
/// let mut oracle = ValidityOracle::new(&faulty);
/// assert!(oracle.is_valid(&tests, &[sites[0].gate]));
/// ```
#[derive(Debug)]
pub struct ValidityOracle<'c> {
    circuit: &'c Circuit,
    sim: SimValidityEngine<'c>,
    backend: ValidityBackend,
    /// Per-query conflict budget for the SAT backend (`None` = unlimited).
    conflicts: Option<u64>,
    /// Absolute wall deadline for the SAT backend (nondeterministic,
    /// opt-in — the simulation backend checkpoints at the screen level
    /// instead, between candidate sets).
    deadline: Option<Instant>,
    /// SAT statistics accumulated across calls since the last
    /// [`ValidityOracle::take_stats`].
    stats: SolverStats,
    /// Whether a call gave up on its budget since the last
    /// [`ValidityOracle::take_truncation`].
    truncation: Option<Truncation>,
}

impl<'c> ValidityOracle<'c> {
    /// Creates an auto-dispatching oracle for `circuit`.
    pub fn new(circuit: &'c Circuit) -> ValidityOracle<'c> {
        ValidityOracle::with_backend(circuit, ValidityBackend::Auto)
    }

    /// Creates an oracle pinned to (or auto-dispatching from) `backend`.
    pub fn with_backend(circuit: &'c Circuit, backend: ValidityBackend) -> ValidityOracle<'c> {
        ValidityOracle {
            circuit,
            sim: SimValidityEngine::new(circuit),
            backend,
            conflicts: None,
            deadline: None,
            stats: SolverStats::default(),
            truncation: None,
        }
    }

    /// Installs a per-query SAT conflict budget and/or an absolute wall
    /// deadline on the oracle (`None` = unlimited). A SAT query that gives
    /// up makes [`ValidityOracle::is_valid`] answer `false` (conservative:
    /// an unproven correction is not reported valid) and records the
    /// reason, retrievable via [`ValidityOracle::take_truncation`].
    pub fn set_limits(&mut self, conflicts: Option<u64>, deadline: Option<Instant>) {
        self.conflicts = conflicts;
        self.deadline = deadline;
    }

    /// SAT statistics accumulated across calls since the last take;
    /// resets the accumulator. All zero when only the simulation backend
    /// ran.
    pub fn take_stats(&mut self) -> SolverStats {
        std::mem::take(&mut self.stats)
    }

    /// The budget reason some call gave up on since the last take, if
    /// any; resets the flag.
    pub fn take_truncation(&mut self) -> Option<Truncation> {
        self.truncation.take()
    }

    /// Exact validity of `candidates` for `tests`.
    ///
    /// # Panics
    ///
    /// Panics if a candidate is a primary input, or if the oracle is
    /// pinned to [`ValidityBackend::Sim`] with more than
    /// [`SIM_MAX_CANDIDATES`] candidates.
    pub fn is_valid(&mut self, tests: &TestSet, candidates: &[GateId]) -> bool {
        let backend = match self.backend {
            ValidityBackend::Auto => resolve_validity_backend(self.circuit, candidates),
            pinned => pinned,
        };
        match backend {
            ValidityBackend::Sim | ValidityBackend::Auto => {
                gatediag_obs::count("validity.dispatch.sim", 1);
                self.sim.is_valid(tests, candidates)
            }
            ValidityBackend::Sat => {
                gatediag_obs::count("validity.dispatch.sat", 1);
                let mut engine = SatValidityEngine::new(self.circuit, candidates);
                engine.set_limits(self.conflicts, self.deadline);
                let mut valid = true;
                for test in tests {
                    match engine.query(test) {
                        ValidityVerdict::Rectifiable => {}
                        ValidityVerdict::NotRectifiable => {
                            valid = false;
                            break;
                        }
                        ValidityVerdict::Unknown(reason) => {
                            // Conservative: an unproven correction is not
                            // valid; the caller can distinguish "refuted"
                            // from "gave up" via `take_truncation`.
                            self.truncation.get_or_insert(reason);
                            valid = false;
                            break;
                        }
                    }
                }
                self.stats.absorb(&engine.stats());
                valid
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_set::generate_failing_tests;
    use gatediag_netlist::{c17, inject_errors, RandomCircuitSpec};

    /// Fresh-engine simulation verdict.
    fn sim_valid(circuit: &Circuit, tests: &TestSet, candidates: &[GateId]) -> bool {
        SimValidityEngine::new(circuit).is_valid(tests, candidates)
    }

    /// Fresh-oracle SAT verdict.
    fn sat_valid(circuit: &Circuit, tests: &TestSet, candidates: &[GateId]) -> bool {
        ValidityOracle::with_backend(circuit, ValidityBackend::Sat).is_valid(tests, candidates)
    }

    #[test]
    fn error_sites_are_always_a_valid_correction() {
        for seed in 0..5 {
            let golden = RandomCircuitSpec::new(6, 3, 40).seed(seed).generate();
            let (faulty, sites) = inject_errors(&golden, 2, seed);
            let tests = generate_failing_tests(&golden, &faulty, 8, seed, 4096);
            if tests.is_empty() {
                continue;
            }
            let gates: Vec<GateId> = sites.iter().map(|s| s.gate).collect();
            assert!(
                sim_valid(&faulty, &tests, &gates),
                "seed {seed}: real error sites rejected by sim oracle"
            );
            assert!(
                sat_valid(&faulty, &tests, &gates),
                "seed {seed}: real error sites rejected by SAT oracle"
            );
        }
    }

    #[test]
    fn oracles_agree_on_random_candidate_sets() {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(77);
        for seed in 0..4 {
            let golden = RandomCircuitSpec::new(5, 2, 30).seed(seed).generate();
            let (faulty, _) = inject_errors(&golden, 1, seed);
            let tests = generate_failing_tests(&golden, &faulty, 6, seed, 4096);
            if tests.is_empty() {
                continue;
            }
            let functional: Vec<GateId> = faulty
                .iter()
                .filter(|(_, g)| !g.kind().is_source())
                .map(|(id, _)| id)
                .collect();
            for _ in 0..20 {
                let size = 1 + (seed as usize % 3);
                let candidates: Vec<GateId> = functional
                    .choose_multiple(&mut rng, size)
                    .copied()
                    .collect();
                let sim = sim_valid(&faulty, &tests, &candidates);
                let sat = sat_valid(&faulty, &tests, &candidates);
                assert_eq!(sim, sat, "oracles disagree on {candidates:?}");
            }
        }
    }

    #[test]
    fn validity_is_monotone() {
        let golden = c17();
        let (faulty, sites) = inject_errors(&golden, 1, 11);
        let tests = generate_failing_tests(&golden, &faulty, 8, 11, 4096);
        let base = vec![sites[0].gate];
        assert!(sim_valid(&faulty, &tests, &base));
        for (id, g) in faulty.iter() {
            if g.kind().is_source() || id == sites[0].gate {
                continue;
            }
            let superset = vec![sites[0].gate, id];
            assert!(
                sim_valid(&faulty, &tests, &superset),
                "superset {superset:?} lost validity"
            );
        }
    }

    #[test]
    fn empty_candidates_valid_iff_tests_pass() {
        let golden = c17();
        let (faulty, _) = inject_errors(&golden, 1, 3);
        let tests = generate_failing_tests(&golden, &faulty, 4, 3, 4096);
        assert!(!tests.is_empty());
        // Failing tests cannot be rectified by changing nothing.
        assert!(!sim_valid(&faulty, &tests, &[]));
        assert!(!sat_valid(&faulty, &tests, &[]));
        // An empty test set is trivially rectified.
        assert!(sim_valid(&faulty, &TestSet::default(), &[]));
        assert!(sat_valid(&faulty, &TestSet::default(), &[]));
    }

    #[test]
    fn reused_engine_matches_fresh_engines() {
        // One engine across many candidate sets — including repartitions
        // (|C| crossing the 6-candidate word boundary) — must agree with
        // a fresh engine per call.
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(123);
        let golden = RandomCircuitSpec::new(6, 3, 50).seed(2).generate();
        let (faulty, _) = inject_errors(&golden, 2, 2);
        let tests = generate_failing_tests(&golden, &faulty, 8, 2, 8192);
        if tests.is_empty() {
            return;
        }
        let functional: Vec<GateId> = faulty
            .iter()
            .filter(|(_, g)| !g.kind().is_source())
            .map(|(id, _)| id)
            .collect();
        let mut engine = SimValidityEngine::new(&faulty);
        for round in 0..30 {
            let size = [0usize, 1, 2, 3, 7][round % 5];
            let candidates: Vec<GateId> = functional
                .choose_multiple(&mut rng, size.min(functional.len()))
                .copied()
                .collect();
            assert_eq!(
                engine.is_valid(&tests, &candidates),
                sim_valid(&faulty, &tests, &candidates),
                "round {round}: reused engine drifted on {candidates:?}"
            );
        }
    }

    #[test]
    fn batch_screening_matches_per_set_verdicts() {
        use gatediag_sim::Parallelism;
        let golden = RandomCircuitSpec::new(6, 3, 40).seed(4).generate();
        let (faulty, sites) = inject_errors(&golden, 1, 4);
        let tests = generate_failing_tests(&golden, &faulty, 8, 4, 8192);
        assert!(!tests.is_empty());
        let functional: Vec<GateId> = faulty
            .iter()
            .filter(|(_, g)| !g.kind().is_source())
            .map(|(id, _)| id)
            .collect();
        let mut sets: Vec<Vec<GateId>> = functional.iter().map(|&g| vec![g]).collect();
        sets.push(sites.iter().map(|s| s.gate).collect());
        sets.push(Vec::new());
        let batches: [&[Vec<GateId>]; 2] = [&sets, &[]];
        for backend in [
            ValidityBackend::Auto,
            ValidityBackend::Sim,
            ValidityBackend::Sat,
        ] {
            for batch in batches {
                let expected: Vec<bool> = batch
                    .iter()
                    .map(|s| ValidityOracle::with_backend(&faulty, backend).is_valid(&tests, s))
                    .collect();
                for parallelism in [
                    Parallelism::Sequential,
                    Parallelism::Fixed(2),
                    Parallelism::Fixed(7),
                ] {
                    let out = screen_valid_corrections(
                        &faulty,
                        &tests,
                        batch,
                        parallelism,
                        backend,
                        &Budget::default(),
                    );
                    let case = format!("{backend:?} at {parallelism:?}, {} sets", batch.len());
                    assert_eq!(out.truncation, None, "{case}");
                    assert_eq!(out.work, batch.len() as u64, "{case}");
                    assert_eq!(out.verdicts, expected, "{case}");
                }
            }
        }
    }

    #[test]
    fn sat_batch_screening_matches_per_set_verdicts() {
        use gatediag_sim::Parallelism;
        let golden = RandomCircuitSpec::new(6, 3, 40).seed(4).generate();
        let (faulty, sites) = inject_errors(&golden, 1, 4);
        let tests = generate_failing_tests(&golden, &faulty, 6, 4, 8192);
        if tests.is_empty() {
            return;
        }
        let functional: Vec<GateId> = faulty
            .iter()
            .filter(|(_, g)| !g.kind().is_source())
            .map(|(id, _)| id)
            .take(12)
            .collect();
        let mut sets: Vec<Vec<GateId>> = functional.iter().map(|&g| vec![g]).collect();
        sets.push(sites.iter().map(|s| s.gate).collect());
        let expected: Vec<bool> = sets.iter().map(|s| sat_valid(&faulty, &tests, s)).collect();
        for parallelism in [
            Parallelism::Sequential,
            Parallelism::Fixed(2),
            Parallelism::Fixed(7),
        ] {
            let out = screen_valid_corrections(
                &faulty,
                &tests,
                &sets,
                parallelism,
                ValidityBackend::Sat,
                &Budget::default(),
            );
            assert_eq!(
                out.verdicts, expected,
                "SAT screening drifted at {parallelism:?}"
            );
        }
    }

    #[test]
    fn sat_engine_reuse_matches_fresh_oracle() {
        // One engine across all tests (assumption-based) must agree with
        // the per-test definition on every test individually.
        for seed in 0..4 {
            let golden = RandomCircuitSpec::new(6, 3, 40).seed(seed).generate();
            let (faulty, sites) = inject_errors(&golden, 1, seed);
            let tests = generate_failing_tests(&golden, &faulty, 8, seed, 8192);
            if tests.is_empty() {
                continue;
            }
            let gates: Vec<GateId> = sites.iter().map(|s| s.gate).collect();
            let mut engine = SatValidityEngine::new(&faulty, &gates);
            for (i, t) in tests.iter().enumerate() {
                let single: TestSet = std::iter::once(t.clone()).collect();
                assert_eq!(
                    engine.query(t) == ValidityVerdict::Rectifiable,
                    sim_valid(&faulty, &single, &gates),
                    "seed {seed} test {i}: SAT engine drifted from sim oracle"
                );
            }
        }
    }

    #[test]
    fn auto_dispatch_agrees_with_both_backends() {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(91);
        let golden = RandomCircuitSpec::new(6, 3, 40).seed(6).generate();
        let (faulty, _) = inject_errors(&golden, 1, 6);
        let tests = generate_failing_tests(&golden, &faulty, 6, 6, 8192);
        if tests.is_empty() {
            return;
        }
        let functional: Vec<GateId> = faulty
            .iter()
            .filter(|(_, g)| !g.kind().is_source())
            .map(|(id, _)| id)
            .collect();
        let mut auto = ValidityOracle::new(&faulty);
        let mut pinned_sat = ValidityOracle::with_backend(&faulty, ValidityBackend::Sat);
        for round in 0..12 {
            let size = [0usize, 1, 2, 3][round % 4];
            let candidates: Vec<GateId> = functional
                .choose_multiple(&mut rng, size.min(functional.len()))
                .copied()
                .collect();
            let expected = sim_valid(&faulty, &tests, &candidates);
            assert_eq!(auto.is_valid(&tests, &candidates), expected, "auto drifted");
            assert_eq!(
                pinned_sat.is_valid(&tests, &candidates),
                expected,
                "pinned SAT drifted"
            );
            assert_eq!(
                is_valid_correction(&faulty, &tests, &candidates),
                expected,
                "one-shot dispatcher drifted"
            );
        }
    }

    #[test]
    fn auto_dispatch_routes_large_sets_to_sat() {
        // > SIM_MAX_CANDIDATES would panic the sim engine; the dispatcher
        // must route to SAT instead of panicking.
        let golden = RandomCircuitSpec::new(6, 3, 60).seed(8).generate();
        let (faulty, _) = inject_errors(&golden, 1, 8);
        let tests = generate_failing_tests(&golden, &faulty, 4, 8, 8192);
        let functional: Vec<GateId> = faulty
            .iter()
            .filter(|(_, g)| !g.kind().is_source())
            .map(|(id, _)| id)
            .take(SIM_MAX_CANDIDATES + 4)
            .collect();
        assert!(functional.len() > SIM_MAX_CANDIDATES);
        assert_eq!(
            resolve_validity_backend(&faulty, &functional),
            ValidityBackend::Sat
        );
        // Freeing that many gates of a small circuit rectifies everything.
        let mut oracle = ValidityOracle::new(&faulty);
        assert_eq!(
            oracle.is_valid(&tests, &functional),
            sat_valid(&faulty, &tests, &functional)
        );
        // Small sets resolve to the sim fast path.
        assert_eq!(
            resolve_validity_backend(&faulty, &functional[..2]),
            ValidityBackend::Sim
        );
    }

    #[test]
    fn forcing_output_gate_is_always_valid() {
        let golden = c17();
        let (faulty, _) = inject_errors(&golden, 2, 6);
        let tests = generate_failing_tests(&golden, &faulty, 8, 6, 4096);
        // Freeing every erroneous output gate rectifies trivially (if the
        // outputs are functional gates, which c17's are).
        let mut outs: Vec<GateId> = tests.iter().map(|t| t.output).collect();
        outs.sort();
        outs.dedup();
        assert!(sim_valid(&faulty, &tests, &outs));
        assert!(sat_valid(&faulty, &tests, &outs));
    }
}
