//! Engine-agnostic diagnosis entry points.
//!
//! The engines of this crate
//! ([`basic_sim_diagnose`](crate::basic_sim_diagnose), [`sc_diagnose`],
//! [`basic_sat_diagnose`](crate::basic_sat_diagnose),
//! [`hybrid_seeded_bsat`]) each have their own
//! option and result types, mirroring the paper's presentation. Callers
//! that sweep *across* engines — the campaign runner, the CLI — need one
//! uniform surface instead: pick an engine by name, run it on a
//! [`DiagnosisProblem`] with shared limits, get back a normalised result.
//! [`run_engine`] is that surface, for combinational and sequential
//! problems alike.
//!
//! Every run is deterministic in its inputs: the configured
//! [`Parallelism`] only trades wall time (all underlying flows are
//! bit-identical for every worker count), so two runs of the same
//! `(engine, problem, config)` tuple produce identical
//! [`EngineRun`]s.

use crate::bsat::{BsatOptions, BsatResult};
use crate::bsim::BsimOptions;
use crate::budget::{Budget, Truncation};
use crate::chaos::{ChaosEvent, ChaosPolicy};
use crate::cov::{sc_diagnose, CovOptions};
use crate::hybrid::hybrid_seeded_bsat;
use crate::problem::DiagnosisProblem;
use crate::testgen::{generate_discriminating_tests, TestGenOutcome};
use crate::validity::{screen_valid_corrections, ValidityBackend};
use gatediag_netlist::{Circuit, GateId};
use gatediag_sat::SolverStats;
use gatediag_sim::Parallelism;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Which diagnosis engine to run.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum EngineKind {
    /// Path-tracing simulation
    /// ([`basic_sim_diagnose`](crate::basic_sim_diagnose), paper Fig. 1).
    /// Produces marked candidates, no validity guarantee; the single
    /// reported "solution" is `G_max`.
    Bsim,
    /// Set-covering enumeration ([`sc_diagnose`], paper Fig. 4):
    /// irredundant covers of the BSIM candidate sets, no validity
    /// guarantee.
    Cov,
    /// SAT-based enumeration
    /// ([`basic_sat_diagnose`](crate::basic_sat_diagnose), paper Fig. 3):
    /// exactly all irredundant *valid* corrections up to `k`.
    Bsat,
    /// The Sec. 6 hybrid: BSIM marks seed the SAT engine's decision
    /// heuristic ([`hybrid_seeded_bsat`]).
    Hybrid,
    /// COV covers screened through the auto-dispatching
    /// [`ValidityOracle`](crate::ValidityOracle)
    /// ([`screen_valid_corrections`]): like BSAT everything
    /// reported is a valid correction, but candidates come from
    /// simulation covers and each validity call picks the sim or SAT
    /// backend per [`ValidityBackend::Auto`]. By Theorem 2 the
    /// survivors are BSAT solutions.
    ///
    /// Its COV phase is exactly [`EngineKind::Cov`]'s, so runs through
    /// [`run_prepared`](crate::run_prepared) (campaign cells, serve
    /// sessions) compute it once per prepare and `k`, solution cap and
    /// deterministic limits, whichever of the two engines runs first (a
    /// campaign cell always runs its `cov` first). Chaos and wall-deadline runs always recompute it, and
    /// [`run_engine`] never shares it. Its reported stats are the
    /// screen's, so sharing moves none of them.
    Auto,
    /// [`EngineKind::Bsim`] on a sequential [`DiagnosisProblem`]: path
    /// tracing over the time-frame expansion, projected onto the original
    /// gates ([`DiagnosisProblem::trace`]).
    SeqBsim,
    /// [`EngineKind::Bsat`] on a sequential [`DiagnosisProblem`]: one
    /// select per original gate, shared by its instances in every frame.
    SeqBsat,
}

impl EngineKind {
    /// The engines of combinational problems, in a stable order.
    pub const ALL: [EngineKind; 5] = [
        EngineKind::Bsim,
        EngineKind::Cov,
        EngineKind::Bsat,
        EngineKind::Hybrid,
        EngineKind::Auto,
    ];

    /// The engines of sequential problems, in a stable order.
    pub const SEQUENTIAL: [EngineKind; 2] = [EngineKind::SeqBsim, EngineKind::SeqBsat];

    /// The canonical CLI spelling of the engine.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Bsim => "bsim",
            EngineKind::Cov => "cov",
            EngineKind::Bsat => "bsat",
            EngineKind::Hybrid => "hybrid",
            EngineKind::Auto => "auto",
            EngineKind::SeqBsim => "seq-bsim",
            EngineKind::SeqBsat => "seq-bsat",
        }
    }

    /// Parses a CLI spelling (case-insensitive).
    pub fn parse(text: &str) -> Option<EngineKind> {
        let t = text.to_ascii_lowercase();
        EngineKind::ALL
            .into_iter()
            .chain(EngineKind::SEQUENTIAL)
            .find(|e| e.name() == t)
    }

    /// `true` for the engines of sequential problems.
    pub fn is_sequential(self) -> bool {
        matches!(self, EngineKind::SeqBsim | EngineKind::SeqBsat)
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Shared limits and knobs for [`run_engine`].
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Correction size bound `k` (ignored by [`EngineKind::Bsim`]).
    pub k: usize,
    /// Enumeration cap; `complete = false` when hit.
    pub max_solutions: usize,
    /// Cooperative budget (see [`crate::budget`]): the deterministic
    /// work limit counts engine-defined units and keeps truncated runs
    /// bit-identical across worker counts; [`Budget::conflicts`] caps
    /// every SAT search the run performs, including the
    /// [`EngineKind::Auto`] validity screen's SAT backend; the wall
    /// deadline is opt-in and nondeterministic. Anchored once at
    /// [`run_engine`] entry so composite engines race one deadline.
    pub budget: Budget,
    /// Validity backend for the [`EngineKind::Auto`] screen. The default
    /// [`ValidityBackend::Auto`] dispatches per candidate set; pinning
    /// [`ValidityBackend::Sat`] forces the SAT oracle (whose conflicts
    /// then count toward the run's stats and budget).
    pub validity_backend: ValidityBackend,
    /// Worker-pool policy threaded into the engine options. Results are
    /// bit-identical for every setting.
    pub parallelism: Parallelism,
    /// Deterministic fault injection for this run (see [`crate::chaos`]).
    /// [`ChaosPolicy::off`] — the default — is a guaranteed no-op; a
    /// bound policy may panic at entry or shrink the work budget, but
    /// always as a pure function of its `(seed, key)` pair, so chaos
    /// runs stay bit-identical across worker counts too.
    pub chaos: ChaosPolicy,
    /// When `Some`, run the SAT-guided discriminating-test generation
    /// phase (see [`crate::testgen`]) over the engine's solutions after
    /// diagnosis, against this golden reference circuit. Off by default.
    pub test_gen: Option<Circuit>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            k: 1,
            max_solutions: 10_000,
            budget: Budget::default(),
            validity_backend: ValidityBackend::default(),
            parallelism: Parallelism::default(),
            chaos: ChaosPolicy::off(),
            test_gen: None,
        }
    }
}

/// Normalised result of one engine run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EngineRun {
    /// The engine that produced this run.
    pub engine: EngineKind,
    /// Union of all implicated gates, sorted by id: the BSIM mark union,
    /// or the union of all solutions for the enumerating engines.
    pub candidates: Vec<GateId>,
    /// Candidate corrections. For [`EngineKind::Bsim`] this is the single
    /// set `G_max` (the gates marked by the maximal number of tests);
    /// for the enumerating engines it is the solution list, sorted by
    /// (size, lexicographic).
    pub solutions: Vec<Vec<GateId>>,
    /// `false` when `max_solutions` or the budget truncated the run.
    pub complete: bool,
    /// Why the run stopped early, if it did: a budget reason (surfaced by
    /// the campaign layer as a *preempted* instance) or
    /// [`Truncation::Solutions`] for the enumeration cap. Always `Some`
    /// exactly when `complete` is `false`.
    pub truncation: Option<Truncation>,
    /// SAT search statistics: the diagnosis solver's counters for the SAT
    /// engines, the validity screen's accumulated SAT counters for
    /// [`EngineKind::Auto`] (all zero when only simulation ran), plus the
    /// test-generation phase's counters when it ran.
    pub stats: SolverStats,
    /// Result of the discriminating-test generation phase: `Some` exactly
    /// when [`EngineConfig::test_gen`] was set and the diagnosis itself
    /// was not budget-preempted. [`EngineRun::solutions`] stays the
    /// *pre-shrinkage* list; the outcome carries the survivors.
    pub test_gen: Option<TestGenOutcome>,
}

/// The [`EngineRun`] of a BSAT-shaped engine over `circuit`'s gates.
fn bsat_run(engine: EngineKind, circuit: &Circuit, result: BsatResult) -> EngineRun {
    EngineRun {
        engine,
        candidates: union_of(circuit, &result.solutions),
        solutions: result.solutions,
        complete: result.truncation.is_none(),
        truncation: result.truncation,
        stats: result.stats,
        test_gen: None,
    }
}

/// The [`BsatOptions`] of a BSAT-shaped engine run.
fn bsat_options(config: &EngineConfig, budget: Budget) -> BsatOptions {
    BsatOptions {
        max_solutions: config.max_solutions,
        budget,
        ..BsatOptions::default()
    }
}

/// The [`BsimOptions`] of a BSIM-shaped engine run.
fn bsim_options(config: &EngineConfig, budget: Budget) -> BsimOptions {
    BsimOptions {
        parallelism: config.parallelism,
        budget,
        ..BsimOptions::default()
    }
}

fn union_of(circuit: &Circuit, solutions: &[Vec<GateId>]) -> Vec<GateId> {
    let mut seen = vec![false; circuit.len()];
    for sol in solutions {
        for &g in sol {
            seen[g.index()] = true;
        }
    }
    seen.iter()
        .enumerate()
        .filter(|&(_, &s)| s)
        .map(|(i, _)| GateId::new(i))
        .collect()
}

/// Resolves the run budget of [`run_engine`]: the anchor is set once so
/// every phase races the same wall deadline, and chaos injection happens
/// before any engine work — an injected failure
/// can never leave a half-updated result behind, and the budget
/// mutations flow through the ordinary preemption machinery rather than
/// a parallel code path.
fn armed_budget(engine: EngineKind, config: &EngineConfig) -> Budget {
    let mut budget = config.budget.anchored(Instant::now());
    match config.chaos.decide() {
        None => {}
        Some(ChaosEvent::Panic) => {
            gatediag_obs::count("chaos.injections", 1);
            panic!("chaos: injected panic before {engine} run");
        }
        Some(ChaosEvent::InflateWork) => {
            gatediag_obs::count("chaos.injections", 1);
            // Simulate a run that costs ~4x its budget: quarter the work
            // limit (or impose a small one where there was none).
            budget.work = Some(budget.work.map_or(4, |w| (w / 4).max(1)));
        }
        Some(ChaosEvent::SpuriousPreempt) => {
            gatediag_obs::count("chaos.injections", 1);
            // A zero work budget preempts the sim-side engines at their
            // first charge and caps SAT searches at zero conflicts.
            budget.work = Some(0);
        }
    }
    budget
}

/// The outcome of a COV phase that the engines read: the covers and
/// why the enumeration stopped early, if it did.
#[derive(Debug)]
pub(crate) struct Covers {
    solutions: Vec<Vec<GateId>>,
    truncation: Option<Truncation>,
}

/// Everything a COV phase's result depends on besides the problem: `k`,
/// the solution cap and the merged deterministic limits. Parallelism is
/// absent because every worker count gives the same result.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
struct CoverKey {
    k: usize,
    max_solutions: usize,
    work: Option<u64>,
    conflicts: Option<u64>,
}

/// One COV phase result per [`Prepared`](crate::Prepared), shared by
/// its [`EngineKind::Cov`] and [`EngineKind::Auto`] runs, which compute
/// the same covers (paper Theorem 2: `auto` is COV plus a validity
/// screen). One slot: a run under another [`CoverKey`] replaces it.
///
/// The phase is a pure function of `(problem, key)`, so a reused
/// result equals a recomputed one. Runs under an active chaos policy or
/// a wall deadline neither read nor fill the memo: their budgets depend
/// on perturbation or timing, not only on the key.
#[derive(Default, Debug)]
pub(crate) struct CoverMemo(Mutex<Option<(CoverKey, Arc<Covers>)>>);

impl CoverMemo {
    fn lock(&self) -> MutexGuard<'_, Option<(CoverKey, Arc<Covers>)>> {
        // Only complete results are ever stored, so a poisoned slot is
        // still sound.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn get(&self, key: &CoverKey) -> Option<Arc<Covers>> {
        match &*self.lock() {
            Some((k, covers)) if k == key => Some(Arc::clone(covers)),
            _ => None,
        }
    }

    fn store(&self, key: CoverKey, covers: &Arc<Covers>) {
        *self.lock() = Some((key, Arc::clone(covers)));
    }
}

impl Clone for CoverMemo {
    fn clone(&self) -> Self {
        CoverMemo(Mutex::new(self.lock().clone()))
    }
}

/// The COV phase of [`EngineKind::Cov`] and [`EngineKind::Auto`]:
/// [`sc_diagnose`] under a `cover` span, or the result `memo` already
/// holds for this run's [`CoverKey`], which opens no span and charges
/// `cov.cover_reuses` once instead.
fn cover_phase(
    problem: &DiagnosisProblem,
    config: &EngineConfig,
    budget: &Budget,
    memo: Option<&CoverMemo>,
) -> Arc<Covers> {
    let key = CoverKey {
        k: config.k,
        max_solutions: config.max_solutions,
        work: budget.work,
        conflicts: budget.conflicts,
    };
    let memo = memo.filter(|_| !config.chaos.is_active() && budget.deadline_ms.is_none());
    if let Some(covers) = memo.and_then(|memo| memo.get(&key)) {
        gatediag_obs::count("cov.cover_reuses", 1);
        return covers;
    }
    let result = {
        let _phase = gatediag_obs::span("cover");
        let (circuit, tests, _) = problem.encoded();
        sc_diagnose(
            circuit,
            tests,
            config.k,
            CovOptions {
                max_solutions: config.max_solutions,
                budget: *budget,
                bsim: BsimOptions {
                    parallelism: config.parallelism,
                    ..BsimOptions::default()
                },
            },
        )
    };
    let covers = Arc::new(Covers {
        solutions: result.solutions,
        truncation: result.truncation,
    });
    if let Some(memo) = memo {
        memo.store(key, &covers);
    }
    covers
}

/// Runs one engine on `problem` under shared limits.
///
/// The engine must have a form for the problem's shape: the kinds of
/// [`EngineKind::SEQUENTIAL`] run on sequential problems, those of
/// [`EngineKind::ALL`] on combinational ones. [`EngineKind::Bsim`] and
/// [`EngineKind::SeqBsim`] trace the encoded circuit and project the marks
/// onto the reported gates ([`DiagnosisProblem::trace`]);
/// [`EngineKind::Bsat`] and [`EngineKind::SeqBsat`] give each reported
/// gate one select guarding its encoded instances. A problem without
/// failing tests has nothing to diagnose: every engine reports an empty,
/// complete run. The discriminating-test-generation phase
/// ([`EngineConfig::test_gen`]) is combinational-only and never runs on a
/// sequential problem.
///
/// # Panics
///
/// Panics if `engine` has no form for the problem's shape.
///
/// # Examples
///
/// ```
/// use gatediag_core::{
///     generate_failing_tests, run_engine, DiagnosisProblem, EngineConfig, EngineKind,
/// };
/// use gatediag_netlist::{c17, inject_errors};
///
/// let golden = c17();
/// let (faulty, sites) = inject_errors(&golden, 1, 42);
/// let tests = generate_failing_tests(&golden, &faulty, 8, 42, 4096);
/// let problem = DiagnosisProblem::combinational(faulty, tests);
/// let run = run_engine(EngineKind::Bsat, &problem, &EngineConfig::default());
/// assert!(run.solutions.contains(&vec![sites[0].gate]));
/// assert!(run.candidates.contains(&sites[0].gate));
/// ```
pub fn run_engine(
    engine: EngineKind,
    problem: &DiagnosisProblem,
    config: &EngineConfig,
) -> EngineRun {
    run_engine_sharing(engine, problem, config, None)
}

/// [`run_engine`], with the COV phase of [`EngineKind::Cov`] and
/// [`EngineKind::Auto`] read from and stored into `covers` when given
/// (see [`CoverMemo`]). The memo must belong to this problem.
pub(crate) fn run_engine_sharing(
    engine: EngineKind,
    problem: &DiagnosisProblem,
    config: &EngineConfig,
    covers: Option<&CoverMemo>,
) -> EngineRun {
    let shape = if engine.is_sequential() {
        "sequential"
    } else {
        "combinational"
    };
    assert_eq!(
        engine.is_sequential(),
        problem.is_sequential(),
        "{engine} is a {shape} engine: it has no form for this problem"
    );
    let budget = armed_budget(engine, config);
    let circuit = problem.circuit();
    if problem.is_empty() {
        return EngineRun {
            engine,
            candidates: Vec::new(),
            solutions: Vec::new(),
            complete: true,
            truncation: None,
            stats: SolverStats::default(),
            test_gen: None,
        };
    }
    let mut run = match engine {
        EngineKind::Bsim | EngineKind::SeqBsim => {
            let result = {
                let _phase = gatediag_obs::span("trace");
                problem.trace(bsim_options(config, budget))
            };
            // The mark union, and `G_max` as the single solution.
            let gmax = result.gmax();
            EngineRun {
                engine,
                candidates: result.union.iter().collect(),
                solutions: if gmax.is_empty() { vec![] } else { vec![gmax] },
                complete: result.truncation.is_none(),
                truncation: result.truncation,
                stats: SolverStats::default(),
                test_gen: None,
            }
        }
        EngineKind::Cov => {
            let covers = cover_phase(problem, config, &budget, covers);
            EngineRun {
                engine,
                candidates: union_of(circuit, &covers.solutions),
                solutions: covers.solutions.clone(),
                complete: covers.truncation.is_none(),
                truncation: covers.truncation,
                stats: SolverStats::default(),
                test_gen: None,
            }
        }
        EngineKind::Bsat | EngineKind::SeqBsat => {
            let result = {
                let _phase = gatediag_obs::span("solve");
                problem.solve(config.k, bsat_options(config, budget))
            };
            bsat_run(engine, circuit, result)
        }
        EngineKind::Hybrid => {
            let result = {
                let _phase = gatediag_obs::span("solve");
                let (_, tests, _) = problem.encoded();
                hybrid_seeded_bsat(circuit, tests, config.k, bsat_options(config, budget))
            };
            bsat_run(engine, circuit, result)
        }
        EngineKind::Auto => {
            let cov = cover_phase(problem, config, &budget, covers);
            // The screen — like every phase — gets the full work budget
            // in its own unit (sets screened; phase units are not
            // commensurable, so they are never summed across phases),
            // the run's conflict budget (so `auto` instances have the
            // same runaway guard as the SAT engines) and the shared
            // deadline; its SAT counters are the run's stats instead of
            // being silently dropped.
            let screen = {
                let _phase = gatediag_obs::span("screen");
                let (_, tests, _) = problem.encoded();
                screen_valid_corrections(
                    circuit,
                    tests,
                    &cov.solutions,
                    config.parallelism,
                    config.validity_backend,
                    &budget,
                )
            };
            let solutions: Vec<Vec<GateId>> = cov
                .solutions
                .iter()
                .zip(&screen.verdicts)
                .filter(|(_, &valid)| valid)
                .map(|(sol, _)| sol.clone())
                .collect();
            // Budget preemptions outrank the enumeration cap: a screen
            // that gave up must surface as `preempted` even when the COV
            // phase had already hit `max_solutions`.
            let truncation = Truncation::merge(cov.truncation, screen.truncation);
            EngineRun {
                engine,
                candidates: union_of(circuit, &solutions),
                solutions,
                complete: truncation.is_none(),
                truncation,
                stats: screen.stats,
                test_gen: None,
            }
        }
    };
    // The TestGen phase runs after diagnosis, over the reported
    // solutions, unless the diagnosis was already budget-preempted (its
    // partial solution list would make the shrinkage columns
    // meaningless). Like every phase it receives the full run budget in
    // its own work unit (SAT queries) and the shared conflict limit and
    // deadline; its truncation merges through the usual channel so a
    // budget-stopped phase surfaces as a preempted run.
    let test_gen = config
        .test_gen
        .as_ref()
        .filter(|_| !problem.is_sequential());
    if let Some(golden) = test_gen {
        if !run.truncation.is_some_and(|t| t.is_preemption()) {
            let outcome = {
                let _phase = gatediag_obs::span("testgen");
                generate_discriminating_tests(
                    golden,
                    circuit,
                    &run.solutions,
                    &budget,
                    config.parallelism,
                    config.validity_backend,
                )
            };
            run.stats.absorb(&outcome.stats);
            run.truncation = Truncation::merge(run.truncation, outcome.truncation);
            run.complete = run.truncation.is_none();
            run.test_gen = Some(outcome);
        }
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_set::{generate_failing_tests, TestSet};
    use crate::validity::is_valid_correction;
    use gatediag_netlist::{c17, inject_errors, RandomCircuitSpec};

    fn workload() -> (Circuit, Vec<GateId>, TestSet) {
        // Scan seeds until the injected error is observable.
        for seed in 0..32u64 {
            let golden = RandomCircuitSpec::new(6, 3, 50).seed(seed).generate();
            let (faulty, sites) = inject_errors(&golden, 1, seed);
            let tests = generate_failing_tests(&golden, &faulty, 8, seed, 1 << 14);
            if !tests.is_empty() {
                return (faulty, sites.iter().map(|s| s.gate).collect(), tests);
            }
        }
        panic!("no seed yields an observable injection");
    }

    #[test]
    fn engine_parsing_round_trips() {
        for engine in EngineKind::ALL {
            assert_eq!(EngineKind::parse(engine.name()), Some(engine));
        }
        assert_eq!(EngineKind::parse("BSAT"), Some(EngineKind::Bsat));
        assert_eq!(EngineKind::parse("nope"), None);
    }

    #[test]
    fn every_engine_implicates_the_error_site() {
        let (faulty, errors, tests) = workload();
        let problem = DiagnosisProblem::combinational(faulty, tests);
        for engine in EngineKind::ALL {
            let run = run_engine(engine, &problem, &EngineConfig::default());
            assert_eq!(run.engine, engine);
            assert!(
                run.candidates.iter().any(|g| errors.contains(g)),
                "{engine}: error site not implicated"
            );
            // Candidates are sorted and deduplicated.
            assert!(run.candidates.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn bsat_run_matches_direct_call() {
        let (faulty, _, tests) = workload();
        let problem = DiagnosisProblem::combinational(faulty.clone(), tests.clone());
        let config = EngineConfig::default();
        let run = run_engine(EngineKind::Bsat, &problem, &config);
        let direct = crate::basic_sat_diagnose(&faulty, &tests, config.k, BsatOptions::default());
        assert_eq!(run.solutions, direct.solutions);
        assert_eq!(run.complete, direct.complete);
        assert_eq!(run.stats, direct.stats);
    }

    #[test]
    fn auto_engine_reports_only_valid_corrections() {
        let (faulty, _, tests) = workload();
        let problem = DiagnosisProblem::combinational(faulty.clone(), tests.clone());
        let run = run_engine(EngineKind::Auto, &problem, &EngineConfig::default());
        for sol in &run.solutions {
            assert!(
                is_valid_correction(&faulty, &tests, sol),
                "auto engine reported an invalid correction {sol:?}"
            );
        }
        // Auto solutions are exactly the valid subset of the COV covers.
        let cov = run_engine(EngineKind::Cov, &problem, &EngineConfig::default());
        for sol in &run.solutions {
            assert!(cov.solutions.contains(sol));
        }
    }

    #[test]
    fn runs_are_worker_count_invariant() {
        let (faulty, _, tests) = workload();
        let problem = DiagnosisProblem::combinational(faulty, tests);
        for engine in EngineKind::ALL {
            let sequential = run_engine(
                engine,
                &problem,
                &EngineConfig {
                    parallelism: Parallelism::Sequential,
                    ..EngineConfig::default()
                },
            );
            for workers in [2usize, 8] {
                let parallel = run_engine(
                    engine,
                    &problem,
                    &EngineConfig {
                        parallelism: Parallelism::Fixed(workers),
                        ..EngineConfig::default()
                    },
                );
                assert_eq!(
                    sequential, parallel,
                    "{engine} drifted at {workers} workers"
                );
            }
        }
    }

    #[test]
    fn auto_engine_accumulates_sat_validity_stats() {
        // Regression: the auto engine used to return
        // `SolverStats::default()`, hiding every conflict/decision its
        // SAT-backed validity calls actually burned. With the backend
        // pinned to SAT, the screen runs a solver per cover and the run
        // must report that work.
        let (faulty, _, tests) = workload();
        let problem = DiagnosisProblem::combinational(faulty, tests);
        let config = EngineConfig {
            validity_backend: ValidityBackend::Sat,
            ..EngineConfig::default()
        };
        let run = run_engine(EngineKind::Auto, &problem, &config);
        assert!(
            !run.solutions.is_empty(),
            "workload must produce screened covers"
        );
        assert!(
            run.stats.propagations > 0 && run.stats.decisions > 0,
            "SAT validity work hidden again: {:?}",
            run.stats
        );
        // The pinned-SAT screen agrees with the auto-dispatched one.
        let auto = run_engine(EngineKind::Auto, &problem, &EngineConfig::default());
        assert_eq!(run.solutions, auto.solutions);
    }

    #[test]
    fn auto_engine_respects_the_conflict_budget() {
        // Regression: `EngineKind::Auto` dropped the conflict budget
        // entirely — campaign `auto`
        // instances had no runaway guard. Find a workload whose SAT
        // validity screen really conflicts, then pin a 1-conflict budget:
        // the screen must give up (truncation = conflicts, run
        // preempt-marked) instead of ignoring the budget.
        for seed in 0..16u64 {
            let golden = RandomCircuitSpec::new(6, 3, 60).seed(seed).generate();
            let (faulty, _) = inject_errors(&golden, 2, seed);
            let tests = generate_failing_tests(&golden, &faulty, 8, seed, 1 << 14);
            if tests.is_empty() {
                continue;
            }
            let problem = DiagnosisProblem::combinational(faulty, tests);
            let unbudgeted = run_engine(
                EngineKind::Auto,
                &problem,
                &EngineConfig {
                    k: 2,
                    validity_backend: ValidityBackend::Sat,
                    ..EngineConfig::default()
                },
            );
            if unbudgeted.stats.conflicts == 0 {
                continue; // screen too easy to exercise the budget
            }
            let budgeted = run_engine(
                EngineKind::Auto,
                &problem,
                &EngineConfig {
                    k: 2,
                    validity_backend: ValidityBackend::Sat,
                    budget: Budget {
                        conflicts: Some(1),
                        ..Budget::default()
                    },
                    ..EngineConfig::default()
                },
            );
            assert_eq!(
                budgeted.truncation,
                Some(Truncation::Conflicts),
                "seed {seed}: conflict budget ignored by the auto engine"
            );
            assert!(!budgeted.complete);
            // Deterministic: the budgeted run reproduces itself.
            let again = run_engine(
                EngineKind::Auto,
                &problem,
                &EngineConfig {
                    k: 2,
                    validity_backend: ValidityBackend::Sat,
                    budget: Budget {
                        conflicts: Some(1),
                        ..Budget::default()
                    },
                    ..EngineConfig::default()
                },
            );
            assert_eq!(budgeted, again);
            return;
        }
        panic!("no workload made the SAT validity screen conflict");
    }

    #[test]
    fn budget_preemption_outranks_the_enumeration_cap() {
        // The Auto merge must never let the cap reason (`Solutions`, an
        // `ok` outcome) mask a budget preemption from either phase — a
        // campaign would then record a tripped budget guard as `ok`.
        assert_eq!(
            Truncation::merge(Some(Truncation::Solutions), Some(Truncation::Conflicts)),
            Some(Truncation::Conflicts)
        );
        assert_eq!(
            Truncation::merge(Some(Truncation::Work), Some(Truncation::Solutions)),
            Some(Truncation::Work)
        );
        assert_eq!(
            Truncation::merge(Some(Truncation::Deadline), Some(Truncation::Work)),
            Some(Truncation::Deadline)
        );
        assert_eq!(
            Truncation::merge(Some(Truncation::Solutions), None),
            Some(Truncation::Solutions)
        );
        assert_eq!(Truncation::merge(None, None), None);
    }

    #[test]
    fn work_budget_preempts_every_engine_deterministically() {
        let (faulty, _, tests) = workload();
        let problem = DiagnosisProblem::combinational(faulty, tests);
        for engine in EngineKind::ALL {
            let config = EngineConfig {
                k: 2,
                budget: Budget {
                    // One unit: every engine's first work quantum
                    // exhausts it (one test traced / one node / one
                    // conflict-capped query).
                    work: Some(1),
                    ..Budget::default()
                },
                ..EngineConfig::default()
            };
            let run = run_engine(engine, &problem, &config);
            if let Some(reason) = run.truncation {
                assert!(!run.complete, "{engine}: truncated but complete");
                assert!(
                    reason.is_preemption() || reason == Truncation::Solutions,
                    "{engine}: unexpected reason {reason:?}"
                );
            }
            // The sim-side engines must actually preempt on one unit of
            // work (BSAT may legitimately finish within one conflict).
            if matches!(
                engine,
                EngineKind::Bsim | EngineKind::Cov | EngineKind::Auto
            ) {
                assert_eq!(
                    run.truncation,
                    Some(Truncation::Work),
                    "{engine}: work budget did not preempt"
                );
            }
            // Deterministic across worker counts.
            for workers in [2usize, 8] {
                let parallel = run_engine(
                    engine,
                    &problem,
                    &EngineConfig {
                        parallelism: Parallelism::Fixed(workers),
                        ..config.clone()
                    },
                );
                assert_eq!(
                    run, parallel,
                    "{engine}: budgeted run drifted at {workers}w"
                );
            }
        }
    }

    fn golden_workload() -> (Circuit, Circuit, TestSet) {
        for seed in 0..32u64 {
            let golden = RandomCircuitSpec::new(6, 3, 50).seed(seed).generate();
            let (faulty, _) = inject_errors(&golden, 1, seed);
            let tests = generate_failing_tests(&golden, &faulty, 8, seed, 1 << 14);
            if !tests.is_empty() {
                return (golden, faulty, tests);
            }
        }
        panic!("no seed yields an observable injection");
    }

    #[test]
    fn test_gen_phase_runs_and_is_worker_count_invariant() {
        let (golden, faulty, tests) = golden_workload();
        let problem = DiagnosisProblem::combinational(faulty, tests);
        let config = |parallelism| EngineConfig {
            test_gen: Some(golden.clone()),
            parallelism,
            ..EngineConfig::default()
        };
        let sequential = run_engine(EngineKind::Cov, &problem, &config(Parallelism::Sequential));
        let outcome = sequential.test_gen.as_ref().expect("phase must run");
        assert_eq!(outcome.solutions_before, sequential.solutions.len());
        assert!(outcome.solutions_after <= outcome.solutions_before);
        // The engine's own solution list stays pre-shrinkage.
        let plain = run_engine(EngineKind::Cov, &problem, &EngineConfig::default());
        assert_eq!(sequential.solutions, plain.solutions);
        for workers in [2usize, 8] {
            let parallel = run_engine(
                EngineKind::Cov,
                &problem,
                &config(Parallelism::Fixed(workers)),
            );
            assert_eq!(sequential, parallel, "test-gen run drifted at {workers}w");
        }
    }

    #[test]
    fn preempted_diagnosis_skips_the_test_gen_phase() {
        let (golden, faulty, tests) = golden_workload();
        let problem = DiagnosisProblem::combinational(faulty, tests);
        let run = run_engine(
            EngineKind::Cov,
            &problem,
            &EngineConfig {
                test_gen: Some(golden),
                budget: Budget {
                    work: Some(1),
                    ..Budget::default()
                },
                ..EngineConfig::default()
            },
        );
        assert_eq!(run.truncation, Some(Truncation::Work));
        assert!(run.test_gen.is_none(), "phase ran on a preempted diagnosis");
    }

    #[test]
    fn test_gen_budget_exhaustion_surfaces_as_testgen_preemption() {
        // COV at k = 1 runs no solver, so the diagnosis completes under a
        // one-conflict budget and the phase's first conflict stops it.
        let (golden, faulty, tests) = golden_workload();
        let problem = DiagnosisProblem::combinational(faulty, tests);
        let run = run_engine(
            EngineKind::Cov,
            &problem,
            &EngineConfig {
                test_gen: Some(golden),
                budget: Budget {
                    conflicts: Some(1),
                    ..Budget::default()
                },
                ..EngineConfig::default()
            },
        );
        assert!(!run.solutions.is_empty(), "workload must produce covers");
        assert_eq!(run.truncation, Some(Truncation::TestGen));
        assert!(!run.complete);
        let outcome = run.test_gen.as_ref().unwrap();
        assert_eq!(outcome.stats.conflicts, 1, "phase ran past its budget");
        assert_eq!(outcome.solutions_before, run.solutions.len());
        assert!(outcome.solutions_after <= outcome.solutions_before);
    }

    #[test]
    fn truncation_clears_complete() {
        let golden = c17();
        let (faulty, _) = inject_errors(&golden, 1, 3);
        let tests = generate_failing_tests(&golden, &faulty, 8, 3, 4096);
        let problem = DiagnosisProblem::combinational(faulty, tests);
        let run = run_engine(
            EngineKind::Bsat,
            &problem,
            &EngineConfig {
                k: 2,
                max_solutions: 1,
                ..EngineConfig::default()
            },
        );
        assert_eq!(run.solutions.len(), 1);
        assert!(!run.complete);
        // The enumeration cap is reported as `Solutions`, not as a
        // budget preemption.
        assert_eq!(run.truncation, Some(Truncation::Solutions));
        assert!(!run.truncation.unwrap().is_preemption());
    }

    use crate::sequential::{generate_failing_sequences, SequenceTestSet};

    /// A latch circuit with an observable error: the sequential problem
    /// of at least two failing sequences, and the error sites.
    fn sequential_workload() -> (DiagnosisProblem, Vec<GateId>) {
        for seed in 0..32u64 {
            let golden = RandomCircuitSpec::new(5, 3, 30)
                .latches(3)
                .seed(seed)
                .generate();
            let (faulty, sites) = inject_errors(&golden, 1, seed);
            let tests = generate_failing_sequences(&golden, &faulty, 3, 6, seed, 1 << 12);
            if tests.len() >= 2 {
                let errors = sites.iter().map(|s| s.gate).collect();
                return (DiagnosisProblem::sequential(faulty, tests), errors);
            }
        }
        panic!("no seed yields an observable sequential injection");
    }

    #[test]
    fn sequential_engine_parsing_round_trips() {
        for engine in EngineKind::SEQUENTIAL {
            assert_eq!(EngineKind::parse(engine.name()), Some(engine));
            assert!(engine.is_sequential());
        }
        for engine in EngineKind::ALL {
            assert!(!engine.is_sequential());
        }
        assert_eq!(EngineKind::parse("SEQ-BSAT"), Some(EngineKind::SeqBsat));
        assert_eq!(EngineKind::parse("seq-bsim"), Some(EngineKind::SeqBsim));
    }

    #[test]
    fn sequential_engines_implicate_the_error_site() {
        let (problem, errors) = sequential_workload();
        for engine in EngineKind::SEQUENTIAL {
            let run = run_engine(engine, &problem, &EngineConfig::default());
            assert_eq!(run.engine, engine);
            assert!(
                run.candidates.iter().any(|g| errors.contains(g)),
                "{engine}: error site not implicated"
            );
            assert!(run.candidates.windows(2).all(|w| w[0] < w[1]));
            assert!(run.test_gen.is_none());
        }
        // SeqBsat specifically enumerates the exact single-gate fix.
        let run = run_engine(EngineKind::SeqBsat, &problem, &EngineConfig::default());
        assert!(run.complete);
        assert!(run.solutions.contains(&vec![errors[0]]));
    }

    #[test]
    fn sequential_runs_are_worker_count_invariant() {
        let (problem, _) = sequential_workload();
        for engine in EngineKind::SEQUENTIAL {
            let sequential = run_engine(
                engine,
                &problem,
                &EngineConfig {
                    parallelism: Parallelism::Fixed(1),
                    ..EngineConfig::default()
                },
            );
            for workers in [2usize, 8] {
                let parallel = run_engine(
                    engine,
                    &problem,
                    &EngineConfig {
                        parallelism: Parallelism::Fixed(workers),
                        ..EngineConfig::default()
                    },
                );
                assert_eq!(
                    sequential, parallel,
                    "{engine} drifted at {workers} workers"
                );
            }
        }
    }

    /// engine-enum's sequential workload at p = 2, seed 2, 3 frames.
    fn rnd160_workload() -> DiagnosisProblem {
        use crate::session::{prepare, DiagnoseRequest, PreparedTests};
        let golden = RandomCircuitSpec::new(10, 5, 160)
            .latches(4)
            .seed(9)
            .name("rnd160")
            .generate();
        let request = DiagnoseRequest {
            engine: EngineKind::SeqBsat,
            p: 2,
            seed: 2,
            frames: Some(3),
            ..DiagnoseRequest::default()
        }
        .validated()
        .expect("valid request");
        let prepared = prepare(&golden, &request);
        let PreparedTests::Sequential(tests) = &prepared.tests else {
            panic!("sequential request prepares sequences");
        };
        let faulty = prepared.faulty.clone().expect("injectable");
        DiagnosisProblem::sequential(faulty, tests.clone())
    }

    #[test]
    fn sequential_work_budget_preempts_deterministically() {
        // Each sequential engine keeps its combinational twin's work unit.
        // seq-bsim's is one test traced, so one unit preempts a run over
        // several tests. seq-bsat's is one conflict, so its instance must
        // need conflicts: rnd160 at k = 2 needs 287.
        let (problem, _) = sequential_workload();
        let rnd160 = rnd160_workload();
        for (engine, problem, k) in [
            (EngineKind::SeqBsim, &problem, 1),
            (EngineKind::SeqBsat, &rnd160, 2),
        ] {
            let unbudgeted = EngineConfig {
                k,
                ..EngineConfig::default()
            };
            let full = run_engine(engine, problem, &unbudgeted);
            assert!(full.complete, "{engine}: unbudgeted run truncated");
            if engine == EngineKind::SeqBsat {
                assert!(
                    full.stats.conflicts > 1,
                    "{engine}: instance needs no search"
                );
            }
            let config = EngineConfig {
                budget: Budget {
                    work: Some(1),
                    ..Budget::default()
                },
                ..unbudgeted
            };
            let run = run_engine(engine, problem, &config);
            assert_eq!(
                run.truncation,
                Some(Truncation::Work),
                "{engine}: one unit of work did not preempt"
            );
            assert!(!run.complete);
            let again = run_engine(engine, problem, &config);
            assert_eq!(run, again, "{engine}: preempted run not reproducible");
            let parallel = run_engine(
                engine,
                problem,
                &EngineConfig {
                    parallelism: Parallelism::Fixed(2),
                    ..config.clone()
                },
            );
            assert_eq!(
                run, parallel,
                "{engine}: preempted run drifted at 2 workers"
            );
        }
    }

    #[test]
    fn sequential_chaos_preempt_flows_through_the_budget() {
        use crate::chaos::{ChaosConfig, ChaosPolicy};
        let (problem, _) = sequential_workload();
        // Find a chaos seed that injects SpuriousPreempt for this key.
        for seed in 0..64u64 {
            let config = ChaosConfig {
                seed,
                rate_ppm: 1_000_000,
            };
            let policy = ChaosPolicy::new(config, ChaosPolicy::key(&["seq-instance"]));
            if policy.decide() != Some(ChaosEvent::SpuriousPreempt) {
                continue;
            }
            let run = run_engine(
                EngineKind::SeqBsim,
                &problem,
                &EngineConfig {
                    chaos: policy,
                    ..EngineConfig::default()
                },
            );
            assert_eq!(run.truncation, Some(Truncation::Work));
            return;
        }
        panic!("no chaos seed produced SpuriousPreempt");
    }

    #[test]
    fn sequential_empty_test_set_is_complete() {
        let (problem, _) = sequential_workload();
        let empty =
            DiagnosisProblem::sequential(problem.circuit().clone(), SequenceTestSet::default());
        for engine in EngineKind::SEQUENTIAL {
            let run = run_engine(engine, &empty, &EngineConfig::default());
            assert!(run.complete);
            assert!(run.solutions.is_empty());
            assert!(run.candidates.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "sequential engine")]
    fn run_engine_rejects_sequential_kinds() {
        let (faulty, _, tests) = workload();
        let problem = DiagnosisProblem::combinational(faulty, tests);
        let _ = run_engine(EngineKind::SeqBsim, &problem, &EngineConfig::default());
    }

    #[test]
    #[should_panic(expected = "combinational engine")]
    fn run_engine_rejects_combinational_kinds_on_sequential_problems() {
        let (problem, _) = sequential_workload();
        let _ = run_engine(EngineKind::Bsat, &problem, &EngineConfig::default());
    }
}
