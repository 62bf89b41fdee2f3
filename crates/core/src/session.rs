//! One diagnosis front door for every caller, plus the warm per-circuit
//! session the service layer caches.
//!
//! Before this module, the one-shot CLI, the campaign runner and (now)
//! the daemon each assembled their own [`EngineConfig`] and their own
//! inject → generate-tests → run-engine sequence, and the three paths
//! drifted (different `max_test_vectors`, different frame defaults,
//! different validation). The shared pieces live here:
//!
//! * [`DiagnoseRequest`] — the full identity of one diagnosis run, with
//!   [`DiagnoseRequest::validated`] as the single validation/
//!   normalisation gate (frames/seq-len clamps, engine/axis
//!   normalisation, test-gen policy checks) and
//!   [`DiagnoseRequest::engine_config`] as the single `EngineConfig`
//!   builder;
//! * [`prepare`] and [`run_prepared`] — the two halves of the pipeline.
//!   [`prepare`] is the pure front half (inject, then collect failing
//!   tests, under the `inject`/`tests` obs spans) and returns a
//!   [`Prepared`] keyed by the request's [`PrepareKey`];
//!   [`run_prepared`] runs the engine on it under the `engine` span.
//!   [`run_diagnose`] is their composition. Callers that diagnose one
//!   injection with several engines (a campaign cell, a daemon session)
//!   prepare once and run many, and their `cov` and `auto` runs share
//!   one COV phase;
//! * [`CircuitSession`] — a circuit plus bounded memos of completed
//!   runs (keyed by the request) and of prepares (keyed by
//!   [`PrepareKey`]). Engine runs are pure functions of
//!   `(circuit, request)` (pinned by the campaign drift tests), so a
//!   repeated request is answered from the memo without touching the
//!   netlist, the simulator or the CNF encoder — the "warm hit" the
//!   serve layer's registry is built on. Warm hits are observable:
//!   they charge `session.warm_hits` and *nothing else* (zero
//!   `cnf.gates_encoded`, zero `netlist.builds`). A request sharing
//!   only the prepare key runs its engine on the memoised [`Prepared`]
//!   and charges `session.prepare_hits` instead of `inject`/`tests`.
//!
//! Requests with a wall-clock deadline or an active chaos policy never
//! enter the outcome memo: their outcomes depend on timing or
//! deliberate perturbation, not just the request. Both act only at
//! engine entry, so such requests still share prepares.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, PoisonError};

use gatediag_netlist::{try_inject_faults, write_bench, Circuit, Fault, FaultModel};
use gatediag_sim::Parallelism;

use crate::budget::Budget;
use crate::chaos::ChaosPolicy;
use crate::engine::{run_engine_sharing, CoverMemo, EngineConfig, EngineKind, EngineRun};
use crate::problem::DiagnosisProblem;
use crate::sequential::{generate_failing_sequences, SequenceTestSet};
use crate::test_set::{generate_failing_tests, TestSet};

/// Hard cap on a campaign/CLI time-frame count: unrolling is linear in
/// frames per instance, so an absurd `--frames` is clamped here rather
/// than allowed to allocate without bound (the same hardening posture as
/// the `GATEDIAG_WORKERS` / `MAX_ENV_WORKERS` clamp in `gatediag-sim`).
pub const MAX_FRAMES: usize = 256;

/// Hard cap on the failing-sequence count per sequential instance.
pub const MAX_SEQ_LEN: usize = 1024;

/// Validates one `--frames` value: zero frames is meaningless (there is
/// no frame to diagnose in) and rejected; values above [`MAX_FRAMES`]
/// clamp down to it.
///
/// # Errors
///
/// Returns a CLI-ready message when `frames == 0`.
pub fn validate_frames(frames: usize) -> Result<usize, String> {
    if frames == 0 {
        return Err("--frames must be at least 1".to_string());
    }
    Ok(frames.min(MAX_FRAMES))
}

/// Validates one `--seq-len` value: zero sequences would make every
/// sequential instance an empty no-op and is rejected; values above
/// [`MAX_SEQ_LEN`] clamp down to it.
///
/// # Errors
///
/// Returns a CLI-ready message when `seq_len == 0`.
pub fn validate_seq_len(seq_len: usize) -> Result<usize, String> {
    if seq_len == 0 {
        return Err("--seq-len must be at least 1".to_string());
    }
    Ok(seq_len.min(MAX_SEQ_LEN))
}

/// The full identity of one diagnosis run against one golden circuit:
/// what to inject, which failing tests to collect, which engine to run
/// and under which limits. Two equal requests against the same circuit
/// produce identical outcomes (engine runs are pure), which is exactly
/// what makes the request usable as a cache key.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct DiagnoseRequest {
    /// The engine to run.
    pub engine: EngineKind,
    /// The fault model to inject.
    pub fault_model: FaultModel,
    /// Number of injected errors.
    pub p: usize,
    /// Seed for injection and test generation.
    pub seed: u64,
    /// Failing tests (combinational) or failing sequences (sequential)
    /// to collect.
    pub tests: usize,
    /// Cap on the random vectors tried while collecting failing tests.
    pub max_test_vectors: usize,
    /// Correction cardinality; `None` means "k = p".
    pub k: Option<usize>,
    /// Unrolling depth; `Some` selects the sequential pipeline.
    pub frames: Option<usize>,
    /// Stimulus length per failing sequence (sequential only).
    pub seq_len: Option<usize>,
    /// Cap on enumerated solutions.
    pub max_solutions: usize,
    /// SAT conflict budget, `None` = unlimited.
    pub conflict_budget: Option<u64>,
    /// Deterministic work budget, `None` = unlimited.
    pub work_budget: Option<u64>,
    /// Wall-clock deadline; `Some` makes the run nondeterministic and
    /// therefore uncacheable.
    pub deadline_ms: Option<u64>,
    /// Run the discriminating-test generation phase after diagnosis.
    pub test_gen: bool,
}

impl Default for DiagnoseRequest {
    /// The campaign defaults: 8 tests, `1 << 15` vector cap, 10 000
    /// solutions, 5 M conflicts — one error at seed 1 through the auto
    /// engine.
    fn default() -> Self {
        DiagnoseRequest {
            engine: EngineKind::Auto,
            fault_model: FaultModel::GateChange,
            p: 1,
            seed: 1,
            tests: 8,
            max_test_vectors: 1 << 15,
            k: None,
            frames: None,
            seq_len: None,
            max_solutions: 10_000,
            conflict_budget: Some(5_000_000),
            work_budget: None,
            deadline_ms: None,
            test_gen: false,
        }
    }
}

impl DiagnoseRequest {
    /// Validates and normalises the request — the single gate all three
    /// front doors (CLI, campaign, daemon) pass through, so they cannot
    /// drift on clamping or policy rules:
    ///
    /// * `p`, `tests`, `k`, `max_solutions` must be positive where
    ///   present;
    /// * a sequential axis (`frames`/`seq_len`) maps combinational
    ///   engines onto their sequential variants (`bsim` → `seq-bsim`,
    ///   `bsat` → `seq-bsat`) and rejects engines without one;
    /// * a sequential engine without explicit axes gets the campaign
    ///   defaults (3 frames, length-4 sequences); axes are clamped via
    ///   [`validate_frames`] / [`validate_seq_len`];
    /// * discriminating-test generation is combinational-only and
    ///   rejected on sequential requests.
    ///
    /// # Errors
    ///
    /// Returns a CLI-ready message describing the first violated rule.
    pub fn validated(&self) -> Result<DiagnoseRequest, String> {
        let mut req = self.clone();
        if req.p == 0 {
            return Err("error count p must be at least 1".to_string());
        }
        if req.tests == 0 {
            return Err("--tests must be at least 1".to_string());
        }
        if req.max_test_vectors == 0 {
            return Err("--max-test-vectors must be at least 1".to_string());
        }
        if req.k == Some(0) {
            return Err("--k must be at least 1".to_string());
        }
        if req.max_solutions == 0 {
            return Err("--max-solutions must be at least 1".to_string());
        }
        let sequential_axes = req.frames.is_some() || req.seq_len.is_some();
        if req.engine.is_sequential() || sequential_axes {
            req.engine = match req.engine {
                EngineKind::Bsim => EngineKind::SeqBsim,
                EngineKind::Bsat => EngineKind::SeqBsat,
                seq if seq.is_sequential() => seq,
                other => {
                    return Err(format!(
                        "engine `{}` has no sequential variant; use bsim or bsat with --frames",
                        other.name()
                    ))
                }
            };
            req.frames = Some(validate_frames(req.frames.unwrap_or(3))?);
            req.seq_len = Some(validate_seq_len(req.seq_len.unwrap_or(4))?);
            if req.test_gen {
                return Err(
                    "discriminating-test generation is combinational-only (drop --test-gen or --frames)"
                        .to_string(),
                );
            }
        }
        Ok(req)
    }

    /// Builds the one [`EngineConfig`] every front door uses: `k`
    /// defaults to `p`, the budget carries the work, deadline and conflict
    /// limits, and
    /// the test-generation phase gets the golden reference exactly when
    /// it is enabled.
    pub fn engine_config(
        &self,
        parallelism: Parallelism,
        chaos: ChaosPolicy,
        golden: &Circuit,
    ) -> EngineConfig {
        EngineConfig {
            k: self.k.unwrap_or(self.p),
            max_solutions: self.max_solutions,
            budget: Budget {
                work: self.work_budget,
                deadline_ms: self.deadline_ms,
                conflicts: self.conflict_budget,
                ..Budget::default()
            },
            parallelism,
            chaos,
            test_gen: self.test_gen.then(|| golden.clone()),
            ..EngineConfig::default()
        }
    }
}

/// How a diagnosis run ended, before any caller-specific mapping. The
/// tokens mirror the campaign's `InstanceStatus` (and the serve
/// protocol's response statuses).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum DiagnoseStatus {
    /// The engine ran to its configured limits.
    Ok,
    /// The fault model could not inject `p` errors into this circuit.
    NotInjectable,
    /// Injection succeeded but no failing test was found.
    NoFailingTests,
    /// A work/deadline/conflict budget preempted the run.
    Preempted,
}

impl DiagnoseStatus {
    /// Stable token, identical to the campaign report spelling.
    pub fn name(self) -> &'static str {
        match self {
            DiagnoseStatus::Ok => "ok",
            DiagnoseStatus::NotInjectable => "not-injectable",
            DiagnoseStatus::NoFailingTests => "no-failing-tests",
            DiagnoseStatus::Preempted => "preempted",
        }
    }
}

/// The prepare identity of a request: the fields that decide what
/// [`prepare`] injects and which failing tests it collects. Requests
/// that differ only in engine, `k`, budgets or `max_solutions` share
/// one key and therefore one [`Prepared`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct PrepareKey {
    /// The fault model to inject.
    pub fault_model: FaultModel,
    /// Number of injected errors.
    pub p: usize,
    /// Seed for injection and test generation.
    pub seed: u64,
    /// Failing tests to collect (combinational).
    pub tests: usize,
    /// Cap on the random vectors tried.
    pub max_test_vectors: usize,
    /// Unrolling depth (sequential).
    pub frames: Option<usize>,
    /// Failing sequences to collect (sequential).
    pub seq_len: Option<usize>,
}

impl DiagnoseRequest {
    /// The key of the [`Prepared`] this request needs.
    pub fn prepare_key(&self) -> PrepareKey {
        PrepareKey {
            fault_model: self.fault_model,
            p: self.p,
            seed: self.seed,
            tests: self.tests,
            max_test_vectors: self.max_test_vectors,
            frames: self.frames,
            seq_len: self.seq_len,
        }
    }

    /// `Some((frames, seq_len))` exactly for the sequential pipeline.
    fn sequential_axes(&self) -> Option<(usize, usize)> {
        self.frames.zip(self.seq_len)
    }
}

/// An injected faulty circuit and its fault sites: the part of a
/// [`Prepared`] that depends only on (circuit, fault model, p, seed),
/// so combinational and sequential prepares of one injection can share
/// it.
#[derive(Clone, Debug)]
pub struct Injection {
    /// The faulty circuit.
    pub faulty: Arc<Circuit>,
    /// The injected faults.
    pub faults: Vec<Fault>,
}

/// Injects the request's faults into `golden` under an `inject` obs
/// span; `None` when the fault model cannot place `p` errors.
pub fn inject(golden: &Circuit, request: &DiagnoseRequest) -> Option<Injection> {
    let _inject = gatediag_obs::span("inject");
    try_inject_faults(golden, request.fault_model, request.p, request.seed).map(
        |(faulty, faults)| Injection {
            faulty: Arc::new(faulty),
            faults,
        },
    )
}

/// The failing tests a [`Prepared`] collected, in the form its engine
/// family consumes.
#[derive(Clone, Debug)]
pub enum PreparedTests {
    /// Failing tests for the combinational engines.
    Combinational(TestSet),
    /// Failing sequences for the sequential engines.
    Sequential(SequenceTestSet),
}

impl PreparedTests {
    /// Number of tests (or sequences).
    pub fn len(&self) -> usize {
        match self {
            PreparedTests::Combinational(tests) => tests.len(),
            PreparedTests::Sequential(tests) => tests.len(),
        }
    }

    /// `true` when no failing test was found.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The pure front half of a diagnosis: the injected faults, the faulty
/// circuit and the failing tests. A function of (golden, request
/// [`PrepareKey`]) only, so every engine run on the same key can share
/// one — the paper's setting, where BSIM, COV and BSAT diagnose one
/// test-set per injected error. Its engine runs all take the one
/// [`DiagnosisProblem`] it builds from the faulty circuit and the tests,
/// and it keeps the COV phase its `cov` and `auto` runs share (see
/// [`run_prepared`]).
#[derive(Clone, Debug)]
pub struct Prepared {
    /// The faulty circuit; `None` when injection failed.
    pub faulty: Option<Arc<Circuit>>,
    /// The injected faults; empty when injection failed.
    pub faults: Vec<Fault>,
    /// The failing tests; empty when injection failed or no vector
    /// within `max_test_vectors` exposed the faults.
    pub tests: PreparedTests,
    /// The problem every engine run on this prepare diagnoses; `None`
    /// when injection failed.
    problem: Option<DiagnosisProblem>,
    /// The COV phase [`run_prepared`]'s `cov` and `auto` runs share.
    covers: CoverMemo,
}

/// Builds the [`Prepared`] for `request`: [`inject`], then
/// [`prepare_injected`].
pub fn prepare(golden: &Circuit, request: &DiagnoseRequest) -> Prepared {
    prepare_injected(golden, inject(golden, request).as_ref(), request)
}

/// Collects the request's failing tests for an existing injection under
/// a `tests` obs span. `injection` must come from [`inject`] with the
/// same fault model, p and seed; `None` (not injectable) collects
/// nothing.
pub fn prepare_injected(
    golden: &Circuit,
    injection: Option<&Injection>,
    request: &DiagnoseRequest,
) -> Prepared {
    let empty = match request.sequential_axes() {
        Some(_) => PreparedTests::Sequential(SequenceTestSet::default()),
        None => PreparedTests::Combinational(TestSet::default()),
    };
    let Some(injection) = injection else {
        return Prepared {
            faulty: None,
            faults: Vec::new(),
            tests: empty,
            problem: None,
            covers: CoverMemo::default(),
        };
    };
    let faulty = &injection.faulty;
    let tests = {
        let _tests = gatediag_obs::span("tests");
        match request.sequential_axes() {
            Some((frames, seq_len)) => PreparedTests::Sequential(generate_failing_sequences(
                golden,
                faulty,
                frames,
                seq_len,
                request.seed,
                request.max_test_vectors,
            )),
            None => PreparedTests::Combinational(generate_failing_tests(
                golden,
                faulty,
                request.tests,
                request.seed,
                request.max_test_vectors,
            )),
        }
    };
    let problem = match &tests {
        PreparedTests::Combinational(tests) => {
            DiagnosisProblem::combinational(Arc::clone(faulty), tests.clone())
        }
        PreparedTests::Sequential(tests) => {
            DiagnosisProblem::sequential(Arc::clone(faulty), tests.clone())
        }
    };
    Prepared {
        faulty: Some(Arc::clone(faulty)),
        faults: injection.faults.clone(),
        tests,
        problem: Some(problem),
        covers: CoverMemo::default(),
    }
}

/// Everything [`run_diagnose`] produced: the injected faults, the
/// faulty circuit (for scoring and rendering), the collected test count
/// and — when the pipeline reached the engine — the [`EngineRun`].
#[derive(Clone, Debug)]
pub struct DiagnoseOutcome {
    /// The injected faults; empty when injection failed.
    pub faults: Vec<Fault>,
    /// The faulty circuit, shared with the [`Prepared`] it came from;
    /// `None` when injection failed.
    pub faulty: Option<Arc<Circuit>>,
    /// Failing tests (or sequences) collected.
    pub tests: usize,
    /// How the run ended.
    pub status: DiagnoseStatus,
    /// The engine result; `None` when the pipeline stopped early.
    pub run: Option<EngineRun>,
}

/// Runs the back half of a diagnosis — the engine under an `engine` obs
/// span — on a [`Prepared`] built for `request`'s [`PrepareKey`].
/// `golden` is the reference the discriminating-test phase compares
/// against. Chaos fires and wall deadlines anchor at engine entry, so
/// sharing one `Prepared` across runs never changes an outcome.
///
/// The `cov` and `auto` runs on one `Prepared` compute their COV phase
/// once: the first stores it in the `Prepared`, a later run with the
/// same `k`, solution cap and deterministic limits reuses it (no `cover`
/// span; one `cov.cover_reuses` charge). Runs under an active chaos
/// policy or a wall deadline neither read nor store it. Likewise the
/// sequential runs on one `Prepared` share its problem's time-frame
/// expansion, whatever their config: the first run's `trace` or `solve`
/// span charges the unrolled circuit's build, later runs charge none.
pub fn run_prepared(
    golden: &Circuit,
    prepared: &Prepared,
    request: &DiagnoseRequest,
    parallelism: Parallelism,
    chaos: ChaosPolicy,
) -> DiagnoseOutcome {
    let mut outcome = DiagnoseOutcome {
        faults: prepared.faults.clone(),
        faulty: prepared.faulty.clone(),
        tests: prepared.tests.len(),
        status: DiagnoseStatus::NotInjectable,
        run: None,
    };
    let Some(problem) = &prepared.problem else {
        return outcome;
    };
    if problem.is_empty() {
        outcome.status = DiagnoseStatus::NoFailingTests;
        return outcome;
    }
    let config = request.engine_config(parallelism, chaos, golden);
    let run = {
        let _engine = gatediag_obs::span("engine");
        run_engine_sharing(request.engine, problem, &config, Some(&prepared.covers))
    };
    outcome.status = if run.truncation.is_some_and(|t| t.is_preemption()) {
        DiagnoseStatus::Preempted
    } else {
        DiagnoseStatus::Ok
    };
    outcome.run = Some(run);
    outcome
}

/// Runs the full diagnosis pipeline — inject, collect failing tests,
/// run the engine — for one request against one golden circuit: the
/// composition of [`prepare`] and [`run_prepared`]. Pure in
/// `(golden, request)` for an inactive chaos policy and an unlimited
/// deadline; charges the `inject`, `tests` and `engine` obs spans.
///
/// The request is used as given: call [`DiagnoseRequest::validated`]
/// first (the session does this for you).
pub fn run_diagnose(
    golden: &Circuit,
    request: &DiagnoseRequest,
    parallelism: Parallelism,
    chaos: ChaosPolicy,
) -> DiagnoseOutcome {
    let prepared = prepare(golden, request);
    run_prepared(golden, &prepared, request, parallelism, chaos)
}

/// Content hash of a circuit: FNV-1a 64 over its canonical `.bench`
/// text ([`write_bench`]). Two circuits with the same functional
/// netlist and names hash equally however they were constructed
/// (programmatic builder, `.bench` parse, generator), which is what
/// lets the serve registry recognise "the same circuit" across clients.
pub fn circuit_content_hash(circuit: &Circuit) -> u64 {
    let text = write_bench(circuit);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in text.lines() {
        // `write_bench` leads with a `# <name>` comment; the hash keys
        // the functional netlist only, so the same circuit registered
        // under two display names is still one registry entry.
        if line.starts_with('#') {
            continue;
        }
        for &b in line.as_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        h = (h ^ u64::from(b'\n')).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Cap on the outcomes one [`CircuitSession`] memoises; past it the
/// oldest insert is evicted first.
pub const MAX_CACHED_OUTCOMES: usize = 4096;

/// Cap on the [`Prepared`]s one [`CircuitSession`] memoises; past it the
/// oldest insert is evicted first.
pub const MAX_CACHED_PREPARES: usize = 1024;

/// A map holding at most `cap` entries that evicts in insertion order.
struct BoundedMemo<K, V> {
    map: HashMap<K, V>,
    order: VecDeque<K>,
    cap: usize,
}

impl<K: Clone + Eq + std::hash::Hash, V: Clone> BoundedMemo<K, V> {
    fn new(cap: usize) -> Self {
        BoundedMemo {
            map: HashMap::new(),
            order: VecDeque::new(),
            cap,
        }
    }

    fn get(&self, key: &K) -> Option<V> {
        self.map.get(key).cloned()
    }

    /// Inserts unless the key is present (first insert wins — concurrent
    /// cold runs of one key are pure and equal), evicting the oldest
    /// entry when full. Returns the value now stored.
    fn insert(&mut self, key: K, value: V) -> V {
        if let Some(existing) = self.map.get(&key) {
            return existing.clone();
        }
        if self.map.len() >= self.cap {
            if let Some(oldest) = self.order.pop_front() {
                self.map.remove(&oldest);
            }
        }
        self.order.push_back(key.clone());
        self.map.insert(key, value.clone());
        value
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// Per-session memo state, behind one mutex.
struct SessionState {
    outcomes: BoundedMemo<DiagnoseRequest, Arc<DiagnoseOutcome>>,
    prepares: BoundedMemo<PrepareKey, Arc<Prepared>>,
    warm_hits: u64,
    cold_runs: u64,
    prepare_hits: u64,
}

/// A golden circuit kept warm across requests: the circuit itself plus
/// two bounded memos keyed by the validated request — completed
/// [`DiagnoseOutcome`]s, and the [`Prepared`] front halves they were run
/// on. This is the unit the serve registry caches — constructing a
/// session costs one content hash; answering a repeated request costs a
/// map lookup and charges only the `session.warm_hits` obs counter; a
/// request that shares only its [`PrepareKey`] with an earlier one (a
/// different engine, `k`, budget or `max_solutions`) skips inject and
/// failing-test generation and charges `session.prepare_hits`.
///
/// The session is `Sync`: the memo lock is held only for lookups and
/// inserts, never across a prepare or an engine run, so concurrent
/// requests against one circuit proceed in parallel (two concurrent
/// *identical* cold requests may both run; the runs are pure, so
/// first-insert wins and both callers see equal outcomes).
#[derive(Debug)]
pub struct CircuitSession {
    name: String,
    golden: Circuit,
    hash: u64,
    state: Mutex<SessionState>,
}

impl std::fmt::Debug for SessionState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionState")
            .field("outcomes", &self.outcomes.len())
            .field("prepares", &self.prepares.len())
            .field("warm_hits", &self.warm_hits)
            .field("cold_runs", &self.cold_runs)
            .field("prepare_hits", &self.prepare_hits)
            .finish()
    }
}

impl CircuitSession {
    /// Wraps a golden circuit into a warm session, hashing its content
    /// eagerly so registry keying never re-renders the netlist.
    pub fn new(name: impl Into<String>, golden: Circuit) -> CircuitSession {
        let hash = circuit_content_hash(&golden);
        CircuitSession {
            name: name.into(),
            golden,
            hash,
            state: Mutex::new(SessionState {
                outcomes: BoundedMemo::new(MAX_CACHED_OUTCOMES),
                prepares: BoundedMemo::new(MAX_CACHED_PREPARES),
                warm_hits: 0,
                cold_runs: 0,
                prepare_hits: 0,
            }),
        }
    }

    /// The display name the session was registered under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The golden circuit.
    pub fn golden(&self) -> &Circuit {
        &self.golden
    }

    /// The canonical content hash (see [`circuit_content_hash`]).
    pub fn content_hash(&self) -> u64 {
        self.hash
    }

    /// Requests answered from the outcome memo so far.
    pub fn warm_hits(&self) -> u64 {
        self.lock().warm_hits
    }

    /// Requests that ran an engine so far.
    pub fn cold_runs(&self) -> u64 {
        self.lock().cold_runs
    }

    /// Cold runs that reused a memoised [`Prepared`] so far.
    pub fn prepare_hits(&self) -> u64 {
        self.lock().prepare_hits
    }

    /// Distinct outcomes currently memoised.
    pub fn cached_outcomes(&self) -> usize {
        self.lock().outcomes.len()
    }

    /// Distinct prepares currently memoised.
    pub fn cached_prepares(&self) -> usize {
        self.lock().prepares.len()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SessionState> {
        // A panicking run never holds this lock (runs happen outside
        // it), but a poisoned memo would still only contain completed
        // values — recover rather than wedge the session.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Answers a request, from the memo when possible. Returns the
    /// outcome and whether it was a warm hit (an outcome-memo hit; a
    /// prepare-memo hit still runs the engine and is not warm).
    ///
    /// Runs with a wall-clock deadline or an active chaos policy bypass
    /// the outcome memo in both directions: their outcomes are functions
    /// of timing/perturbation, not just the request, and caching them
    /// would leak one caller's scheduling luck into another's answer.
    /// They still share the prepare memo, because [`prepare`] is pure
    /// for every request.
    ///
    /// # Errors
    ///
    /// Returns the [`DiagnoseRequest::validated`] message for an
    /// invalid request; nothing is run or cached in that case.
    pub fn diagnose(
        &self,
        request: &DiagnoseRequest,
        parallelism: Parallelism,
        chaos: ChaosPolicy,
    ) -> Result<(Arc<DiagnoseOutcome>, bool), String> {
        let request = request.validated()?;
        let cacheable = request.deadline_ms.is_none() && !chaos.is_active();
        if cacheable {
            let mut state = self.lock();
            if let Some(hit) = state.outcomes.get(&request) {
                state.warm_hits += 1;
                drop(state);
                gatediag_obs::count("session.warm_hits", 1);
                return Ok((hit, true));
            }
        }
        let key = request.prepare_key();
        let memoised = {
            let mut state = self.lock();
            let hit = state.prepares.get(&key);
            state.prepare_hits += u64::from(hit.is_some());
            hit
        };
        let prepared = match memoised {
            Some(prepared) => {
                gatediag_obs::count("session.prepare_hits", 1);
                prepared
            }
            None => {
                let prepared = Arc::new(prepare(&self.golden, &request));
                self.lock().prepares.insert(key, prepared)
            }
        };
        let outcome = Arc::new(run_prepared(
            &self.golden,
            &prepared,
            &request,
            parallelism,
            chaos,
        ));
        let mut state = self.lock();
        state.cold_runs += 1;
        gatediag_obs::count("session.cold_runs", 1);
        if cacheable {
            state.outcomes.insert(request, Arc::clone(&outcome));
        }
        Ok((outcome, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gatediag_netlist::c17;

    #[test]
    fn frames_and_seq_len_validation_rejects_zero_and_clamps() {
        assert!(validate_frames(0).is_err());
        assert_eq!(validate_frames(1), Ok(1));
        assert_eq!(validate_frames(MAX_FRAMES), Ok(MAX_FRAMES));
        assert_eq!(validate_frames(usize::MAX), Ok(MAX_FRAMES));
        assert!(validate_seq_len(0).is_err());
        assert_eq!(validate_seq_len(8), Ok(8));
        assert_eq!(validate_seq_len(1 << 40), Ok(MAX_SEQ_LEN));
    }

    #[test]
    fn validation_normalises_sequential_requests() {
        // Combinational engine + frames → the sequential variant, with
        // defaulted and clamped axes.
        let req = DiagnoseRequest {
            engine: EngineKind::Bsim,
            frames: Some(1 << 30),
            ..DiagnoseRequest::default()
        };
        let v = req.validated().unwrap();
        assert_eq!(v.engine, EngineKind::SeqBsim);
        assert_eq!(v.frames, Some(MAX_FRAMES));
        assert_eq!(v.seq_len, Some(4));
        // A sequential engine with no axes gets the campaign defaults.
        let req = DiagnoseRequest {
            engine: EngineKind::SeqBsat,
            ..DiagnoseRequest::default()
        };
        let v = req.validated().unwrap();
        assert_eq!(v.frames, Some(3));
        assert_eq!(v.seq_len, Some(4));
        // Engines without a sequential variant are rejected.
        let req = DiagnoseRequest {
            engine: EngineKind::Auto,
            frames: Some(3),
            ..DiagnoseRequest::default()
        };
        assert!(req.validated().unwrap_err().contains("sequential variant"));
        // Test generation is combinational-only.
        let req = DiagnoseRequest {
            engine: EngineKind::SeqBsim,
            test_gen: true,
            ..DiagnoseRequest::default()
        };
        assert!(req.validated().unwrap_err().contains("combinational-only"));
    }

    #[test]
    fn validation_rejects_zero_limits() {
        for mutate in [
            (|r: &mut DiagnoseRequest| r.p = 0) as fn(&mut DiagnoseRequest),
            |r| r.tests = 0,
            |r| r.max_test_vectors = 0,
            |r| r.k = Some(0),
            |r| r.max_solutions = 0,
        ] {
            let mut req = DiagnoseRequest::default();
            mutate(&mut req);
            assert!(req.validated().is_err());
        }
    }

    #[test]
    fn content_hash_is_construction_invariant() {
        use gatediag_netlist::parse_bench;
        let golden = c17();
        let reparsed = parse_bench(&write_bench(&golden)).unwrap();
        assert_eq!(
            circuit_content_hash(&golden),
            circuit_content_hash(&reparsed)
        );
    }

    #[test]
    fn repeated_requests_hit_the_memo() {
        let session = CircuitSession::new("c17", c17());
        let request = DiagnoseRequest {
            engine: EngineKind::Bsat,
            seed: 42,
            ..DiagnoseRequest::default()
        };
        let (first, warm) = session
            .diagnose(&request, Parallelism::Sequential, ChaosPolicy::off())
            .unwrap();
        assert!(!warm);
        let (second, warm) = session
            .diagnose(&request, Parallelism::Sequential, ChaosPolicy::off())
            .unwrap();
        assert!(warm);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(session.warm_hits(), 1);
        assert_eq!(session.cold_runs(), 1);
        assert_eq!(session.cached_outcomes(), 1);
        // A different seed is a different key.
        let other = DiagnoseRequest {
            seed: 43,
            ..request.clone()
        };
        let (_, warm) = session
            .diagnose(&other, Parallelism::Sequential, ChaosPolicy::off())
            .unwrap();
        assert!(!warm);
        assert_eq!(session.cached_outcomes(), 2);
    }

    #[test]
    fn warm_hits_charge_no_engine_counters() {
        let session = CircuitSession::new("c17", c17());
        let request = DiagnoseRequest {
            engine: EngineKind::Bsat,
            seed: 42,
            ..DiagnoseRequest::default()
        };
        session
            .diagnose(&request, Parallelism::Sequential, ChaosPolicy::off())
            .unwrap();
        // Second run under a fresh sink: only the warm-hit counter.
        let sink = Arc::new(gatediag_obs::Sink::new());
        let guard = gatediag_obs::install(Arc::clone(&sink));
        let (_, warm) = session
            .diagnose(&request, Parallelism::Sequential, ChaosPolicy::off())
            .unwrap();
        drop(guard);
        assert!(warm);
        let trace = sink.take_trace();
        assert_eq!(trace.counter("session.warm_hits"), 1);
        assert_eq!(trace.counter("cnf.gates_encoded"), 0);
        assert_eq!(trace.counter("netlist.builds"), 0);
    }

    #[test]
    fn same_prepare_requests_skip_inject_and_tests() {
        let session = CircuitSession::new("c17", c17());
        let first = DiagnoseRequest {
            engine: EngineKind::Bsim,
            seed: 42,
            ..DiagnoseRequest::default()
        };
        session
            .diagnose(&first, Parallelism::Sequential, ChaosPolicy::off())
            .unwrap();
        // Another engine and solution cap, same prepare key: the engine
        // runs, but on the memoised faulty circuit and tests.
        let second = DiagnoseRequest {
            engine: EngineKind::Bsat,
            max_solutions: 7,
            ..first.clone()
        };
        assert_eq!(first.prepare_key(), second.prepare_key());
        let sink = Arc::new(gatediag_obs::Sink::new());
        let guard = gatediag_obs::install(Arc::clone(&sink));
        let (outcome, warm) = session
            .diagnose(&second, Parallelism::Sequential, ChaosPolicy::off())
            .unwrap();
        drop(guard);
        assert!(!warm, "a prepare hit is not an outcome-memo hit");
        assert_eq!(session.prepare_hits(), 1);
        assert_eq!(session.cold_runs(), 2);
        assert_eq!(session.cached_prepares(), 1);
        let trace = sink.take_trace();
        assert_eq!(trace.counter("session.prepare_hits"), 1);
        assert_eq!(trace.counter("session.cold_runs"), 1);
        assert_eq!(trace.counter("sim.sweeps"), 0);
        assert_eq!(trace.counter("netlist.builds"), 0);
        assert!(trace
            .spans
            .iter()
            .all(|span| span.name != "inject" && span.name != "tests"));
        assert!(trace.spans.iter().any(|span| span.name == "engine"));
        // The shared prepare changes nothing about the answer.
        let fresh = run_diagnose(
            &c17(),
            &second.validated().unwrap(),
            Parallelism::Sequential,
            ChaosPolicy::off(),
        );
        assert_eq!(outcome.faulty, fresh.faulty);
        assert_eq!(outcome.faults, fresh.faults);
        assert_eq!(outcome.tests, fresh.tests);
        assert_eq!(outcome.status, fresh.status);
        assert_eq!(format!("{:?}", outcome.run), format!("{:?}", fresh.run));
    }

    /// Runs `request` on `session` under a fresh sink; returns the
    /// outcome and the run's trace.
    fn traced(
        session: &CircuitSession,
        request: &DiagnoseRequest,
        chaos: ChaosPolicy,
    ) -> (Arc<DiagnoseOutcome>, gatediag_obs::ObsTrace) {
        let sink = Arc::new(gatediag_obs::Sink::new());
        let guard = gatediag_obs::install(Arc::clone(&sink));
        let (outcome, warm) = session
            .diagnose(request, Parallelism::Sequential, chaos)
            .unwrap();
        drop(guard);
        assert!(!warm);
        (outcome, sink.take_trace())
    }

    fn cover_spans(trace: &gatediag_obs::ObsTrace) -> usize {
        trace.spans.iter().filter(|s| s.name == "cover").count()
    }

    #[test]
    fn cov_and_auto_share_one_cover_phase_in_either_order() {
        let golden = c17();
        for order in [
            [EngineKind::Cov, EngineKind::Auto],
            [EngineKind::Auto, EngineKind::Cov],
        ] {
            let session = CircuitSession::new("c17", golden.clone());
            for (i, engine) in order.into_iter().enumerate() {
                let request = DiagnoseRequest {
                    engine,
                    seed: 42,
                    ..DiagnoseRequest::default()
                };
                let (outcome, trace) = traced(&session, &request, ChaosPolicy::off());
                let run = outcome.run.as_ref().expect("the engine ran");
                assert!(!run.solutions.is_empty(), "{order:?}: no covers");
                // The first run computes the covers, the second reuses them.
                assert_eq!(cover_spans(&trace), usize::from(i == 0), "{order:?}");
                assert_eq!(trace.counter("cov.cover_reuses"), i as u64, "{order:?}");
                let fresh = run_diagnose(
                    &golden,
                    &request,
                    Parallelism::Sequential,
                    ChaosPolicy::off(),
                );
                assert_eq!(
                    format!("{:?}", outcome.run),
                    format!("{:?}", fresh.run),
                    "{order:?}"
                );
                assert_eq!(outcome.status, fresh.status);
            }
            assert_eq!(session.prepare_hits(), 1);
            // Another solution cap is another cover key: computed anew.
            let capped = DiagnoseRequest {
                engine: EngineKind::Cov,
                seed: 42,
                max_solutions: 1,
                ..DiagnoseRequest::default()
            };
            let (outcome, trace) = traced(&session, &capped, ChaosPolicy::off());
            assert_eq!(cover_spans(&trace), 1, "{order:?}");
            assert_eq!(trace.counter("cov.cover_reuses"), 0, "{order:?}");
            let fresh = run_diagnose(
                &golden,
                &capped,
                Parallelism::Sequential,
                ChaosPolicy::off(),
            );
            assert_eq!(format!("{:?}", outcome.run), format!("{:?}", fresh.run));
        }
    }

    #[test]
    fn seq_bsim_and_seq_bsat_share_one_unrolling_in_either_order() {
        let golden = gatediag_netlist::RandomCircuitSpec::new(5, 3, 30)
            .latches(3)
            .seed(1)
            .generate();
        let request = |engine, seed| DiagnoseRequest {
            engine,
            seed,
            frames: Some(3),
            seq_len: Some(4),
            ..DiagnoseRequest::default()
        };
        let seed = (1..64)
            .find(|&seed| {
                let request = request(EngineKind::SeqBsim, seed).validated().unwrap();
                !prepare(&golden, &request).tests.is_empty()
            })
            .expect("some seed yields failing sequences");
        for order in [
            [EngineKind::SeqBsim, EngineKind::SeqBsat],
            [EngineKind::SeqBsat, EngineKind::SeqBsim],
        ] {
            let session = CircuitSession::new("seq", golden.clone());
            for (i, engine) in order.into_iter().enumerate() {
                let request = request(engine, seed);
                let (outcome, trace) = traced(&session, &request, ChaosPolicy::off());
                // The first run unrolls (and its prepare injects); the
                // second reuses both, so it builds no netlist at all.
                let builds = trace.counter("netlist.builds");
                assert_eq!(builds == 0, i == 1, "{order:?}: {builds} builds");
                let fresh = run_diagnose(
                    &golden,
                    &request.validated().unwrap(),
                    Parallelism::Sequential,
                    ChaosPolicy::off(),
                );
                assert_eq!(
                    format!("{:?}", outcome.run),
                    format!("{:?}", fresh.run),
                    "{order:?}"
                );
            }
            assert_eq!(session.prepare_hits(), 1);
        }
    }

    #[test]
    fn chaos_and_deadline_runs_neither_read_nor_fill_the_cover_memo() {
        let golden = c17();
        let request = |engine: EngineKind, deadline_ms: Option<u64>| DiagnoseRequest {
            engine,
            seed: 42,
            deadline_ms,
            ..DiagnoseRequest::default()
        };
        // A chaos policy that is active but never fires.
        let chaos = || {
            ChaosPolicy::new(
                crate::chaos::ChaosConfig {
                    seed: 7,
                    rate_ppm: 0,
                },
                1,
            )
        };
        let plain = ChaosPolicy::off;

        // Neither fills: a plain run after a deadline run and after a
        // chaos run still computes its covers.
        for (bypassing, policy) in [
            (request(EngineKind::Cov, Some(60_000)), plain()),
            (request(EngineKind::Cov, None), chaos()),
        ] {
            let session = CircuitSession::new("c17", golden.clone());
            let (_, trace) = traced(&session, &bypassing, policy);
            assert_eq!(cover_spans(&trace), 1);
            let (_, trace) = traced(&session, &request(EngineKind::Auto, None), plain());
            assert_eq!(cover_spans(&trace), 1, "a bypassing run filled the memo");
            assert_eq!(trace.counter("cov.cover_reuses"), 0);
        }

        // Neither reads: after a plain run filled the memo, a deadline
        // run and a chaos run compute their covers anyway.
        let session = CircuitSession::new("c17", golden.clone());
        traced(&session, &request(EngineKind::Cov, None), plain());
        for (bypassing, policy) in [
            (request(EngineKind::Auto, Some(60_000)), plain()),
            (request(EngineKind::Auto, None), chaos()),
        ] {
            let (outcome, trace) = traced(&session, &bypassing, policy);
            assert_eq!(cover_spans(&trace), 1, "a bypassing run read the memo");
            assert_eq!(trace.counter("cov.cover_reuses"), 0);
            let fresh = run_diagnose(&golden, &bypassing, Parallelism::Sequential, plain());
            assert_eq!(format!("{:?}", outcome.run), format!("{:?}", fresh.run));
        }
        // The memo still serves a plain run.
        let (_, trace) = traced(&session, &request(EngineKind::Auto, None), plain());
        assert_eq!(cover_spans(&trace), 0);
        assert_eq!(trace.counter("cov.cover_reuses"), 1);
    }

    #[test]
    fn outcome_memo_is_bounded_and_evicts_oldest_first() {
        let session = CircuitSession::new("c17", c17());
        let request = |max_solutions: usize| DiagnoseRequest {
            engine: EngineKind::Bsim,
            max_solutions,
            ..DiagnoseRequest::default()
        };
        let ask = |n: usize| {
            session
                .diagnose(&request(n), Parallelism::Sequential, ChaosPolicy::off())
                .unwrap()
                .1
        };
        for n in 1..=MAX_CACHED_OUTCOMES + 1 {
            assert!(!ask(n));
        }
        assert_eq!(session.cached_outcomes(), MAX_CACHED_OUTCOMES);
        assert_eq!(session.cached_prepares(), 1);
        // The newest entry and the oldest survivor stay warm; the one
        // evicted entry re-runs cold.
        assert!(ask(MAX_CACHED_OUTCOMES + 1));
        assert!(ask(2));
        assert!(!ask(1));
        assert_eq!(session.cached_outcomes(), MAX_CACHED_OUTCOMES);
    }

    #[test]
    fn prepare_memo_is_bounded_and_evicts_oldest_first() {
        let session = CircuitSession::new("c17", c17());
        let request = |seed: u64, max_solutions: usize| DiagnoseRequest {
            engine: EngineKind::Bsim,
            seed,
            tests: 1,
            max_test_vectors: 64,
            max_solutions,
            ..DiagnoseRequest::default()
        };
        let cap = MAX_CACHED_PREPARES as u64;
        for seed in 1..=cap + 1 {
            session
                .diagnose(
                    &request(seed, 1),
                    Parallelism::Sequential,
                    ChaosPolicy::off(),
                )
                .unwrap();
        }
        assert_eq!(session.cached_prepares(), MAX_CACHED_PREPARES);
        assert_eq!(session.prepare_hits(), 0);
        // New engine-side requests on the newest and oldest surviving
        // keys reuse their prepares; the evicted key prepares again.
        for seed in [cap + 1, 2] {
            let (_, warm) = session
                .diagnose(
                    &request(seed, 2),
                    Parallelism::Sequential,
                    ChaosPolicy::off(),
                )
                .unwrap();
            assert!(!warm);
        }
        assert_eq!(session.prepare_hits(), 2);
        session
            .diagnose(&request(1, 2), Parallelism::Sequential, ChaosPolicy::off())
            .unwrap();
        assert_eq!(session.prepare_hits(), 2);
        assert_eq!(session.cached_prepares(), MAX_CACHED_PREPARES);
    }

    #[test]
    fn deadline_and_chaos_requests_bypass_the_memo() {
        let session = CircuitSession::new("c17", c17());
        let deadline = DiagnoseRequest {
            deadline_ms: Some(10_000),
            ..DiagnoseRequest::default()
        };
        for _ in 0..2 {
            let (_, warm) = session
                .diagnose(&deadline, Parallelism::Sequential, ChaosPolicy::off())
                .unwrap();
            assert!(!warm);
        }
        assert_eq!(session.cached_outcomes(), 0);
        let chaotic = ChaosPolicy::new(
            crate::chaos::ChaosConfig {
                seed: 7,
                rate_ppm: 0,
            },
            1,
        );
        let (_, warm) = session
            .diagnose(
                &DiagnoseRequest::default(),
                Parallelism::Sequential,
                chaotic,
            )
            .unwrap();
        assert!(!warm);
        assert_eq!(session.cached_outcomes(), 0);
    }
}
