//! The request broker: parses request lines, applies admission
//! control, multiplexes diagnoses onto one shared worker pool, and
//! renders responses.
//!
//! Every diagnose request runs on a [`PersistentPool`] worker with
//! `Parallelism::Sequential` inside the engine — requests are the unit
//! of concurrency, and engine results are pure functions of the
//! request, so responses are byte-identical for every pool size and
//! every interleaving of clients (the concurrency drift tests pin
//! this).
//!
//! A request that panics mid-engine (real bug or injected chaos) is
//! caught by the pool and reported as a `"failed"` response; the
//! worker, the registry and every cached session survive — the daemon
//! analogue of the campaign runner's crash isolation.

use crate::protocol::{parse_request, status_response, DiagnoseCall, Request, RESPONSE_SCHEMA};
use crate::registry::CircuitRegistry;
use gatediag_core::{ChaosPolicy, CircuitSession, DiagnoseOutcome};
use gatediag_netlist::{Circuit, GateId};
use gatediag_obs::json::Json;
use gatediag_obs::{ObsTrace, Sink};
use gatediag_sim::{Parallelism, PersistentPool};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Server-side policy knobs.
#[derive(Copy, Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads in the shared diagnosis pool.
    pub workers: usize,
    /// Maximum circuits kept warm (LRU beyond that).
    pub registry_capacity: usize,
    /// Admission cap: a request asking for a work budget above this is
    /// `"rejected"`; a request with no budget of its own gets this cap
    /// imposed, so runaway work is preempted cooperatively instead of
    /// monopolising a worker. `None` disables admission control.
    pub max_work_budget: Option<u64>,
    /// Work budget imposed on requests that specify none (must not
    /// exceed [`ServiceConfig::max_work_budget`] to be effective).
    pub default_work_budget: Option<u64>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            registry_capacity: 8,
            max_work_budget: None,
            default_work_budget: None,
        }
    }
}

/// The diagnosis service: one warm registry, one worker pool, no state
/// outside them. [`Service::handle_line`] is the single entry point
/// both the daemon and the in-process `diagnose --json` path use, which
/// is what makes their responses byte-identical by construction.
pub struct Service {
    registry: Arc<CircuitRegistry>,
    pool: PersistentPool,
    max_work_budget: Option<u64>,
    default_work_budget: Option<u64>,
    shutdown: AtomicBool,
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("workers", &self.pool.workers())
            .field("registry", &self.registry)
            .finish()
    }
}

impl Service {
    /// Builds a service from its config.
    pub fn new(config: ServiceConfig) -> Service {
        Service {
            registry: Arc::new(CircuitRegistry::new(config.registry_capacity)),
            pool: PersistentPool::new(config.workers),
            max_work_budget: config.max_work_budget,
            default_work_budget: config.default_work_budget,
            shutdown: AtomicBool::new(false),
        }
    }

    /// The warm circuit registry (for stats and tests).
    pub fn registry(&self) -> &CircuitRegistry {
        &self.registry
    }

    /// Worker threads in the shared pool.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// `true` once a `shutdown` request was handled; the transport
    /// loops poll this to stop accepting work.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Handles one request line and returns one response line (no
    /// trailing newline). Never panics: malformed input becomes an
    /// `"error"` response, a crashed engine a `"failed"` one.
    pub fn handle_line(&self, line: &str) -> String {
        match parse_request(line) {
            Err(message) => status_response("error", &message),
            Ok(Request::Ping) => ok_response("ping", Vec::new()),
            Ok(Request::Stats) => {
                let stats = self.registry.stats();
                ok_response(
                    "stats",
                    vec![
                        ("sessions", stats.sessions as u64),
                        ("hits", stats.hits),
                        ("misses", stats.misses),
                        ("evictions", stats.evictions),
                        ("workers", self.pool.workers() as u64),
                    ],
                )
            }
            Ok(Request::Shutdown) => {
                self.shutdown.store(true, Ordering::Release);
                ok_response("shutdown", Vec::new())
            }
            Ok(Request::Diagnose(call)) => self.handle_diagnose(*call),
        }
    }

    fn handle_diagnose(&self, mut call: DiagnoseCall) -> String {
        // Admission control on the deterministic work budget: the one
        // knob that bounds engine effort independently of wall time.
        let asked = call.request.work_budget.or(self.default_work_budget);
        if let Some(cap) = self.max_work_budget {
            match asked {
                Some(w) if w > cap => {
                    return status_response(
                        "rejected",
                        &format!("work budget {w} exceeds the server cap {cap}"),
                    );
                }
                Some(w) => call.request.work_budget = Some(w),
                None => call.request.work_budget = Some(cap),
            }
        } else {
            call.request.work_budget = asked;
        }
        let registry = Arc::clone(&self.registry);
        match self.pool.run(move || run_call(&registry, call)) {
            Ok(response) => response,
            // The engine panicked: the pool caught it, the worker and
            // the registry live on. Mirrors the campaign's `failed`.
            Err(panic) => status_response("failed", &panic),
        }
    }
}

fn ok_response(op: &str, fields: Vec<(&str, u64)>) -> String {
    let mut obj: Vec<(String, Json)> = vec![
        (
            "schema".to_string(),
            Json::Str(crate::protocol::REQUEST_SCHEMA.to_string()),
        ),
        ("op".to_string(), Json::Str(op.to_string())),
        ("status".to_string(), Json::Str("ok".to_string())),
    ];
    for (key, value) in fields {
        obj.push((key.to_string(), Json::Num(value.to_string())));
    }
    Json::Obj(obj).render()
}

/// Runs one admitted diagnose call on the current (pool) thread.
fn run_call(registry: &CircuitRegistry, call: DiagnoseCall) -> String {
    let sink = call.obs.then(|| Arc::new(Sink::new()));
    let started = call.timing.then(Instant::now);
    // Install the per-request sink *before* the registry lookup so a
    // cold request's parse/build counters (`netlist.builds`) land in
    // this request's trace — the warm-hit proof reads exactly that.
    let guard = sink.as_ref().map(|s| gatediag_obs::install(Arc::clone(s)));
    let result = diagnose_call(registry, &call);
    drop(guard);
    match result {
        Ok((session, outcome, warm, registry_warm)) => {
            let trace = sink.map(|s| s.take_trace());
            let wall_ms = started.map(|t| t.elapsed().as_millis() as u64);
            render_diagnose_response(
                &call,
                &session,
                &outcome,
                warm,
                registry_warm,
                trace,
                wall_ms,
            )
        }
        Err(message) => status_response("error", &message),
    }
}

type CallResult = (Arc<CircuitSession>, Arc<DiagnoseOutcome>, bool, bool);

fn diagnose_call(registry: &CircuitRegistry, call: &DiagnoseCall) -> Result<CallResult, String> {
    let (session, registry_warm) = registry.get_or_parse(&call.bench, call.circuit.as_deref())?;
    let request = call.request.validated()?;
    let chaos = match call.chaos {
        None => ChaosPolicy::off(),
        Some(config) => {
            // Keyed like a campaign instance (attempt 0): deterministic
            // in the request, independent of scheduling.
            let key = ChaosPolicy::key(&[
                session.name(),
                request.fault_model.name(),
                &request.p.to_string(),
                &request.seed.to_string(),
                request.engine.name(),
                "0",
            ]);
            ChaosPolicy::new(config, key)
        }
    };
    let (outcome, warm) = session.diagnose(&request, Parallelism::Sequential, chaos)?;
    Ok((session, outcome, warm, registry_warm))
}

fn gate_label(circuit: &Circuit, g: GateId) -> Json {
    Json::Str(
        circuit
            .gate_name(g)
            .map(str::to_owned)
            .unwrap_or_else(|| format!("{g}")),
    )
}

fn render_diagnose_response(
    call: &DiagnoseCall,
    session: &CircuitSession,
    outcome: &DiagnoseOutcome,
    warm: bool,
    registry_warm: bool,
    trace: Option<ObsTrace>,
    wall_ms: Option<u64>,
) -> String {
    // The request was validated in `diagnose_call`; re-deriving the
    // normalised form here keeps the echo fields (resolved engine,
    // effective k/frames/seq_len) truthful.
    let request = call
        .request
        .validated()
        .expect("request validated before the engine ran");
    let mut obj: Vec<(String, Json)> = vec![
        ("schema".to_string(), Json::Str(RESPONSE_SCHEMA.to_string())),
        (
            "status".to_string(),
            Json::Str(outcome.status.name().to_string()),
        ),
        ("circuit".to_string(), Json::Str(session.name().to_string())),
        (
            "engine".to_string(),
            Json::Str(request.engine.name().to_string()),
        ),
        (
            "fault_model".to_string(),
            Json::Str(request.fault_model.name().to_string()),
        ),
        ("p".to_string(), Json::Num(request.p.to_string())),
        ("seed".to_string(), Json::Num(request.seed.to_string())),
        (
            "k".to_string(),
            Json::Num(request.k.unwrap_or(request.p).to_string()),
        ),
    ];
    if let (Some(frames), Some(seq_len)) = (request.frames, request.seq_len) {
        obj.push(("frames".to_string(), Json::Num(frames.to_string())));
        obj.push(("seq_len".to_string(), Json::Num(seq_len.to_string())));
    }
    obj.push(("tests".to_string(), Json::Num(outcome.tests.to_string())));
    if let Some(faulty) = &outcome.faulty {
        obj.push((
            "injected".to_string(),
            Json::Arr(
                outcome
                    .faults
                    .iter()
                    .map(|f| gate_label(faulty, f.gate))
                    .collect(),
            ),
        ));
        if let Some(run) = &outcome.run {
            obj.push((
                "candidates".to_string(),
                Json::Arr(
                    run.candidates
                        .iter()
                        .map(|&g| gate_label(faulty, g))
                        .collect(),
                ),
            ));
            obj.push((
                "solutions".to_string(),
                Json::Arr(
                    run.solutions
                        .iter()
                        .map(|s| Json::Arr(s.iter().map(|&g| gate_label(faulty, g)).collect()))
                        .collect(),
                ),
            ));
            obj.push(("complete".to_string(), Json::Bool(run.complete)));
            obj.push((
                "truncation".to_string(),
                run.truncation
                    .map_or(Json::Null, |t| Json::Str(t.name().to_string())),
            ));
            obj.push((
                "conflicts".to_string(),
                Json::Num(run.stats.conflicts.to_string()),
            ));
            obj.push((
                "decisions".to_string(),
                Json::Num(run.stats.decisions.to_string()),
            ));
            obj.push((
                "propagations".to_string(),
                Json::Num(run.stats.propagations.to_string()),
            ));
            if let Some(tg) = &run.test_gen {
                obj.push((
                    "test_gen".to_string(),
                    Json::Obj(vec![
                        (
                            "gen_tests".to_string(),
                            Json::Num(tg.tests.len().to_string()),
                        ),
                        (
                            "solutions_before".to_string(),
                            Json::Num(tg.solutions_before.to_string()),
                        ),
                        (
                            "solutions_after".to_string(),
                            Json::Num(tg.solutions_after.to_string()),
                        ),
                        (
                            "ambiguity_classes".to_string(),
                            Json::Num(tg.classes.len().to_string()),
                        ),
                    ]),
                ));
            }
        }
    }
    // `meta` is the quarantine zone: warm/cold state, wall time and raw
    // counters are real information, but none of it may leak into the
    // byte-compared body — it only exists when the request asked.
    if call.obs || call.timing {
        let mut meta: Vec<(String, Json)> = vec![
            ("warm".to_string(), Json::Bool(warm)),
            ("registry_warm".to_string(), Json::Bool(registry_warm)),
        ];
        if let Some(ms) = wall_ms {
            meta.push(("wall_ms".to_string(), Json::Num(ms.to_string())));
        }
        if let Some(trace) = trace {
            meta.push((
                "counters".to_string(),
                Json::Obj(
                    trace
                        .counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(v.to_string())))
                        .collect(),
                ),
            ));
        }
        obj.push(("meta".to_string(), Json::Obj(meta)));
    }
    Json::Obj(obj).render()
}
