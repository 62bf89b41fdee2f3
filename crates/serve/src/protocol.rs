//! The JSONL wire protocol: one request per line in, one response per
//! line out.
//!
//! Requests are `gatediag-serve-v1` objects; diagnose responses are
//! `gatediag-diagnose-v1` objects. Everything rides on the shared
//! [`gatediag_obs::json`] layer, so field order is insertion order and
//! rendering is deterministic — the property that lets the CI smoke
//! `cmp` a daemon response against the one-shot CLI's `--json` output.
//!
//! Timing and observability are opt-in per request (`"timing"` /
//! `"obs"`): a default response carries no wall-clock or counter data
//! at all, which is what keeps it byte-comparable across runs, worker
//! counts and warm/cold cache states.

use gatediag_core::{ChaosConfig, DiagnoseRequest, EngineKind};
use gatediag_netlist::FaultModel;
use gatediag_obs::json::{escape_str, parse_json, Json};

/// Schema tag every request must carry.
pub const REQUEST_SCHEMA: &str = "gatediag-serve-v1";

/// Schema tag on every diagnose response.
pub const RESPONSE_SCHEMA: &str = "gatediag-diagnose-v1";

/// A parsed `op: "diagnose"` request.
#[derive(Clone, Debug)]
pub struct DiagnoseCall {
    /// Display name for the circuit (`"circuit"`); falls back to the
    /// bench text's `#` header when absent.
    pub circuit: Option<String>,
    /// The circuit itself, as bench-format text (`"bench"`).
    pub bench: String,
    /// The diagnosis parameters; fields not present in the request keep
    /// the [`DiagnoseRequest::default`] campaign values.
    pub request: DiagnoseRequest,
    /// Deterministic fault injection for crash-isolation testing:
    /// `("chaos_ppm", "chaos_seed")` mirror
    /// [`gatediag_core::ChaosConfig`]. Chaos requests bypass the warm
    /// cache (they are not pure functions of the request).
    pub chaos: Option<ChaosConfig>,
    /// Attach deterministic obs counters to the response (`"obs"`).
    pub obs: bool,
    /// Attach wall-clock timing to the response (`"timing"`).
    pub timing: bool,
}

/// A parsed request line.
#[derive(Clone, Debug)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Registry and pool statistics.
    Stats,
    /// Stop accepting connections after responding.
    Shutdown,
    /// Run (or replay from cache) one diagnosis.
    Diagnose(Box<DiagnoseCall>),
}

fn opt_usize(v: &Json, key: &str) -> Result<Option<usize>, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(f) => Ok(Some(f.as_usize(key).map_err(|e| e.message)?)),
    }
}

fn opt_u64(v: &Json, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(f) => Ok(Some(f.as_u64(key).map_err(|e| e.message)?)),
    }
}

fn bool_or(v: &Json, key: &str, default: bool) -> Result<bool, String> {
    match v.get(key) {
        None => Ok(default),
        Some(f) => f.as_bool(key).map_err(|e| e.message),
    }
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a message suitable for an `"error"` response: JSON syntax
/// errors (with byte offset), schema mismatches, unknown ops, unknown
/// engine or fault-model tokens, and missing required fields.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = parse_json(line).map_err(|e| e.message)?;
    let schema = v
        .expect("schema", "request")
        .and_then(|s| s.as_str("schema"))
        .map_err(|e| e.message)?;
    if schema != REQUEST_SCHEMA {
        return Err(format!(
            "unsupported schema \"{schema}\" (expected \"{REQUEST_SCHEMA}\")"
        ));
    }
    let op = v
        .expect("op", "request")
        .and_then(|s| s.as_str("op"))
        .map_err(|e| e.message)?;
    match op {
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        "diagnose" => parse_diagnose(v).map(|c| Request::Diagnose(Box::new(c))),
        other => Err(format!(
            "unknown op \"{other}\" (ping|stats|shutdown|diagnose)"
        )),
    }
}

fn parse_diagnose(mut v: Json) -> Result<DiagnoseCall, String> {
    // The bench text is most of the line; move it out of the tree.
    let bench = v
        .take("bench", "diagnose request")
        .and_then(|s| s.into_string("bench"))
        .map_err(|e| e.message)?;
    let v = &v;
    let circuit = match v.get("circuit") {
        None | Some(Json::Null) => None,
        Some(f) => Some(f.as_str("circuit").map_err(|e| e.message)?.to_string()),
    };
    let mut request = DiagnoseRequest::default();
    if let Some(f) = v.get("engine") {
        let text = f.as_str("engine").map_err(|e| e.message)?;
        request.engine =
            EngineKind::parse(text).ok_or_else(|| format!("unknown engine \"{text}\""))?;
    }
    if let Some(f) = v.get("fault_model") {
        let text = f.as_str("fault_model").map_err(|e| e.message)?;
        request.fault_model =
            FaultModel::parse(text).ok_or_else(|| format!("unknown fault model \"{text}\""))?;
    }
    if let Some(p) = opt_usize(v, "p")? {
        request.p = p;
    }
    if let Some(seed) = opt_u64(v, "seed")? {
        request.seed = seed;
    }
    if let Some(tests) = opt_usize(v, "tests")? {
        request.tests = tests;
    }
    if let Some(cap) = opt_usize(v, "max_test_vectors")? {
        request.max_test_vectors = cap;
    }
    request.k = opt_usize(v, "k")?;
    request.frames = opt_usize(v, "frames")?;
    request.seq_len = opt_usize(v, "seq_len")?;
    if let Some(cap) = opt_usize(v, "max_solutions")? {
        request.max_solutions = cap;
    }
    // `conflict_budget` has a non-`None` default, so only an explicit
    // field (including an explicit `null`) changes it.
    if let Some(f) = v.get("conflict_budget") {
        request.conflict_budget = match f {
            Json::Null => None,
            f => Some(f.as_u64("conflict_budget").map_err(|e| e.message)?),
        };
    }
    request.work_budget = opt_u64(v, "work_budget")?;
    request.deadline_ms = opt_u64(v, "deadline_ms")?;
    // Unknown keys are ignored, so the retired `test_gen_rounds` field
    // would otherwise run silently without the phase it used to turn on.
    if v.get("test_gen_rounds").is_some() {
        return Err("\"test_gen_rounds\" is gone: send \"test_gen\": true".to_string());
    }
    request.test_gen = bool_or(v, "test_gen", false)?;
    let chaos = match (opt_u64(v, "chaos_ppm")?, opt_u64(v, "chaos_seed")?) {
        (None, _) => None,
        (Some(ppm), seed) => Some(ChaosConfig {
            seed: seed.unwrap_or(0),
            rate_ppm: u32::try_from(ppm.min(1_000_000)).expect("clamped above"),
        }),
    };
    Ok(DiagnoseCall {
        circuit,
        bench,
        request,
        chaos,
        obs: bool_or(v, "obs", false)?,
        timing: bool_or(v, "timing", false)?,
    })
}

fn push_opt_usize(fields: &mut Vec<(String, Json)>, key: &str, value: Option<usize>) {
    if let Some(value) = value {
        fields.push((key.to_string(), Json::Num(value.to_string())));
    }
}

/// Renders a diagnose request as its canonical single-line form — the
/// exact bytes the CLI client sends and `gatediag diagnose --json`
/// feeds through the in-process service, so both front doors are one
/// code path.
pub fn render_diagnose_request(call: &DiagnoseCall) -> String {
    let r = &call.request;
    let mut fields: Vec<(String, Json)> = vec![
        ("schema".to_string(), Json::Str(REQUEST_SCHEMA.to_string())),
        ("op".to_string(), Json::Str("diagnose".to_string())),
    ];
    if let Some(name) = &call.circuit {
        fields.push(("circuit".to_string(), Json::Str(name.clone())));
    }
    fields.push(("bench".to_string(), Json::Str(call.bench.clone())));
    fields.push(("engine".to_string(), Json::Str(r.engine.name().to_string())));
    fields.push((
        "fault_model".to_string(),
        Json::Str(r.fault_model.name().to_string()),
    ));
    fields.push(("p".to_string(), Json::Num(r.p.to_string())));
    fields.push(("seed".to_string(), Json::Num(r.seed.to_string())));
    fields.push(("tests".to_string(), Json::Num(r.tests.to_string())));
    fields.push((
        "max_test_vectors".to_string(),
        Json::Num(r.max_test_vectors.to_string()),
    ));
    push_opt_usize(&mut fields, "k", r.k);
    push_opt_usize(&mut fields, "frames", r.frames);
    push_opt_usize(&mut fields, "seq_len", r.seq_len);
    fields.push((
        "max_solutions".to_string(),
        Json::Num(r.max_solutions.to_string()),
    ));
    // Explicit `null` distinguishes "unlimited" from "the default".
    fields.push((
        "conflict_budget".to_string(),
        r.conflict_budget
            .map_or(Json::Null, |v| Json::Num(v.to_string())),
    ));
    if let Some(v) = r.work_budget {
        fields.push(("work_budget".to_string(), Json::Num(v.to_string())));
    }
    if let Some(v) = r.deadline_ms {
        fields.push(("deadline_ms".to_string(), Json::Num(v.to_string())));
    }
    if r.test_gen {
        fields.push(("test_gen".to_string(), Json::Bool(true)));
    }
    if let Some(chaos) = call.chaos {
        fields.push((
            "chaos_ppm".to_string(),
            Json::Num(chaos.rate_ppm.to_string()),
        ));
        fields.push(("chaos_seed".to_string(), Json::Num(chaos.seed.to_string())));
    }
    if call.obs {
        fields.push(("obs".to_string(), Json::Bool(true)));
    }
    if call.timing {
        fields.push(("timing".to_string(), Json::Bool(true)));
    }
    Json::Obj(fields).render()
}

/// Renders the `{"schema": ..., "status": "...", "message": ...}`
/// response used for `rejected`, `failed` and `error` statuses.
pub fn status_response(status: &str, message: &str) -> String {
    format!(
        "{{\"schema\": {}, \"status\": {}, \"message\": {}}}",
        escape_str(RESPONSE_SCHEMA),
        escape_str(status),
        escape_str(message)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_call() -> DiagnoseCall {
        DiagnoseCall {
            circuit: Some("c17".to_string()),
            bench: "INPUT(a)\nINPUT(b)\ny = AND(a, b)\nOUTPUT(y)\n".to_string(),
            request: DiagnoseRequest {
                k: Some(2),
                work_budget: Some(1_000),
                ..DiagnoseRequest::default()
            },
            chaos: None,
            obs: true,
            timing: false,
        }
    }

    #[test]
    fn render_parse_round_trip_preserves_every_field() {
        let call = demo_call();
        let line = render_diagnose_request(&call);
        match parse_request(&line).expect("round trip") {
            Request::Diagnose(parsed) => {
                assert_eq!(parsed.circuit, call.circuit);
                assert_eq!(parsed.bench, call.bench);
                assert_eq!(parsed.request, call.request);
                assert_eq!(parsed.chaos, call.chaos);
                assert_eq!(parsed.obs, call.obs);
                assert_eq!(parsed.timing, call.timing);
            }
            other => panic!("expected diagnose, got {other:?}"),
        }
    }

    #[test]
    fn defaults_fill_missing_fields() {
        let line =
            format!("{{\"schema\": \"{REQUEST_SCHEMA}\", \"op\": \"diagnose\", \"bench\": \"x\"}}");
        match parse_request(&line).expect("minimal request") {
            Request::Diagnose(call) => {
                assert_eq!(call.request, DiagnoseRequest::default());
                assert_eq!(call.circuit, None);
                assert!(!call.obs && !call.timing);
            }
            other => panic!("expected diagnose, got {other:?}"),
        }
    }

    #[test]
    fn explicit_null_conflict_budget_means_unlimited() {
        let line = format!(
            "{{\"schema\": \"{REQUEST_SCHEMA}\", \"op\": \"diagnose\", \
             \"bench\": \"x\", \"conflict_budget\": null}}"
        );
        match parse_request(&line).expect("parses") {
            Request::Diagnose(call) => assert_eq!(call.request.conflict_budget, None),
            other => panic!("expected diagnose, got {other:?}"),
        }
    }

    #[test]
    fn bad_requests_are_rejected_with_reasons() {
        for (line, needle) in [
            ("not json", "JSON parse error"),
            ("{\"op\": \"ping\"}", "schema"),
            (
                "{\"schema\": \"gatediag-serve-v1\", \"op\": \"explode\"}",
                "unknown op",
            ),
            (
                "{\"schema\": \"gatediag-serve-v0\", \"op\": \"ping\"}",
                "unsupported schema",
            ),
            (
                "{\"schema\": \"gatediag-serve-v1\", \"op\": \"diagnose\"}",
                "bench",
            ),
            (
                "{\"schema\": \"gatediag-serve-v1\", \"op\": \"diagnose\", \
                 \"bench\": \"x\", \"engine\": \"warp\"}",
                "unknown engine",
            ),
        ] {
            let err = parse_request(line).expect_err(line);
            assert!(err.contains(needle), "`{line}` -> `{err}`");
        }
    }

    #[test]
    fn ops_parse() {
        for (op, ok) in [("ping", true), ("stats", true), ("shutdown", true)] {
            let line = format!("{{\"schema\": \"{REQUEST_SCHEMA}\", \"op\": \"{op}\"}}");
            assert_eq!(parse_request(&line).is_ok(), ok, "{op}");
        }
    }
}
