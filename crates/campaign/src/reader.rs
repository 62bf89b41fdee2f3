//! Reader for the `gatediag-campaign-v1` report schema.
//!
//! The campaign JSON emitter was write-only until the resume feature
//! needed to load a previous run back in. The build is offline (no
//! serde); the JSON syntax layer — full JSON, numbers kept as raw text
//! so `u64` seeds survive without a round-trip through `f64`, a
//! recursion-depth cap and duplicate-key rejection — lives in
//! [`gatediag_obs::json`] (shared with the serve protocol), and this
//! module carries the schema mapping onto [`CampaignReport`].
//!
//! # Compatibility
//!
//! * the matrix field `"k"` is `null` for "k = p per instance" in current
//!   reports; the **legacy string `"p"`** (the type-unstable spelling
//!   older emitters used) is still accepted;
//! * `"work_budget"` / `"deadline_ms"` may be absent (reports written
//!   before the budget subsystem) and default to unlimited;
//! * per-instance `"wall_ms"` is optional (present only with `--timing`)
//!   and defaults to `0.0` — timing is excluded from resume comparisons
//!   anyway.
//!
//! Round-trip invariant, pinned by tests: for any report `r`,
//! `parse_report(&r.to_json(false)).to_json(false)` is byte-identical to
//! `r.to_json(false)`.

use crate::report::{CampaignReport, InstanceRecord, InstanceStatus, TestGenRecord};
use crate::spec::{RetryOn, RetryPolicy};
use gatediag_core::{ChaosConfig, EngineKind};
use gatediag_netlist::FaultModel;
use gatediag_obs::json::{parse_json, Json, JsonError};

/// Why a report failed to parse.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ReadError {
    /// Human-readable description, with a byte offset where applicable.
    pub message: String,
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ReadError {}

impl From<JsonError> for ReadError {
    fn from(e: JsonError) -> Self {
        ReadError { message: e.message }
    }
}

fn err<T>(message: impl Into<String>) -> Result<T, ReadError> {
    Err(ReadError {
        message: message.into(),
    })
}

// ---------------------------------------------------------------------
// Schema mapping.
// ---------------------------------------------------------------------

/// The schema tag this reader understands.
pub const CAMPAIGN_SCHEMA: &str = "gatediag-campaign-v1";

fn parse_record(json: &Json, index: usize) -> Result<InstanceRecord, ReadError> {
    let ctx = format!("instance {index}");
    let status_text = json.expect("status", &ctx)?.as_str(&ctx)?;
    let Some(status) = InstanceStatus::parse(status_text) else {
        return err(format!("{ctx}: unknown status `{status_text}`"));
    };
    let fault_text = json.expect("fault_model", &ctx)?.as_str(&ctx)?;
    let Some(fault_model) = FaultModel::parse(fault_text) else {
        return err(format!("{ctx}: unknown fault model `{fault_text}`"));
    };
    let engine_text = json.expect("engine", &ctx)?.as_str(&ctx)?;
    let Some(engine) = EngineKind::parse(engine_text) else {
        return err(format!("{ctx}: unknown engine `{engine_text}`"));
    };
    let solutions = json.expect("solutions", &ctx)?.as_usize(&ctx)?;
    // Quality is null whenever there are no solutions (the emitter's
    // "0.0 would read as a perfect diagnosis" rule); the in-memory
    // default for that case is 0.0.
    let quality = |key: &str| -> Result<f64, ReadError> {
        let value = json.expect(key, &ctx)?;
        if solutions == 0 || *value == Json::Null {
            Ok(0.0)
        } else {
            Ok(value.as_f64(&ctx)?)
        }
    };
    Ok(InstanceRecord {
        circuit: json.expect("circuit", &ctx)?.as_str(&ctx)?.to_string(),
        gates: json.expect("gates", &ctx)?.as_usize(&ctx)?,
        fault_model,
        p: json.expect("p", &ctx)?.as_usize(&ctx)?,
        seed: json.expect("seed", &ctx)?.as_u64(&ctx)?,
        engine,
        // Sequential columns; absent on combinational records (and on
        // every legacy report).
        frames: match json.get("frames") {
            Some(value) => Some(value.as_usize(&ctx)?),
            None => None,
        },
        seq_len: match json.get("seq_len") {
            Some(value) => Some(value.as_usize(&ctx)?),
            None => None,
        },
        k: json.expect("k", &ctx)?.as_usize(&ctx)?,
        tests: json.expect("tests", &ctx)?.as_usize(&ctx)?,
        status,
        candidates: json.expect("candidates", &ctx)?.as_usize(&ctx)?,
        solutions,
        complete: json.expect("complete", &ctx)?.as_bool(&ctx)?,
        hit: json.expect("hit", &ctx)?.as_bool(&ctx)?,
        quality_min: quality("quality_min")?,
        quality_avg: quality("quality_avg")?,
        quality_max: quality("quality_max")?,
        conflicts: json.expect("conflicts", &ctx)?.as_u64(&ctx)?,
        decisions: json.expect("decisions", &ctx)?.as_u64(&ctx)?,
        propagations: json.expect("propagations", &ctx)?.as_u64(&ctx)?,
        // Extended solver statistics: present only on `--solver-stats`
        // reports, zero otherwise (legacy reports never measured them).
        restarts: match json.get("restarts") {
            Some(value) => value.as_u64(&ctx)?,
            None => 0,
        },
        learnt_clauses: match json.get("learnt_clauses") {
            Some(value) => value.as_u64(&ctx)?,
            None => 0,
        },
        gc_runs: match json.get("gc_runs") {
            Some(value) => value.as_u64(&ctx)?,
            None => 0,
        },
        // Absent in pre-robustness reports: one attempt, no failure.
        attempts: match json.get("attempts") {
            Some(value) => u32::try_from(value.as_u64(&ctx)?).map_err(|_| ReadError {
                message: format!("{ctx}: attempts does not fit u32"),
            })?,
            None => 1,
        },
        failure: match json.get("failure") {
            None | Some(Json::Null) => None,
            Some(value) => Some(value.as_str(&ctx)?.to_string()),
        },
        // The shrinkage columns travel together: any one of them implies
        // all four (the emitter writes them as a block, or not at all).
        test_gen: match json.get("gen_tests") {
            None => None,
            Some(gen_tests) => Some(TestGenRecord {
                gen_tests: gen_tests.as_usize(&ctx)?,
                solutions_before: json.expect("solutions_before", &ctx)?.as_usize(&ctx)?,
                solutions_after: json.expect("solutions_after", &ctx)?.as_usize(&ctx)?,
                ambiguity_classes: json.expect("ambiguity_classes", &ctx)?.as_usize(&ctx)?,
            }),
        },
        // Observability traces never travel through the report JSON —
        // they live in the separate trace JSONL stream.
        obs: None,
        // Present only in `--timing` reports; excluded from resume
        // comparisons either way.
        wall_ms: match json.get("wall_ms") {
            Some(value) => value.as_f64(&ctx)?,
            None => 0.0,
        },
    })
}

/// Parses a `gatediag-campaign-v1` JSON report (the output of
/// [`CampaignReport::to_json`], with or without timing).
///
/// # Errors
///
/// Returns a [`ReadError`] for malformed JSON, a wrong/missing schema
/// tag, or unknown enum tokens.
///
/// # Examples
///
/// ```
/// use gatediag_campaign::{parse_report, run_campaign, CampaignSpec};
///
/// let mut spec = CampaignSpec::demo();
/// spec.circuits.truncate(1);
/// spec.error_counts = vec![1];
/// spec.seeds = vec![1];
/// let report = run_campaign(&spec);
/// let json = report.to_json(false);
/// let parsed = parse_report(&json).unwrap();
/// assert_eq!(parsed.to_json(false), json); // byte round-trip
/// ```
pub fn parse_report(text: &str) -> Result<CampaignReport, ReadError> {
    let root = parse_json(text)?;
    let schema = root.expect("schema", "report")?.as_str("schema")?;
    if schema != CAMPAIGN_SCHEMA {
        return err(format!(
            "unsupported schema `{schema}` (expected `{CAMPAIGN_SCHEMA}`)"
        ));
    }
    let matrix = root.expect("matrix", "report")?;
    let strings = |key: &str| -> Result<Vec<String>, ReadError> {
        matrix
            .expect(key, "matrix")?
            .as_arr(key)?
            .iter()
            .map(|v| Ok(v.as_str(key)?.to_string()))
            .collect()
    };
    let circuits = strings("circuits")?;
    let fault_models = strings("fault_models")?
        .iter()
        .map(|name| {
            FaultModel::parse(name)
                .map_or_else(|| err(format!("matrix: unknown fault model `{name}`")), Ok)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let engines = strings("engines")?
        .iter()
        .map(|name| {
            EngineKind::parse(name)
                .map_or_else(|| err(format!("matrix: unknown engine `{name}`")), Ok)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let error_counts = matrix
        .expect("error_counts", "matrix")?
        .as_arr("error_counts")?
        .iter()
        .map(|v| v.as_usize("error_counts"))
        .collect::<Result<Vec<_>, _>>()?;
    let seeds = matrix
        .expect("seeds", "matrix")?
        .as_arr("seeds")?
        .iter()
        .map(|v| v.as_u64("seeds"))
        .collect::<Result<Vec<_>, _>>()?;
    // The sequential axes are present only when the matrix has a
    // sequential engine; an absent axis defaults to the spec default
    // (and is never re-emitted for a purely combinational matrix, so the
    // byte round-trip holds either way).
    let usizes_or = |key: &str, default: Vec<usize>| -> Result<Vec<usize>, ReadError> {
        match matrix.get(key) {
            None => Ok(default),
            Some(value) => value
                .as_arr(key)?
                .iter()
                .map(|v| v.as_usize(key))
                .collect::<Result<Vec<_>, _>>()
                .map_err(ReadError::from),
        }
    };
    let frames = usizes_or("frames", vec![3])?;
    let seq_lens = usizes_or("seq_lens", vec![4])?;
    let k = match matrix.expect("k", "matrix")? {
        Json::Null => None,
        // Legacy emitters wrote the string "p" for "k = p per instance".
        Json::Str(token) if token == "p" => None,
        value => Some(value.as_usize("k")?),
    };
    // Budget fields are absent in pre-budget reports: treat as unlimited.
    let opt_limit = |key: &str| -> Result<Option<u64>, ReadError> {
        matrix.get(key).map_or(Ok(None), |v| Ok(v.as_opt_u64(key)?))
    };
    // Chaos and retry are absent in pre-robustness reports: off / the
    // defaults (which is what those runs effectively used — the runner
    // had no retry loop, so every record took exactly one attempt).
    let chaos = match matrix.get("chaos") {
        None | Some(Json::Null) => None,
        Some(obj) => Some(ChaosConfig {
            seed: obj.expect("seed", "chaos")?.as_u64("chaos seed")?,
            rate_ppm: u32::try_from(obj.expect("rate_ppm", "chaos")?.as_u64("chaos rate_ppm")?)
                .map_err(|_| ReadError {
                    message: "chaos rate_ppm does not fit u32".to_string(),
                })?,
        }),
    };
    let retry = match matrix.get("retry") {
        None => RetryPolicy::default(),
        Some(obj) => {
            let token = obj.expect("retry_on", "retry")?.as_str("retry_on")?;
            let Some(retry_on) = RetryOn::parse(token) else {
                return err(format!("retry: unknown retry_on `{token}`"));
            };
            RetryPolicy {
                max_attempts: u32::try_from(
                    obj.expect("max_attempts", "retry")?
                        .as_u64("retry max_attempts")?,
                )
                .map_err(|_| ReadError {
                    message: "retry max_attempts does not fit u32".to_string(),
                })?,
                backoff_ms: obj
                    .expect("backoff_ms", "retry")?
                    .as_u64("retry backoff_ms")?,
                retry_on,
            }
        }
    };
    // Absent (every legacy report, and campaigns without the phase) or
    // null means "test generation off". Older reports also carry a
    // `rounds` key, which never changed an answer and is ignored.
    let test_gen = match matrix.get("test_gen") {
        None | Some(Json::Null) => false,
        Some(obj) => {
            let mode = obj.expect("mode", "test_gen")?.as_str("test_gen mode")?;
            if mode != "sat" {
                return err(format!("test_gen: unknown mode `{mode}`"));
            }
            true
        }
    };
    // Absent (legacy and default reports) means the extended solver
    // statistics were not emitted.
    let solver_stats = match matrix.get("solver_stats") {
        None | Some(Json::Null) => false,
        Some(value) => value.as_bool("solver_stats")?,
    };
    let bench_warnings = match matrix.get("bench_warnings") {
        None => Vec::new(),
        Some(value) => value
            .as_arr("bench_warnings")?
            .iter()
            .map(|v| Ok(v.as_str("bench_warnings")?.to_string()))
            .collect::<Result<Vec<_>, ReadError>>()?,
    };
    let instances = root.expect("instances", "report")?.as_arr("instances")?;
    let records = instances
        .iter()
        .enumerate()
        .map(|(i, json)| parse_record(json, i))
        .collect::<Result<Vec<_>, _>>()?;
    // A report with two records claiming the same instance identity is
    // corrupt (e.g. a concatenation of two checkpoints): the resume
    // machinery would silently pick one of them, so reject here.
    {
        let mut seen = std::collections::HashSet::new();
        for (i, r) in records.iter().enumerate() {
            if !seen.insert((
                r.circuit.as_str(),
                r.fault_model,
                r.p,
                r.seed,
                r.engine,
                r.frames,
                r.seq_len,
            )) {
                return err(format!(
                    "instance {i}: duplicate record for ({}, {}, p={}, seed={}, {})",
                    r.circuit,
                    r.fault_model.name(),
                    r.p,
                    r.seed,
                    r.engine.name()
                ));
            }
        }
    }
    Ok(CampaignReport {
        circuits,
        fault_models,
        error_counts,
        seeds,
        engines,
        frames,
        seq_lens,
        tests: matrix.expect("tests", "matrix")?.as_usize("tests")?,
        // Absent in legacy reports; `None` means "unknown" and skips the
        // resume-time limit check.
        max_test_vectors: match matrix.get("max_test_vectors") {
            Some(value) => Some(value.as_usize("max_test_vectors")?),
            None => None,
        },
        k,
        max_solutions: matrix
            .expect("max_solutions", "matrix")?
            .as_usize("max_solutions")?,
        conflict_budget: matrix
            .expect("conflict_budget", "matrix")?
            .as_opt_u64("conflict_budget")?,
        work_budget: opt_limit("work_budget")?,
        deadline_ms: opt_limit("deadline_ms")?,
        chaos,
        retry,
        test_gen,
        solver_stats,
        bench_warnings,
        records,
    })
}

/// [`parse_report`] over raw bytes: non-UTF8 input (a corrupted or
/// binary-garbage checkpoint) returns a clean [`ReadError`] instead of
/// forcing every caller to handle the conversion. This is the entry
/// point the CLI resume path uses — a crash can leave *anything* on
/// disk, and resume must degrade to an error message, never a panic.
pub fn parse_report_bytes(bytes: &[u8]) -> Result<CampaignReport, ReadError> {
    let text = std::str::from_utf8(bytes).map_err(|e| ReadError {
        message: format!("report is not valid UTF-8: {e}"),
    })?;
    parse_report(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_errors_surface_with_their_offset() {
        let e = parse_report("{\"schema\": ").expect_err("truncated doc accepted");
        assert!(e.message.contains("JSON parse error at byte"), "{e}");
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let text = r#"{"schema": "something-else", "matrix": {}, "instances": []}"#;
        let e = parse_report(text).expect_err("wrong schema accepted");
        assert!(e.message.contains("unsupported schema"));
    }

    #[test]
    fn legacy_k_p_token_is_accepted() {
        // A minimal legacy-style report: k = "p", no budget fields.
        let text = r#"{
  "schema": "gatediag-campaign-v1",
  "matrix": {
    "circuits": ["c17"],
    "fault_models": ["gate-change"],
    "error_counts": [1],
    "seeds": [1],
    "engines": ["bsat"],
    "tests": 8,
    "k": "p",
    "max_solutions": 10000,
    "conflict_budget": null
  },
  "instances": []
}"#;
        let report = parse_report(text).expect("legacy report must parse");
        assert_eq!(report.k, None);
        assert_eq!(report.work_budget, None);
        assert_eq!(report.deadline_ms, None);
        assert_eq!(report.max_test_vectors, None, "legacy = unknown");
        // Re-emission uses the one-type spelling.
        assert!(report.to_json(false).contains("\"k\": null"));
    }
}
