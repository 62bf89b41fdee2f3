//! The gatediag benchmark: one command over three workloads, one per
//! front door.
//!
//! ```text
//! perfbench --workload <campaign-triage|engine-enum|serve-mixed>
//!           --seed N --seconds S --trace <0|1> [--scale smoke] [--corrupt]
//! perfbench --diff OLD_OUTPUT NEW_OUTPUT
//! ```
//!
//! A run prints two JSON lines on stdout. The first is the full report:
//! host, seed, every metric by name with its unit (end-to-end and, with
//! `--trace 1`, per layer), the deterministic counters, the exact
//! outputs (digests, quality figures) and the workload's shares. The
//! last line is the summary `{"correct", "attempted", "failed",
//! "metrics"}`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`.
//!
//! `--diff` compares the report lines of two saved outputs and prints
//! the exact delta of every deterministic counter and exact output; it
//! exits 1 when any differs (a behaviour change, whatever the timing).

mod campaign_triage;
mod engine_enum;
mod layers;
mod pins;
mod serve_mixed;
mod util;

use gatediag_core::json::{parse_json, Json};
use std::collections::BTreeMap;
use std::process::ExitCode;
use util::{Outcome, RunConfig};

const WORKLOADS: [&str; 3] = ["campaign-triage", "engine-enum", "serve-mixed"];

/// End-to-end metrics: printed by every untraced run.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("instances_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: printed by every traced run. A metric that does
/// not apply to the workload reads 0 (see the report line's
/// `per_layer_measured`).
const PER_LAYER: [(&str, &str); 38] = [
    ("netlist.inject_ms", "ms"),
    ("tests.ms", "ms"),
    ("tests.calls_per_prepare", "ratio"),
    ("tests.no_failing_share", "ratio"),
    ("tests.no_failing_time_share", "ratio"),
    ("sim.sweeps", "count"),
    ("sim.gate_evals", "count"),
    ("sim.gate_evals_per_s", "1/s"),
    ("bsim.trace_ms", "ms"),
    ("cov.cover_ms", "ms"),
    ("validity.screen_ms", "ms"),
    ("validity.dispatch.sim", "count"),
    ("validity.dispatch.sat", "count"),
    ("engine.solutions", "count"),
    ("engine.complete_share", "ratio"),
    ("cnf.encode_ms", "ms"),
    ("cnf.clauses", "count"),
    ("cnf.clauses_per_s", "1/s"),
    ("sat.solve_ms", "ms"),
    ("sat.conflicts", "count"),
    ("sat.propagations", "count"),
    ("sat.props_per_s", "1/s"),
    ("seq.tests_ms", "ms"),
    ("seq.engine_ms", "ms"),
    ("sim.seq_frames", "count"),
    ("campaign.pool_utilisation", "ratio"),
    ("campaign.report_ms", "ms"),
    ("campaign.instance_self_ms", "ms"),
    ("serve.parse_mb_per_s", "MB/s"),
    ("serve.registry_us", "us"),
    ("serve.registry_hit_ratio", "ratio"),
    ("serve.memo_hit_ratio", "ratio"),
    ("serve.handle_hit_ms", "ms"),
    ("serve.handle_cold_ms", "ms"),
    ("serve.handle_same_prepare_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("obs.overhead_frac", "ratio"),
    ("layers.attributed_share", "ratio"),
];

struct Args {
    workload: String,
    config: RunConfig,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut config = RunConfig {
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        corrupt: false,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = || {
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| format!("{flag} expects a value"))
        };
        match flag {
            "--workload" => workload = Some(value()?),
            "--seed" => config.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                config.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                config.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other}")),
                };
            }
            "--scale" => {
                config.smoke = match value()?.as_str() {
                    "full" => false,
                    "smoke" => true,
                    other => return Err(format!("--scale expects full or smoke, got {other}")),
                };
            }
            "--corrupt" => config.corrupt = true,
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {WORKLOADS:?})"
        ));
    }
    Ok(Args { workload, config })
}

fn num(v: f64) -> Json {
    Json::Num(format!("{v}"))
}

fn str_obj(map: &BTreeMap<String, String>) -> Json {
    Json::Obj(
        map.iter()
            .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
            .collect(),
    )
}

fn metric_obj(value: f64, unit: &str) -> Json {
    Json::Obj(vec![
        ("value".to_string(), num(value)),
        ("unit".to_string(), Json::Str(unit.to_string())),
    ])
}

/// The commit, when the benchmark runs from a git checkout.
fn commit() -> String {
    if let Ok(c) = std::env::var("GIT_COMMIT") {
        return c;
    }
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None => head.to_string(),
    }
}

fn report_line(args: &Args, out: &Outcome) -> String {
    let cfg = &args.config;
    let host = Json::Obj(vec![
        (
            "nproc".to_string(),
            num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("commit".to_string(), Json::Str(commit())),
        (
            "profile".to_string(),
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .to_string(),
            ),
        ),
    ]);
    let measured: Vec<Json> = PER_LAYER
        .iter()
        .filter(|(name, _)| out.metrics.iter().any(|m| m.name == *name))
        .map(|(name, _)| Json::Str(name.to_string()))
        .collect();
    Json::Obj(vec![
        ("perfbench".to_string(), num(1.0)),
        ("workload".to_string(), Json::Str(args.workload.clone())),
        ("seed".to_string(), Json::Num(cfg.seed.to_string())),
        ("seconds".to_string(), num(cfg.seconds)),
        ("trace".to_string(), Json::Bool(cfg.trace)),
        (
            "scale".to_string(),
            Json::Str(if cfg.smoke { "smoke" } else { "full" }.to_string()),
        ),
        ("host".to_string(), host),
        ("correct".to_string(), Json::Bool(out.correct)),
        (
            "attempted".to_string(),
            Json::Num(out.attempted.to_string()),
        ),
        ("failed".to_string(), Json::Num(out.failed.to_string())),
        (
            "metrics".to_string(),
            Json::Obj(
                out.metrics
                    .iter()
                    .map(|m| (m.name.clone(), metric_obj(m.value, m.unit)))
                    .collect(),
            ),
        ),
        ("per_layer_measured".to_string(), Json::Arr(measured)),
        (
            "counters".to_string(),
            Json::Obj(
                out.counters
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(v.to_string())))
                    .collect(),
            ),
        ),
        ("exact".to_string(), str_obj(&out.exact)),
        ("info".to_string(), str_obj(&out.info)),
    ])
    .render()
}

fn summary_line(cfg: &RunConfig, out: &Outcome) -> String {
    let names: &[(&str, &str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = names
        .iter()
        .map(|(name, unit)| {
            let value = out
                .metrics
                .iter()
                .find(|m| m.name == *name)
                .map_or(0.0, |m| m.value);
            (name.to_string(), metric_obj(value, unit))
        })
        .collect();
    Json::Obj(vec![
        ("correct".to_string(), Json::Bool(out.correct)),
        (
            "attempted".to_string(),
            Json::Num(out.attempted.to_string()),
        ),
        ("failed".to_string(), Json::Num(out.failed.to_string())),
        ("metrics".to_string(), Json::Obj(metrics)),
    ])
    .render()
}

/// The report line of a saved output: its last line carrying the
/// `perfbench` key.
fn load_report(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .rev()
        .filter_map(|line| parse_json(line).ok())
        .find(|v| v.get("perfbench").is_some())
        .ok_or_else(|| format!("{path}: no perfbench report line"))
}

fn fields(v: &Json, key: &str) -> BTreeMap<String, String> {
    match v.get(key) {
        Some(Json::Obj(items)) => items
            .iter()
            .map(|(k, v)| {
                let text = match v {
                    Json::Num(n) => n.clone(),
                    Json::Str(s) => s.clone(),
                    other => other.render(),
                };
                (k.clone(), text)
            })
            .collect(),
        _ => BTreeMap::new(),
    }
}

/// Prints every counter and exact-output difference; returns whether
/// the two runs behaved identically.
fn diff(old_path: &str, new_path: &str) -> Result<bool, String> {
    let (old, new) = (load_report(old_path)?, load_report(new_path)?);
    for key in ["workload", "scale", "trace"] {
        let (a, b) = (
            old.get(key).map(Json::render),
            new.get(key).map(Json::render),
        );
        if a != b {
            println!("note: {key} differs ({a:?} vs {b:?}); counters are not comparable");
        }
    }
    let mut same = true;
    for section in ["counters", "exact"] {
        let (a, b) = (fields(&old, section), fields(&new, section));
        let keys: std::collections::BTreeSet<&String> = a.keys().chain(b.keys()).collect();
        for k in keys {
            let (x, y) = (a.get(k), b.get(k));
            if x == y {
                continue;
            }
            same = false;
            let show = |v: Option<&String>| v.map_or("absent".to_string(), String::clone);
            let delta = match (
                x.and_then(|s| s.parse::<i128>().ok()),
                y.and_then(|s| s.parse::<i128>().ok()),
            ) {
                (Some(p), Some(q)) => format!(" ({:+})", q - p),
                _ => String::new(),
            };
            println!("{section}.{k}: {} -> {}{delta}", show(x), show(y));
        }
    }
    println!(
        "{}",
        if same {
            "no behaviour change: every counter and exact output is identical"
        } else {
            "behaviour changed"
        }
    );
    Ok(same)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--diff") {
        if argv.len() != 3 {
            eprintln!("usage: perfbench --diff OLD_OUTPUT NEW_OUTPUT");
            return ExitCode::from(2);
        }
        return match diff(&argv[1], &argv[2]) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = &args.config;
    let result = match args.workload.as_str() {
        "campaign-triage" => campaign_triage::run(cfg),
        "engine-enum" => engine_enum::run(cfg),
        _ => serve_mixed::run(cfg),
    };
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed to run: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    println!("{}", report_line(&args, &out));
    println!("{}", summary_line(cfg, &out));
    ExitCode::SUCCESS
}
