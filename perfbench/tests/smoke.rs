//! Reduced-size smoke test of the benchmark itself: every metric that
//! `BENCHMARK.json` names is printed with its unit, a corrupted output
//! fails the correctness check, and the diff mode separates identical
//! behaviour from changed behaviour.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use gatediag_core::json::{parse_json, Json};
use std::process::{Command, Output};

const WORKLOADS: [&str; 3] = ["campaign-triage", "engine-enum", "serve-mixed"];

fn perfbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("perfbench runs")
}

/// Runs one smoke-scale workload; returns its whole stdout.
fn smoke(workload: &str, trace: &str, extra: &[&str]) -> String {
    let mut args = vec![
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "0",
        "--trace",
        trace,
        "--scale",
        "smoke",
    ];
    args.extend_from_slice(extra);
    let out = perfbench(&args);
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

fn summary(stdout: &str) -> Json {
    parse_json(stdout.lines().last().expect("a summary line")).expect("summary is JSON")
}

fn report(stdout: &str) -> Json {
    let lines: Vec<&str> = stdout.lines().collect();
    parse_json(lines[lines.len() - 2]).expect("report is JSON")
}

/// Per-layer metrics each workload must actually measure (not print as
/// a placeholder 0).
fn expected_layers(workload: &str) -> &'static [&'static str] {
    match workload {
        "campaign-triage" => &[
            "netlist.inject_ms",
            "tests.ms",
            "tests.calls_per_prepare",
            "sim.sweeps",
            "sim.gate_evals",
            "sim.gate_evals_per_s",
            "bsim.trace_ms",
            "cov.cover_ms",
            "cnf.encode_ms",
            "sat.solve_ms",
            "sat.propagations",
            "engine.solutions",
            "campaign.pool_utilisation",
            "campaign.report_ms",
            "campaign.instance_self_ms",
            "layers.attributed_share",
            "obs.overhead_frac",
        ],
        "engine-enum" => &[
            "tests.ms",
            "cov.cover_ms",
            "validity.screen_ms",
            "cnf.encode_ms",
            "cnf.clauses",
            "cnf.clauses_per_s",
            "sat.solve_ms",
            "sat.conflicts",
            "sat.props_per_s",
            "seq.tests_ms",
            "seq.engine_ms",
            "sim.seq_frames",
            "engine.solutions",
            "engine.complete_share",
            "layers.attributed_share",
            "obs.overhead_frac",
        ],
        _ => &[
            "serve.parse_mb_per_s",
            "serve.registry_us",
            "serve.registry_hit_ratio",
            "serve.memo_hit_ratio",
            "serve.handle_hit_ms",
            "serve.handle_cold_ms",
            "serve.handle_same_prepare_ms",
            "serve.transport_ms",
            "sim.gate_evals",
            "obs.overhead_frac",
        ],
    }
}

/// Per-layer metrics that are a difference of two timings.
const DIFFERENCES: [&str; 2] = ["obs.overhead_frac", "serve.transport_ms"];

fn value(metrics: &Json, name: &str) -> f64 {
    metrics
        .get(name)
        .and_then(|m| m.get("value"))
        .and_then(|v| v.as_f64("value").ok())
        .unwrap_or_else(|| panic!("{name} has no value"))
}

fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let bench = parse_json(&text).expect("BENCHMARK.json parses");
    bench
        .expect(section, "benchmark")
        .and_then(|s| s.as_arr(section))
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(|v| v.as_str(k).ok())
                    .expect(k)
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_declared_metric_is_printed_with_its_unit() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let names = declared(section);
        for workload in WORKLOADS {
            let stdout = smoke(workload, trace, &[]);
            let s = summary(&stdout);
            assert_eq!(s.get("correct"), Some(&Json::Bool(true)), "{workload}");
            assert_eq!(s.get("failed").map(Json::render).as_deref(), Some("0"));
            let Some(metrics @ Json::Obj(items)) = s.get("metrics") else {
                panic!("{workload}: no metrics object");
            };
            let printed: Vec<(String, String)> = items
                .iter()
                .map(|(name, m)| {
                    let unit = m.get("unit").unwrap().as_str("unit").unwrap();
                    (name.clone(), unit.to_string())
                })
                .collect();
            assert_eq!(printed, names, "{workload} --trace {trace}");
            if trace == "0" {
                // Every end-to-end metric is measured on every workload.
                for (name, _) in &names {
                    assert!(
                        value(metrics, name) > 0.0,
                        "{workload}: {name} is not measured"
                    );
                }
                continue;
            }
            let measured = report(&stdout)
                .get("per_layer_measured")
                .and_then(|m| m.as_arr("per_layer_measured").ok())
                .expect("a per_layer_measured list")
                .iter()
                .map(Json::render)
                .collect::<Vec<_>>();
            for name in expected_layers(workload) {
                assert!(
                    measured.contains(&format!("\"{name}\"")),
                    "{workload}: {name} is not measured"
                );
                // Differences of two timings may read 0 or below.
                if !DIFFERENCES.contains(name) {
                    assert!(value(metrics, name) > 0.0, "{workload}: {name} reads 0");
                }
            }
        }
    }
}

#[test]
fn a_corrupted_output_fails_the_check() {
    for workload in WORKLOADS {
        let s = summary(&smoke(workload, "0", &["--corrupt"]));
        assert_eq!(s.get("correct"), Some(&Json::Bool(false)), "{workload}");
        let failed = s.get("failed").unwrap().as_u64("failed").unwrap();
        assert!(
            failed >= 1,
            "{workload}: the corrupted output was not counted"
        );
    }
}

#[test]
fn diff_mode_flags_changed_outputs_only() {
    let dir = env!("CARGO_TARGET_TMPDIR");
    let save = |name: &str, text: String| {
        let path = format!("{dir}/{name}");
        std::fs::write(&path, text).expect("write run output");
        path
    };
    let first = save("first.txt", smoke("engine-enum", "1", &[]));
    let again = save("again.txt", smoke("engine-enum", "1", &[]));
    let corrupt = save("corrupt.txt", smoke("engine-enum", "1", &["--corrupt"]));
    let same = perfbench(&["--diff", &first, &again]);
    assert!(
        same.status.success(),
        "{}",
        String::from_utf8_lossy(&same.stdout)
    );
    let changed = perfbench(&["--diff", &first, &corrupt]);
    assert_eq!(changed.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&changed.stdout).contains("exact.digest"));
}
