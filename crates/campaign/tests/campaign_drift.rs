//! Worker-count invariance for the campaign runner, in the style of
//! `crates/core/tests/parallel_drift.rs`: the same `CampaignSpec` must
//! yield **byte-identical** JSON (and CSV, and summary) reports whatever
//! the worker pool looks like — explicit `Fixed(1/2/8)` policies and the
//! `GATEDIAG_WORKERS=1/2/8` environment override alike.

use gatediag_campaign::{run_campaign, CampaignSpec, InstanceStatus};
use gatediag_core::{run_diagnose, ChaosPolicy, DiagnoseRequest, EngineKind};
use gatediag_netlist::{FaultModel, RandomCircuitSpec};
use gatediag_sim::Parallelism;

/// A matrix small enough for a debug-mode test but wide enough to cover
/// every fault model, a SAT engine, a sim engine and the validity
/// screen, plus skipped instances (p larger than c17 can host).
fn drift_spec() -> CampaignSpec {
    let mut spec = CampaignSpec::new(vec![
        ("c17".to_string(), gatediag_netlist::c17()),
        (
            "rnd40".to_string(),
            RandomCircuitSpec::new(6, 3, 40)
                .seed(3)
                .name("rnd40")
                .generate(),
        ),
    ]);
    spec.fault_models = FaultModel::ALL.to_vec();
    spec.error_counts = vec![1, 2];
    spec.seeds = vec![1, 2];
    spec.engines = vec![EngineKind::Bsim, EngineKind::Cov, EngineKind::Bsat];
    spec.tests = 6;
    spec.max_test_vectors = 1 << 12;
    spec
}

#[test]
fn reports_are_byte_identical_for_all_worker_counts() {
    let mut spec = drift_spec();
    spec.parallelism = Parallelism::Sequential;
    let reference = run_campaign(&spec);
    let ref_json = reference.to_json(false);
    let ref_csv = reference.to_csv(false);
    let ref_summary = reference.summary_table();
    // The matrix exercises real instances, not just skips.
    assert!(reference
        .records
        .iter()
        .any(|r| r.status == gatediag_campaign::InstanceStatus::Ok));
    for workers in [1usize, 2, 8] {
        spec.parallelism = Parallelism::Fixed(workers);
        let report = run_campaign(&spec);
        assert_eq!(
            report.to_json(false),
            ref_json,
            "JSON drifted at {workers} workers"
        );
        assert_eq!(
            report.to_csv(false),
            ref_csv,
            "CSV drifted at {workers} workers"
        );
        assert_eq!(
            report.summary_table(),
            ref_summary,
            "summary drifted at {workers} workers"
        );
    }
}

#[test]
fn reports_are_byte_identical_under_the_env_override() {
    // `Parallelism::Auto` reads GATEDIAG_WORKERS; this is the only test
    // in the suite that touches the variable, so the serial set/run
    // sequence below cannot race another env reader.
    let mut spec = drift_spec();
    spec.parallelism = Parallelism::Auto;
    let mut outputs = Vec::new();
    for workers in ["1", "2", "8"] {
        std::env::set_var("GATEDIAG_WORKERS", workers);
        outputs.push(run_campaign(&spec).to_json(false));
    }
    std::env::remove_var("GATEDIAG_WORKERS");
    assert_eq!(outputs[0], outputs[1], "GATEDIAG_WORKERS=2 drifted");
    assert_eq!(outputs[0], outputs[2], "GATEDIAG_WORKERS=8 drifted");
}

#[test]
fn budget_preempted_reports_are_byte_identical_for_all_worker_counts() {
    // The budget extension of the drift contract: a *work*-budgeted
    // campaign whose instances actually get preempted must still emit
    // byte-identical reports for every worker count, with the truncated
    // instances recorded as `preempted`.
    let mut spec = drift_spec();
    spec.engines = vec![
        EngineKind::Bsim,
        EngineKind::Cov,
        EngineKind::Bsat,
        EngineKind::Auto,
    ];
    // Fewer work units than tests per instance: every sim-side engine's
    // first phase (tracing `spec.tests = 6` tests) runs out of budget.
    spec.work_budget = Some(3);
    spec.parallelism = Parallelism::Sequential;
    let reference = run_campaign(&spec);
    let preempted = reference
        .records
        .iter()
        .filter(|r| r.status == gatediag_campaign::InstanceStatus::Preempted)
        .count();
    assert!(
        preempted > 0,
        "the work budget preempted nothing — the guard is not wired in"
    );
    // Preempted records are partial, never complete.
    for r in &reference.records {
        if r.status == gatediag_campaign::InstanceStatus::Preempted {
            assert!(!r.complete, "preempted instance marked complete");
        }
    }
    let ref_json = reference.to_json(false);
    let ref_csv = reference.to_csv(false);
    let ref_summary = reference.summary_table();
    assert!(ref_json.contains("\"status\": \"preempted\""));
    assert!(ref_csv.contains(",preempted,"));
    for workers in [1usize, 2, 8] {
        spec.parallelism = Parallelism::Fixed(workers);
        let report = run_campaign(&spec);
        assert_eq!(
            report.to_json(false),
            ref_json,
            "budgeted JSON drifted at {workers} workers"
        );
        assert_eq!(
            report.to_csv(false),
            ref_csv,
            "budgeted CSV drifted at {workers} workers"
        );
        assert_eq!(
            report.summary_table(),
            ref_summary,
            "budgeted summary drifted at {workers} workers"
        );
    }
}

#[test]
fn test_gen_reports_are_byte_identical_for_all_worker_counts() {
    // The discriminating-test-generation extension of the drift
    // contract: with `--test-gen sat` on, the shrinkage columns join the
    // byte-identity guarantee — and the phase must actually bite
    // (generated tests, a strict shrinkage somewhere).
    let mut spec = drift_spec();
    spec.test_gen = true;
    spec.parallelism = Parallelism::Sequential;
    let reference = run_campaign(&spec);
    let with_columns: Vec<_> = reference
        .records
        .iter()
        .filter_map(|r| r.test_gen)
        .collect();
    assert!(
        !with_columns.is_empty(),
        "no record carries the shrinkage columns — the phase is not wired in"
    );
    for tg in &with_columns {
        assert!(tg.solutions_after <= tg.solutions_before);
    }
    assert!(
        with_columns
            .iter()
            .any(|tg| tg.solutions_after < tg.solutions_before),
        "no instance shrank strictly — the generated tests discriminate nothing"
    );
    assert!(with_columns.iter().any(|tg| tg.gen_tests > 0));
    let ref_json = reference.to_json(false);
    let ref_csv = reference.to_csv(false);
    let ref_summary = reference.summary_table();
    assert!(ref_json.contains("\"test_gen\": {\"mode\": \"sat\"}"));
    assert!(ref_json.contains("\"solutions_after\":"));
    assert!(ref_summary.contains("test-gen:"));
    for workers in [1usize, 2, 8] {
        spec.parallelism = Parallelism::Fixed(workers);
        let report = run_campaign(&spec);
        assert_eq!(
            report.to_json(false),
            ref_json,
            "test-gen JSON drifted at {workers} workers"
        );
        assert_eq!(
            report.to_csv(false),
            ref_csv,
            "test-gen CSV drifted at {workers} workers"
        );
        assert_eq!(
            report.summary_table(),
            ref_summary,
            "test-gen summary drifted at {workers} workers"
        );
    }
}

/// A matrix mixing combinational and sequential engines, with the
/// frames × seq_lens axes crossed in: every cell has one combinational
/// prepare key and one per sequential axis pair, sharing one injection.
fn mixed_spec() -> CampaignSpec {
    let mut spec = CampaignSpec::new(vec![
        ("c17".to_string(), gatediag_netlist::c17()),
        (
            "rnd40s".to_string(),
            RandomCircuitSpec::new(6, 3, 40)
                .latches(4)
                .seed(5)
                .name("rnd40s")
                .generate(),
        ),
    ]);
    spec.fault_models = vec![FaultModel::GateChange, FaultModel::StuckAt];
    spec.error_counts = vec![1];
    spec.seeds = vec![1, 2];
    spec.engines = vec![
        EngineKind::Bsim,
        EngineKind::SeqBsim,
        EngineKind::Bsat,
        EngineKind::SeqBsat,
    ];
    spec.frames = vec![2, 3];
    spec.seq_lens = vec![4];
    spec.tests = 6;
    spec.max_test_vectors = 1 << 12;
    spec
}

#[test]
fn sequential_reports_are_byte_identical_for_all_worker_counts() {
    // The sequential extension of the drift contract: a matrix mixing
    // combinational and sequential engines (with the frames × seq_lens
    // axes crossed in) must emit byte-identical reports — and traces,
    // although cells now share their prepares — for every worker count.
    let mut spec = mixed_spec();
    spec.collect_obs = true;
    spec.parallelism = Parallelism::Sequential;
    let reference = run_campaign(&spec);
    // The matrix exercises real sequential instances, not just skips.
    assert!(
        reference
            .records
            .iter()
            .any(|r| r.frames.is_some() && r.status == InstanceStatus::Ok),
        "no sequential instance ran an engine"
    );
    let ref_json = reference.to_json(false);
    let ref_csv = reference.to_csv(false);
    let ref_summary = reference.summary_table();
    let ref_trace = reference.to_trace_jsonl(false);
    assert!(ref_json.contains("\"frames\": [2, 3]"));
    assert!(ref_json.contains("\"seq_len\": 4"));
    for workers in [1usize, 2, 8] {
        spec.parallelism = Parallelism::Fixed(workers);
        let report = run_campaign(&spec);
        assert_eq!(
            report.to_json(false),
            ref_json,
            "sequential JSON drifted at {workers} workers"
        );
        assert_eq!(
            report.to_csv(false),
            ref_csv,
            "sequential CSV drifted at {workers} workers"
        );
        assert_eq!(
            report.summary_table(),
            ref_summary,
            "sequential summary drifted at {workers} workers"
        );
        assert_eq!(
            report.to_trace_jsonl(false),
            ref_trace,
            "sequential trace drifted at {workers} workers"
        );
    }
}

#[test]
fn cells_charge_inject_once_and_tests_once_per_prepare_key() {
    let mut spec = mixed_spec();
    spec.collect_obs = true;
    let report = run_campaign(&spec);
    let spans = |r: &gatediag_campaign::InstanceRecord, name: &str| {
        let trace = r.obs.as_ref().expect("trace collected");
        trace.spans.iter().filter(|s| s.name == name).count()
    };
    let mut cells = std::collections::BTreeMap::new();
    for r in &report.records {
        let cell = (r.circuit.clone(), r.fault_model.name(), r.p, r.seed);
        cells.entry(cell).or_insert_with(Vec::new).push(r);
    }
    for (cell, records) in cells {
        // The first instance of a cell injects; nobody else does.
        assert_eq!(spans(records[0], "inject"), 1, "{cell:?}");
        assert!(records[1..].iter().all(|r| spans(r, "inject") == 0));
        if records[0].status == InstanceStatus::NotInjectable {
            continue;
        }
        // One `tests` span per prepare key: the combinational key plus
        // each (frames, seq_len) pair — charged to the first instance of
        // the key in matrix order.
        let mut keys = std::collections::BTreeSet::new();
        for r in &records {
            let first = keys.insert((r.frames, r.seq_len));
            assert_eq!(spans(r, "tests"), usize::from(first), "{cell:?} {r:?}");
        }
        assert_eq!(keys.len(), 3);
    }
}

#[test]
fn cells_charge_one_cover_span_per_cover_key() {
    // `cov` and `auto` share one COV phase per prepare: whichever runs
    // first in a cell opens the `cover` span, every later run of the same
    // cover key (one per cell here: k, caps and budgets are campaign-wide)
    // charges `cov.cover_reuses` instead.
    for engines in [
        vec![EngineKind::Cov, EngineKind::Bsim, EngineKind::Auto],
        vec![EngineKind::Auto, EngineKind::Cov],
    ] {
        let mut spec = drift_spec();
        spec.engines = engines;
        spec.collect_obs = true;
        let report = run_campaign(&spec);
        let mut cells = std::collections::BTreeMap::new();
        for r in &report.records {
            let cell = (r.circuit.clone(), r.fault_model.name(), r.p, r.seed);
            cells.entry(cell).or_insert_with(Vec::new).push(r);
        }
        let mut shared = 0;
        for (cell, records) in cells {
            let trace = |r: &gatediag_campaign::InstanceRecord| r.obs.clone().expect("traced");
            let covers: usize = records
                .iter()
                .map(|r| trace(r).spans.iter().filter(|s| s.name == "cover").count())
                .sum();
            let reuses: u64 = records
                .iter()
                .map(|r| trace(r).counter("cov.cover_reuses"))
                .sum();
            let covering = records
                .iter()
                .filter(|r| matches!(r.engine, EngineKind::Cov | EngineKind::Auto))
                .filter(|r| matches!(r.status, InstanceStatus::Ok | InstanceStatus::Preempted))
                .count();
            assert_eq!(covers, usize::from(covering > 0), "{cell:?}");
            assert_eq!(reuses as usize, covering.saturating_sub(1), "{cell:?}");
            shared += usize::from(covering > 1);
        }
        assert!(shared > 0, "no cell shared its covers");
    }
}

#[test]
fn cov_computes_the_shared_cover_phase_in_any_engine_order() {
    // A cell runs `auto` after its other engines, so the `cover` span is
    // always the `cov` instance's and the reuse always `auto`'s: which
    // instance carries the phase's cost does not depend on the order the
    // spec lists the engines in.
    for engines in [
        vec![EngineKind::Auto, EngineKind::Cov, EngineKind::Bsim],
        vec![EngineKind::Bsim, EngineKind::Cov, EngineKind::Auto],
    ] {
        let mut spec = drift_spec();
        spec.engines = engines.clone();
        spec.collect_obs = true;
        let report = run_campaign(&spec);
        let mut checked = 0;
        for cell in report.records.chunks(engines.len()) {
            let ran = |engine: EngineKind| {
                cell.iter().find(|r| {
                    r.engine == engine
                        && matches!(r.status, InstanceStatus::Ok | InstanceStatus::Preempted)
                })
            };
            let (Some(cov), Some(auto)) = (ran(EngineKind::Cov), ran(EngineKind::Auto)) else {
                continue;
            };
            let covers = |r: &gatediag_campaign::InstanceRecord| {
                let trace = r.obs.as_ref().expect("traced");
                let spans = trace.spans.iter().filter(|s| s.name == "cover").count();
                (spans, trace.counter("cov.cover_reuses"))
            };
            assert_eq!(covers(cov), (1, 0), "{engines:?} {cov:?}");
            assert_eq!(covers(auto), (0, 1), "{engines:?} {auto:?}");
            checked += 1;
        }
        assert!(checked > 0, "no cell ran both cov and auto");
    }
}

#[test]
fn every_record_equals_a_per_instance_run_diagnose() {
    let spec = mixed_spec();
    let report = run_campaign(&spec);
    for (record, inst) in report.records.iter().zip(spec.instances()) {
        let golden = &spec.circuits[inst.circuit].1;
        let request = DiagnoseRequest {
            engine: inst.engine,
            fault_model: inst.fault_model,
            p: inst.p,
            seed: inst.seed,
            tests: spec.tests,
            max_test_vectors: spec.max_test_vectors,
            k: spec.k,
            frames: inst.frames,
            seq_len: inst.seq_len,
            max_solutions: spec.max_solutions,
            conflict_budget: spec.conflict_budget,
            work_budget: spec.work_budget,
            deadline_ms: spec.deadline_ms,
            test_gen: false,
        };
        let outcome = run_diagnose(
            golden,
            &request,
            Parallelism::Sequential,
            ChaosPolicy::off(),
        );
        let context = format!("{inst:?}");
        assert_eq!(record.status.name(), outcome.status.name(), "{context}");
        assert_eq!(record.tests, outcome.tests, "{context}");
        let Some(run) = &outcome.run else {
            assert_eq!(record.solutions, 0, "{context}");
            continue;
        };
        let errors: Vec<_> = outcome.faults.iter().map(|f| f.gate).collect();
        assert_eq!(record.candidates, run.candidates.len(), "{context}");
        assert_eq!(record.solutions, run.solutions.len(), "{context}");
        assert_eq!(record.complete, run.complete, "{context}");
        assert_eq!(
            record.hit,
            run.candidates.iter().any(|g| errors.contains(g)),
            "{context}"
        );
        assert_eq!(record.conflicts, run.stats.conflicts, "{context}");
        assert_eq!(record.decisions, run.stats.decisions, "{context}");
        assert_eq!(record.propagations, run.stats.propagations, "{context}");
    }
}

#[test]
fn timing_is_the_only_nondeterministic_field() {
    // Two runs of the same spec agree on everything except wall_ms.
    let spec = drift_spec();
    let a = run_campaign(&spec);
    let b = run_campaign(&spec);
    assert_eq!(a.to_json(false), b.to_json(false));
    for (ra, rb) in a.records.iter().zip(&b.records) {
        let mut ra = ra.clone();
        let mut rb = rb.clone();
        ra.wall_ms = 0.0;
        rb.wall_ms = 0.0;
        assert_eq!(ra, rb);
    }
}

#[test]
fn trace_counters_are_byte_identical_for_all_worker_counts() {
    // The observability extension of the drift contract: with trace
    // collection on, the timing-free trace JSONL — span tree plus every
    // deterministic counter — joins the byte-identity guarantee. Engines
    // are pinned sequential inside an instance, so nothing a campaign
    // worker charges may depend on how many workers the pool has.
    let mut spec = drift_spec();
    spec.collect_obs = true;
    spec.parallelism = Parallelism::Sequential;
    let reference = run_campaign(&spec);
    let ref_trace = reference.to_trace_jsonl(false);
    // The traces are real: every record carries one, the SAT engine and
    // the simulator both charged counters, and the span tree parses back
    // with its nesting invariant intact.
    assert!(reference.records.iter().all(|r| r.obs.is_some()));
    for counter in ["sim.sweeps", "sat.solves", "cnf.clauses", "pool.tasks"] {
        assert!(
            ref_trace.contains(counter),
            "no instance charged `{counter}`"
        );
    }
    let parsed = gatediag_obs::parse_trace(&ref_trace).expect("trace JSONL round-trips");
    assert_eq!(parsed.len(), reference.records.len());
    for line in &parsed {
        assert_eq!(line.trace.spans[0].name, "instance");
    }
    for workers in [1usize, 2, 8] {
        spec.parallelism = Parallelism::Fixed(workers);
        let report = run_campaign(&spec);
        assert_eq!(
            report.to_trace_jsonl(false),
            ref_trace,
            "trace JSONL drifted at {workers} workers"
        );
    }
    // Trace collection must not leak into the ordinary report: the JSON
    // and CSV stay byte-identical to an obs-off run of the same matrix.
    spec.parallelism = Parallelism::Sequential;
    spec.collect_obs = false;
    let plain = run_campaign(&spec);
    assert!(plain.records.iter().all(|r| r.obs.is_none()));
    assert_eq!(plain.to_json(false), reference.to_json(false));
    assert_eq!(plain.to_csv(false), reference.to_csv(false));
}

#[test]
fn solver_stats_columns_are_byte_identical_and_opt_in() {
    // The solver-stats extension of the drift contract: with the flag on,
    // the restarts / learnt_clauses / gc_runs columns are deterministic
    // across worker counts; with it off, reports never mention them.
    let mut spec = drift_spec();
    spec.solver_stats = true;
    spec.parallelism = Parallelism::Sequential;
    let reference = run_campaign(&spec);
    let ref_json = reference.to_json(false);
    let ref_csv = reference.to_csv(false);
    assert!(ref_json.contains("\"solver_stats\": true"));
    assert!(ref_json.contains("\"restarts\":"));
    assert!(ref_json.contains("\"gc_runs\":"));
    assert!(ref_csv
        .lines()
        .next()
        .unwrap()
        .contains(",restarts,learnt_clauses,gc_runs,"));
    // The SAT engines in the matrix really exercise the learnt-clause
    // machinery somewhere — the columns are not structurally zero.
    assert!(
        reference.records.iter().any(|r| r.learnt_clauses > 0),
        "no instance learnt a clause — the stats are not wired through"
    );
    for workers in [1usize, 2, 8] {
        spec.parallelism = Parallelism::Fixed(workers);
        let report = run_campaign(&spec);
        assert_eq!(
            report.to_json(false),
            ref_json,
            "solver-stats JSON drifted at {workers} workers"
        );
        assert_eq!(
            report.to_csv(false),
            ref_csv,
            "solver-stats CSV drifted at {workers} workers"
        );
    }
    // Off by default: no column name appears anywhere in the output.
    spec.parallelism = Parallelism::Sequential;
    spec.solver_stats = false;
    let plain = run_campaign(&spec);
    for needle in ["restarts", "learnt_clauses", "gc_runs", "solver_stats"] {
        assert!(!plain.to_json(false).contains(needle));
        assert!(!plain.to_csv(false).contains(needle));
    }
}

/// Drops every `, "wall_ms": <number>` field from a report JSON string.
/// `wall_ms` is always the last field of its record object, so skipping
/// from the match to the next `}` removes exactly the timing column.
fn strip_wall_ms(json: &str) -> String {
    let mut out = String::new();
    let mut rest = json;
    while let Some(pos) = rest.find(", \"wall_ms\":") {
        out.push_str(&rest[..pos]);
        let tail = &rest[pos..];
        let end = tail.find('}').expect("wall_ms is the last record field");
        rest = &tail[end..];
    }
    out.push_str(rest);
    out
}

#[test]
fn timing_flag_adds_only_the_wall_ms_column() {
    // Regression for the wall-clock quarantine now that `wall_ms` is
    // measured by the root observability span: `--timing` still changes
    // nothing but the one timing column, in JSON and CSV alike.
    let spec = drift_spec();
    let report = run_campaign(&spec);
    assert_eq!(strip_wall_ms(&report.to_json(true)), report.to_json(false));
    let timed_csv = report.to_csv(true);
    let plain_csv = report.to_csv(false);
    for (timed, plain) in timed_csv.lines().zip(plain_csv.lines()) {
        let (prefix, wall) = timed.rsplit_once(',').expect("timed CSV has columns");
        assert_eq!(prefix, plain);
        assert!(wall == "wall_ms" || wall.parse::<f64>().is_ok());
    }
    assert_eq!(timed_csv.lines().count(), plain_csv.lines().count());
    // The measurement is real: instances that ran an engine took time.
    assert!(report
        .records
        .iter()
        .any(|r| r.status == gatediag_campaign::InstanceStatus::Ok && r.wall_ms > 0.0));
}
