//! Resumable campaigns: the reader round-trip and the resume contract.
//!
//! The headline property (an acceptance criterion of the budget PR): a
//! `--resume` of a partial report reproduces the fresh full-run report
//! **byte-for-byte** (timing excluded) — including when the partial run
//! was preempted by a work budget, and when the resume *extends* the
//! matrix beyond what the partial run covered.

use gatediag_campaign::{
    parse_report, resume_campaign, run_campaign, CampaignSpec, InstanceStatus,
};
use gatediag_core::EngineKind;
use gatediag_netlist::{FaultModel, RandomCircuitSpec};

fn base_spec() -> CampaignSpec {
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
    spec.fault_models = vec![FaultModel::GateChange, FaultModel::StuckAt];
    spec.error_counts = vec![1, 2];
    spec.seeds = vec![1, 2];
    spec.engines = vec![EngineKind::Bsim, EngineKind::Bsat, EngineKind::Auto];
    spec.tests = 6;
    spec.max_test_vectors = 1 << 12;
    spec
}

#[test]
fn json_report_round_trips_byte_for_byte() {
    for timing in [false, true] {
        let report = run_campaign(&base_spec());
        let json = report.to_json(timing);
        let parsed = parse_report(&json).expect("own emitter output must parse");
        assert_eq!(
            parsed.to_json(timing),
            json,
            "round-trip not byte-identical (timing = {timing})"
        );
        // The parsed records agree field-for-field modulo the float
        // rounding the emitter itself applies.
        assert_eq!(parsed.records.len(), report.records.len());
        for (a, b) in parsed.records.iter().zip(&report.records) {
            assert_eq!(a.circuit, b.circuit);
            assert_eq!(a.status, b.status);
            assert_eq!(a.solutions, b.solutions);
            assert_eq!(a.conflicts, b.conflicts);
        }
    }
}

#[test]
fn resume_of_half_the_matrix_matches_a_fresh_full_run() {
    let full_spec = base_spec();
    let fresh = run_campaign(&full_spec);

    // Partial run: half the seeds (an interrupted campaign).
    let mut half_spec = full_spec.clone();
    half_spec.seeds = vec![1];
    let partial = run_campaign(&half_spec);
    assert!(partial.records.len() < fresh.records.len());

    // Resume through the JSON file exactly as the CLI does: emit, parse,
    // resume with the extended matrix.
    let parsed = parse_report(&partial.to_json(false)).expect("partial report parses");
    let resumed = resume_campaign(&full_spec, &parsed).expect("limits match");
    assert_eq!(
        resumed.to_json(false),
        fresh.to_json(false),
        "resumed JSON differs from a fresh full run"
    );
    assert_eq!(resumed.to_csv(false), fresh.to_csv(false));
    assert_eq!(resumed.summary_table(), fresh.summary_table());
}

#[test]
fn resume_of_half_cells_matches_a_fresh_full_run() {
    // A cell is the run of instances sharing (circuit, fault model, p,
    // seed). Keep only the first engine of every cell, and the last of
    // every other one, so resumed cells start both at and after their
    // first instance: the resumed instances prepare for themselves.
    let spec = base_spec();
    let fresh = run_campaign(&spec);
    let engines = spec.engines.len();
    let kept: Vec<_> = fresh
        .records
        .iter()
        .enumerate()
        .filter(|(i, _)| {
            let (cell, slot) = (i / engines, i % engines);
            slot == 0 || (cell % 2 == 1 && slot == engines - 1)
        })
        .map(|(_, r)| r.clone())
        .collect();
    assert!(kept.len() < fresh.records.len());
    let partial = gatediag_campaign::CampaignReport::new(&spec, kept);
    let parsed = parse_report(&partial.to_json(false)).expect("partial report parses");
    let resumed = resume_campaign(&spec, &parsed).expect("limits match");
    assert_eq!(resumed.to_json(false), fresh.to_json(false));
    assert_eq!(resumed.to_csv(false), fresh.to_csv(false));
}

#[test]
fn resume_skips_recorded_instances_including_preempted_ones() {
    let mut spec = base_spec();
    spec.work_budget = Some(3); // preempts the 6-test sim-side instances
    let first = run_campaign(&spec);
    assert!(first
        .records
        .iter()
        .any(|r| r.status == InstanceStatus::Preempted));
    // Resuming the *same* matrix re-runs nothing and reproduces the
    // report — preempted records are recorded results, not gaps.
    let resumed = resume_campaign(&spec, &first).expect("limits match");
    assert_eq!(resumed.to_json(false), first.to_json(false));

    // And an extended resume still matches the fresh extended run.
    let mut extended = spec.clone();
    extended.seeds = vec![1, 2, 3];
    let resumed = resume_campaign(&extended, &first).expect("limits match");
    assert_eq!(
        resumed.to_json(false),
        run_campaign(&extended).to_json(false)
    );
}

#[test]
fn resume_rejects_mismatched_limits() {
    let spec = base_spec();
    let report = run_campaign(&spec);
    for (what, mutate) in [
        (
            "tests",
            Box::new(|s: &mut CampaignSpec| s.tests = 7) as Box<dyn Fn(&mut CampaignSpec)>,
        ),
        ("k", Box::new(|s: &mut CampaignSpec| s.k = Some(1))),
        (
            "max_test_vectors",
            Box::new(|s: &mut CampaignSpec| s.max_test_vectors = 1 << 10),
        ),
        (
            "max_solutions",
            Box::new(|s: &mut CampaignSpec| s.max_solutions = 5),
        ),
        (
            "conflict_budget",
            Box::new(|s: &mut CampaignSpec| s.conflict_budget = Some(17)),
        ),
        (
            "work_budget",
            Box::new(|s: &mut CampaignSpec| s.work_budget = Some(17)),
        ),
        (
            "deadline_ms",
            Box::new(|s: &mut CampaignSpec| s.deadline_ms = Some(17)),
        ),
        // Turning test generation on rewrites the shrinkage columns of
        // every record — resuming across the switch must be rejected.
        (
            "test_gen",
            Box::new(|s: &mut CampaignSpec| s.test_gen = true),
        ),
    ] {
        let mut changed = spec.clone();
        mutate(&mut changed);
        let e = resume_campaign(&changed, &report)
            .expect_err(&format!("{what} change must be rejected"));
        assert!(e.contains(what), "error does not name `{what}`: {e}");
    }
    // Matrix-shape changes are fine (that is the extension use case).
    let mut wider = spec.clone();
    wider.engines.push(EngineKind::Cov);
    wider.seeds.push(9);
    assert!(resume_campaign(&wider, &report).is_ok());
}

#[test]
fn legacy_reports_without_test_gen_columns_resume_cleanly() {
    // A report written before the test-gen feature has neither the
    // matrix echo nor the per-record columns. The reader must treat that
    // as "off", and a resume with test generation off must accept it.
    let spec = base_spec();
    let report = run_campaign(&spec);
    let json = report.to_json(false);
    assert!(
        !json.contains("test_gen") && !json.contains("gen_tests"),
        "a test-gen-off report must not mention the feature at all"
    );
    let parsed = parse_report(&json).expect("legacy-shaped report parses");
    assert!(!parsed.test_gen);
    assert!(parsed.records.iter().all(|r| r.test_gen.is_none()));
    assert!(resume_campaign(&spec, &parsed).is_ok());
    // But a spec that turned the phase on cannot reuse those records.
    let mut on = spec.clone();
    on.test_gen = true;
    let e = resume_campaign(&on, &parsed).expect_err("test-gen switch must be rejected");
    assert!(e.contains("test_gen"), "{e}");
}

#[test]
fn test_gen_resume_matches_a_fresh_full_run() {
    // The headline resume property extends over the shrinkage columns:
    // resuming a half-matrix test-gen campaign through the JSON file
    // reproduces the fresh full test-gen run byte-for-byte.
    let mut full_spec = base_spec();
    full_spec.test_gen = true;
    let fresh = run_campaign(&full_spec);
    let mut half_spec = full_spec.clone();
    half_spec.seeds = vec![1];
    let partial = run_campaign(&half_spec).to_json(false);
    // Older reports also echo a `rounds` setting; the reader ignores it,
    // so they resume exactly like current ones.
    let echo = "\"test_gen\": {\"mode\": \"sat\"}";
    assert!(partial.contains(echo), "{partial}");
    let older = partial.replacen(echo, "\"test_gen\": {\"mode\": \"sat\", \"rounds\": 4}", 1);
    for json in [partial, older] {
        let parsed = parse_report(&json).expect("partial report parses");
        assert!(parsed.test_gen);
        let resumed = resume_campaign(&full_spec, &parsed).expect("limits match");
        assert_eq!(resumed.to_json(false), fresh.to_json(false));
        assert_eq!(resumed.to_csv(false), fresh.to_csv(false));
        assert_eq!(resumed.summary_table(), fresh.summary_table());
    }
}

#[test]
fn sequential_resume_matches_a_fresh_full_run() {
    // The resume contract over the sequential axes: a half-matrix
    // sequential campaign resumed through the JSON file — extending both
    // the seeds and the frames axis — reproduces the fresh full run
    // byte-for-byte. The axes live in the per-record identity key, so a
    // record produced under frames = 2 is never reused for frames = 3.
    let mut full_spec = CampaignSpec::new(vec![
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
    full_spec.fault_models = vec![FaultModel::GateChange];
    full_spec.error_counts = vec![1];
    full_spec.seeds = vec![1, 2];
    full_spec.engines = vec![EngineKind::Bsim, EngineKind::SeqBsat];
    full_spec.frames = vec![2, 3];
    full_spec.seq_lens = vec![4];
    full_spec.tests = 6;
    full_spec.max_test_vectors = 1 << 12;
    let fresh = run_campaign(&full_spec);

    let mut half_spec = full_spec.clone();
    half_spec.seeds = vec![1];
    half_spec.frames = vec![2];
    let partial = run_campaign(&half_spec);
    assert!(partial.records.len() < fresh.records.len());

    let parsed = parse_report(&partial.to_json(false)).expect("partial report parses");
    assert_eq!(parsed.frames, vec![2]);
    assert_eq!(parsed.seq_lens, vec![4]);
    let resumed = resume_campaign(&full_spec, &parsed).expect("limits match");
    assert_eq!(
        resumed.to_json(false),
        fresh.to_json(false),
        "sequential resume differs from a fresh full run"
    );
    assert_eq!(resumed.to_csv(false), fresh.to_csv(false));
    assert_eq!(resumed.summary_table(), fresh.summary_table());
}

#[test]
fn resume_rejects_changed_circuit_content() {
    // Records are keyed by circuit name; a same-named circuit with
    // different content must not silently reuse stale records.
    let spec = base_spec();
    let report = run_campaign(&spec);
    let mut changed = spec.clone();
    changed.circuits[1] = (
        "rnd40".to_string(), // same name...
        RandomCircuitSpec::new(6, 3, 48) // ...different circuit
            .seed(4)
            .name("rnd40")
            .generate(),
    );
    let e = resume_campaign(&changed, &report).expect_err("stale records must be rejected");
    assert!(e.contains("rnd40") && e.contains("content changed"), "{e}");
}

#[test]
fn dropped_instances_do_not_leak_into_a_narrowed_resume() {
    let spec = base_spec();
    let report = run_campaign(&spec);
    let mut narrow = spec.clone();
    narrow.seeds = vec![2];
    narrow.engines = vec![EngineKind::Bsat];
    let resumed = resume_campaign(&narrow, &report).expect("limits match");
    assert_eq!(
        resumed.to_json(false),
        run_campaign(&narrow).to_json(false),
        "narrowed resume must drop out-of-matrix records"
    );
}
