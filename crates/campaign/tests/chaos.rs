//! The chaos contract: deterministic fault injection composes with every
//! robustness guarantee. Injected panics are isolated to their instance
//! and recorded as `failed`; injected preemptions flow through the budget
//! machinery; retries recover transient chaos; reports stay byte-identical
//! across worker counts; checkpoints are valid partial reports that
//! `--resume` turns back into the uninterrupted run, byte for byte.

use gatediag_campaign::{
    parse_report_bytes, resume_campaign, run_campaign, run_campaign_checkpointed, CampaignReport,
    CampaignSpec, CheckpointPolicy, InstanceStatus, RetryOn, RetryPolicy,
};
use gatediag_core::{ChaosConfig, EngineKind};
use gatediag_netlist::{FaultModel, RandomCircuitSpec};
use gatediag_sim::Parallelism;

/// A small matrix with chaos on: enough instances (64) that a 35% rate
/// reliably injects all three event kinds.
fn chaos_spec() -> CampaignSpec {
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
    spec.engines = vec![EngineKind::Bsim, EngineKind::Bsat];
    spec.tests = 6;
    spec.max_test_vectors = 1 << 12;
    spec.chaos = Some(ChaosConfig {
        seed: 11,
        rate_ppm: 350_000,
    });
    spec.retry = RetryPolicy {
        max_attempts: 1,
        backoff_ms: 0,
        retry_on: RetryOn::Panic,
    };
    spec
}

/// Injected panics never take down the campaign, and chaos reports obey
/// the same drift contract as everything else: byte-identical JSON, CSV
/// and summary for Sequential and Fixed(1/2/8) pools.
#[test]
fn chaos_reports_are_byte_identical_for_all_worker_counts() {
    let mut spec = chaos_spec();
    spec.parallelism = Parallelism::Sequential;
    let reference = run_campaign(&spec);
    let failed = reference
        .records
        .iter()
        .filter(|r| r.status == InstanceStatus::Failed)
        .count();
    assert!(failed > 0, "chaos rate 35% injected no panics");
    assert!(
        reference
            .records
            .iter()
            .any(|r| r.status == InstanceStatus::Ok),
        "chaos killed every instance"
    );
    for r in &reference.records {
        if r.status == InstanceStatus::Failed {
            assert!(!r.complete);
            assert_eq!(r.attempts, 1);
            let reason = r.failure.as_deref().expect("failed record has a reason");
            assert!(reason.contains("chaos:"), "unexpected reason: {reason}");
        } else {
            assert!(r.failure.is_none(), "non-failed record carries a reason");
        }
    }
    let ref_json = reference.to_json(false);
    let ref_csv = reference.to_csv(false);
    let ref_summary = reference.summary_table();
    assert!(ref_json.contains("\"status\": \"failed\""));
    assert!(ref_csv.contains(",failed,"));
    for workers in [1usize, 2, 8] {
        spec.parallelism = Parallelism::Fixed(workers);
        let report = run_campaign(&spec);
        assert_eq!(
            report.to_json(false),
            ref_json,
            "chaos JSON drifted at {workers} workers"
        );
        assert_eq!(
            report.to_csv(false),
            ref_csv,
            "chaos CSV drifted at {workers} workers"
        );
        assert_eq!(
            report.summary_table(),
            ref_summary,
            "chaos summary drifted at {workers} workers"
        );
    }
}

/// Spurious-preempt and work-inflation events go through the ordinary
/// budget machinery: no budget is configured, yet `preempted` records
/// appear, partial and truncated like any genuinely budgeted run.
#[test]
fn chaos_preemptions_use_the_budget_machinery() {
    let spec = chaos_spec();
    let report = run_campaign(&spec);
    let preempted: Vec<_> = report
        .records
        .iter()
        .filter(|r| r.status == InstanceStatus::Preempted)
        .collect();
    assert!(
        !preempted.is_empty(),
        "no spurious preemption fired at 35% chaos"
    );
    for r in preempted {
        assert!(!r.complete, "preempted instance marked complete");
        assert!(r.failure.is_none(), "preemption is not a failure");
    }
}

/// Each attempt rerolls the chaos decision (the attempt number feeds the
/// key), so retrying recovers instances a single attempt loses — and the
/// recovered records agree with a chaos-free run of the same matrix on
/// everything but the attempt count.
#[test]
fn retries_recover_injected_panics() {
    let mut spec = chaos_spec();
    let one_shot = run_campaign(&spec);
    let failed_once = one_shot
        .records
        .iter()
        .filter(|r| r.status == InstanceStatus::Failed)
        .count();
    assert!(failed_once > 0);

    spec.retry.max_attempts = 5;
    let retried = run_campaign(&spec);
    let failed_retried = retried
        .records
        .iter()
        .filter(|r| r.status == InstanceStatus::Failed)
        .count();
    assert!(
        failed_retried < failed_once,
        "5 attempts recovered nothing ({failed_once} -> {failed_retried})"
    );
    assert!(
        retried.records.iter().any(|r| r.attempts > 1),
        "no record shows a retry"
    );

    // A recovered instance matches the chaos-free record except for the
    // bookkeeping: same candidates, solutions, hit, quality.
    spec.chaos = None;
    spec.retry = RetryPolicy::default();
    let clean = run_campaign(&spec);
    for (r, c) in retried.records.iter().zip(&clean.records) {
        if r.status != InstanceStatus::Ok || r.attempts == 1 {
            continue;
        }
        assert_eq!(r.circuit, c.circuit);
        assert_eq!(
            r.status, c.status,
            "{}: retry changed the outcome",
            r.circuit
        );
        assert_eq!(r.candidates, c.candidates);
        assert_eq!(r.solutions, c.solutions);
        assert_eq!(r.hit, c.hit);
    }
}

/// A retried attempt reuses the prepare its failed predecessor built (or
/// builds it, if the panic came first): with retries and traces on, a
/// chaos campaign's reports and traces stay byte-identical across
/// worker counts.
#[test]
fn retried_attempts_share_prepares_identically_for_all_worker_counts() {
    let mut spec = chaos_spec();
    spec.retry.max_attempts = 3;
    spec.collect_obs = true;
    spec.parallelism = Parallelism::Sequential;
    let reference = run_campaign(&spec);
    assert!(
        reference
            .records
            .iter()
            .any(|r| r.attempts > 1 && r.status != InstanceStatus::Failed),
        "no instance recovered on a retry"
    );
    let ref_json = reference.to_json(false);
    let ref_trace = reference.to_trace_jsonl(false);
    for workers in [1usize, 2, 8] {
        spec.parallelism = Parallelism::Fixed(workers);
        let report = run_campaign(&spec);
        assert_eq!(report.to_json(false), ref_json, "JSON drifted at {workers}");
        assert_eq!(
            report.to_trace_jsonl(false),
            ref_trace,
            "trace drifted at {workers}"
        );
    }
}

/// The autosaved checkpoint is a valid `gatediag-campaign-v1` report:
/// parseable, and — because the final autosave covers the whole matrix —
/// equal to the finished report. No `.tmp` staging file survives.
#[test]
fn checkpoint_is_a_valid_report_and_leaves_no_tmp() {
    let dir = std::env::temp_dir().join(format!("gatediag_chaos_ckpt_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("checkpoint.json");

    let mut spec = chaos_spec();
    spec.parallelism = Parallelism::Fixed(2);
    let policy = CheckpointPolicy {
        path: path.clone(),
        every: 5,
    };
    let report = run_campaign_checkpointed(&spec, Some(&policy));

    let bytes = std::fs::read(&path).expect("checkpoint written");
    let saved = parse_report_bytes(&bytes).expect("checkpoint parses");
    assert_eq!(saved.to_json(false), report.to_json(false));
    assert!(
        !dir.join("checkpoint.json.tmp").exists(),
        "staging file left behind"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crash recovery, library-level: serialise a *partial* report (as a
/// mid-run checkpoint would hold), parse it back, resume — the merged
/// report is byte-identical to an uninterrupted run, chaos and all.
#[test]
fn resume_from_partial_checkpoint_matches_uninterrupted_run() {
    let spec = chaos_spec();
    let full = run_campaign(&spec);
    assert!(full.records.len() > 10);

    // A checkpoint written after roughly a third of the matrix.
    let partial_records: Vec<_> = full
        .records
        .iter()
        .take(full.records.len() / 3)
        .cloned()
        .collect();
    let checkpoint = CampaignReport::new(&spec, partial_records).to_json(false);
    let previous = parse_report_bytes(checkpoint.as_bytes()).expect("partial checkpoint parses");
    let resumed = resume_campaign(&spec, &previous).expect("resume accepts the checkpoint");
    assert_eq!(
        resumed.to_json(false),
        full.to_json(false),
        "resume-after-crash drifted from the uninterrupted run"
    );
    assert_eq!(resumed.to_csv(false), full.to_csv(false));
}
