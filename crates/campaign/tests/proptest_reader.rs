//! Property tests for the report reader: `parse_report_bytes` must never
//! panic, whatever bytes it is fed. A valid report is generated once, then
//! mutated — bit flips, insertions, deletions, truncations — and parsed.
//! Valid inputs must keep parsing; corrupted inputs must fail *cleanly*
//! with `Err`, not a panic, because `--resume` feeds user-supplied files
//! (possibly half-written checkpoints from a crashed run) straight into
//! this parser.

use gatediag_campaign::{parse_report_bytes, run_campaign, CampaignSpec, RetryOn, RetryPolicy};
use gatediag_core::{ChaosConfig, EngineKind};
use gatediag_netlist::{c17, FaultModel};
use proptest::collection::vec;
use proptest::prelude::*;

/// One small real campaign over c17, serialised with every new schema
/// feature present: chaos config, retry policy, bench warnings,
/// discriminating-test generation (so the shrinkage columns are in the
/// fuzzed bytes), a sequential engine (so the frames/seq_len axes and
/// columns are too), and (at this chaos rate) a mix of ok / failed /
/// preempted records.
fn base_report_json() -> String {
    let mut spec = CampaignSpec::new(vec![("c17".to_string(), c17())]);
    spec.fault_models = vec![FaultModel::GateChange, FaultModel::StuckAt];
    spec.error_counts = vec![1];
    spec.seeds = vec![1, 2];
    spec.engines = vec![EngineKind::Bsim, EngineKind::Cov, EngineKind::SeqBsim];
    spec.test_gen = true;
    spec.chaos = Some(ChaosConfig {
        seed: 3,
        rate_ppm: 400_000,
    });
    spec.retry = RetryPolicy {
        max_attempts: 1,
        backoff_ms: 0,
        retry_on: RetryOn::PanicOrDeadline,
    };
    spec.bench_warnings = vec!["skipped broken.bench: parse error".to_string()];
    run_campaign(&spec).to_json(false)
}

/// A single byte-level corruption: `(op, position, value)`.
type Mutation = (u8, u64, u8);

fn apply(bytes: &mut Vec<u8>, (op, pos, value): Mutation) {
    if bytes.is_empty() {
        bytes.push(value);
        return;
    }
    let at = (pos % bytes.len() as u64) as usize;
    match op % 4 {
        0 => bytes[at] ^= 1 << (value % 8), // bit flip
        1 => bytes.insert(at, value),       // insert a byte
        2 => {
            bytes.remove(at); // delete a byte
        }
        _ => bytes.truncate(at), // truncate (torn write)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Any pile-up of corruptions yields `Ok` or a clean `Err` — never a
    /// panic. (The test body reaching its end IS the assertion: a panic
    /// anywhere inside `parse_report_bytes` fails the case.)
    #[test]
    fn mutated_reports_never_panic(mutations in vec((0u8..4, 0u64..1 << 20, 0u8..=255), 1..10)) {
        let mut bytes = base_report_json().into_bytes();
        for m in mutations {
            apply(&mut bytes, m);
        }
        let _ = parse_report_bytes(&bytes);
    }

    /// Every prefix of a valid report — the shape a torn checkpoint write
    /// would have without the atomic tmp+rename — parses without panicking.
    #[test]
    fn truncated_reports_never_panic(cut in 0u64..1 << 20) {
        let json = base_report_json();
        let at = (cut % (json.len() as u64 + 1)) as usize;
        let _ = parse_report_bytes(&json.as_bytes()[..at]);
    }
}

#[test]
fn unmutated_base_report_round_trips() {
    let json = base_report_json();
    let report = parse_report_bytes(json.as_bytes()).expect("own output parses");
    assert_eq!(
        report.chaos,
        Some(ChaosConfig {
            seed: 3,
            rate_ppm: 400_000
        })
    );
    assert_eq!(report.retry.retry_on, RetryOn::PanicOrDeadline);
    assert_eq!(report.bench_warnings.len(), 1);
    assert!(report.test_gen);
    // The shrinkage columns survive the parse (some record ran the
    // phase) and re-emission is byte-identical.
    let parsed_tg: Vec<_> = report.records.iter().filter_map(|r| r.test_gen).collect();
    assert!(!parsed_tg.is_empty(), "no shrinkage columns parsed back");
    for tg in parsed_tg {
        assert!(tg.solutions_after <= tg.solutions_before);
    }
    // The sequential axes and per-record columns survive the parse.
    assert_eq!(report.frames, vec![3]);
    assert_eq!(report.seq_lens, vec![4]);
    assert!(
        report
            .records
            .iter()
            .any(|r| r.frames == Some(3) && r.seq_len == Some(4)),
        "no sequential columns parsed back"
    );
    assert_eq!(report.to_json(false), json);
}

#[test]
fn non_utf8_input_is_a_clean_error() {
    let err = parse_report_bytes(&[0x7b, 0xff, 0xfe, 0x7d]).unwrap_err();
    assert!(err.to_string().contains("UTF-8"), "{err}");
}
