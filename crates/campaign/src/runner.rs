//! The parallel campaign runner.
//!
//! The work item is one *cell*: the instances sharing (circuit, fault
//! model, p, seed), which are contiguous in matrix order because engines
//! are the innermost axis. A cell injects its faults once and collects
//! its failing tests once per prepare key (the combinational key, plus
//! one per sequential `(frames, seq_len)` pair), then runs every engine
//! on them — the paper's setting, where BSIM, COV and BSAT diagnose the
//! same test-set. Cells are fanned out over
//! [`gatediag_sim::parallel_map_init_isolated`] (work-stealing over a
//! shared index, matrix order) and merged back **in instance order**, so
//! the report is bit-identical for every worker count — the same
//! determinism contract as every other parallel flow in this workspace.
//!
//! Three design points keep that contract airtight:
//!
//! * every record is a pure function of `(spec, instance)`: a
//!   [`Prepared`] depends only on its prepare key, so sharing it inside
//!   a cell changes no record, and nothing is shared across cells;
//! * inside a cell, instances run in matrix order, except that `auto`
//!   runs after the cell's other engines (so a `cov` always computes the
//!   shared COV phase), and each builds its key's [`Prepared`] lazily
//!   inside its own observability sink and root `instance` span. Exactly
//!   one instance per key — the first to run — is charged the
//!   `inject`/`tests` spans and their counters, whatever the worker
//!   count, so traces stay byte-identical too;
//! * engines run with [`Parallelism::Sequential`] *inside* a work item:
//!   the campaign level owns the worker pool, which avoids nested pools
//!   oversubscribing the machine, and makes each item's cost independent
//!   of the schedule. (The per-instance engines still reuse their
//!   internal incremental state across the instance's tests and candidate
//!   sets — the engine-reuse machinery of PRs 2-3.)
//!
//! Chaos fires and wall deadlines anchor at engine entry, never during a
//! prepare; a panic during a prepare caches nothing for its key, so the
//! next attempt rebuilds it.
//!
//! Wall-clock time is the one nondeterministic measurement; it is
//! recorded per instance but excluded from reports unless explicitly
//! requested (see [`crate::report::CampaignReport::to_json`]).

use crate::report::{CampaignReport, InstanceRecord, InstanceStatus, TestGenRecord};
use crate::spec::{CampaignSpec, InstanceSpec, RetryOn};
use gatediag_core::budget::Truncation;
use gatediag_core::{
    inject, prepare_injected, run_prepared, solution_quality, ChaosPolicy, DiagnoseRequest,
    DiagnoseStatus, EngineKind, Injection, PrepareKey, Prepared,
};
use gatediag_netlist::{Circuit, FaultModel, GateId};
use gatediag_sim::{parallel_map_init_isolated, Parallelism};
use std::collections::HashMap;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;

/// Autosave policy for long campaigns: at the first cell boundary after
/// at least `every` newly resolved instances, the runner atomically
/// rewrites `path` with a valid partial `gatediag-campaign-v1` report
/// (the records resolved so far, in matrix order). A SIGKILL
/// mid-campaign then loses at most one checkpoint interval:
/// `gatediag campaign --resume <path>` ingests the checkpoint
/// through the ordinary resume machinery and re-runs only the missing
/// instances.
///
/// Writes are crash-atomic — the report is written to `<path>.tmp`,
/// flushed, and renamed over `path` — so the checkpoint file is always a
/// complete, parseable report, never a torn prefix. Checkpoint IO
/// failures are reported to stderr and do not abort the campaign (the
/// checkpoint is an insurance policy, not a result).
#[derive(Clone, Debug)]
pub struct CheckpointPolicy {
    /// Where the checkpoint report lives.
    pub path: PathBuf,
    /// Checkpoint at the first cell boundary after this many resolved
    /// instances (minimum 1).
    pub every: usize,
}

/// Runs every instance of the campaign and collects the merged report.
///
/// Instances run through the crash-isolated pool path: a panicking
/// instance (an engine bug, or injected chaos) is retried per
/// [`CampaignSpec::retry`] and, if every attempt fails, recorded as
/// [`InstanceStatus::Failed`] with the panic reason — one poisoned
/// instance never takes down the campaign.
///
/// # Examples
///
/// ```
/// use gatediag_campaign::{run_campaign, CampaignSpec};
///
/// let mut spec = CampaignSpec::demo();
/// // Shrink the matrix for a doctest-sized run.
/// spec.circuits.truncate(1);
/// spec.error_counts = vec![1];
/// spec.seeds = vec![1];
/// let report = run_campaign(&spec);
/// assert_eq!(report.records.len(), spec.instances().len());
/// ```
pub fn run_campaign(spec: &CampaignSpec) -> CampaignReport {
    run_campaign_checkpointed(spec, None)
}

/// [`run_campaign`] with optional autosave checkpoints.
pub fn run_campaign_checkpointed(
    spec: &CampaignSpec,
    checkpoint: Option<&CheckpointPolicy>,
) -> CampaignReport {
    let instances = spec.instances();
    let slots = vec![None; instances.len()];
    let records = fill_missing(spec, &instances, slots, checkpoint);
    CampaignReport::new(spec, records)
}

/// Identity of one instance inside a report — the resume key. The two
/// trailing `Option`s are the sequential axes (`frames`, `seq_len`);
/// `None` for combinational engines. Keying on them (rather than
/// limit-checking them) lets a resume legitimately *extend* the
/// sequential matrix while still guaranteeing a record produced under
/// different sequential parameters is never reused.
type InstanceKey<'a> = (
    &'a str,
    FaultModel,
    usize,
    u64,
    EngineKind,
    Option<usize>,
    Option<usize>,
);

fn instance_key<'a>(spec: &'a CampaignSpec, inst: &InstanceSpec) -> InstanceKey<'a> {
    (
        spec.circuits[inst.circuit].0.as_str(),
        inst.fault_model,
        inst.p,
        inst.seed,
        inst.engine,
        inst.frames,
        inst.seq_len,
    )
}

fn record_key(record: &InstanceRecord) -> InstanceKey<'_> {
    (
        record.circuit.as_str(),
        record.fault_model,
        record.p,
        record.seed,
        record.engine,
        record.frames,
        record.seq_len,
    )
}

/// Resumes a campaign from a previous report: instances whose
/// `(circuit, fault model, p, seed, engine)` identity already has a
/// record in `previous` are *skipped* (the old record is reused
/// verbatim, including `preempted` ones); only the missing instances
/// run. Old and new records merge **in matrix order**, so — because
/// every record is a pure function of `(spec, instance)` — a resumed
/// run's report is byte-identical (timing excluded) to a fresh full run
/// of the same spec.
///
/// The spec may *extend* the matrix of the previous run (more seeds,
/// circuits, engines, fault models, error counts) or shrink it (records
/// with no matching instance are dropped), but the per-instance limits
/// (`tests`, `k`, `max_solutions` and the budgets) must match: a record
/// produced under different limits is not the record a fresh run would
/// produce, so resuming across limit changes is rejected.
///
/// # Errors
///
/// Returns a description of the first mismatched limit.
///
/// # Examples
///
/// ```
/// use gatediag_campaign::{resume_campaign, run_campaign, CampaignSpec};
///
/// let mut spec = CampaignSpec::demo();
/// spec.circuits.truncate(1);
/// spec.error_counts = vec![1];
/// spec.seeds = vec![1];
/// let partial = run_campaign(&spec);
/// // Extend the matrix by a seed and resume: seed-1 records are reused.
/// spec.seeds = vec![1, 2];
/// let resumed = resume_campaign(&spec, &partial).unwrap();
/// assert_eq!(resumed.to_json(false), run_campaign(&spec).to_json(false));
/// ```
pub fn resume_campaign(
    spec: &CampaignSpec,
    previous: &CampaignReport,
) -> Result<CampaignReport, String> {
    resume_campaign_checkpointed(spec, previous, None)
}

/// [`resume_campaign`] with optional autosave checkpoints for the
/// still-missing instances — the crash-recovery loop closes here: a
/// killed run's checkpoint resumes *into* a new checkpointed run.
pub fn resume_campaign_checkpointed(
    spec: &CampaignSpec,
    previous: &CampaignReport,
    checkpoint: Option<&CheckpointPolicy>,
) -> Result<CampaignReport, String> {
    let limit_checks: [(&str, String, String); 12] = [
        ("tests", spec.tests.to_string(), previous.tests.to_string()),
        (
            "max_test_vectors",
            // `None` in a parsed legacy report means "unknown": nothing
            // to compare against, so the check is skipped by echoing the
            // spec's own value.
            spec.max_test_vectors.to_string(),
            previous
                .max_test_vectors
                .unwrap_or(spec.max_test_vectors)
                .to_string(),
        ),
        ("k", format!("{:?}", spec.k), format!("{:?}", previous.k)),
        (
            "max_solutions",
            spec.max_solutions.to_string(),
            previous.max_solutions.to_string(),
        ),
        (
            "conflict_budget",
            format!("{:?}", spec.conflict_budget),
            format!("{:?}", previous.conflict_budget),
        ),
        (
            "work_budget",
            format!("{:?}", spec.work_budget),
            format!("{:?}", previous.work_budget),
        ),
        (
            "deadline_ms",
            format!("{:?}", spec.deadline_ms),
            format!("{:?}", previous.deadline_ms),
        ),
        // Chaos changes per-instance outcomes exactly like a limit does;
        // a resume mixing chaos and clean records would not match a
        // fresh run of either spec.
        (
            "chaos",
            format!("{:?}", spec.chaos),
            format!("{:?}", previous.chaos),
        ),
        // Retry attempts and the retry trigger shape the records
        // (`attempts`, which failures become `failed`); the backoff is
        // wall-time only and deliberately excluded.
        (
            "retry max_attempts",
            spec.retry.max_attempts.to_string(),
            previous.retry.max_attempts.to_string(),
        ),
        (
            "retry_on",
            spec.retry.retry_on.name().to_string(),
            previous.retry.retry_on.name().to_string(),
        ),
        // Test generation rewrites the shrinkage columns of every record;
        // a resume mixing shrunk and unshrunk records would not match a
        // fresh run of either spec.
        (
            "test_gen",
            spec.test_gen.to_string(),
            previous.test_gen.to_string(),
        ),
        // The extended solver-statistics columns change the serialised
        // shape of every record; mixing reports with and without them
        // would match neither fresh run byte-for-byte.
        (
            "solver_stats",
            spec.solver_stats.to_string(),
            previous.solver_stats.to_string(),
        ),
    ];
    for (name, ours, theirs) in &limit_checks {
        if ours != theirs {
            return Err(format!(
                "cannot resume: {name} differs (spec {ours}, previous report {theirs}); \
                 resumed records would not match a fresh run"
            ));
        }
    }
    let mut previous_by_key: HashMap<InstanceKey<'_>, &InstanceRecord> = HashMap::new();
    for record in &previous.records {
        // First occurrence wins, matching matrix order.
        previous_by_key.entry(record_key(record)).or_insert(record);
    }
    let instances = spec.instances();
    let mut slots: Vec<Option<InstanceRecord>> = Vec::with_capacity(instances.len());
    for inst in &instances {
        let Some(&record) = previous_by_key.get(&instance_key(spec, inst)) else {
            slots.push(None);
            continue;
        };
        // Records are keyed by circuit *name*; if the named circuit's
        // content changed since the previous run (an edited `.bench`
        // file), reusing the record would silently break the
        // byte-identical-to-fresh contract. The functional gate count in
        // every record is a cheap (though not airtight) content check.
        let (name, golden) = &spec.circuits[inst.circuit];
        if record.gates != golden.num_functional_gates() {
            return Err(format!(
                "cannot resume: circuit `{name}` has {} functional gates but the previous \
                 report recorded {} — the circuit content changed, so its records are stale",
                golden.num_functional_gates(),
                record.gates
            ));
        }
        slots.push(Some(record.clone()));
    }
    let records = fill_missing(spec, &instances, slots, checkpoint);
    Ok(CampaignReport::new(spec, records))
}

/// The shared execution core of [`run_campaign_checkpointed`] and
/// [`resume_campaign_checkpointed`]: groups the unresolved slots into
/// cells and runs them through the isolated pool, in matrix order,
/// checkpointing as configured.
fn fill_missing(
    spec: &CampaignSpec,
    instances: &[InstanceSpec],
    mut slots: Vec<Option<InstanceRecord>>,
    checkpoint: Option<&CheckpointPolicy>,
) -> Vec<InstanceRecord> {
    let cells = missing_cells(instances, &slots);
    // Without a checkpoint everything is one pool fan-out; with one, the
    // pool drains runs of whole cells holding at least `every` instances
    // and the checkpoint is rewritten between runs. Chunking only
    // changes scheduling, never results.
    let every = checkpoint.map_or(usize::MAX, |c| c.every);
    for group in checkpoint_runs(&cells, every) {
        let workers = spec.parallelism.workers(group.len());
        let results = parallel_map_init_isolated(workers, group.len(), |j| {
            run_cell(spec, instances, &group[j])
        });
        for (cell, result) in group.iter().zip(results) {
            match result {
                Ok(records) => {
                    for (&slot, record) in cell.iter().zip(records) {
                        slots[slot] = Some(record);
                    }
                }
                // `run_instance_resilient` catches everything its
                // attempts raise; an escape here means the resilience
                // layer itself panicked. The isolated pool still
                // contains it — synthesise failed records from the
                // instance identities.
                Err(failure) => {
                    for &slot in cell {
                        slots[slot] =
                            Some(failed_record(spec, &instances[slot], &failure.reason, 1));
                    }
                }
            }
        }
        if let Some(policy) = checkpoint {
            write_checkpoint(spec, &slots, policy);
        }
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every instance resolved"))
        .collect()
}

/// The unresolved instance indices, grouped into cells: maximal runs of
/// consecutive indices sharing (circuit, fault model, p, seed).
fn missing_cells(instances: &[InstanceSpec], slots: &[Option<InstanceRecord>]) -> Vec<Vec<usize>> {
    let cell_of = |i: usize| {
        let inst = &instances[i];
        (inst.circuit, inst.fault_model, inst.p, inst.seed)
    };
    let mut cells: Vec<Vec<usize>> = Vec::new();
    for i in (0..slots.len()).filter(|&i| slots[i].is_none()) {
        match cells.last_mut() {
            Some(cell) if cell_of(cell[0]) == cell_of(i) => cell.push(i),
            _ => cells.push(vec![i]),
        }
    }
    cells
}

/// Splits `cells` into consecutive runs, each ending at the first cell
/// boundary after at least `every` (minimum 1) instances.
fn checkpoint_runs(cells: &[Vec<usize>], every: usize) -> Vec<&[Vec<usize>]> {
    let mut runs = Vec::new();
    let (mut start, mut resolved) = (0, 0);
    for (i, cell) in cells.iter().enumerate() {
        resolved += cell.len();
        if resolved >= every.max(1) || i + 1 == cells.len() {
            runs.push(&cells[start..=i]);
            (start, resolved) = (i + 1, 0);
        }
    }
    runs
}

/// Runs one cell's instances, sharing their prepares, and returns their
/// records in matrix order. They run in matrix order, except that `auto`
/// runs after the cell's other engines: a `cov` in the cell then always
/// computes the shared COV phase and `auto` always reuses it, whatever
/// order the spec lists the engines in.
fn run_cell(
    spec: &CampaignSpec,
    instances: &[InstanceSpec],
    cell: &[usize],
) -> Vec<InstanceRecord> {
    let mut cache = PrepareCache::default();
    let mut order: Vec<usize> = (0..cell.len()).collect();
    order.sort_by_key(|&j| instances[cell[j]].engine == EngineKind::Auto);
    let mut records: Vec<Option<InstanceRecord>> = vec![None; cell.len()];
    for j in order {
        records[j] = Some(run_instance_resilient(
            spec,
            &instances[cell[j]],
            &mut cache,
        ));
    }
    records
        .into_iter()
        .map(|r| r.expect("every instance of the cell ran"))
        .collect()
}

/// One cell's shared front halves: the injection (`None` until first
/// needed; `Some(None)` when the faults cannot be injected) and one
/// [`Prepared`] per prepare key. Entries are stored only once complete,
/// so a panic mid-prepare leaves nothing behind for that key.
#[derive(Default)]
struct PrepareCache {
    injection: Option<Option<Injection>>,
    prepared: Vec<(PrepareKey, Arc<Prepared>)>,
}

impl PrepareCache {
    /// The request's [`Prepared`], built on first use (charging the
    /// `inject`/`tests` spans to the caller's sink).
    fn get(&mut self, golden: &Circuit, request: &DiagnoseRequest) -> Arc<Prepared> {
        let key = request.prepare_key();
        if let Some((_, prepared)) = self.prepared.iter().find(|(k, _)| *k == key) {
            return Arc::clone(prepared);
        }
        let injection = self
            .injection
            .get_or_insert_with(|| inject(golden, request));
        let prepared = Arc::new(prepare_injected(golden, injection.as_ref(), request));
        self.prepared.push((key, Arc::clone(&prepared)));
        prepared
    }
}

/// Atomically rewrites the checkpoint file with the records resolved so
/// far (a valid partial report, in matrix order). Best-effort: failures
/// go to stderr, the campaign continues.
fn write_checkpoint(
    spec: &CampaignSpec,
    slots: &[Option<InstanceRecord>],
    policy: &CheckpointPolicy,
) {
    let resolved: Vec<InstanceRecord> = slots.iter().flatten().cloned().collect();
    let json = CampaignReport::new(spec, resolved).to_json(false);
    if let Err(e) = atomic_write(&policy.path, json.as_bytes()) {
        eprintln!(
            "warning: checkpoint write to {} failed: {e}",
            policy.path.display()
        );
    }
}

/// tmp + fsync + rename: the destination either keeps its old content or
/// holds the complete new content, never a torn prefix.
fn atomic_write(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// Cap on the stored failure reason: long panic payloads (a formatted
/// assertion with embedded data) get truncated, char-boundary-safe.
const MAX_FAILURE_CHARS: usize = 160;

/// Flattens a panic payload into a report-safe single line: control
/// characters become spaces, and the text is truncated to
/// [`MAX_FAILURE_CHARS`].
fn sanitize_reason(reason: &str) -> String {
    let mut out: String = reason
        .chars()
        .take(MAX_FAILURE_CHARS)
        .map(|c| if c.is_control() { ' ' } else { c })
        .collect();
    if reason.chars().nth(MAX_FAILURE_CHARS).is_some() {
        out.push('…');
    }
    out
}

/// The record for an instance whose every attempt panicked: identity
/// fields filled in, measurements zeroed, the sanitised reason attached.
/// The golden gate count is still recorded so the resume staleness check
/// keeps working on failed records.
fn failed_record(
    spec: &CampaignSpec,
    inst: &InstanceSpec,
    reason: &str,
    attempts: u32,
) -> InstanceRecord {
    let (name, golden) = &spec.circuits[inst.circuit];
    InstanceRecord {
        circuit: name.clone(),
        gates: golden.num_functional_gates(),
        fault_model: inst.fault_model,
        p: inst.p,
        seed: inst.seed,
        engine: inst.engine,
        frames: inst.frames,
        seq_len: inst.seq_len,
        k: spec.k.unwrap_or(inst.p),
        tests: 0,
        status: InstanceStatus::Failed,
        candidates: 0,
        solutions: 0,
        complete: false,
        hit: false,
        quality_min: 0.0,
        quality_avg: 0.0,
        quality_max: 0.0,
        conflicts: 0,
        decisions: 0,
        propagations: 0,
        restarts: 0,
        learnt_clauses: 0,
        gc_runs: 0,
        attempts,
        failure: Some(sanitize_reason(reason)),
        test_gen: None,
        obs: None,
        wall_ms: 0.0,
    }
}

/// Runs one instance with panic isolation and bounded retry: attempts
/// run under `catch_unwind` until one succeeds, the retry policy stops
/// retrying, or attempts run out — in which case the instance becomes a
/// [`InstanceStatus::Failed`] record carrying the last panic reason.
///
/// Deterministic: each attempt is a pure function of
/// `(spec, inst, attempt)` — injected chaos hashes the attempt number
/// into its key, so retries reroll the chaos dice the same way on every
/// run — and the exponential backoff only spends wall time.
fn run_instance_resilient(
    spec: &CampaignSpec,
    inst: &InstanceSpec,
    cache: &mut PrepareCache,
) -> InstanceRecord {
    let max_attempts = spec.retry.max_attempts.max(1);
    let mut last_reason = String::new();
    for attempt in 1..=max_attempts {
        if attempt > 1 && spec.retry.backoff_ms > 0 {
            // Exponential backoff, quarantined like `wall_ms`: it delays
            // the retry but never shapes the record.
            let shift = (attempt - 2).min(16);
            std::thread::sleep(std::time::Duration::from_millis(
                spec.retry.backoff_ms << shift,
            ));
        }
        match catch_unwind(AssertUnwindSafe(|| run_attempt(spec, inst, attempt, cache))) {
            Ok((mut record, truncation)) => {
                record.attempts = attempt;
                // A wall-deadline preemption is transient (machine load);
                // opt-in retry treats it like a crash. Every other
                // outcome is deterministic — retrying it would only
                // reproduce it.
                if spec.retry.retry_on == RetryOn::PanicOrDeadline
                    && truncation == Some(Truncation::Deadline)
                    && attempt < max_attempts
                {
                    continue;
                }
                return record;
            }
            Err(payload) => {
                last_reason = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                    .unwrap_or_else(|| "non-string panic payload".to_string());
            }
        }
    }
    failed_record(spec, inst, &last_reason, max_attempts)
}

/// Runs one instance of the matrix. The record is pure in
/// `(spec, inst, attempt)` — the attempt number only feeds the chaos
/// key, so attempt 1 of a clean campaign is the plain deterministic
/// instance run — and `cache` only decides which attempt pays for the
/// shared prepare.
///
/// Every attempt runs under its own observability sink (installed on
/// this campaign worker thread — engines are pinned sequential inside an
/// instance, so every charged counter is deterministic and worker-count
/// invariant) with a root `instance` span. That span is the single
/// wall-clock source: `wall_ms` derives from it, so the campaign has
/// exactly one timing-quarantine mechanism; a prepare built by this
/// attempt is inside it, one reused from the cache costs nothing. The
/// full trace is attached to the record only under
/// [`CampaignSpec::collect_obs`].
fn run_attempt(
    spec: &CampaignSpec,
    inst: &InstanceSpec,
    attempt: u32,
    cache: &mut PrepareCache,
) -> (InstanceRecord, Option<Truncation>) {
    let sink = Arc::new(gatediag_obs::Sink::new());
    let guard = gatediag_obs::install(Arc::clone(&sink));
    let root = gatediag_obs::span("instance");
    let (mut record, truncation) = run_attempt_inner(spec, inst, attempt, cache);
    drop(root);
    drop(guard);
    let trace = sink.take_trace();
    record.wall_ms = trace.root_wall_ns() as f64 / 1e6;
    if spec.collect_obs {
        record.obs = Some(trace);
    }
    (record, truncation)
}

/// The uninstrumented attempt body: everything [`run_attempt`] measures.
fn run_attempt_inner(
    spec: &CampaignSpec,
    inst: &InstanceSpec,
    attempt: u32,
    cache: &mut PrepareCache,
) -> (InstanceRecord, Option<Truncation>) {
    let (name, golden) = &spec.circuits[inst.circuit];
    let k = spec.k.unwrap_or(inst.p);
    let mut record = InstanceRecord {
        circuit: name.clone(),
        gates: golden.num_functional_gates(),
        fault_model: inst.fault_model,
        p: inst.p,
        seed: inst.seed,
        engine: inst.engine,
        frames: inst.frames,
        seq_len: inst.seq_len,
        k,
        tests: 0,
        status: InstanceStatus::Ok,
        candidates: 0,
        solutions: 0,
        complete: true,
        hit: false,
        quality_min: 0.0,
        quality_avg: 0.0,
        quality_max: 0.0,
        conflicts: 0,
        decisions: 0,
        propagations: 0,
        restarts: 0,
        learnt_clauses: 0,
        gc_runs: 0,
        attempts: 1,
        failure: None,
        test_gen: None,
        obs: None,
        wall_ms: 0.0,
    };
    // The chaos key hashes the full instance identity plus the attempt
    // number: a retried instance rerolls, but identically on every run
    // and every worker count. The sequential axes join the key only when
    // present, so combinational chaos streams are unchanged.
    let chaos = match spec.chaos {
        None => ChaosPolicy::off(),
        Some(config) => {
            let mut parts = vec![
                name.clone(),
                inst.fault_model.name().to_string(),
                inst.p.to_string(),
                inst.seed.to_string(),
                inst.engine.name().to_string(),
                attempt.to_string(),
            ];
            if let (Some(frames), Some(seq_len)) = (inst.frames, inst.seq_len) {
                parts.push(frames.to_string());
                parts.push(seq_len.to_string());
            }
            let refs: Vec<&str> = parts.iter().map(String::as_str).collect();
            ChaosPolicy::new(config, ChaosPolicy::key(&refs))
        }
    };
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
        test_gen: spec.test_gen,
    };
    // The campaign level owns the worker pool, so engines inside one
    // instance are pinned sequential; see the module docs.
    let prepared = cache.get(golden, &request);
    let outcome = run_prepared(golden, &prepared, &request, Parallelism::Sequential, chaos);
    record.tests = outcome.tests;
    match outcome.status {
        DiagnoseStatus::NotInjectable => {
            record.status = InstanceStatus::NotInjectable;
            return (record, None);
        }
        DiagnoseStatus::NoFailingTests => {
            record.status = InstanceStatus::NoFailingTests;
            return (record, None);
        }
        DiagnoseStatus::Ok | DiagnoseStatus::Preempted => {}
    }
    let faulty = outcome.faulty.expect("injection succeeded");
    let run = outcome.run.expect("pipeline reached the engine");
    let errors: Vec<GateId> = outcome.faults.iter().map(|f| f.gate).collect();
    record.candidates = run.candidates.len();
    record.solutions = run.solutions.len();
    record.complete = run.complete;
    // A budget preemption is its own outcome class; the enumeration cap
    // stays `ok` with `complete = false`, as before.
    if run.truncation.is_some_and(|t| t.is_preemption()) {
        record.status = InstanceStatus::Preempted;
    }
    record.hit = run.candidates.iter().any(|g| errors.contains(g));
    if !run.solutions.is_empty() {
        let quality = solution_quality(&faulty, &run.solutions, &errors);
        record.quality_min = quality.min;
        record.quality_avg = quality.avg;
        record.quality_max = quality.max;
    }
    record.conflicts = run.stats.conflicts;
    record.decisions = run.stats.decisions;
    record.propagations = run.stats.propagations;
    record.restarts = run.stats.restarts;
    record.learnt_clauses = run.stats.learnt_clauses;
    record.gc_runs = run.stats.gc_runs;
    record.test_gen = run.test_gen.as_ref().map(|outcome| TestGenRecord {
        gen_tests: outcome.tests.len(),
        solutions_before: outcome.solutions_before,
        solutions_after: outcome.solutions_after,
        ambiguity_classes: outcome.classes.len(),
    });
    (record, run.truncation)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gatediag_core::EngineKind;
    use gatediag_netlist::{c17, FaultModel};

    fn tiny_spec() -> CampaignSpec {
        let mut spec = CampaignSpec::new(vec![("c17".to_string(), c17())]);
        spec.fault_models = vec![FaultModel::GateChange, FaultModel::StuckAt];
        spec.error_counts = vec![1];
        spec.seeds = vec![1, 2];
        spec.engines = vec![EngineKind::Bsim, EngineKind::Bsat];
        spec
    }

    #[test]
    fn records_come_back_in_matrix_order() {
        let spec = tiny_spec();
        let report = run_campaign(&spec);
        let instances = spec.instances();
        assert_eq!(report.records.len(), instances.len());
        for (record, inst) in report.records.iter().zip(&instances) {
            assert_eq!(record.fault_model, inst.fault_model);
            assert_eq!(record.engine, inst.engine);
            assert_eq!(record.seed, inst.seed);
        }
    }

    #[test]
    fn bsat_instances_find_the_gate_change_site() {
        let spec = tiny_spec();
        let report = run_campaign(&spec);
        for record in &report.records {
            if record.status == InstanceStatus::Ok
                && record.engine == EngineKind::Bsat
                && record.fault_model == FaultModel::GateChange
            {
                // BSAT enumerates all valid corrections ≤ k = p; the real
                // site is always one of them.
                assert!(
                    record.hit,
                    "seed {}: BSAT missed the error site",
                    record.seed
                );
                assert_eq!(record.quality_min, 0.0);
            }
        }
    }

    #[test]
    fn missing_instances_group_into_cells_and_checkpoint_runs() {
        let spec = tiny_spec();
        let instances = spec.instances();
        // 2 models × 2 seeds × 2 engines; instances 1 and 4 are resolved.
        let mut slots = vec![None; instances.len()];
        let record = failed_record(&spec, &instances[1], "", 1);
        slots[1] = Some(record.clone());
        slots[4] = Some(record);
        let cells = missing_cells(&instances, &slots);
        assert_eq!(cells, vec![vec![0], vec![2, 3], vec![5], vec![6, 7]]);
        let sizes = |every| -> Vec<usize> {
            checkpoint_runs(&cells, every)
                .iter()
                .map(|run| run.iter().map(Vec::len).sum())
                .collect()
        };
        assert_eq!(sizes(0), vec![1, 2, 1, 2]);
        assert_eq!(sizes(2), vec![3, 3]);
        assert_eq!(sizes(3), vec![3, 3]);
        assert_eq!(sizes(4), vec![4, 2]);
        assert_eq!(sizes(usize::MAX), vec![6]);
    }

    #[test]
    fn oversized_p_is_recorded_not_panicked() {
        let mut spec = tiny_spec();
        spec.error_counts = vec![50]; // c17 has 6 functional gates
        let report = run_campaign(&spec);
        assert!(report
            .records
            .iter()
            .all(|r| r.status == InstanceStatus::NotInjectable));
    }
}
