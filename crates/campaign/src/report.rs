//! Campaign reports: per-instance records, JSON/CSV emitters and the
//! paper-style summary table.
//!
//! Everything in a report except `wall_ms` is deterministic: injection,
//! test generation and every engine are pure functions of the instance's
//! seed, and the runner merges records in matrix order. The emitters
//! therefore exclude timing by default, which makes the JSON and CSV
//! output **byte-identical across worker counts** — the property the
//! campaign drift tests pin. Pass `include_timing = true` to add the
//! wall-clock column for local profiling.

use crate::spec::{CampaignSpec, RetryPolicy};
use gatediag_core::{ChaosConfig, EngineKind};
use gatediag_netlist::FaultModel;
use gatediag_obs::json::escape_str;
use std::fmt::Write as _;

/// Why an instance did or did not produce a diagnosis.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum InstanceStatus {
    /// The engine ran on a non-empty failing-test set.
    Ok,
    /// The circuit has too few eligible sites for `(fault_model, p)`.
    NotInjectable,
    /// The injected faults stayed unobservable within the random-vector
    /// budget (near-redundant logic); no diagnosis was attempted.
    NoFailingTests,
    /// The engine ran but a cooperative budget (work, conflicts or the
    /// wall deadline) preempted it before completion; the record holds
    /// the partial results. Instances the enumeration cap truncated stay
    /// `ok` with `complete = false` — `preempted` is reserved for the
    /// budget guards.
    Preempted,
    /// Every attempt at the instance panicked (a real engine bug, or
    /// injected chaos): the record carries the last failure reason in
    /// [`InstanceRecord::failure`] and the attempt count, and the rest of
    /// the campaign kept running.
    Failed,
}

impl InstanceStatus {
    /// All statuses, in a stable order.
    pub const ALL: [InstanceStatus; 5] = [
        InstanceStatus::Ok,
        InstanceStatus::NotInjectable,
        InstanceStatus::NoFailingTests,
        InstanceStatus::Preempted,
        InstanceStatus::Failed,
    ];

    /// Stable serialisation token.
    pub fn name(self) -> &'static str {
        match self {
            InstanceStatus::Ok => "ok",
            InstanceStatus::NotInjectable => "not-injectable",
            InstanceStatus::NoFailingTests => "no-failing-tests",
            InstanceStatus::Preempted => "preempted",
            InstanceStatus::Failed => "failed",
        }
    }

    /// Parses a serialisation token (the inverse of
    /// [`InstanceStatus::name`]).
    pub fn parse(text: &str) -> Option<InstanceStatus> {
        InstanceStatus::ALL.into_iter().find(|s| s.name() == text)
    }
}

/// Shrinkage measurements from the SAT-guided discriminating-test
/// generation phase (`--test-gen sat`); see
/// `gatediag_core::testgen`. Attached to a record only when the phase
/// actually ran — `None` on legacy reports, on campaigns with test
/// generation off, and on instances whose diagnosis was preempted
/// before the phase.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct TestGenRecord {
    /// Confirmed discriminating tests the phase generated.
    pub gen_tests: usize,
    /// Candidate corrections entering the phase.
    pub solutions_before: usize,
    /// Candidate corrections surviving the generated tests
    /// (`<= solutions_before` always).
    pub solutions_after: usize,
    /// Ambiguity equivalence classes among the survivors — candidates no
    /// failing test can tell apart share a class.
    pub ambiguity_classes: usize,
}

/// All measurements for one instance of the campaign matrix.
#[derive(Clone, PartialEq, Debug)]
pub struct InstanceRecord {
    /// Golden circuit name.
    pub circuit: String,
    /// Functional gate count of the golden circuit.
    pub gates: usize,
    /// Injected fault model.
    pub fault_model: FaultModel,
    /// Number of injected errors.
    pub p: usize,
    /// Injection/test seed.
    pub seed: u64,
    /// Diagnosis engine.
    pub engine: EngineKind,
    /// Time frames per sequence; `Some` exactly for sequential engines.
    pub frames: Option<usize>,
    /// Failing sequences requested; `Some` exactly for sequential
    /// engines (the sequential analogue of the matrix-wide `tests`).
    pub seq_len: Option<usize>,
    /// Correction size bound used (`spec.k` or `p`).
    pub k: usize,
    /// Failing tests collected (the diagnosis `m`).
    pub tests: usize,
    /// Outcome class.
    pub status: InstanceStatus,
    /// Implicated gates (union over solutions, or the BSIM mark union).
    pub candidates: usize,
    /// Candidate corrections reported (for BSIM: 1, the `G_max` set).
    pub solutions: usize,
    /// `false` when the enumeration was truncated by `max_solutions` or
    /// the conflict budget.
    pub complete: bool,
    /// Whether some real error site is among the candidates.
    pub hit: bool,
    /// Resolution quality over the solutions (paper Table 3): minimum
    /// per-solution average distance to the nearest real error site.
    /// Only meaningful when `solutions > 0` (the emitters write
    /// `null`/empty cells otherwise — the 0.0 default would read as a
    /// perfect diagnosis).
    pub quality_min: f64,
    /// Average per-solution average distance.
    pub quality_avg: f64,
    /// Maximum per-solution average distance.
    pub quality_max: f64,
    /// SAT conflicts (0 for the pure simulation engines).
    pub conflicts: u64,
    /// SAT decisions.
    pub decisions: u64,
    /// SAT propagations.
    pub propagations: u64,
    /// SAT restarts. Always measured; emitted only on `--solver-stats`
    /// reports (see [`CampaignReport::solver_stats`]).
    pub restarts: u64,
    /// Learnt clauses retained at the end of the instance's last solve
    /// (a gauge, not a total). Same emission rule as `restarts`.
    pub learnt_clauses: u64,
    /// Clause-arena garbage collections. Same emission rule as
    /// `restarts`.
    pub gc_runs: u64,
    /// How many attempts the instance took (1 = first try succeeded).
    /// Deterministic: retries are triggered by deterministic panics or
    /// seeded chaos, never by wall-clock races.
    pub attempts: u32,
    /// The last failure reason, for [`InstanceStatus::Failed`] records —
    /// the panic payload, sanitised and truncated by the runner. `None`
    /// for every other status.
    pub failure: Option<String>,
    /// Discriminating-test-generation shrinkage columns; `Some` only when
    /// the campaign ran with `--test-gen sat` and the phase executed.
    pub test_gen: Option<TestGenRecord>,
    /// The instance's observability trace (spans + deterministic
    /// counters), collected only under [`CampaignSpec::collect_obs`].
    /// Never part of the JSON/CSV reports — it flows to the separate
    /// trace JSONL stream ([`CampaignReport::to_trace_jsonl`]). Its
    /// equality ignores the timing channel, so the drift contract
    /// extends over traces unchanged.
    pub obs: Option<gatediag_obs::ObsTrace>,
    /// Wall-clock time for the whole instance (injection + test
    /// generation + diagnosis), measured as the root `instance` span of
    /// the observability trace. Nondeterministic; excluded from the
    /// emitters unless requested.
    pub wall_ms: f64,
}

/// A completed campaign: the matrix echo plus one record per instance,
/// in matrix order.
#[derive(Clone, PartialEq, Debug)]
pub struct CampaignReport {
    /// Circuit names, in matrix order.
    pub circuits: Vec<String>,
    /// Fault models of the matrix.
    pub fault_models: Vec<FaultModel>,
    /// Error counts of the matrix.
    pub error_counts: Vec<usize>,
    /// Seeds of the matrix.
    pub seeds: Vec<u64>,
    /// Engines of the matrix.
    pub engines: Vec<EngineKind>,
    /// Time-frame axis for the sequential engines. Emitted in the JSON
    /// matrix only when some engine is sequential, so legacy reports
    /// round-trip byte-for-byte.
    pub frames: Vec<usize>,
    /// Failing-sequence-count axis for the sequential engines; same
    /// emission rule as `frames`.
    pub seq_lens: Vec<usize>,
    /// Failing tests requested per instance.
    pub tests: usize,
    /// Random-vector budget for failing-test generation. `None` only for
    /// reports parsed from legacy files that predate the field — it
    /// changes per-instance results, so the resume path validates it
    /// whenever it is known.
    pub max_test_vectors: Option<usize>,
    /// Explicit `k`, if the spec pinned one (`None` = `k = p`).
    pub k: Option<usize>,
    /// Per-instance enumeration cap.
    pub max_solutions: usize,
    /// Per-instance conflict budget.
    pub conflict_budget: Option<u64>,
    /// Per-instance deterministic work budget.
    pub work_budget: Option<u64>,
    /// Per-instance wall-clock deadline (nondeterministic, opt-in).
    pub deadline_ms: Option<u64>,
    /// Chaos injection config of the run (`None` = off). Echoed so a
    /// resume cannot silently mix chaos and clean records.
    pub chaos: Option<ChaosConfig>,
    /// Retry policy of the run.
    pub retry: RetryPolicy,
    /// Whether discriminating-test generation ran. Echoed so a resume
    /// cannot silently mix shrunk and unshrunk records; emitted in the
    /// JSON matrix only when set, so legacy reports round-trip
    /// byte-for-byte.
    pub test_gen: bool,
    /// Whether the extended solver-statistics columns are emitted.
    /// Echoed in the JSON matrix only when `true` (legacy reports stay
    /// byte-identical) and limit-checked on resume: a report with the
    /// columns and one without would not merge into either fresh run.
    pub solver_stats: bool,
    /// Circuit-loading warnings surfaced in the report header (lenient
    /// `.bench` directory loads). Informational only.
    pub bench_warnings: Vec<String>,
    /// One record per instance, in matrix order.
    pub records: Vec<InstanceRecord>,
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.4}")
    } else {
        "null".to_string()
    }
}

/// Compact instance identity used by the trace stream:
/// `circuit/fault_model/p{p}/s{seed}/engine`, with `/f{frames}/l{seq_len}`
/// appended for sequential instances. Matches the resume key one-to-one.
fn instance_label(r: &InstanceRecord) -> String {
    let mut label = format!(
        "{}/{}/p{}/s{}/{}",
        r.circuit,
        r.fault_model.name(),
        r.p,
        r.seed,
        r.engine.name()
    );
    if let (Some(frames), Some(seq_len)) = (r.frames, r.seq_len) {
        let _ = write!(label, "/f{frames}/l{seq_len}");
    }
    label
}

/// RFC-4180 field quoting for user-controlled values (circuit names come
/// from `.bench` file stems, which may contain commas or quotes).
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

impl CampaignReport {
    /// Bundles the runner's records with the spec's matrix echo.
    pub fn new(spec: &CampaignSpec, records: Vec<InstanceRecord>) -> CampaignReport {
        CampaignReport {
            circuits: spec.circuits.iter().map(|(n, _)| n.clone()).collect(),
            fault_models: spec.fault_models.clone(),
            error_counts: spec.error_counts.clone(),
            seeds: spec.seeds.clone(),
            engines: spec.engines.clone(),
            frames: spec.frames.clone(),
            seq_lens: spec.seq_lens.clone(),
            tests: spec.tests,
            max_test_vectors: Some(spec.max_test_vectors),
            k: spec.k,
            max_solutions: spec.max_solutions,
            conflict_budget: spec.conflict_budget,
            work_budget: spec.work_budget,
            deadline_ms: spec.deadline_ms,
            chaos: spec.chaos,
            retry: spec.retry,
            test_gen: spec.test_gen,
            solver_stats: spec.solver_stats,
            bench_warnings: spec.bench_warnings.clone(),
            records,
        }
    }

    /// Serialises the report as JSON with a stable field order.
    ///
    /// With `include_timing = false` (the default for published
    /// artifacts) the output is byte-identical across runs and worker
    /// counts; `true` adds the nondeterministic `wall_ms` field.
    pub fn to_json(&self, include_timing: bool) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"schema\": \"gatediag-campaign-v1\",\n  \"matrix\": {\n");
        let _ = writeln!(
            out,
            "    \"circuits\": [{}],",
            self.circuits
                .iter()
                .map(|c| escape_str(c))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let _ = writeln!(
            out,
            "    \"fault_models\": [{}],",
            self.fault_models
                .iter()
                .map(|m| escape_str(m.name()))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let _ = writeln!(
            out,
            "    \"error_counts\": [{}],",
            self.error_counts
                .iter()
                .map(|p| p.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        );
        let _ = writeln!(
            out,
            "    \"seeds\": [{}],",
            self.seeds
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        );
        let _ = writeln!(
            out,
            "    \"engines\": [{}],",
            self.engines
                .iter()
                .map(|e| escape_str(e.name()))
                .collect::<Vec<_>>()
                .join(", ")
        );
        // The sequential axes only exist when a sequential engine is in
        // the matrix; omitting them otherwise keeps purely combinational
        // (and every legacy) report byte-identical.
        if self.engines.iter().any(|e| e.is_sequential()) {
            let _ = writeln!(
                out,
                "    \"frames\": [{}],",
                self.frames
                    .iter()
                    .map(|f| f.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            let _ = writeln!(
                out,
                "    \"seq_lens\": [{}],",
                self.seq_lens
                    .iter()
                    .map(|l| l.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            );
        }
        let _ = writeln!(out, "    \"tests\": {},", self.tests);
        // Emitted only when known so that legacy reports (which lack the
        // field) still round-trip byte-for-byte through the reader.
        if let Some(max_test_vectors) = self.max_test_vectors {
            let _ = writeln!(out, "    \"max_test_vectors\": {max_test_vectors},");
        }
        // "k = p per instance" serialises as `null` so the field has ONE
        // type (number or null). Legacy reports used the string "p",
        // which the reader still accepts.
        let _ = writeln!(
            out,
            "    \"k\": {},",
            self.k.map_or("null".to_string(), |k| k.to_string())
        );
        let _ = writeln!(out, "    \"max_solutions\": {},", self.max_solutions);
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |b| b.to_string());
        let _ = writeln!(
            out,
            "    \"conflict_budget\": {},",
            opt(self.conflict_budget)
        );
        let _ = writeln!(out, "    \"work_budget\": {},", opt(self.work_budget));
        let _ = writeln!(out, "    \"deadline_ms\": {},", opt(self.deadline_ms));
        match self.chaos {
            None => {
                let _ = writeln!(out, "    \"chaos\": null,");
            }
            Some(chaos) => {
                let _ = writeln!(
                    out,
                    "    \"chaos\": {{\"seed\": {}, \"rate_ppm\": {}}},",
                    chaos.seed, chaos.rate_ppm
                );
            }
        }
        let _ = writeln!(
            out,
            "    \"retry\": {{\"max_attempts\": {}, \"backoff_ms\": {}, \"retry_on\": {}}},",
            self.retry.max_attempts,
            self.retry.backoff_ms,
            escape_str(self.retry.retry_on.name())
        );
        // Emitted only when the phase is on, so reports from campaigns
        // without it — including every legacy report — are unchanged.
        if self.test_gen {
            let _ = writeln!(out, "    \"test_gen\": {{\"mode\": \"sat\"}},");
        }
        // Same conditional-emission rule: the flag appears only when the
        // extended columns do, so every legacy report is unchanged.
        if self.solver_stats {
            let _ = writeln!(out, "    \"solver_stats\": true,");
        }
        let _ = writeln!(
            out,
            "    \"bench_warnings\": [{}]",
            self.bench_warnings
                .iter()
                .map(|w| escape_str(w))
                .collect::<Vec<_>>()
                .join(", ")
        );
        out.push_str("  },\n  \"instances\": [\n");
        for (i, r) in self.records.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"circuit\": {}, \"gates\": {}, \"fault_model\": {}, \"p\": {}, \
                 \"seed\": {}, \"engine\": {}, \"k\": {}, \"tests\": {}, \"status\": {}, \
                 \"candidates\": {}, \"solutions\": {}, \"complete\": {}, \"hit\": {}, \
                 \"quality_min\": {}, \"quality_avg\": {}, \"quality_max\": {}, \
                 \"conflicts\": {}, \"decisions\": {}, \"propagations\": {}",
                escape_str(&r.circuit),
                r.gates,
                escape_str(r.fault_model.name()),
                r.p,
                r.seed,
                escape_str(r.engine.name()),
                r.k,
                r.tests,
                escape_str(r.status.name()),
                r.candidates,
                r.solutions,
                r.complete,
                r.hit,
                // A record with no solutions has no quality to report —
                // a literal 0.0 would read as "a real error site found".
                if r.solutions == 0 {
                    "null".to_string()
                } else {
                    json_f64(r.quality_min)
                },
                if r.solutions == 0 {
                    "null".to_string()
                } else {
                    json_f64(r.quality_avg)
                },
                if r.solutions == 0 {
                    "null".to_string()
                } else {
                    json_f64(r.quality_max)
                },
                r.conflicts,
                r.decisions,
                r.propagations,
            );
            // Extended solver statistics only on `--solver-stats` reports
            // — absent fields, not zeros, keep legacy records identical.
            if self.solver_stats {
                let _ = write!(
                    out,
                    ", \"restarts\": {}, \"learnt_clauses\": {}, \"gc_runs\": {}",
                    r.restarts, r.learnt_clauses, r.gc_runs
                );
            }
            // Sequential columns only on sequential records, matching the
            // matrix-level emission rule.
            if let (Some(frames), Some(seq_len)) = (r.frames, r.seq_len) {
                let _ = write!(out, ", \"frames\": {frames}, \"seq_len\": {seq_len}");
            }
            // Shrinkage columns only when the phase ran: absent fields —
            // not nulls — keep legacy records byte-identical.
            if let Some(tg) = r.test_gen {
                let _ = write!(
                    out,
                    ", \"gen_tests\": {}, \"solutions_before\": {}, \
                     \"solutions_after\": {}, \"ambiguity_classes\": {}",
                    tg.gen_tests, tg.solutions_before, tg.solutions_after, tg.ambiguity_classes
                );
            }
            let _ = write!(
                out,
                ", \"attempts\": {}, \"failure\": {}",
                r.attempts,
                r.failure.as_deref().map_or("null".to_string(), escape_str)
            );
            if include_timing {
                let _ = write!(out, ", \"wall_ms\": {}", json_f64(r.wall_ms));
            }
            out.push('}');
            if i + 1 < self.records.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Serialises the records as CSV (one row per instance, matrix
    /// order). Timing is excluded unless `include_timing` is set, for the
    /// same determinism reasons as [`CampaignReport::to_json`].
    pub fn to_csv(&self, include_timing: bool) -> String {
        let mut out = String::from(
            "circuit,gates,fault_model,p,seed,engine,frames,seq_len,k,tests,status,candidates,\
             solutions,complete,hit,quality_min,quality_avg,quality_max,conflicts,decisions,\
             propagations",
        );
        // Extended solver-statistics columns are header-conditional, the
        // same mechanism as the trailing `wall_ms` column: reports from
        // campaigns without `--solver-stats` keep the legacy header.
        if self.solver_stats {
            out.push_str(",restarts,learnt_clauses,gc_runs");
        }
        out.push_str(
            ",gen_tests,solutions_before,solutions_after,ambiguity_classes,attempts,failure",
        );
        if include_timing {
            out.push_str(",wall_ms");
        }
        out.push('\n');
        for r in &self.records {
            // Empty quality cells when there are no solutions (see
            // `to_json`).
            let quality = if r.solutions == 0 {
                ",,".to_string()
            } else {
                format!(
                    "{:.4},{:.4},{:.4}",
                    r.quality_min, r.quality_avg, r.quality_max
                )
            };
            // Empty sequential cells on combinational records, matching
            // the shrinkage-cell convention below.
            let seq = match (r.frames, r.seq_len) {
                (Some(frames), Some(seq_len)) => format!("{frames},{seq_len}"),
                _ => ",".to_string(),
            };
            let _ = write!(
                out,
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
                csv_field(&r.circuit),
                r.gates,
                r.fault_model,
                r.p,
                r.seed,
                r.engine,
                seq,
                r.k,
                r.tests,
                r.status.name(),
                r.candidates,
                r.solutions,
                r.complete,
                r.hit,
                quality,
                r.conflicts,
                r.decisions,
                r.propagations,
            );
            if self.solver_stats {
                let _ = write!(out, ",{},{},{}", r.restarts, r.learnt_clauses, r.gc_runs);
            }
            // Empty shrinkage cells when the phase did not run, matching
            // the quality-cell convention.
            match r.test_gen {
                None => out.push_str(",,,,"),
                Some(tg) => {
                    let _ = write!(
                        out,
                        ",{},{},{},{}",
                        tg.gen_tests, tg.solutions_before, tg.solutions_after, tg.ambiguity_classes
                    );
                }
            }
            let _ = write!(
                out,
                ",{},{}",
                r.attempts,
                csv_field(r.failure.as_deref().unwrap_or(""))
            );
            if include_timing {
                let _ = write!(out, ",{:.4}", r.wall_ms);
            }
            out.push('\n');
        }
        out
    }

    /// Serialises the collected observability traces as JSONL: one
    /// [`gatediag_obs::TraceLine`] per record that carries a trace, in
    /// matrix order. With `include_timing = false` the stream contains
    /// only the deterministic channel and is byte-identical across
    /// worker counts; `true` adds per-span `wall_ns` and the
    /// `nd_counters` object. Empty when the campaign ran without
    /// `collect_obs`.
    pub fn to_trace_jsonl(&self, include_timing: bool) -> String {
        let mut out = String::new();
        for r in &self.records {
            let Some(trace) = &r.obs else { continue };
            let line = gatediag_obs::TraceLine {
                instance: instance_label(r),
                trace: trace.clone(),
            };
            out.push_str(&line.to_json(include_timing));
            out.push('\n');
        }
        out
    }

    /// Renders the aggregated per-phase profile from the collected
    /// traces: one row per distinct span path (parent/child names),
    /// first-appearance order, with call counts, total wall time and the
    /// share of the total root-span time — plus the top hotspots and the
    /// fraction of instance wall time attributed to named phases.
    /// Wall-clock based and therefore nondeterministic: for terminal
    /// eyes only, never for byte-compared artifacts.
    pub fn profile_table(&self) -> String {
        use std::collections::HashMap;
        let mut order: Vec<String> = Vec::new();
        let mut agg: HashMap<String, (u64, u64)> = HashMap::new(); // path -> (calls, wall_ns)
        let mut root_ns: u64 = 0;
        let mut phase_ns: u64 = 0; // depth-1 spans: the attributed share
        for r in &self.records {
            let Some(trace) = &r.obs else { continue };
            let mut stack: Vec<String> = Vec::new();
            for span in &trace.spans {
                stack.truncate(span.depth);
                let path = match stack.last() {
                    Some(parent) => format!("{parent}/{}", span.name),
                    None => span.name.clone(),
                };
                if span.depth == 0 {
                    root_ns += span.wall_ns;
                } else if span.depth == 1 {
                    phase_ns += span.wall_ns;
                }
                let entry = agg.entry(path.clone()).or_insert_with(|| {
                    order.push(path.clone());
                    (0, 0)
                });
                entry.0 += 1;
                entry.1 += span.wall_ns;
                stack.push(path);
            }
        }
        if order.is_empty() {
            return "profile: no traces collected\n".to_string();
        }
        let share = |ns: u64| {
            if root_ns == 0 {
                0.0
            } else {
                100.0 * ns as f64 / root_ns as f64
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<40} {:>8} {:>12} {:>7}",
            "phase", "calls", "total ms", "share"
        );
        out.push_str(&"-".repeat(70));
        out.push('\n');
        for path in &order {
            let (calls, ns) = agg[path];
            // Indent by nesting depth so the table reads as the span tree.
            let depth = path.matches('/').count();
            let label = format!("{}{}", "  ".repeat(depth), path.rsplit('/').next().unwrap());
            let _ = writeln!(
                out,
                "{label:<40} {calls:>8} {:>12.3} {:>6.1}%",
                ns as f64 / 1e6,
                share(ns)
            );
        }
        let _ = writeln!(
            out,
            "attributed to named phases: {:.1}% of {:.3} ms total instance time",
            share(phase_ns),
            root_ns as f64 / 1e6
        );
        // Hotspots: the non-root paths with the most total wall time.
        let mut hot: Vec<(&String, (u64, u64))> = order
            .iter()
            .map(|p| (p, agg[p]))
            .filter(|(p, _)| p.contains('/'))
            .collect();
        hot.sort_by(|a, b| b.1 .1.cmp(&a.1 .1).then_with(|| a.0.cmp(b.0)));
        out.push_str("top hotspots:\n");
        for (path, (_, ns)) in hot.iter().take(5) {
            let _ = writeln!(
                out,
                "  {:<38} {:>12.3} ms {:>6.1}%",
                path,
                *ns as f64 / 1e6,
                share(*ns)
            );
        }
        out
    }

    /// Renders the paper-style summary: one row per
    /// `(circuit, fault model, p)`, one column per engine, aggregated
    /// over seeds. Each cell reads `hits/oks  sol  q̄`: how many seeds hit
    /// a real error site out of the seeds that ran, the mean solution
    /// count, and the mean average-distance quality.
    ///
    /// Built in **one indexed pass** over the records: rows are interned
    /// in first-appearance order (a hash lookup instead of the old
    /// `Vec::contains` scan with its per-record `String` clones) and each
    /// record folds straight into its `(row, engine)` cell, so rendering
    /// is `O(records + rows × engines)` instead of the old
    /// `O(rows × engines × records)` rescan. Output is byte-identical to
    /// the scanning implementation.
    pub fn summary_table(&self) -> String {
        #[derive(Clone, Default)]
        struct Cell {
            ok: usize,
            hits: usize,
            solutions: usize,
            quality: f64,
            with_solutions: usize,
        }
        use std::collections::HashMap;
        // Engine -> *aggregation* column. Distinct engines get distinct
        // slots; a duplicated engine in the matrix echo shares one slot,
        // so its duplicate display columns render identical cells — the
        // same output the old per-column rescan produced. Engines not in
        // the echo have no slot (the old scan never visited them).
        let mut engine_slot: HashMap<EngineKind, usize> = HashMap::new();
        for &e in &self.engines {
            let next = engine_slot.len();
            engine_slot.entry(e).or_insert(next);
        }
        let slots = engine_slot.len();
        // Row interning: nested map so the lookup key borrows the
        // record's circuit name (one String clone per *row*, not per
        // record).
        let mut rows: Vec<(&str, FaultModel, usize)> = Vec::new();
        #[allow(clippy::type_complexity)]
        let mut row_index: HashMap<&str, HashMap<(FaultModel, usize), usize>> = HashMap::new();
        let mut cells: Vec<Cell> = Vec::new();
        for r in &self.records {
            let inner = row_index.entry(r.circuit.as_str()).or_default();
            let row = *inner.entry((r.fault_model, r.p)).or_insert_with(|| {
                rows.push((r.circuit.as_str(), r.fault_model, r.p));
                cells.resize(rows.len() * slots, Cell::default());
                rows.len() - 1
            });
            if r.status != InstanceStatus::Ok {
                continue;
            }
            let Some(&slot) = engine_slot.get(&r.engine) else {
                continue;
            };
            let cell = &mut cells[row * slots + slot];
            cell.ok += 1;
            cell.hits += usize::from(r.hit);
            cell.solutions += r.solutions;
            // A run with no solutions has no quality; averaging its 0.0
            // in would make an engine that found nothing look perfect.
            if r.solutions > 0 {
                cell.with_solutions += 1;
                cell.quality += r.quality_avg;
            }
        }
        let mut out = String::new();
        let _ = write!(out, "{:<12} {:<15} {:>2} ", "circuit", "fault-model", "p");
        for e in &self.engines {
            let _ = write!(out, "| {:>16} ", e.name());
        }
        out.push('\n');
        let width = 32 + self.engines.len() * 19;
        out.push_str(&"-".repeat(width));
        out.push('\n');
        for (row, (circuit, model, p)) in rows.iter().enumerate() {
            let _ = write!(out, "{circuit:<12} {:<15} {p:>2} ", model.name());
            for engine in &self.engines {
                let cell = &cells[row * slots + engine_slot[engine]];
                if cell.ok == 0 {
                    let _ = write!(out, "| {:>16} ", "-");
                } else {
                    let quality = if cell.with_solutions == 0 {
                        "   -".to_string()
                    } else {
                        format!("{:>4.2}", cell.quality / cell.with_solutions as f64)
                    };
                    let text = format!(
                        "{}/{} {:>5.1} {quality}",
                        cell.hits,
                        cell.ok,
                        cell.solutions as f64 / cell.ok as f64,
                    );
                    let _ = write!(out, "| {text:>16} ");
                }
            }
            out.push('\n');
        }
        out.push_str(
            "cells: hits/ok-runs  mean #solutions  mean avg-distance quality over runs \
             with solutions (0 = a real error site, - = none)\n",
        );
        // Discriminating-test-generation aggregate, only when some record
        // actually carries the shrinkage columns.
        let shrink: Vec<TestGenRecord> = self.records.iter().filter_map(|r| r.test_gen).collect();
        if !shrink.is_empty() {
            let gen: usize = shrink.iter().map(|t| t.gen_tests).sum();
            let before: usize = shrink.iter().map(|t| t.solutions_before).sum();
            let after: usize = shrink.iter().map(|t| t.solutions_after).sum();
            let shrunk = shrink
                .iter()
                .filter(|t| t.solutions_after < t.solutions_before)
                .count();
            let _ = writeln!(
                out,
                "test-gen: {} instances, {gen} generated tests, \
                 solutions {before} -> {after} ({shrunk} instances shrunk)",
                shrink.len()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_campaign;
    use gatediag_netlist::c17;

    fn small_report() -> CampaignReport {
        let mut spec = CampaignSpec::new(vec![("c17".to_string(), c17())]);
        spec.fault_models = vec![FaultModel::GateChange];
        spec.error_counts = vec![1];
        spec.seeds = vec![1];
        spec.engines = vec![EngineKind::Bsim, EngineKind::Bsat];
        run_campaign(&spec)
    }

    #[test]
    fn json_has_schema_and_one_object_per_instance() {
        let report = small_report();
        let json = report.to_json(false);
        assert!(json.contains("\"schema\": \"gatediag-campaign-v1\""));
        assert_eq!(
            json.matches("\"fault_model\":").count(),
            report.records.len()
        );
        assert!(!json.contains("wall_ms"));
        assert!(report.to_json(true).contains("wall_ms"));
    }

    #[test]
    fn csv_row_count_matches() {
        let report = small_report();
        let csv = report.to_csv(false);
        assert_eq!(csv.lines().count(), report.records.len() + 1);
        assert!(csv.starts_with("circuit,"));
        assert!(!csv.contains("wall_ms"));
        assert!(report
            .to_csv(true)
            .lines()
            .next()
            .unwrap()
            .ends_with("wall_ms"));
    }

    #[test]
    fn summary_has_a_row_per_group_and_column_per_engine() {
        let report = small_report();
        let table = report.summary_table();
        assert!(table.contains("bsim"));
        assert!(table.contains("bsat"));
        assert!(table.contains("c17"));
        assert!(table.contains("gate-change"));
    }

    #[test]
    fn duplicate_engine_columns_render_identically() {
        // A repeated engine in the matrix echo must render the same
        // aggregated cell in every one of its columns (the old
        // per-column rescan did; the indexed pass must too).
        let mut spec = CampaignSpec::new(vec![("c17".to_string(), c17())]);
        spec.fault_models = vec![FaultModel::GateChange];
        spec.error_counts = vec![1];
        spec.seeds = vec![1, 2];
        spec.engines = vec![EngineKind::Bsim, EngineKind::Bsat, EngineKind::Bsim];
        let table = run_campaign(&spec).summary_table();
        for line in table.lines().skip(2) {
            let columns: Vec<&str> = line.split('|').collect();
            if columns.len() == 4 {
                assert_eq!(
                    columns[1], columns[3],
                    "duplicate bsim columns differ: {line}"
                );
                assert!(
                    columns[1].trim() != "-",
                    "bsim records folded into the wrong column: {line}"
                );
            }
        }
    }

    #[test]
    fn zero_solution_records_report_null_quality() {
        // p = 50 on c17 is not injectable: solutions stay 0 and the
        // quality triple must serialise as null / empty, never 0.0.
        let mut spec = CampaignSpec::new(vec![("c17".to_string(), c17())]);
        spec.fault_models = vec![FaultModel::GateChange];
        spec.error_counts = vec![50];
        spec.seeds = vec![1];
        spec.engines = vec![EngineKind::Bsat];
        let report = run_campaign(&spec);
        assert_eq!(report.records.len(), 1);
        assert_eq!(report.records[0].solutions, 0);
        let json = report.to_json(false);
        assert!(json.contains("\"quality_min\": null"));
        assert!(!json.contains("\"quality_min\": 0.0000"));
        let csv = report.to_csv(false);
        assert!(csv.lines().nth(1).unwrap().contains(",,,"));
        // The summary shows "-" instead of a perfect-looking 0.00 mean.
        assert!(report.summary_table().contains('-'));
    }

    #[test]
    fn json_strings_are_escaped() {
        // Circuit names come from file names and may hold quotes,
        // backslashes or control characters: the report must stay valid
        // JSON and carry the name through unchanged.
        let mut report = small_report();
        let name = "a\"b\\c\nd";
        report.records[0].circuit = name.to_string();
        let json = report.to_json(false);
        assert!(json.contains(r#""circuit": "a\"b\\c\u000ad""#));
        let parsed = crate::reader::parse_report(&json).expect("escaped report parses");
        assert_eq!(parsed.records[0].circuit, name);
    }

    #[test]
    fn csv_fields_are_quoted_when_needed() {
        assert_eq!(csv_field("c17"), "c17");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("a\"b"), "\"a\"\"b\"");
    }
}
