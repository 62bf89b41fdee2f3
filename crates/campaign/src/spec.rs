//! Campaign specifications: the instance matrix.
//!
//! A [`CampaignSpec`] crosses circuits × fault models × error counts ×
//! seeds × engines into a flat, index-ordered list of [`InstanceSpec`]s.
//! The matrix order is fixed (circuits outermost, engines innermost), so
//! instance indices — and therefore the merged report — are a pure
//! function of the spec, independent of how the runner schedules the
//! work.
//!
//! Sequential engines (`seq-bsim` / `seq-bsat`) additionally cross the
//! [`CampaignSpec::frames`] × [`CampaignSpec::seq_lens`] axes inside
//! their engine slot; combinational engines ignore both axes, so a spec
//! without sequential engines expands to exactly the legacy matrix.

use gatediag_core::{ChaosConfig, EngineKind};
use gatediag_netlist::{c17, Circuit, FaultModel, RandomCircuitSpec};
use gatediag_sim::Parallelism;

/// Which failure classes a [`RetryPolicy`] re-attempts.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum RetryOn {
    /// Retry only panicked attempts. Deterministic outcomes (a work or
    /// conflict preemption, an enumeration cap) would fail identically
    /// on every attempt, so they are recorded first try.
    Panic,
    /// Retry panics *and* wall-deadline preemptions — a deadline is a
    /// transient, machine-load-dependent outcome, so a second attempt
    /// can genuinely succeed. Only meaningful with `deadline_ms` set,
    /// and inherits its nondeterminism.
    PanicOrDeadline,
}

impl RetryOn {
    /// Stable serialisation/CLI token.
    pub fn name(self) -> &'static str {
        match self {
            RetryOn::Panic => "panic",
            RetryOn::PanicOrDeadline => "panic-or-deadline",
        }
    }

    /// Parses a CLI spelling (case-insensitive).
    pub fn parse(text: &str) -> Option<RetryOn> {
        match text.to_ascii_lowercase().as_str() {
            "panic" => Some(RetryOn::Panic),
            "panic-or-deadline" => Some(RetryOn::PanicOrDeadline),
            _ => None,
        }
    }
}

/// Bounded retry for failed instance attempts.
///
/// Deterministic by construction: which attempts fail is a pure function
/// of `(spec, instance, attempt)` (real panics are deterministic replays;
/// injected chaos is seeded and hashes the attempt number in), and the
/// backoff sleep only spends wall time — it is quarantined from reports
/// exactly like `wall_ms`.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct RetryPolicy {
    /// Total attempts per instance (first try included); at least 1.
    pub max_attempts: u32,
    /// Sleep before attempt `n + 1`, doubling per retry:
    /// `backoff_ms << (n - 1)` milliseconds. `0` = no sleep.
    pub backoff_ms: u64,
    /// Which failures are worth re-attempting.
    pub retry_on: RetryOn,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 2,
            backoff_ms: 0,
            retry_on: RetryOn::Panic,
        }
    }
}

/// A full experiment campaign: the instance matrix plus shared limits.
#[derive(Clone, Debug)]
pub struct CampaignSpec {
    /// The golden circuits, as `(name, circuit)` pairs.
    pub circuits: Vec<(String, Circuit)>,
    /// Fault models to inject.
    pub fault_models: Vec<FaultModel>,
    /// Injected error counts (the paper's `p`).
    pub error_counts: Vec<usize>,
    /// Injection/test-generation seeds.
    pub seeds: Vec<u64>,
    /// Diagnosis engines to run on every instance.
    pub engines: Vec<EngineKind>,
    /// Time-frame counts for the sequential engines: each value is both
    /// the generated sequence length and the SAT unroll depth, and is
    /// crossed into the matrix for every sequential engine.
    /// Combinational engines ignore the axis.
    pub frames: Vec<usize>,
    /// Failing-sequence counts per sequential instance (the sequential
    /// analogue of [`CampaignSpec::tests`]), crossed into the matrix
    /// like [`CampaignSpec::frames`].
    pub seq_lens: Vec<usize>,
    /// Failing tests to collect per instance (the paper's `m`).
    pub tests: usize,
    /// Random-vector budget for failing-test generation; instances whose
    /// faults stay unobservable within it are recorded as skipped.
    pub max_test_vectors: usize,
    /// Correction size bound `k`; `None` means `k = p` per instance.
    pub k: Option<usize>,
    /// Per-instance enumeration cap.
    pub max_solutions: usize,
    /// Per-instance conflict budget for every SAT search an instance
    /// performs — the diagnosis solvers *and* the `auto` engine's SAT
    /// validity backend (`None` = unlimited).
    pub conflict_budget: Option<u64>,
    /// Per-instance deterministic work budget, in engine-defined units
    /// (tests traced / covering nodes / conflicts / sets screened — see
    /// `gatediag_core::budget`). Truncated instances are recorded as
    /// `preempted`, and the report stays byte-identical for every worker
    /// count (`None` = unlimited).
    pub work_budget: Option<u64>,
    /// Per-instance wall-clock deadline in milliseconds. Nondeterministic
    /// — a deadline-truncated report is *not* reproducible, exactly like
    /// the `wall_ms` column (`None` = no deadline).
    pub deadline_ms: Option<u64>,
    /// Worker-pool policy for the campaign runner (instances are the unit
    /// of parallelism; engines run sequentially inside a worker). The
    /// report is bit-identical for every setting.
    pub parallelism: Parallelism,
    /// Seeded fault injection for every engine run (`None` = off). A
    /// chaos campaign is as reproducible as a clean one — decisions are
    /// keyed off instance identity, never wall clock — so the drift
    /// contract extends over injected failures.
    pub chaos: Option<ChaosConfig>,
    /// Bounded retry for panicked (and optionally deadline-preempted)
    /// attempts.
    pub retry: RetryPolicy,
    /// Circuit-loading warnings to surface in the report header (e.g.
    /// `.bench` files skipped by the lenient directory loader). Purely
    /// informational: excluded from the resume limit checks.
    pub bench_warnings: Vec<String>,
    /// SAT-guided discriminating-test generation after each instance's
    /// diagnosis (`--test-gen sat`, off by default; see
    /// `gatediag_core::testgen`). When on, every record carries the
    /// `gen_tests` / `solutions_before` / `solutions_after` /
    /// `ambiguity_classes` shrinkage columns.
    pub test_gen: bool,
    /// Attach the per-instance observability trace (spans + counters,
    /// see `gatediag_obs`) to every record, for `--trace` / `--profile`.
    /// Off by default; the JSON/CSV reports are byte-identical either
    /// way — traces only flow to the separate trace JSONL stream.
    pub collect_obs: bool,
    /// Emit the extended solver-statistics columns (`restarts`,
    /// `learnt_clauses`, `gc_runs`) in the JSON/CSV reports. The values
    /// are always measured; the flag only gates emission, so reports
    /// from campaigns without it stay byte-identical to legacy output.
    pub solver_stats: bool,
}

impl CampaignSpec {
    /// Creates a spec over `circuits` with the default matrix: all fault
    /// models, `p ∈ {1, 2}`, seeds `{1, 2}`, the BSIM/COV/BSAT engine
    /// trio, 8 tests per instance.
    pub fn new(circuits: Vec<(String, Circuit)>) -> CampaignSpec {
        CampaignSpec {
            circuits,
            fault_models: FaultModel::ALL.to_vec(),
            error_counts: vec![1, 2],
            seeds: vec![1, 2],
            engines: vec![EngineKind::Bsim, EngineKind::Cov, EngineKind::Bsat],
            frames: vec![3],
            seq_lens: vec![4],
            tests: 8,
            max_test_vectors: 1 << 15,
            k: None,
            max_solutions: 10_000,
            conflict_budget: Some(5_000_000),
            work_budget: None,
            deadline_ms: None,
            parallelism: Parallelism::default(),
            chaos: None,
            retry: RetryPolicy::default(),
            bench_warnings: Vec::new(),
            test_gen: false,
            collect_obs: false,
            solver_stats: false,
        }
    }

    /// The built-in synthetic circuit set used when no `.bench` directory
    /// is supplied: `c17` plus two seeded random circuits (64 and 160
    /// functional gates, the larger one with pseudo-I/O latches).
    pub fn demo_circuits() -> Vec<(String, Circuit)> {
        vec![
            ("c17".to_string(), c17()),
            (
                "rnd64".to_string(),
                RandomCircuitSpec::new(8, 4, 64)
                    .seed(7)
                    .name("rnd64")
                    .generate(),
            ),
            (
                "rnd160".to_string(),
                RandomCircuitSpec::new(10, 5, 160)
                    .latches(4)
                    .seed(9)
                    .name("rnd160")
                    .generate(),
            ),
        ]
    }

    /// The demo campaign: [`CampaignSpec::demo_circuits`] under the
    /// default matrix (4 fault models × 3 engines × 2 error counts × 2
    /// seeds).
    pub fn demo() -> CampaignSpec {
        CampaignSpec::new(CampaignSpec::demo_circuits())
    }

    /// Expands the matrix into index-ordered instances: circuits
    /// outermost, then fault models, error counts, seeds, and engines
    /// innermost. A sequential engine's slot expands further over
    /// `frames × seq_lens` (frames outermost); combinational engines
    /// produce exactly one instance per slot with both set to `None`.
    pub fn instances(&self) -> Vec<InstanceSpec> {
        let mut out = Vec::new();
        for circuit in 0..self.circuits.len() {
            for &fault_model in &self.fault_models {
                for &p in &self.error_counts {
                    for &seed in &self.seeds {
                        for &engine in &self.engines {
                            let base = InstanceSpec {
                                circuit,
                                fault_model,
                                p,
                                seed,
                                engine,
                                frames: None,
                                seq_len: None,
                            };
                            if engine.is_sequential() {
                                for &frames in &self.frames {
                                    for &seq_len in &self.seq_lens {
                                        out.push(InstanceSpec {
                                            frames: Some(frames),
                                            seq_len: Some(seq_len),
                                            ..base
                                        });
                                    }
                                }
                            } else {
                                out.push(base);
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

// The frame/seq-len clamps moved to `gatediag_core::session` (they are
// shared by the CLI, the campaign and the serve daemon's one validation
// gate); re-exported here so existing campaign users keep their paths.
pub use gatediag_core::{validate_frames, validate_seq_len, MAX_FRAMES, MAX_SEQ_LEN};

/// One cell of the campaign matrix.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct InstanceSpec {
    /// Index into [`CampaignSpec::circuits`].
    pub circuit: usize,
    /// The fault model to inject.
    pub fault_model: FaultModel,
    /// Number of injected errors.
    pub p: usize,
    /// Injection/test seed.
    pub seed: u64,
    /// The engine to diagnose with.
    pub engine: EngineKind,
    /// Time frames per sequence (`Some` exactly for sequential engines).
    pub frames: Option<usize>,
    /// Failing sequences to collect (`Some` exactly for sequential
    /// engines).
    pub seq_len: Option<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_order_is_engines_innermost() {
        let mut spec = CampaignSpec::new(vec![("c17".to_string(), c17())]);
        spec.fault_models = vec![FaultModel::GateChange, FaultModel::StuckAt];
        spec.error_counts = vec![1];
        spec.seeds = vec![5];
        spec.engines = vec![EngineKind::Bsim, EngineKind::Bsat];
        let instances = spec.instances();
        assert_eq!(instances.len(), 4);
        assert_eq!(instances[0].engine, EngineKind::Bsim);
        assert_eq!(instances[1].engine, EngineKind::Bsat);
        assert_eq!(instances[0].fault_model, FaultModel::GateChange);
        assert_eq!(instances[2].fault_model, FaultModel::StuckAt);
    }

    #[test]
    fn demo_meets_the_acceptance_matrix() {
        let spec = CampaignSpec::demo();
        assert!(spec.fault_models.len() >= 3);
        assert!(spec.engines.len() >= 2);
        assert!(!spec.instances().is_empty());
    }

    #[test]
    fn sequential_engines_cross_the_frames_and_seq_len_axes() {
        let mut spec = CampaignSpec::new(vec![("c17".to_string(), c17())]);
        spec.fault_models = vec![FaultModel::GateChange];
        spec.error_counts = vec![1];
        spec.seeds = vec![5];
        spec.engines = vec![EngineKind::Bsim, EngineKind::SeqBsat];
        spec.frames = vec![2, 4];
        spec.seq_lens = vec![3, 6];
        let instances = spec.instances();
        // 1 combinational + 1 sequential × 2 frames × 2 seq_lens.
        assert_eq!(instances.len(), 5);
        assert_eq!(instances[0].engine, EngineKind::Bsim);
        assert_eq!((instances[0].frames, instances[0].seq_len), (None, None));
        let seq: Vec<(Option<usize>, Option<usize>)> = instances[1..]
            .iter()
            .map(|i| (i.frames, i.seq_len))
            .collect();
        assert_eq!(
            seq,
            vec![
                (Some(2), Some(3)),
                (Some(2), Some(6)),
                (Some(4), Some(3)),
                (Some(4), Some(6)),
            ],
            "frames outermost, seq_lens innermost"
        );
        assert!(instances[1..].iter().all(|i| i.engine.is_sequential()));
    }

    #[test]
    fn specs_without_sequential_engines_ignore_the_sequential_axes() {
        let mut spec = CampaignSpec::new(vec![("c17".to_string(), c17())]);
        spec.fault_models = vec![FaultModel::GateChange];
        spec.error_counts = vec![1];
        spec.seeds = vec![5];
        let legacy = spec.instances();
        spec.frames = vec![1, 2, 3, 4];
        spec.seq_lens = vec![9, 10];
        assert_eq!(spec.instances(), legacy);
    }

    #[test]
    fn frames_and_seq_len_validation_rejects_zero_and_clamps() {
        assert!(validate_frames(0).is_err());
        assert_eq!(validate_frames(1), Ok(1));
        assert_eq!(validate_frames(MAX_FRAMES), Ok(MAX_FRAMES));
        assert_eq!(validate_frames(usize::MAX), Ok(MAX_FRAMES));
        assert!(validate_seq_len(0).is_err());
        assert_eq!(validate_seq_len(8), Ok(8));
        assert_eq!(validate_seq_len(1 << 40), Ok(MAX_SEQ_LEN));
    }
}
