//! `gatediag-core`: the diagnosis engines of "On the Relation Between
//! Simulation-based and SAT-based Diagnosis" (Fey, Safarpour, Veneris,
//! Drechsler — DATE 2006).
//!
//! Given a faulty circuit and a set of failing [`Test`]s, the engines
//! locate candidate error gates. The first three are the paper's basic
//! engines; every row is an [`EngineKind`], named as on the command line:
//!
//! | engine | function | guarantees | paper |
//! |--------|----------|------------|-------|
//! | `bsim` | [`basic_sim_diagnose`] | marks sensitised paths, no validity | Fig. 1 |
//! | `cov` | [`sc_diagnose`] | irredundant covers ≤ k, no validity | Fig. 4 |
//! | `bsat` | [`basic_sat_diagnose`] | exactly all irredundant *valid* corrections ≤ k | Fig. 3 |
//! | `hybrid` | [`hybrid_seeded_bsat`] | BSAT's solutions, search seeded by BSIM marks | Sec. 6 |
//! | `auto` | COV, then [`screen_valid_corrections`] | the valid COV covers | Theorem 2 |
//! | `seq-bsim` | `bsim` on a sequential [`DiagnosisProblem`] | BSIM's, per original gate | |
//! | `seq-bsat` | `bsat` on a sequential [`DiagnosisProblem`] | BSAT's, one select per original gate | ref. \[4\] |
//!
//! [`run_engine`] is the one entry point: it runs an engine by its kind
//! on a [`DiagnosisProblem`], and `diagnose`, `campaign` and `serve`
//! reach the engines only through it. The problem is the encoded circuit,
//! its failing tests, the grouping of each reported gate into encoded
//! instances and the projection back: the faulty circuit with every gate
//! standing for itself ([`DiagnosisProblem::combinational`]), or the
//! time-frame expansion of failing sequences with each gate's instances
//! in every frame grouped under it ([`DiagnosisProblem::sequential`]).
//! Each engine has one implementation, and each of the paper's two
//! solution spaces has one exhaustive oracle to check it against:
//! [`brute_force_diagnose`] for BSAT's valid corrections and
//! [`brute_force_covers`] for COV's covers.
//!
//! One exact validity oracle, [`ValidityOracle`], with two backends
//! (forced-value simulation and SAT, picked per call from `|C|` and cone
//! size unless pinned via [`ValidityBackend`]), its one-shot form
//! [`is_valid_correction`], and the two brute-force oracles make the
//! paper's Lemmas 1-4 and Theorems 1-2 executable; the [`paper_examples`]
//! module ships the Fig. 5 witness circuits. The same oracle answers for
//! any problem's corrections ([`DiagnosisProblem::is_valid`]) on the
//! candidates' encoded instances.
//!
//! Every SAT engine here (BSAT, sequential BSAT, the SAT validity
//! backend and test generation) builds its circuit copies with
//! [`gatediag_cnf::encode_copy`], the one circuit-copy encoder.
//!
//! # Parallel diagnosis
//!
//! The simulation-based flows are embarrassingly parallel across
//! *independent candidate cones and test batches*: their option structs
//! carry a [`Parallelism`] knob that shards the work over
//! a scoped worker pool (one reusable engine per worker, work-stealing
//! over a shared index — see [`gatediag_sim::parallel_map_init`]).
//! Results are **bit-identical for every thread count**; drift tests and
//! property tests pin this. Cross-candidate loops should reuse one
//! [`ValidityOracle`] per thread (or batch-screen with
//! [`screen_valid_corrections`]) instead of paying a fresh engine's
//! per-call buffer setup. On the SAT side the validity screens shard the
//! same way; BSAT's instance build needs no pool, since it encodes one
//! copy and stamps it once per test ([`gatediag_sat::Solver::add_block`]).
//!
//! # Examples
//!
//! Diagnose a 3-gate circuit end to end: path-trace candidates, then
//! validate them.
//!
//! ```
//! use gatediag_core::{basic_sim_diagnose, is_valid_correction, BsimOptions, Test, TestSet};
//! use gatediag_netlist::{CircuitBuilder, GateKind};
//!
//! // A 3-gate faulty design: y = AND(NOT(a), b) where the golden design
//! // wanted y = OR(NOT(a), b).
//! let mut b = CircuitBuilder::new();
//! let a = b.input("a");
//! let bb = b.input("b");
//! let n = b.gate(GateKind::Not, vec![a], "n");
//! let y = b.gate(GateKind::And, vec![n, bb], "y");
//! b.output(y);
//! let faulty = b.finish().unwrap();
//!
//! // a = 1, b = 1 distinguishes the designs: the golden OR(0, 1) = 1,
//! // the faulty AND(0, 1) = 0 — so (vector [1,1], output y, expected 1)
//! // is a failing test.
//! let tests = TestSet::new(vec![Test { vector: vec![true, true], output: y, expected: true }]);
//!
//! // BSIM marks candidates along sensitised paths from y.
//! let marked = basic_sim_diagnose(&faulty, &tests, BsimOptions::default());
//! assert!(marked.union.contains(y));
//! // The faulty gate alone is a valid correction.
//! assert!(is_valid_correction(&faulty, &tests, &[y]));
//! ```
//!
//! SAT-based diagnosis on the paper's workloads:
//!
//! ```
//! use gatediag_core::{basic_sat_diagnose, generate_failing_tests, BsatOptions};
//! use gatediag_netlist::{c17, inject_errors};
//!
//! // Inject an error, collect failing tests, diagnose.
//! let golden = c17();
//! let (faulty, sites) = inject_errors(&golden, 1, 42);
//! let tests = generate_failing_tests(&golden, &faulty, 8, 42, 4096);
//! let result = basic_sat_diagnose(&faulty, &tests, 1, BsatOptions::default());
//! // The real error site is among the size-1 corrections.
//! assert!(result.solutions.contains(&vec![sites[0].gate]));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bruteforce;
mod bsat;
mod bsim;
pub mod budget;
pub mod chaos;
mod cov;
mod engine;
mod hybrid;
pub mod paper_examples;
mod problem;
mod quality;
mod sequential;
pub mod session;
mod test_set;
pub mod testgen;
mod validity;

pub use bruteforce::{brute_force_covers, brute_force_diagnose};
pub use bsat::{basic_sat_diagnose, BsatOptions, BsatResult};
pub use bsim::{
    basic_sim_diagnose, path_trace, path_trace_packed, BsimOptions, BsimResult, MarkPolicy,
};
pub use budget::{Budget, BudgetMeter, Truncation};
pub use chaos::{ChaosConfig, ChaosEvent, ChaosPolicy};
pub use cov::{cover_all, sc_diagnose, CovOptions, CovResult};
pub use engine::{run_engine, EngineConfig, EngineKind, EngineRun};
pub use hybrid::hybrid_seeded_bsat;
pub use problem::DiagnosisProblem;
pub use quality::{bsim_quality, solution_quality, BsimQuality, SolutionQuality};
pub use sequential::{
    generate_failing_sequences, real_inputs, sequence_tests_to_unrolled, simulate_sequence,
    SequenceTest, SequenceTestSet,
};
pub use session::{
    circuit_content_hash, inject, prepare, prepare_injected, run_diagnose, run_prepared,
    validate_frames, validate_seq_len, CircuitSession, DiagnoseOutcome, DiagnoseRequest,
    DiagnoseStatus, Injection, PrepareKey, Prepared, PreparedTests, MAX_CACHED_OUTCOMES,
    MAX_CACHED_PREPARES, MAX_FRAMES, MAX_SEQ_LEN,
};
pub use test_set::{generate_failing_tests, Test, TestSet};
pub use testgen::{generate_discriminating_tests, TestGenOutcome};
pub use validity::{
    is_valid_correction, screen_valid_corrections, ScreenOutcome, ValidityBackend, ValidityOracle,
    SIM_MAX_CANDIDATES,
};

// The thread-count policy for the parallel diagnosis entry points lives
// in the simulation crate (next to the worker pool); re-export it so core
// users configure parallelism without an extra dependency.
pub use gatediag_sim::Parallelism;

// Re-export the option/encoding types used in this crate's public API so
// downstream users need not depend on the encoding crate directly.
pub use gatediag_cnf::MuxEncoding;
pub use gatediag_sat::SolverStats;

// The JSON layer lives in `gatediag_obs`, at the bottom of the
// dependency graph, so the trace reader can share it; `perfbench` and
// other importers still reach it as `gatediag_core::json`.
pub use gatediag_obs::json;
