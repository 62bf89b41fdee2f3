//! `gatediag-core`: the diagnosis engines of "On the Relation Between
//! Simulation-based and SAT-based Diagnosis" (Fey, Safarpour, Veneris,
//! Drechsler — DATE 2006).
//!
//! Given a faulty circuit and a set of failing [`Test`]s, three basic
//! engines locate candidate error gates:
//!
//! | engine | function | guarantees | paper |
//! |--------|----------|------------|-------|
//! | BSIM | [`basic_sim_diagnose`] | marks sensitised paths, no validity | Fig. 1 |
//! | COV | [`sc_diagnose`] | irredundant covers ≤ k, no validity | Fig. 4 |
//! | BSAT | [`basic_sat_diagnose`] | exactly all irredundant *valid* corrections ≤ k | Fig. 3 |
//!
//! plus the advanced variants the paper discusses (dominator two-pass and
//! test-set partitioning for SAT, [`sim_backtrack_diagnose`] with
//! resimulation effect analysis for simulation) and the Sec. 6 hybrids
//! ([`hybrid_seeded_bsat`], [`repair_correction`]).
//!
//! One exact validity oracle, [`ValidityOracle`], with two backends
//! (forced-value simulation and SAT, picked per call from `|C|` and cone
//! size unless pinned via [`ValidityBackend`]), its one-shot form
//! [`is_valid_correction`], and a [`brute_force_diagnose`] ground truth
//! make the paper's Lemmas 1-4 and Theorems 1-2 executable; the
//! [`paper_examples`] module ships the Fig. 5 witness circuits.
//!
//! # Parallel diagnosis
//!
//! The simulation-based flows are embarrassingly parallel across
//! *independent candidate cones and test batches*: every diagnosis
//! option struct carries a [`Parallelism`] knob that shards its work over
//! a scoped worker pool (one reusable engine per worker, work-stealing
//! over a shared index — see [`gatediag_sim::parallel_map_init`]).
//! Results are **bit-identical for every thread count**; drift tests and
//! property tests pin this. Cross-candidate loops should reuse one
//! [`ValidityOracle`] per thread (or batch-screen with
//! [`screen_valid_corrections`]) instead of paying a fresh engine's
//! per-call buffer setup. The SAT side shards too:
//! [`BsatOptions::parallelism`] parallelizes the BSAT instance build.
//!
//! # Examples
//!
//! Diagnose a 3-gate circuit end to end: path-trace candidates, validate
//! them, and recover the concrete repair.
//!
//! ```
//! use gatediag_core::{
//!     basic_sim_diagnose, find_kind_repairs, is_valid_correction, BsimOptions, Test, TestSet,
//! };
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
//! // The faulty gate alone is a valid correction, and library
//! // resynthesis recovers OR as one concrete repair.
//! assert!(is_valid_correction(&faulty, &tests, &[y]));
//! let repairs = find_kind_repairs(&faulty, &tests, &[y]);
//! assert!(repairs.contains(&vec![(y, GateKind::Or)]));
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
mod quality;
mod repair;
mod sequential;
pub mod session;
mod sim_backtrack;
mod test_set;
pub mod testgen;
mod validity;

pub use bruteforce::brute_force_diagnose;
pub use bsat::{
    basic_sat_diagnose, conflicting_test_core, partitioned_sat_diagnose, two_pass_sat_diagnose,
    BsatOptions, BsatResult, SiteSelection,
};
pub use bsim::{
    basic_sim_diagnose, path_trace, path_trace_packed, BsimOptions, BsimResult, MarkPolicy,
};
pub use budget::{Budget, BudgetMeter, Truncation};
pub use chaos::{ChaosConfig, ChaosEvent, ChaosPolicy};
pub use cov::{cover_all, sc_diagnose, CovEngine, CovOptions, CovResult};
pub use engine::{run_engine, run_sequential_engine, EngineConfig, EngineKind, EngineRun};
pub use hybrid::{hybrid_seeded_bsat, repair_correction, RepairOutcome};
pub use quality::{bsim_quality, solution_quality, BsimQuality, SolutionQuality};
pub use repair::{
    correction_observations, find_kind_repairs, find_kind_repairs_par, FunctionObservation,
    KindRepair,
};
pub use sequential::{
    generate_failing_sequences, is_valid_sequential_correction, real_inputs,
    sequence_tests_to_unrolled, sequential_sat_diagnose, sequential_sim_diagnose,
    simulate_sequence, SeqBsatOptions, SeqDiagnosis, SeqValidityOracle, SequenceTest,
    SequenceTestSet,
};
pub use session::{
    circuit_content_hash, inject, prepare, prepare_injected, run_diagnose, run_prepared,
    validate_frames, validate_seq_len, CircuitSession, DiagnoseOutcome, DiagnoseRequest,
    DiagnoseStatus, Injection, PrepareKey, Prepared, PreparedTests, MAX_CACHED_OUTCOMES,
    MAX_CACHED_PREPARES, MAX_FRAMES, MAX_SEQ_LEN,
};
pub use sim_backtrack::{sim_backtrack_diagnose, SimBacktrackOptions};
pub use test_set::{generate_failing_tests, Test, TestSet};
pub use testgen::{
    distinguish_pair, generate_discriminating_tests, PairOutcome, TestGenOutcome, TestGenPolicy,
};
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
