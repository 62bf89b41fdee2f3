//! `gatediag` — gate-level design-error diagnosis.
//!
//! A Rust reproduction of *"On the Relation Between Simulation-based and
//! SAT-based Diagnosis"* (G. Fey, S. Safarpour, A. Veneris, R. Drechsler —
//! DATE 2006), built as a complete stack:
//!
//! * [`netlist`] — circuits, ISCAS89 `.bench` I/O, structural analysis,
//!   generators, gate-change error injection;
//! * [`sim`] — bit-parallel, event-driven and sequential simulation;
//! * [`sat`] — an incremental CDCL SAT solver with assumptions and model
//!   enumeration;
//! * [`cnf`] — Tseitin encoding, correction multiplexers, cardinality
//!   constraints;
//! * [`core`] — the diagnosis engines: BSIM (path tracing), COV (set
//!   covering), BSAT (SAT-based), the hybrid, validity oracles,
//!   brute-force cross-check oracles and quality metrics;
//! * [`campaign`] — fault-model-diverse experiment campaigns: a
//!   circuits × fault models × error counts × seeds × engines matrix
//!   (plus frames × sequence-length axes for the sequential engines) run
//!   in parallel with deterministic JSON/CSV reports.
//!
//! The most common entry points are re-exported at the crate root.
//!
//! # Quickstart
//!
//! ```
//! use gatediag::{basic_sat_diagnose, generate_failing_tests, BsatOptions};
//! use gatediag::netlist::{c17, inject_errors};
//!
//! // 1. A golden design and a faulty implementation.
//! let golden = c17();
//! let (faulty, sites) = inject_errors(&golden, 1, 7);
//!
//! // 2. Failing tests from simulation.
//! let tests = generate_failing_tests(&golden, &faulty, 8, 7, 4096);
//!
//! // 3. Diagnose: all valid single-gate corrections.
//! let result = basic_sat_diagnose(&faulty, &tests, 1, BsatOptions::default());
//! assert!(result.solutions.contains(&vec![sites[0].gate]));
//! ```

#![warn(missing_docs)]

pub use gatediag_campaign as campaign;
pub use gatediag_cnf as cnf;
pub use gatediag_core as core;
pub use gatediag_netlist as netlist;
pub use gatediag_sat as sat;
pub use gatediag_serve as serve;
pub use gatediag_sim as sim;

pub use gatediag_campaign::{
    parse_report, parse_report_bytes, resume_campaign, resume_campaign_checkpointed, run_campaign,
    run_campaign_checkpointed, CampaignReport, CampaignSpec, CheckpointPolicy, RetryOn,
    RetryPolicy,
};
pub use gatediag_core::{
    basic_sat_diagnose, basic_sim_diagnose, brute_force_covers, brute_force_diagnose, bsim_quality,
    circuit_content_hash, cover_all, generate_discriminating_tests, generate_failing_sequences,
    generate_failing_tests, hybrid_seeded_bsat, is_valid_correction, path_trace, path_trace_packed,
    run_diagnose, run_engine, sc_diagnose, simulate_sequence, solution_quality, BsatOptions,
    BsatResult, BsimOptions, BsimResult, Budget, ChaosConfig, ChaosEvent, ChaosPolicy,
    CircuitSession, CovOptions, CovResult, DiagnoseOutcome, DiagnoseRequest, DiagnoseStatus,
    DiagnosisProblem, EngineConfig, EngineKind, EngineRun, MarkPolicy, MuxEncoding, SequenceTest,
    SequenceTestSet, Test, TestGenOutcome, TestSet, Truncation, ValidityBackend, ValidityOracle,
};
pub use gatediag_sim::{PackedSim, Parallelism};
