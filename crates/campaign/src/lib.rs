//! `gatediag-campaign`: fault-model-diverse, parallel experiment
//! campaigns over ISCAS89 circuits.
//!
//! The paper's contribution is an *experimental comparison* — BSIM vs COV
//! vs BSAT over many injected-error instances — and this crate is the
//! scenario machine that produces such comparisons at scale. A
//! [`CampaignSpec`] crosses
//!
//! ```text
//! circuits × fault models × error counts p × seeds × engines
//! ```
//!
//! (sequential engines additionally cross the `frames` × `seq_lens`
//! axes — see [`CampaignSpec::frames`])
//!
//! into a flat instance matrix; [`run_campaign`] fans the matrix out over
//! the shared worker pool (one cell — the instances sharing circuit,
//! fault model, p and seed, which prepare once — per work item,
//! index-ordered merge) and collects resolution quality, candidate/solution counts and
//! engine statistics into a [`CampaignReport`] with JSON and CSV emitters
//! plus a paper-style summary table.
//!
//! Circuits come from either a directory of real ISCAS89 `.bench` files
//! ([`gatediag_netlist::parse_bench_dir`]) or the built-in synthetic
//! fallback set ([`CampaignSpec::demo_circuits`]); fault models are the
//! [`gatediag_netlist::FaultModel`] family (the paper's gate-kind
//! substitution plus stuck-at, wrong input connection and extra
//! inverter); engines are the [`gatediag_core::EngineKind`] surface
//! (BSIM, COV, BSAT, the Sec. 6 hybrid, and the auto-dispatching
//! validity-screened `auto` engine).
//!
//! # Determinism
//!
//! Reports are **byte-identical for every worker count**: each instance
//! is a pure function of `(spec, index)`, records merge in matrix order,
//! and the emitters exclude wall-clock timing unless explicitly asked.
//! `crates/campaign/tests/campaign_drift.rs` pins this contract, in the
//! same style as the engine-level drift suites.
//!
//! # Examples
//!
//! ```
//! use gatediag_campaign::{run_campaign, CampaignSpec};
//! use gatediag_core::EngineKind;
//! use gatediag_netlist::FaultModel;
//!
//! let mut spec = CampaignSpec::demo();
//! // One circuit, one seed: a doctest-sized matrix.
//! spec.circuits.truncate(1);
//! spec.fault_models = vec![FaultModel::GateChange, FaultModel::StuckAt];
//! spec.error_counts = vec![1];
//! spec.seeds = vec![1];
//! spec.engines = vec![EngineKind::Bsim, EngineKind::Bsat];
//! let report = run_campaign(&spec);
//! assert_eq!(report.records.len(), 4);
//! println!("{}", report.summary_table());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod reader;
mod report;
mod runner;
mod spec;

pub use reader::{parse_report, parse_report_bytes, ReadError, CAMPAIGN_SCHEMA};
pub use report::{CampaignReport, InstanceRecord, InstanceStatus, TestGenRecord};
pub use runner::{
    resume_campaign, resume_campaign_checkpointed, run_campaign, run_campaign_checkpointed,
    CheckpointPolicy,
};
pub use spec::{
    validate_frames, validate_seq_len, CampaignSpec, InstanceSpec, RetryOn, RetryPolicy,
    MAX_FRAMES, MAX_SEQ_LEN,
};
