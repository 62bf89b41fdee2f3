//! Experiment harness for the `gatediag` reproduction of Fey et al.,
//! DATE 2006.
//!
//! The `paper` binary (`cargo run --release -p gatediag-bench --bin
//! paper`) runs each `(workload, m)` cell once and prints, from the same
//! cells, the runtimes of BSIM / COV / BSAT (paper Table 2), their
//! diagnosis quality metrics (paper Table 3) and the BSAT-vs-COV scatter
//! data for quality and solution counts (paper Fig. 6, ASCII preview),
//! with one CSV per section.
//!
//! Criterion benchmarks (`cargo bench -p gatediag-bench`): `solver`,
//! `sim` (including the `PackedSim` multi-word and incremental groups),
//! `diagnosis`, `scaling` (complexity shapes behind Table 1) and
//! `ablation` (the advanced techniques of Secs. 2.2/2.3/6).
//!
//! End-to-end performance is measured by the separate `perfbench`
//! package. The integration tests keep the hot paths' speed floors and
//! the pinned searches of the [`solver_workloads`].

#![warn(missing_docs)]

pub mod harness;
pub mod solver_workloads;
