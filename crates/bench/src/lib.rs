//! Experiment harness for the `gatediag` reproduction of Fey et al.,
//! DATE 2006.
//!
//! The `paper` binary (`cargo run --release -p gatediag-bench --bin
//! paper`) runs each `(workload, m)` cell once and prints, from the same
//! cells, the runtimes of BSIM / COV / BSAT (paper Table 2), their
//! diagnosis quality metrics (paper Table 3) and the BSAT-vs-COV scatter
//! data for quality and solution counts (paper Fig. 6, ASCII preview),
//! with one CSV per section. After them it prints Table 1's complexity
//! shapes and the Secs. 2.3/6 ablations as tables of deterministic
//! counters ([`counter_tables`]).
//!
//! End-to-end performance is measured by the separate `perfbench`
//! package. The integration tests keep the hot paths' speed floors and
//! pin the solver's search on generic SAT workloads.

#![warn(missing_docs)]

pub mod counter_tables;
pub mod harness;
