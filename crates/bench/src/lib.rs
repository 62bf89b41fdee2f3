//! Experiment harness for the `gatediag` reproduction of Fey et al.,
//! DATE 2006.
//!
//! Binaries (`cargo run --release -p gatediag-bench --bin <name>`):
//!
//! * `table2` — runtimes of BSIM / COV / BSAT (paper Table 2);
//! * `table3` — diagnosis quality metrics (paper Table 3);
//! * `fig6` — BSAT-vs-COV scatter data for quality and solution counts
//!   (paper Fig. 6), CSV plus ASCII preview;
//! * `bench_pr1` — emits `BENCH_PR1.json`, the perf trajectory baseline
//!   comparing the packed/incremental hot paths against the seed's
//!   scalar-per-test behaviour (sim throughput, BSIM wall time,
//!   validity screening);
//! * `bench_pr2` — emits `BENCH_PR2.json`, extending the trajectory with
//!   per-thread-count scaling of the parallel diagnosis layer (sharded
//!   BSIM, parallel candidate screening, the reusable validity engine),
//!   with bit-identity asserted between every worker count before any
//!   number is published;
//! * `bench_pr3` — emits `BENCH_PR3.json`, the SAT-side numbers: solver
//!   throughput on the [`solver_workloads`] (each search asserted
//!   against pinned conflict and propagation counts), and per-worker
//!   BSAT / validity-`_sat` scaling, again bit-identity-asserted first.
//!
//! Criterion benchmarks (`cargo bench -p gatediag-bench`): `solver`,
//! `sim` (including the `PackedSim` multi-word and incremental groups),
//! `diagnosis`, `scaling` (complexity shapes behind Table 1) and
//! `ablation` (the advanced techniques of Secs. 2.2/2.3/6).

#![warn(missing_docs)]

pub mod harness;
pub mod solver_workloads;
