//! CNF encodings for SAT-based circuit diagnosis.
//!
//! Bridges the [`gatediag-netlist`](gatediag_netlist) substrate and the
//! [`gatediag-sat`](gatediag_sat) solver:
//!
//! * [`encode_copy`] — the one circuit-copy encoder: a Tseitin copy (one
//!   variable per gate, linear clause count) in which each gate is
//!   [plain, freed, pinned or selected](GateRole) per its [`CopyRoles`].
//!   Every copy in the workspace goes through it; [`encode_circuit`]
//!   (plain), [`encode_freed_copy`] (paper Definition 3's freed
//!   candidates), [`encode_pinned_copy`] (test generation's universal
//!   expansion) and [`encode_instrumented_copy`] are one-line calls of
//!   it;
//! * [`Instrumentation`] — the correction multiplexers of the paper's
//!   Fig. 2, with select lines shared across test copies and a choice of
//!   [`MuxEncoding`]s (inline guards vs the paper-faithful explicit mux,
//!   with the advanced `c = 0` optimisation);
//! * [`Totalizer`] — cardinality constraints
//!   `Σ s_g ≤ k`, the totalizer exposing incremental per-`k` assumption
//!   literals (the Zchaff-style incremental usage of Fig. 3);
//! * [`ClauseSink`] / [`CnfCollector`] / [`BlockRecorder`] — encode into
//!   a live solver, capture the formula for brute-force cross-checks, or
//!   record a fragment once and stamp it into solvers
//!   per use ([`gatediag_sat::Solver::add_block`]; BSAT records one
//!   instrumented copy and stamps it per test).
//!
//! # Examples
//!
//! ```
//! use gatediag_cnf::encode_circuit;
//! use gatediag_sat::{Solver, SolveResult};
//!
//! // Is there an input making both c17 outputs 1?
//! let c = gatediag_netlist::c17();
//! let mut solver = Solver::new();
//! let vars = encode_circuit(&mut solver, &c);
//! for &o in c.outputs() {
//!     solver.add_clause(&[vars.lit(o, true)]);
//! }
//! assert_eq!(solver.solve(&[]), SolveResult::Sat);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod card;
mod copies;
mod miter;
mod mux;
mod sink;
mod tseitin;

pub use card::Totalizer;
pub use copies::{
    block_input_vector, encode_copy, encode_freed_copy, encode_pinned_copy, harvest_input_lane,
    harvest_input_vector, tie_inputs, CopyRoles, GateRole,
};
pub use miter::{check_equivalence, distinguishing_vectors, Distinguisher};
pub use mux::{encode_instrumented_copy, Instrumentation, InstrumentedCopy, MuxEncoding};
pub use sink::{BlockRecorder, ClauseSink, CnfCollector};
pub use tseitin::{encode_circuit, CircuitVars};
