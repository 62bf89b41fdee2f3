//! A CDCL SAT solver built for the `gatediag` diagnosis library.
//!
//! The paper's SAT-based diagnosis relies on three solver capabilities that
//! Zchaff provided in 2004: *incremental* clause addition between solves
//! (blocking clauses), solving under *assumptions* (to raise the correction
//! cardinality bound without rebuilding the instance), and *model
//! extraction* (reading candidate sets off the select lines). This crate
//! implements a modern equivalent from scratch:
//!
//! * two-watched-literal Boolean constraint propagation over CSR-style
//!   *flat* watch lists (one contiguous watcher buffer with per-literal
//!   regions, compacted during garbage collection) with a dedicated
//!   binary-clause fast path, reading a per-literal value table;
//! * first-UIP conflict-driven clause learning with basic self-subsumption
//!   minimisation;
//! * VSIDS decision heuristic over a heap that caches each variable's
//!   activity beside it, with phase saving (externally seedable — the
//!   hybrid flow of paper Sec. 6 injects simulation-derived priorities via
//!   [`Solver::bump_variable`] / [`Solver::set_polarity`]);
//! * Luby restarts and activity-based learnt-clause reduction with arena
//!   garbage collection;
//! * [`enumerate_positive_subsets`] — the all-solutions loop with
//!   subset-blocking clauses used by both COV and BSAT;
//! * [`ClauseBlock`] / [`Solver::add_block`] — a formula fragment
//!   normalised once and appended many times over fresh variables, in
//!   bulk, leaving the solver exactly as adding its clauses one by one
//!   would (BSAT's one circuit copy per test).
//!
//! A brute-force [`mod@reference`] solver cross-checks the CDCL engine in
//! tests.
//!
//! The search itself is part of the contract: campaign records and
//! served responses report [`SolverStats`], and truncated enumerations
//! depend on the order models are found. Optimisations keep every
//! [`Solver::solve`] bit-identical — result, model, failed assumptions
//! and statistics — and `gatediag-core`'s `solver_trajectory` test pins
//! that with per-solve fingerprints. Heuristic changes need a deliberate
//! re-pin.
//!
//! # Examples
//!
//! ```
//! use gatediag_sat::{Solver, SolveResult};
//!
//! let mut solver = Solver::new();
//! let x = solver.new_var();
//! let y = solver.new_var();
//! solver.add_clause(&[x.positive(), y.positive()]);
//! solver.add_clause(&[x.negative(), y.negative()]);
//! assert_eq!(solver.solve(&[]), SolveResult::Sat);
//! let mx = solver.model_value(x.positive()).unwrap();
//! let my = solver.model_value(y.positive()).unwrap();
//! assert_ne!(mx, my);
//! ```
//!
//! The diagnosis loop's shape — enumerate all minimal "select" subsets
//! under an at-least-one constraint, exactly how BSAT reads candidate
//! sets off the select lines:
//!
//! ```
//! use gatediag_sat::{enumerate_positive_subsets, Solver};
//!
//! let mut solver = Solver::new();
//! let selects: Vec<_> = (0..3).map(|_| solver.new_var()).collect();
//! // At least one site must be selected (some gate must be corrected).
//! solver.add_clause(&[selects[0].positive(), selects[1].positive(), selects[2].positive()]);
//! // Sites 0 and 2 conflict (say, incompatible corrections).
//! solver.add_clause(&[selects[0].negative(), selects[2].negative()]);
//! let out = enumerate_positive_subsets(&mut solver, &selects, &[], 100);
//! // Every reported selection satisfies the instance, and subset
//! // blocking guarantees the reported sets form an antichain (no
//! // solution is a superset of an earlier one).
//! assert!(out.complete && !out.solutions.is_empty());
//! for (i, sol) in out.solutions.iter().enumerate() {
//!     assert!(!sol.is_empty());
//!     assert!(!(sol.contains(&selects[0]) && sol.contains(&selects[2])));
//!     for earlier in &out.solutions[..i] {
//!         assert!(!earlier.iter().all(|v| sol.contains(v)));
//!     }
//! }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(clippy::undocumented_unsafe_blocks)]

mod block;
mod clause;
mod enumerate;
mod heap;
mod lit;
pub mod reference;
mod solver;

pub use block::ClauseBlock;
pub use enumerate::{enumerate_positive_subsets, EnumOutcome};
pub use lit::{LBool, Lit, Var};
pub use solver::{SolveResult, Solver, SolverStats};
