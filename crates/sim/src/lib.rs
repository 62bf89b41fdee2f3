//! Logic simulation engines for the `gatediag` diagnosis library.
//!
//! The engines, matching the needs of the paper's simulation-based
//! diagnosis flows:
//!
//! * [`PackedSim`] — the workhorse: a reusable multi-word bit-parallel
//!   engine (the "efficient parallel simulation" of Sec. 1: arbitrary
//!   pattern counts, `64 * W` patterns per topological sweep, inputs
//!   packed by [`pack_vectors_into`]) with a sparse forced-value overlay and an event-driven
//!   incremental mode that re-simulates only the fan-out cone of a
//!   change. All hot diagnosis paths (BSIM batching, validity screening,
//!   test generation) run on it;
//! * [`simulate`] / [`simulate_forced`] — scalar two-valued simulation
//!   with optional forced gate values (the effect-analysis reference
//!   semantics; `PackedSim` is lane-for-lane bit-identical to it);
//! * [`SeqPackedSim`] / [`simulate_sequence`] — frame-major sequential
//!   simulation: `64 * W` input *sequences* at once per time frame, latch
//!   state words carried frame-to-frame over the explicit
//!   combinationalisation lowering (scalar frame stepping is the pinned
//!   reference);
//! * [`parallel_map_init`] / [`Parallelism`] — a scoped worker pool for
//!   the embarrassingly parallel diagnosis fan-outs (test batches,
//!   candidate sets, campaign instances), built on
//!   [`std::thread::scope`] with one reusable engine per worker and
//!   work-stealing over a shared atomic index. Results are merged in
//!   item order, so parallel diagnosis is bit-identical to sequential.
//!
//! # `PackedSim` lifecycle
//!
//! [`PackedSim::new`] binds to a circuit; [`PackedSim::reset`] sizes the
//! scratch buffers for a pattern count; [`PackedSim::sweep`] runs one
//! full linear topological sweep over the circuit's CSR arrays; after
//! that, [`PackedSim::force`] + [`PackedSim::propagate`] update only
//! affected cones, and [`PackedSim::clear_forced`] returns to baseline
//! in time proportional to the overlay size. Nothing is allocated after
//! `reset`, so a single engine can screen thousands of candidates.
//!
//! # Examples
//!
//! ```
//! use gatediag_netlist::c17;
//! use gatediag_sim::{simulate, output_values};
//!
//! let c = c17();
//! let values = simulate(&c, &[true, true, false, false, true]);
//! let outs = output_values(&c, &values);
//! assert_eq!(outs.len(), 2);
//! ```
//!
//! Multi-word packed simulation of 128 patterns in one sweep:
//!
//! ```
//! use gatediag_netlist::{c17, VectorGen};
//! use gatediag_sim::{pack_vectors_into, simulate, PackedSim};
//!
//! let c = c17();
//! let mut gen = VectorGen::new(&c, 1);
//! let vectors: Vec<Vec<bool>> = (0..128).map(|_| gen.next_vector()).collect();
//! let mut packed = Vec::new();
//! let words = pack_vectors_into(&c, &vectors, &mut packed);
//! let mut sim = PackedSim::new(&c);
//! sim.reset(words);
//! sim.set_input_words(&packed);
//! sim.sweep();
//! assert_eq!(sim.unpack_lane(100), simulate(&c, &vectors[100]));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod engine;
mod packed;
mod pool;
mod scalar;
mod sequential;

pub use engine::PackedSim;
pub use packed::pack_vectors_into;
pub use pool::{
    parallel_map_init, parallel_map_init_isolated, parallel_map_init_while, Parallelism,
    PersistentPool, WorkItemFailure, AUTO_WORK_FLOOR, MAX_ENV_WORKERS,
};
pub use scalar::{output_values, simulate, simulate_forced};
pub use sequential::{pack_rows_into, simulate_sequence, SeqPackedSim};
