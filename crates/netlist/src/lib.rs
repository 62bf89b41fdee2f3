//! Gate-level netlist substrate for the `gatediag` diagnosis library.
//!
//! This crate provides everything the diagnosis engines need to talk about
//! circuits:
//!
//! * [`Circuit`] / [`CircuitBuilder`] — an immutable combinational DAG of
//!   typed gates with precomputed topological order, fan-out lists and
//!   levels;
//!
//! # CSR storage layout
//!
//! A [`Circuit`] stores no per-gate objects. All connectivity lives in
//! flat compressed-sparse-row (CSR) arrays:
//!
//! ```text
//! kinds:        [GateKind; n]          function of gate i
//! fanin_heads:  [u32; n + 1]           offsets into fanin_edges
//! fanin_edges:  [GateId; sum arity]    all fan-in lists, concatenated
//! fanout_heads: [u32; n + 1]           transposed CSR (fan-outs)
//! fanout_edges: [GateId; sum arity]
//! topo:         [GateId; n]            topological order
//! levels:       [u32; n]               logic levels
//! ```
//!
//! Gate `i`'s fan-ins are `fanin_edges[fanin_heads[i]..fanin_heads[i+1]]`.
//! A topological sweep therefore touches three contiguous arrays in a
//! predictable pattern instead of chasing one heap allocation per gate —
//! the property the bit-parallel simulator's throughput rests on. Hot
//! loops read the arrays directly via [`Circuit::kinds`] /
//! [`Circuit::fanin_csr`]; everything else uses the [`Gate`] *view*
//! ([`Circuit::gate`]), a `Copy` facade that keeps the familiar
//! `kind()` / `fanins()` / `arity()` API at zero cost.
//! * [`parse_bench`] / [`write_bench`] — ISCAS89 `.bench` I/O. Flip-flops
//!   stay first-class (every `q = DFF(d)` is a recorded [`Latch`] pair);
//!   the stored [`Circuit`] is the combinationalised lowering of them, and
//!   [`StateView`] is that lowering made explicit (real vs pseudo I/O,
//!   state slots) for the sequential simulator, unroller and engines;
//! * structural analyses ([`fanin_cone`], [`fanout_cone`],
//!   [`undirected_distances`]) used by the engines, test generation and
//!   the quality metrics;
//! * deterministic circuit generators ([`RandomCircuitSpec`], the
//!   ISCAS89-profile stand-ins [`s1423_like`], [`s6669_like`],
//!   [`s38417_like`], and canned textbook circuits such as [`c17`] and
//!   [`ripple_carry_adder`]);
//! * gate-change [error injection](inject_errors) matching the paper's
//!   experimental error model, generalised by [`inject_faults`] into the
//!   wider [`FaultModel`] family (stuck-at, wrong input connection, extra
//!   inverter) used by experiment campaigns;
//! * bulk ISCAS89 ingestion with [`parse_bench_dir`] for directories of
//!   real `.bench` files.
//!
//! # Examples
//!
//! ```
//! use gatediag_netlist::{parse_bench, inject_errors};
//!
//! # fn main() -> Result<(), gatediag_netlist::NetlistError> {
//! let golden = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n")?;
//! let (faulty, sites) = inject_errors(&golden, 1, 42);
//! assert_eq!(sites.len(), 1);
//! assert_ne!(faulty.gate(sites[0].gate).kind(), sites[0].original);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod analysis;
mod bench_format;
mod circuit;
mod export;
mod gate;
mod generate;
mod inject;
mod state;
mod unroll;

pub use analysis::{fanin_cone, fanout_cone, undirected_distances, GateSet};
pub use bench_format::{
    parse_bench, parse_bench_dir, parse_bench_dir_strict, parse_bench_named, write_bench,
    BenchDirLoad, BenchLoadWarning,
};
pub use circuit::{Circuit, CircuitBuilder, Latch, NetlistError};
pub use export::to_dot;
pub use gate::{Gate, GateId, GateKind};
pub use generate::{
    c17, parity_tree, ripple_carry_adder, s1423_like, s38417_like, s6669_like, FairCoins,
    RandomCircuitSpec, VectorGen,
};
pub use inject::{
    inject_errors, inject_faults, inject_stuck_at, try_inject_faults, ErrorSite, Fault, FaultKind,
    FaultModel,
};
pub use state::{InputSlot, StateView};
pub use unroll::{unroll, Unrolling};
