//! Diagnosis-as-a-service: the `gatediag serve` daemon.
//!
//! A JSONL request/response service over TCP or stdio that keeps
//! circuits — and every diagnosis computed on them — warm between
//! requests:
//!
//! * [`registry`]: an LRU-bounded [`CircuitRegistry`] mapping circuit
//!   *content* to a long-lived [`gatediag_core::CircuitSession`]. A
//!   repeat request parses nothing and rebuilds nothing (zero
//!   `netlist.builds`, zero `cnf.gates_encoded`) — the measured warm
//!   hit the CI smoke asserts.
//! * [`service`]: admission control on the deterministic work budget
//!   (`"rejected"`), cooperative preemption through the engines' stop
//!   probe (`"preempted"`), and crash isolation per request
//!   (`"failed"`), multiplexed onto one shared
//!   [`gatediag_sim::PersistentPool`].
//! * [`protocol`]: the `gatediag-serve-v1` request /
//!   `gatediag-diagnose-v1` response schema on the shared
//!   [`gatediag_obs::json`] layer. Responses carry no timing or
//!   counters unless asked, so a daemon response is byte-identical to
//!   the one-shot `gatediag diagnose --json` output for the same
//!   request — both are literally one code path,
//!   [`Service::handle_line`].
//! * [`server`] / [`client`]: thread-per-connection TCP and stdio
//!   transports sharing one read loop that caps request lines at
//!   [`MAX_REQUEST_LINE`] bytes (TCP serves at most [`MAX_CONNECTIONS`]
//!   connections at once), and the blocking client the CLI and benches
//!   use.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod client;
pub mod protocol;
pub mod registry;
pub mod server;
pub mod service;

pub use client::{request, Client};
pub use protocol::{
    parse_request, render_diagnose_request, status_response, DiagnoseCall, Request, REQUEST_SCHEMA,
    RESPONSE_SCHEMA,
};
pub use registry::{CircuitRegistry, RegistryStats};
pub use server::{serve_lines, serve_tcp, MAX_CONNECTIONS, MAX_REQUEST_LINE};
pub use service::{Service, ServiceConfig};
