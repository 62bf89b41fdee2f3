//! The combinational circuit container and its builder.

use crate::gate::{Gate, GateId, GateKind};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// A flip-flop that was combinationalised during parsing.
///
/// The flip-flop's output `q` became a pseudo-primary input and its data
/// input `d` a pseudo-primary output, the standard transformation for
/// per-time-frame diagnosis of ISCAS89 netlists.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct Latch {
    /// Pseudo-primary input standing in for the flip-flop output.
    pub q: GateId,
    /// Gate feeding the flip-flop (pseudo-primary output).
    pub d: GateId,
}

/// Errors produced while constructing or parsing a circuit.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum NetlistError {
    /// A gate refers to a fan-in id that does not exist.
    DanglingFanin {
        /// The referring gate.
        gate: GateId,
        /// The missing fan-in.
        fanin: GateId,
    },
    /// A gate has an illegal number of fan-ins for its kind.
    BadArity {
        /// The offending gate.
        gate: GateId,
        /// Its kind.
        kind: GateKind,
        /// The number of fan-ins it was given.
        arity: usize,
    },
    /// The gate graph contains a combinational cycle.
    Cyclic {
        /// A gate on the cycle.
        gate: GateId,
    },
    /// A named signal was defined twice.
    DuplicateName(String),
    /// A signal was referenced but never defined.
    UndefinedSignal(String),
    /// A `.bench` line could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// A `.bench` file or directory could not be read, or a file in a
    /// directory scan failed to parse (the inner error's message is
    /// annotated with the offending path).
    Io {
        /// The offending path.
        path: String,
        /// The underlying I/O or parse error message.
        message: String,
    },
    /// The circuit has no primary outputs.
    NoOutputs,
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::DanglingFanin { gate, fanin } => {
                write!(f, "gate {gate} refers to undefined fan-in {fanin}")
            }
            NetlistError::BadArity { gate, kind, arity } => {
                write!(f, "gate {gate} of kind {kind} has illegal arity {arity}")
            }
            NetlistError::Cyclic { gate } => {
                write!(f, "combinational cycle through gate {gate}")
            }
            NetlistError::DuplicateName(name) => {
                write!(f, "signal `{name}` defined more than once")
            }
            NetlistError::UndefinedSignal(name) => {
                write!(f, "signal `{name}` referenced but never defined")
            }
            NetlistError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
            NetlistError::NoOutputs => write!(f, "circuit has no primary outputs"),
            NetlistError::Io { path, message } => {
                write!(f, "{path}: {message}")
            }
        }
    }
}

impl Error for NetlistError {}

/// An immutable combinational gate-level circuit in CSR layout.
///
/// The circuit is a DAG of gates with designated primary inputs and
/// outputs. All per-gate data lives in flat, contiguous arrays:
///
/// * `kinds[i]` — the [`GateKind`] of gate `i`;
/// * `fanin_heads` / `fanin_edges` — a compressed sparse row (CSR)
///   encoding of the fan-in lists: gate `i`'s fan-ins are
///   `fanin_edges[fanin_heads[i] .. fanin_heads[i + 1]]`;
/// * `fanout_heads` / `fanout_edges` — the transposed CSR (fan-outs);
/// * `topo`, `levels` — topological order and logic levels.
///
/// A topological sweep over this layout is a linear scan of three flat
/// arrays with no per-gate pointer chasing, which is what makes the
/// bit-parallel simulator's inner loop memory-bound rather than
/// latency-bound. The per-gate object API ([`Circuit::gate`], returning a
/// [`Gate`] view) is retained as a zero-cost facade over these arrays.
///
/// Topological order, fan-out lists and levels are computed once at
/// construction and shared by all analyses and simulators.
///
/// Sequential `.bench` netlists are combinationalised at parse time: each
/// DFF contributes a pseudo-primary input (its output `q`) and a
/// pseudo-primary output (its data `d`), recorded in [`Circuit::latches`].
///
/// # Examples
///
/// ```
/// use gatediag_netlist::{CircuitBuilder, GateKind};
///
/// # fn main() -> Result<(), gatediag_netlist::NetlistError> {
/// let mut b = CircuitBuilder::new();
/// let a = b.input("a");
/// let c = b.input("c");
/// let g = b.gate(GateKind::Nand, vec![a, c], "g");
/// b.output(g);
/// let circuit = b.finish()?;
/// assert_eq!(circuit.len(), 3);
/// assert_eq!(circuit.outputs(), &[g]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct Circuit {
    kinds: Vec<GateKind>,
    fanin_heads: Vec<u32>,
    fanin_edges: Vec<GateId>,
    inputs: Vec<GateId>,
    outputs: Vec<GateId>,
    latches: Vec<Latch>,
    names: Vec<Option<String>>,
    name_index: HashMap<String, GateId>,
    topo: Vec<GateId>,
    fanout_heads: Vec<u32>,
    fanout_edges: Vec<GateId>,
    levels: Vec<u32>,
    name: String,
}

impl Circuit {
    /// Total number of gates (including primary inputs and constants).
    #[inline]
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// `true` if the circuit contains no gates.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Number of non-source gates (the "gate count" reported by benchmarks).
    pub fn num_functional_gates(&self) -> usize {
        self.kinds.iter().filter(|k| !k.is_source()).count()
    }

    /// The gate with the given id, as a cheap [`Gate`] view over the CSR
    /// arrays.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn gate(&self, id: GateId) -> Gate<'_> {
        Gate::new(self.kinds[id.index()], self.fanins(id))
    }

    /// The Boolean function of gate `id` (direct kind-array access).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn kind(&self, id: GateId) -> GateKind {
        self.kinds[id.index()]
    }

    /// Fan-in gates of `id`, in declaration order (direct CSR access).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn fanins(&self, id: GateId) -> &[GateId] {
        let lo = self.fanin_heads[id.index()] as usize;
        let hi = self.fanin_heads[id.index() + 1] as usize;
        &self.fanin_edges[lo..hi]
    }

    /// The flat kind array, indexed by gate id.
    #[inline]
    pub fn kinds(&self) -> &[GateKind] {
        &self.kinds
    }

    /// The raw fan-in CSR: `(heads, edges)` with gate `i`'s fan-ins at
    /// `edges[heads[i] as usize .. heads[i + 1] as usize]`.
    ///
    /// Hot loops (the packed simulator's topological sweep) index these
    /// arrays directly instead of materialising [`Gate`] views.
    #[inline]
    pub fn fanin_csr(&self) -> (&[u32], &[GateId]) {
        (&self.fanin_heads, &self.fanin_edges)
    }

    /// Iterates over `(id, gate)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (GateId, Gate<'_>)> {
        (0..self.len()).map(|i| {
            let id = GateId::new(i);
            (id, self.gate(id))
        })
    }

    /// Primary inputs (including pseudo-primary inputs from flip-flops).
    #[inline]
    pub fn inputs(&self) -> &[GateId] {
        &self.inputs
    }

    /// Primary outputs (including pseudo-primary outputs from flip-flops).
    #[inline]
    pub fn outputs(&self) -> &[GateId] {
        &self.outputs
    }

    /// Flip-flops recorded during combinationalisation.
    #[inline]
    pub fn latches(&self) -> &[Latch] {
        &self.latches
    }

    /// Gates in topological order (fan-ins before fan-outs).
    #[inline]
    pub fn topo_order(&self) -> &[GateId] {
        &self.topo
    }

    /// Fan-out gates of `id` (gates that use `id` as a fan-in).
    #[inline]
    pub fn fanouts(&self, id: GateId) -> &[GateId] {
        let lo = self.fanout_heads[id.index()] as usize;
        let hi = self.fanout_heads[id.index() + 1] as usize;
        &self.fanout_edges[lo..hi]
    }

    /// Logic level of `id`: 0 for sources, `1 + max(level of fan-ins)`
    /// otherwise.
    #[inline]
    pub fn level(&self, id: GateId) -> u32 {
        self.levels[id.index()]
    }

    /// Maximum level over all gates (circuit depth).
    pub fn depth(&self) -> u32 {
        self.levels.iter().copied().max().unwrap_or(0)
    }

    /// The circuit's name (benchmark name, or empty).
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The name of gate `id`, if it has one.
    pub fn gate_name(&self, id: GateId) -> Option<&str> {
        self.names[id.index()].as_deref()
    }

    /// Looks up a gate by signal name.
    pub fn find(&self, name: &str) -> Option<GateId> {
        self.name_index.get(name).copied()
    }

    /// `true` if `id` is a primary output.
    pub fn is_output(&self, id: GateId) -> bool {
        self.outputs.contains(&id)
    }

    /// Returns a copy of this circuit with the function of `id` replaced by
    /// `kind`, keeping the fan-ins (and hence all connectivity, topological
    /// order, fan-outs and levels) unchanged.
    ///
    /// This is the "gate change" error model of the paper's experiments; it
    /// is cheap because derived structures are reused.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is illegal for the gate's arity or if the gate is a
    /// source node.
    pub fn with_gate_kind(&self, id: GateId, kind: GateKind) -> Circuit {
        let gate = self.gate(id);
        assert!(
            gate.kind() != GateKind::Input,
            "cannot replace the function of primary input {id}"
        );
        assert!(
            kind.arity_ok(gate.arity()),
            "kind {kind} illegal for arity {}",
            gate.arity()
        );
        let mut clone = self.clone();
        clone.kinds[id.index()] = kind;
        clone
    }
}

/// Incremental constructor for [`Circuit`].
///
/// Gates are created in any order as long as fan-ins are created first;
/// parsers create gates with empty fan-ins and wire them afterwards with
/// [`CircuitBuilder::set_fanins`]. [`CircuitBuilder::finish`]
/// validates arities and acyclicity, flattens the per-gate fan-in lists
/// into the circuit's CSR arrays, and computes the derived structures.
#[derive(Clone, Debug, Default)]
pub struct CircuitBuilder {
    kinds: Vec<GateKind>,
    fanins: Vec<Vec<GateId>>,
    inputs: Vec<GateId>,
    outputs: Vec<GateId>,
    latches: Vec<Latch>,
    names: Vec<Option<String>>,
    name_index: HashMap<String, GateId>,
    name: String,
}

impl CircuitBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the circuit name.
    pub fn name(&mut self, name: impl Into<String>) -> &mut Self {
        self.name = name.into();
        self
    }

    fn push(&mut self, kind: GateKind, fanins: Vec<GateId>, name: Option<String>) -> GateId {
        let id = GateId::new(self.kinds.len());
        self.kinds.push(kind);
        self.fanins.push(fanins);
        if let Some(ref n) = name {
            self.name_index.insert(n.clone(), id);
        }
        self.names.push(name);
        id
    }

    /// Adds a primary input.
    pub fn input(&mut self, name: impl Into<String>) -> GateId {
        let id = self.push(GateKind::Input, Vec::new(), Some(name.into()));
        self.inputs.push(id);
        id
    }

    /// Adds a named gate.
    pub fn gate(&mut self, kind: GateKind, fanins: Vec<GateId>, name: impl Into<String>) -> GateId {
        self.push(kind, fanins, Some(name.into()))
    }

    /// Adds an anonymous gate.
    pub fn anon_gate(&mut self, kind: GateKind, fanins: Vec<GateId>) -> GateId {
        self.push(kind, fanins, None)
    }

    /// Replaces the fan-in list of an existing gate.
    ///
    /// Parser-style construction creates gates first (so names resolve) and
    /// wires them afterwards. Validation happens in [`CircuitBuilder::finish`].
    ///
    /// # Panics
    ///
    /// Panics if `id` was not created by this builder.
    pub fn set_fanins(&mut self, id: GateId, fanins: Vec<GateId>) -> &mut Self {
        self.fanins[id.index()] = fanins;
        self
    }

    /// Marks an existing gate as a primary output.
    pub fn output(&mut self, id: GateId) -> &mut Self {
        if !self.outputs.contains(&id) {
            self.outputs.push(id);
        }
        self
    }

    /// Records a combinationalised flip-flop (`q` must be an input gate).
    pub fn latch(&mut self, q: GateId, d: GateId) -> &mut Self {
        self.latches.push(Latch { q, d });
        self
    }

    /// Number of gates added so far.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// `true` if no gates were added yet.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Looks up a previously added named gate.
    pub fn find(&self, name: &str) -> Option<GateId> {
        self.name_index.get(name).copied()
    }

    /// The kind of a previously added gate.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not created by this builder.
    pub fn kind_of(&self, id: GateId) -> GateKind {
        self.kinds[id.index()]
    }

    /// Validates the netlist and produces the immutable [`Circuit`].
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError`] if a fan-in id is out of range, a gate has an
    /// illegal arity, the graph is cyclic, or there are no outputs.
    pub fn finish(self) -> Result<Circuit, NetlistError> {
        let n = self.kinds.len();
        // Arity and dangling-fanin checks.
        for i in 0..n {
            let id = GateId::new(i);
            for &f in &self.fanins[i] {
                if f.index() >= n {
                    return Err(NetlistError::DanglingFanin { gate: id, fanin: f });
                }
            }
            if !self.kinds[i].arity_ok(self.fanins[i].len()) {
                return Err(NetlistError::BadArity {
                    gate: id,
                    kind: self.kinds[i],
                    arity: self.fanins[i].len(),
                });
            }
        }
        if self.outputs.is_empty() {
            return Err(NetlistError::NoOutputs);
        }

        // Flatten the fan-in lists into CSR form.
        let mut fanin_heads = Vec::with_capacity(n + 1);
        fanin_heads.push(0u32);
        let total: usize = self.fanins.iter().map(Vec::len).sum();
        let mut fanin_edges = Vec::with_capacity(total);
        for fanins in &self.fanins {
            fanin_edges.extend_from_slice(fanins);
            fanin_heads.push(fanin_edges.len() as u32);
        }

        // Build the transposed (fan-out) CSR.
        let mut fanout_count = vec![0u32; n + 1];
        for &f in &fanin_edges {
            fanout_count[f.index() + 1] += 1;
        }
        let mut fanout_heads = fanout_count.clone();
        for i in 1..=n {
            fanout_heads[i] += fanout_heads[i - 1];
        }
        let mut cursor = fanout_heads.clone();
        let mut fanout_edges = vec![GateId::new(0); fanout_heads[n] as usize];
        for (i, fanins) in self.fanins.iter().enumerate() {
            for &f in fanins {
                fanout_edges[cursor[f.index()] as usize] = GateId::new(i);
                cursor[f.index()] += 1;
            }
        }

        // Kahn topological sort over the CSR.
        let indegree: Vec<u32> = self.fanins.iter().map(|f| f.len() as u32).collect();
        let mut stack: Vec<GateId> = (0..n)
            .filter(|&i| indegree[i] == 0)
            .map(GateId::new)
            .collect();
        let mut topo = Vec::with_capacity(n);
        let mut remaining = indegree;
        while let Some(id) = stack.pop() {
            topo.push(id);
            let lo = fanout_heads[id.index()] as usize;
            let hi = fanout_heads[id.index() + 1] as usize;
            for &succ in &fanout_edges[lo..hi] {
                remaining[succ.index()] -= 1;
                if remaining[succ.index()] == 0 {
                    stack.push(succ);
                }
            }
        }
        if topo.len() != n {
            let cyclic = (0..n)
                .map(GateId::new)
                .find(|id| remaining[id.index()] > 0)
                .expect("cycle must involve a gate with remaining indegree");
            return Err(NetlistError::Cyclic { gate: cyclic });
        }

        // Levels.
        let mut levels = vec![0u32; n];
        for &id in &topo {
            let lo = fanin_heads[id.index()] as usize;
            let hi = fanin_heads[id.index() + 1] as usize;
            let lvl = fanin_edges[lo..hi]
                .iter()
                .map(|f| levels[f.index()] + 1)
                .max()
                .unwrap_or(0);
            levels[id.index()] = lvl;
        }

        // Every successfully built circuit — parsed, generated,
        // injected, unrolled — passes through here, so this one counter
        // is the "did anything rebuild a netlist?" probe the serve
        // layer's warm-hit proof reads.
        gatediag_obs::count("netlist.builds", 1);

        Ok(Circuit {
            kinds: self.kinds,
            fanin_heads,
            fanin_edges,
            inputs: self.inputs,
            outputs: self.outputs,
            latches: self.latches,
            names: self.names,
            name_index: self.name_index,
            topo,
            fanout_heads,
            fanout_edges,
            levels,
            name: self.name,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Circuit {
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let c = b.input("b");
        let g1 = b.gate(GateKind::And, vec![a, c], "g1");
        let g2 = b.gate(GateKind::Not, vec![g1], "g2");
        b.output(g2);
        b.finish().unwrap()
    }

    #[test]
    fn builds_and_indexes() {
        let c = tiny();
        assert_eq!(c.len(), 4);
        assert_eq!(c.num_functional_gates(), 2);
        assert_eq!(c.inputs().len(), 2);
        assert_eq!(c.outputs().len(), 1);
        assert_eq!(c.find("g1"), Some(GateId::new(2)));
        assert_eq!(c.gate_name(GateId::new(2)), Some("g1"));
        assert_eq!(c.gate(GateId::new(2)).kind(), GateKind::And);
    }

    #[test]
    fn topo_order_respects_edges() {
        let c = tiny();
        let pos: Vec<usize> = {
            let mut pos = vec![0; c.len()];
            for (i, &id) in c.topo_order().iter().enumerate() {
                pos[id.index()] = i;
            }
            pos
        };
        for (id, gate) in c.iter() {
            for &f in gate.fanins() {
                assert!(pos[f.index()] < pos[id.index()]);
            }
        }
    }

    #[test]
    fn fanouts_are_inverse_of_fanins() {
        let c = tiny();
        for (id, gate) in c.iter() {
            for &f in gate.fanins() {
                assert!(c.fanouts(f).contains(&id));
            }
        }
        assert_eq!(c.fanouts(GateId::new(2)), &[GateId::new(3)]);
        assert!(c.fanouts(GateId::new(3)).is_empty());
    }

    #[test]
    fn levels() {
        let c = tiny();
        assert_eq!(c.level(GateId::new(0)), 0);
        assert_eq!(c.level(GateId::new(2)), 1);
        assert_eq!(c.level(GateId::new(3)), 2);
        assert_eq!(c.depth(), 2);
    }

    #[test]
    fn rejects_bad_arity() {
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let g = b.gate(GateKind::And, vec![a], "g");
        b.output(g);
        let err = b.finish().unwrap_err();
        assert!(matches!(err, NetlistError::BadArity { arity: 1, .. }));
    }

    #[test]
    fn rejects_cycle() {
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        // g1 and g2 feed each other.
        let g1 = b.gate(GateKind::And, vec![a, GateId::new(2)], "g1");
        let g2 = b.gate(GateKind::Or, vec![a, g1], "g2");
        b.output(g2);
        let err = b.finish().unwrap_err();
        assert!(matches!(err, NetlistError::Cyclic { .. }));
    }

    #[test]
    fn rejects_dangling() {
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let g1 = b.gate(GateKind::Buf, vec![GateId::new(9)], "g1");
        let _ = a;
        b.output(g1);
        let err = b.finish().unwrap_err();
        assert!(matches!(err, NetlistError::DanglingFanin { .. }));
    }

    #[test]
    fn rejects_no_outputs() {
        let mut b = CircuitBuilder::new();
        b.input("a");
        assert!(matches!(b.finish(), Err(NetlistError::NoOutputs)));
    }

    #[test]
    fn with_gate_kind_replaces_function_only() {
        let c = tiny();
        let id = c.find("g1").unwrap();
        let mutated = c.with_gate_kind(id, GateKind::Or);
        assert_eq!(mutated.gate(id).kind(), GateKind::Or);
        assert_eq!(mutated.gate(id).fanins(), c.gate(id).fanins());
        assert_eq!(mutated.topo_order(), c.topo_order());
        // original untouched
        assert_eq!(c.gate(id).kind(), GateKind::And);
    }

    #[test]
    #[should_panic(expected = "illegal for arity")]
    fn with_gate_kind_rejects_bad_arity() {
        let c = tiny();
        let id = c.find("g1").unwrap();
        let _ = c.with_gate_kind(id, GateKind::Not);
    }

    #[test]
    fn error_display_is_meaningful() {
        let e = NetlistError::DuplicateName("x".into());
        assert!(format!("{e}").contains("x"));
        let e = NetlistError::Parse {
            line: 3,
            message: "bad".into(),
        };
        assert!(format!("{e}").contains("line 3"));
    }
}
