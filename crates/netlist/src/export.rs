//! Graphviz DOT export.
//!
//! DOT dumps make diagnosis results inspectable (candidate gates are
//! highlighted).

use crate::analysis::GateSet;
use crate::circuit::Circuit;
use crate::gate::{GateId, GateKind};
use std::fmt::Write as _;

/// Renders the circuit as a Graphviz `digraph`.
///
/// Gates in `highlight` are filled red (diagnosis candidates); inputs are
/// boxes, outputs double circles.
///
/// # Examples
///
/// ```
/// use gatediag_netlist::{c17, to_dot};
/// let c = c17();
/// let dot = to_dot(&c, &[c.find("G16").unwrap()]);
/// assert!(dot.contains("digraph"));
/// assert!(dot.contains("G16"));
/// ```
pub fn to_dot(circuit: &Circuit, highlight: &[GateId]) -> String {
    let mut marked = GateSet::new(circuit.len());
    for &g in highlight {
        marked.insert(g);
    }
    let mut out = String::from("digraph circuit {\n  rankdir=LR;\n");
    let _ = writeln!(out, "  label=\"{}\";", circuit.name());
    for (id, gate) in circuit.iter() {
        let fallback = format!("n{}", id.index());
        let name = circuit.gate_name(id).unwrap_or(&fallback);
        let shape = if gate.kind() == GateKind::Input {
            "box"
        } else if circuit.is_output(id) {
            "doublecircle"
        } else {
            "ellipse"
        };
        let fill = if marked.contains(id) {
            ", style=filled, fillcolor=\"#ff8888\""
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "  g{} [label=\"{}\\n{}\", shape={}{}];",
            id.index(),
            name,
            gate.kind(),
            shape,
            fill
        );
    }
    for (id, gate) in circuit.iter() {
        for &f in gate.fanins() {
            let _ = writeln!(out, "  g{} -> g{};", f.index(), id.index());
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::c17;

    #[test]
    fn dot_contains_all_gates_and_edges() {
        let c = c17();
        let dot = to_dot(&c, &[]);
        for (id, _) in c.iter() {
            assert!(dot.contains(&format!("g{} [", id.index())));
        }
        let edge_count = dot.matches(" -> ").count();
        let expected: usize = c.iter().map(|(_, g)| g.arity()).sum();
        assert_eq!(edge_count, expected);
    }

    #[test]
    fn dot_highlights() {
        let c = c17();
        let g = c.find("G16").unwrap();
        let dot = to_dot(&c, &[g]);
        let line = dot
            .lines()
            .find(|l| l.contains(&format!("g{} [", g.index())))
            .unwrap();
        assert!(line.contains("fillcolor"));
    }
}
