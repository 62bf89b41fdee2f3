//! Time-frame expansion of sequential circuits.
//!
//! The paper's SAT-based diagnosis was extended to sequential errors in
//! Ali et al. (its reference [4]) by unrolling the circuit over `n` time
//! frames: flip-flops become frame-to-frame connections, the first frame's
//! state is a free (or constrained) pseudo-input, and every frame exposes
//! the primary outputs. [`unroll`] reproduces that construction on the
//! combinationalised circuits this crate produces.

use crate::circuit::{Circuit, CircuitBuilder};
use crate::gate::{GateId, GateKind};
use crate::state::StateView;

/// Mapping between the original circuit and an unrolled one, both ways.
#[derive(Clone, Debug)]
pub struct Unrolling {
    /// The unrolled (purely combinational) circuit.
    pub circuit: Circuit,
    /// `map[frame][gate.index()]` = the unrolled gate implementing `gate`
    /// in that time frame.
    map: Vec<Vec<GateId>>,
    /// `original[g.index()]` = the original gate the unrolled gate `g`
    /// implements in its frame.
    original: Vec<GateId>,
    /// The initial-state pseudo-inputs, one per latch (frame 0's `q`).
    pub initial_state: Vec<GateId>,
}

impl Unrolling {
    /// The unrolled instance of `gate` in `frame`.
    ///
    /// # Panics
    ///
    /// Panics if `frame` or `gate` are out of range.
    pub fn instance(&self, frame: usize, gate: GateId) -> GateId {
        self.map[frame][gate.index()]
    }

    /// The instances of `gate`, one per frame in frame order.
    ///
    /// # Panics
    ///
    /// Panics (when iterated) if `gate` is out of range.
    pub fn instances(&self, gate: GateId) -> impl Iterator<Item = GateId> + '_ {
        self.map.iter().map(move |frame| frame[gate.index()])
    }

    /// The original gate that the unrolled gate `unrolled` implements: a
    /// latch's `q` for its `init_*` input and for its later frames'
    /// buffers.
    ///
    /// # Panics
    ///
    /// Panics if `unrolled` is out of range.
    pub fn original(&self, unrolled: GateId) -> GateId {
        self.original[unrolled.index()]
    }

    /// Number of time frames.
    pub fn frames(&self) -> usize {
        self.map.len()
    }
}

/// Unrolls `circuit` over `frames` time frames.
///
/// Per frame, every primary input becomes a fresh input named
/// `<name>@<frame>`; every latch's `q` input is driven by the previous
/// frame's `d` gate (frame 0's `q` becomes an `init_*` pseudo-input);
/// every primary output is exposed as an output of each frame. Gate-change
/// errors replicate across frames exactly like the shared select lines of
/// sequential SAT-based diagnosis require: use
/// [`Unrolling::instance`] to gang the per-frame instances of a gate
/// together.
///
/// # Panics
///
/// Panics if `frames == 0`.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), gatediag_netlist::NetlistError> {
/// let c = gatediag_netlist::parse_bench(
///     "INPUT(a)\nOUTPUT(y)\nq = DFF(d)\nd = AND(a, q)\ny = NOT(q)\n",
/// )?;
/// let unrolled = gatediag_netlist::unroll(&c, 3);
/// assert_eq!(unrolled.frames(), 3);
/// // 3 frames x 1 real input + 1 initial state input.
/// assert_eq!(unrolled.circuit.inputs().len(), 4);
/// # Ok(())
/// # }
/// ```
pub fn unroll(circuit: &Circuit, frames: usize) -> Unrolling {
    assert!(frames > 0, "need at least one time frame");
    // One O(n) lowering view instead of repeated latch-list scans: the
    // frame loop below is O(frames * n) overall.
    let view = StateView::new(circuit);
    let mut b = CircuitBuilder::new();
    b.name(format!("{}@x{}", circuit.name(), frames));

    let mut map: Vec<Vec<GateId>> = Vec::with_capacity(frames);
    let mut original = Vec::with_capacity(frames * circuit.len());
    let mut initial_state = Vec::with_capacity(view.num_latches());

    for frame in 0..frames {
        let mut frame_map = vec![GateId::new(usize::MAX >> 1); circuit.len()];
        for &id in circuit.topo_order() {
            let gate = circuit.gate(id);
            let fallback = format!("n{}", id.index());
            let base_name = circuit.gate_name(id).unwrap_or(fallback.as_str());
            let new_id = if gate.kind() == GateKind::Input {
                if let Some(slot) = view.latch_slot_of(id) {
                    if frame == 0 {
                        // Free initial state.
                        let init = b.input(format!("init_{base_name}"));
                        initial_state.push(init);
                        init
                    } else {
                        // Driven by the previous frame's latch data.
                        let prev_d = view.latch_d()[slot];
                        let driver = map[frame - 1][prev_d.index()];
                        b.gate(GateKind::Buf, vec![driver], format!("{base_name}@{frame}"))
                    }
                } else {
                    b.input(format!("{base_name}@{frame}"))
                }
            } else {
                let fanins = gate.fanins().iter().map(|f| frame_map[f.index()]).collect();
                b.gate(gate.kind(), fanins, format!("{base_name}@{frame}"))
            };
            frame_map[id.index()] = new_id;
            assert_eq!(new_id.index(), original.len(), "builder ids are dense");
            original.push(id);
        }
        // Expose the real primary outputs of this frame (not the latch
        // data pseudo-outputs, which became internal frame links).
        for &o in view.real_outputs() {
            b.output(frame_map[o.index()]);
        }
        // The final frame's latch data is observable state.
        if frame == frames - 1 {
            for &d in view.latch_d() {
                b.output(frame_map[d.index()]);
            }
        }
        map.push(frame_map);
    }

    Unrolling {
        circuit: b.finish().expect("unrolling preserves acyclicity"),
        map,
        original,
        initial_state,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_format::parse_bench;

    fn counter() -> Circuit {
        // 1-bit toggle: q' = q XOR en, out = q.
        parse_bench("INPUT(en)\nOUTPUT(out)\nq = DFF(d)\nd = XOR(q, en)\nout = BUF(q)\n").unwrap()
    }

    #[test]
    fn unroll_shapes() {
        let c = counter();
        for frames in 1..=4 {
            let u = unroll(&c, frames);
            assert_eq!(u.frames(), frames);
            // inputs: en per frame + one initial state.
            assert_eq!(u.circuit.inputs().len(), frames + 1);
            assert_eq!(u.initial_state.len(), 1);
            // outputs: `out` per frame + final latch data.
            assert_eq!(u.circuit.outputs().len(), frames + 1);
        }
    }

    #[test]
    fn unrolled_counter_toggles() {
        use gatediag_sim_shim::simulate;
        let c = counter();
        let u = unroll(&c, 3);
        // inputs order: init first (frame 0 processes latch q first? no —
        // topo order), so resolve by name instead.
        let mut inputs = vec![false; u.circuit.inputs().len()];
        let set = |inputs: &mut Vec<bool>, u: &Unrolling, name: &str, v: bool| {
            let id = u.circuit.find(name).expect("input exists");
            let pos = u
                .circuit
                .inputs()
                .iter()
                .position(|&p| p == id)
                .expect("is an input");
            inputs[pos] = v;
        };
        // init q = 0; enable toggling every frame.
        set(&mut inputs, &u, "init_q", false);
        for f in 0..3 {
            set(&mut inputs, &u, &format!("en@{f}"), true);
        }
        let values = simulate(&u.circuit, &inputs);
        // out@f = q at frame f: 0, 1, 0.
        let out_at = |f: usize| {
            let id = u.circuit.find(&format!("out@{f}")).unwrap();
            values[id.index()]
        };
        assert!(!out_at(0));
        assert!(out_at(1));
        assert!(!out_at(2));
    }

    #[test]
    fn instance_mapping_is_consistent() {
        let c = counter();
        let u = unroll(&c, 2);
        for (id, gate) in c.iter() {
            for frame in 0..2 {
                let inst = u.instance(frame, id);
                let unrolled_gate = u.circuit.gate(inst);
                if gate.kind() != GateKind::Input {
                    assert_eq!(unrolled_gate.kind(), gate.kind(), "{id} frame {frame}");
                }
            }
        }
    }

    #[test]
    fn original_inverts_the_instances() {
        let c = counter();
        let u = unroll(&c, 3);
        for (id, _) in c.iter() {
            let instances: Vec<GateId> = u.instances(id).collect();
            assert_eq!(instances.len(), 3);
            for (frame, &inst) in instances.iter().enumerate() {
                assert_eq!(inst, u.instance(frame, id));
                assert_eq!(u.original(inst), id);
            }
        }
        // Every unrolled gate is an instance of some original gate.
        assert_eq!(u.circuit.len(), 3 * c.len());
        let q = c.find("q").unwrap();
        assert_eq!(u.original(u.initial_state[0]), q);
    }

    #[test]
    #[should_panic(expected = "at least one time frame")]
    fn zero_frames_rejected() {
        let c = counter();
        let _ = unroll(&c, 0);
    }

    /// Minimal local simulator so the netlist crate's tests need not depend
    /// on `gatediag-sim` (which depends on this crate).
    mod gatediag_sim_shim {
        use crate::circuit::Circuit;
        use crate::gate::GateKind;

        pub fn simulate(circuit: &Circuit, inputs: &[bool]) -> Vec<bool> {
            let mut values = vec![false; circuit.len()];
            for (&id, &v) in circuit.inputs().iter().zip(inputs) {
                values[id.index()] = v;
            }
            for &id in circuit.topo_order() {
                let gate = circuit.gate(id);
                if gate.kind() == GateKind::Input {
                    continue;
                }
                values[id.index()] = gate
                    .kind()
                    .eval_bool(gate.fanins().iter().map(|f| values[f.index()]));
            }
            values
        }
    }
}
