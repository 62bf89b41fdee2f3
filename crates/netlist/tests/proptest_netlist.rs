//! Property tests for the netlist substrate: structural invariants of
//! generated circuits, `.bench` round-trips, analysis consistency.

use gatediag_netlist::{
    fanin_cone, fanout_cone, inject_errors, parse_bench, undirected_distances, unroll, write_bench,
    GateId, GateKind, RandomCircuitSpec,
};
use proptest::prelude::*;

fn spec_strategy() -> impl Strategy<Value = RandomCircuitSpec> {
    (2usize..10, 1usize..5, 5usize..120, 0usize..4, 0u64..5_000).prop_map(
        |(inputs, outputs, gates, latches, seed)| {
            RandomCircuitSpec::new(inputs, outputs, gates)
                .latches(latches)
                .seed(seed)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Topological order and levels are mutually consistent on any
    /// generated circuit.
    #[test]
    fn structural_invariants(spec in spec_strategy()) {
        let c = spec.generate();
        let mut position = vec![usize::MAX; c.len()];
        for (i, &id) in c.topo_order().iter().enumerate() {
            position[id.index()] = i;
        }
        prop_assert_eq!(c.topo_order().len(), c.len());
        for (id, gate) in c.iter() {
            for &f in gate.fanins() {
                prop_assert!(position[f.index()] < position[id.index()]);
                prop_assert!(c.level(f) < c.level(id));
                prop_assert!(c.fanouts(f).contains(&id));
            }
            prop_assert!(gate.kind().arity_ok(gate.arity()));
        }
    }

    /// `.bench` write→parse round-trip preserves structure gate-by-gate
    /// (via names).
    #[test]
    fn bench_round_trip(spec in spec_strategy()) {
        let c = spec.generate();
        let text = write_bench(&c);
        let back = parse_bench(&text).expect("own output parses");
        prop_assert_eq!(back.len(), c.len());
        prop_assert_eq!(back.num_functional_gates(), c.num_functional_gates());
        prop_assert_eq!(back.inputs().len(), c.inputs().len());
        prop_assert_eq!(back.outputs().len(), c.outputs().len());
        prop_assert_eq!(back.latches().len(), c.latches().len());
        // Full structural equality modulo gate renumbering: the name map
        // is a graph isomorphism preserving kinds, every fan-in edge, and
        // the output / latch designations.
        let mapped = |id| {
            let name = c.gate_name(id).expect("generated gates are named");
            back.find(name).expect("name preserved")
        };
        for (id, gate) in c.iter() {
            let bid = mapped(id);
            // DFF q nodes stay inputs; everything else keeps its kind.
            prop_assert_eq!(back.gate(bid).kind(), gate.kind());
            let fanins: Vec<_> = gate.fanins().iter().map(|&f| mapped(f)).collect();
            prop_assert_eq!(back.gate(bid).fanins(), &fanins[..]);
        }
        // Latch pseudo-outputs are re-emitted after explicit outputs, so
        // compare the output sets order-insensitively.
        let mut outputs: Vec<_> = c.outputs().iter().map(|&o| mapped(o)).collect();
        outputs.sort();
        let mut back_outputs = back.outputs().to_vec();
        back_outputs.sort();
        prop_assert_eq!(back_outputs, outputs);
        for (l, bl) in c.latches().iter().zip(back.latches()) {
            prop_assert_eq!(bl.q, mapped(l.q));
            prop_assert_eq!(bl.d, mapped(l.d));
        }
    }

    /// Writing is a fixpoint after one round-trip: parse(write(c)) prints
    /// back to exactly the same text.
    #[test]
    fn bench_write_is_a_fixpoint(spec in spec_strategy()) {
        let c = spec.generate();
        let text = write_bench(&c);
        let back = parse_bench(&text).expect("own output parses");
        prop_assert_eq!(write_bench(&back), text);
    }

    /// Cones: the fan-in cone of the outputs and the fan-out cone of the
    /// inputs are duals, and distances respect cone membership.
    #[test]
    fn cone_duality(spec in spec_strategy()) {
        let c = spec.generate();
        for (id, _) in c.iter().take(20) {
            let fi = fanin_cone(&c, &[id]);
            for g in fi.iter() {
                // id must be in g's fanout cone.
                let fo = fanout_cone(&c, &[g]);
                prop_assert!(fo.contains(id));
            }
        }
    }

    /// Distance 0 exactly at sources; triangle-ish consistency along edges.
    #[test]
    fn distance_properties(spec in spec_strategy()) {
        let c = spec.generate();
        let src = GateId::new(0);
        let dist = undirected_distances(&c, &[src]);
        prop_assert_eq!(dist[0], 0);
        for (id, gate) in c.iter() {
            for &f in gate.fanins() {
                let (a, b) = (dist[id.index()], dist[f.index()]);
                if a != u32::MAX && b != u32::MAX {
                    prop_assert!(a.abs_diff(b) <= 1, "edge stretch > 1");
                }
            }
        }
    }

    /// Error injection changes exactly the chosen gates and is reversible
    /// knowledge (original kind recorded).
    #[test]
    fn injection_is_precise(spec in spec_strategy(), p in 1usize..3, seed in 0u64..500) {
        let c = spec.generate();
        if c.num_functional_gates() < p {
            return Ok(());
        }
        let (faulty, sites) = inject_errors(&c, p, seed);
        prop_assert_eq!(sites.len(), p);
        let changed: Vec<GateId> = sites.iter().map(|s| s.gate).collect();
        for (id, gate) in c.iter() {
            if changed.contains(&id) {
                let site = sites.iter().find(|s| s.gate == id).expect("in changed");
                prop_assert_eq!(gate.kind(), site.original);
                prop_assert_eq!(faulty.gate(id).kind(), site.replacement);
                prop_assert!(site.replacement != site.original);
            } else {
                prop_assert_eq!(faulty.gate(id).kind(), gate.kind());
            }
        }
    }

    /// Sequential `.bench` I/O: a circuit with a guaranteed latch
    /// population writes exactly one `DFF(` line per latch, the latch `q`
    /// nodes parse back as input gates wired to the right `d` drivers, and
    /// the written text is already a fixpoint.
    #[test]
    fn dff_bench_round_trip(
        inputs in 2usize..8,
        outputs in 1usize..4,
        gates in 5usize..60,
        latches in 1usize..6,
        seed in 0u64..5_000,
    ) {
        let c = RandomCircuitSpec::new(inputs, outputs, gates)
            .latches(latches)
            .seed(seed)
            .generate();
        prop_assert_eq!(c.latches().len(), latches);
        let text = write_bench(&c);
        prop_assert_eq!(text.matches("DFF(").count(), latches);
        let back = parse_bench(&text).expect("own output parses");
        prop_assert_eq!(back.latches().len(), latches);
        for (l, bl) in c.latches().iter().zip(back.latches()) {
            // The q node is a pseudo-input whose name pairs it with the
            // original latch, and the d driver keeps its name too.
            prop_assert_eq!(back.gate(bl.q).kind(), GateKind::Input);
            prop_assert!(back.inputs().contains(&bl.q), "q must be an input");
            prop_assert_eq!(back.gate_name(bl.q), c.gate_name(l.q));
            prop_assert_eq!(back.gate_name(bl.d), c.gate_name(l.d));
        }
        prop_assert_eq!(write_bench(&back), text);
    }

    /// Unrolling a circuit with latches multiplies functional gates by the
    /// frame count (plus latch-link buffers) and stays acyclic/valid.
    #[test]
    fn unroll_scales(spec in spec_strategy(), frames in 1usize..4) {
        let c = spec.generate();
        let u = unroll(&c, frames);
        let latch_links = c.latches().len() * frames.saturating_sub(1);
        prop_assert_eq!(
            u.circuit.num_functional_gates(),
            c.num_functional_gates() * frames + latch_links
        );
        // All frame instances map to gates of the right kind.
        for frame in 0..frames {
            for (id, gate) in c.iter() {
                let inst = u.instance(frame, id);
                if gate.kind() != GateKind::Input {
                    prop_assert_eq!(u.circuit.gate(inst).kind(), gate.kind());
                }
            }
        }
    }
}
