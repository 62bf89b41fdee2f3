//! Property tests for the simulation engines: the packed and sequential
//! engines agree with the scalar reference on random circuits, vectors
//! and forcings.

use gatediag_netlist::{unroll, GateId, RandomCircuitSpec, StateView};
use gatediag_sim::{pack_vectors_into, simulate, simulate_forced, simulate_sequence, PackedSim};
use proptest::prelude::*;

#[derive(Clone, Debug)]
struct Workbench {
    seed: u64,
    vector_bits: u64,
    force_bits: u8,
}

fn workbench() -> impl Strategy<Value = Workbench> {
    (0u64..3_000, any::<u64>(), any::<u8>()).prop_map(|(seed, vector_bits, force_bits)| Workbench {
        seed,
        vector_bits,
        force_bits,
    })
}

fn circuit_of(seed: u64) -> gatediag_netlist::Circuit {
    RandomCircuitSpec::new(6, 3, 40).seed(seed).generate()
}

fn vector_of(circuit: &gatediag_netlist::Circuit, bits: u64) -> Vec<bool> {
    (0..circuit.inputs().len())
        .map(|i| bits >> (i % 64) & 1 == 1)
        .collect()
}

fn forcings(circuit: &gatediag_netlist::Circuit, bits: u8) -> Vec<(GateId, bool)> {
    let functional: Vec<GateId> = circuit
        .iter()
        .filter(|(_, g)| !g.kind().is_source())
        .map(|(id, _)| id)
        .collect();
    (0..3usize)
        .filter(|i| bits >> i & 1 == 1)
        .map(|i| {
            let g = functional[(i * 7 + bits as usize) % functional.len()];
            (g, bits >> (i + 4) & 1 == 1)
        })
        .filter({
            // Deduplicate gates, keeping the first choice.
            let mut seen = std::collections::HashSet::new();
            move |(g, _)| seen.insert(*g)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Packed simulation lane-by-lane equals scalar simulation, with and
    /// without forcings.
    #[test]
    fn packed_equals_scalar(w in workbench()) {
        let c = circuit_of(w.seed);
        let vector = vector_of(&c, w.vector_bits);
        let forced = forcings(&c, w.force_bits);
        let mut sim = PackedSim::new(&c);
        sim.reset(1);
        sim.set_inputs_broadcast(&vector);
        for &(g, v) in &forced {
            sim.force_all_lanes(g, v);
        }
        sim.sweep();
        let scalar = simulate_forced(&c, &vector, &forced);
        for lane in [0, 63] {
            prop_assert_eq!(sim.unpack_lane(lane), scalar.clone(), "lane {}", lane);
        }
    }

    /// `PackedSim` with more than 64 patterns (multi-word) and a random
    /// forced set is lane-for-lane identical to the scalar reference.
    #[test]
    fn packed_sim_multiword_equals_scalar(
        seed in 0u64..3_000,
        pattern_count in 65usize..200,
        lane_bits in any::<u64>(),
        force_bits in any::<u8>(),
    ) {
        let c = circuit_of(seed);
        let vectors: Vec<Vec<bool>> = (0..pattern_count)
            .map(|p| vector_of(&c, lane_bits.rotate_left(p as u32) ^ p as u64))
            .collect();
        let forced = forcings(&c, force_bits);
        let mut packed = Vec::new();
        let words = pack_vectors_into(&c, &vectors, &mut packed);
        prop_assert!(words > 1, "must exercise the multi-word path");
        let mut sim = PackedSim::new(&c);
        sim.reset(words);
        sim.set_input_words(&packed);
        for &(g, v) in &forced {
            // Alternate the forced value across lanes: even lanes get `v`,
            // odd lanes get `!v`.
            let word = if v { 0x5555_5555_5555_5555u64 } else { !0x5555_5555_5555_5555u64 };
            let per_gate: Vec<u64> = (0..words).map(|_| word).collect();
            sim.force(g, &per_gate);
        }
        sim.sweep();
        for (lane, vector) in vectors.iter().enumerate() {
            let lane_forced: Vec<(GateId, bool)> = forced
                .iter()
                .map(|&(g, v)| (g, if lane % 2 == 0 { v } else { !v }))
                .collect();
            let reference = simulate_forced(&c, vector, &lane_forced);
            prop_assert_eq!(sim.unpack_lane(lane), reference, "lane {}", lane);
        }
    }

    /// Incremental propagation after force / clear edits
    /// always lands on the same values as a from-scratch sweep, which is
    /// itself anchored to the scalar reference elsewhere.
    #[test]
    fn packed_sim_incremental_equals_fresh_sweep(
        seed in 0u64..3_000,
        lane_bits in any::<u64>(),
        edits in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 1..10),
    ) {
        let c = circuit_of(seed);
        let vectors: Vec<Vec<bool>> = (0..96)
            .map(|p| vector_of(&c, lane_bits.wrapping_mul(p as u64 + 1)))
            .collect();
        let functional: Vec<GateId> = c
            .iter()
            .filter(|(_, g)| !g.kind().is_source())
            .map(|(id, _)| id)
            .collect();
        let mut packed = Vec::new();
        let words = pack_vectors_into(&c, &vectors, &mut packed);
        let mut sim = PackedSim::new(&c);
        sim.reset(words);
        sim.set_input_words(&packed);
        sim.sweep();
        // Mirror engine: same overlay state, but recomputed from scratch
        // with a full sweep every time.
        let mut fresh = PackedSim::new(&c);
        let mut forced_now: Vec<(GateId, bool)> = Vec::new();
        for (pick, action, value) in edits {
            let g = functional[pick as usize % functional.len()];
            if action % 3 < 2 {
                forced_now.retain(|&(x, _)| x != g);
                forced_now.push((g, value));
                sim.force_all_lanes(g, value);
            } else {
                forced_now.clear();
                sim.clear_forced();
            }
            sim.propagate();
            fresh.reset(words);
            fresh.set_input_words(&packed);
            for &(fg, fv) in &forced_now {
                fresh.force_all_lanes(fg, fv);
            }
            fresh.sweep();
            prop_assert_eq!(sim.values(), fresh.values());
        }
    }

    /// Sequential simulation equals combinational simulation of the
    /// time-frame-expanded circuit: for every frame and every gate, the
    /// unrolled instance computes exactly the value the scalar
    /// frame-by-frame `simulate_sequence` assigns. This is the semantic
    /// bridge the sequential SAT engine rests on — diagnosing the unrolled
    /// circuit IS diagnosing the sequential one.
    #[test]
    fn unrolled_simulation_equals_simulate_sequence(
        seed in 0u64..3_000,
        latches in 1usize..6,
        frames in 1usize..4,
        bits in any::<u64>(),
    ) {
        let c = RandomCircuitSpec::new(6, 3, 40)
            .latches(latches)
            .seed(seed)
            .generate();
        let view = StateView::new(&c);
        let initial_state: Vec<bool> = (0..view.num_latches())
            .map(|i| bits >> (i % 64) & 1 == 1)
            .collect();
        let vectors: Vec<Vec<bool>> = (0..frames)
            .map(|f| {
                (0..view.real_inputs().len())
                    .map(|i| bits.rotate_left(7 * f as u32 + 13) >> (i % 64) & 1 == 1)
                    .collect()
            })
            .collect();
        let scalar = simulate_sequence(&c, &initial_state, &vectors);

        let u = unroll(&c, frames);
        let pos_of = |id: GateId| {
            u.circuit
                .inputs()
                .iter()
                .position(|&p| p == id)
                .expect("an unrolled input")
        };
        let mut flat = vec![false; u.circuit.inputs().len()];
        // Frame 0's latch q instances are the init_* pseudo-inputs.
        for (slot, latch) in c.latches().iter().enumerate() {
            flat[pos_of(u.instance(0, latch.q))] = initial_state[slot];
        }
        for (f, vector) in vectors.iter().enumerate() {
            for (i, &pi) in view.real_inputs().iter().enumerate() {
                flat[pos_of(u.instance(f, pi))] = vector[i];
            }
        }
        let values = simulate(&u.circuit, &flat);
        for (f, frame_values) in scalar.iter().enumerate() {
            for (id, _) in c.iter() {
                prop_assert_eq!(
                    values[u.instance(f, id).index()],
                    frame_values[id.index()],
                    "frame {} gate {}",
                    f,
                    id
                );
            }
        }
    }

    /// The packer writes the documented layout: input `i`'s words at
    /// `out[i * W .. (i + 1) * W]`, pattern `p` at bit `p % 64` of word
    /// `p / 64`, and zero in every lane past the last pattern.
    #[test]
    fn pack_vectors_into_writes_the_documented_layout(seed in 0u64..3_000, count in 1usize..=200, lane_bits in any::<u64>()) {
        let c = circuit_of(seed);
        let vectors: Vec<Vec<bool>> = (0..count)
            .map(|p| vector_of(&c, lane_bits ^ (p as u64) << 3))
            .collect();
        let mut reused = vec![0xdead_beefu64; 3]; // stale content must be overwritten
        let words = pack_vectors_into(&c, &vectors, &mut reused);
        prop_assert_eq!(words, count.div_ceil(64));
        prop_assert_eq!(reused.len(), c.inputs().len() * words);
        for i in 0..c.inputs().len() {
            for lane in 0..words * 64 {
                let bit = reused[i * words + lane / 64] >> (lane % 64) & 1 == 1;
                prop_assert_eq!(bit, vectors.get(lane).is_some_and(|v| v[i]), "input {} lane {}", i, lane);
            }
        }
    }
}
