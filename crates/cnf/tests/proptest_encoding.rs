//! Property tests: CNF encodings against the logic simulator and exhaustive
//! subset checks.

use gatediag_cnf::{
    encode_circuit, encode_instrumented_copy, Instrumentation, MuxEncoding, Totalizer,
};
use gatediag_netlist::{GateId, RandomCircuitSpec};
use gatediag_sat::{Lit, SolveResult, Solver, Var};
use gatediag_sim::{simulate, simulate_forced};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For random circuits and vectors, the Tseitin encoding constrained to
    /// the vector has exactly the simulator's values as its unique model.
    #[test]
    fn tseitin_equals_simulation(seed in 0u64..500, pattern in any::<u64>()) {
        let circuit = RandomCircuitSpec::new(5, 2, 25).seed(seed).generate();
        let vector: Vec<bool> = (0..circuit.inputs().len())
            .map(|i| pattern >> (i % 64) & 1 == 1)
            .collect();
        let mut solver = Solver::new();
        let vars = encode_circuit(&mut solver, &circuit);
        let assumptions: Vec<Lit> = circuit
            .inputs()
            .iter()
            .zip(&vector)
            .map(|(&pi, &v)| vars.lit(pi, v))
            .collect();
        prop_assert_eq!(solver.solve(&assumptions), SolveResult::Sat);
        let expected = simulate(&circuit, &vector);
        for (id, _) in circuit.iter() {
            prop_assert_eq!(
                solver.model_value(vars.lit(id, true)),
                Some(expected[id.index()])
            );
        }
    }

    /// The instrumented encoding with selects on behaves exactly like
    /// forced-value simulation: fixing the freed gates to chosen values
    /// determines all other gates to the forced-simulation values.
    #[test]
    fn instrumented_encoding_equals_forced_simulation(
        seed in 0u64..200,
        pattern in any::<u64>(),
        forced_bits in any::<u8>(),
    ) {
        let circuit = RandomCircuitSpec::new(5, 2, 20).seed(seed).generate();
        let functional: Vec<GateId> = circuit
            .iter()
            .filter(|(_, g)| !g.kind().is_source())
            .map(|(id, _)| id)
            .collect();
        let sites: Vec<GateId> = functional.iter().copied().take(2).collect();
        let vector: Vec<bool> = (0..circuit.inputs().len())
            .map(|i| pattern >> (i % 64) & 1 == 1)
            .collect();
        for encoding in [
            MuxEncoding::Inline,
            MuxEncoding::ExplicitMux { force_c_zero: true },
        ] {
            let mut solver = Solver::new();
            let inst = Instrumentation::new(&mut solver, &circuit, &sites, std::iter::once);
            let copy = encode_instrumented_copy(&mut solver, &circuit, &inst, encoding);
            let mut assumptions: Vec<Lit> = circuit
                .inputs()
                .iter()
                .zip(&vector)
                .map(|(&pi, &v)| copy.vars.lit(pi, v))
                .collect();
            let mut forced: Vec<(GateId, bool)> = Vec::new();
            for (i, &site) in sites.iter().enumerate() {
                let sel = inst.select(site).unwrap();
                assumptions.push(sel.positive());
                let value = forced_bits >> i & 1 == 1;
                assumptions.push(copy.vars.lit(site, value));
                forced.push((site, value));
            }
            prop_assert_eq!(solver.solve(&assumptions), SolveResult::Sat);
            let expected = simulate_forced(&circuit, &vector, &forced);
            for (id, _) in circuit.iter() {
                prop_assert_eq!(
                    solver.model_value(copy.vars.lit(id, true)),
                    Some(expected[id.index()]),
                    "{:?} gate {}", encoding, id
                );
            }
        }
    }

    /// The totalizer's bounds agree with the popcount semantics on every
    /// subset of up to 7 inputs.
    #[test]
    fn cardinality_encodings_agree(n in 1usize..7, k in 1usize..4) {
        let mut tot_solver = Solver::new();
        let vars: Vec<Var> = (0..n).map(|_| tot_solver.new_var()).collect();
        let lits: Vec<Lit> = vars.iter().map(|v| v.positive()).collect();
        let limit = k.min(n);
        let tot = Totalizer::new(&mut tot_solver, &lits, limit);

        for pattern in 0..1u32 << n {
            let expect = pattern.count_ones() as usize <= k;
            let mut tot_assumptions: Vec<Lit> = vars
                .iter()
                .enumerate()
                .map(|(i, v)| v.lit(pattern >> i & 1 == 1))
                .collect();
            if let Some(bound) = (k <= limit).then(|| tot.at_most(k.min(limit))).flatten() {
                tot_assumptions.push(bound);
            }
            prop_assert_eq!(
                tot_solver.solve(&tot_assumptions) == SolveResult::Sat,
                expect,
                "totalizer n={} k={} pattern={:b}", n, k, pattern
            );
        }
    }
}
