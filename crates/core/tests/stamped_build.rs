//! BSAT's stamped instance build against the clause-by-clause build.
//!
//! `basic_sat_diagnose` records one instrumented circuit copy as a clause
//! block and stamps it once per test (`Solver::add_block`), where a
//! direct encoding adds every copy's clauses one by one through
//! `Solver::add_clause`. The stamp must leave the solver in exactly the
//! same state, so these tests build each instance both ways and require
//! equal solver state digests after the build, then drive both solvers
//! through a full enumeration and require the same result, model and
//! statistics at every solve.
//!
//! The random circuits carry XOR/XNOR chains (auxiliary variables inside
//! the copy), duplicated fan-ins (clauses that deduplicate or are
//! tautologies) and constant gates (unit clauses inside the copy under
//! the explicit-mux encoding, and unguarded units of plain constants in
//! an unrolled circuit). One case makes an early test's pins force a
//! select line at the root, so the later copies take the
//! clause-by-clause path.

use gatediag_cnf::{
    encode_instrumented_copy, BlockRecorder, Instrumentation, MuxEncoding, Totalizer,
};
use gatediag_core::{basic_sat_diagnose, generate_failing_tests, BsatOptions, Test, TestSet};
use gatediag_netlist::{
    inject_errors, unroll, Circuit, CircuitBuilder, GateId, GateKind, RandomCircuitSpec,
};
use gatediag_sat::{enumerate_positive_subsets, Lit, SolveResult, Solver, Var};
use gatediag_sim::simulate;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const ENCODINGS: [MuxEncoding; 3] = [
    MuxEncoding::Inline,
    MuxEncoding::ExplicitMux {
        force_c_zero: false,
    },
    MuxEncoding::ExplicitMux { force_c_zero: true },
];

/// A random circuit over `inputs` inputs and `gates` gates: every kind,
/// XOR/XNOR with up to four fan-ins, fan-ins drawn with repetition (so
/// some repeat) and a few constant gates.
fn random_circuit(rng: &mut ChaCha8Rng, inputs: usize, gates: usize) -> Circuit {
    let mut b = CircuitBuilder::new();
    let mut nodes: Vec<GateId> = (0..inputs).map(|i| b.input(format!("i{i}"))).collect();
    for i in 0..gates {
        let kind = match rng.gen_range(0..12) {
            0 => GateKind::Const0,
            1 => GateKind::Const1,
            2 => GateKind::Buf,
            3 => GateKind::Not,
            4 => GateKind::And,
            5 => GateKind::Nand,
            6 => GateKind::Or,
            7 => GateKind::Nor,
            8 | 9 => GateKind::Xor,
            _ => GateKind::Xnor,
        };
        let arity = match kind {
            GateKind::Const0 | GateKind::Const1 => 0,
            GateKind::Buf | GateKind::Not => 1,
            _ => rng.gen_range(2..=4),
        };
        let fanins: Vec<GateId> = (0..arity)
            .map(|_| nodes[rng.gen_range(0..nodes.len())])
            .collect();
        nodes.push(b.gate(kind, fanins, format!("g{i}")));
    }
    for &g in &nodes[nodes.len() - 3..] {
        b.output(g);
    }
    b.finish().expect("a well-formed random circuit")
}

/// `count` tests on random vectors, mostly expecting the wrong value at a
/// random output.
fn random_tests(rng: &mut ChaCha8Rng, circuit: &Circuit, count: usize) -> TestSet {
    let tests = (0..count)
        .map(|_| {
            let vector: Vec<bool> = circuit.inputs().iter().map(|_| rng.gen()).collect();
            let values = simulate(circuit, &vector);
            let output = circuit.outputs()[rng.gen_range(0..circuit.outputs().len())];
            let expected = values[output.index()] != rng.gen_bool(0.7);
            Test {
                vector,
                output,
                expected,
            }
        })
        .collect();
    TestSet::new(tests)
}

/// One BSAT instance description: copies of `circuit`, one select per
/// site guarding the site's instances.
struct Case<'a> {
    circuit: &'a Circuit,
    sites: Vec<GateId>,
    instances: &'a dyn Fn(GateId) -> Vec<GateId>,
    tests: &'a TestSet,
    encoding: MuxEncoding,
    k: usize,
}

/// BSAT's instance build, stamped or clause by clause: the selects, one
/// copy per test with its pins, the totalizer, and hints on every third
/// select. Returns the solver, the selects and the totalizer.
fn build(case: &Case, stamped: bool) -> (Solver, Vec<Var>, Totalizer) {
    let mut solver = Solver::new();
    let inst = Instrumentation::new(&mut solver, case.circuit, &case.sites, |g| {
        (case.instances)(g)
    });
    let mut recorder = BlockRecorder::starting_at(solver.num_vars());
    let template = encode_instrumented_copy(&mut recorder, case.circuit, &inst, case.encoding);
    for test in case.tests {
        let lit: Box<dyn Fn(GateId, bool) -> Lit> = if stamped {
            let shift = recorder.stamp(&mut solver);
            let vars = template.vars.clone();
            Box::new(move |g, v| Var::from_index(vars.var(g).index() + shift).lit(v))
        } else {
            let copy = encode_instrumented_copy(&mut solver, case.circuit, &inst, case.encoding);
            Box::new(move |g, v| copy.vars.lit(g, v))
        };
        for (&pi, &v) in case.circuit.inputs().iter().zip(&test.vector) {
            solver.add_clause(&[lit(pi, v)]);
        }
        solver.add_clause(&[lit(test.output, test.expected)]);
    }
    let selects = inst.select_vars().to_vec();
    let lits: Vec<Lit> = selects.iter().map(|v| v.positive()).collect();
    let totalizer = Totalizer::new(&mut solver, &lits, case.k.min(selects.len()));
    for (i, &s) in selects.iter().enumerate().step_by(3) {
        solver.bump_variable(s, 1.0 + i as f64);
        solver.set_polarity(s, true);
    }
    (solver, selects, totalizer)
}

/// Builds `case` both ways and enumerates both solvers side by side (at
/// most `cap` models per bound), comparing state after the build and
/// every solve's result, model and statistics. Returns the number of
/// models found.
fn compare(what: &str, case: &Case, cap: usize) -> usize {
    let (mut direct, selects, totalizer) = build(case, false);
    let (mut stamped, _, _) = build(case, true);
    assert_eq!(direct.num_vars(), stamped.num_vars(), "{what}: variables");
    assert_eq!(
        direct.num_clauses(),
        stamped.num_clauses(),
        "{what}: clauses"
    );
    assert_eq!(
        direct.state_digest(),
        stamped.state_digest(),
        "{what}: solver state after the build"
    );
    let mut models = 0;
    for size in 1..=case.k.min(selects.len()) {
        let assumptions: Vec<Lit> = totalizer.at_most(size).into_iter().collect();
        for _ in 0..cap {
            let result = direct.solve(&assumptions);
            assert_eq!(result, stamped.solve(&assumptions), "{what}: result");
            assert_eq!(direct.stats(), stamped.stats(), "{what}: statistics");
            if result != SolveResult::Sat {
                assert_eq!(
                    direct.failed_assumptions(),
                    stamped.failed_assumptions(),
                    "{what}: failed assumptions"
                );
                break;
            }
            models += 1;
            for v in 0..direct.num_vars() {
                let lit = Var::from_index(v).positive();
                assert_eq!(
                    direct.model_value(lit),
                    stamped.model_value(lit),
                    "{what}: model value of v{v}"
                );
            }
            // Block the selected set (and its supersets) in both.
            let block: Vec<Lit> = selects
                .iter()
                .filter(|s| direct.model_value(s.positive()) == Some(true))
                .map(|s| s.negative())
                .collect();
            direct.add_clause(&block);
            stamped.add_clause(&block);
        }
    }
    assert_eq!(
        direct.state_digest(),
        stamped.state_digest(),
        "{what}: solver state after the enumeration"
    );
    models
}

/// The non-input gates of `c`, in gate-id order.
fn functional(c: &Circuit) -> Vec<GateId> {
    c.iter()
        .filter(|(_, g)| g.kind() != GateKind::Input)
        .map(|(id, _)| id)
        .collect()
}

#[test]
fn stamped_build_matches_clause_by_clause_on_random_circuits() {
    let mut rng = ChaCha8Rng::seed_from_u64(25);
    let mut models = 0;
    for round in 0..24 {
        let (inputs, gates) = (rng.gen_range(2..6), rng.gen_range(4..28));
        let circuit = random_circuit(&mut rng, inputs, gates);
        let count = [1, 8][round % 2];
        let tests = random_tests(&mut rng, &circuit, count);
        for encoding in ENCODINGS {
            let case = Case {
                circuit: &circuit,
                sites: functional(&circuit),
                instances: &|g| vec![g],
                tests: &tests,
                encoding,
                k: 2,
            };
            models += compare(&format!("round {round} {encoding:?}"), &case, 200);
        }
    }
    assert!(models > 100, "the enumerations found only {models} models");
}

#[test]
fn stamped_build_matches_clause_by_clause_on_an_unrolled_circuit() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let circuit = RandomCircuitSpec::new(4, 2, 24)
        .latches(3)
        .seed(3)
        .generate();
    let unrolled = unroll(&circuit, 3);
    for count in [1, 8] {
        let tests = random_tests(&mut rng, &unrolled.circuit, count);
        for encoding in ENCODINGS {
            let case = Case {
                circuit: &unrolled.circuit,
                sites: functional(&circuit),
                instances: &|g| unrolled.instances(g).collect(),
                tests: &tests,
                encoding,
                k: 2,
            };
            compare(
                &format!("unrolled, {count} tests, {encoding:?}"),
                &case,
                200,
            );
        }
    }
}

#[test]
fn stamped_build_falls_back_after_pins_force_a_select() {
    // y = NOT(a) tested at a = 0 expecting y = 0: the first copy's pins
    // force y's select at the root, so every later copy mentions an
    // assigned shared variable and goes in clause by clause.
    let mut b = CircuitBuilder::new();
    let a = b.input("a");
    let x = b.input("x");
    let n = b.gate(GateKind::Not, vec![a], "n");
    let y = b.gate(GateKind::And, vec![n, x, x], "y");
    b.output(y);
    let circuit = b.finish().expect("a well-formed circuit");
    let tests = TestSet::new(
        [(false, true), (true, true), (false, false), (true, false)]
            .into_iter()
            .map(|(a, x)| Test {
                vector: vec![a, x],
                output: y,
                expected: !a && !x,
            })
            .collect(),
    );
    for encoding in ENCODINGS {
        let case = Case {
            circuit: &circuit,
            sites: vec![y],
            instances: &|g| vec![g],
            tests: &tests,
            encoding,
            k: 1,
        };
        compare(&format!("forced select, {encoding:?}"), &case, 10);
    }
}

/// `basic_sat_diagnose` against the clause-by-clause build with the
/// engine's own enumeration loop: the same solutions, completeness and
/// solver statistics.
#[test]
fn bsat_engine_matches_the_clause_by_clause_build() {
    for seed in 0..3u64 {
        let golden = RandomCircuitSpec::new(6, 3, 40).seed(seed).generate();
        let (faulty, _) = inject_errors(&golden, 1 + (seed as usize % 2), seed);
        let tests = generate_failing_tests(&golden, &faulty, 8, seed, 8192);
        if tests.is_empty() {
            continue;
        }
        let k = 2;
        let sites = functional(&faulty);
        let engine = basic_sat_diagnose(&faulty, &tests, k, BsatOptions::default());
        assert!(engine.complete);

        let mut solver = Solver::new();
        let inst = Instrumentation::new(&mut solver, &faulty, &sites, std::iter::once);
        for test in &tests {
            let copy =
                encode_instrumented_copy(&mut solver, &faulty, &inst, MuxEncoding::default());
            for (&pi, &v) in faulty.inputs().iter().zip(&test.vector) {
                solver.add_clause(&[copy.vars.lit(pi, v)]);
            }
            solver.add_clause(&[copy.vars.lit(test.output, test.expected)]);
        }
        let selects = inst.select_vars();
        let lits: Vec<Lit> = selects.iter().map(|v| v.positive()).collect();
        let totalizer = Totalizer::new(&mut solver, &lits, k);
        let mut solutions: Vec<Vec<GateId>> = Vec::new();
        for size in 1..=k {
            let assumptions: Vec<Lit> = totalizer.at_most(size).into_iter().collect();
            let out = enumerate_positive_subsets(&mut solver, selects, &assumptions, usize::MAX);
            assert!(out.complete);
            for subset in out.solutions {
                let mut gates: Vec<GateId> = subset
                    .iter()
                    .map(|v| inst.sites()[v.index() - selects[0].index()])
                    .collect();
                gates.sort();
                solutions.push(gates);
            }
        }
        solutions.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
        assert_eq!(engine.solutions, solutions, "seed {seed}: solutions");
        assert_eq!(engine.stats, solver.stats(), "seed {seed}: search");
    }
}
