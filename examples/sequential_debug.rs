//! Sequential diagnosis via time-frame expansion (the construction of the
//! paper's reference [4], Ali et al.).
//!
//! A faulty state machine misbehaves only after a few clock cycles; the
//! sequential engine unrolls the circuit over the failing sequences and
//! shares each gate's correction select line across all time frames.
//!
//! ```text
//! cargo run --example sequential_debug
//! ```

use gatediag::core::{
    generate_failing_sequences, run_engine, simulate_sequence, DiagnosisProblem, EngineConfig,
    EngineKind,
};
use gatediag::netlist::{inject_errors, parse_bench, RandomCircuitSpec};

fn main() {
    // A small handwritten controller: 2-bit counter with enable/reset.
    let golden = parse_bench(
        "\
INPUT(en)
INPUT(rst)
OUTPUT(carry)
q0 = DFF(d0)
q1 = DFF(d1)
nrst = NOT(rst)
t0 = XOR(q0, en)
d0 = AND(t0, nrst)
c0 = AND(q0, en)
t1 = XOR(q1, c0)
d1 = AND(t1, nrst)
carry = AND(c0, q1)
",
    )
    .expect("controller parses");
    println!(
        "controller: {} gates, {} flip-flops",
        golden.num_functional_gates(),
        golden.latches().len()
    );

    // Inject one gate-change error.
    let (faulty, sites) = inject_errors(&golden, 1, 13);
    let error = sites[0];
    println!(
        "injected: {} changed {} -> {}",
        faulty.gate_name(error.gate).unwrap_or("?"),
        error.original,
        error.replacement
    );

    // Collect failing input sequences (5 cycles each).
    let tests = generate_failing_sequences(&golden, &faulty, 5, 6, 13, 4096);
    if tests.is_empty() {
        println!("error not observable within 5 cycles of random stimulus");
        return;
    }
    println!("{} failing sequences (5 cycles each)", tests.len());
    let first = &tests.tests()[0];
    println!(
        "  e.g. output {} wrong at cycle {} (expected {})",
        faulty.gate_name(first.output).unwrap_or("?"),
        first.frame,
        first.expected
    );
    // Show the golden-vs-faulty trace of that sequence.
    let g_trace = simulate_sequence(&golden, &first.initial_state, &first.vectors);
    let f_trace = simulate_sequence(&faulty, &first.initial_state, &first.vectors);
    print!("  golden carry: ");
    for frame in &g_trace {
        print!("{}", frame[first.output.index()] as u8);
    }
    print!("\n  faulty carry: ");
    for frame in &f_trace {
        print!("{}", frame[first.output.index()] as u8);
    }
    println!();
    // One problem for both engines: the time-frame expansion of the
    // failing sequences, each gate's instances grouped across frames.
    let problem = DiagnosisProblem::sequential(faulty.clone(), tests);

    // Sequential path tracing first: marks across frame boundaries, G_max
    // as the single best-effort answer.
    let bsim = run_engine(EngineKind::SeqBsim, &problem, &EngineConfig::default());
    println!(
        "\nsequential BSIM: {} marked gates, G_max {}",
        bsim.candidates.len(),
        if bsim
            .solutions
            .first()
            .is_some_and(|g| g.contains(&error.gate))
        {
            "contains the injected error"
        } else {
            "missed the injected error"
        }
    );

    // Sequential SAT diagnosis: selects shared across all 5 frames.
    let diag = run_engine(
        EngineKind::SeqBsat,
        &problem,
        &EngineConfig {
            k: 1,
            max_solutions: 100,
            ..EngineConfig::default()
        },
    );
    println!(
        "\nsequential BSAT (k = 1): {} corrections{}",
        diag.solutions.len(),
        if diag.complete { "" } else { " (truncated)" }
    );
    for sol in &diag.solutions {
        let names: Vec<&str> = sol
            .iter()
            .map(|&g| faulty.gate_name(g).unwrap_or("?"))
            .collect();
        let marker = if sol.contains(&error.gate) {
            "  <-- the injected error"
        } else {
            ""
        };
        assert!(problem.is_valid(sol));
        println!("  {names:?}{marker}");
    }

    // Larger randomized sanity run.
    let golden = RandomCircuitSpec::new(6, 3, 80)
        .latches(6)
        .seed(3)
        .generate();
    let (faulty, sites) = inject_errors(&golden, 1, 3);
    let tests = generate_failing_sequences(&golden, &faulty, 4, 8, 3, 8192);
    if !tests.is_empty() {
        let diag = run_engine(
            EngineKind::SeqBsat,
            &DiagnosisProblem::sequential(faulty, tests),
            &EngineConfig {
                k: 1,
                max_solutions: 500,
                ..EngineConfig::default()
            },
        );
        println!(
            "\nrandom sequential circuit (80 gates, 6 FFs): {} corrections, real site {}",
            diag.solutions.len(),
            if diag.solutions.contains(&vec![sites[0].gate]) {
                "found"
            } else {
                "ranked out by the tests"
            }
        );
    }
}
