//! The paper's Sec. 6 hybrid in action: seed the SAT solver's decision
//! heuristic with BSIM mark counts, and check that the solution space
//! stays the same.
//!
//! ```text
//! cargo run --example hybrid_debug
//! ```

use gatediag::netlist::{inject_errors, RandomCircuitSpec};
use gatediag::{basic_sat_diagnose, generate_failing_tests, hybrid_seeded_bsat, BsatOptions};

fn main() {
    let golden = RandomCircuitSpec::new(12, 4, 300)
        .seed(11)
        .name("hybrid_demo")
        .generate();
    let (faulty, sites) = inject_errors(&golden, 2, 11);
    let errors: Vec<_> = sites.iter().map(|s| s.gate).collect();
    let tests = generate_failing_tests(&golden, &faulty, 16, 11, 65536);
    println!(
        "circuit: {} gates; injected errors at {:?}; {} failing tests",
        faulty.num_functional_gates(),
        errors,
        tests.len()
    );

    let plain = basic_sat_diagnose(&faulty, &tests, 2, BsatOptions::default());
    let seeded = hybrid_seeded_bsat(&faulty, &tests, 2, BsatOptions::default());
    assert_eq!(
        plain.solutions, seeded.solutions,
        "seeding must not change the solution space"
    );
    println!("\nBSIM-seeded decision heuristic:");
    println!(
        "  plain BSAT : {} solutions, {} conflicts, {} decisions",
        plain.solutions.len(),
        plain.stats.conflicts,
        plain.stats.decisions
    );
    println!(
        "  seeded BSAT: {} solutions, {} conflicts, {} decisions",
        seeded.solutions.len(),
        seeded.stats.conflicts,
        seeded.stats.decisions
    );
}
