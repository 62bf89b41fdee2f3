//! Speed floor of the packed hot paths over the scalar one-simulation-
//! per-test loops they replaced: at least 5x for raw simulation
//! throughput and for BSIM on a 6k-gate generated circuit. The packed
//! path costs O(trace cone) per test where the scalar loop costs
//! O(gates), so the margin grows with circuit size; 6k gates keeps it
//! wide in debug builds too (the BSIM ratio reads ~7x there, ~9-11x in
//! release). `crates/core/tests/drift.rs` checks that both paths give
//! the same answers.
//!
//! Each side's time is the minimum over several runs, not the mean, and
//! the two sides run interleaved, one of each per repetition: a stall of
//! the host (a test on a neighbouring thread, another process) slows
//! runs of both sides alike instead of only the side that happened to be
//! timing, so it cannot flip the verdict.

use gatediag_core::{basic_sim_diagnose, generate_failing_tests, path_trace, BsimOptions, TestSet};
use gatediag_netlist::{inject_errors, Circuit, GateSet, RandomCircuitSpec, VectorGen};
use gatediag_sim::{pack_vectors_into, simulate, PackedSim, Parallelism};
use std::time::{Duration, Instant};

/// The speed-up every packed path must reach.
const FLOOR: f64 = 5.0;

/// The time of one call of `f`.
fn time<R>(f: &mut impl FnMut() -> R) -> Duration {
    let start = Instant::now();
    std::hint::black_box(f());
    start.elapsed()
}

/// The fastest of `reps` timed calls of `scalar` and of `packed`, after
/// one warm-up call of each; each repetition times one call of each.
fn min_times<R, S>(
    reps: usize,
    mut scalar: impl FnMut() -> R,
    mut packed: impl FnMut() -> S,
) -> (Duration, Duration) {
    std::hint::black_box(scalar());
    std::hint::black_box(packed());
    (0..reps).fold((Duration::MAX, Duration::MAX), |(s, p), _| {
        (s.min(time(&mut scalar)), p.min(time(&mut packed)))
    })
}

/// The scalar BSIM loop: one full simulation per test, then the trace.
fn scalar_bsim(circuit: &Circuit, tests: &TestSet, options: BsimOptions) -> Vec<GateSet> {
    tests
        .iter()
        .map(|t| {
            let values = simulate(circuit, &t.vector);
            path_trace(circuit, &values, t.output, options)
        })
        .collect()
}

#[test]
fn packed_sim_and_bsim_are_at_least_5x_faster_than_scalar() {
    let golden = RandomCircuitSpec::new(32, 8, 6000).seed(7).generate();
    // Retry injection seeds until the errors are observable enough for a
    // multi-word test pool (some injections land in near-redundant logic).
    let (faulty, tests) = (7u64..64)
        .find_map(|inject_seed| {
            let (faulty, _) = inject_errors(&golden, 2, inject_seed);
            let tests = generate_failing_tests(&golden, &faulty, 256, 7, 1 << 16);
            (tests.len() >= 64).then_some((faulty, tests))
        })
        .expect("no injection seed yields a multi-word test pool");

    // Raw simulation: 8 scalar simulations against one sweep of 512
    // packed patterns, compared per pattern.
    let mut gen = VectorGen::new(&faulty, 3);
    let vectors: Vec<Vec<bool>> = (0..512).map(|_| gen.next_vector()).collect();
    let mut packed = Vec::new();
    let words = pack_vectors_into(&faulty, &vectors, &mut packed);
    let mut sim = PackedSim::new(&faulty);
    sim.reset(words);
    sim.set_input_words(&packed);
    let (scalar, sweep) = min_times(
        10,
        || {
            vectors[..8].iter().fold(false, |acc, v| {
                acc ^ *simulate(&faulty, v).last().expect("gates")
            })
        },
        || {
            sim.sweep();
            sim.values()[faulty.len() * words - 1]
        },
    );
    let sim_ratio = (512.0 / sweep.as_secs_f64()) / (8.0 / scalar.as_secs_f64());

    // BSIM on one worker, so the ratio is the packed substrate's alone.
    let options = BsimOptions {
        parallelism: Parallelism::Sequential,
        ..BsimOptions::default()
    };
    let (scalar, packed) = min_times(
        5,
        || scalar_bsim(&faulty, &tests, options).len(),
        || {
            basic_sim_diagnose(&faulty, &tests, options)
                .candidate_sets
                .len()
        },
    );
    let bsim_ratio = scalar.as_secs_f64() / packed.as_secs_f64();
    eprintln!("packed over scalar: sim {sim_ratio:.1}x, bsim {bsim_ratio:.1}x");

    assert!(
        sim_ratio >= FLOOR && bsim_ratio >= FLOOR,
        "packed paths must be >= {FLOOR}x the scalar loops \
         (sim {sim_ratio:.1}x, bsim {bsim_ratio:.1}x, {} tests)",
        tests.len()
    );
}
