//! Property tests: parallel diagnosis output equals sequential output on
//! random circuits, for random worker counts.
//!
//! The explicit drift suite (`parallel_drift.rs`) pins hand-picked edge
//! cases; here random circuit shapes, error multiplicities, test-set sizes
//! and worker counts are fuzzed together. Any schedule-dependent state in
//! the worker pool, the shard merge, or the per-worker engine reuse would
//! surface as a mismatch.

use gatediag_core::{
    basic_sim_diagnose, generate_failing_tests, BsimOptions, MarkPolicy, Parallelism,
};
use gatediag_netlist::{inject_errors, RandomCircuitSpec};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sharded BSIM equals sequential BSIM: candidate sets, mark counts
    /// and union, for any circuit and worker count.
    #[test]
    fn parallel_bsim_equals_sequential(
        seed in 0u64..500,
        errors in 1usize..=2,
        num_tests in 1usize..150,
        workers in 1usize..9,
        all_controlling in any::<bool>(),
    ) {
        let golden = RandomCircuitSpec::new(6, 3, 50).seed(seed).generate();
        let (faulty, _) = inject_errors(&golden, errors, seed);
        let tests = generate_failing_tests(&golden, &faulty, num_tests, seed, 1 << 13);
        let policy = if all_controlling {
            MarkPolicy::AllControlling
        } else {
            MarkPolicy::FirstControlling
        };
        let sequential = basic_sim_diagnose(&faulty, &tests, BsimOptions {
            policy,
            parallelism: Parallelism::Sequential,
            ..BsimOptions::default()
        });
        let parallel = basic_sim_diagnose(&faulty, &tests, BsimOptions {
            policy,
            parallelism: Parallelism::Fixed(workers),
            ..BsimOptions::default()
        });
        prop_assert_eq!(&sequential.candidate_sets, &parallel.candidate_sets);
        prop_assert_eq!(&sequential.mark_counts, &parallel.mark_counts);
    }
}
