//! Thread-count invariance for the parallel *SAT* layer (PR 3).
//!
//! The SAT side fans out in two places: `basic_sat_diagnose` generates
//! its per-test CNF copies on a worker pool (replayed into the solver in
//! test order), and `screen_valid_corrections` (which
//! `partitioned_sat_diagnose` verifies through) screens candidate sets
//! with one validity oracle per worker. Both must produce *bit-identical
//! diagnosis output* for every worker count, including the sequential
//! path — these tests pin that contract the same way `parallel_drift.rs`
//! pins the simulation side. The COV SAT engine runs its branches on the
//! calling thread; its tests sweep the sharded BSIM phase of
//! `sc_diagnose` and check the cap on raw covering instances.

use gatediag_core::{
    basic_sat_diagnose, cover_all, generate_failing_tests, hybrid_seeded_bsat,
    partitioned_sat_diagnose, sc_diagnose, screen_valid_corrections, two_pass_sat_diagnose,
    BsatOptions, BsimOptions, Budget, CovEngine, CovOptions, Parallelism, TestSet, ValidityBackend,
    ValidityOracle,
};
use gatediag_netlist::{inject_errors, Circuit, GateId, RandomCircuitSpec};

/// The worker counts every drift test sweeps (mirrors
/// `parallel_drift.rs`): sequential, small real pools, and more workers
/// than this container has cores or the workloads have items.
const WORKER_SWEEP: [Parallelism; 4] = [
    Parallelism::Sequential,
    Parallelism::Fixed(2),
    Parallelism::Fixed(3),
    Parallelism::Fixed(8),
];

fn workloads() -> Vec<(Circuit, Vec<GateId>, TestSet)> {
    let mut out = Vec::new();
    for seed in 0..3u64 {
        let golden = RandomCircuitSpec::new(6, 3, 40).seed(seed).generate();
        let (faulty, sites) = inject_errors(&golden, 1 + (seed as usize % 2), seed);
        let tests = generate_failing_tests(&golden, &faulty, 8, seed, 8192);
        if !tests.is_empty() {
            let gates = sites.iter().map(|s| s.gate).collect();
            out.push((faulty, gates, tests));
        }
    }
    assert!(!out.is_empty(), "no workload produced failing tests");
    out
}

#[test]
fn bsat_solutions_are_identical_for_all_worker_counts() {
    for (faulty, _, tests) in workloads() {
        let sequential = basic_sat_diagnose(
            &faulty,
            &tests,
            2,
            BsatOptions {
                parallelism: Parallelism::Sequential,
                ..BsatOptions::default()
            },
        );
        assert!(sequential.complete);
        for parallelism in WORKER_SWEEP {
            let parallel = basic_sat_diagnose(
                &faulty,
                &tests,
                2,
                BsatOptions {
                    parallelism,
                    ..BsatOptions::default()
                },
            );
            assert_eq!(
                sequential.solutions, parallel.solutions,
                "BSAT solutions drifted at {parallelism:?}"
            );
            assert_eq!(sequential.complete, parallel.complete);
            // The parallel build replays the exact clause sequence, so
            // even the *search* must be identical, not just the solution
            // set: conflicts and decisions are part of the pinned output.
            assert_eq!(
                sequential.stats.conflicts, parallel.stats.conflicts,
                "search trajectory drifted at {parallelism:?}"
            );
            assert_eq!(sequential.stats.decisions, parallel.stats.decisions);
            assert_eq!(sequential.stats.propagations, parallel.stats.propagations);
        }
    }
}

#[test]
fn bsat_variants_are_worker_count_invariant() {
    for (faulty, _, tests) in workloads() {
        let baseline_two_pass = two_pass_sat_diagnose(
            &faulty,
            &tests,
            2,
            BsatOptions {
                parallelism: Parallelism::Sequential,
                ..BsatOptions::default()
            },
        );
        let baseline_part = partitioned_sat_diagnose(
            &faulty,
            &tests,
            2,
            4,
            BsatOptions {
                parallelism: Parallelism::Sequential,
                ..BsatOptions::default()
            },
        );
        let baseline_hybrid = hybrid_seeded_bsat(
            &faulty,
            &tests,
            2,
            BsatOptions {
                parallelism: Parallelism::Sequential,
                ..BsatOptions::default()
            },
        );
        for parallelism in WORKER_SWEEP {
            let options = BsatOptions {
                parallelism,
                ..BsatOptions::default()
            };
            assert_eq!(
                two_pass_sat_diagnose(&faulty, &tests, 2, options.clone()).solutions,
                baseline_two_pass.solutions,
                "two-pass drifted at {parallelism:?}"
            );
            assert_eq!(
                partitioned_sat_diagnose(&faulty, &tests, 2, 4, options.clone()).solutions,
                baseline_part.solutions,
                "partitioned drifted at {parallelism:?}"
            );
            assert_eq!(
                hybrid_seeded_bsat(&faulty, &tests, 2, options).solutions,
                baseline_hybrid.solutions,
                "hybrid drifted at {parallelism:?}"
            );
        }
    }
}

#[test]
fn sat_validity_oracle_is_worker_count_invariant() {
    for (faulty, error_gates, tests) in workloads() {
        let functional: Vec<GateId> = faulty
            .iter()
            .filter(|(_, g)| !g.kind().is_source())
            .map(|(id, _)| id)
            .collect();
        let mut sets: Vec<Vec<GateId>> = functional.iter().take(10).map(|&g| vec![g]).collect();
        sets.push(error_gates.clone());
        sets.push(Vec::new());
        let screen = |sets: &[Vec<GateId>], tests: &TestSet, parallelism, backend| {
            screen_valid_corrections(
                &faulty,
                tests,
                sets,
                parallelism,
                backend,
                &Budget::default(),
            )
            .verdicts
        };
        // Batch screening: both the SAT-pinned and the auto-dispatching
        // screens, against per-set sequential SAT verdicts.
        let expected: Vec<bool> = sets
            .iter()
            .map(|s| {
                ValidityOracle::with_backend(&faulty, ValidityBackend::Sat).is_valid(&tests, s)
            })
            .collect();
        assert!(
            expected.last() == Some(&false),
            "failing tests need a correction"
        );
        for parallelism in WORKER_SWEEP {
            assert_eq!(
                screen(&sets, &tests, parallelism, ValidityBackend::Sat),
                expected,
                "SAT screening drifted at {parallelism:?}"
            );
            assert_eq!(
                screen(&sets, &tests, parallelism, ValidityBackend::Auto),
                expected,
                "auto-dispatch screening drifted at {parallelism:?}"
            );
        }
        // Degenerate inputs, every worker count.
        for parallelism in WORKER_SWEEP {
            assert!(screen(&[], &tests, parallelism, ValidityBackend::Sat).is_empty());
            assert_eq!(
                screen(
                    &sets[..1],
                    &TestSet::default(),
                    parallelism,
                    ValidityBackend::Sat
                ),
                vec![true]
            );
        }
    }
}

#[test]
fn cov_sat_engine_is_identical_for_all_worker_counts() {
    for (faulty, _, tests) in workloads() {
        let small = tests.prefix_at_most(12);
        let sequential = sc_diagnose(
            &faulty,
            &small,
            2,
            CovOptions {
                engine: CovEngine::Sat,
                bsim: BsimOptions {
                    parallelism: Parallelism::Sequential,
                    ..BsimOptions::default()
                },
                ..CovOptions::default()
            },
        );
        // The SAT engine must agree with branch-and-bound (the
        // independent cross-check) and with itself at every worker count
        // of the sharded BSIM phase.
        let bnb = sc_diagnose(
            &faulty,
            &small,
            2,
            CovOptions {
                engine: CovEngine::BranchAndBound,
                ..CovOptions::default()
            },
        );
        assert_eq!(sequential.solutions, bnb.solutions, "SAT vs BnB covers");
        for parallelism in WORKER_SWEEP {
            let parallel = sc_diagnose(
                &faulty,
                &small,
                2,
                CovOptions {
                    engine: CovEngine::Sat,
                    bsim: BsimOptions {
                        parallelism,
                        ..BsimOptions::default()
                    },
                    ..CovOptions::default()
                },
            );
            assert_eq!(
                sequential.solutions, parallel.solutions,
                "SAT covers drifted at {parallelism:?}"
            );
            assert_eq!(sequential.complete, parallel.complete);
        }
    }
}

#[test]
fn cov_sat_abstract_instances_and_truncation_are_invariant() {
    let g = GateId::new;
    let sets = vec![
        vec![g(0), g(1), g(5), g(6)],
        vec![g(2), g(3), g(4), g(5), g(6)],
        vec![g(1), g(2), g(4), g(7)],
    ];
    let sat = |sets: &[Vec<GateId>], max_solutions| {
        cover_all(
            sets,
            3,
            CovOptions {
                engine: CovEngine::Sat,
                max_solutions,
                ..CovOptions::default()
            },
        )
    };
    let full = sat(&sets, 100);
    assert!(full.complete);
    for max_solutions in [0usize, 1, 2, 4] {
        let truncated = sat(&sets, max_solutions);
        assert!(truncated.solutions.len() <= max_solutions.max(1));
        assert_eq!(truncated.complete, truncated.truncation.is_none());
        for sol in &truncated.solutions {
            assert!(full.solutions.contains(sol), "{sol:?} not in full run");
        }
    }
    // Edge cases: no sets (one empty cover) and an unhittable empty set.
    assert_eq!(sat(&[], 100).solutions, vec![Vec::<GateId>::new()]);
    assert!(sat(&[vec![g(0)], vec![]], 100).solutions.is_empty());
}
