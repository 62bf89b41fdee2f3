//! Thread-count invariance for the parallel *SAT* layer.
//!
//! `screen_valid_corrections` screens candidate sets with one validity
//! oracle per worker, and must produce *bit-identical diagnosis output*
//! for every worker count, including the sequential path — these tests
//! pin that contract the same way `parallel_drift.rs` pins the
//! simulation side. COV runs its covering branches on the calling
//! thread; its tests sweep the sharded BSIM phase of `sc_diagnose` and
//! check the cap on raw covering instances. (BSAT builds its instance on
//! the calling thread, stamping one recorded copy per test;
//! `stamped_build.rs` checks that build against the clause-by-clause
//! one.)

use gatediag_core::{
    brute_force_covers, cover_all, generate_failing_tests, sc_diagnose, screen_valid_corrections,
    BsimOptions, Budget, CovOptions, Parallelism, TestSet, ValidityBackend, ValidityOracle,
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
                bsim: BsimOptions {
                    parallelism: Parallelism::Sequential,
                    ..BsimOptions::default()
                },
                ..CovOptions::default()
            },
        );
        // The covers must equal the brute-force oracle's on the BSIM
        // candidate sets, and themselves at every worker count of the
        // sharded BSIM phase.
        let sets: Vec<Vec<GateId>> = sequential
            .bsim
            .as_ref()
            .expect("sc_diagnose keeps its BSIM result")
            .candidate_sets
            .iter()
            .map(|set| set.iter().collect())
            .collect();
        assert!(sequential.complete);
        assert_eq!(
            sequential.solutions,
            brute_force_covers(&sets, 2),
            "covers vs the brute-force oracle"
        );
        for parallelism in WORKER_SWEEP {
            let parallel = sc_diagnose(
                &faulty,
                &small,
                2,
                CovOptions {
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
