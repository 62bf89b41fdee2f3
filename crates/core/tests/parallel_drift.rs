//! Thread-count invariance for the parallel diagnosis layer.
//!
//! Every parallel entry point — sharded BSIM, the fanned-out backtrack
//! search, the sharded repair enumeration, the branch-parallel cover
//! engine and the batch validity screen — must be *bit-identical* to its
//! sequential counterpart for every worker count, including degenerate
//! cases (one worker, more workers than work items, empty work). These
//! tests pin that contract explicitly; `proptest_parallel.rs` fuzzes it
//! on random circuits.

use gatediag_core::{
    basic_sim_diagnose, cover_all, find_kind_repairs_par, generate_failing_tests, sc_diagnose,
    screen_valid_corrections, sim_backtrack_diagnose, BsimOptions, Budget, CovEngine, CovOptions,
    CovResult, MarkPolicy, Parallelism, SimBacktrackOptions, TestSet, Truncation, ValidityBackend,
    ValidityOracle,
};
use gatediag_netlist::{c17, inject_errors, Circuit, GateId, RandomCircuitSpec};

/// The worker counts every drift test sweeps: the inline sequential path,
/// a couple of real pools, and far more workers than this container has
/// cores (or, for the small workloads, than there are work items).
const WORKER_SWEEP: [Parallelism; 4] = [
    Parallelism::Sequential,
    Parallelism::Fixed(2),
    Parallelism::Fixed(3),
    Parallelism::Fixed(8),
];

fn workloads() -> Vec<(Circuit, Vec<GateId>, TestSet)> {
    let mut out = Vec::new();
    for seed in 0..3u64 {
        let golden = c17();
        let (faulty, sites) = inject_errors(&golden, 1, seed);
        let tests = generate_failing_tests(&golden, &faulty, 8, seed, 4096);
        if !tests.is_empty() {
            out.push((faulty, sites.iter().map(|s| s.gate).collect(), tests));
        }
    }
    // Enough tests to span several 64-test shards, so the parallel BSIM
    // path really splits work instead of degenerating to one batch.
    for seed in 0..4u64 {
        let golden = RandomCircuitSpec::new(7, 3, 60).seed(seed).generate();
        let p = 1 + (seed as usize % 2);
        let (faulty, sites) = inject_errors(&golden, p, seed);
        let tests = generate_failing_tests(&golden, &faulty, 200, seed, 1 << 14);
        if !tests.is_empty() {
            out.push((faulty, sites.iter().map(|s| s.gate).collect(), tests));
        }
    }
    out
}

#[test]
fn bsim_is_identical_for_all_worker_counts() {
    for (faulty, _, tests) in workloads() {
        for policy in [MarkPolicy::FirstControlling, MarkPolicy::AllControlling] {
            let sequential = basic_sim_diagnose(
                &faulty,
                &tests,
                BsimOptions {
                    policy,
                    parallelism: Parallelism::Sequential,
                    ..BsimOptions::default()
                },
            );
            for parallelism in WORKER_SWEEP {
                let parallel = basic_sim_diagnose(
                    &faulty,
                    &tests,
                    BsimOptions {
                        policy,
                        parallelism,
                        ..BsimOptions::default()
                    },
                );
                assert_eq!(
                    sequential.candidate_sets, parallel.candidate_sets,
                    "candidate sets drifted at {parallelism:?}"
                );
                assert_eq!(sequential.mark_counts, parallel.mark_counts);
                assert_eq!(
                    sequential.union.iter().collect::<Vec<_>>(),
                    parallel.union.iter().collect::<Vec<_>>()
                );
            }
        }
    }
}

#[test]
fn bsim_empty_test_set_is_identical() {
    let c = c17();
    for parallelism in WORKER_SWEEP {
        let result = basic_sim_diagnose(
            &c,
            &TestSet::default(),
            BsimOptions {
                parallelism,
                ..BsimOptions::default()
            },
        );
        assert!(result.candidate_sets.is_empty());
        assert!(result.union.is_empty());
    }
}

#[test]
fn sim_backtrack_is_identical_for_all_worker_counts() {
    for (faulty, _, tests) in workloads() {
        let small = tests.prefix_at_most(8);
        let sequential = sim_backtrack_diagnose(
            &faulty,
            &small,
            2,
            SimBacktrackOptions {
                parallelism: Parallelism::Sequential,
                ..SimBacktrackOptions::default()
            },
        );
        for parallelism in WORKER_SWEEP {
            for x_pruning in [true, false] {
                let parallel = sim_backtrack_diagnose(
                    &faulty,
                    &small,
                    2,
                    SimBacktrackOptions {
                        parallelism,
                        x_pruning,
                        ..SimBacktrackOptions::default()
                    },
                );
                // x_pruning is conservative, so it never changes results
                // either; fold it into the sweep for coverage.
                assert_eq!(sequential, parallel, "solutions drifted at {parallelism:?}");
            }
        }
    }
}

#[test]
fn sim_backtrack_budget_zero_and_empty_tests() {
    let (faulty, _, tests) = workloads().remove(0);
    for parallelism in WORKER_SWEEP {
        let options = SimBacktrackOptions {
            parallelism,
            ..SimBacktrackOptions::default()
        };
        assert!(sim_backtrack_diagnose(&faulty, &tests, 0, options).is_empty());
        // Empty test set: every singleton is trivially valid, so the
        // result is all size-1 sets of marked gates — of which there are
        // none, because no tests means no marks.
        assert!(sim_backtrack_diagnose(&faulty, &TestSet::default(), 2, options).is_empty());
    }
}

#[test]
fn sim_backtrack_max_solutions_truncation_is_identical() {
    for (faulty, _, tests) in workloads().into_iter().take(3) {
        let small = tests.prefix_at_most(6);
        for max_solutions in [1usize, 2, 3] {
            let sequential = sim_backtrack_diagnose(
                &faulty,
                &small,
                2,
                SimBacktrackOptions {
                    max_solutions,
                    parallelism: Parallelism::Sequential,
                    ..SimBacktrackOptions::default()
                },
            );
            for parallelism in WORKER_SWEEP {
                let parallel = sim_backtrack_diagnose(
                    &faulty,
                    &small,
                    2,
                    SimBacktrackOptions {
                        max_solutions,
                        parallelism,
                        ..SimBacktrackOptions::default()
                    },
                );
                assert_eq!(
                    sequential, parallel,
                    "truncated search drifted at {parallelism:?} (max {max_solutions})"
                );
            }
        }
    }
}

#[test]
fn kind_repairs_are_identical_for_all_worker_counts() {
    for (faulty, errors, tests) in workloads() {
        let correction: Vec<GateId> = errors.iter().copied().take(2).collect();
        let sequential =
            find_kind_repairs_par(&faulty, &tests, &correction, Parallelism::Sequential);
        for parallelism in WORKER_SWEEP {
            assert_eq!(
                sequential,
                find_kind_repairs_par(&faulty, &tests, &correction, parallelism),
                "repair list drifted at {parallelism:?} for {correction:?}"
            );
        }
        // Empty correction: the single empty assignment, every shard count.
        for parallelism in WORKER_SWEEP {
            assert_eq!(
                find_kind_repairs_par(&faulty, &tests, &[], Parallelism::Sequential),
                find_kind_repairs_par(&faulty, &tests, &[], parallelism)
            );
        }
    }
}

#[test]
fn cov_bnb_is_identical_for_all_worker_counts_and_agrees_with_sat() {
    for (faulty, _, tests) in workloads() {
        let small = tests.prefix_at_most(12);
        let sat = sc_diagnose(
            &faulty,
            &small,
            2,
            CovOptions {
                engine: CovEngine::Sat,
                ..CovOptions::default()
            },
        );
        let sequential = sc_diagnose(
            &faulty,
            &small,
            2,
            CovOptions {
                engine: CovEngine::BranchAndBound,
                parallelism: Parallelism::Sequential,
                ..CovOptions::default()
            },
        );
        assert_eq!(sat.solutions, sequential.solutions, "SAT vs BnB covers");
        for parallelism in WORKER_SWEEP {
            let parallel = sc_diagnose(
                &faulty,
                &small,
                2,
                CovOptions {
                    engine: CovEngine::BranchAndBound,
                    parallelism,
                    ..CovOptions::default()
                },
            );
            assert_eq!(
                sequential.solutions, parallel.solutions,
                "covers drifted at {parallelism:?}"
            );
            assert_eq!(sequential.complete, parallel.complete);
        }
    }
}

#[test]
fn cov_bnb_truncation_is_identical() {
    // Abstract covering instance with many covers, truncated hard.
    let g = GateId::new;
    let sets = vec![
        vec![g(0), g(1), g(5), g(6)],
        vec![g(2), g(3), g(4), g(5), g(6)],
        vec![g(1), g(2), g(4), g(7)],
    ];
    // max_solutions == 0 keeps the seed's quirk: truncation was only
    // noticed after a push, so the first cover is still reported.
    for max_solutions in [0usize, 1, 2, 4, 100] {
        let sequential = cover_all(
            &sets,
            3,
            CovOptions {
                engine: CovEngine::BranchAndBound,
                max_solutions,
                parallelism: Parallelism::Sequential,
                ..CovOptions::default()
            },
        );
        for parallelism in WORKER_SWEEP {
            let parallel = cover_all(
                &sets,
                3,
                CovOptions {
                    engine: CovEngine::BranchAndBound,
                    max_solutions,
                    parallelism,
                    ..CovOptions::default()
                },
            );
            assert_eq!(
                sequential.solutions, parallel.solutions,
                "covers drifted at {parallelism:?} (max {max_solutions})"
            );
            assert_eq!(sequential.complete, parallel.complete);
        }
        if max_solutions == 0 {
            // Seed behaviour: truncation is only noticed after the first
            // push, so enumeration stops at one raw cover (which the
            // irredundancy filter may still drop) and reports truncation.
            assert!(sequential.solutions.len() <= 1);
            assert!(!sequential.complete);
        }
    }
}

#[test]
fn cov_sat_truncation_is_identical() {
    // Twelve-gate branch set and many covers: every branch reads the one
    // shared covering base, and small caps truncate the merged list.
    let g = GateId::new;
    let sets: Vec<Vec<GateId>> = (0..6)
        .map(|i| (0..12).map(|j| g((i * 5 + j * 7) % 30)).collect())
        .collect();
    for max_solutions in [1usize, 3, 10] {
        let runs: Vec<CovResult> = [
            Parallelism::Sequential,
            Parallelism::Fixed(2),
            Parallelism::Fixed(7),
        ]
        .into_iter()
        .map(|parallelism| {
            cover_all(
                &sets,
                3,
                CovOptions {
                    engine: CovEngine::Sat,
                    max_solutions,
                    parallelism,
                    ..CovOptions::default()
                },
            )
        })
        .collect();
        let sequential = &runs[0];
        assert!(!sequential.complete, "cap {max_solutions} did not truncate");
        assert_eq!(sequential.truncation, Some(Truncation::Solutions));
        for parallel in &runs[1..] {
            assert_eq!(
                sequential.solutions, parallel.solutions,
                "cap {max_solutions}"
            );
            assert_eq!(sequential.complete, parallel.complete);
            assert_eq!(sequential.truncation, parallel.truncation);
            assert_eq!(sequential.work, parallel.work);
        }
    }
}

#[test]
fn screening_matches_oracle_for_all_worker_counts() {
    for (faulty, errors, tests) in workloads().into_iter().take(4) {
        let functional: Vec<GateId> = faulty
            .iter()
            .filter(|(_, g)| !g.kind().is_source())
            .map(|(id, _)| id)
            .collect();
        let mut sets: Vec<Vec<GateId>> = functional.iter().map(|&g| vec![g]).collect();
        sets.push(errors.clone());
        sets.push(Vec::new());
        let small = tests.prefix_at_most(6);
        let expected: Vec<bool> = sets
            .iter()
            .map(|s| {
                ValidityOracle::with_backend(&faulty, ValidityBackend::Sim).is_valid(&small, s)
            })
            .collect();
        for parallelism in WORKER_SWEEP {
            let screen = screen_valid_corrections(
                &faulty,
                &small,
                &sets,
                parallelism,
                ValidityBackend::Sim,
                &Budget::default(),
            );
            assert_eq!(
                screen.verdicts, expected,
                "verdicts drifted at {parallelism:?}"
            );
        }
    }
}
