//! Thread-count invariance for the parallel diagnosis layer.
//!
//! Every parallel entry point — sharded BSIM, the fanned-out backtrack
//! search, the sharded repair enumeration and the batch validity screen
//! — must be *bit-identical* to its sequential counterpart for every
//! worker count, including degenerate cases (one worker, more workers
//! than work items, empty work). These tests pin that contract
//! explicitly; `proptest_parallel.rs` fuzzes it on random circuits. The
//! cover engines run on the calling thread; their tests here pin the
//! solution cap and the agreement of the two engines.

use gatediag_core::{
    basic_sim_diagnose, cover_all, find_kind_repairs_par, generate_failing_tests, sc_diagnose,
    screen_valid_corrections, sim_backtrack_diagnose, BsimOptions, Budget, CovEngine, CovOptions,
    MarkPolicy, Parallelism, SimBacktrackOptions, TestSet, Truncation, ValidityBackend,
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
                bsim: BsimOptions {
                    parallelism: Parallelism::Sequential,
                    ..BsimOptions::default()
                },
                ..CovOptions::default()
            },
        );
        assert_eq!(sat.solutions, sequential.solutions, "SAT vs BnB covers");
        // The worker count shards the BSIM phase; covering runs on the
        // calling thread.
        for parallelism in WORKER_SWEEP {
            let parallel = sc_diagnose(
                &faulty,
                &small,
                2,
                CovOptions {
                    engine: CovEngine::BranchAndBound,
                    bsim: BsimOptions {
                        parallelism,
                        ..BsimOptions::default()
                    },
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
    // An unbudgeted run is one recursion with a global early exit; a
    // budgeted one decomposes over the top-level branches with a cap
    // each. A budget that never trips must not change the answer.
    for max_solutions in [0usize, 1, 2, 4, 100] {
        let run = |budget| {
            cover_all(
                &sets,
                3,
                CovOptions {
                    engine: CovEngine::BranchAndBound,
                    max_solutions,
                    budget,
                    ..CovOptions::default()
                },
            )
        };
        let sequential = run(Budget::default());
        let decomposed = run(Budget {
            work: Some(1 << 40),
            ..Budget::default()
        });
        assert_eq!(
            sequential.solutions, decomposed.solutions,
            "budgeted covers drifted (max {max_solutions})"
        );
        assert_eq!(sequential.complete, decomposed.complete);
        if max_solutions == 0 {
            // Seed behaviour: truncation is only noticed after the first
            // push, so enumeration stops at one raw cover (which the
            // irredundancy filter may still drop) and reports truncation.
            assert!(sequential.solutions.len() <= 1);
            assert!(!sequential.complete);
        }
    }
}

/// How many covers each top-level branch of the SAT cover engine finds
/// before its irredundancy filter: branch `b` (the `b`-th gate of the
/// first smallest set) finds the inclusion-minimal covers of at most `k`
/// gates that contain its gate and no earlier branch gate. A repeated
/// branch gate's later branch finds none.
fn sat_branch_counts(sets: &[Vec<GateId>], k: usize) -> Vec<usize> {
    let mut gates: Vec<GateId> = sets.iter().flatten().copied().collect();
    gates.sort();
    gates.dedup();
    let covers = |c: &[GateId]| sets.iter().all(|set| set.iter().any(|g| c.contains(g)));
    let branch_set = sets.iter().min_by_key(|s| s.len()).unwrap();
    (0..branch_set.len())
        .map(|b| {
            if branch_set[..b].contains(&branch_set[b]) {
                return 0;
            }
            // The branch's covers contain g_b and avoid the earlier
            // branch gates; one is minimal among them iff no gate other
            // than g_b can be dropped. Growing stops at a cover: every
            // superset of it is redundant.
            let mut minimal = 0;
            let mut stack: Vec<(usize, Vec<GateId>)> = vec![(0, vec![branch_set[b]])];
            while let Some((next, chosen)) = stack.pop() {
                if covers(&chosen) {
                    if (1..chosen.len()).all(|i| {
                        let mut without = chosen.clone();
                        without.remove(i);
                        !covers(&without)
                    }) {
                        minimal += 1;
                    }
                    continue;
                }
                if chosen.len() < k {
                    for (i, &g) in gates.iter().enumerate().skip(next) {
                        if g != branch_set[b] && !branch_set[..b].contains(&g) {
                            let mut grown = chosen.clone();
                            grown.push(g);
                            stack.push((i + 1, grown));
                        }
                    }
                }
            }
            minimal
        })
        .collect()
}

/// Deterministic obs counter totals, sorted by name.
type Counters = Vec<(String, u64)>;

/// Runs `f` under a fresh obs sink and returns its result with the
/// deterministic counters it charged.
fn observed<R>(f: impl FnOnce() -> R) -> (R, Counters) {
    let sink = std::sync::Arc::new(gatediag_obs::Sink::new());
    let guard = gatediag_obs::install(sink.clone());
    let out = f();
    drop(guard);
    (out, sink.take_trace().counters)
}

#[test]
fn cov_sat_truncation_is_identical() {
    // Twelve-gate branch set and many covers: every branch reads the one
    // shared covering base, and small caps truncate the merged list.
    let g = GateId::new;
    let sets: Vec<Vec<GateId>> = (0..6)
        .map(|i| (0..12).map(|j| g((i * 5 + j * 7) % 30)).collect())
        .collect();
    // A cap that lands strictly inside a branch after a whole one: that
    // branch stops at its share of the cap, and no later branch starts.
    // The caps `total` (reached) and `total + 1` (not) check the counts.
    let counts = sat_branch_counts(&sets, 3);
    let inside_branch = (1..counts.len())
        .find(|&b| counts[b] >= 2)
        .expect("a later branch with two covers");
    let inside = counts[..inside_branch].iter().sum::<usize>() + counts[inside_branch] / 2;
    let total: usize = counts.iter().sum();
    // Two gates common to every set, one of them repeated: the size-one
    // covers at k = 1, where a cap of 3 is not reached.
    let common: Vec<Vec<GateId>> = sets
        .iter()
        .map(|set| [set.as_slice(), &[g(40), g(41), g(40)]].concat())
        .collect();
    let cases = [
        (&sets, 3, 1usize),
        (&sets, 3, 3),
        (&sets, 3, 10),
        (&sets, 3, inside),
        (&sets, 3, total),
        (&sets, 3, total + 1),
        (&common, 1, 1),
        (&common, 1, 2),
        (&common, 1, 3),
    ];
    for (sets, k, max_solutions) in cases {
        let (run, counters) = observed(|| {
            cover_all(
                sets,
                k,
                CovOptions {
                    engine: CovEngine::Sat,
                    max_solutions,
                    ..CovOptions::default()
                },
            )
        });
        if k > 1 {
            assert!(
                counters.iter().any(|(name, _)| name == "sat.solves"),
                "no solver counters observed: {counters:?}"
            );
        }
        if k == 1 {
            let expected: Vec<Vec<GateId>> = [g(40), g(41)]
                .into_iter()
                .take(max_solutions)
                .map(|gate| vec![gate])
                .collect();
            assert_eq!(run.solutions, expected, "cap {max_solutions}");
            assert_eq!(run.complete, max_solutions > 2);
            assert_eq!(run.work, 0, "k = 1 spent conflicts");
        } else {
            assert_eq!(run.complete, max_solutions > total, "cap {max_solutions}");
        }
        if !run.complete {
            assert_eq!(run.truncation, Some(Truncation::Solutions));
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
