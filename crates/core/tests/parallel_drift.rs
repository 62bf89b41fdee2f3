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

/// The one documented exception to the obs contract among the covering
/// engines: without a budget, branch-and-bound runs one recursion with a
/// global early exit on one worker and shards its branches with
/// per-branch caps on more. So `pool.*` is charged only by the fan-out,
/// and `budget.charged` (with `CovResult::work`) differs: the recursion
/// also charges its root node, and on a capped run the fan-out charges
/// every branch up to its own cap. Every other counter, and every
/// counter of a budgeted run, matches.
#[test]
fn cov_bnb_counters_differ_only_in_the_documented_fields() {
    let g = GateId::new;
    let sets = vec![
        vec![g(0), g(1), g(5), g(6)],
        vec![g(2), g(3), g(4), g(5), g(6)],
        vec![g(1), g(2), g(4), g(7)],
    ];
    let schedule_shaped = |name: &str| name.starts_with("pool.") || name == "budget.charged";
    for (max_solutions, budget) in [
        (2usize, Budget::default()),
        (100, Budget::default()),
        (
            2,
            Budget {
                work: Some(1_000_000),
                ..Budget::default()
            },
        ),
    ] {
        let counters: Vec<Counters> = WORKER_SWEEP
            .into_iter()
            .map(|parallelism| {
                observed(|| {
                    cover_all(
                        &sets,
                        3,
                        CovOptions {
                            engine: CovEngine::BranchAndBound,
                            max_solutions,
                            parallelism,
                            budget,
                            ..CovOptions::default()
                        },
                    )
                })
                .1
            })
            .collect();
        let budgeted = budget.work.is_some();
        let kept = |c: &Counters| -> Counters {
            c.iter()
                .filter(|(name, _)| budgeted || !schedule_shaped(name))
                .cloned()
                .collect()
        };
        for other in &counters[1..] {
            assert_eq!(kept(&counters[0]), kept(other), "cap {max_solutions}");
        }
        if !budgeted {
            // The exception is real: one worker charges no fan-out.
            assert!(!counters[0].iter().any(|(name, _)| name == "pool.tasks"));
            assert!(counters[1].iter().any(|(name, _)| name == "pool.tasks"));
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
        let (runs, counters): (Vec<CovResult>, Vec<Counters>) = [
            Parallelism::Sequential,
            Parallelism::Fixed(2),
            Parallelism::Fixed(7),
        ]
        .into_iter()
        .map(|parallelism| {
            observed(|| {
                cover_all(
                    sets,
                    k,
                    CovOptions {
                        engine: CovEngine::Sat,
                        max_solutions,
                        parallelism,
                        ..CovOptions::default()
                    },
                )
            })
        })
        .unzip();
        let sequential = &runs[0];
        // The deterministic obs counters match too (the engine runs its
        // branches in order for every worker count).
        for other in &counters[1..] {
            assert_eq!(&counters[0], other, "k {k} cap {max_solutions}");
        }
        if k > 1 {
            assert!(
                counters[0].iter().any(|(name, _)| name == "sat.solves"),
                "no solver counters observed: {:?}",
                counters[0]
            );
        }
        if k == 1 {
            let expected: Vec<Vec<GateId>> = [g(40), g(41)]
                .into_iter()
                .take(max_solutions)
                .map(|gate| vec![gate])
                .collect();
            assert_eq!(sequential.solutions, expected, "cap {max_solutions}");
            assert_eq!(sequential.complete, max_solutions > 2);
            assert_eq!(sequential.work, 0, "k = 1 spent conflicts");
        } else {
            assert_eq!(
                sequential.complete,
                max_solutions > total,
                "cap {max_solutions}"
            );
        }
        if !sequential.complete {
            assert_eq!(sequential.truncation, Some(Truncation::Solutions));
        }
        for parallel in &runs[1..] {
            assert_eq!(
                sequential.solutions, parallel.solutions,
                "k {k} cap {max_solutions}"
            );
            assert_eq!(sequential.complete, parallel.complete);
            assert_eq!(sequential.truncation, parallel.truncation);
            assert_eq!(sequential.work, parallel.work, "k {k} cap {max_solutions}");
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
