//! Determinism of the cooperative budget subsystem, extending the
//! drift-test contract of `parallel_drift.rs`: a *work*-truncated run
//! must be bit-identical for every worker count, and the truncated
//! output must be a faithful prefix of the unbudgeted run wherever the
//! engine defines one (BSIM's traced tests). Wall-clock deadlines are
//! exercised only for their cooperative-stop behaviour — their outputs
//! are nondeterministic by design and never compared across runs.

use gatediag_core::budget::{Budget, Truncation};
use gatediag_core::{
    basic_sat_diagnose, basic_sim_diagnose, cover_all, generate_failing_tests, sc_diagnose,
    screen_valid_corrections, BsatOptions, BsimOptions, CovEngine, CovOptions, Parallelism,
    ValidityBackend,
};
use gatediag_netlist::{inject_errors, Circuit, GateId, RandomCircuitSpec};
use std::time::{Duration, Instant};

const WORKER_SWEEP: [Parallelism; 4] = [
    Parallelism::Sequential,
    Parallelism::Fixed(2),
    Parallelism::Fixed(3),
    Parallelism::Fixed(8),
];

fn workload(seed: u64) -> Option<(Circuit, gatediag_core::TestSet)> {
    let golden = RandomCircuitSpec::new(7, 3, 60).seed(seed).generate();
    let (faulty, _) = inject_errors(&golden, 1 + (seed as usize % 2), seed);
    let tests = generate_failing_tests(&golden, &faulty, 200, seed, 1 << 14);
    (!tests.is_empty()).then_some((faulty, tests))
}

#[test]
fn bsim_work_budget_truncates_to_a_prefix_identically() {
    for seed in 0..3u64 {
        let Some((faulty, tests)) = workload(seed) else {
            continue;
        };
        let full = basic_sim_diagnose(&faulty, &tests, BsimOptions::default());
        assert_eq!(full.truncation, None);
        assert_eq!(full.work, tests.len() as u64);
        for budget_units in [0u64, 1, 7, 64, 100] {
            let budget = Budget {
                work: Some(budget_units),
                ..Budget::default()
            };
            let sequential = basic_sim_diagnose(
                &faulty,
                &tests,
                BsimOptions {
                    budget,
                    parallelism: Parallelism::Sequential,
                    ..BsimOptions::default()
                },
            );
            let traced = (budget_units as usize).min(tests.len());
            assert_eq!(sequential.candidate_sets.len(), traced);
            assert_eq!(sequential.work, traced as u64);
            if traced < tests.len() {
                assert_eq!(sequential.truncation, Some(Truncation::Work));
            } else {
                assert_eq!(sequential.truncation, None);
            }
            // The truncated run is the prefix of the full run.
            assert_eq!(
                sequential.candidate_sets[..],
                full.candidate_sets[..traced],
                "seed {seed} budget {budget_units}: not a faithful prefix"
            );
            // And bit-identical for every worker count.
            for parallelism in WORKER_SWEEP {
                let parallel = basic_sim_diagnose(
                    &faulty,
                    &tests,
                    BsimOptions {
                        budget,
                        parallelism,
                        ..BsimOptions::default()
                    },
                );
                assert_eq!(
                    sequential, parallel,
                    "seed {seed} budget {budget_units}: drifted at {parallelism:?}"
                );
            }
        }
    }
}

#[test]
fn cov_work_budget_is_worker_count_invariant() {
    for seed in 0..3u64 {
        let Some((faulty, tests)) = workload(seed) else {
            continue;
        };
        let small = tests.prefix_at_most(12);
        for engine in [CovEngine::BranchAndBound, CovEngine::Sat] {
            // A ladder of budgets from "preempts the BSIM phase" through
            // "preempts the covering phase" to "never trips".
            for budget_units in [1u64, 13, 40, 1 << 40] {
                // The worker count shards the BSIM phase; covering runs
                // on the calling thread.
                let options = |parallelism| CovOptions {
                    engine,
                    bsim: BsimOptions {
                        parallelism,
                        ..BsimOptions::default()
                    },
                    budget: Budget {
                        work: Some(budget_units),
                        ..Budget::default()
                    },
                    ..CovOptions::default()
                };
                let sequential = sc_diagnose(&faulty, &small, 2, options(Parallelism::Sequential));
                assert_eq!(
                    sequential.complete,
                    sequential.truncation.is_none(),
                    "complete/truncation out of sync"
                );
                for parallelism in WORKER_SWEEP {
                    let parallel = sc_diagnose(&faulty, &small, 2, options(parallelism));
                    assert_eq!(
                        sequential.solutions, parallel.solutions,
                        "seed {seed} {engine:?} budget {budget_units}: solutions drifted at {parallelism:?}"
                    );
                    assert_eq!(sequential.truncation, parallel.truncation);
                    assert_eq!(sequential.work, parallel.work);
                }
            }
        }
    }
}

#[test]
fn cov_bnb_node_budget_truncates_the_abstract_instance() {
    // The covering phase alone (no BSIM): node budgets bite mid-search.
    let g = GateId::new;
    let sets = vec![
        vec![g(0), g(1), g(5), g(6)],
        vec![g(2), g(3), g(4), g(5), g(6)],
        vec![g(1), g(2), g(4), g(7)],
    ];
    let full = cover_all(
        &sets,
        3,
        CovOptions {
            engine: CovEngine::BranchAndBound,
            ..CovOptions::default()
        },
    );
    assert!(full.complete && full.work > 0);
    let mut saw_preemption = false;
    for budget_units in [1u64, 2, 4, 16, 1 << 30] {
        let budget = Budget {
            work: Some(budget_units),
            ..Budget::default()
        };
        let reference = cover_all(
            &sets,
            3,
            CovOptions {
                engine: CovEngine::BranchAndBound,
                budget,
                ..CovOptions::default()
            },
        );
        if reference.truncation == Some(Truncation::Work) {
            saw_preemption = true;
            assert!(!reference.complete);
            // Truncated solutions are a subset of the complete ones.
            for sol in &reference.solutions {
                assert!(full.solutions.contains(sol), "{sol:?} not in full run");
            }
        }
        if reference.complete {
            // The per-branch decomposition of a budgeted run finds the
            // covers of the unbudgeted single recursion.
            assert_eq!(reference.solutions, full.solutions);
        }
    }
    assert!(
        saw_preemption,
        "no budget in the ladder preempted the search"
    );
}

#[test]
fn bsat_work_budget_acts_as_a_conflict_budget() {
    // Work and conflicts are the same unit for BSAT; whichever is smaller
    // binds, and the reported reason names the binding limit.
    for seed in 0..20u64 {
        let Some((faulty, tests)) = workload(seed) else {
            continue;
        };
        let small = tests.prefix_at_most(8);
        let unbudgeted = basic_sat_diagnose(&faulty, &small, 2, BsatOptions::default());
        if unbudgeted.stats.conflicts == 0 {
            continue;
        }
        let via_work = basic_sat_diagnose(
            &faulty,
            &small,
            2,
            BsatOptions {
                budget: Budget {
                    work: Some(1),
                    ..Budget::default()
                },
                ..BsatOptions::default()
            },
        );
        assert_eq!(via_work.truncation, Some(Truncation::Work));
        assert!(!via_work.complete);
        let via_conflicts = basic_sat_diagnose(
            &faulty,
            &small,
            2,
            BsatOptions {
                conflict_budget: Some(1),
                ..BsatOptions::default()
            },
        );
        assert_eq!(via_conflicts.truncation, Some(Truncation::Conflicts));
        // Same binding limit, same surviving solutions — only the
        // reported reason differs.
        assert_eq!(via_work.solutions, via_conflicts.solutions);
        return;
    }
    panic!("no workload produced conflicts to budget");
}

#[test]
fn metered_screen_truncates_sets_deterministically() {
    let (faulty, tests) = (0..8u64)
        .find_map(workload)
        .expect("some seed must yield a workload");
    let small = tests.prefix_at_most(8);
    let functional: Vec<GateId> = faulty
        .iter()
        .filter(|(_, g)| !g.kind().is_source())
        .map(|(id, _)| id)
        .take(12)
        .collect();
    let sets: Vec<Vec<GateId>> = functional.iter().map(|&g| vec![g]).collect();
    let unlimited = screen_valid_corrections(
        &faulty,
        &small,
        &sets,
        Parallelism::Sequential,
        ValidityBackend::Auto,
        &Budget::default(),
    );
    assert_eq!(unlimited.verdicts.len(), sets.len());
    assert_eq!(unlimited.truncation, None);
    for budget_units in [0u64, 1, 5, 100] {
        let budget = Budget {
            work: Some(budget_units),
            ..Budget::default()
        };
        let screened = (budget_units as usize).min(sets.len());
        for parallelism in WORKER_SWEEP {
            let out = screen_valid_corrections(
                &faulty,
                &small,
                &sets,
                parallelism,
                ValidityBackend::Auto,
                &budget,
            );
            assert_eq!(out.verdicts.len(), screened);
            assert_eq!(out.verdicts[..], unlimited.verdicts[..screened]);
            assert_eq!(out.work, screened as u64);
            if screened < sets.len() {
                assert_eq!(out.truncation, Some(Truncation::Work));
            } else {
                assert_eq!(out.truncation, None);
            }
        }
    }
}

#[test]
fn expired_deadline_stops_promptly_and_is_flagged() {
    // Deadline outputs are nondeterministic, so only the *shape* is
    // asserted: an already-expired deadline must stop each engine at its
    // first checkpoint and flag the run as deadline-truncated.
    let (faulty, tests) = (0..8u64)
        .find_map(workload)
        .expect("some seed must yield a workload");
    let expired = Budget {
        deadline_ms: Some(1),
        ..Budget::default()
    }
    .anchored(Instant::now() - Duration::from_secs(1));

    let bsim = basic_sim_diagnose(
        &faulty,
        &tests,
        BsimOptions {
            budget: expired,
            ..BsimOptions::default()
        },
    );
    assert_eq!(bsim.truncation, Some(Truncation::Deadline));
    assert!(bsim.candidate_sets.is_empty());

    let cov = sc_diagnose(
        &faulty,
        &tests.prefix(4),
        2,
        CovOptions {
            budget: expired,
            ..CovOptions::default()
        },
    );
    assert_eq!(cov.truncation, Some(Truncation::Deadline));
    assert!(!cov.complete);

    let bsat = basic_sat_diagnose(
        &faulty,
        &tests.prefix(4),
        2,
        BsatOptions {
            budget: expired,
            ..BsatOptions::default()
        },
    );
    assert_eq!(bsat.truncation, Some(Truncation::Deadline));
    assert!(!bsat.complete);

    // A generous deadline changes nothing.
    let generous = Budget {
        deadline_ms: Some(600_000),
        ..Budget::default()
    };
    let normal = basic_sim_diagnose(&faulty, &tests, BsimOptions::default());
    let with_deadline = basic_sim_diagnose(
        &faulty,
        &tests,
        BsimOptions {
            budget: generous,
            ..BsimOptions::default()
        },
    );
    assert_eq!(normal, with_deadline);
}
