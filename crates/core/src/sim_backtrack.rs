//! Advanced simulation-based diagnosis: backtrack search with
//! resimulation-based effect analysis (in the spirit of the paper's
//! references [9, 18, 13]).
//!
//! Where BSIM stops at marked candidate sets and COV at covers, the
//! advanced simulation-based approaches *validate* candidate subsets by
//! re-simulation, backtracking over choices. This implementation searches
//! subsets of the path-tracing union, prunes with conservative X-injection
//! (a subset whose X-injection cannot even potentially rectify some test
//! is hopeless, and so is every subset of the remaining budget below it —
//! we prune only the exact-node check) and accepts a subset when the exact
//! forced-value oracle validates it.
//!
//! The result space sits strictly between COV and BSAT: all returned sets
//! are valid corrections (like BSAT, unlike COV), but only sets of *marked
//! gates* are considered, so corrections outside the traced paths (paper
//! Lemma 4 / Fig. 5(b)) are missed. The paper's Table 1 places the
//! advanced simulation-based approaches at complexity `O(|I|^{k+1} · m)`
//! for exactly this search.

use crate::bsim::{basic_sim_diagnose, BsimOptions};
use crate::test_set::TestSet;
use crate::validity::SimValidityEngine;
use gatediag_netlist::{Circuit, GateId};
use gatediag_sim::{parallel_map_init, x_may_rectify, Parallelism};

/// Options for [`sim_backtrack_diagnose`].
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct SimBacktrackOptions {
    /// Path-tracing options for the marking phase. Its `budget` field is
    /// **ignored** (the marking phase runs unbudgeted): this function
    /// returns a bare solution list with no completeness channel, so a
    /// silently truncated marking pass would narrow the diagnosis with
    /// no way to tell — budgeted runs belong on the
    /// [`run_engine`](crate::run_engine) surface, which reports
    /// truncation.
    pub bsim: BsimOptions,
    /// Stop after this many solutions.
    pub max_solutions: usize,
    /// Use X-injection pruning before the exact check (on by default;
    /// the `paper` harness's ablation table runs both settings).
    pub x_pruning: bool,
    /// Worker count for fanning the top-level search branches out over a
    /// pool, one reusable simulation validity engine per worker. The
    /// solution list is bit-identical for every setting.
    pub parallelism: Parallelism,
}

impl Default for SimBacktrackOptions {
    fn default() -> Self {
        SimBacktrackOptions {
            bsim: BsimOptions::default(),
            max_solutions: 1_000_000,
            x_pruning: true,
            parallelism: Parallelism::default(),
        }
    }
}

/// Backtracking simulation-based diagnosis over the path-tracing union.
///
/// Returns all irredundant valid corrections of size ≤ `k` that consist
/// solely of gates marked by path tracing, ordered by candidate rank
/// (mark count), each sorted by gate id.
///
/// The search fans the top-level branches out over a worker pool
/// ([`SimBacktrackOptions::parallelism`]), one reusable simulation
/// validity engine per worker. The subtrees are independent: every
/// subtree's candidate sets contain its own branch root, which no later
/// subtree can pick again, so the sequential search's superset pruning
/// never crosses subtree boundaries and the merged solution list is
/// bit-identical to the sequential one (solutions are merged in branch
/// order and truncated to `max_solutions` before post-processing).
pub fn sim_backtrack_diagnose(
    circuit: &Circuit,
    tests: &TestSet,
    k: usize,
    options: SimBacktrackOptions,
) -> Vec<Vec<GateId>> {
    // No truncation channel in the return type, so no budget: see the
    // `SimBacktrackOptions::bsim` docs.
    let bsim = basic_sim_diagnose(
        circuit,
        tests,
        BsimOptions {
            budget: crate::budget::Budget::default(),
            ..options.bsim
        },
    );
    // Candidates ordered by decreasing mark count M(g) — the greedy order
    // of the incremental approaches.
    let mut candidates: Vec<GateId> = bsim.union.iter().collect();
    candidates.sort_by_key(|g| std::cmp::Reverse(bsim.mark_counts[g.index()]));

    // Rough search-size estimate for the `Auto` work floor: the tree has
    // O(|candidates|^k) nodes, each screening against every test.
    let work = candidates
        .len()
        .saturating_pow(k.min(3) as u32)
        .saturating_mul(tests.len().max(1));
    let workers =
        options
            .parallelism
            .workers_for(candidates.len(), work, gatediag_sim::AUTO_WORK_FLOOR);
    let mut solutions: Vec<Vec<GateId>> = if k == 0 {
        Vec::new()
    } else if workers <= 1 {
        // Sequential: one engine, one shared solution list, and the
        // seed's *global* max_solutions early exit across branches.
        let mut engine = SimValidityEngine::new(circuit);
        let mut sols: Vec<Vec<GateId>> = Vec::new();
        let mut chosen: Vec<GateId> = Vec::new();
        for (i, &root) in candidates.iter().enumerate() {
            if sols.len() >= options.max_solutions {
                break;
            }
            chosen.push(root);
            search(
                circuit,
                tests,
                &candidates,
                i + 1,
                k - 1,
                &mut chosen,
                &mut sols,
                &options,
                &mut engine,
            );
            chosen.pop();
        }
        sols
    } else {
        // Parallel: the cap is per branch (a branch cannot know how many
        // solutions lower-indexed branches will contribute), so when
        // truncation actually triggers, up to max_solutions extra
        // solutions per branch are enumerated and discarded by the
        // prefix-truncating merge below. Output is still exactly the
        // sequential prefix.
        let per_branch: Vec<Vec<Vec<GateId>>> = parallel_map_init(
            workers,
            candidates.len(),
            || SimValidityEngine::new(circuit),
            |engine, i| {
                let mut branch_solutions = Vec::new();
                let mut chosen = vec![candidates[i]];
                search(
                    circuit,
                    tests,
                    &candidates,
                    i + 1,
                    k - 1,
                    &mut chosen,
                    &mut branch_solutions,
                    &options,
                    engine,
                );
                branch_solutions
            },
        );
        per_branch
            .into_iter()
            .flatten()
            .take(options.max_solutions)
            .collect()
    };
    for sol in &mut solutions {
        sol.sort();
    }
    solutions.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
    solutions.dedup();
    // Drop non-irredundant sets (found via a different branch order).
    let filtered: Vec<Vec<GateId>> = solutions
        .iter()
        .filter(|sol| {
            !solutions
                .iter()
                .any(|other| other.len() < sol.len() && other.iter().all(|g| sol.contains(g)))
        })
        .cloned()
        .collect();
    filtered
}

/// One subtree of the backtrack search. `chosen` is non-empty; `solutions`
/// holds this subtree's finds only (cross-subtree pruning can never fire —
/// see [`sim_backtrack_diagnose`]).
#[allow(clippy::too_many_arguments)]
fn search(
    circuit: &Circuit,
    tests: &TestSet,
    candidates: &[GateId],
    from: usize,
    budget: usize,
    chosen: &mut Vec<GateId>,
    solutions: &mut Vec<Vec<GateId>>,
    options: &SimBacktrackOptions,
    engine: &mut SimValidityEngine<'_>,
) {
    if solutions.len() >= options.max_solutions {
        return;
    }
    // Skip supersets of known solutions (irredundancy).
    let redundant = solutions
        .iter()
        .any(|sol| sol.iter().all(|g| chosen.contains(g)));
    if redundant {
        return;
    }
    // Effect analysis: conservative X-check first, exact oracle after.
    let plausible = !options.x_pruning
        || tests
            .iter()
            .all(|t| x_may_rectify(circuit, &t.vector, chosen, t.output, t.expected));
    if plausible && engine.is_valid(tests, chosen) {
        solutions.push(chosen.clone());
        return; // children are supersets — redundant
    }
    if budget == 0 {
        return;
    }
    for i in from..candidates.len() {
        chosen.push(candidates[i]);
        search(
            circuit,
            tests,
            candidates,
            i + 1,
            budget - 1,
            chosen,
            solutions,
            options,
            engine,
        );
        chosen.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bsat::{basic_sat_diagnose, BsatOptions};
    use crate::test_set::generate_failing_tests;
    use crate::validity::is_valid_correction;
    use gatediag_netlist::{inject_errors, RandomCircuitSpec};

    fn setup(seed: u64, p: usize, m: usize) -> (Circuit, Vec<GateId>, TestSet) {
        let golden = RandomCircuitSpec::new(6, 3, 35).seed(seed).generate();
        let (faulty, sites) = inject_errors(&golden, p, seed);
        let tests = generate_failing_tests(&golden, &faulty, m, seed, 8192);
        (faulty, sites.iter().map(|s| s.gate).collect(), tests)
    }

    #[test]
    fn all_results_are_valid_corrections() {
        for seed in 0..4 {
            let (faulty, _, tests) = setup(seed, 1, 6);
            if tests.is_empty() {
                continue;
            }
            let sols = sim_backtrack_diagnose(&faulty, &tests, 2, SimBacktrackOptions::default());
            for sol in &sols {
                assert!(
                    is_valid_correction(&faulty, &tests, sol),
                    "seed {seed}: invalid {sol:?}"
                );
            }
        }
    }

    #[test]
    fn results_are_subset_of_bsat_solutions() {
        // Every advanced-sim solution is a valid irredundant correction, so
        // BSAT (complete by Lemma 3) must contain it.
        for seed in 0..4 {
            let (faulty, _, tests) = setup(seed, 1, 6);
            if tests.is_empty() {
                continue;
            }
            let sim_sols =
                sim_backtrack_diagnose(&faulty, &tests, 2, SimBacktrackOptions::default());
            let bsat = basic_sat_diagnose(&faulty, &tests, 2, BsatOptions::default());
            for sol in &sim_sols {
                assert!(
                    bsat.solutions.contains(sol),
                    "seed {seed}: {sol:?} not in BSAT set {:?}",
                    bsat.solutions
                );
            }
        }
    }

    #[test]
    fn x_pruning_does_not_change_results() {
        for seed in 0..3 {
            let (faulty, _, tests) = setup(seed, 2, 6);
            if tests.is_empty() {
                continue;
            }
            let with = sim_backtrack_diagnose(&faulty, &tests, 2, SimBacktrackOptions::default());
            let without = sim_backtrack_diagnose(
                &faulty,
                &tests,
                2,
                SimBacktrackOptions {
                    x_pruning: false,
                    ..SimBacktrackOptions::default()
                },
            );
            assert_eq!(with, without, "seed {seed}");
        }
    }

    #[test]
    fn finds_single_injected_error() {
        for seed in 0..4 {
            let (faulty, errors, tests) = setup(seed, 1, 8);
            if tests.is_empty() {
                continue;
            }
            let sols = sim_backtrack_diagnose(
                &faulty,
                &tests,
                1,
                SimBacktrackOptions {
                    bsim: BsimOptions {
                        policy: crate::bsim::MarkPolicy::AllControlling,
                        ..BsimOptions::default()
                    },
                    ..SimBacktrackOptions::default()
                },
            );
            // Under AllControlling the real site is always marked, and the
            // singleton {error} is a valid correction.
            assert!(
                sols.contains(&vec![errors[0]]),
                "seed {seed}: {errors:?} missing from {sols:?}"
            );
        }
    }

    #[test]
    fn no_superset_solutions() {
        let (faulty, _, tests) = setup(5, 2, 6);
        if tests.is_empty() {
            return;
        }
        let sols = sim_backtrack_diagnose(&faulty, &tests, 3, SimBacktrackOptions::default());
        for a in &sols {
            for b in &sols {
                if a != b {
                    assert!(!a.iter().all(|g| b.contains(g)), "{b:?} ⊇ {a:?}");
                }
            }
        }
    }
}
