//! Advanced simulation-based diagnosis: backtrack search with
//! resimulation-based effect analysis (in the spirit of the paper's
//! references [9, 18, 13]).
//!
//! Where BSIM stops at marked candidate sets and COV at covers, the
//! advanced simulation-based approaches *validate* candidate subsets by
//! re-simulation, backtracking over choices. This implementation searches
//! subsets of the path-tracing union and accepts a subset when the exact
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
}

impl Default for SimBacktrackOptions {
    fn default() -> Self {
        SimBacktrackOptions {
            bsim: BsimOptions::default(),
            max_solutions: 1_000_000,
        }
    }
}

/// Backtracking simulation-based diagnosis over the path-tracing union.
///
/// Returns all irredundant valid corrections of size ≤ `k` that consist
/// solely of gates marked by path tracing, ordered by candidate rank
/// (mark count), each sorted by gate id. One reusable simulation validity
/// engine checks every node of the search, on the calling thread.
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

    let mut solutions: Vec<Vec<GateId>> = Vec::new();
    if k > 0 {
        let mut engine = SimValidityEngine::new(circuit);
        let mut chosen: Vec<GateId> = Vec::new();
        for (i, &root) in candidates.iter().enumerate() {
            if solutions.len() >= options.max_solutions {
                break;
            }
            chosen.push(root);
            search(
                tests,
                &candidates,
                i + 1,
                k - 1,
                &mut chosen,
                &mut solutions,
                options.max_solutions,
                &mut engine,
            );
            chosen.pop();
        }
    }
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

/// One subtree of the backtrack search: `chosen` (non-empty) extended by
/// at most `budget` of `candidates[from..]`.
#[allow(clippy::too_many_arguments)]
fn search(
    tests: &TestSet,
    candidates: &[GateId],
    from: usize,
    budget: usize,
    chosen: &mut Vec<GateId>,
    solutions: &mut Vec<Vec<GateId>>,
    max_solutions: usize,
    engine: &mut SimValidityEngine<'_>,
) {
    if solutions.len() >= max_solutions {
        return;
    }
    // Skip supersets of known solutions (irredundancy).
    let redundant = solutions
        .iter()
        .any(|sol| sol.iter().all(|g| chosen.contains(g)));
    if redundant {
        return;
    }
    // Effect analysis: the exact forced-value oracle.
    if engine.is_valid(tests, chosen) {
        solutions.push(chosen.clone());
        return; // children are supersets — redundant
    }
    if budget == 0 {
        return;
    }
    for i in from..candidates.len() {
        chosen.push(candidates[i]);
        search(
            tests,
            candidates,
            i + 1,
            budget - 1,
            chosen,
            solutions,
            max_solutions,
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
    fn max_solutions_caps_the_search() {
        let (faulty, _, tests) = setup(5, 2, 6);
        if tests.is_empty() {
            return;
        }
        let full = sim_backtrack_diagnose(&faulty, &tests, 2, SimBacktrackOptions::default());
        assert!(full.len() > 2, "workload must have several solutions");
        for max_solutions in [1usize, 2] {
            let options = SimBacktrackOptions {
                max_solutions,
                ..SimBacktrackOptions::default()
            };
            let capped = sim_backtrack_diagnose(&faulty, &tests, 2, options);
            assert!(!capped.is_empty() && capped.len() <= max_solutions);
            assert_eq!(capped, sim_backtrack_diagnose(&faulty, &tests, 2, options));
            for sol in &capped {
                assert!(is_valid_correction(&faulty, &tests, sol), "invalid {sol:?}");
            }
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
