//! Hybrid diagnosis (paper Sec. 6, "initial steps towards a hybrid
//! technique").
//!
//! The paper's closing observation: BSIM/COV are fast and usually land
//! *near* the real error, while BSAT is exact but slow. The lever kept
//! here is [`hybrid_seeded_bsat`]: run BSIM first and *tune the SAT
//! solver's decision heuristic* with the path-tracing mark counts. Select
//! variables of frequently marked gates get VSIDS bumps and a "selected"
//! phase, steering the search towards likely corrections without changing
//! the solution space. [`EngineKind::Hybrid`](crate::EngineKind::Hybrid)
//! runs it.

use crate::bsat::{basic_sat_diagnose, BsatOptions, BsatResult};
use crate::bsim::{basic_sim_diagnose, BsimOptions};
use crate::test_set::TestSet;
use gatediag_netlist::{Circuit, GateId};

/// BSIM-seeded SAT diagnosis: identical solution space to
/// [`basic_sat_diagnose`], with the decision heuristic primed by path
/// tracing.
///
/// # Examples
///
/// ```
/// use gatediag_core::{hybrid_seeded_bsat, basic_sat_diagnose, BsatOptions};
/// use gatediag_core::generate_failing_tests;
/// use gatediag_netlist::{c17, inject_errors};
///
/// let golden = c17();
/// let (faulty, _) = inject_errors(&golden, 1, 5);
/// let tests = generate_failing_tests(&golden, &faulty, 8, 5, 4096);
/// let seeded = hybrid_seeded_bsat(&faulty, &tests, 1, BsatOptions::default());
/// let plain = basic_sat_diagnose(&faulty, &tests, 1, BsatOptions::default());
/// assert_eq!(seeded.solutions, plain.solutions);
/// ```
pub fn hybrid_seeded_bsat(
    circuit: &Circuit,
    tests: &TestSet,
    k: usize,
    options: BsatOptions,
) -> BsatResult {
    let bsim = basic_sim_diagnose(circuit, tests, BsimOptions::default());
    let max_marks = bsim.mark_counts.iter().copied().max().unwrap_or(0).max(1);
    let hints: Vec<(GateId, f64)> = bsim
        .mark_counts
        .iter()
        .enumerate()
        .filter(|&(_, &m)| m > 0)
        .map(|(i, &m)| (GateId::new(i), f64::from(m) / f64::from(max_marks)))
        .collect();
    basic_sat_diagnose(circuit, tests, k, BsatOptions { hints, ..options })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_set::generate_failing_tests;
    use gatediag_netlist::{inject_errors, RandomCircuitSpec};

    #[test]
    fn seeding_preserves_solution_space() {
        for seed in 0..4 {
            let golden = RandomCircuitSpec::new(6, 3, 40).seed(seed).generate();
            let (faulty, _) = inject_errors(&golden, 1, seed);
            let tests = generate_failing_tests(&golden, &faulty, 6, seed, 8192);
            if tests.is_empty() {
                continue;
            }
            let plain = basic_sat_diagnose(&faulty, &tests, 2, BsatOptions::default());
            let seeded = hybrid_seeded_bsat(&faulty, &tests, 2, BsatOptions::default());
            assert_eq!(plain.solutions, seeded.solutions, "seed {seed}");
        }
    }
}
