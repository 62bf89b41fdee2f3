//! Ground truths by exhaustive subset enumeration: the irredundant valid
//! corrections (BSAT's solution space) and the irredundant covers (COV's).
//!
//! Validity and covering are both monotone under supersets, so the
//! irredundant solutions up to size `k` are exactly the solutions none of
//! whose kept smaller predecessors they contain. By Lemma 3 the valid
//! corrections are precisely BSAT's solution space, and the covers of the
//! BSIM candidate sets are COV's — the tests assert both equalities.

use crate::test_set::TestSet;
use crate::validity::ValidityOracle;
use gatediag_netlist::{Circuit, GateId};

/// Enumerates all irredundant valid corrections of size ≤ `k` by brute
/// force.
///
/// Exponential in circuit size; intended for cross-checking on small
/// circuits.
///
/// # Panics
///
/// Panics if `k > 4` (combinatorial safety guard).
pub fn brute_force_diagnose(circuit: &Circuit, tests: &TestSet, k: usize) -> Vec<Vec<GateId>> {
    assert!(k <= 4, "brute force limited to k <= 4");
    let functional: Vec<GateId> = circuit
        .iter()
        .filter(|(_, g)| g.kind() != gatediag_netlist::GateKind::Input)
        .map(|(id, _)| id)
        .collect();
    // One auto-dispatching oracle for the whole enumeration: the
    // incremental sim engine's baseline stays primed across all the
    // candidate sets (k ≤ 4 always resolves to the sim fast path).
    let mut oracle = ValidityOracle::new(circuit);
    let mut found = minimal_subsets(&functional, k, |candidate| {
        oracle.is_valid(tests, candidate)
    });
    found.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
    found
}

/// Enumerates all irredundant covers of `sets` of size ≤ `k` by brute
/// force: subsets of the gates the sets mention, by increasing size, that
/// hit every set and contain no smaller cover. The order is that of
/// [`CovResult::solutions`](crate::CovResult::solutions): each cover sorted
/// by gate id, the list by (size, lexicographic).
///
/// As for [`cover_all`](crate::cover_all), no sets have the empty cover as
/// their only one, and an empty set (or `k = 0` with sets) has none.
/// Exponential in the number of gates; intended for cross-checking on
/// small instances.
pub fn brute_force_covers(sets: &[Vec<GateId>], k: usize) -> Vec<Vec<GateId>> {
    if sets.is_empty() {
        return vec![Vec::new()];
    }
    let mut gates: Vec<GateId> = sets.iter().flatten().copied().collect();
    gates.sort_unstable();
    gates.dedup();
    // Over sorted distinct gates the subsets come in `CovResult` order.
    minimal_subsets(&gates, k, |candidate| {
        sets.iter()
            .all(|set| set.iter().any(|g| candidate.contains(g)))
    })
}

/// The subsets of `items` with 1..=`k` elements that `accept` takes and
/// that contain no smaller taken subset, by increasing size and, within a
/// size, in the lexicographic order of item positions. For a property
/// that is monotone under supersets (validity, covering) these are its
/// irredundant solutions.
fn minimal_subsets(
    items: &[GateId],
    k: usize,
    mut accept: impl FnMut(&[GateId]) -> bool,
) -> Vec<Vec<GateId>> {
    let mut found: Vec<Vec<GateId>> = Vec::new();
    let mut subset: Vec<GateId> = Vec::new();
    for size in 1..=k.min(items.len()) {
        enumerate_subsets(items, size, 0, &mut subset, &mut |candidate| {
            // Skip supersets of already-found (smaller) solutions: they are
            // redundant by monotonicity.
            let redundant = found
                .iter()
                .any(|small| small.iter().all(|g| candidate.contains(g)));
            if !redundant && accept(candidate) {
                found.push(candidate.to_vec());
            }
        });
    }
    found
}

fn enumerate_subsets(
    items: &[GateId],
    size: usize,
    from: usize,
    current: &mut Vec<GateId>,
    visit: &mut impl FnMut(&[GateId]),
) {
    if current.len() == size {
        visit(current);
        return;
    }
    let needed = size - current.len();
    for i in from..=items.len().saturating_sub(needed) {
        current.push(items[i]);
        enumerate_subsets(items, size, i + 1, current, visit);
        current.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_set::generate_failing_tests;
    use gatediag_netlist::{inject_errors, RandomCircuitSpec};

    #[test]
    fn finds_injected_single_error() {
        let golden = RandomCircuitSpec::new(5, 2, 20).seed(21).generate();
        let (faulty, sites) = inject_errors(&golden, 1, 21);
        let tests = generate_failing_tests(&golden, &faulty, 6, 21, 8192);
        if tests.is_empty() {
            return;
        }
        let solutions = brute_force_diagnose(&faulty, &tests, 1);
        assert!(solutions.contains(&vec![sites[0].gate]));
    }

    #[test]
    fn no_solution_is_superset_of_another() {
        let golden = RandomCircuitSpec::new(5, 2, 18).seed(4).generate();
        let (faulty, _) = inject_errors(&golden, 2, 4);
        let tests = generate_failing_tests(&golden, &faulty, 6, 4, 8192);
        if tests.is_empty() {
            return;
        }
        let solutions = brute_force_diagnose(&faulty, &tests, 3);
        for a in &solutions {
            for b in &solutions {
                if a != b {
                    assert!(!a.iter().all(|g| b.contains(g)), "{b:?} contains {a:?}");
                }
            }
        }
    }

    #[test]
    fn subset_enumeration_visits_all_combinations() {
        let items: Vec<GateId> = (0..5).map(GateId::new).collect();
        let mut count = 0;
        let mut current = Vec::new();
        enumerate_subsets(&items, 3, 0, &mut current, &mut |s| {
            assert_eq!(s.len(), 3);
            count += 1;
        });
        assert_eq!(count, 10); // C(5,3)
    }
}
