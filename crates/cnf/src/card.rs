//! Cardinality constraints over select lines.
//!
//! BSAT bounds the number of simultaneously corrected gates by
//! `Σ s_g ≤ k` and *iterates* `k = 1..K` (paper Fig. 3 step 2). Rebuilding
//! the instance per `k` would forfeit learnt clauses, so the totalizer here
//! exposes unary count outputs and turns each bound into a single
//! *assumption literal* — exactly the incremental-SAT usage the paper
//! adopts from Whittemore et al. [19].
//!
//! The totalizer is truncated at `limit + 1` counts, keeping the encoding
//! linear in the number of inputs for the small `k` used in diagnosis.

use crate::sink::ClauseSink;
use gatediag_sat::Lit;

/// A truncated totalizer: unary counter over input literals.
///
/// `outputs()[i]` is implied true whenever at least `i + 1` inputs are
/// true (one-directional encoding, sufficient for at-most bounds used as
/// assumptions).
///
/// # Examples
///
/// ```
/// use gatediag_cnf::Totalizer;
/// use gatediag_sat::{Solver, SolveResult};
///
/// let mut solver = Solver::new();
/// let xs: Vec<_> = (0..4).map(|_| solver.new_var()).collect();
/// let lits: Vec<_> = xs.iter().map(|v| v.positive()).collect();
/// let tot = Totalizer::new(&mut solver, &lits, 2);
/// // Force three inputs true and assume "at most 2": unsatisfiable.
/// let mut assumptions = vec![xs[0].positive(), xs[1].positive(), xs[2].positive()];
/// assumptions.push(tot.at_most(2).unwrap());
/// assert_eq!(solver.solve(&assumptions), SolveResult::Unsat);
/// ```
#[derive(Clone, Debug)]
pub struct Totalizer {
    outputs: Vec<Lit>,
    num_inputs: usize,
    limit: usize,
}

impl Totalizer {
    /// Builds the counter over `inputs`, able to express bounds up to
    /// `limit` (`at_most(k)` for any `k ≤ limit`).
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty.
    pub fn new<S: ClauseSink>(sink: &mut S, inputs: &[Lit], limit: usize) -> Self {
        assert!(!inputs.is_empty(), "totalizer needs at least one input");
        let cap = limit + 1;
        let outputs = Self::build(sink, inputs, cap);
        Totalizer {
            outputs,
            num_inputs: inputs.len(),
            limit,
        }
    }

    fn build<S: ClauseSink>(sink: &mut S, inputs: &[Lit], cap: usize) -> Vec<Lit> {
        if inputs.len() == 1 {
            return vec![inputs[0]];
        }
        let mid = inputs.len() / 2;
        let left = Self::build(sink, &inputs[..mid], cap);
        let right = Self::build(sink, &inputs[mid..], cap);
        let out_len = (left.len() + right.len()).min(cap);
        let outputs: Vec<Lit> = (0..out_len).map(|_| sink.new_var().positive()).collect();
        // (a_i ∧ b_j) → o_{i+j}. Pairs with i+j beyond the truncation cap
        // are dominated: some (i', j') with i'+j' = out_len already forces
        // the top output, so they are skipped.
        for i in 0..=left.len() {
            for j in 0..=right.len() {
                let total = i + j;
                if total == 0 || total > out_len {
                    continue;
                }
                let mut clause = [outputs[total - 1]; 3];
                let mut len = 0;
                if i > 0 {
                    clause[len] = !left[i - 1];
                    len += 1;
                }
                if j > 0 {
                    clause[len] = !right[j - 1];
                    len += 1;
                }
                clause[len] = outputs[total - 1];
                sink.add_clause(&clause[..=len]);
            }
        }
        outputs
    }

    /// The unary count outputs (`outputs()[i]` ⇒ at least `i+1` inputs).
    pub fn outputs(&self) -> &[Lit] {
        &self.outputs
    }

    /// Assumption literal enforcing "at most `k` inputs true".
    ///
    /// Returns `None` when the bound is vacuous (`k >= number of inputs`).
    ///
    /// # Panics
    ///
    /// Panics if `k` exceeds the `limit` the totalizer was built for.
    pub fn at_most(&self, k: usize) -> Option<Lit> {
        if k >= self.num_inputs {
            return None;
        }
        assert!(
            k <= self.limit,
            "bound {k} exceeds totalizer limit {}",
            self.limit
        );
        Some(!self.outputs[k])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::CnfCollector;
    use gatediag_sat::{SolveResult, Solver, Var};

    fn setup(n: usize) -> (Solver, Vec<Var>, Vec<Lit>) {
        let mut solver = Solver::new();
        let vars: Vec<Var> = (0..n).map(|_| solver.new_var()).collect();
        let lits: Vec<Lit> = vars.iter().map(|v| v.positive()).collect();
        (solver, vars, lits)
    }

    fn subset_assumptions(vars: &[Var], pattern: u32) -> Vec<Lit> {
        vars.iter()
            .enumerate()
            .map(|(i, v)| v.lit(pattern >> i & 1 == 1))
            .collect()
    }

    #[test]
    fn totalizer_bounds_exactly() {
        for n in 1..=6usize {
            for limit in 0..=3usize {
                let (mut solver, vars, lits) = setup(n);
                let tot = Totalizer::new(&mut solver, &lits, limit);
                for k in 0..=limit {
                    let Some(bound) = tot.at_most(k) else {
                        continue;
                    };
                    for pattern in 0..1u32 << n {
                        let mut assumptions = subset_assumptions(&vars, pattern);
                        assumptions.push(bound);
                        let expect_sat = pattern.count_ones() as usize <= k;
                        assert_eq!(
                            solver.solve(&assumptions) == SolveResult::Sat,
                            expect_sat,
                            "n={n} limit={limit} k={k} pattern={pattern:b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn totalizer_without_bound_is_free() {
        let (mut solver, vars, lits) = setup(5);
        let _tot = Totalizer::new(&mut solver, &lits, 2);
        // No assumption: any subset is fine.
        for pattern in [0u32, 0b11111, 0b10101] {
            let assumptions = subset_assumptions(&vars, pattern);
            assert_eq!(solver.solve(&assumptions), SolveResult::Sat);
        }
    }

    #[test]
    fn totalizer_vacuous_bound() {
        let (mut solver, _, lits) = setup(3);
        let tot = Totalizer::new(&mut solver, &lits, 3);
        assert!(tot.at_most(3).is_none());
        assert!(tot.at_most(2).is_some());
    }

    #[test]
    #[should_panic(expected = "exceeds totalizer limit")]
    fn totalizer_rejects_excess_bound() {
        let (mut solver, _, lits) = setup(5);
        let tot = Totalizer::new(&mut solver, &lits, 1);
        let _ = tot.at_most(2);
    }

    #[test]
    fn totalizer_is_linear_for_fixed_limit() {
        let count_clauses = |n: usize| {
            let mut sink = CnfCollector::new();
            let lits: Vec<Lit> = (0..n).map(|_| sink.new_var().positive()).collect();
            let _ = Totalizer::new(&mut sink, &lits, 4);
            sink.clauses().len()
        };
        let c100 = count_clauses(100);
        let c800 = count_clauses(800);
        assert!(
            c800 < 12 * c100,
            "truncated totalizer should scale linearly: {c100} -> {c800}"
        );
    }
}
