//! The shared SAT solver workloads measured by both the `solver`
//! criterion bench and the `bench_pr3` JSON emitter.
//!
//! Keeping the generators (and the instance loader) in one place keeps
//! `bench_pr3`'s numbers an exact mirror of `benches/solver.rs`: a
//! parameter tweak in either consumer is a tweak in both.

use gatediag_sat::{Lit, Solver, Var};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Seed of the assumption-probe sequence used by the incremental
/// workload (100 probes over one instance).
pub const PROBE_SEED: u64 = 3;

/// PHP(n, m): `n` pigeons into `m` holes; unsatisfiable for `n > m`.
/// Returns `(num_vars, clauses)`.
pub fn pigeonhole(n: usize, m: usize) -> (usize, Vec<Vec<Lit>>) {
    let var = |i: usize, j: usize| Var::from_index(i * m + j);
    let mut clauses = Vec::new();
    for i in 0..n {
        clauses.push((0..m).map(|j| var(i, j).positive()).collect());
    }
    for j in 0..m {
        for i1 in 0..n {
            for i2 in (i1 + 1)..n {
                clauses.push(vec![var(i1, j).negative(), var(i2, j).negative()]);
            }
        }
    }
    (n * m, clauses)
}

/// Uniform random 3-SAT; returns `(num_vars, clauses)`.
pub fn random_3sat(num_vars: usize, num_clauses: usize, seed: u64) -> (usize, Vec<Vec<Lit>>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let clauses = (0..num_clauses)
        .map(|_| {
            (0..3)
                .map(|_| Var::from_index(rng.gen_range(0..num_vars)).lit(rng.gen_bool(0.5)))
                .collect()
        })
        .collect();
    (num_vars, clauses)
}

/// Loads an instance into a fresh [`Solver`].
pub fn load(num_vars: usize, clauses: &[Vec<Lit>]) -> Solver {
    let mut solver = Solver::new();
    for _ in 0..num_vars {
        solver.new_var();
    }
    for clause in clauses {
        solver.add_clause(clause);
    }
    solver
}
