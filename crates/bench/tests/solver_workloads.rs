//! Pins the CDCL search on three generic SAT workloads: each instance's
//! (verdict, conflicts, propagations) after loading it into a fresh
//! solver and running it once. A change to the search itself — decision
//! order, learning, restarts, propagation order — moves these counts.
//! `crates/core/tests/solver_trajectory.rs` pins the solves the
//! diagnosis engines issue; these are the generic SAT instances.

use gatediag_sat::{Lit, SolveResult, Solver, Var};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Seed of the assumption-probe sequence used by the incremental
/// workload (100 probes over one instance).
const PROBE_SEED: u64 = 3;

/// PHP(n, m): `n` pigeons into `m` holes; unsatisfiable for `n > m`.
/// Returns `(num_vars, clauses)`.
fn pigeonhole(n: usize, m: usize) -> (usize, Vec<Vec<Lit>>) {
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
fn random_3sat(num_vars: usize, num_clauses: usize, seed: u64) -> (usize, Vec<Vec<Lit>>) {
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

/// Loads the instance into a fresh solver and runs `probes` random
/// single-literal assumption probes (seeded with [`PROBE_SEED`]) when
/// non-zero, else one plain solve. Returns the last verdict and the
/// solver's cumulative conflicts and propagations.
fn run(num_vars: usize, clauses: &[Vec<Lit>], probes: usize) -> (SolveResult, u64, u64) {
    let mut solver = Solver::new();
    for _ in 0..num_vars {
        solver.new_var();
    }
    for clause in clauses {
        solver.add_clause(clause);
    }
    let verdict = if probes == 0 {
        solver.solve(&[])
    } else {
        let mut rng = ChaCha8Rng::seed_from_u64(PROBE_SEED);
        let mut last = SolveResult::Unknown;
        for _ in 0..probes {
            let a = Var::from_index(rng.gen_range(0..num_vars)).lit(rng.gen_bool(0.5));
            last = solver.solve(&[a]);
        }
        last
    };
    let stats = solver.stats();
    (verdict, stats.conflicts, stats.propagations)
}

#[test]
fn pigeonhole_8_7_search_is_pinned() {
    let (nv, clauses) = pigeonhole(8, 7);
    assert_eq!(run(nv, &clauses, 0), (SolveResult::Unsat, 4593, 65_247));
}

/// Near the 3-SAT phase transition (clause/variable ratio ~4).
#[test]
fn random3sat_150v_600c_search_is_pinned() {
    let (nv, clauses) = random_3sat(150, 600, 7);
    assert_eq!(run(nv, &clauses, 0), (SolveResult::Sat, 891, 29_718));
}

/// One instance, many assumption probes: the incremental pattern.
#[test]
fn incremental_100_probes_search_is_pinned() {
    let (nv, clauses) = random_3sat(120, 430, 9);
    assert_eq!(run(nv, &clauses, 100), (SolveResult::Sat, 481, 24_896));
}
