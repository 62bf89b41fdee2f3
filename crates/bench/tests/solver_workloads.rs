//! Pins the CDCL search on the `benches/solver.rs` workloads: each
//! instance's (verdict, conflicts, propagations) after loading it into a
//! fresh solver and running it once. A change to the search itself —
//! decision order, learning, restarts, propagation order — moves these
//! counts. `crates/core/tests/solver_trajectory.rs` pins the solves the
//! diagnosis engines issue; these are the generic SAT instances.

use gatediag_bench::solver_workloads::{load, pigeonhole, random_3sat, PROBE_SEED};
use gatediag_sat::{Lit, SolveResult, Var};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Loads the instance and runs `probes` random single-literal
/// assumption probes (seeded with [`PROBE_SEED`]) when non-zero, else
/// one plain solve. Returns the last verdict and the solver's
/// cumulative conflicts and propagations.
fn run(num_vars: usize, clauses: &[Vec<Lit>], probes: usize) -> (SolveResult, u64, u64) {
    let mut solver = load(num_vars, clauses);
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

#[test]
fn random3sat_150v_600c_search_is_pinned() {
    let (nv, clauses) = random_3sat(150, 600, 7);
    assert_eq!(run(nv, &clauses, 0), (SolveResult::Sat, 891, 29_718));
}

#[test]
fn incremental_100_probes_search_is_pinned() {
    let (nv, clauses) = random_3sat(120, 430, 9);
    assert_eq!(run(nv, &clauses, 100), (SolveResult::Sat, 481, 24_896));
}
