//! SAT solver microbenchmarks: the BCP/learning engine that replaces
//! Zchaff in this reproduction. `tests/solver_workloads.rs` pins the
//! search of the same workloads.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use gatediag_bench::solver_workloads::{load, pigeonhole, random_3sat, PROBE_SEED};
use gatediag_sat::{SolveResult, Var};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn bench_solver(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(5));
    group.warm_up_time(std::time::Duration::from_secs(1));

    let (nv, php) = pigeonhole(8, 7);
    group.bench_function("pigeonhole_8_7_unsat", |b| {
        b.iter_batched(
            || load(nv, &php),
            |mut s| assert_eq!(s.solve(&[]), SolveResult::Unsat),
            BatchSize::SmallInput,
        )
    });

    // Near the 3-SAT phase transition (ratio ~4.26).
    let (nv, sat_i) = random_3sat(150, 600, 7);
    group.bench_function("random3sat_150v_600c", |b| {
        b.iter_batched(
            || load(nv, &sat_i),
            |mut s| {
                let r = s.solve(&[]);
                assert_ne!(r, SolveResult::Unknown);
            },
            BatchSize::SmallInput,
        )
    });

    // Incremental pattern: one instance, many assumption probes.
    group.bench_function("incremental_100_assumption_probes", |b| {
        let (nv, inst) = random_3sat(120, 430, 9);
        b.iter_batched(
            || load(nv, &inst),
            |mut s| {
                let mut rng = ChaCha8Rng::seed_from_u64(PROBE_SEED);
                for _ in 0..100 {
                    let a = Var::from_index(rng.gen_range(0..120)).lit(rng.gen_bool(0.5));
                    let _ = s.solve(&[a]);
                }
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_solver);
criterion_main!(benches);
