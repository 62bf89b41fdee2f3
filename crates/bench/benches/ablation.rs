//! Ablation benchmarks for the advanced techniques (paper Secs. 2.2, 2.3
//! and 6).
//!
//! * mux encodings: inline guards vs the paper's explicit mux, with and
//!   without the `c = 0` pinning clauses ("prevents up to |I| decisions");
//! * BSIM-seeded decision heuristic vs unseeded (Sec. 6 hybrid);
//! * X-injection pruning in the advanced simulation-based search.

use criterion::{criterion_group, criterion_main, Criterion};
use gatediag_bench::harness::Workload;
use gatediag_core::{
    basic_sat_diagnose, hybrid_seeded_bsat, sim_backtrack_diagnose, BsatOptions, MuxEncoding,
    SimBacktrackOptions,
};
use gatediag_netlist::RandomCircuitSpec;

fn workload() -> (Workload, usize) {
    let golden = RandomCircuitSpec::new(16, 6, 500).seed(21).generate();
    let w = Workload::from_golden("ablation500", golden, 2, 21);
    let m = w.tests.len().min(8);
    (w, m)
}

fn bench_encodings(c: &mut Criterion) {
    let (w, m) = workload();
    if m == 0 {
        return;
    }
    let tests = w.tests.prefix(m);
    let mut group = c.benchmark_group("ablation_mux_encoding");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(6));
    group.warm_up_time(std::time::Duration::from_secs(1));
    let cases = [
        ("inline", MuxEncoding::Inline),
        (
            "explicit",
            MuxEncoding::ExplicitMux {
                force_c_zero: false,
            },
        ),
        (
            "explicit_c0",
            MuxEncoding::ExplicitMux { force_c_zero: true },
        ),
    ];
    for (label, encoding) in cases {
        group.bench_function(label, |b| {
            b.iter(|| {
                basic_sat_diagnose(
                    &w.faulty,
                    &tests,
                    w.p,
                    BsatOptions {
                        encoding,
                        max_solutions: 500,
                        ..BsatOptions::default()
                    },
                )
            })
        });
    }
    group.finish();
}

fn bench_hybrid_seeding(c: &mut Criterion) {
    let (w, m) = workload();
    if m == 0 {
        return;
    }
    let tests = w.tests.prefix(m);
    let mut group = c.benchmark_group("ablation_hybrid_seed");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(6));
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.bench_function("unseeded", |b| {
        b.iter(|| {
            basic_sat_diagnose(
                &w.faulty,
                &tests,
                w.p,
                BsatOptions {
                    max_solutions: 1,
                    ..BsatOptions::default()
                },
            )
        })
    });
    group.bench_function("bsim_seeded", |b| {
        b.iter(|| {
            hybrid_seeded_bsat(
                &w.faulty,
                &tests,
                w.p,
                BsatOptions {
                    max_solutions: 1,
                    ..BsatOptions::default()
                },
            )
        })
    });
    group.finish();
}

fn bench_x_pruning(c: &mut Criterion) {
    let golden = RandomCircuitSpec::new(10, 4, 120).seed(23).generate();
    let w = Workload::from_golden("xprune120", golden, 2, 23);
    let m = w.tests.len().min(6);
    if m == 0 {
        return;
    }
    let tests = w.tests.prefix(m);
    let mut group = c.benchmark_group("ablation_x_pruning");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(6));
    group.warm_up_time(std::time::Duration::from_secs(1));
    for (label, x_pruning) in [("with_x_pruning", true), ("without_x_pruning", false)] {
        group.bench_function(label, |b| {
            b.iter(|| {
                sim_backtrack_diagnose(
                    &w.faulty,
                    &tests,
                    2,
                    SimBacktrackOptions {
                        x_pruning,
                        ..SimBacktrackOptions::default()
                    },
                )
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_encodings,
    bench_hybrid_seeding,
    bench_x_pruning
);
criterion_main!(benches);
