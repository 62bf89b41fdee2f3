//! Emits `BENCH_PR3.json`: the SAT-side scaling numbers, extending the
//! `BENCH_PR1.json` / `BENCH_PR2.json` trajectory.
//!
//! Three measurements:
//!
//! * **Solver throughput** — the production [`Solver`] on the
//!   `benches/solver.rs` workloads, as wall time and as
//!   propagations/second. Each workload's (verdict, conflicts,
//!   propagations) is asserted against pinned values before any number is
//!   published, so a change to the search itself fails here.
//! * **Per-worker BSAT scaling** — `basic_sat_diagnose` with the
//!   parallel per-test CNF build at 1/2/4 workers, solutions asserted
//!   bit-identical to the sequential build first.
//! * **Per-worker SAT batch screen** — [`screen_valid_corrections`]
//!   pinned to [`ValidityBackend::Sat`] at 1/2/4 workers, verdicts
//!   asserted identical to the sequential screen first.
//!
//! The parallel-scaling numbers document whatever the host provides — on
//! a single-core container the pool degrades to ~1x by design, while the
//! bit-identity asserts hold everywhere. (The committed `BENCH_PR3.json`
//! also records the flat-vs-`Vec<Vec<Watcher>>` watch-list comparison
//! this binary made while both solvers existed.)
//!
//! Usage: `cargo run --release -p gatediag-bench --bin bench_pr3
//! [-- --out PATH]` (default `BENCH_PR3.json` in the working directory).

use gatediag_bench::solver_workloads::{load, pigeonhole, random_3sat, PROBE_SEED};
use gatediag_core::{
    basic_sat_diagnose, generate_failing_tests, screen_valid_corrections, BsatOptions, Budget,
    Parallelism, ValidityBackend,
};
use gatediag_netlist::{inject_errors, GateId, RandomCircuitSpec};
use gatediag_sat::{Lit, SolveResult, Solver, Var};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Worker counts the SAT scaling sweep covers.
const SWEEP: [usize; 3] = [1, 2, 4];

/// Repeats `f` until at least `min_time` has elapsed (at least once);
/// returns the mean wall time per call.
fn measure<R>(min_time: Duration, mut f: impl FnMut() -> R) -> Duration {
    std::hint::black_box(f());
    let start = Instant::now();
    let mut reps = 0u32;
    while start.elapsed() < min_time || reps == 0 {
        std::hint::black_box(f());
        reps += 1;
    }
    start.elapsed() / reps
}

struct Entry {
    key: String,
    value: String,
}

fn num(key: impl Into<String>, value: f64) -> Entry {
    Entry {
        key: key.into(),
        value: if value.is_finite() {
            format!("{value:.4}")
        } else {
            "null".to_string()
        },
    }
}

fn int(key: impl Into<String>, value: u64) -> Entry {
    Entry {
        key: key.into(),
        value: value.to_string(),
    }
}

/// One solver workload: `probes` random single-literal assumption probes
/// (seeded with [`PROBE_SEED`]) when non-zero, else one plain solve.
/// Returns the last verdict.
fn run_workload(s: &mut Solver, num_vars: usize, probes: usize) -> SolveResult {
    if probes == 0 {
        return s.solve(&[]);
    }
    let mut rng = ChaCha8Rng::seed_from_u64(PROBE_SEED);
    let mut last = SolveResult::Unknown;
    for _ in 0..probes {
        let a = Var::from_index(rng.gen_range(0..num_vars)).lit(rng.gen_bool(0.5));
        last = s.solve(&[a]);
    }
    last
}

/// Checks one workload's search against its pinned `(verdict, conflicts,
/// propagations)`, then times it: returns `(ms, propagations_per_sec)`.
fn measure_solver(
    budget: Duration,
    num_vars: usize,
    clauses: &[Vec<Lit>],
    probes: usize,
    pinned: (SolveResult, u64, u64),
) -> (f64, f64) {
    let mut s = load(num_vars, clauses);
    let t0 = Instant::now();
    let verdict = run_workload(&mut s, num_vars, probes);
    let elapsed = t0.elapsed();
    let stats = s.stats();
    assert_eq!(
        (verdict, stats.conflicts, stats.propagations),
        pinned,
        "solver search drifted"
    );
    let t = measure(budget, || {
        let mut s = load(num_vars, clauses);
        run_workload(&mut s, num_vars, probes)
    });
    (
        t.as_secs_f64() * 1e3,
        stats.propagations as f64 / elapsed.as_secs_f64().max(1e-9),
    )
}

fn main() {
    let mut out_path = "BENCH_PR3.json".to_string();
    let mut bench_dir: Option<String> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out_path = args.get(i).cloned().expect("--out expects a path");
            }
            "--bench-dir" => {
                i += 1;
                bench_dir = Some(
                    args.get(i)
                        .cloned()
                        .expect("--bench-dir expects a directory"),
                );
            }
            other => panic!("unknown option `{other}` (try --out PATH, --bench-dir DIR)"),
        }
        i += 1;
    }

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let budget = Duration::from_millis(600);
    let mut entries = vec![int("available_cores", cores as u64)];

    // --- Solver throughput on the benches/solver.rs workloads ----------
    // (name, instance, probes, pinned (verdict, conflicts, propagations)).
    let workloads = {
        let (nv_php, php) = pigeonhole(8, 7);
        let (nv_sat, sat) = random_3sat(150, 600, 7);
        let (nv_inc, inc) = random_3sat(120, 430, 9);
        [
            (
                "pigeonhole_8_7",
                nv_php,
                php,
                0,
                (SolveResult::Unsat, 4593, 65_247),
            ),
            (
                "random3sat_150v_600c",
                nv_sat,
                sat,
                0,
                (SolveResult::Sat, 891, 29_718),
            ),
            (
                "incremental_100_probes",
                nv_inc,
                inc,
                100,
                (SolveResult::Sat, 481, 24_896),
            ),
        ]
    };
    for (name, nv, clauses, probes, pinned) in &workloads {
        let (ms, pps) = measure_solver(budget, *nv, clauses, *probes, *pinned);
        entries.push(num(format!("solver_{name}_ms"), ms));
        entries.push(num(format!("solver_{name}_props_per_sec"), pps));
    }

    // --- BSAT per-worker scaling (parallel per-test CNF build) -----------
    // BSAT instances grow as (gates × tests) with CDCL enumeration on
    // top, so the benchmark circuit is deliberately smaller than the
    // simulation-side benchmarks' 6k gates: ~600 gates × 32 tests keeps a
    // full enumeration in the hundreds of milliseconds. For the same
    // reason `--bench-dir` picks the *smallest* user-supplied circuit
    // here (the sim-side binaries pick the largest).
    let (golden, _from_bench) = gatediag_bench::harness::baseline_circuit(
        bench_dir.as_deref(),
        gatediag_bench::harness::BaselinePick::Smallest,
        || {
            RandomCircuitSpec::new(16, 4, 600)
                .seed(11)
                .name("bench_pr3_600g")
                .generate()
        },
    );
    let gates = golden.num_functional_gates() as u64;
    let (faulty, _sites, tests) = (11u64..64)
        .find_map(|inject_seed| {
            let (faulty, sites) = inject_errors(&golden, 2, inject_seed);
            let tests = generate_failing_tests(&golden, &faulty, 32, 11, 1 << 15);
            (tests.len() >= 16).then_some((faulty, sites, tests))
        })
        .expect("no injection seed yields enough failing tests");
    entries.push(int("bsat_functional_gates", gates));
    entries.push(int("bsat_tests", tests.len() as u64));
    eprintln!(
        "BSAT circuit: {} functional gates, {} failing tests, {} cores visible",
        gates,
        tests.len(),
        cores
    );
    // BSAT runs are hundreds of ms each; a larger budget buys enough
    // repetitions for a stable mean on noisy shared runners.
    let bsat_budget = Duration::from_millis(1500);
    let baseline = basic_sat_diagnose(
        &faulty,
        &tests,
        2,
        BsatOptions {
            parallelism: Parallelism::Sequential,
            ..BsatOptions::default()
        },
    );
    let mut bsat_ms = Vec::new();
    for &workers in &SWEEP {
        let options = BsatOptions {
            parallelism: Parallelism::Fixed(workers),
            ..BsatOptions::default()
        };
        let result = basic_sat_diagnose(&faulty, &tests, 2, options.clone());
        assert_eq!(
            result.solutions, baseline.solutions,
            "BSAT drifted at {workers} workers"
        );
        let opts = options.clone();
        let t = measure(bsat_budget, || {
            basic_sat_diagnose(&faulty, &tests, 2, opts.clone())
                .solutions
                .len()
        });
        bsat_ms.push(t.as_secs_f64() * 1e3);
        entries.push(num(format!("bsat_ms_{workers}w"), t.as_secs_f64() * 1e3));
        // The parallel phase is the CNF build; report its share of one
        // representative run (build/total from the *same* call, so the
        // Amdahl split is internally consistent) next to the total.
        entries.push(num(
            format!("bsat_build_frac_{workers}w"),
            result.build_time.as_secs_f64() / result.total_time.as_secs_f64().max(1e-9),
        ));
    }
    entries.push(num("bsat_speedup_4w", bsat_ms[0] / bsat_ms[2]));

    // --- SAT batch screen per-worker scaling ------------------------------
    let screen_sets: Vec<Vec<GateId>> = faulty
        .iter()
        .filter(|(_, g)| !g.kind().is_source())
        .map(|(id, _)| vec![id])
        .step_by(7)
        .take(48)
        .collect();
    let sat_screen = |parallelism| {
        screen_valid_corrections(
            &faulty,
            &tests,
            &screen_sets,
            parallelism,
            ValidityBackend::Sat,
            &Budget::default(),
        )
        .verdicts
    };
    let sequential_screen = sat_screen(Parallelism::Sequential);
    for &workers in &SWEEP {
        let parallelism = Parallelism::Fixed(workers);
        assert_eq!(
            sat_screen(parallelism),
            sequential_screen,
            "SAT screen drifted at {workers} workers"
        );
        let ts = measure(budget, || {
            sat_screen(parallelism).iter().filter(|&&v| v).count()
        });
        entries.push(num(
            format!("validity_sat_screen_ms_{workers}w"),
            ts.as_secs_f64() * 1e3,
        ));
    }

    // --- Report -----------------------------------------------------------
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"benchmark\": \"bench_pr3\",");
    let _ = writeln!(json, "  \"circuit\": \"{}\",", golden.name());
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        let _ = writeln!(json, "  \"{}\": {}{}", e.key, e.value, comma);
    }
    json.push_str("}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_PR3.json");
    println!("{json}");
    eprintln!("BSAT {:.2}x at 4 workers", bsat_ms[0] / bsat_ms[2]);
    eprintln!("wrote {out_path}");

    if cores < 4 {
        eprintln!(
            "note: only {cores} core(s) visible; the 4-worker SAT scaling \
             numbers document graceful degradation, not speedup"
        );
    }
}
