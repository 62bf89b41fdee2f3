//! Emits `BENCH_PR2.json`: per-thread-count scaling of the parallel
//! diagnosis layer, extending the `BENCH_PR1.json` trajectory.
//!
//! Measures, on the same ≥ 6k-gate generated circuit as `bench_pr1`:
//!
//! * `basic_sim_diagnose` wall time with the packed sweeps and path
//!   traces sharded over 1 / 2 / 4 / 8 workers;
//! * candidate screening ([`screen_valid_corrections`] pinned to the
//!   simulation backend, over singleton candidate sets drawn from the
//!   path-tracing union) over the same worker counts, one reusable
//!   validity oracle per worker;
//! * the engine-reuse win itself: fresh-engine-per-call screening vs the
//!   reusable-engine sequential batch (the ROADMAP "reusable engine
//!   across validity calls" item, now the single-core fast path).
//!
//! Every configuration's *result* is asserted bit-identical to the
//! 1-worker run before any number is published — scaling must never buy
//! drift. The ≥ 2x acceptance gate at 4 workers is a hard assert only
//! with `GATEDIAG_BENCH_STRICT=1` on a host exposing ≥ 4 cores
//! (`available_parallelism`); shared CI runners and single-core
//! containers still emit the JSON and report a miss as a warning (the
//! numbers then document that the pool degrades gracefully to ~1x, not
//! that it scales).
//!
//! Usage: `cargo run --release -p gatediag-bench --bin bench_pr2
//! [-- --out PATH]` (default `BENCH_PR2.json` in the working directory).

use gatediag_core::{
    basic_sim_diagnose, generate_failing_tests, screen_valid_corrections, BsimOptions, Budget,
    Parallelism, ValidityBackend, ValidityOracle,
};
use gatediag_netlist::{inject_errors, GateId, RandomCircuitSpec};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Worker counts the scaling sweep covers.
const SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Repeats `f` until at least `min_time` has elapsed (at least once);
/// returns the mean wall time per call.
fn measure<R>(min_time: Duration, mut f: impl FnMut() -> R) -> Duration {
    // Warm-up.
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

fn main() {
    let mut out_path = "BENCH_PR2.json".to_string();
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

    // Same circuit family and scale as bench_pr1, so the two JSON files
    // form one trajectory. `--bench-dir` swaps in the largest
    // user-supplied ISCAS89 circuit (no size floor then).
    let (golden, from_bench) = gatediag_bench::harness::baseline_circuit(
        bench_dir.as_deref(),
        gatediag_bench::harness::BaselinePick::Largest,
        || {
            RandomCircuitSpec::new(32, 8, 6000)
                .seed(7)
                .name("bench_pr2_6000g")
                .generate()
        },
    );
    let gates = golden.num_functional_gates() as u64;
    assert!(
        from_bench || gates >= 6000,
        "benchmark circuit must have >= 6k gates"
    );
    let (faulty, _sites, tests) = (7u64..64)
        .find_map(|inject_seed| {
            let (faulty, sites) = inject_errors(&golden, 2, inject_seed);
            let tests = generate_failing_tests(&golden, &faulty, 256, 7, 1 << 16);
            (tests.len() >= 64).then_some((faulty, sites, tests))
        })
        .expect("no injection seed yields a multi-word test pool");
    eprintln!(
        "circuit: {} functional gates, {} failing tests, {} cores visible",
        gates,
        tests.len(),
        cores
    );

    let mut entries = vec![
        int("functional_gates", gates),
        int("tests", tests.len() as u64),
        int("available_cores", cores as u64),
    ];

    // --- BSIM scaling ----------------------------------------------------
    let baseline_bsim = basic_sim_diagnose(
        &faulty,
        &tests,
        BsimOptions {
            parallelism: Parallelism::Fixed(1),
            ..BsimOptions::default()
        },
    );
    let mut bsim_ms = Vec::new();
    for &workers in &SWEEP {
        let options = BsimOptions {
            parallelism: Parallelism::Fixed(workers),
            ..BsimOptions::default()
        };
        let result = basic_sim_diagnose(&faulty, &tests, options);
        assert_eq!(
            result.candidate_sets, baseline_bsim.candidate_sets,
            "BSIM drifted at {workers} workers"
        );
        let t = measure(budget, || {
            basic_sim_diagnose(&faulty, &tests, options)
                .candidate_sets
                .len()
        });
        bsim_ms.push(t.as_secs_f64() * 1e3);
        entries.push(num(format!("bsim_ms_{workers}w"), t.as_secs_f64() * 1e3));
    }
    let bsim_speedup_4w = bsim_ms[0] / bsim_ms[2];
    entries.push(num("bsim_speedup_4w", bsim_speedup_4w));

    // --- Candidate screening scaling -------------------------------------
    // Singleton candidate sets over the path-tracing union: the worker
    // pool's unit of work is one candidate cone, the shape Feldman-style
    // stochastic search and hitting-set loops scale out on.
    let screen_tests = tests.prefix_at_most(16);
    let candidates: Vec<Vec<GateId>> = baseline_bsim
        .union
        .iter()
        .take(256)
        .map(|g| vec![g])
        .collect();
    // Pool-size calibration for the synthetic circuit; a user-supplied
    // --bench-dir corpus may be arbitrarily small.
    assert!(
        from_bench || candidates.len() >= 64,
        "need a meaningful candidate pool (got {})",
        candidates.len()
    );
    let sim_screen = |parallelism| {
        screen_valid_corrections(
            &faulty,
            &screen_tests,
            &candidates,
            parallelism,
            ValidityBackend::Sim,
            &Budget::default(),
        )
        .verdicts
    };
    let baseline_verdicts = sim_screen(Parallelism::Fixed(1));
    let mut screen_ms = Vec::new();
    for &workers in &SWEEP {
        let parallelism = Parallelism::Fixed(workers);
        assert_eq!(
            sim_screen(parallelism),
            baseline_verdicts,
            "screening verdicts drifted at {workers} workers"
        );
        let t = measure(budget, || {
            sim_screen(parallelism).iter().filter(|&&v| v).count()
        });
        screen_ms.push(t.as_secs_f64() * 1e3);
        entries.push(num(
            format!("screening_ms_{workers}w"),
            t.as_secs_f64() * 1e3,
        ));
    }
    let screening_speedup_4w = screen_ms[0] / screen_ms[2];
    entries.push(num("screening_speedup_4w", screening_speedup_4w));

    // --- Engine reuse vs fresh engines (single core) ----------------------
    let fresh_t = measure(budget, || {
        candidates
            .iter()
            .filter(|c| {
                ValidityOracle::with_backend(&faulty, ValidityBackend::Sim)
                    .is_valid(&screen_tests, c)
            })
            .count()
    });
    let reused_t = measure(budget, || {
        sim_screen(Parallelism::Sequential)
            .iter()
            .filter(|&&v| v)
            .count()
    });
    let reuse_speedup = fresh_t.as_secs_f64() / reused_t.as_secs_f64();
    entries.push(num(
        "screening_fresh_engine_ms",
        fresh_t.as_secs_f64() * 1e3,
    ));
    entries.push(num(
        "screening_reused_engine_ms",
        reused_t.as_secs_f64() * 1e3,
    ));
    entries.push(num("engine_reuse_speedup", reuse_speedup));

    // --- Report -----------------------------------------------------------
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"benchmark\": \"bench_pr2\",");
    let _ = writeln!(json, "  \"circuit\": \"{}\",", golden.name());
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        let _ = writeln!(json, "  \"{}\": {}{}", e.key, e.value, comma);
    }
    json.push_str("}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_PR2.json");
    println!("{json}");
    eprintln!(
        "BSIM {:.2}x, screening {:.2}x at 4 workers; engine reuse {:.2}x \
         (1-worker BSIM {:.2} ms)",
        bsim_speedup_4w, screening_speedup_4w, reuse_speedup, bsim_ms[0],
    );
    eprintln!("wrote {out_path}");

    // Acceptance gate: >= 2x at 4 workers on at least one of the two
    // parallel flows — only meaningful where 4 workers have 4 *quiet*
    // cores. Shared CI runners report 4 vCPUs but scale unpredictably
    // under noisy neighbours, so the hard assert is opt-in via
    // GATEDIAG_BENCH_STRICT=1 (for dedicated perf hosts); everywhere
    // else a miss is reported as a warning, not a failure.
    let scaled = bsim_speedup_4w >= 2.0 || screening_speedup_4w >= 2.0;
    let strict = std::env::var("GATEDIAG_BENCH_STRICT").as_deref() == Ok("1");
    if cores < 4 {
        eprintln!(
            "note: only {cores} core(s) visible; the >= 2x @ 4 workers \
             acceptance gate needs >= 4 cores and was skipped"
        );
    } else if !scaled {
        let msg = format!(
            ">= 2x at 4 workers not reached on {cores} cores \
             (BSIM {bsim_speedup_4w:.2}x, screening {screening_speedup_4w:.2}x)"
        );
        assert!(!strict, "acceptance (GATEDIAG_BENCH_STRICT): {msg}");
        eprintln!("warning: {msg}");
    }
    // The engine-reuse fix must pay off everywhere, including single
    // core — but as a wall-clock comparison it only hard-fails in strict
    // mode (dedicated perf hosts); shared runners get a warning.
    if reuse_speedup < 1.0 {
        let msg = format!("engine reuse did not beat fresh engines ({reuse_speedup:.2}x)");
        assert!(!strict, "acceptance (GATEDIAG_BENCH_STRICT): {msg}");
        eprintln!("warning: {msg}");
    }
}
