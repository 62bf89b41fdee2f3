//! Emits `BENCH_PR1.json`: the perf trajectory baseline for the PR-1
//! hot-path rewrite (CSR netlist + `PackedSim` + batched path tracing).
//!
//! Measures, on a ≥ 2k-gate generated circuit:
//!
//! * raw simulation throughput (patterns x functional gates / second) of
//!   the scalar engine vs multi-word packed sweeps;
//! * `basic_sim_diagnose` wall time, seed-style (one scalar simulation
//!   per test) vs the packed implementation;
//! * forced-value validity screening, seed-style (allocate-and-sweep per
//!   64-combination batch) vs the incremental cone-propagation oracle.
//!
//! Usage: `cargo run --release -p gatediag-bench --bin bench_pr1
//! [-- --out PATH]` (default `BENCH_PR1.json` in the working directory).

use gatediag_bench::harness::secs;
use gatediag_core::{
    basic_sim_diagnose, generate_failing_tests, path_trace, BsimOptions, TestSet, ValidityBackend,
    ValidityOracle,
};
use gatediag_netlist::{inject_errors, Circuit, GateId, GateSet, RandomCircuitSpec, VectorGen};
use gatediag_sim::{pack_vectors_into, simulate, PackedSim};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

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

/// The seed's `basic_sim_diagnose` loop: scalar simulation per test.
fn seed_style_bsim(circuit: &Circuit, tests: &TestSet, options: BsimOptions) -> Vec<GateSet> {
    tests
        .iter()
        .map(|t| {
            let values = simulate(circuit, &t.vector);
            path_trace(circuit, &values, t.output, options)
        })
        .collect()
}

/// The seed's validity oracle: fresh buffers and a full packed sweep per
/// 64-combination batch (reconstructed from the pre-PackedSim code).
fn seed_style_validity(circuit: &Circuit, tests: &TestSet, candidates: &[GateId]) -> bool {
    tests.iter().all(|t| {
        let combos = 1u64 << candidates.len();
        let mut base = 0u64;
        while base < combos {
            let lanes = (combos - base).min(64) as usize;
            let forced: Vec<(GateId, u64)> = candidates
                .iter()
                .enumerate()
                .map(|(i, &g)| {
                    let mut word = 0u64;
                    for lane in 0..lanes {
                        if (base + lane as u64) >> i & 1 == 1 {
                            word |= 1 << lane;
                        }
                    }
                    (g, word)
                })
                .collect();
            let vectors = vec![t.vector.clone(); lanes];
            let packed = gatediag_sim::pack_vectors(circuit, &vectors);
            let values = gatediag_sim::simulate_packed_forced(circuit, &packed, &forced);
            let out_word = values[t.output.index()];
            for lane in 0..lanes {
                if (out_word >> lane & 1 == 1) == t.expected {
                    return true;
                }
            }
            base += lanes as u64;
        }
        false
    })
}

struct Entry {
    key: &'static str,
    value: String,
}

fn num(key: &'static str, value: f64) -> Entry {
    Entry {
        key,
        value: if value.is_finite() {
            format!("{value:.4}")
        } else {
            "null".to_string()
        },
    }
}

fn int(key: &'static str, value: u64) -> Entry {
    Entry {
        key,
        value: value.to_string(),
    }
}

fn main() {
    let mut out_path = "BENCH_PR1.json".to_string();
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

    // The seed path costs O(gates) per test while the packed path costs
    // O(trace cone), so the speedup grows with circuit size; 6k gates is
    // comfortably inside the "≥ 2k-gate generated circuit" acceptance
    // envelope while keeping the whole run under a few seconds. With
    // `--bench-dir` the largest user-supplied ISCAS89 circuit replaces
    // the synthetic one (and the size floor no longer applies).
    let budget = Duration::from_millis(800);
    let (golden, from_bench) = gatediag_bench::harness::baseline_circuit(
        bench_dir.as_deref(),
        gatediag_bench::harness::BaselinePick::Largest,
        || {
            RandomCircuitSpec::new(32, 8, 6000)
                .seed(7)
                .name("bench_pr1_6000g")
                .generate()
        },
    );
    let gates = golden.num_functional_gates() as u64;
    assert!(
        from_bench || gates >= 2000,
        "benchmark circuit must have >= 2k gates"
    );
    // Retry injection seeds until the errors are observable enough for a
    // multi-word test pool (some injections land in near-redundant logic).
    let (faulty, sites, tests) = (7u64..64)
        .find_map(|inject_seed| {
            let (faulty, sites) = inject_errors(&golden, 2, inject_seed);
            let tests = generate_failing_tests(&golden, &faulty, 256, 7, 1 << 16);
            (tests.len() >= 64).then_some((faulty, sites, tests))
        })
        .expect("no injection seed yields a multi-word test pool");
    eprintln!(
        "circuit: {} functional gates, {} inputs, {} failing tests",
        gates,
        golden.inputs().len(),
        tests.len()
    );

    // --- Raw simulation throughput -------------------------------------
    let mut gen = VectorGen::new(&faulty, 3);
    let vectors: Vec<Vec<bool>> = (0..512).map(|_| gen.next_vector()).collect();
    let scalar_time = measure(budget, || {
        let mut acc = false;
        for v in &vectors[..8] {
            let values = simulate(&faulty, v);
            acc ^= *values.last().expect("non-empty");
        }
        acc
    });
    let scalar_patterns_per_sec = 8.0 / scalar_time.as_secs_f64();

    let mut packed = Vec::new();
    let words = pack_vectors_into(&faulty, &vectors, &mut packed);
    let mut sim = PackedSim::new(&faulty);
    sim.reset(words);
    sim.set_input_words(&packed);
    let packed_time = measure(budget, || {
        sim.sweep();
        sim.values()[faulty.len() * words - 1]
    });
    let packed_patterns_per_sec = 512.0 / packed_time.as_secs_f64();
    let sim_speedup = packed_patterns_per_sec / scalar_patterns_per_sec;

    // --- BSIM diagnose -------------------------------------------------
    // Pinned sequential: this baseline measures the single-core packed
    // substrate against the seed's scalar loop. Multi-worker scaling has
    // its own trajectory file (bench_pr2 / BENCH_PR2.json); letting Auto
    // pick up cores here would silently conflate the two.
    let options = BsimOptions {
        parallelism: gatediag_sim::Parallelism::Sequential,
        ..BsimOptions::default()
    };
    let seed_bsim_time = measure(budget, || seed_style_bsim(&faulty, &tests, options).len());
    let packed_bsim_time = measure(budget, || {
        basic_sim_diagnose(&faulty, &tests, options)
            .candidate_sets
            .len()
    });
    let bsim_speedup = seed_bsim_time.as_secs_f64() / packed_bsim_time.as_secs_f64();

    // Sanity: both paths agree bit-for-bit before we publish numbers.
    let fast = basic_sim_diagnose(&faulty, &tests, options);
    let reference = seed_style_bsim(&faulty, &tests, options);
    assert_eq!(fast.candidate_sets, reference, "BSIM behavioral drift");

    // --- Validity screening --------------------------------------------
    let candidates: Vec<GateId> = sites.iter().map(|s| s.gate).collect();
    let screen_tests = tests.prefix_at_most(32);
    let seed_validity_time = measure(budget, || {
        seed_style_validity(&faulty, &screen_tests, &candidates)
    });
    let sim_valid = || {
        ValidityOracle::with_backend(&faulty, ValidityBackend::Sim)
            .is_valid(&screen_tests, &candidates)
    };
    let packed_validity_time = measure(budget, sim_valid);
    assert_eq!(
        sim_valid(),
        seed_style_validity(&faulty, &screen_tests, &candidates),
        "validity verdict drift"
    );
    let validity_speedup = seed_validity_time.as_secs_f64() / packed_validity_time.as_secs_f64();

    // --- Report ---------------------------------------------------------
    let entries = vec![
        int("functional_gates", gates),
        int("inputs", golden.inputs().len() as u64),
        int("tests", tests.len() as u64),
        int("patterns_per_sweep", 64 * words as u64),
        num("scalar_sim_patterns_per_sec", scalar_patterns_per_sec),
        num(
            "scalar_sim_pattern_gates_per_sec",
            scalar_patterns_per_sec * gates as f64,
        ),
        num("packed_sim_patterns_per_sec", packed_patterns_per_sec),
        num(
            "packed_sim_pattern_gates_per_sec",
            packed_patterns_per_sec * gates as f64,
        ),
        num("packed_vs_scalar_sim_speedup", sim_speedup),
        num("bsim_seed_style_ms", seed_bsim_time.as_secs_f64() * 1e3),
        num("bsim_packed_ms", packed_bsim_time.as_secs_f64() * 1e3),
        num("bsim_speedup", bsim_speedup),
        num(
            "validity_seed_style_ms",
            seed_validity_time.as_secs_f64() * 1e3,
        ),
        num(
            "validity_incremental_ms",
            packed_validity_time.as_secs_f64() * 1e3,
        ),
        num("validity_speedup", validity_speedup),
    ];
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"benchmark\": \"bench_pr1\",");
    let _ = writeln!(json, "  \"circuit\": \"{}\",", golden.name());
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        let _ = writeln!(json, "  \"{}\": {}{}", e.key, e.value, comma);
    }
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("write BENCH_PR1.json");
    println!("{json}");
    eprintln!(
        "sim speedup {:.1}x, BSIM speedup {:.1}x, validity speedup {:.1}x (sweep {})",
        sim_speedup,
        bsim_speedup,
        validity_speedup,
        secs(packed_bsim_time)
    );
    eprintln!("wrote {out_path}");
    // The ≥5x acceptance gate is calibrated for the ≥2k-gate synthetic
    // circuit; a user-supplied --bench-dir corpus may be arbitrarily
    // small, so there it only reports.
    assert!(
        from_bench || (sim_speedup >= 5.0 && bsim_speedup >= 5.0),
        "acceptance: >= 5x speedup over the scalar-per-test seed path \
         (got sim {sim_speedup:.1}x, bsim {bsim_speedup:.1}x)"
    );
}
