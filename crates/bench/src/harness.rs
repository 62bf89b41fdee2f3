//! Shared experiment harness for the paper's Tables 2-3 and Figure 6.
//!
//! The paper's workloads: ISCAS89 circuits `s1423` (4 injected errors),
//! `s6669` (3 errors) and `s38417` (2 errors), diagnosed with
//! `m ∈ {4, 8, 16, 32}` prefix tests of one generated test-set and
//! `k = p`. The circuits here are profile-matched synthetics (see
//! `gatediag-netlist`'s generator docs and DESIGN.md for the
//! substitution rationale); real `.bench` files can be dropped in with
//! [`Workload::from_bench`].

use gatediag_core::{
    basic_sat_diagnose, basic_sim_diagnose, bsim_quality, sc_diagnose, solution_quality,
    BsatOptions, BsatResult, BsimOptions, BsimQuality, CovOptions, CovResult, SolutionQuality,
    TestSet,
};
use gatediag_netlist::{
    inject_errors, parse_bench_dir_strict, parse_bench_named, s1423_like, s38417_like, s6669_like,
    Circuit, GateId,
};
use std::time::{Duration, Instant};

/// Which benchmark circuits to run.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Scale {
    /// `s1423_like` and `s6669_like` — minutes of runtime.
    Quick,
    /// All three profiles including `s38417_like` — can take much longer.
    Full,
}

impl Scale {
    /// Parses `quick` / `full` (case-insensitive).
    pub fn parse(text: &str) -> Option<Scale> {
        match text.to_ascii_lowercase().as_str() {
            "quick" => Some(Scale::Quick),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }
}

/// A diagnosis workload: a faulty circuit, its known error sites and a
/// pool of failing tests.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Benchmark name for reporting.
    pub name: String,
    /// The faulty circuit under diagnosis.
    pub faulty: Circuit,
    /// Number of injected errors (the paper's `p`, also used as `k`).
    pub p: usize,
    /// The injected error sites.
    pub errors: Vec<GateId>,
    /// Pool of failing tests (up to 32; experiments use prefixes).
    pub tests: TestSet,
}

impl Workload {
    /// Builds a workload from a golden circuit by injecting `p` errors and
    /// collecting up to 32 failing tests.
    pub fn from_golden(name: &str, golden: Circuit, p: usize, seed: u64) -> Workload {
        // Retry injection seeds until the errors are observable enough to
        // provide a full 32-test pool (profile circuits occasionally bury
        // an error in a near-redundant region).
        let mut inject_seed = seed;
        loop {
            let (faulty, sites) = inject_errors(&golden, p, inject_seed);
            let tests = gatediag_core::generate_failing_tests(&golden, &faulty, 32, seed, 1 << 17);
            if tests.len() >= 32 || inject_seed > seed + 20 {
                return Workload {
                    name: name.to_string(),
                    faulty,
                    p,
                    errors: sites.iter().map(|s| s.gate).collect(),
                    tests,
                };
            }
            inject_seed += 1;
        }
    }

    /// Builds a workload from real `.bench` text (for users with the
    /// original ISCAS89 files).
    ///
    /// # Errors
    ///
    /// Propagates netlist parse errors.
    pub fn from_bench(
        name: &str,
        bench_text: &str,
        p: usize,
        seed: u64,
    ) -> Result<Workload, gatediag_netlist::NetlistError> {
        let golden = parse_bench_named(bench_text, name)?;
        Ok(Workload::from_golden(name, golden, p, seed))
    }
}

/// The injected error count the paper uses for a circuit, by name: `s1423`
/// gets 4, `s6669` 3, `s38417` 2 (substring match, so both `s1423` and
/// `s1423_like` resolve); everything else defaults to 2.
pub fn paper_error_count(name: &str) -> usize {
    if name.contains("s1423") {
        4
    } else if name.contains("s6669") {
        3
    } else {
        // s38417 and every other circuit: the paper's p = 2.
        2
    }
}

/// Gate-count ceiling for [`Scale::Quick`] when running on user-supplied
/// `.bench` circuits: `s38417`-class circuits (beyond ~10k gates) only run
/// at [`Scale::Full`], mirroring the synthetic configuration.
pub const QUICK_GATE_LIMIT: usize = 10_000;

/// Builds workloads from every `.bench` file in `dir` — the real-ISCAS89
/// path behind `--bench-dir`. Error counts follow [`paper_error_count`];
/// [`Scale::Quick`] keeps circuits under [`QUICK_GATE_LIMIT`] functional
/// gates. Returns an empty vector when the directory holds no `.bench`
/// files (callers fall back to the synthetic profiles).
///
/// # Panics
///
/// Panics with the parse/I/O error message when the directory or a
/// netlist in it is unreadable, and when the directory has circuits but
/// [`Scale::Quick`] filters every one of them out — silently
/// substituting synthetics for a user-supplied corpus would mislabel
/// the published numbers.
pub fn bench_dir_workloads(dir: &str, scale: Scale, seed: u64) -> Vec<Workload> {
    let circuits = parse_bench_dir_strict(std::path::Path::new(dir))
        .unwrap_or_else(|e| panic!("--bench-dir {dir}: {e}"));
    let total = circuits.len();
    let kept: Vec<_> = circuits
        .into_iter()
        .filter(|(_, c)| scale == Scale::Full || c.num_functional_gates() < QUICK_GATE_LIMIT)
        .collect();
    assert!(
        total == 0 || !kept.is_empty(),
        "--bench-dir {dir}: all {total} circuit(s) exceed the quick-scale gate limit \
         ({QUICK_GATE_LIMIT}); rerun with --scale full"
    );
    kept.into_iter()
        .map(|(name, golden)| {
            let p = paper_error_count(&name);
            Workload::from_golden(&name, golden, p, seed)
        })
        .collect()
}

/// The paper's three benchmark configurations.
pub fn paper_workloads(scale: Scale, seed: u64) -> Vec<Workload> {
    let mut workloads = vec![
        Workload::from_golden("s1423_like", s1423_like(seed), 4, seed),
        Workload::from_golden("s6669_like", s6669_like(seed), 3, seed),
    ];
    if scale == Scale::Full {
        workloads.push(Workload::from_golden(
            "s38417_like",
            s38417_like(seed),
            2,
            seed,
        ));
    }
    workloads
}

/// The paper's test-count sweep.
pub const TEST_COUNTS: [usize; 4] = [4, 8, 16, 32];

/// Caps protecting the harness from pathological enumeration blow-ups;
/// truncations are reported in the output.
#[derive(Copy, Clone, Debug)]
pub struct Limits {
    /// Maximum solutions enumerated per engine per configuration.
    pub max_solutions: usize,
    /// Conflict budget for the whole BSAT run (`None` = unlimited).
    pub bsat_conflict_budget: Option<u64>,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_solutions: 50_000,
            bsat_conflict_budget: Some(20_000_000),
        }
    }
}

/// All measurements for one `(workload, m)` cell of the paper's tables.
#[derive(Clone, Debug)]
pub struct CellMetrics {
    /// Circuit name.
    pub name: String,
    /// Injected error count `p` (= `k`).
    pub p: usize,
    /// Number of tests `m`.
    pub m: usize,
    /// BSIM wall time (Table 2 "BSIM").
    pub bsim_time: Duration,
    /// BSIM quality metrics (Table 3 left).
    pub bsim_quality: BsimQuality,
    /// COV result (times + solutions).
    pub cov: CovResult,
    /// COV quality metrics.
    pub cov_quality: SolutionQuality,
    /// BSAT result (times + solutions).
    pub bsat: BsatResult,
    /// BSAT quality metrics.
    pub bsat_quality: SolutionQuality,
}

/// Runs all three engines on the first `m` tests of `workload`.
///
/// # Panics
///
/// Panics if the workload has fewer than `m` tests.
pub fn run_cell(workload: &Workload, m: usize, limits: Limits) -> CellMetrics {
    assert!(
        workload.tests.len() >= m,
        "{}: only {} failing tests available, need {m}",
        workload.name,
        workload.tests.len()
    );
    let tests = workload.tests.prefix(m);
    let k = workload.p;

    let t0 = Instant::now();
    let bsim = basic_sim_diagnose(&workload.faulty, &tests, BsimOptions::default());
    let bsim_time = t0.elapsed();
    let bq = bsim_quality(&workload.faulty, &bsim, &workload.errors);

    let cov = sc_diagnose(
        &workload.faulty,
        &tests,
        k,
        CovOptions {
            max_solutions: limits.max_solutions,
            ..CovOptions::default()
        },
    );
    let cq = solution_quality(&workload.faulty, &cov.solutions, &workload.errors);

    let bsat = basic_sat_diagnose(
        &workload.faulty,
        &tests,
        k,
        BsatOptions {
            max_solutions: limits.max_solutions,
            conflict_budget: limits.bsat_conflict_budget,
            ..BsatOptions::default()
        },
    );
    let sq = solution_quality(&workload.faulty, &bsat.solutions, &workload.errors);

    CellMetrics {
        name: workload.name.clone(),
        p: workload.p,
        m,
        bsim_time,
        bsim_quality: bq,
        cov,
        cov_quality: cq,
        bsat,
        bsat_quality: sq,
    }
}

/// Formats a duration the way the paper's tables do (seconds, 2 decimals).
pub fn secs(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64())
}

/// Options shared by the experiment binaries.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Circuit selection.
    pub scale: Scale,
    /// Workload seed.
    pub seed: u64,
    /// Enumeration caps.
    pub limits: Limits,
    /// When set, run only the workload whose name contains this string.
    pub only: Option<String>,
    /// When set, build workloads from the `.bench` files in this
    /// directory instead of the synthetic profiles (the ROADMAP's "real
    /// ISCAS89 ingestion" path). Falls back to the synthetics when the
    /// directory has no `.bench` files.
    pub bench_dir: Option<String>,
}

/// Parses the `--scale`, `--seed`, `--max-solutions`, `--only` and
/// `--bench-dir` options shared by the experiment binaries.
///
/// # Panics
///
/// Panics with a usage message on malformed options.
pub fn parse_config() -> RunConfig {
    let mut scale = Scale::Quick;
    let mut seed = 1u64;
    let mut limits = Limits::default();
    let mut only: Option<String> = None;
    let mut bench_dir: Option<String> = None;
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| Scale::parse(s))
                    .unwrap_or_else(|| panic!("--scale expects quick|full"));
            }
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| panic!("--seed expects an integer"));
            }
            "--max-solutions" => {
                i += 1;
                limits.max_solutions = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| panic!("--max-solutions expects an integer"));
            }
            "--only" => {
                i += 1;
                only = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| panic!("--only expects a circuit name")),
                );
            }
            "--bench-dir" => {
                i += 1;
                bench_dir = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| panic!("--bench-dir expects a directory")),
                );
            }
            other => panic!(
                "unknown option `{other}` (try --scale quick|full, --seed N, --max-solutions N, --only NAME, --bench-dir DIR)"
            ),
        }
        i += 1;
    }
    RunConfig {
        scale,
        seed,
        limits,
        only,
        bench_dir,
    }
}

/// Where [`configured_workloads_with_source`] actually got its circuits
/// from — so the experiment binaries can label their output truthfully
/// even when an empty `--bench-dir` fell back to the synthetics.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum WorkloadSource {
    /// Real `.bench` circuits loaded from `--bench-dir`.
    BenchDir,
    /// The profile-matched synthetic ISCAS89 stand-ins.
    Synthetic,
}

/// Applies the `--only` filter of a [`RunConfig`] to the configured
/// workload source: the `.bench` files of `--bench-dir` when given (and
/// non-empty), the synthetic paper profiles otherwise. The returned
/// [`WorkloadSource`] reports which one was used.
pub fn configured_workloads_with_source(config: &RunConfig) -> (Vec<Workload>, WorkloadSource) {
    let (base, source) = match &config.bench_dir {
        Some(dir) => {
            let real = bench_dir_workloads(dir, config.scale, config.seed);
            if real.is_empty() {
                eprintln!("no .bench files in {dir}; using the synthetic profiles");
                (
                    paper_workloads(config.scale, config.seed),
                    WorkloadSource::Synthetic,
                )
            } else {
                (real, WorkloadSource::BenchDir)
            }
        }
        None => (
            paper_workloads(config.scale, config.seed),
            WorkloadSource::Synthetic,
        ),
    };
    let filtered = base
        .into_iter()
        .filter(|w| {
            config
                .only
                .as_ref()
                .map(|needle| w.name.contains(needle.as_str()))
                .unwrap_or(true)
        })
        .collect();
    (filtered, source)
}

/// Writes `content` under `target/experiments/<file>` and reports the path.
pub fn write_artifact(file: &str, content: &str) {
    let dir = std::path::Path::new("target/experiments");
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join(file);
        if std::fs::write(&path, content).is_ok() {
            println!("\nwrote {}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gatediag_netlist::RandomCircuitSpec;

    #[test]
    fn workload_has_observable_errors() {
        let golden = RandomCircuitSpec::new(8, 4, 120).seed(3).generate();
        let w = Workload::from_golden("t", golden, 2, 3);
        assert_eq!(w.errors.len(), 2);
        assert!(!w.tests.is_empty());
    }

    #[test]
    fn run_cell_produces_consistent_metrics() {
        let golden = RandomCircuitSpec::new(8, 4, 120).seed(5).generate();
        let w = Workload::from_golden("t", golden, 2, 5);
        let m = w.tests.len().min(4);
        let cell = run_cell(&w, m, Limits::default());
        assert_eq!(cell.m, m);
        assert_eq!(cell.cov_quality.num_solutions, cell.cov.solutions.len());
        assert_eq!(cell.bsat_quality.num_solutions, cell.bsat.solutions.len());
        // BSAT min distance should be 0 here: the singleton error sites are
        // enumerable at k = p ≥ 1 (they are valid corrections).
        if cell.bsat.complete && !cell.bsat.solutions.is_empty() {
            assert_eq!(cell.bsat_quality.min, 0.0);
        }
    }

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("quick"), Some(Scale::Quick));
        assert_eq!(Scale::parse("FULL"), Some(Scale::Full));
        assert_eq!(Scale::parse("nope"), None);
    }

    #[test]
    fn secs_formats() {
        assert_eq!(secs(Duration::from_millis(1500)), "1.50");
    }

    #[test]
    fn workload_from_bench_round_trip() {
        let src = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nx = AND(a, b)\ny = NOT(x)\n";
        let w = Workload::from_bench("mini", src, 1, 2).unwrap();
        assert_eq!(w.name, "mini");
        assert_eq!(w.errors.len(), 1);
    }

    #[test]
    fn paper_error_counts_by_name() {
        assert_eq!(paper_error_count("s1423"), 4);
        assert_eq!(paper_error_count("s1423_like"), 4);
        assert_eq!(paper_error_count("s6669"), 3);
        assert_eq!(paper_error_count("s38417"), 2);
        assert_eq!(paper_error_count("c432"), 2);
    }

    #[test]
    fn bench_dir_workloads_pick_up_real_circuits() {
        let dir =
            std::env::temp_dir().join(format!("gatediag_harness_bench_dir_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("c17.bench"),
            "INPUT(G1)\nINPUT(G2)\nINPUT(G3)\nINPUT(G6)\nINPUT(G7)\n\
             OUTPUT(G22)\nOUTPUT(G23)\n\
             G10 = NAND(G1, G3)\nG11 = NAND(G3, G6)\nG16 = NAND(G2, G11)\n\
             G19 = NAND(G11, G7)\nG22 = NAND(G10, G16)\nG23 = NAND(G16, G19)\n",
        )
        .unwrap();
        let dir_str = dir.to_str().unwrap().to_string();
        let workloads = bench_dir_workloads(&dir_str, Scale::Quick, 1);
        assert_eq!(workloads.len(), 1);
        assert_eq!(workloads[0].name, "c17");
        assert_eq!(workloads[0].p, 2);
        assert!(!workloads[0].tests.is_empty());
        // The config plumbing resolves the same circuits.
        let config = RunConfig {
            scale: Scale::Quick,
            seed: 1,
            limits: Limits::default(),
            only: None,
            bench_dir: Some(dir_str.clone()),
        };
        let (via_config, source) = configured_workloads_with_source(&config);
        assert_eq!(via_config.len(), 1);
        assert_eq!(via_config[0].name, "c17");
        assert_eq!(source, WorkloadSource::BenchDir);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
