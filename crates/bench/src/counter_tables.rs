//! Table 1's complexity shapes and the Secs. 2.3/6 ablations as tables
//! of deterministic counters.
//!
//! Each row is one engine run on a generated circuit with a
//! [`gatediag_obs::Sink`] installed. The row reads the sink's
//! `cnf.clauses`, `cnf.vars`, `sim.sweeps`, `sim.gate_evals` and
//! `sim.propagate_evals`, plus the run's solver statistics (decisions,
//! conflicts, propagations), solution count and completeness. These are
//! pure functions of the work performed, so they are the same on every
//! host and for every worker count. The wall time is the last column and
//! the only one that varies between runs.
//!
//! The circuits, seeds and caps are fixed: the tables ignore the
//! harness's `--seed`, `--only` and `--max-solutions`.

use crate::harness::Workload;
use gatediag_core::{
    basic_sat_diagnose, basic_sim_diagnose, hybrid_seeded_bsat, sc_diagnose, BsatOptions,
    BsatResult, BsimOptions, CovOptions, MuxEncoding, SolverStats, TestSet,
};
use gatediag_netlist::RandomCircuitSpec;
use gatediag_obs::Sink;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One measured engine run.
#[derive(Clone, Debug)]
pub struct CounterRow {
    /// What the rows of a group vary, e.g. `BSIM vs size`.
    pub group: &'static str,
    /// This row's setting within its group, e.g. `500` or `explicit+c0`.
    pub case: String,
    /// `cnf.clauses` charged by the run.
    pub clauses: u64,
    /// `cnf.vars` charged by the run.
    pub vars: u64,
    /// `sim.sweeps`: full packed simulation sweeps.
    pub sweeps: u64,
    /// `sim.gate_evals`: gate evaluations of the full sweeps.
    pub gate_evals: u64,
    /// `sim.propagate_evals`: gate evaluations of incremental propagation.
    pub propagate_evals: u64,
    /// Solver decisions, conflicts and propagations: BSAT's own
    /// statistics where the engine returns them, else the sink's
    /// `sat.*` counters (COV's cover solvers), which charge only what
    /// happens inside `solve` calls and so leave out propagation at
    /// clause-adding time.
    pub stats: SolverStats,
    /// Solutions returned; `None` for BSIM, which returns candidate sets.
    pub solutions: Option<usize>,
    /// `false` when a cap or budget cut the run short.
    pub complete: bool,
    /// Wall time of the run.
    pub wall: Duration,
}

/// What a run reports besides the sink's counters.
struct Outcome {
    solutions: Option<usize>,
    complete: bool,
    /// `None` for engines whose result carries no solver statistics.
    stats: Option<SolverStats>,
}

impl From<BsatResult> for Outcome {
    fn from(result: BsatResult) -> Outcome {
        Outcome {
            solutions: Some(result.solutions.len()),
            complete: result.complete,
            stats: Some(result.stats),
        }
    }
}

/// Runs `run` with a fresh sink installed and reads the row off it.
fn measure(group: &'static str, case: String, run: impl FnOnce() -> Outcome) -> CounterRow {
    let sink = Arc::new(Sink::new());
    let guard = gatediag_obs::install(sink.clone());
    let start = Instant::now();
    let outcome = run();
    let wall = start.elapsed();
    drop(guard);
    let trace = sink.take_trace();
    CounterRow {
        group,
        case,
        clauses: trace.counter("cnf.clauses"),
        vars: trace.counter("cnf.vars"),
        sweeps: trace.counter("sim.sweeps"),
        gate_evals: trace.counter("sim.gate_evals"),
        propagate_evals: trace.counter("sim.propagate_evals"),
        stats: outcome.stats.unwrap_or_else(|| SolverStats {
            decisions: trace.counter("sat.decisions"),
            conflicts: trace.counter("sat.conflicts"),
            propagations: trace.counter("sat.propagations"),
            ..SolverStats::default()
        }),
        solutions: outcome.solutions,
        complete: outcome.complete,
        wall,
    }
}

/// A workload on a generated circuit and its first `max_tests` tests
/// (`None` when the injected errors expose no failing test).
fn generated(
    name: &str,
    spec: RandomCircuitSpec,
    p: usize,
    seed: u64,
    max_tests: usize,
) -> Option<(Workload, TestSet)> {
    let w = Workload::from_golden(name, spec.seed(seed).generate(), p, seed);
    let m = w.tests.len().min(max_tests);
    let tests = w.tests.prefix(m);
    (m > 0).then_some((w, tests))
}

fn bsim(w: &Workload, tests: &TestSet) -> Outcome {
    let result = basic_sim_diagnose(&w.faulty, tests, BsimOptions::default());
    Outcome {
        solutions: None,
        complete: result.truncation.is_none(),
        stats: None,
    }
}

fn bsat(w: &Workload, tests: &TestSet, k: usize, options: BsatOptions) -> Outcome {
    basic_sat_diagnose(&w.faulty, tests, k, options).into()
}

fn capped(max_solutions: usize) -> BsatOptions {
    BsatOptions {
        max_solutions,
        ..BsatOptions::default()
    }
}

/// The growth shapes behind the paper's Table 1: BSIM is `O(|I|·m)`,
/// linear in circuit size and in the test count; COV's covering search
/// grows with `k`; BSAT's instance grows as `Θ(|I|·m)`.
pub fn table1_shapes() -> Vec<CounterRow> {
    let mut rows = Vec::new();
    for size in [250usize, 500, 1000, 2000] {
        if let Some((w, tests)) = generated("scale", RandomCircuitSpec::new(16, 6, size), 1, 7, 8) {
            rows.push(measure("BSIM vs size (m=8)", size.to_string(), || {
                bsim(&w, &tests)
            }));
        }
    }
    let w = Workload::from_golden(
        "scale",
        RandomCircuitSpec::new(16, 6, 1000).seed(8).generate(),
        2,
        8,
    );
    for m in [4usize, 8, 16, 32] {
        if w.tests.len() >= m {
            let tests = w.tests.prefix(m);
            rows.push(measure("BSIM vs m (1000 gates)", format!("m={m}"), || {
                bsim(&w, &tests)
            }));
        }
    }
    if let Some((w, tests)) = generated("scale", RandomCircuitSpec::new(16, 6, 500), 2, 9, 8) {
        for k in [1usize, 2, 3] {
            rows.push(measure("COV vs k (cap 2000)", format!("k={k}"), || {
                let options = CovOptions {
                    max_solutions: 2_000,
                    ..CovOptions::default()
                };
                let result = sc_diagnose(&w.faulty, &tests, k, options);
                Outcome {
                    solutions: Some(result.solutions.len()),
                    complete: result.complete,
                    stats: None,
                }
            }));
        }
    }
    let w = Workload::from_golden(
        "scale",
        RandomCircuitSpec::new(16, 6, 500).seed(10).generate(),
        1,
        10,
    );
    for m in [4usize, 8, 16, 32] {
        if w.tests.len() >= m {
            let tests = w.tests.prefix(m);
            rows.push(measure(
                "BSAT vs m (k=1, cap 5000)",
                format!("m={m}"),
                || bsat(&w, &tests, 1, capped(5_000)),
            ));
        }
    }
    rows
}

/// The advanced techniques of Secs. 2.3 and 6: the mux encodings with
/// and without the `c = 0` pinning clauses, and BSAT against the
/// BSIM-seeded hybrid.
pub fn ablations() -> Vec<CounterRow> {
    let mut rows = Vec::new();
    if let Some((w, tests)) = generated("ablation500", RandomCircuitSpec::new(16, 6, 500), 2, 21, 8)
    {
        let encodings = [
            ("inline", MuxEncoding::Inline),
            (
                "explicit",
                MuxEncoding::ExplicitMux {
                    force_c_zero: false,
                },
            ),
            (
                "explicit+c0",
                MuxEncoding::ExplicitMux { force_c_zero: true },
            ),
        ];
        for (label, encoding) in encodings {
            rows.push(measure("mux encoding (cap 500)", label.to_string(), || {
                let options = BsatOptions {
                    encoding,
                    ..capped(500)
                };
                bsat(&w, &tests, w.p, options)
            }));
        }
        for (cap, group) in [(1, "first model"), (500, "enumeration (cap 500)")] {
            rows.push(measure(group, "BSAT".to_string(), || {
                bsat(&w, &tests, w.p, capped(cap))
            }));
            rows.push(measure(group, "hybrid".to_string(), || {
                hybrid_seeded_bsat(&w.faulty, &tests, w.p, capped(cap)).into()
            }));
        }
    }
    rows
}

/// The column header of [`format_row`], wall time last.
pub fn header() -> String {
    format!(
        "{:<26} {:>11} | {:>8} {:>7} {:>6} {:>10} {:>10} | {:>9} {:>9} {:>12} | {:>5} {:>8} | {:>8}",
        "run",
        "case",
        "clauses",
        "vars",
        "sweeps",
        "gate_evals",
        "prop_evals",
        "decisions",
        "conflicts",
        "propagations",
        "#sol",
        "complete",
        "wall_ms"
    )
}

/// One table line; the wall time is the last field, so a line with its
/// last field stripped is the same on every run.
pub fn format_row(row: &CounterRow) -> String {
    let solutions = row
        .solutions
        .map_or_else(|| "-".to_string(), |n| n.to_string());
    format!(
        "{:<26} {:>11} | {:>8} {:>7} {:>6} {:>10} {:>10} | {:>9} {:>9} {:>12} | {:>5} {:>8} | {:>8.1}",
        row.group,
        row.case,
        row.clauses,
        row.vars,
        row.sweeps,
        row.gate_evals,
        row.propagate_evals,
        row.stats.decisions,
        row.stats.conflicts,
        row.stats.propagations,
        solutions,
        if row.complete { "yes" } else { "no" },
        row.wall.as_secs_f64() * 1e3,
    )
}
