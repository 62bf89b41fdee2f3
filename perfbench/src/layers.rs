//! Per-layer attribution of obs span trees.
//!
//! The program records one span per pipeline phase (`instance`,
//! `inject`, `tests`, `engine`, `trace`, `cover`, `screen`, `solve`,
//! `encode`, `enumerate`, `testgen`). A layer's self time is its span's
//! wall time minus the wall time of its child spans; this module maps
//! each span onto the repository module that does the work and sums
//! self times and in-span counter deltas per layer. The per-layer
//! metrics the diagnosis workloads share are computed here once.

use crate::util::{median, ratio, Outcome};
use gatediag_obs::ObsTrace;
use std::collections::{BTreeMap, BTreeSet};

/// Layers whose self time is not attributed to any module: the
/// campaign's root `instance` span and spans this map does not know.
const UNATTRIBUTED: [&str; 2] = ["campaign.instance_self_ms", "other.ms"];

/// Per-layer self times every diagnosis workload reports, per pass.
const LAYER_MS: [&str; 10] = [
    "netlist.inject_ms",
    "tests.ms",
    "bsim.trace_ms",
    "cov.cover_ms",
    "validity.screen_ms",
    "cnf.encode_ms",
    "sat.solve_ms",
    "seq.tests_ms",
    "seq.engine_ms",
    "campaign.instance_self_ms",
];

/// Deterministic obs counters reported as per-pass counts.
pub const COUNTS: [&str; 8] = [
    "sim.sweeps",
    "sim.gate_evals",
    "sim.seq_frames",
    "validity.dispatch.sim",
    "validity.dispatch.sat",
    "cnf.clauses",
    "sat.conflicts",
    "sat.propagations",
];

/// Self time (ns) per layer name plus selected in-span counter deltas.
#[derive(Default)]
struct LayerSums {
    self_ns: BTreeMap<&'static str, u64>,
    /// Clauses charged inside `encode` spans.
    encode_clauses: u64,
    /// Propagations charged inside combinational `solve` spans.
    solve_propagations: u64,
    /// `tests` spans seen (test-generation calls).
    tests_calls: u64,
    /// Deterministic counter totals.
    counters: BTreeMap<String, u64>,
}

fn layer_of(name: &str, sequential: bool) -> &'static str {
    match (name, sequential) {
        ("instance", _) => "campaign.instance_self_ms",
        ("inject", _) => "netlist.inject_ms",
        ("tests", false) => "tests.ms",
        ("tests", true) => "seq.tests_ms",
        ("engine", _) => "engine.dispatch_ms",
        ("trace", false) => "bsim.trace_ms",
        ("cover", _) => "cov.cover_ms",
        ("screen", _) => "validity.screen_ms",
        ("encode", _) => "cnf.encode_ms",
        ("solve" | "enumerate", false) => "sat.solve_ms",
        ("trace" | "solve", true) => "seq.engine_ms",
        ("testgen", _) => "testgen.ms",
        _ => "other.ms",
    }
}

fn span_counter(counters: &[(String, u64)], name: &str) -> u64 {
    counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

impl LayerSums {
    /// Adds one instance's trace. `sequential` marks the sequential
    /// pipeline, whose tests and engine spans get their own layers.
    fn add(&mut self, trace: &ObsTrace, sequential: bool) {
        let spans = &trace.spans;
        for (i, span) in spans.iter().enumerate() {
            let children: u64 = spans[i + 1..]
                .iter()
                .take_while(|s| s.depth > span.depth)
                .filter(|s| s.depth == span.depth + 1)
                .map(|s| s.wall_ns)
                .sum();
            let layer = layer_of(&span.name, sequential);
            *self.self_ns.entry(layer).or_insert(0) += span.wall_ns.saturating_sub(children);
            match span.name.as_str() {
                "encode" => self.encode_clauses += span_counter(&span.counters, "cnf.clauses"),
                "solve" if !sequential => {
                    self.solve_propagations += span_counter(&span.counters, "sat.propagations");
                }
                "tests" => self.tests_calls += 1,
                _ => {}
            }
        }
        for (name, value) in &trace.counters {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
    }

    fn ms(&self, layer: &str) -> f64 {
        self.self_ns.get(layer).copied().unwrap_or(0) as f64 / 1e6
    }

    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Self time of every layer a module accounts for, in ms.
    fn attributed_ms(&self) -> f64 {
        self.self_ns
            .iter()
            .filter(|(layer, _)| !UNATTRIBUTED.contains(layer))
            .map(|(_, ns)| *ns)
            .sum::<u64>() as f64
            / 1e6
    }
}

/// One diagnosis instance of a traced pass.
pub struct TracedInstance<'a> {
    pub trace: Option<&'a ObsTrace>,
    pub sequential: bool,
    pub wall_ms: f64,
    /// The (circuit, fault model, p, seed) it prepared, when it got past
    /// injection and generated tests.
    pub prepare: Option<String>,
    /// Tests ran but none failed, so no engine ran.
    pub no_failing: bool,
    /// Solution count and completeness, when an engine ran.
    pub engine: Option<(usize, bool)>,
}

/// The first of several per-pass values, and whether all are equal.
pub fn repeated<T: PartialEq + Default>(per_pass: impl IntoIterator<Item = T>) -> (T, bool) {
    let mut per_pass = per_pass.into_iter();
    let first = per_pass.next().unwrap_or_default();
    let same = per_pass.all(|other| other == first);
    (first, same)
}

/// `obs.overhead_frac` from every pass's (traced, wall seconds): median
/// traced pass wall over median untraced pass wall, minus one.
pub fn overhead_frac(out: &mut Outcome, passes: impl IntoIterator<Item = (bool, f64)>) {
    let (mut traced, mut plain) = (Vec::new(), Vec::new());
    for (is_traced, wall) in passes {
        if is_traced {
            traced.push(wall)
        } else {
            plain.push(wall)
        }
    }
    out.metric(
        "obs.overhead_frac",
        ratio(median(&traced), median(&plain)) - 1.0,
        "ratio",
    );
}

/// Emits the per-layer metrics the diagnosis workloads share, from the
/// instances of each traced pass. Returns the first pass's obs counters
/// and whether every pass repeated them exactly.
pub fn diagnosis_metrics(
    out: &mut Outcome,
    passes: &[Vec<TracedInstance>],
) -> (BTreeMap<String, u64>, bool) {
    let mut sums = LayerSums::default();
    let mut per_pass = Vec::new();
    let mut prepares = BTreeSet::new();
    let (mut ran_tests, mut no_failing) = (0u64, 0u64);
    let (mut wall_all, mut wall_no_failing) = (0.0, 0.0);
    let (mut solutions, mut engine_runs, mut complete) = (0u64, 0u64, 0u64);
    for pass in passes {
        let mut pass_sums = LayerSums::default();
        for inst in pass {
            if let Some(trace) = inst.trace {
                sums.add(trace, inst.sequential);
                pass_sums.add(trace, inst.sequential);
            }
            wall_all += inst.wall_ms;
            if let Some(key) = &inst.prepare {
                ran_tests += 1;
                prepares.insert(key.clone());
            }
            if inst.no_failing {
                no_failing += 1;
                wall_no_failing += inst.wall_ms;
            }
            if let Some((n, done)) = inst.engine {
                engine_runs += 1;
                solutions += n as u64;
                complete += u64::from(done);
            }
        }
        per_pass.push(pass_sums.counters);
    }
    let n = passes.len() as f64;
    let per = |v: f64| v / n;
    for layer in LAYER_MS {
        if sums.self_ns.contains_key(layer) {
            out.metric(layer, per(sums.ms(layer)), "ms");
        }
    }
    for name in COUNTS {
        if sums.counters.contains_key(name) {
            out.metric(name, per(sums.counter(name) as f64), "count");
        }
    }
    out.metric(
        "tests.calls_per_prepare",
        ratio(sums.tests_calls as f64, prepares.len() as f64 * n),
        "ratio",
    );
    out.metric(
        "tests.no_failing_share",
        ratio(no_failing as f64, ran_tests as f64),
        "ratio",
    );
    out.metric(
        "tests.no_failing_time_share",
        ratio(wall_no_failing, wall_all),
        "ratio",
    );
    out.metric(
        "sim.gate_evals_per_s",
        ratio(sums.counter("sim.gate_evals") as f64, wall_all / 1e3),
        "1/s",
    );
    out.metric(
        "cnf.clauses_per_s",
        ratio(sums.encode_clauses as f64, sums.ms("cnf.encode_ms") / 1e3),
        "1/s",
    );
    out.metric(
        "sat.props_per_s",
        ratio(
            sums.solve_propagations as f64,
            sums.ms("sat.solve_ms") / 1e3,
        ),
        "1/s",
    );
    out.metric("engine.solutions", per(solutions as f64), "count");
    out.metric(
        "engine.complete_share",
        ratio(complete as f64, engine_runs as f64),
        "ratio",
    );
    // Self time a module's span accounts for, over the instances' wall
    // time: the root span's own time and unknown spans count as missing.
    out.metric(
        "layers.attributed_share",
        ratio(sums.attributed_ms(), wall_all),
        "ratio",
    );
    repeated(per_pass)
}
