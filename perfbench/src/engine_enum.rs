//! `engine-enum`: the library front door (`run_diagnose`), one instance
//! at a time. Cover, encode and solve/enumerate dominate; tests are a
//! small share. It is the only workload that covers `SeqPackedSim`,
//! unrolling and sequential SAT.
//!
//! The instance list is fixed; the workload seed shuffles the order in
//! which instances run. The host clock ticks after every instance, so
//! each instance's time is scaled by the host speed right around it.

use crate::layers::{diagnosis_metrics, overhead_frac, repeated, TracedInstance};
use crate::pins;
use crate::util::{
    item_medians, median, peak_rss_mb, quantile, ratio, repeat_setup, run_passes, timed, Fnv,
    HostClock, Outcome, Rng, RunConfig,
};
use gatediag_core::{
    run_diagnose, solution_quality, ChaosPolicy, DiagnoseOutcome, DiagnoseRequest, EngineKind,
    Parallelism,
};
use gatediag_netlist::{s1423_like, Circuit, GateId, RandomCircuitSpec};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

struct Item {
    label: String,
    circuit: usize,
    request: DiagnoseRequest,
}

struct Setup {
    circuits: Vec<Circuit>,
    /// Items in canonical order.
    items: Vec<Item>,
}

fn setup(cfg: &RunConfig) -> Setup {
    // The demo campaign's latch circuit: the sequential workload.
    let circuits = vec![
        s1423_like(1),
        RandomCircuitSpec::new(10, 5, 160)
            .latches(4)
            .seed(9)
            .name("rnd160")
            .generate(),
    ];
    // (p, seed) cells. One p = 4 cell keeps a pass short enough that
    // many passes fit in a run.
    let (cells, seeds): (&[(usize, u64)], &[u64]) = if cfg.smoke {
        (&[(2, 1)], &[1])
    } else {
        (&[(2, 1), (2, 2), (2, 3), (4, 3)], &[1, 2, 3])
    };
    let mut items = Vec::new();
    for engine in [EngineKind::Cov, EngineKind::Bsat, EngineKind::Auto] {
        for &(p, seed) in cells {
            let request = DiagnoseRequest {
                engine,
                p,
                seed,
                max_solutions: 1000,
                ..DiagnoseRequest::default()
            };
            items.push(Item {
                label: format!("s1423_like/{}/p{p}/s{seed}", engine.name()),
                circuit: 0,
                request,
            });
        }
    }
    for engine in EngineKind::SEQUENTIAL {
        for &seed in seeds {
            let request = DiagnoseRequest {
                engine,
                p: 2,
                seed,
                frames: Some(3),
                ..DiagnoseRequest::default()
            };
            items.push(Item {
                label: format!("rnd160/{}/p2/s{seed}/f3", engine.name()),
                circuit: 1,
                request,
            });
        }
    }
    for item in &mut items {
        item.request = item
            .request
            .validated()
            .expect("benchmark requests are valid");
    }
    Setup { circuits, items }
}

struct Run {
    /// The outcome itself, kept for the first pass only (for the quality
    /// figures), so that memory does not grow with the pass count.
    outcome: Option<DiagnoseOutcome>,
    /// Raw wall time of the `run_diagnose` call.
    wall_ms: f64,
    /// `wall_ms` in reference-host time.
    ref_ms: f64,
    trace: Option<gatediag_obs::ObsTrace>,
    /// Test generation ran (the instance got past injection).
    tested: bool,
    /// Solution count and completeness, when an engine ran.
    engine: Option<(usize, bool)>,
}

struct Pass {
    traced: bool,
    /// Sum of the instances' raw wall times (the ticks between them
    /// excluded).
    wall_s: f64,
    /// Per item, canonical order.
    runs: Vec<Run>,
    /// Digest of the canonical output lines, in canonical order.
    digest: u64,
    panicked: u64,
    counters: BTreeMap<String, u64>,
}

/// Runs every item once, in `order` (indices into `setup.items`),
/// ticking `clock` after each. `keep` keeps the outcomes; `corrupt`
/// alters the first item's output line.
fn run_pass(
    setup: &Setup,
    order: &[usize],
    traced: bool,
    clock: &mut HostClock,
    keep: bool,
    corrupt: bool,
) -> Pass {
    let n = setup.items.len();
    let mut runs: Vec<Option<Run>> = (0..n).map(|_| None).collect();
    let mut lines = vec![String::new(); n];
    let mut counters = BTreeMap::new();
    let (mut wall_s, mut panicked) = (0.0, 0);
    for &i in order {
        let item = &setup.items[i];
        let golden = &setup.circuits[item.circuit];
        let sink = traced.then(|| Arc::new(gatediag_obs::Sink::new()));
        let guard = sink.as_ref().map(|s| gatediag_obs::install(Arc::clone(s)));
        let (outcome, from, secs) = timed(|| {
            catch_unwind(AssertUnwindSafe(|| {
                run_diagnose(
                    golden,
                    &item.request,
                    Parallelism::Sequential,
                    ChaosPolicy::off(),
                )
            }))
            .ok()
        });
        drop(guard);
        clock.tick();
        wall_s += secs;
        panicked += u64::from(outcome.is_none());
        lines[i] = canonical_line(item, outcome.as_ref());
        count(&mut counters, item, outcome.as_ref());
        let engine_run = outcome.as_ref().and_then(|o| o.run.as_ref());
        runs[i] = Some(Run {
            wall_ms: secs * 1e3,
            ref_ms: clock.reference_secs(from, secs) * 1e3,
            trace: sink.map(|s| s.take_trace()),
            tested: outcome.as_ref().is_some_and(|o| o.faulty.is_some()),
            engine: engine_run.map(|r| (r.solutions.len(), r.complete)),
            outcome: if keep { outcome } else { None },
        });
    }
    if corrupt {
        lines[0].push(' ');
    }
    let mut h = Fnv::new();
    for line in &lines {
        h.field(line.as_bytes());
    }
    Pass {
        traced,
        wall_s,
        panicked,
        runs: runs
            .into_iter()
            .map(|r| r.expect("every item ran"))
            .collect(),
        digest: h.finish(),
        counters,
    }
}

fn gates(list: &[GateId]) -> Vec<usize> {
    list.iter().map(|g| g.index()).collect()
}

/// The deterministic output of one instance: status, test count and
/// the full solution list.
fn canonical_line(item: &Item, outcome: Option<&DiagnoseOutcome>) -> String {
    match outcome {
        None => format!("{} panicked", item.label),
        Some(o) => {
            let mut line = format!(
                "{} status={} tests={} injected={:?}",
                item.label,
                o.status.name(),
                o.tests,
                o.faults.iter().map(|f| f.gate.index()).collect::<Vec<_>>()
            );
            if let Some(r) = &o.run {
                line.push_str(&format!(
                    " complete={} truncation={} candidates={:?} solutions={:?}",
                    r.complete,
                    r.truncation.map_or("none", |t| t.name()),
                    gates(&r.candidates),
                    r.solutions.iter().map(|s| gates(s)).collect::<Vec<_>>()
                ));
            }
            line
        }
    }
}

/// Table 3-style quality per engine: hits (an injected site among the
/// candidates), mean solution count and mean distance from the reported
/// gates to the nearest injected site.
fn quality(setup: &Setup, pass: &Pass, out: &mut Outcome) {
    let mut per: BTreeMap<&str, (u64, u64, u64, f64, u64)> = BTreeMap::new();
    for (item, run) in setup.items.iter().zip(&pass.runs) {
        let Some(o) = &run.outcome else { continue };
        let (Some(r), Some(faulty)) = (&o.run, &o.faulty) else {
            continue;
        };
        let errors: Vec<GateId> = o.faults.iter().map(|f| f.gate).collect();
        let e = per.entry(item.request.engine.name()).or_default();
        e.0 += 1;
        e.1 += u64::from(r.candidates.iter().any(|g| errors.contains(g)));
        e.2 += r.solutions.len() as u64;
        if !r.solutions.is_empty() {
            e.3 += solution_quality(faulty, &r.solutions, &errors).avg;
            e.4 += 1;
        }
    }
    for (engine, (runs, hits, sols, dist, scored)) in per {
        out.exact
            .insert(format!("quality.{engine}.hits"), format!("{hits}/{runs}"));
        out.exact.insert(
            format!("quality.{engine}.mean_solutions"),
            format!("{:.4}", ratio(sols as f64, runs as f64)),
        );
        out.exact.insert(
            format!("quality.{engine}.mean_distance"),
            format!("{:.4}", ratio(dist, scored as f64)),
        );
    }
    out.info(
        "quality_note",
        "synthetic-profile circuits: no paper reference figure, so no reference error",
    );
}

/// Adds one instance's deterministic counts: status, and per engine its
/// solutions, conflicts and propagations.
fn count(c: &mut BTreeMap<String, u64>, item: &Item, outcome: Option<&DiagnoseOutcome>) {
    let status = outcome.map_or("panicked", |o| o.status.name());
    *c.entry(format!("status.{status}")).or_insert(0) += 1;
    if let Some(r) = outcome.and_then(|o| o.run.as_ref()) {
        let e = item.request.engine.name();
        *c.entry(format!("solutions.{e}")).or_insert(0) += r.solutions.len() as u64;
        *c.entry(format!("conflicts.{e}")).or_insert(0) += r.stats.conflicts;
        *c.entry(format!("propagations.{e}")).or_insert(0) += r.stats.propagations;
    }
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut clock = HostClock::new();
    let (setup, setup_s) = repeat_setup(&mut clock, || setup(cfg));
    let pinned = if cfg.smoke {
        pins::ENGINE_SMOKE
    } else {
        pins::ENGINE_FULL
    };

    // Three passes at least, so each instance's median discards one
    // disturbed run.
    let passes = run_passes(cfg, 3, &mut clock, |i, traced, clock| {
        let mut order: Vec<usize> = (0..setup.items.len()).collect();
        Rng::for_pass(cfg.seed, i).shuffle(&mut order);
        if i == 0 {
            let labels: Vec<&str> = order
                .iter()
                .map(|&i| setup.items[i].label.as_str())
                .collect();
            out.info("order_first_pass", labels.join(" "));
        }
        Ok(run_pass(
            &setup,
            &order,
            traced,
            clock,
            i == 0,
            cfg.corrupt && i == 0,
        ))
    })?;
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");

    for pass in &passes {
        let n = pass.runs.len() as u64;
        out.attempted += n;
        out.failed += if pass.digest == pinned {
            pass.panicked
        } else {
            n
        };
    }
    let digests: Vec<u64> = passes.iter().map(|p| p.digest).collect();
    out.check_digests(&digests, pinned);
    let (first_counters, mut counters_repeat) =
        repeated(passes.iter().map(|pass| pass.counters.clone()));

    // End-to-end figures from the untraced passes, in reference-host
    // time. Latencies are per-instance medians over the passes, so one
    // instance's time in a disturbed pass does not move them.
    let plain: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let throughput: Vec<f64> = plain
        .iter()
        .map(|p| p.runs.len() as f64 / (p.runs.iter().map(|r| r.ref_ms).sum::<f64>() / 1e3))
        .collect();
    let lat = item_medians(
        plain
            .iter()
            .flat_map(|p| p.runs.iter().enumerate().map(|(i, r)| (i, r.ref_ms))),
    );
    let setup_ref: Vec<f64> = setup_s
        .iter()
        .map(|&(from, secs)| clock.reference_secs(from, secs))
        .collect();
    out.metric("setup_s", median(&setup_ref), "s");
    out.metric("instances_per_s", median(&throughput), "1/s");
    out.metric("latency_p50_ms", median(&lat), "ms");
    out.metric("latency_p99_ms", quantile(&lat, 0.99), "ms");
    out.metric(
        "error_rate",
        ratio(out.failed as f64, out.attempted as f64),
        "ratio",
    );
    out.info("latency_samples", lat.len());
    out.info(
        "latency_unit",
        "one run_diagnose call in reference-host ms, median over the untraced passes per instance",
    );
    clock.report(&mut out);

    quality(&setup, &passes[0], &mut out);
    out.counters.extend(first_counters);

    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    if !traced.is_empty() {
        let instances: Vec<Vec<TracedInstance>> = traced
            .iter()
            .map(|pass| {
                setup
                    .items
                    .iter()
                    .zip(&pass.runs)
                    .map(|(item, run)| traced_instance(item, run))
                    .collect()
            })
            .collect();
        let (obs, obs_repeat) = diagnosis_metrics(&mut out, &instances);
        counters_repeat &= obs_repeat;
        for (name, value) in obs {
            out.counters.insert(format!("obs.{name}"), value);
        }
        overhead_frac(&mut out, passes.iter().map(|p| (p.traced, p.wall_s)));
    }

    out.info("seed", cfg.seed);
    out.info("passes", passes.len());
    let walls: Vec<String> = passes.iter().map(|p| format!("{:.3}", p.wall_s)).collect();
    out.info("pass_walls_s", walls.join(" "));
    out.info("instances_per_pass", setup.items.len());
    out.info("counters_repeat", counters_repeat);
    Ok(out)
}

fn traced_instance<'a>(item: &Item, run: &'a Run) -> TracedInstance<'a> {
    let r = &item.request;
    let sequential = r.engine.is_sequential();
    TracedInstance {
        trace: run.trace.as_ref(),
        sequential,
        wall_ms: run.wall_ms,
        prepare: run.tested.then(|| {
            format!(
                "{}/{}/{}/{}/{sequential}",
                item.circuit,
                r.fault_model.name(),
                r.p,
                r.seed
            )
        }),
        no_failing: run.tested && run.engine.is_none(),
        engine: run.engine,
    }
}
