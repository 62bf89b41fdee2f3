//! `campaign-triage`: the campaign front door (`run_campaign`) over
//! `s1423_like` + `s6669_like`, all four fault models, p = 1, four
//! engines, two workers. Failing-test generation dominates here, and
//! inject plus the 2^15-vector search re-run once per engine.
//!
//! The instance matrix is fixed; the workload seed permutes the fault
//! model, seed and engine axes, which changes the order instances reach
//! the pool but not the set of instances, so each seed does the same
//! work and the canonical report has one pinned digest.

use crate::layers::{diagnosis_metrics, overhead_frac, repeated, TracedInstance};
use crate::pins;
use crate::util::{
    item_medians, mean, median, peak_rss_mb, quantile, ratio, repeat_setup, run_passes, timed, Fnv,
    HostClock, Outcome, Rng, RunConfig,
};
use gatediag_campaign::{
    run_campaign, CampaignReport, CampaignSpec, InstanceRecord, InstanceStatus,
};
use gatediag_core::{EngineKind, Parallelism};
use gatediag_netlist::{s1423_like, s6669_like, FaultModel};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

const WORKERS: usize = 2;

/// The canonical (matrix-order) spec.
fn setup(cfg: &RunConfig) -> CampaignSpec {
    // The larger circuit comes first in every order: its instances are
    // the longest, and starting them first keeps the pool's tail short.
    let mut circuits = Vec::new();
    if !cfg.smoke {
        circuits.push(("s6669_like".to_string(), s6669_like(1)));
    }
    circuits.push(("s1423_like".to_string(), s1423_like(1)));
    let mut canonical = CampaignSpec::new(circuits);
    canonical.error_counts = vec![1];
    canonical.engines = vec![
        EngineKind::Bsim,
        EngineKind::Cov,
        EngineKind::Bsat,
        EngineKind::Auto,
    ];
    if cfg.smoke {
        canonical.fault_models = vec![FaultModel::GateChange, FaultModel::StuckAt];
        canonical.seeds = vec![1];
    } else {
        canonical.fault_models = FaultModel::ALL.to_vec();
        canonical.seeds = vec![1, 2];
    }
    canonical.parallelism = Parallelism::Fixed(WORKERS);
    canonical
}

/// The spec one pass runs: the canonical matrix with its fault model,
/// seed and engine axes in a seeded order.
fn permuted(canonical: &CampaignSpec, mut rng: Rng) -> CampaignSpec {
    let mut spec = canonical.clone();
    rng.shuffle(&mut spec.fault_models);
    rng.shuffle(&mut spec.seeds);
    rng.shuffle(&mut spec.engines);
    spec
}

fn order(spec: &CampaignSpec) -> String {
    format!(
        "fault models {:?}, seeds {:?}, engines {:?}",
        spec.fault_models
            .iter()
            .map(|m| m.name())
            .collect::<Vec<_>>(),
        spec.seeds,
        spec.engines.iter().map(|e| e.name()).collect::<Vec<_>>()
    )
}

type Key = (String, &'static str, usize, u64, &'static str);

fn key(r: &InstanceRecord) -> Key {
    (
        r.circuit.clone(),
        r.fault_model.name(),
        r.p,
        r.seed,
        r.engine.name(),
    )
}

/// The report a matrix-order run would have produced: records are pure
/// functions of their instance, so reordering the permuted run's records
/// into canonical order must reproduce it byte for byte.
fn canonical_json(canonical: &CampaignSpec, report: &CampaignReport) -> String {
    let mut by_key: HashMap<Key, InstanceRecord> = report
        .records
        .iter()
        .map(|r| {
            let mut r = r.clone();
            r.obs = None;
            (key(&r), r)
        })
        .collect();
    let records: Vec<InstanceRecord> = canonical
        .instances()
        .iter()
        .filter_map(|inst| {
            let k = (
                canonical.circuits[inst.circuit].0.clone(),
                inst.fault_model.name(),
                inst.p,
                inst.seed,
                inst.engine.name(),
            );
            by_key.remove(&k)
        })
        .collect();
    CampaignReport::new(canonical, records).to_json(false)
}

struct Pass {
    traced: bool,
    start: Instant,
    wall_s: f64,
    report_ms: f64,
    report: CampaignReport,
}

fn status_counters(report: &CampaignReport) -> BTreeMap<String, u64> {
    let mut c = BTreeMap::new();
    for r in &report.records {
        *c.entry(format!("status.{}", r.status.name())).or_insert(0) += 1;
        *c.entry("solutions".to_string()).or_insert(0) += r.solutions as u64;
        *c.entry("candidates".to_string()).or_insert(0) += r.candidates as u64;
        *c.entry("tests".to_string()).or_insert(0) += r.tests as u64;
        *c.entry("conflicts".to_string()).or_insert(0) += r.conflicts;
        *c.entry("propagations".to_string()).or_insert(0) += r.propagations;
        *c.entry("hits".to_string()).or_insert(0) += u64::from(r.hit);
    }
    c
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut clock = HostClock::new();
    let (canonical, setup_s) = repeat_setup(&mut clock, || setup(cfg));
    let pinned = if cfg.smoke {
        pins::CAMPAIGN_SMOKE
    } else {
        pins::CAMPAIGN_FULL
    };

    let passes = run_passes(cfg, 2, &mut clock, |i, traced, clock| {
        let mut spec = permuted(&canonical, Rng::for_pass(cfg.seed, i));
        spec.collect_obs = traced;
        if i == 0 {
            out.info("order_first_pass", order(&spec));
        }
        let start = Instant::now();
        let report = clock.during(|| run_campaign(&spec));
        let (json, _, report_s) = timed(|| report.to_json(false));
        std::hint::black_box(json);
        Ok(Pass {
            traced,
            start,
            wall_s: start.elapsed().as_secs_f64(),
            report_ms: report_s * 1e3,
            report,
        })
    })?;
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");

    // Output checks: every pass must reproduce the pinned canonical
    // report; failed records count as failed operations.
    let mut digests = Vec::new();
    for (i, pass) in passes.iter().enumerate() {
        let mut json = canonical_json(&canonical, &pass.report);
        if cfg.corrupt && i == 0 {
            json.push(' ');
        }
        let mut h = Fnv::new();
        h.write(json.as_bytes());
        let digest = h.finish();
        digests.push(digest);
        let n = pass.report.records.len() as u64;
        out.attempted += n;
        if digest != pinned {
            out.failed += n;
        } else {
            out.failed += pass
                .report
                .records
                .iter()
                .filter(|r| r.status == InstanceStatus::Failed)
                .count() as u64;
        }
    }
    out.check_digests(&digests, pinned);
    let (first_counters, mut counters_repeat) =
        repeated(passes.iter().map(|p| status_counters(&p.report)));

    // End-to-end figures from the untraced passes, in reference-host
    // time: the workers run inside `run_campaign`, so each pass is
    // scaled by the host speed around it as a whole.
    let plain: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let speed = |p: &Pass| clock.speed(p.start, p.wall_s);
    let throughput: Vec<f64> = plain
        .iter()
        .map(|p| p.report.records.len() as f64 / (p.wall_s * speed(p)))
        .collect();
    let lat = item_medians(plain.iter().flat_map(|p| {
        let s = speed(p);
        p.report
            .records
            .iter()
            .map(move |r| (key(r), r.wall_ms * s))
    }));
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
        "campaign instance wall_ms as the runner records it, in reference-host ms, median over the untraced passes per instance",
    );
    clock.report(&mut out);

    let utilisation: Vec<f64> = passes
        .iter()
        .map(|p| {
            let busy: f64 = p.report.records.iter().map(|r| r.wall_ms).sum();
            busy / (p.wall_s * 1e3 * WORKERS as f64)
        })
        .collect();
    out.metric("campaign.pool_utilisation", mean(&utilisation), "ratio");
    out.metric(
        "campaign.report_ms",
        mean(&passes.iter().map(|p| p.report_ms).collect::<Vec<_>>()),
        "ms",
    );
    out.counters.extend(first_counters);

    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    if !traced.is_empty() {
        let instances: Vec<Vec<TracedInstance>> = traced
            .iter()
            .map(|p| p.report.records.iter().map(traced_instance).collect())
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
    out.info("instances_per_pass", passes[0].report.records.len());
    out.info("workers", WORKERS);
    out.info("counters_repeat", counters_repeat);
    Ok(out)
}

fn traced_instance(r: &InstanceRecord) -> TracedInstance<'_> {
    let tested = r.status != InstanceStatus::NotInjectable && r.status != InstanceStatus::Failed;
    let engine_ran = r.status == InstanceStatus::Ok || r.status == InstanceStatus::Preempted;
    TracedInstance {
        trace: r.obs.as_ref(),
        sequential: false,
        wall_ms: r.wall_ms,
        prepare: tested
            .then(|| format!("{}/{}/{}/{}", r.circuit, r.fault_model.name(), r.p, r.seed)),
        no_failing: r.status == InstanceStatus::NoFailingTests,
        engine: engine_ran.then_some((r.solutions, r.complete)),
    }
}
