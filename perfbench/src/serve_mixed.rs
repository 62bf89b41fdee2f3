//! `serve-mixed`: the daemon front door. An in-process `serve_tcp`
//! daemon with two service workers is driven by two closed-loop
//! `Client`s over TCP, one connection each.
//!
//! Traffic is p = 1 diagnose requests, mostly on `s1423_like` with a
//! minority on `s6669_like`. Requests come in groups that share
//! (circuit, fault model, seed) across the four engines. A fixed
//! fraction of requests repeats an earlier request exactly, at least
//! `REPEAT_DISTANCE` requests after it, so the original has long
//! finished and the repeat is a session memo hit; every other request is
//! a memo miss. Each pass gets a fresh daemon, so its memo starts cold.
//!
//! The pool of distinct requests is fixed; the workload seed chooses,
//! per pass, the group order, the engine order within a group and which
//! requests repeat where.

use crate::layers::{overhead_frac, repeated, COUNTS};
use crate::pins;
use crate::util::{median, peak_rss_mb, quantile, ratio, timed, Fnv, Outcome, Rng};
use crate::util::{run_passes, setup_done, HostClock, RunConfig};
use gatediag_core::json::{parse_json, Json};
use gatediag_core::{DiagnoseRequest, EngineKind};
use gatediag_netlist::{s1423_like, s6669_like, write_bench, FaultModel};
use gatediag_serve::{
    parse_request, render_diagnose_request, serve_tcp, CircuitRegistry, Client, DiagnoseCall,
    Service, ServiceConfig,
};
use std::collections::{BTreeMap, BTreeSet};
use std::net::TcpListener;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

const WORKERS: usize = 2;
const CLIENTS: usize = 2;
/// Exact repeats per distinct request.
const REPEAT_PER_DISTINCT: f64 = 0.3;
/// Fresh requests between a repeat and its original (full scale).
const REPEAT_DISTANCE: usize = 48;
const S1423_SEEDS: u64 = 8;
const S6669_SEEDS: u64 = 1;
const SHUTDOWN: &str = "{\"schema\": \"gatediag-serve-v1\", \"op\": \"shutdown\"}";
const ENGINES: [EngineKind; 4] = [
    EngineKind::Bsim,
    EngineKind::Cov,
    EngineKind::Bsat,
    EngineKind::Auto,
];

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Class {
    /// First request of its (circuit, model, seed) group.
    Cold,
    /// Same group as an earlier request, other engine.
    SamePrepare,
    /// Byte-identical to an earlier request.
    Repeat,
}

struct Distinct {
    circuit: usize,
    model: FaultModel,
    seed: u64,
    engine: EngineKind,
}

struct Circuits {
    names: [&'static str; 2],
    benches: Vec<String>,
}

/// Circuit generation and bench rendering: the load generator's inputs.
fn circuits() -> Circuits {
    Circuits {
        names: ["s1423_like", "s6669_like"],
        benches: vec![write_bench(&s1423_like(1)), write_bench(&s6669_like(1))],
    }
}

/// The fixed pool of distinct requests, group by group (four engines
/// per group).
fn pool(smoke: bool) -> Vec<Distinct> {
    let (s1423, s6669) = if smoke {
        (2, 1)
    } else {
        (S1423_SEEDS, S6669_SEEDS)
    };
    let models: &[FaultModel] = if smoke {
        &[FaultModel::GateChange, FaultModel::StuckAt]
    } else {
        &FaultModel::ALL
    };
    let mut pool = Vec::new();
    for (circuit, seeds) in [(0usize, s1423), (1, s6669)] {
        for &model in models {
            for seed in 1..=seeds {
                pool.extend(ENGINES.map(|engine| Distinct {
                    circuit,
                    model,
                    seed,
                    engine,
                }));
            }
        }
    }
    pool
}

struct Slot {
    distinct: usize,
    class: Class,
}

/// One pass's request stream. The `s6669_like` groups are spread evenly
/// and none comes last, so neither client ends a pass alone on a long
/// request.
fn stream(pool: &[Distinct], mut rng: Rng, distance: usize) -> Vec<Slot> {
    let groups = pool.len() / ENGINES.len();
    let (mut heavy, mut light): (Vec<usize>, Vec<usize>) =
        (0..groups).partition(|&g| pool[g * ENGINES.len()].circuit == 1);
    rng.shuffle(&mut heavy);
    rng.shuffle(&mut light);
    let mut order = Vec::with_capacity(groups);
    let mut taken = 0;
    for (i, &h) in heavy.iter().enumerate() {
        let upto = i * light.len() / heavy.len();
        order.extend_from_slice(&light[taken..upto]);
        taken = upto;
        order.push(h);
    }
    order.extend_from_slice(&light[taken..]);
    let mut fresh = Vec::with_capacity(pool.len());
    for g in order {
        let mut engines: Vec<usize> = (0..ENGINES.len()).map(|e| g * ENGINES.len() + e).collect();
        rng.shuffle(&mut engines);
        fresh.extend(engines);
    }
    // A repeat goes after `k > distance` fresh requests and copies one of
    // the first `k - distance` of them.
    let repeats = (fresh.len() as f64 * REPEAT_PER_DISTINCT).round() as usize;
    let mut at: Vec<usize> = (0..repeats)
        .map(|_| distance + 1 + rng.below(fresh.len() - distance))
        .collect();
    at.sort_unstable();
    let mut slots = Vec::with_capacity(fresh.len() + repeats);
    let mut seen_groups = BTreeSet::new();
    let mut next_repeat = at.iter().peekable();
    for k in 0..=fresh.len() {
        while next_repeat.next_if(|&&a| a == k).is_some() {
            slots.push(Slot {
                distinct: fresh[rng.below(k - distance)],
                class: Class::Repeat,
            });
        }
        if let Some(&distinct) = fresh.get(k) {
            let class = if seen_groups.insert(distinct / ENGINES.len()) {
                Class::Cold
            } else {
                Class::SamePrepare
            };
            slots.push(Slot { distinct, class });
        }
    }
    slots
}

fn render_lines(pool: &[Distinct], circuits: &Circuits, obs: bool) -> Vec<String> {
    pool.iter()
        .map(|d| {
            render_diagnose_request(&DiagnoseCall {
                circuit: Some(circuits.names[d.circuit].to_string()),
                bench: circuits.benches[d.circuit].clone(),
                request: DiagnoseRequest {
                    engine: d.engine,
                    fault_model: d.model,
                    p: 1,
                    seed: d.seed,
                    ..DiagnoseRequest::default()
                },
                chaos: None,
                obs,
                timing: false,
            })
        })
        .collect()
}

fn new_service(circuits: &Circuits) -> Arc<Service> {
    let service = Arc::new(Service::new(ServiceConfig {
        workers: WORKERS,
        ..ServiceConfig::default()
    }));
    // Registry warm-up: both circuits are parsed before traffic starts.
    for (name, bench) in circuits.names.iter().zip(&circuits.benches) {
        service
            .registry()
            .get_or_parse(bench, Some(name))
            .expect("generated circuits parse");
    }
    service
}

struct Daemon {
    service: Arc<Service>,
    addr: String,
    accept_loop: JoinHandle<std::io::Result<()>>,
}

/// Set-up of one pass: circuit generation, daemon start and registry
/// warm-up.
fn start_daemon() -> Result<(Circuits, Daemon), String> {
    let circuits = circuits();
    let service = new_service(&circuits);
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?
        .to_string();
    let accept_service = Arc::clone(&service);
    let accept_loop = std::thread::spawn(move || serve_tcp(accept_service, listener));
    Ok((
        circuits,
        Daemon {
            service,
            addr,
            accept_loop,
        },
    ))
}

impl Daemon {
    fn stop(self) -> Result<(), String> {
        let bye = Client::connect(&self.addr)
            .and_then(|mut c| c.request(SHUTDOWN))
            .map_err(|e| format!("shutdown request: {e}"))?;
        if !bye.contains("\"status\": \"ok\"") {
            return Err(format!("shutdown refused: {bye}"));
        }
        self.accept_loop
            .join()
            .map_err(|_| "accept loop panicked".to_string())?
            .map_err(|e| format!("accept loop: {e}"))
    }
}

struct Pass {
    traced: bool,
    slots: Vec<Slot>,
    start: Instant,
    wall_s: f64,
    /// Per slot: when it was sent, client latency and response (`None`
    /// on a transport error).
    replies: Vec<(Instant, f64, Option<String>)>,
    memo_hits: u64,
    memo_misses: u64,
    registry_hits: u64,
    registry_misses: u64,
}

fn run_pass(
    daemon: &Daemon,
    circuits: &Circuits,
    lines: &[String],
    slots: Vec<Slot>,
    traced: bool,
) -> Pass {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let replies = Mutex::new(vec![(start, 0.0, None); slots.len()]);
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                let mut client = Client::connect(&daemon.addr).ok();
                let mut local = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= slots.len() {
                        break;
                    }
                    let t = Instant::now();
                    let response = client
                        .as_mut()
                        .and_then(|c| c.request(&lines[slots[i].distinct]).ok());
                    local.push((i, (t, t.elapsed().as_secs_f64() * 1e3, response)));
                }
                let mut all = replies.lock().expect("no client panics holding the lock");
                for (i, reply) in local {
                    all[i] = reply;
                }
            });
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    let registry = daemon.service.registry().stats();
    let (mut memo_hits, mut memo_misses) = (0, 0);
    for (name, bench) in circuits.names.iter().zip(&circuits.benches) {
        if let Ok((session, _)) = daemon.service.registry().get_or_parse(bench, Some(name)) {
            memo_hits += session.warm_hits();
            memo_misses += session.cold_runs();
        }
    }
    Pass {
        traced,
        slots,
        start,
        wall_s,
        replies: replies.into_inner().expect("clients joined"),
        memo_hits,
        memo_misses,
        registry_hits: registry.hits,
        registry_misses: registry.misses,
    }
}

/// The response without its opt-in `meta` object (always the last
/// field): the bytes an untraced request gets.
fn strip_meta(response: &str) -> String {
    match response.rfind(", \"meta\": {") {
        Some(i) => format!("{}}}", &response[..i]),
        None => response.to_string(),
    }
}

fn status_of(response: &str) -> String {
    parse_json(response)
        .ok()
        .and_then(|v| {
            v.get("status")
                .and_then(|s| s.as_str("status").ok().map(str::to_string))
        })
        .unwrap_or_else(|| "unparsable".to_string())
}

fn meta_counters(response: &str, into: &mut BTreeMap<String, u64>) {
    let Ok(v) = parse_json(response) else { return };
    let Some(Json::Obj(fields)) = v.get("meta").and_then(|m| m.get("counters")) else {
        return;
    };
    for (name, value) in fields {
        if let Ok(n) = value.as_u64(name) {
            *into.entry(name.clone()).or_insert(0) += n;
        }
    }
}

/// The in-process reference answers.
struct Reference {
    /// Per distinct request: the response without `meta`, and the
    /// in-process handle time in ms.
    answers: Vec<(String, f64)>,
    /// Handle times of exact repeats (timed reference only).
    hit_ms: Vec<f64>,
}

/// Answers each distinct request through `Service::handle_line` on a
/// fresh service, one at a time in first-occurrence order of `slots`.
/// With `replay_hits`, then replays the exact repeats of `slots`
/// against the now warm memo and times them.
fn reference(
    circuits: &Circuits,
    lines: &[String],
    slots: &[Slot],
    replay_hits: bool,
) -> Reference {
    let service = new_service(circuits);
    let mut answers = vec![(String::new(), 0.0); lines.len()];
    let mut seen = BTreeSet::new();
    for d in slots.iter().map(|s| s.distinct) {
        if seen.insert(d) {
            let (response, _, secs) = timed(|| service.handle_line(&lines[d]));
            answers[d] = (strip_meta(&response), secs * 1e3);
        }
    }
    let hit_ms = if replay_hits {
        slots
            .iter()
            .filter(|s| s.class == Class::Repeat)
            .map(|s| timed(|| service.handle_line(&lines[s.distinct])).2 * 1e3)
            .collect()
    } else {
        Vec::new()
    };
    Reference { answers, hit_ms }
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let pool = pool(cfg.smoke);
    let distance = if cfg.smoke { 4 } else { REPEAT_DISTANCE };
    let circuits0 = circuits();
    let plain_lines = render_lines(&pool, &circuits0, false);
    let traced_lines = if cfg.trace {
        render_lines(&pool, &circuits0, true)
    } else {
        Vec::new()
    };
    let pinned = if cfg.smoke {
        pins::SERVE_SMOKE
    } else {
        pins::SERVE_FULL
    };

    // Each pass starts its own daemon; more set-up repetitions follow
    // the passes until there are enough for a steady median.
    let mut clock = HostClock::new();
    let mut setup_s = Vec::new();
    let mut passes = run_passes(cfg, 2, &mut clock, |i, traced, clock| {
        let slots = stream(&pool, Rng::for_pass(cfg.seed, i), distance);
        let (started, from, secs) = timed(start_daemon);
        let (circuits, daemon) = started?;
        setup_s.push((from, secs));
        let lines = if traced { &traced_lines } else { &plain_lines };
        let pass = clock.during(|| run_pass(&daemon, &circuits, lines, slots, traced));
        daemon.stop()?;
        Ok(pass)
    })?;
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    while !setup_done(&setup_s) {
        clock.tick_if_due();
        let (started, from, secs) = timed(start_daemon);
        setup_s.push((from, secs));
        started?.1.stop()?;
    }
    clock.tick();

    // Reference responses, computed in-process after the timed passes
    // and compared without `meta` (a traced pass's `meta` carries the
    // obs counters read below).
    let lines = if cfg.trace {
        &traced_lines
    } else {
        &plain_lines
    };
    let reference = reference(&circuits0, lines, &passes[0].slots, cfg.trace);

    let mut digests = Vec::new();
    let mut statuses: BTreeMap<String, u64> = BTreeMap::new();
    for (p, pass) in passes.iter_mut().enumerate() {
        if cfg.corrupt && p == 0 {
            if let Some(r) = pass.replies[0].2.as_mut() {
                r.push(' ');
            }
        }
        let mut first_seen: BTreeMap<usize, String> = BTreeMap::new();
        for (slot, (_, _, response)) in pass.slots.iter().zip(&pass.replies) {
            out.attempted += 1;
            let Some(response) = response else {
                out.failed += 1;
                continue;
            };
            let body = strip_meta(response);
            let status = status_of(&body);
            let bad_status = matches!(
                status.as_str(),
                "failed" | "error" | "rejected" | "unparsable"
            );
            if body != reference.answers[slot.distinct].0 || bad_status {
                out.failed += 1;
            }
            if p == 0 {
                *statuses.entry(status).or_insert(0) += 1;
            }
            first_seen.entry(slot.distinct).or_insert(body);
        }
        // Digest over the distinct responses in pool order.
        let mut h = Fnv::new();
        for response in first_seen.values() {
            h.field(response.as_bytes());
        }
        digests.push(h.finish());
    }
    out.check_digests(&digests, pinned);

    // End-to-end figures from the untraced passes, in reference-host
    // time: each pass, and each request, is scaled by the host speed
    // around it.
    let plain: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let throughput: Vec<f64> = plain
        .iter()
        .map(|p| p.replies.len() as f64 / clock.reference_secs(p.start, p.wall_s))
        .collect();
    let lat: Vec<f64> = plain
        .iter()
        .flat_map(|p| p.replies.iter())
        .map(|(from, ms, _)| clock.reference_secs(*from, ms / 1e3) * 1e3)
        .collect();
    let setup_ref: Vec<f64> = setup_s
        .iter()
        .map(|&(from, secs)| clock.reference_secs(from, secs))
        .collect();
    out.metric("setup_s", median(&setup_ref), "s");
    out.metric("instances_per_s", median(&throughput), "1/s");
    out.metric("requests_per_s", median(&throughput), "1/s");
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
        "client-side request round trip over TCP, in reference-host ms",
    );
    clock.report(&mut out);

    let p0 = &passes[0];
    let n = p0.slots.len() as f64;
    let share = |c: Class| p0.slots.iter().filter(|s| s.class == c).count() as f64 / n;
    out.info("requests_per_pass", p0.slots.len());
    out.info("share_exact_repeat", format!("{:.4}", share(Class::Repeat)));
    out.info(
        "share_same_prepare",
        format!("{:.4}", share(Class::SamePrepare)),
    );
    out.info("share_cold", format!("{:.4}", share(Class::Cold)));
    let s6669 = p0
        .slots
        .iter()
        .filter(|s| pool[s.distinct].circuit == 1)
        .count() as f64
        / n;
    out.info("share_s6669_like", format!("{s6669:.4}"));
    let memo_hit_ratio = ratio(p0.memo_hits as f64, (p0.memo_hits + p0.memo_misses) as f64);
    out.info("measured_memo_hit_share", format!("{memo_hit_ratio:.4}"));
    out.metric("serve.memo_hit_ratio", memo_hit_ratio, "ratio");
    out.metric(
        "serve.registry_hit_ratio",
        ratio(
            p0.registry_hits as f64,
            (p0.registry_hits + p0.registry_misses) as f64,
        ),
        "ratio",
    );
    out.counters.insert("memo.hits".to_string(), p0.memo_hits);
    out.counters
        .insert("memo.misses".to_string(), p0.memo_misses);
    for (status, count) in statuses {
        out.counters.insert(format!("status.{status}"), count);
    }
    let (_, mut counters_repeat) = repeated(passes.iter().map(|p| (p.memo_hits, p.memo_misses)));

    if cfg.trace {
        let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
        let (meta, meta_repeat) = repeated(traced.iter().map(|pass| {
            let mut sums = BTreeMap::new();
            for r in pass.replies.iter().filter_map(|(_, _, r)| r.as_ref()) {
                meta_counters(r, &mut sums);
            }
            sums
        }));
        counters_repeat &= meta_repeat;
        layer_metrics(
            &mut out,
            &pool,
            &circuits0,
            &traced_lines,
            &reference,
            &traced,
            &meta,
        );
        overhead_frac(&mut out, passes.iter().map(|p| (p.traced, p.wall_s)));
        for (name, value) in meta {
            out.counters.insert(format!("obs.{name}"), value);
        }
    }

    out.info("seed", cfg.seed);
    out.info("passes", passes.len());
    let walls: Vec<String> = passes.iter().map(|p| format!("{:.3}", p.wall_s)).collect();
    out.info("pass_walls_s", walls.join(" "));
    out.info("workers", WORKERS);
    out.info("clients", CLIENTS);
    out.info("counters_repeat", counters_repeat);
    Ok(out)
}

fn layer_metrics(
    out: &mut Outcome,
    pool: &[Distinct],
    circuits: &Circuits,
    lines: &[String],
    reference: &Reference,
    traced: &[&Pass],
    meta: &BTreeMap<String, u64>,
) {
    let slots = &traced[0].slots;
    // Protocol layer: parse every request line of one pass.
    let bytes: usize = slots.iter().map(|s| lines[s.distinct].len()).sum();
    let (parsed_ok, _, parse_s) = timed(|| {
        slots
            .iter()
            .filter(|s| parse_request(&lines[s.distinct]).is_ok())
            .count()
    });
    std::hint::black_box(parsed_ok);
    out.metric(
        "serve.parse_mb_per_s",
        ratio(bytes as f64 / 1e6, parse_s),
        "MB/s",
    );

    // Registry layer: one lookup per request on a fresh registry.
    let registry = CircuitRegistry::new(8);
    let (_, _, registry_s) = timed(|| {
        for s in slots {
            let bench = &circuits.benches[pool[s.distinct].circuit];
            std::hint::black_box(registry.get_or_parse(bench, None).is_ok());
        }
    });
    out.metric(
        "serve.registry_us",
        registry_s * 1e6 / slots.len() as f64,
        "us",
    );

    // Service layer: in-process handle time by request class.
    let handle = |class: Class| -> Vec<f64> {
        let mut seen = BTreeSet::new();
        slots
            .iter()
            .filter(|s| s.class == class && seen.insert(s.distinct))
            .map(|s| reference.answers[s.distinct].1)
            .collect()
    };
    let hit_ms = median(&reference.hit_ms);
    out.metric("serve.handle_hit_ms", hit_ms, "ms");
    out.metric("serve.handle_cold_ms", median(&handle(Class::Cold)), "ms");
    out.metric(
        "serve.handle_same_prepare_ms",
        median(&handle(Class::SamePrepare)),
        "ms",
    );
    // Transport and queueing: client latency minus the in-process handle
    // time of the same request.
    let transport: Vec<f64> = traced
        .iter()
        .flat_map(|p| {
            p.slots
                .iter()
                .zip(&p.replies)
                .map(|(s, (_, client_ms, _))| {
                    let handle_ms = if s.class == Class::Repeat {
                        hit_ms
                    } else {
                        reference.answers[s.distinct].1
                    };
                    client_ms - handle_ms
                })
        })
        .collect();
    out.metric("serve.transport_ms", median(&transport), "ms");

    for name in COUNTS {
        if let Some(&value) = meta.get(name) {
            out.metric(name, value as f64, "count");
        }
    }
}
