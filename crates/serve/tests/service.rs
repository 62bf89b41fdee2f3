//! End-to-end service tests: warm-cache proof, concurrency drift,
//! admission control, crash isolation, and the TCP/stdio transports.

use gatediag_core::{ChaosConfig, DiagnoseRequest, EngineKind};
use gatediag_netlist::{s1423_like, write_bench};
use gatediag_obs::json::{parse_json, Json};
use gatediag_serve::{
    render_diagnose_request, serve_lines, serve_tcp, Client, DiagnoseCall, Service, ServiceConfig,
    MAX_REQUEST_LINE,
};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Instant;

const C17: &str = "INPUT(1)\nINPUT(2)\nINPUT(3)\nINPUT(6)\nINPUT(7)\nOUTPUT(22)\nOUTPUT(23)\n\
                   10 = NAND(1, 3)\n11 = NAND(3, 6)\n16 = NAND(2, 11)\n19 = NAND(11, 7)\n\
                   22 = NAND(10, 16)\n23 = NAND(16, 19)\n";

fn call(engine: EngineKind, seed: u64) -> DiagnoseCall {
    DiagnoseCall {
        circuit: Some("c17".to_string()),
        bench: C17.to_string(),
        request: DiagnoseRequest {
            engine,
            seed,
            ..DiagnoseRequest::default()
        },
        chaos: None,
        obs: false,
        timing: false,
    }
}

fn field<'a>(v: &'a Json, key: &str) -> &'a Json {
    v.get(key).unwrap_or_else(|| panic!("missing field {key}"))
}

fn status_of(response: &str) -> String {
    let v = parse_json(response).expect("response is valid JSON");
    field(&v, "status").as_str("status").unwrap().to_string()
}

#[test]
fn repeat_requests_are_byte_identical_and_warm() {
    let service = Service::new(ServiceConfig::default());
    let line = render_diagnose_request(&call(EngineKind::Bsat, 1));
    let first = service.handle_line(&line);
    let second = service.handle_line(&line);
    assert_eq!(first, second, "cold and warm responses must not differ");
    assert_eq!(status_of(&first), "ok");

    // Now ask for the quarantined meta: the outcome is already cached,
    // so this request must be a measured warm hit — zero CNF encodes,
    // zero netlist builds.
    let mut with_obs = call(EngineKind::Bsat, 1);
    with_obs.obs = true;
    let response = service.handle_line(&render_diagnose_request(&with_obs));
    let v = parse_json(&response).unwrap();
    let meta = field(&v, "meta");
    assert!(meta.get("warm").unwrap().as_bool("warm").unwrap());
    let counters = field(meta, "counters");
    for counter in ["cnf.gates_encoded", "netlist.builds", "session.cold_runs"] {
        assert!(
            counters.get(counter).is_none(),
            "warm hit charged {counter}: {response}"
        );
    }
    assert_eq!(
        counters
            .get("session.warm_hits")
            .expect("warm hit recorded")
            .as_u64("session.warm_hits")
            .unwrap(),
        1
    );
}

#[test]
fn warm_requests_are_at_least_twice_as_fast_as_cold() {
    // A warm hit skips parse-to-engine entirely, so the margin is orders
    // of magnitude (about 100x on a 657-gate circuit in release builds)
    // and the 2x floor holds in debug builds and on loaded hosts.
    const WARM_REPS: u32 = 50;
    let golden = s1423_like(1);
    let line = render_diagnose_request(&DiagnoseCall {
        circuit: Some(golden.name().to_string()),
        bench: write_bench(&golden),
        request: DiagnoseRequest {
            engine: EngineKind::Bsat,
            ..DiagnoseRequest::default()
        },
        chaos: None,
        obs: false,
        timing: false,
    });
    let service = Service::new(ServiceConfig::default());
    let start = Instant::now();
    let cold = service.handle_line(&line);
    let cold_time = start.elapsed();
    assert_eq!(status_of(&cold), "ok", "{cold}");
    let start = Instant::now();
    for _ in 0..WARM_REPS {
        assert_eq!(service.handle_line(&line), cold, "warm response drifted");
    }
    let warm_time = start.elapsed() / WARM_REPS;
    let speedup = cold_time.as_secs_f64() / warm_time.as_secs_f64();
    eprintln!("warm over cold: {speedup:.0}x (cold {cold_time:?}, warm {warm_time:?})");
    assert!(
        speedup >= 2.0,
        "warm-vs-cold speedup below 2x ({speedup:.1}x: cold {cold_time:?}, warm {warm_time:?})"
    );
}

#[test]
fn cold_requests_do_charge_build_and_encode_counters() {
    let service = Service::new(ServiceConfig::default());
    let mut cold = call(EngineKind::Bsat, 1);
    cold.obs = true;
    let response = service.handle_line(&render_diagnose_request(&cold));
    let v = parse_json(&response).unwrap();
    let meta = field(&v, "meta");
    assert!(!meta.get("warm").unwrap().as_bool("warm").unwrap());
    let counters = field(meta, "counters");
    for counter in ["cnf.gates_encoded", "netlist.builds", "session.cold_runs"] {
        assert!(
            counters
                .get(counter)
                .map(|c| c.as_u64(counter).unwrap())
                .unwrap_or(0)
                > 0,
            "cold run must charge {counter}: {response}"
        );
    }
}

#[test]
fn responses_are_byte_identical_across_pool_sizes_and_clients() {
    let lines: Vec<String> = [
        call(EngineKind::Auto, 1),
        call(EngineKind::Bsat, 2),
        call(EngineKind::Cov, 3),
    ]
    .iter()
    .map(render_diagnose_request)
    .collect();
    // Reference: a fresh single-worker service, one request at a time —
    // the daemon equivalent of the one-shot CLI.
    let reference: Vec<String> = {
        let service = Service::new(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        lines.iter().map(|l| service.handle_line(l)).collect()
    };
    for workers in [1, 2, 8] {
        let service = Arc::new(Service::new(ServiceConfig {
            workers,
            ..ServiceConfig::default()
        }));
        std::thread::scope(|scope| {
            for client in 0..4 {
                let service = Arc::clone(&service);
                let lines = &lines;
                let reference = &reference;
                scope.spawn(move || {
                    // Each client walks the requests in a different
                    // rotation, so warm and cold hits interleave.
                    for i in 0..lines.len() {
                        let j = (i + client) % lines.len();
                        let response = service.handle_line(&lines[j]);
                        assert_eq!(
                            response, reference[j],
                            "drift at workers={workers} client={client} request={j}"
                        );
                    }
                });
            }
        });
    }
}

#[test]
fn over_budget_requests_are_rejected_and_tiny_budgets_preempt() {
    let service = Service::new(ServiceConfig {
        max_work_budget: Some(1_000_000),
        ..ServiceConfig::default()
    });
    let mut greedy = call(EngineKind::Auto, 1);
    greedy.request.work_budget = Some(2_000_000);
    let response = service.handle_line(&render_diagnose_request(&greedy));
    assert_eq!(status_of(&response), "rejected", "{response}");
    assert!(response.contains("exceeds the server cap"), "{response}");

    let mut tiny = call(EngineKind::Auto, 1);
    tiny.request.work_budget = Some(1);
    let response = service.handle_line(&render_diagnose_request(&tiny));
    assert_eq!(status_of(&response), "preempted", "{response}");

    // A server-imposed cap preempts budgetless requests the same way.
    let strict = Service::new(ServiceConfig {
        max_work_budget: Some(1),
        ..ServiceConfig::default()
    });
    let response = strict.handle_line(&render_diagnose_request(&call(EngineKind::Auto, 1)));
    assert_eq!(status_of(&response), "preempted", "{response}");
}

#[test]
fn chaos_crash_is_isolated_and_leaves_the_registry_warm() {
    let service = Service::new(ServiceConfig::default());
    // Prime the cache.
    let line = render_diagnose_request(&call(EngineKind::Bsat, 1));
    assert_eq!(status_of(&service.handle_line(&line)), "ok");

    // Fire chaos at full rate over many seeds: every request gets an
    // injected event (panic, inflated work, or spurious preempt); the
    // per-seed mix is deterministic. At least one must be a mid-engine
    // panic, and none may take the service down.
    let mut failed = 0;
    for seed in 0..24 {
        let mut chaotic = call(EngineKind::Bsat, seed);
        chaotic.chaos = Some(ChaosConfig {
            seed,
            rate_ppm: 1_000_000,
        });
        let status = status_of(&service.handle_line(&render_diagnose_request(&chaotic)));
        assert!(
            ["ok", "failed", "preempted"].contains(&status.as_str()),
            "unexpected status {status}"
        );
        if status == "failed" {
            failed += 1;
        }
    }
    assert!(failed > 0, "no chaos event panicked across 24 seeds");

    // The registry survived: the primed request is still a warm hit
    // with a byte-identical response.
    let mut with_obs = call(EngineKind::Bsat, 1);
    with_obs.obs = true;
    let response = service.handle_line(&render_diagnose_request(&with_obs));
    let v = parse_json(&response).unwrap();
    assert!(
        field(&v, "meta")
            .get("warm")
            .unwrap()
            .as_bool("warm")
            .unwrap(),
        "registry lost its warm state after chaos: {response}"
    );
}

#[test]
fn malformed_lines_get_error_responses() {
    let service = Service::new(ServiceConfig::default());
    for line in [
        "not json",
        "{\"schema\": \"gatediag-serve-v1\", \"op\": \"diagnose\", \"bench\": \"y = FROB(a)\"}",
        "{\"schema\": \"gatediag-serve-v1\", \"op\": \"diagnose\", \"bench\": \"INPUT(a)\\nOUTPUT(a)\\n\", \"p\": 0}",
    ] {
        let response = service.handle_line(line);
        assert_eq!(status_of(&response), "error", "{line} -> {response}");
    }
}

#[test]
fn tcp_transport_matches_in_process_responses() {
    let service = Arc::new(Service::new(ServiceConfig::default()));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap().to_string();
    let daemon = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || serve_tcp(service, listener))
    };
    // The in-process reference runs on a separate (fresh) service so
    // the daemon's cache state cannot leak into the expectation.
    let reference = Service::new(ServiceConfig::default());
    let line = render_diagnose_request(&call(EngineKind::Auto, 1));
    let expected = reference.handle_line(&line);

    let mut client = Client::connect(&addr).expect("connect");
    assert_eq!(client.request(&line).expect("cold request"), expected);
    assert_eq!(client.request(&line).expect("warm request"), expected);
    let ping = client
        .request("{\"schema\": \"gatediag-serve-v1\", \"op\": \"ping\"}")
        .expect("ping");
    assert_eq!(status_of(&ping), "ok");
    let stats = client
        .request("{\"schema\": \"gatediag-serve-v1\", \"op\": \"stats\"}")
        .expect("stats");
    let v = parse_json(&stats).unwrap();
    assert_eq!(field(&v, "sessions").as_u64("sessions").unwrap(), 1);
    assert_eq!(field(&v, "hits").as_u64("hits").unwrap(), 1);
    let bye = client
        .request("{\"schema\": \"gatediag-serve-v1\", \"op\": \"shutdown\"}")
        .expect("shutdown");
    assert_eq!(status_of(&bye), "ok");
    daemon
        .join()
        .expect("accept loop thread")
        .expect("accept loop exits cleanly");
}

#[test]
fn stdio_transport_answers_line_per_line() {
    let service = Service::new(ServiceConfig::default());
    let line = render_diagnose_request(&call(EngineKind::Auto, 1));
    let input =
        format!("{line}\n\n{line}\n{{\"schema\": \"gatediag-serve-v1\", \"op\": \"shutdown\"}}\n");
    let mut output = Vec::new();
    serve_lines(&service, input.as_bytes(), &mut output).expect("stdio loop");
    let text = String::from_utf8(output).unwrap();
    let responses: Vec<&str> = text.lines().collect();
    assert_eq!(responses.len(), 3, "blank line must not get a response");
    assert_eq!(responses[0], responses[1]);
    assert_eq!(status_of(responses[2]), "ok");
    assert!(service.shutdown_requested());
}

#[test]
fn over_long_request_line_gets_one_error_and_serving_continues() {
    let service = Service::new(ServiceConfig::default());
    let line = render_diagnose_request(&call(EngineKind::Auto, 1));
    let expected = Service::new(ServiceConfig::default()).handle_line(&line);
    // A newline-less run longer than the cap, then a valid request. The
    // small reader buffer makes the loop skip the long line in many
    // chunks, as it would on a socket.
    let mut input = vec![b'x'; MAX_REQUEST_LINE + 1];
    input.push(b'\n');
    input.extend_from_slice(line.as_bytes());
    input.push(b'\n');
    let reader = std::io::BufReader::with_capacity(4096, input.as_slice());
    let mut output = Vec::new();
    serve_lines(&service, reader, &mut output).expect("stdio loop");
    let text = String::from_utf8(output).unwrap();
    let responses: Vec<&str> = text.lines().collect();
    assert_eq!(responses.len(), 2, "{text}");
    assert_eq!(status_of(responses[0]), "error");
    let error = parse_json(responses[0]).unwrap();
    let message = field(&error, "message").as_str("message").unwrap();
    assert!(message.contains("longer than"), "{message}");
    assert_eq!(responses[1], expected);

    // A line of exactly the cap is served (and, not being JSON, gets
    // the parser's error instead).
    let mut input = vec![b' '; MAX_REQUEST_LINE - 1];
    input.push(b'x');
    input.push(b'\n');
    let mut output = Vec::new();
    serve_lines(&service, input.as_slice(), &mut output).expect("stdio loop");
    let text = String::from_utf8(output).unwrap();
    assert_eq!(text.lines().count(), 1);
    assert!(!text.contains("longer than"), "{text}");
}
