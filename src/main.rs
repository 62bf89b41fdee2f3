//! `gatediag` command-line tool: inject, diagnose, run campaigns and
//! visualise.
//!
//! ```text
//! gatediag diagnose --bench circuit.bench --inject 2 --engine bsat --tests 16
//! gatediag diagnose --demo --fault-model stuck-at --engine cov --k 2
//! gatediag campaign --demo
//! gatediag campaign --bench-dir iscas89/ --engines bsim,bsat --seeds 1,2,3
//! gatediag equiv --bench a.bench --against b.bench
//! ```

use gatediag::campaign::{validate_frames, validate_seq_len};
use gatediag::netlist::{
    c17, parse_bench_dir, parse_bench_dir_strict, parse_bench_named, to_dot, write_bench, Circuit,
    FaultKind, FaultModel, GateId,
};
use gatediag::serve::{
    render_diagnose_request, serve_lines, serve_tcp, DiagnoseCall, Service, ServiceConfig,
};
use gatediag::{
    run_campaign_checkpointed, solution_quality, CampaignSpec, ChaosConfig, ChaosPolicy,
    CheckpointPolicy, CircuitSession, DiagnoseRequest, DiagnoseStatus, EngineKind, Parallelism,
    RetryOn,
};
use std::process::ExitCode;

const USAGE: &str = "\
gatediag — gate-level design-error diagnosis

USAGE:
  gatediag diagnose [--bench FILE | --demo] [OPTIONS]
  gatediag campaign [--bench-dir DIR | --demo] [OPTIONS]
  gatediag equiv --bench FILE --against FILE
  gatediag serve [--listen ADDR | --stdio] [SERVE OPTIONS]
  gatediag client --connect ADDR [--bench FILE | --demo] [OPTIONS]

DIAGNOSE OPTIONS:
  --bench FILE      ISCAS89 .bench netlist to use as the golden design
  --demo            use the built-in c17 benchmark instead
  --inject P        number of errors to inject (default 1)
  --fault-model F   gate-change | stuck-at | input-swap | extra-inverter
                    (default gate-change, the paper's model)
  --seed N          RNG seed for injection/tests (default 1)
  --engine E        bsim | cov | bsat | hybrid | auto (default bsat;
                    with --frames, bsim/bsat map to seq-bsim/seq-bsat)
  --k K             correction size bound (default = number of errors)
  --tests M         failing tests to collect (default 8)
  --frames N        diagnose sequentially over N time frames (unrolls the
                    circuit; required semantics for DFF circuits, max 256)
  --seq-len L       failing sequences to collect with --frames (default 8,
                    max 1024)
  --max-solutions N enumeration cap (default 10000)
  --test-gen M      off | sat — after diagnosis, generate SAT-guided
                    discriminating tests that shrink the solution list and
                    merge indistinguishable candidates into ambiguity
                    classes (default off)
  --test-gen-rounds N  max test-generation passes over the unresolved
                    candidates (default 4)
  --dot FILE        write a Graphviz dump with candidates highlighted
  --json            print one machine-readable gatediag-diagnose-v1
                    response line instead of the human report — the exact
                    bytes a `gatediag serve` daemon returns for the same
                    request (timing and counters stay opt-in via --obs /
                    --timing, so the line is byte-comparable)
  --obs             with --json: attach deterministic obs counters and
                    the warm/cold cache verdict under \"meta\"
  --timing          with --json: attach nondeterministic wall_ms under
                    \"meta\"
  --work-budget N   deterministic work budget (engine units; a truncated
                    run is reported as `preempted`, and a daemon with
                    --max-work-budget rejects requests asking above it)

SERVE OPTIONS (diagnosis-as-a-service; JSONL request/response):
  --listen ADDR     accept TCP connections on ADDR (e.g. 127.0.0.1:7171),
                    one thread per connection
  --stdio           serve requests from stdin to stdout instead
  --workers N       shared diagnosis worker pool size (default 4);
                    responses are byte-identical for every N
  --registry-capacity N  circuits kept warm before LRU eviction
                    (default 8)
  --max-work-budget N  admission cap: requests asking for more
                    deterministic work are rejected, requests without a
                    budget inherit the cap and preempt cooperatively
  --default-work-budget N  work budget imposed on requests that carry
                    none (must be <= the cap to matter)

CLIENT OPTIONS:
  --connect ADDR    daemon address; all DIAGNOSE options are accepted and
                    sent as one request (plus --obs / --timing for the
                    quarantined meta block)

CAMPAIGN OPTIONS:
  --bench-dir DIR   run on every .bench file in DIR (falls back to the
                    built-in synthetic set when DIR has no .bench files)
  --demo            use the built-in synthetic circuit set
  --fault-models L  comma list of fault models (default all four)
  --engines L       comma list of engines (default bsim,cov,bsat; also
                    seq-bsim,seq-bsat — sequential engines cross the
                    --frames x --seq-len axes into the matrix)
  --errors L        comma list of injected error counts p (default 1,2)
  --seeds L         comma list of injection seeds (default 1,2)
  --frames L        comma list of time-frame counts for the sequential
                    engines (default 3; appends seq-bsim,seq-bsat to
                    --engines when none is listed)
  --seq-len L       comma list of failing-sequence counts per sequential
                    instance (default 4)
  --tests M         failing tests per instance (default 8)
  --k K             correction bound (default = p per instance)
  --max-solutions N per-instance enumeration cap (default 10000)
  --conflict-budget N  per-instance SAT conflict budget (default 5000000)
  --work-budget N   per-instance deterministic work budget (engine units;
                    truncated instances are recorded as `preempted`)
  --deadline-ms N   per-instance wall-clock deadline (nondeterministic,
                    like --timing; off by default)
  --resume FILE     skip instances already recorded in a previous JSON
                    report; merged output is byte-identical to a fresh
                    full run of the same matrix (timing excluded)
  --checkpoint FILE autosave a valid partial JSON report to FILE while
                    running (atomic tmp+rename; feed it back through
                    --resume after a crash)
  --checkpoint-every N
                    autosave at the first cell boundary after N more
                    resolved instances (default 16)
  --retry-attempts N  max attempts per instance before recording it as
                    `failed` (default 2)
  --retry-backoff-ms N  base backoff between attempts, doubling per
                    retry (nondeterministic timing, like --timing;
                    default 0)
  --retry-on W      panic | panic-or-deadline — which outcomes retry
                    (default panic)
  --chaos-seed N    seed for deterministic fault injection (default 1)
  --chaos-rate R    inject a deterministic fault (panic, work inflation
                    or spurious preemption) into fraction R in [0,1] of
                    instance attempts; off unless given
  --test-gen M      off | sat — run the discriminating-test generation
                    phase on every instance; records gain the gen_tests /
                    solutions_before / solutions_after / ambiguity_classes
                    columns (default off)
  --test-gen-rounds N  max test-generation passes per instance (default 4)
  --strict-bench    fail fast on the first malformed .bench file instead
                    of skipping it with a warning
  --workers N       worker pool size (default auto / GATEDIAG_WORKERS,
                    clamped to 1024)
  --json FILE       JSON report path (default target/campaign/campaign.json)
  --csv FILE        CSV report path (default target/campaign/campaign.csv)
  --timing          include nondeterministic wall-clock columns
  --trace FILE      write a per-instance observability trace (one JSON
                    line per instance: span tree + deterministic
                    counters; span wall times only with --timing)
  --profile         print an aggregated per-phase profile table and the
                    top wall-clock hotspots after the run (implies
                    per-instance trace collection)
  --solver-stats    add the restarts / learnt_clauses / gc_runs solver
                    columns to the JSON and CSV reports (deterministic;
                    off by default so legacy reports stay byte-identical)
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("diagnose") => diagnose(&args[1..]),
        Some("campaign") => campaign(&args[1..]),
        Some("equiv") => equiv(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("client") => client(&args[1..]),
        Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown command `{other}`\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

#[cfg_attr(test, derive(Debug))]
struct Options {
    bench: Option<String>,
    against: Option<String>,
    demo: bool,
    inject: usize,
    fault_model: FaultModel,
    seed: u64,
    engine: String,
    k: Option<usize>,
    tests: usize,
    frames: Option<usize>,
    seq_len: usize,
    max_solutions: usize,
    test_gen: bool,
    test_gen_rounds: usize,
    dot: Option<String>,
    json: bool,
    obs: bool,
    timing: bool,
    work_budget: Option<u64>,
    connect: Option<String>,
}

/// Parses a `--test-gen` mode token: `off` or `sat`.
fn parse_test_gen_mode(text: &str) -> Result<bool, String> {
    match text {
        "off" => Ok(false),
        "sat" => Ok(true),
        other => Err(format!("unknown --test-gen mode `{other}` (off|sat)")),
    }
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        bench: None,
        against: None,
        demo: false,
        inject: 1,
        fault_model: FaultModel::GateChange,
        seed: 1,
        engine: "bsat".into(),
        k: None,
        tests: 8,
        frames: None,
        seq_len: 8,
        max_solutions: 10_000,
        test_gen: false,
        test_gen_rounds: 4,
        dot: None,
        json: false,
        obs: false,
        timing: false,
        work_budget: None,
        connect: None,
    };
    let mut i = 0;
    let value = |args: &[String], i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} expects a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--bench" => o.bench = Some(value(args, &mut i, "--bench")?),
            "--against" => o.against = Some(value(args, &mut i, "--against")?),
            "--demo" => o.demo = true,
            "--inject" => {
                o.inject = value(args, &mut i, "--inject")?
                    .parse()
                    .map_err(|_| "--inject expects an integer".to_string())?
            }
            "--fault-model" => {
                let text = value(args, &mut i, "--fault-model")?;
                o.fault_model = FaultModel::parse(&text).ok_or_else(|| {
                    format!(
                        "unknown fault model `{text}` \
                         (gate-change|stuck-at|input-swap|extra-inverter)"
                    )
                })?
            }
            "--seed" => {
                o.seed = value(args, &mut i, "--seed")?
                    .parse()
                    .map_err(|_| "--seed expects an integer".to_string())?
            }
            "--engine" => o.engine = value(args, &mut i, "--engine")?,
            "--k" => {
                o.k = Some(
                    value(args, &mut i, "--k")?
                        .parse()
                        .map_err(|_| "--k expects an integer".to_string())?,
                )
            }
            "--tests" => {
                o.tests = value(args, &mut i, "--tests")?
                    .parse()
                    .map_err(|_| "--tests expects an integer".to_string())?
            }
            "--frames" => {
                let n = value(args, &mut i, "--frames")?
                    .parse()
                    .map_err(|_| "--frames expects an integer".to_string())?;
                o.frames = Some(validate_frames(n)?);
            }
            "--seq-len" => {
                let n = value(args, &mut i, "--seq-len")?
                    .parse()
                    .map_err(|_| "--seq-len expects an integer".to_string())?;
                o.seq_len = validate_seq_len(n)?;
            }
            "--max-solutions" => {
                o.max_solutions = value(args, &mut i, "--max-solutions")?
                    .parse()
                    .map_err(|_| "--max-solutions expects an integer".to_string())?
            }
            "--test-gen" => o.test_gen = parse_test_gen_mode(&value(args, &mut i, "--test-gen")?)?,
            "--test-gen-rounds" => {
                o.test_gen_rounds = value(args, &mut i, "--test-gen-rounds")?
                    .parse()
                    .map_err(|_| "--test-gen-rounds expects an integer".to_string())?
            }
            "--dot" => o.dot = Some(value(args, &mut i, "--dot")?),
            "--json" => o.json = true,
            "--obs" => o.obs = true,
            "--timing" => o.timing = true,
            "--work-budget" => {
                o.work_budget = Some(
                    value(args, &mut i, "--work-budget")?
                        .parse()
                        .map_err(|_| "--work-budget expects an integer".to_string())?,
                )
            }
            "--connect" => o.connect = Some(value(args, &mut i, "--connect")?),
            other => return Err(format!("unknown option `{other}`")),
        }
        i += 1;
    }
    Ok(o)
}

fn load_circuit(path: &str) -> Result<Circuit, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_bench_named(&text, path).map_err(|e| format!("parse error in {path}: {e}"))
}

fn name_of(circuit: &Circuit, g: GateId) -> String {
    circuit
        .gate_name(g)
        .map(str::to_owned)
        .unwrap_or_else(|| format!("{g}"))
}

/// Maps the CLI options onto the shared, validated [`DiagnoseRequest`]
/// — the same normalisation path the campaign runner and the `serve`
/// daemon use, so the three front doors cannot drift on defaults or
/// clamping.
fn diagnose_request(o: &Options) -> Result<DiagnoseRequest, String> {
    let engine = EngineKind::parse(&o.engine).ok_or_else(|| {
        format!(
            "unknown engine `{}` (bsim|cov|bsat|hybrid|auto|seq-bsim|seq-bsat)",
            o.engine
        )
    })?;
    let sequential = o.frames.is_some() || engine.is_sequential();
    DiagnoseRequest {
        engine,
        fault_model: o.fault_model,
        p: o.inject,
        seed: o.seed,
        tests: o.tests,
        // The CLI's historical one-shot budget: a larger random-vector
        // cap than the campaign default.
        max_test_vectors: 1 << 17,
        k: o.k,
        frames: if sequential {
            Some(o.frames.unwrap_or(3))
        } else {
            None
        },
        seq_len: sequential.then_some(o.seq_len),
        max_solutions: o.max_solutions,
        conflict_budget: None,
        work_budget: o.work_budget,
        deadline_ms: None,
        test_gen_rounds: (o.test_gen && !sequential).then_some(o.test_gen_rounds),
    }
    .validated()
}

/// Builds the daemon-protocol call for this one-shot invocation: the
/// canonical bench rendering keys the daemon's content-addressed
/// registry, so every front door converges on one warm session per
/// netlist.
fn diagnose_call(golden: &Circuit, request: DiagnoseRequest, o: &Options) -> DiagnoseCall {
    DiagnoseCall {
        circuit: match golden.name() {
            "" => None,
            name => Some(name.to_string()),
        },
        bench: write_bench(golden),
        request,
        chaos: None,
        obs: o.obs,
        timing: o.timing,
    }
}

/// Exit code for a protocol response line: failure for the
/// `error`/`failed`/`rejected` statuses (and for unparseable bytes).
fn response_exit(response: &str) -> ExitCode {
    let failed = match gatediag_obs::json::parse_json(response) {
        Ok(v) => matches!(
            v.get("status").and_then(|s| s.as_str("status").ok()),
            None | Some("error") | Some("failed") | Some("rejected")
        ),
        Err(_) => true,
    };
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn diagnose(args: &[String]) -> ExitCode {
    let o = match parse_options(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let golden = if o.demo || o.bench.is_none() {
        c17()
    } else {
        match load_circuit(o.bench.as_deref().expect("checked above")) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    };
    let request = match diagnose_request(&o) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if o.json {
        // A one-request service instance: literally the daemon's code
        // path, so this line is byte-identical to what `gatediag serve`
        // answers for the same request (timing/meta stay opt-in).
        let service = Service::new(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let line = render_diagnose_request(&diagnose_call(&golden, request, &o));
        let response = service.handle_line(&line);
        println!("{response}");
        return response_exit(&response);
    }
    println!(
        "golden: {} gates, {} inputs, {} outputs",
        golden.num_functional_gates(),
        golden.inputs().len(),
        golden.outputs().len()
    );
    let sequential = request.engine.is_sequential();
    if sequential {
        println!(
            "sequential diagnosis: {} flip-flop(s), {} time frame(s)",
            golden.latches().len(),
            request.frames.expect("sequential requests carry frames")
        );
    }
    let session = CircuitSession::new(
        match golden.name() {
            "" => "circuit".to_string(),
            name => name.to_string(),
        },
        golden,
    );
    let (outcome, _warm) =
        match session.diagnose(&request, Parallelism::default(), ChaosPolicy::off()) {
            Ok(result) => result,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
    if let Some(faulty) = &outcome.faulty {
        for f in &outcome.faults {
            let site = name_of(faulty, f.gate);
            match f.kind {
                FaultKind::GateChange {
                    original,
                    replacement,
                } => println!("injected: {site} changed {original} -> {replacement}"),
                FaultKind::StuckAt { value } => {
                    println!("injected: {site} stuck-at-{}", u8::from(value))
                }
                FaultKind::InputSwap {
                    position,
                    old_driver,
                    new_driver,
                } => println!(
                    "injected: {site} fan-in {position} rewired {} -> {}",
                    name_of(faulty, old_driver),
                    name_of(faulty, new_driver)
                ),
                FaultKind::ExtraInverter { position, inverter } => println!(
                    "injected: {site} fan-in {position} inverted (new gate {})",
                    name_of(faulty, inverter)
                ),
            }
        }
    }
    match outcome.status {
        DiagnoseStatus::NotInjectable => {
            eprintln!(
                "cannot inject {} {} fault(s) into this circuit",
                request.p,
                request.fault_model.name()
            );
            return ExitCode::FAILURE;
        }
        DiagnoseStatus::NoFailingTests => {
            if sequential {
                eprintln!(
                    "the injected errors are not observable within {} frame(s) of random stimulus",
                    request.frames.expect("sequential requests carry frames")
                );
            } else {
                eprintln!("the injected errors are not observable with random tests");
            }
            return ExitCode::FAILURE;
        }
        DiagnoseStatus::Ok | DiagnoseStatus::Preempted => {}
    }
    let faulty = outcome.faulty.as_ref().expect("injection succeeded");
    let run = outcome.run.as_ref().expect("the engine ran");
    if sequential {
        println!("collected {} failing sequence(s)", outcome.tests);
    } else {
        println!("collected {} failing tests", outcome.tests);
    }
    let errors: Vec<GateId> = outcome.faults.iter().map(|f| f.gate).collect();
    match run.engine {
        EngineKind::Bsim => {
            let gmax = run.solutions.first().cloned().unwrap_or_default();
            println!(
                "BSIM marked {} gates; G_max ({} gates): {:?}",
                run.candidates.len(),
                gmax.len(),
                gmax.iter().map(|&g| name_of(faulty, g)).collect::<Vec<_>>()
            );
        }
        EngineKind::SeqBsim => {
            println!(
                "sequential BSIM marked {} gates; G_max below",
                run.candidates.len()
            );
            print_solutions(faulty, &run.solutions, run.complete, &errors);
        }
        EngineKind::Cov => {
            print_solutions(faulty, &run.solutions, run.complete, &errors);
        }
        EngineKind::Bsat | EngineKind::Hybrid | EngineKind::SeqBsat => {
            print_solutions(faulty, &run.solutions, run.complete, &errors);
            println!(
                "solver: {} conflicts, {} decisions, {} propagations",
                run.stats.conflicts, run.stats.decisions, run.stats.propagations
            );
        }
        EngineKind::Auto => {
            println!("auto engine: COV covers screened by the auto-dispatching validity oracle");
            print_solutions(faulty, &run.solutions, run.complete, &errors);
        }
    }
    if outcome.status == DiagnoseStatus::Preempted {
        println!(
            "preempted by the {} budget (partial results above)",
            run.truncation.map_or("cooperative", |t| t.name())
        );
    }
    if let Some(tg) = &run.test_gen {
        println!(
            "test-gen: {} discriminating test(s) generated; solutions {} -> {}{}",
            tg.tests.len(),
            tg.solutions_before,
            tg.solutions_after,
            if tg.truncation.is_some() {
                " (truncated)"
            } else {
                ""
            }
        );
        println!(
            "test-gen: {} ambiguity class(es) among the survivors",
            tg.classes.len()
        );
        for class in tg.classes.iter().take(20) {
            let members: Vec<String> = class
                .iter()
                .filter_map(|&s| run.solutions.get(s))
                .map(|sol| {
                    sol.iter()
                        .map(|&g| name_of(faulty, g))
                        .collect::<Vec<_>>()
                        .join("+")
                })
                .collect();
            println!("  {{{}}}", members.join(", "));
        }
        if tg.classes.len() > 20 {
            println!("  ... and {} more", tg.classes.len() - 20);
        }
    } else if o.test_gen && !sequential {
        println!("test-gen: no candidate corrections to discriminate (skipped)");
    }
    if let Some(path) = &o.dot {
        let dot = to_dot(faulty, &run.candidates);
        if let Err(e) = std::fs::write(path, dot) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    ExitCode::SUCCESS
}

/// `gatediag serve`: the diagnosis daemon (JSONL over TCP or stdio).
fn serve(args: &[String]) -> ExitCode {
    let mut listen: Option<String> = None;
    let mut stdio = false;
    let mut config = ServiceConfig::default();
    let value = |args: &[String], i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} expects a value"))
    };
    let mut i = 0;
    while i < args.len() {
        let result: Result<(), String> = (|| {
            match args[i].as_str() {
                "--listen" => listen = Some(value(args, &mut i, "--listen")?),
                "--stdio" => stdio = true,
                "--workers" => {
                    config.workers = value(args, &mut i, "--workers")?
                        .parse()
                        .map_err(|_| "--workers expects an integer".to_string())?
                }
                "--registry-capacity" => {
                    config.registry_capacity =
                        value(args, &mut i, "--registry-capacity")?
                            .parse()
                            .map_err(|_| "--registry-capacity expects an integer".to_string())?
                }
                "--max-work-budget" => {
                    config.max_work_budget = Some(
                        value(args, &mut i, "--max-work-budget")?
                            .parse()
                            .map_err(|_| "--max-work-budget expects an integer".to_string())?,
                    )
                }
                "--default-work-budget" => {
                    config.default_work_budget = Some(
                        value(args, &mut i, "--default-work-budget")?
                            .parse()
                            .map_err(|_| "--default-work-budget expects an integer".to_string())?,
                    )
                }
                other => return Err(format!("unknown option `{other}`")),
            }
            Ok(())
        })();
        if let Err(e) = result {
            eprintln!("{e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
        i += 1;
    }
    if stdio == listen.is_some() {
        eprintln!("serve needs exactly one of --listen ADDR or --stdio\n\n{USAGE}");
        return ExitCode::FAILURE;
    }
    // Injected chaos panics (a client exercising crash isolation) are
    // caught per request; silence the expected ones like the campaign
    // runner does, keep the default hook for real bugs.
    silence_chaos_panics();
    let service = std::sync::Arc::new(Service::new(config));
    if stdio {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        return match serve_lines(&service, stdin.lock(), stdout.lock()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("serve: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let addr = listen.expect("checked above");
    let listener = match std::net::TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match listener.local_addr() {
        Ok(local) => println!("gatediag serve: listening on {local}"),
        Err(_) => println!("gatediag serve: listening on {addr}"),
    }
    match serve_tcp(service, listener) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serve: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `gatediag client`: send one diagnose request (built from the same
/// options as `diagnose`) to a running daemon and print its response.
fn client(args: &[String]) -> ExitCode {
    let o = match parse_options(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let Some(addr) = o.connect.clone() else {
        eprintln!("client needs --connect ADDR\n\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let golden = if o.demo || o.bench.is_none() {
        c17()
    } else {
        match load_circuit(o.bench.as_deref().expect("checked above")) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    };
    let request = match diagnose_request(&o) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let line = render_diagnose_request(&diagnose_call(&golden, request, &o));
    match gatediag::serve::request(&addr, &line) {
        Ok(response) => {
            println!("{response}");
            response_exit(&response)
        }
        Err(e) => {
            eprintln!("client: cannot reach {addr}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Keeps the default panic hook for real bugs but silences the
/// deterministic `chaos:` panics the chaos harness injects on purpose
/// (they are caught and recorded by the crash-isolation layer).
fn silence_chaos_panics() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
        if !message.is_some_and(|m| m.starts_with("chaos:")) {
            default_hook(info);
        }
    }));
}

fn print_solutions(
    circuit: &Circuit,
    solutions: &[Vec<GateId>],
    complete: bool,
    errors: &[GateId],
) {
    println!(
        "{} solutions{}:",
        solutions.len(),
        if complete { "" } else { " (truncated)" }
    );
    for sol in solutions.iter().take(20) {
        let names: Vec<String> = sol.iter().map(|&g| name_of(circuit, g)).collect();
        let hit = sol.iter().any(|g| errors.contains(g));
        println!(
            "  {:?}{}",
            names,
            if hit {
                "  <-- contains a real error site"
            } else {
                ""
            }
        );
    }
    if solutions.len() > 20 {
        println!("  ... and {} more", solutions.len() - 20);
    }
    if !solutions.is_empty() {
        let q = solution_quality(circuit, solutions, errors);
        println!(
            "quality: min/avg/max distance to nearest real error = {:.2}/{:.2}/{:.2}",
            q.min, q.avg, q.max
        );
    }
}

/// Parses a comma-separated list through `parse`, with a labelled error.
fn parse_list<T>(
    text: &str,
    what: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Vec<T>, String> {
    let mut out = Vec::new();
    for item in text.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        out.push(parse(item).ok_or_else(|| format!("bad {what} `{item}`"))?);
    }
    if out.is_empty() {
        return Err(format!("empty {what} list"));
    }
    Ok(out)
}

fn campaign(args: &[String]) -> ExitCode {
    match campaign_inner(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn campaign_inner(args: &[String]) -> Result<(), String> {
    let mut demo = false;
    let mut bench_dir: Option<String> = None;
    let mut fault_models: Option<Vec<FaultModel>> = None;
    let mut engines: Option<Vec<EngineKind>> = None;
    let mut errors: Option<Vec<usize>> = None;
    let mut seeds: Option<Vec<u64>> = None;
    let mut frames: Option<Vec<usize>> = None;
    let mut seq_lens: Option<Vec<usize>> = None;
    let mut tests: Option<usize> = None;
    let mut k: Option<usize> = None;
    let mut max_solutions: Option<usize> = None;
    let mut conflict_budget: Option<u64> = None;
    let mut work_budget: Option<u64> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut resume: Option<String> = None;
    let mut checkpoint: Option<String> = None;
    let mut checkpoint_every: usize = 16;
    let mut retry_attempts: Option<u32> = None;
    let mut retry_backoff_ms: Option<u64> = None;
    let mut retry_on: Option<RetryOn> = None;
    let mut chaos_seed: u64 = 1;
    let mut chaos_rate: Option<f64> = None;
    let mut test_gen = false;
    let mut test_gen_rounds: usize = 4;
    let mut strict_bench = false;
    let mut workers: Option<usize> = None;
    let mut json_path = "target/campaign/campaign.json".to_string();
    let mut csv_path = "target/campaign/campaign.csv".to_string();
    let mut timing = false;
    let mut trace_path: Option<String> = None;
    let mut profile = false;
    let mut solver_stats = false;

    let mut i = 0;
    let value = |args: &[String], i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} expects a value"))
    };
    let int = |args: &[String], i: &mut usize, flag: &str| -> Result<u64, String> {
        value(args, i, flag)?
            .parse()
            .map_err(|_| format!("{flag} expects an integer"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--demo" => demo = true,
            "--bench-dir" => bench_dir = Some(value(args, &mut i, "--bench-dir")?),
            "--fault-models" => {
                fault_models = Some(parse_list(
                    &value(args, &mut i, "--fault-models")?,
                    "fault model",
                    FaultModel::parse,
                )?)
            }
            "--engines" => {
                engines = Some(parse_list(
                    &value(args, &mut i, "--engines")?,
                    "engine",
                    EngineKind::parse,
                )?)
            }
            "--errors" => {
                errors = Some(parse_list(
                    &value(args, &mut i, "--errors")?,
                    "error count",
                    |s| s.parse().ok().filter(|&p: &usize| p > 0),
                )?)
            }
            "--seeds" => {
                seeds = Some(parse_list(&value(args, &mut i, "--seeds")?, "seed", |s| {
                    s.parse().ok()
                })?)
            }
            "--frames" => {
                frames = Some(parse_list(
                    &value(args, &mut i, "--frames")?,
                    "frame count",
                    |s| s.parse().ok().and_then(|n| validate_frames(n).ok()),
                )?)
            }
            "--seq-len" => {
                seq_lens = Some(parse_list(
                    &value(args, &mut i, "--seq-len")?,
                    "sequence count",
                    |s| s.parse().ok().and_then(|n| validate_seq_len(n).ok()),
                )?)
            }
            "--tests" => tests = Some(int(args, &mut i, "--tests")? as usize),
            "--k" => k = Some(int(args, &mut i, "--k")? as usize),
            "--max-solutions" => {
                max_solutions = Some(int(args, &mut i, "--max-solutions")? as usize)
            }
            "--conflict-budget" => conflict_budget = Some(int(args, &mut i, "--conflict-budget")?),
            "--work-budget" => work_budget = Some(int(args, &mut i, "--work-budget")?),
            "--deadline-ms" => deadline_ms = Some(int(args, &mut i, "--deadline-ms")?),
            "--resume" => resume = Some(value(args, &mut i, "--resume")?),
            "--checkpoint" => checkpoint = Some(value(args, &mut i, "--checkpoint")?),
            "--checkpoint-every" => {
                checkpoint_every = int(args, &mut i, "--checkpoint-every")?.max(1) as usize
            }
            "--retry-attempts" => {
                retry_attempts = Some(
                    u32::try_from(int(args, &mut i, "--retry-attempts")?)
                        .map_err(|_| "--retry-attempts is too large".to_string())?,
                )
            }
            "--retry-backoff-ms" => {
                retry_backoff_ms = Some(int(args, &mut i, "--retry-backoff-ms")?)
            }
            "--retry-on" => {
                let text = value(args, &mut i, "--retry-on")?;
                retry_on = Some(RetryOn::parse(&text).ok_or_else(|| {
                    format!("unknown --retry-on `{text}` (panic|panic-or-deadline)")
                })?)
            }
            "--chaos-seed" => chaos_seed = int(args, &mut i, "--chaos-seed")?,
            "--chaos-rate" => {
                let text = value(args, &mut i, "--chaos-rate")?;
                let rate: f64 = text
                    .parse()
                    .ok()
                    .filter(|r| (0.0..=1.0).contains(r))
                    .ok_or_else(|| {
                        format!("--chaos-rate expects a number in [0, 1], got `{text}`")
                    })?;
                chaos_rate = Some(rate);
            }
            "--test-gen" => test_gen = parse_test_gen_mode(&value(args, &mut i, "--test-gen")?)?,
            "--test-gen-rounds" => {
                test_gen_rounds = int(args, &mut i, "--test-gen-rounds")?.max(1) as usize
            }
            "--strict-bench" => strict_bench = true,
            "--workers" => workers = Some(int(args, &mut i, "--workers")? as usize),
            "--json" => json_path = value(args, &mut i, "--json")?,
            "--csv" => csv_path = value(args, &mut i, "--csv")?,
            "--timing" => timing = true,
            "--trace" => trace_path = Some(value(args, &mut i, "--trace")?),
            "--profile" => profile = true,
            "--solver-stats" => solver_stats = true,
            other => return Err(format!("unknown option `{other}`")),
        }
        i += 1;
    }

    let mut bench_warnings: Vec<String> = Vec::new();
    let circuits = match &bench_dir {
        Some(dir) => {
            let loaded = if strict_bench {
                parse_bench_dir_strict(std::path::Path::new(dir)).map_err(|e| e.to_string())?
            } else {
                let load = parse_bench_dir(std::path::Path::new(dir)).map_err(|e| e.to_string())?;
                for warning in &load.warnings {
                    eprintln!("warning: {warning}");
                }
                bench_warnings = load.warnings.iter().map(ToString::to_string).collect();
                load.circuits
            };
            if loaded.is_empty() {
                eprintln!("no .bench files in {dir}; using the built-in synthetic set");
                CampaignSpec::demo_circuits()
            } else {
                println!(
                    "loaded {} circuit(s) from {dir}: {}",
                    loaded.len(),
                    loaded
                        .iter()
                        .map(|(n, c)| format!("{n} ({} gates)", c.num_functional_gates()))
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                loaded
            }
        }
        None if demo => CampaignSpec::demo_circuits(),
        None => return Err("campaign requires --demo or --bench-dir DIR".to_string()),
    };

    let mut spec = CampaignSpec::new(circuits);
    if let Some(models) = fault_models {
        spec.fault_models = models;
    }
    if let Some(engines) = engines {
        spec.engines = engines;
    }
    if let Some(errors) = errors {
        spec.error_counts = errors;
    }
    if let Some(seeds) = seeds {
        spec.seeds = seeds;
    }
    // The sequential axes only bite on sequential engines; asking for
    // them without listing one means "also run the sequential pair".
    let wants_sequential = frames.is_some() || seq_lens.is_some();
    if let Some(frames) = frames {
        spec.frames = frames;
    }
    if let Some(seq_lens) = seq_lens {
        spec.seq_lens = seq_lens;
    }
    if wants_sequential && !spec.engines.iter().any(|e| e.is_sequential()) {
        spec.engines.push(EngineKind::SeqBsim);
        spec.engines.push(EngineKind::SeqBsat);
    }
    if let Some(tests) = tests {
        spec.tests = tests;
    }
    spec.k = k;
    if let Some(cap) = max_solutions {
        spec.max_solutions = cap;
    }
    if let Some(budget) = conflict_budget {
        spec.conflict_budget = Some(budget);
    }
    spec.work_budget = work_budget;
    spec.deadline_ms = deadline_ms;
    if let Some(rate) = chaos_rate {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let rate_ppm = (rate * 1_000_000.0).round() as u32;
        spec.chaos = Some(ChaosConfig {
            seed: chaos_seed,
            rate_ppm: rate_ppm.min(1_000_000),
        });
    }
    if let Some(attempts) = retry_attempts {
        spec.retry.max_attempts = attempts;
    }
    if let Some(backoff) = retry_backoff_ms {
        spec.retry.backoff_ms = backoff;
    }
    if let Some(retry_on) = retry_on {
        spec.retry.retry_on = retry_on;
    }
    spec.bench_warnings = bench_warnings;
    if test_gen {
        spec.test_gen = Some(gatediag::TestGenSpec {
            rounds: test_gen_rounds,
        });
    }
    if let Some(workers) = workers {
        spec.parallelism = Parallelism::Fixed(workers);
    }
    spec.collect_obs = trace_path.is_some() || profile;
    spec.solver_stats = solver_stats;

    let instances = spec.instances().len();
    let seq_note = if spec.engines.iter().any(|e| e.is_sequential()) {
        format!(
            " (sequential engines x {} frame count(s) x {} sequence count(s))",
            spec.frames.len(),
            spec.seq_lens.len()
        )
    } else {
        String::new()
    };
    println!(
        "campaign: {} circuit(s) x {} fault model(s) x {} error count(s) x {} seed(s) x \
         {} engine(s){seq_note} = {} instances",
        spec.circuits.len(),
        spec.fault_models.len(),
        spec.error_counts.len(),
        spec.seeds.len(),
        spec.engines.len(),
        instances
    );
    if spec.chaos.is_some() {
        // Injected chaos panics are caught and recorded per instance;
        // silence the expected ones, keep the hook for real bugs.
        silence_chaos_panics();
    }
    let checkpoint_policy = checkpoint.as_ref().map(|path| CheckpointPolicy {
        path: std::path::PathBuf::from(path),
        every: checkpoint_every,
    });
    let report = match &resume {
        Some(path) => {
            let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let previous =
                gatediag::parse_report_bytes(&bytes).map_err(|e| format!("{path}: {e}"))?;
            // One pass over the records, one over the instances — large
            // resumed matrices must not pay an instances × records scan
            // just for a progress line.
            let recorded: std::collections::HashSet<_> = previous
                .records
                .iter()
                .map(|r| {
                    (
                        r.circuit.as_str(),
                        r.fault_model,
                        r.p,
                        r.seed,
                        r.engine,
                        r.frames,
                        r.seq_len,
                    )
                })
                .collect();
            let reused = spec
                .instances()
                .iter()
                .filter(|inst| {
                    recorded.contains(&(
                        spec.circuits[inst.circuit].0.as_str(),
                        inst.fault_model,
                        inst.p,
                        inst.seed,
                        inst.engine,
                        inst.frames,
                        inst.seq_len,
                    ))
                })
                .count();
            println!(
                "resuming from {path}: {reused}/{instances} instance(s) already recorded, \
                 running {}",
                instances - reused
            );
            gatediag::campaign::resume_campaign_checkpointed(
                &spec,
                &previous,
                checkpoint_policy.as_ref(),
            )?
        }
        None => run_campaign_checkpointed(&spec, checkpoint_policy.as_ref()),
    };
    println!();
    print!("{}", report.summary_table());
    use gatediag::campaign::InstanceStatus;
    let skipped = report
        .records
        .iter()
        .filter(|r| {
            matches!(
                r.status,
                InstanceStatus::NotInjectable | InstanceStatus::NoFailingTests
            )
        })
        .count();
    if skipped > 0 {
        println!(
            "{skipped}/{instances} instance(s) skipped (not injectable or no failing tests); \
             see the per-instance report"
        );
    }
    let preempted = report
        .records
        .iter()
        .filter(|r| r.status == InstanceStatus::Preempted)
        .count();
    if preempted > 0 {
        println!(
            "{preempted}/{instances} instance(s) preempted by the work/deadline/conflict \
             budget; partial results recorded"
        );
    }
    let failed = report
        .records
        .iter()
        .filter(|r| r.status == InstanceStatus::Failed)
        .count();
    if failed > 0 {
        println!(
            "{failed}/{instances} instance(s) failed after exhausting retries; \
             see the `failure` column for the panic reason"
        );
    }

    if profile {
        println!();
        print!("{}", report.profile_table());
    }

    let mut outputs = vec![
        (&json_path, report.to_json(timing)),
        (&csv_path, report.to_csv(timing)),
    ];
    if let Some(path) = &trace_path {
        outputs.push((path, report.to_trace_jsonl(timing)));
    }
    for (path, content) in outputs {
        if let Some(parent) = std::path::Path::new(path).parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
            }
        }
        std::fs::write(path, content).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

fn equiv(args: &[String]) -> ExitCode {
    let o = match parse_options(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let (Some(a_path), Some(b_path)) = (&o.bench, &o.against) else {
        eprintln!("equiv requires --bench and --against\n\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let (a, b) = match (load_circuit(a_path), load_circuit(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match gatediag::cnf::check_equivalence(&a, &b) {
        None => {
            println!("EQUIVALENT");
            ExitCode::SUCCESS
        }
        Some((vector, diffs)) => {
            println!("NOT EQUIVALENT");
            println!("distinguishing vector: {vector:?}");
            for (gate, golden_value) in diffs {
                println!(
                    "  output {} should be {} (per {})",
                    name_of(&a, gate),
                    golden_value,
                    a_path
                );
            }
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> Result<Options, String> {
        let args: Vec<String> = args.iter().map(|s| (*s).to_string()).collect();
        parse_options(&args)
    }

    #[test]
    fn frames_and_seq_len_parse_and_default() {
        let o = opts(&["--demo"]).unwrap();
        assert_eq!(o.frames, None);
        assert_eq!(o.seq_len, 8);
        let o = opts(&["--demo", "--frames", "5", "--seq-len", "12"]).unwrap();
        assert_eq!(o.frames, Some(5));
        assert_eq!(o.seq_len, 12);
    }

    #[test]
    fn zero_frames_and_seq_len_are_rejected() {
        let e = opts(&["--demo", "--frames", "0"]).unwrap_err();
        assert!(e.contains("--frames"), "{e}");
        let e = opts(&["--demo", "--seq-len", "0"]).unwrap_err();
        assert!(e.contains("--seq-len"), "{e}");
        assert!(opts(&["--demo", "--frames", "-3"]).is_err());
        assert!(opts(&["--demo", "--frames", "many"]).is_err());
    }

    #[test]
    fn absurd_frames_and_seq_len_are_clamped() {
        let o = opts(&["--demo", "--frames", "999999", "--seq-len", "88888888"]).unwrap();
        assert_eq!(o.frames, Some(gatediag::campaign::MAX_FRAMES));
        assert_eq!(o.seq_len, gatediag::campaign::MAX_SEQ_LEN);
    }

    #[test]
    fn campaign_axis_lists_reject_zero_and_clamp() {
        let parse_frames = |text: &str| {
            parse_list(text, "frame count", |s| {
                s.parse().ok().and_then(|n| validate_frames(n).ok())
            })
        };
        assert_eq!(parse_frames("2,3").unwrap(), vec![2, 3]);
        assert!(parse_frames("2,0").is_err());
        assert_eq!(
            parse_frames("99999").unwrap(),
            vec![gatediag::campaign::MAX_FRAMES]
        );
        let parse_lens = |text: &str| {
            parse_list(text, "sequence count", |s| {
                s.parse().ok().and_then(|n| validate_seq_len(n).ok())
            })
        };
        assert_eq!(parse_lens("4,8").unwrap(), vec![4, 8]);
        assert!(parse_lens("0").is_err());
    }
}
