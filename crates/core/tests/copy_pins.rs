//! Pins the circuit copies the SAT side builds, and what the engines built
//! on them answer.
//!
//! Every SAT engine stacks Tseitin copies of a circuit into one solver:
//! plain copies (test generation's golden and faulty circuits), copies
//! with candidate gates freed (the SAT validity backend, Definition 3),
//! copies with gates pinned to constants (test generation's universal
//! expansion) and copies with correction multiplexers (BSAT and its
//! sequential form over the time-frame expansion). The CDCL search depends
//! on the exact variable and clause order of those copies, so a change to
//! how a copy is emitted must reproduce:
//!
//! - the `CnfCollector` stream (variable count and every clause) of each
//!   copy shape on a combinational, a random and an unrolled circuit;
//! - seq-BSAT's solutions and solver statistics;
//! - seq-BSIM's per-test candidate sets and mark counts, which do not touch
//!   the SAT side but are pinned with their SAT twin;
//! - the SAT validity backend's verdicts and statistics;
//! - `generate_discriminating_tests`' tests, classes and statistics;
//! - the sequential problem's validity verdicts (`DiagnosisProblem::is_valid`),
//!   on a set with mixed sequence lengths too.
//!
//! On a mismatch each test prints every actual line, ready to paste over
//! its pin.

use gatediag_cnf::{
    encode_circuit, encode_freed_copy, encode_instrumented_copy, encode_pinned_copy, CnfCollector,
    Instrumentation, MuxEncoding,
};
use gatediag_core::{
    basic_sat_diagnose, generate_discriminating_tests, generate_failing_sequences,
    generate_failing_tests, prepare, run_engine, BsatOptions, BsimOptions, Budget, DiagnoseRequest,
    DiagnosisProblem, EngineConfig, EngineKind, MarkPolicy, Parallelism, PreparedTests,
    SequenceTestSet, ValidityBackend, ValidityOracle,
};
use gatediag_netlist::{
    c17, inject_errors, parse_bench, unroll, Circuit, GateId, GateKind, RandomCircuitSpec,
};

/// FNV-1a 64 of `text` (the pins hash `Debug` renderings).
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Compares `actual` against `pinned` line by line, printing every actual
/// line on a mismatch.
fn check(what: &str, actual: &[String], pinned: &str) {
    let pinned: Vec<&str> = pinned
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect();
    if actual.iter().map(String::as_str).ne(pinned.iter().copied()) {
        panic!("{what} moved; actual lines:\n{}", actual.join("\n"));
    }
}

/// A small random circuit with 3 latches.
fn latch_circuit() -> Circuit {
    RandomCircuitSpec::new(5, 3, 30)
        .latches(3)
        .seed(1)
        .generate()
}

/// The non-input gates of `c`, in gate-id order.
fn functional(c: &Circuit) -> Vec<GateId> {
    c.iter()
        .filter(|(_, g)| g.kind() != GateKind::Input)
        .map(|(id, _)| id)
        .collect()
}

/// `num_vars:clauses:digest` of a collected formula.
fn stream(sink: CnfCollector) -> String {
    let (vars, clauses) = sink.into_parts();
    let digest = fnv(&format!("{vars} {clauses:?}"));
    format!("{vars}:{}:{digest:016x}", clauses.len())
}

const COPY_STREAMS: &str = "
c17 plain 22:36:f4c83f22c68be6e2
c17 freed 22:24:b53e43874a58858e
c17 pinned 22:28:27327a7cc78b66c6
c17 inline/all 28:36:fd72d9dd5a3533a5
c17 inline/picked 24:36:3959d7165d55163c
c17 mux/all 52:84:a52f4988fdc9abc7
c17 mux/picked 32:52:0196a9bb165cb793
c17 mux-c0/all 52:96:0cc04d1b8d4aeb61
c17 mux-c0/picked 32:56:8cedde51bbc73daa
rnd60 plain 144:426:c987fde59652e100
rnd60 freed 142:282:af8d4afc8688f548
rnd60 pinned 142:324:ca348b0f3c6a2f3c
rnd60 inline/all 205:426:1f6afb6bc8c6752b
rnd60 inline/picked 165:426:f297650bbf2f43e5
rnd60 mux/all 449:914:0f59419250700c9e
rnd60 mux/picked 249:594:170d09af00a6c495
rnd60 mux-c0/all 449:1036:653b604aeda0de60
rnd60 mux-c0/picked 249:636:5856c9801d50156e
unrolled plain 252:726:e9e10cad4a47c102
unrolled freed 240:460:e2f49cb588f3c1ee
unrolled pinned 240:524:527f150cdf0f6078
unrolled inline/all 348:726:26fa6d97cd308bd4
unrolled inline/picked 284:726:e1195e10b132f641
unrolled mux/all 732:1494:0ed0c3846eeb683c
unrolled mux/picked 412:982:903e3355a6cc50ea
unrolled mux-c0/all 732:1686:78557f0632f8b45d
unrolled mux-c0/picked 412:1046:ebf4eae562a79bfe
";

#[test]
fn copy_streams_are_pinned() {
    let circuits = [
        ("c17", c17()),
        ("rnd60", RandomCircuitSpec::new(8, 4, 60).seed(3).generate()),
        ("unrolled", unroll(&latch_circuit(), 3).circuit),
    ];
    let mut lines = Vec::new();
    for (name, c) in &circuits {
        let gates = functional(c);
        // Every third functional gate, in descending order, so that the
        // list order differs from the gate-id and topological orders.
        let picked: Vec<GateId> = gates.iter().rev().step_by(3).copied().collect();
        let pins: Vec<(GateId, bool)> = picked
            .iter()
            .enumerate()
            .map(|(i, &g)| (g, i % 2 == 0))
            .collect();

        // Two copies per sink: the second starts at the first's end.
        let mut sink = CnfCollector::new();
        encode_circuit(&mut sink, c);
        encode_circuit(&mut sink, c);
        lines.push(format!("{name} plain {}", stream(sink)));

        let mut sink = CnfCollector::new();
        encode_freed_copy(&mut sink, c, &picked);
        encode_freed_copy(&mut sink, c, &picked);
        lines.push(format!("{name} freed {}", stream(sink)));

        let mut sink = CnfCollector::new();
        encode_pinned_copy(&mut sink, c, &pins);
        encode_pinned_copy(&mut sink, c, &pins);
        lines.push(format!("{name} pinned {}", stream(sink)));

        for (label, encoding) in [
            ("inline", MuxEncoding::Inline),
            (
                "mux",
                MuxEncoding::ExplicitMux {
                    force_c_zero: false,
                },
            ),
            ("mux-c0", MuxEncoding::ExplicitMux { force_c_zero: true }),
        ] {
            for (sites_label, sites) in [("all", &gates), ("picked", &picked)] {
                let mut sink = CnfCollector::new();
                let inst = Instrumentation::new(&mut sink, c, sites, std::iter::once);
                encode_instrumented_copy(&mut sink, c, &inst, encoding);
                encode_instrumented_copy(&mut sink, c, &inst, encoding);
                lines.push(format!("{name} {label}/{sites_label} {}", stream(sink)));
            }
        }
    }
    check("copy streams", &lines, COPY_STREAMS);
}

/// engine-enum's sequential circuit.
fn rnd160() -> Circuit {
    RandomCircuitSpec::new(10, 5, 160)
        .latches(4)
        .seed(9)
        .name("rnd160")
        .generate()
}

const SEQ_BSAT: &str = "
s1 k1 tests:4 solutions:8 complete:true conflicts:38 props:35866 e636ab756539ee43
s1 k2 tests:4 solutions:171 complete:true conflicts:537 props:603783 a71bafa040bd56e8
s2 k1 tests:4 solutions:16 complete:true conflicts:35 props:57174 ec42595052f12265
s2 k2 tests:4 solutions:65 complete:true conflicts:287 props:271233 e957dfce2899faf9
s3 tests:0
";

#[test]
fn seq_bsat_is_pinned() {
    let golden = rnd160();
    let mut lines = Vec::new();
    for seed in 1..=3u64 {
        let request = DiagnoseRequest {
            engine: EngineKind::SeqBsat,
            p: 2,
            seed,
            frames: Some(3),
            ..DiagnoseRequest::default()
        }
        .validated()
        .expect("valid request");
        let prepared = prepare(&golden, &request);
        let PreparedTests::Sequential(tests) = &prepared.tests else {
            panic!("sequential request prepares sequences");
        };
        let faulty = prepared.faulty.clone().expect("injectable");
        if tests.is_empty() {
            lines.push(format!("s{seed} tests:0"));
            continue;
        }
        let problem = DiagnosisProblem::sequential(faulty, tests.clone());
        for k in [1, 2] {
            let diag = run_engine(
                EngineKind::SeqBsat,
                &problem,
                &EngineConfig {
                    k,
                    max_solutions: 1000,
                    ..EngineConfig::default()
                },
            );
            lines.push(format!(
                "s{seed} k{k} tests:{} solutions:{} complete:{} conflicts:{} props:{} {:016x}",
                tests.len(),
                diag.solutions.len(),
                diag.complete,
                diag.stats.conflicts,
                diag.stats.propagations,
                fnv(&format!("{:?} {:?}", diag.solutions, diag.stats))
            ));
        }
    }
    check("seq-BSAT", &lines, SEQ_BSAT);
}

const SEQ_BSIM: &str = "
rnd160/s1 FirstControlling inputs:false tests:4 frames:3 union:67 3d284641ae6d61b4
rnd160/s1 FirstControlling inputs:true tests:4 frames:3 union:70 9b305a2e18ac6047
rnd160/s1 AllControlling inputs:false tests:4 frames:3 union:106 02e82495687129ca
rnd160/s1 AllControlling inputs:true tests:4 frames:3 union:110 6458c7d593718027
rnd160/s2 FirstControlling inputs:false tests:4 frames:3 union:75 48907378e2f57090
rnd160/s2 FirstControlling inputs:true tests:4 frames:3 union:78 525fad55894bc857
rnd160/s2 AllControlling inputs:false tests:4 frames:3 union:99 22cbc0a9e321d2c1
rnd160/s2 AllControlling inputs:true tests:4 frames:3 union:103 df286ff33d7b1665
rnd30/mixed FirstControlling inputs:false tests:6 frames:4 union:17 499a3abdb8a22cd5
rnd30/mixed FirstControlling inputs:true tests:6 frames:4 union:18 a79c94abe334cc6b
rnd30/mixed AllControlling inputs:false tests:6 frames:4 union:18 6110d86229c5b7c3
rnd30/mixed AllControlling inputs:true tests:6 frames:4 union:19 beda3287ad4b5fdd
";

/// The sequential workloads of the seq-BSIM pin: engine-enum's `rnd160`
/// at p = 2, 3 frames (seeds 1 and 2), and [`latch_circuit`] with a set of
/// 2- and 4-frame sequences.
fn seq_bsim_workloads() -> Vec<(String, Circuit, SequenceTestSet)> {
    let golden = rnd160();
    let mut workloads = Vec::new();
    for seed in 1..=2u64 {
        let request = DiagnoseRequest {
            engine: EngineKind::SeqBsim,
            p: 2,
            seed,
            frames: Some(3),
            ..DiagnoseRequest::default()
        }
        .validated()
        .expect("valid request");
        let prepared = prepare(&golden, &request);
        let PreparedTests::Sequential(tests) = &prepared.tests else {
            panic!("sequential request prepares sequences");
        };
        let faulty = prepared.faulty.as_deref().expect("injectable").clone();
        workloads.push((format!("rnd160/s{seed}"), faulty, tests.clone()));
    }
    let random = latch_circuit();
    // The first injection seed whose error shows within 2 frames.
    let faulty = (1u64..)
        .map(|seed| inject_errors(&random, 1, seed).0)
        .find(|f| !generate_failing_sequences(&random, f, 2, 1, 5, 512).is_empty())
        .expect("some injection is observable");
    let short = generate_failing_sequences(&random, &faulty, 2, 3, 5, 512);
    let long = generate_failing_sequences(&random, &faulty, 4, 3, 6, 512);
    let mixed: SequenceTestSet = short.iter().chain(long.iter()).cloned().collect();
    workloads.push(("rnd30/mixed".to_string(), faulty, mixed));
    workloads
}

#[test]
fn seq_bsim_is_pinned() {
    let mut lines = Vec::new();
    for (name, faulty, tests) in seq_bsim_workloads() {
        let frames = tests.max_frames();
        let problem = DiagnosisProblem::sequential(faulty, tests);
        for policy in [MarkPolicy::FirstControlling, MarkPolicy::AllControlling] {
            for include_inputs in [false, true] {
                let options = BsimOptions {
                    policy,
                    include_inputs,
                    ..BsimOptions::default()
                };
                let result = problem.trace(options);
                let sets: Vec<Vec<GateId>> = result
                    .candidate_sets
                    .iter()
                    .map(|set| set.iter().collect())
                    .collect();
                lines.push(format!(
                    "{name} {policy:?} inputs:{include_inputs} tests:{} frames:{frames} union:{} {:016x}",
                    problem.len(),
                    result.union.len(),
                    fnv(&format!("{sets:?} {:?}", result.mark_counts))
                ));
            }
        }
    }
    check("seq-BSIM", &lines, SEQ_BSIM);
}

const SAT_VALIDITY: &str = "
seed1 tests:8 sets:38 valid:7 2e0c554c589b2fd5
seed5 tests:8 sets:38 valid:5 9e362d891850df5c
";

#[test]
fn sat_validity_backend_is_pinned() {
    let mut lines = Vec::new();
    // The first two seeds whose injection is observable.
    let workloads = (1u64..)
        .map(|seed| {
            let golden = RandomCircuitSpec::new(8, 4, 80).seed(seed).generate();
            let (faulty, sites) = inject_errors(&golden, 2, seed);
            let tests = generate_failing_tests(&golden, &faulty, 8, seed, 4096);
            (seed, faulty, sites, tests)
        })
        .filter(|(.., tests)| !tests.is_empty())
        .take(2);
    for (seed, faulty, sites, tests) in workloads {
        let gates = functional(&faulty);
        let mut sets: Vec<Vec<GateId>> = vec![sites.iter().map(|s| s.gate).collect()];
        sets.extend(gates.iter().take(24).map(|&g| vec![g]));
        sets.extend(gates.windows(2).step_by(7).map(<[GateId]>::to_vec));
        sets.push(gates.iter().step_by(4).copied().collect());
        let mut oracle = ValidityOracle::with_backend(&faulty, ValidityBackend::Sat);
        let mut trace = String::new();
        for set in &sets {
            let verdict = oracle.is_valid(&tests, set);
            trace += &format!("{verdict} {:?}\n", oracle.take_stats());
        }
        lines.push(format!(
            "seed{seed} tests:{} sets:{} valid:{} {:016x}",
            tests.len(),
            sets.len(),
            trace.matches("true").count(),
            fnv(&trace)
        ));
    }
    check("SAT validity backend", &lines, SAT_VALIDITY);
}

const TEST_GEN: &str = "
c17 gen:1 before:4 after:3 classes:1 truncation:None aa9fb2ff447d3a08
rnd70 gen:13 before:25 after:12 classes:1 truncation:None d045e4afc6ecc313
";

#[test]
fn discriminating_test_generation_is_pinned() {
    let workloads = [
        ("c17", c17(), 1usize, 7u64),
        (
            "rnd70",
            RandomCircuitSpec::new(8, 4, 70).seed(9).generate(),
            2,
            9,
        ),
    ];
    let mut lines = Vec::new();
    for (name, golden, p, seed) in &workloads {
        let (faulty, _) = inject_errors(golden, *p, *seed);
        let tests = generate_failing_tests(golden, &faulty, 1, *seed, 4096);
        let solutions = basic_sat_diagnose(&faulty, &tests, *p, BsatOptions::default()).solutions;
        let outcome = generate_discriminating_tests(
            golden,
            &faulty,
            &solutions,
            &Budget::default(),
            Parallelism::Sequential,
            ValidityBackend::Auto,
        );
        lines.push(format!(
            "{name} gen:{} before:{} after:{} classes:{} truncation:{:?} {:016x}",
            outcome.tests.len(),
            outcome.solutions_before,
            outcome.solutions_after,
            outcome.classes.len(),
            outcome.truncation,
            fnv(&format!(
                "{:?} {:?} {:?}",
                outcome.tests, outcome.classes, outcome.stats
            ))
        ));
    }
    check("discriminating test generation", &lines, TEST_GEN);
}

const SEQ_VALIDITY: &str = "
toggle even tests:4 frames:3 sets:11 valid:9 3af466485b1475ec
toggle mixed tests:6 frames:4 sets:11 valid:9 3af466485b1475ec
rnd30 even tests:4 frames:3 sets:742 valid:489 ba74661e57f0911c
rnd30 mixed tests:6 frames:4 sets:742 valid:489 ba74661e57f0911c
";

#[test]
fn sequential_validity_verdicts_are_pinned() {
    let toggle =
        parse_bench("INPUT(en)\nOUTPUT(out)\nq = DFF(d)\nd = XOR(q, en)\nout = BUF(q)\n").unwrap();
    let toggle_faulty = toggle.with_gate_kind(toggle.find("d").unwrap(), GateKind::Xnor);
    let random = latch_circuit();
    // The first injection seed whose error shows within 3 frames.
    let random_faulty = (1u64..)
        .map(|seed| inject_errors(&random, 1, seed).0)
        .find(|f| !generate_failing_sequences(&random, f, 3, 1, 3, 512).is_empty())
        .expect("some injection is observable");
    let mut lines = Vec::new();
    for (name, golden, faulty) in [
        ("toggle", &toggle, &toggle_faulty),
        ("rnd30", &random, &random_faulty),
    ] {
        let even = generate_failing_sequences(golden, faulty, 3, 4, 3, 512);
        // Mixed lengths: 2- and 4-frame sequences in one set.
        let short = generate_failing_sequences(golden, faulty, 2, 3, 5, 512);
        let long = generate_failing_sequences(golden, faulty, 4, 3, 6, 512);
        let mixed: SequenceTestSet = short.iter().chain(long.iter()).cloned().collect();
        for (label, tests) in [("even", even), ("mixed", mixed)] {
            let (frames, count) = (tests.max_frames(), tests.len());
            let problem = DiagnosisProblem::sequential(faulty.clone(), tests);
            let gates: Vec<GateId> = faulty.iter().map(|(id, _)| id).collect();
            let mut sets: Vec<Vec<GateId>> = vec![Vec::new()];
            for (i, &a) in gates.iter().enumerate() {
                sets.push(vec![a]);
                for &b in &gates[i + 1..] {
                    sets.push(vec![a, b]);
                }
            }
            let verdicts: String = sets
                .iter()
                .map(|set| char::from(b'0' + u8::from(problem.is_valid(set))))
                .collect();
            lines.push(format!(
                "{name} {label} tests:{count} frames:{frames} sets:{} valid:{} {:016x}",
                sets.len(),
                verdicts.matches('1').count(),
                fnv(&verdicts)
            ));
        }
    }
    check("sequential validity", &lines, SEQ_VALIDITY);
}
