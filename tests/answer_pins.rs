//! Answer pins: the diagnoses of the benchmark matrices, apart from the
//! search that found them.
//!
//! The trajectory pins (`solver_trajectory.rs`, the perfbench digests)
//! hash solver statistics and enumeration order, so a change that keeps
//! every answer but moves the search moves them all. These pins hold only
//! what a diagnosis *answers*, for each instance of the `campaign-triage`
//! and `engine-enum` matrices at smoke scale:
//!
//! - the status, the failing tests (count and an FNV-1a digest of every
//!   vector, output and expected value) and `complete`;
//! - the sorted solution list and Table 3's quality triple (min, avg and
//!   max distance to the nearest injected site), for complete runs only:
//!   a truncated list, and so its triple, depends on the model order.
//!
//! A second pin holds the failing tests alone (count and digest) of
//! every `campaign-triage` prepare at full scale, where five searches
//! exhaust the 2^15-vector budget and others span several batches. The
//! same prepares carry a Lemma 3 certificate: BSAT at k = 1 equals the
//! simulation screen of the failing outputs' common fan-in cone.
//!
//! No solver statistic is pinned. A change that alters the search but
//! not the answers leaves this file untouched; a change that alters the
//! generated tests or an answer re-pins it in a commit of its own, whose
//! diff is the review artefact. On a mismatch the test prints every
//! actual line, ready to paste over `PINS`.

use gatediag::campaign::CampaignSpec;
use gatediag::core::{
    basic_sat_diagnose, prepare, run_prepared, solution_quality, BsatOptions, ChaosPolicy,
    DiagnoseOutcome, DiagnoseRequest, EngineKind, Parallelism, Prepared, PreparedTests,
    ValidityBackend, ValidityOracle,
};
use gatediag::netlist::{
    fanin_cone, s1423_like, s6669_like, Circuit, FaultModel, GateId, GateKind, GateSet,
    RandomCircuitSpec,
};
use std::sync::OnceLock;

/// FNV-1a 64 over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn bits(&mut self, bits: &[bool]) {
        let packed: Vec<u8> = bits.iter().map(|&b| u8::from(b)).collect();
        self.bytes(&(bits.len() as u64).to_le_bytes());
        self.bytes(&packed);
    }
}

/// The failing tests as `count:digest`.
fn tests_digest(prepared: &Prepared) -> String {
    let mut h = Fnv::new();
    match &prepared.tests {
        PreparedTests::Combinational(tests) => {
            for t in tests.tests() {
                h.bits(&t.vector);
                h.bytes(&(t.output.index() as u64).to_le_bytes());
                h.bits(&[t.expected]);
            }
        }
        PreparedTests::Sequential(tests) => {
            for t in tests.tests() {
                h.bits(&t.initial_state);
                for v in &t.vectors {
                    h.bits(v);
                }
                h.bytes(&(t.frame as u64).to_le_bytes());
                h.bytes(&(t.output.index() as u64).to_le_bytes());
                h.bits(&[t.expected]);
            }
        }
    }
    format!("{}:{:016x}", prepared.tests.len(), h.0)
}

fn gates(list: &[GateId]) -> Vec<usize> {
    list.iter().map(|g| g.index()).collect()
}

/// One instance's answer line.
fn answer(label: &str, golden: &Circuit, request: &DiagnoseRequest) -> String {
    let prepared = prepare(golden, request);
    let outcome: DiagnoseOutcome = run_prepared(
        golden,
        &prepared,
        request,
        Parallelism::Sequential,
        ChaosPolicy::off(),
    );
    let mut line = format!(
        "{label} status={} tests={}",
        outcome.status.name(),
        tests_digest(&prepared)
    );
    let (Some(run), Some(faulty)) = (&outcome.run, &outcome.faulty) else {
        return line;
    };
    line.push_str(&format!(" complete={}", run.complete));
    if !run.complete {
        return line;
    }
    let mut solutions: Vec<Vec<usize>> = run.solutions.iter().map(|s| gates(s)).collect();
    solutions.sort();
    let solutions: Vec<String> = solutions
        .iter()
        .map(|s| s.iter().map(usize::to_string).collect::<Vec<_>>().join("+"))
        .collect();
    line.push_str(&format!(" solutions=[{}]", solutions.join(" ")));
    if !run.solutions.is_empty() {
        let errors: Vec<GateId> = outcome.faults.iter().map(|f| f.gate).collect();
        let q = solution_quality(faulty, &run.solutions, &errors);
        line.push_str(&format!(
            " quality=({:.4},{:.4},{:.4})",
            q.min, q.avg, q.max
        ));
    }
    line
}

/// `campaign-triage` at smoke scale: `s1423_like`, gate-change and
/// stuck-at, p = 1, seed 1, the four engines, with the campaign's
/// request defaults.
fn campaign_triage() -> Vec<String> {
    let mut spec = CampaignSpec::new(vec![("s1423_like".to_string(), s1423_like(1))]);
    spec.error_counts = vec![1];
    spec.engines = vec![
        EngineKind::Bsim,
        EngineKind::Cov,
        EngineKind::Bsat,
        EngineKind::Auto,
    ];
    spec.fault_models = vec![FaultModel::GateChange, FaultModel::StuckAt];
    spec.seeds = vec![1];
    spec.instances()
        .iter()
        .map(|inst| {
            let (name, golden) = &spec.circuits[inst.circuit];
            let request = DiagnoseRequest {
                engine: inst.engine,
                fault_model: inst.fault_model,
                p: inst.p,
                seed: inst.seed,
                tests: spec.tests,
                max_test_vectors: spec.max_test_vectors,
                k: spec.k,
                frames: inst.frames,
                seq_len: inst.seq_len,
                max_solutions: spec.max_solutions,
                conflict_budget: spec.conflict_budget,
                work_budget: spec.work_budget,
                deadline_ms: spec.deadline_ms,
                test_gen: false,
            };
            let label = format!(
                "triage {name}/{}/p{}/s{}/{}",
                inst.fault_model.name(),
                inst.p,
                inst.seed,
                inst.engine.name()
            );
            answer(&label, golden, &request)
        })
        .collect()
}

/// `engine-enum` at smoke scale: `s1423_like` at p = 2, seed 1, on cov,
/// bsat and auto; the latch circuit `rnd160` at p = 2, seed 1, three
/// frames, on the sequential engines.
fn engine_enum() -> Vec<String> {
    let s1423 = s1423_like(1);
    let rnd160 = RandomCircuitSpec::new(10, 5, 160)
        .latches(4)
        .seed(9)
        .name("rnd160")
        .generate();
    let mut lines = Vec::new();
    for engine in [EngineKind::Cov, EngineKind::Bsat, EngineKind::Auto] {
        let request = DiagnoseRequest {
            engine,
            p: 2,
            seed: 1,
            max_solutions: 1000,
            ..DiagnoseRequest::default()
        }
        .validated()
        .expect("valid request");
        let label = format!("enum s1423_like/{}/p2/s1", engine.name());
        lines.push(answer(&label, &s1423, &request));
    }
    for engine in EngineKind::SEQUENTIAL {
        let request = DiagnoseRequest {
            engine,
            p: 2,
            seed: 1,
            frames: Some(3),
            ..DiagnoseRequest::default()
        }
        .validated()
        .expect("valid request");
        let label = format!("enum rnd160/{}/p2/s1/f3", engine.name());
        lines.push(answer(&label, &rnd160, &request));
    }
    lines
}

/// One line per instance: `label status tests [complete [solutions
/// quality]]`, a solution's gates joined by `+`.
const PINS: &str = "\
triage s1423_like/gate-change/p1/s1/bsim status=ok tests=8:6dc5ebf2f5cd0dca complete=true solutions=[99+122+135+155+161+235] quality=(2.3333,2.3333,2.3333)\n\
triage s1423_like/gate-change/p1/s1/cov status=ok tests=8:6dc5ebf2f5cd0dca complete=true solutions=[99 122 135 155 161 235] quality=(0.0000,2.3333,5.0000)\n\
triage s1423_like/gate-change/p1/s1/bsat status=ok tests=8:6dc5ebf2f5cd0dca complete=true solutions=[161] quality=(0.0000,0.0000,0.0000)\n\
triage s1423_like/gate-change/p1/s1/auto status=ok tests=8:6dc5ebf2f5cd0dca complete=true solutions=[161] quality=(0.0000,0.0000,0.0000)\n\
triage s1423_like/stuck-at/p1/s1/bsim status=ok tests=8:598e538bd96cd3a7 complete=true solutions=[103+107+112+116+173+181+184+220+226+234+249+290+308+311+345+358+369+373+467+479+486+523+573+621+690] quality=(4.0400,4.0400,4.0400)\n\
triage s1423_like/stuck-at/p1/s1/cov status=ok tests=8:598e538bd96cd3a7 complete=true solutions=[103 107 112 116 173 181 184 220 226 234 249 290 308 311 345 358 369 373 467 479 486 523 573 621 690] quality=(0.0000,4.0400,7.0000)\n\
triage s1423_like/stuck-at/p1/s1/bsat status=ok tests=8:598e538bd96cd3a7 complete=true solutions=[181 220 249 290 369 467 479 486 523 573 621 690] quality=(0.0000,3.0000,5.0000)\n\
triage s1423_like/stuck-at/p1/s1/auto status=ok tests=8:598e538bd96cd3a7 complete=true solutions=[181 220 249 290 369 467 479 486 523 573 621 690] quality=(0.0000,3.0000,5.0000)\n\
enum s1423_like/cov/p2/s1 status=ok tests=8:6dc5ebf2f5cd0dca complete=true solutions=[93+101 93+103 93+105 93+106 93+107 93+110 93+112 93+113 93+114 93+116 93+119 93+120 93+123 93+124 93+125 93+127 93+131 93+132 93+134 93+137 93+138 93+144 93+146 93+149 93+150 93+152 93+153 93+159 93+167 93+168 93+171 93+174 93+176 93+177 93+179 93+182 93+183 93+196 93+197 93+198 93+203 93+216 93+222 93+233 93+255 93+257 93+258 93+263 93+270 93+276 93+278 93+293 93+302 93+318 93+333 93+348 93+353 93+365 93+381 93+407 93+408 93+436 93+493 93+512 93+521 93+531 93+549 93+562 93+599 93+603 93+606 93+613 93+667 93+718 99 100+101 100+103 100+107 100+112 100+113 100+116 100+123 100+127 100+131 100+138 100+146 100+168 100+179 100+196 100+222 100+255 100+257 100+270 100+353 100+365 100+407 103+117 103+141 103+190 103+210 103+211 103+223 103+244 103+281 103+294 103+297 103+307 103+315 103+328 104+179 104+222 104+255 104+257 104+270 105+116 105+179 105+222 105+255 105+257 105+270 107+117 107+141 107+190 107+210 107+211 107+223 107+244 107+281 107+294 107+297 107+307 107+315 107+328 111+179 111+222 111+255 111+257 111+270 112+117 112+141 112+190 112+210 112+211 112+223 112+244 112+281 112+294 112+297 112+307 112+315 112+328 113+117 113+141 113+190 113+210 113+211 113+223 113+244 113+281 113+294 113+297 113+307 113+315 113+328 115+179 115+222 115+255 115+257 115+270 117+179 117+222 117+255 117+257 117+270 122 126+179 126+222 126+255 126+257 126+270 135 136+179 136+222 136+255 136+257 136+270 139+179 139+222 139+255 139+257 139+270 141+179 141+222 141+255 141+257 141+270 154+179 154+222 154+255 154+257 154+270 155 157+179 157+222 157+255 157+257 157+270 161 175+179 175+222 175+255 175+257 175+270 179+190 179+210 179+211 179+223 179+228 179+244 179+252 179+280 179+281 179+294 179+297 179+307 179+315 179+328 179+329 179+746 190+222 190+255 190+257 190+270 210+222 210+255 210+257 210+270 211+222 211+255 211+257 211+270 222+223 222+228 222+244 222+252 222+280 222+281 222+294 222+297 222+307 222+315 222+328 222+329 222+746 223+255 223+257 223+270 228+255 228+257 228+270 235 244+255 244+257 244+270 252+255 252+257 252+270 255+280 255+281 255+294 255+297 255+307 255+315 255+328 255+329 255+746 257+280 257+281 257+294 257+297 257+307 257+315 257+328 257+329 257+746 270+280 270+281 270+294 270+297 270+307 270+315 270+328] quality=(0.0000,3.4726,5.5000)\n\
enum s1423_like/bsat/p2/s1 status=ok tests=8:6dc5ebf2f5cd0dca complete=true solutions=[100+235 105+235 107+235 111+235 112+235 115+235 126+235 140+235 157+235 161 163+235 173+235 175+235 184+235 193+235 194+235 223+235 223+255 223+257 223+270 226+235 228+235 235+238 235+252 235+253 235+273 235+280 235+281 235+287 235+294 235+296 235+297 235+303 235+306 235+307 235+315 235+328 235+329 235+336 235+351 235+367 235+395 235+409 235+411 235+415 235+422 235+427 235+446 235+456 235+469 235+480 235+529 235+542 235+569 235+724 235+729 235+746 255+281 255+294 255+297 255+307 255+315 255+328 257+281 257+294 257+297 257+307 257+315 257+328 270+281 270+294 270+297 270+307 270+315 270+328] quality=(0.0000,2.4467,4.0000)\n\
enum s1423_like/auto/p2/s1 status=ok tests=8:6dc5ebf2f5cd0dca complete=true solutions=[161 223+255 223+257 223+270 255+281 255+294 255+297 255+307 255+315 255+328 257+281 257+294 257+297 257+307 257+315 257+328 270+281 270+294 270+297 270+307 270+315 270+328] quality=(0.0000,2.7727,4.0000)\n\
enum rnd160/seq-bsim/p2/s1/f3 status=ok tests=4:5f0a49940c474531 complete=true solutions=[14+15+16+17+19+20+21+22+23+24+25+27+28+29+31+32+34+35+40+41+42+43+45+47+49+50+51+52+55+59+61+64+72+83+92+109+134+138+156+165+173] quality=(3.7561,3.7561,3.7561)\n\
enum rnd160/seq-bsat/p2/s1/f3 status=ok tests=4:5f0a49940c474531 complete=true solutions=[14+30 14+32 14+35 14+85 14+94 14+105 14+119 14+133 14+153 20+32 20+35 20+47 20+83 22+32 22+35 22+47 22+65 22+83 22+94 28+38 28+40 28+42 28+43 28+45 28+52 28+53 28+55 28+59 28+62 28+63 28+65 28+68 28+70 28+71 28+77 28+79 28+85 28+94 28+95 28+117 28+119 28+122 28+151 29+38 29+40 29+42 29+43 29+45 29+52 29+53 29+55 29+59 29+62 29+63 29+65 29+68 29+70 29+71 29+77 29+79 29+85 29+94 29+95 29+117 29+119 29+122 29+151 32+38 32+40 32+42 32+43 32+45 32+52 32+55 32+59 32+63 32+65 32+68 32+70 32+71 32+77 32+79 32+85 32+94 32+95 32+117 32+119 32+122 32+151 35+38 35+40 35+42 35+43 35+45 35+52 35+55 35+59 35+63 35+65 35+68 35+70 35+71 35+77 35+79 35+85 35+94 35+95 35+117 35+119 35+122 35+151 38+47 38+55 40+47 40+83 41+72 41+83 42+47 42+83 43+47 43+83 44+55 46+49 47+50 47+52 47+55 47+59 47+63 47+65 47+68 47+70 47+71 47+77 47+79 47+85 47+94 47+95 47+117 47+119 47+122 47+151 50+83 51 52+83 55+78 55+83 55+89 59+83 61 63+83 65+83 68+83 70+83 71+83 72+78 72+89 77+83 79+83 83+85 83+94 83+95 83+117 83+119 83+122 83+151 92 109 138 156 165 173] quality=(0.0000,3.7339,5.0000)\n\
";

#[test]
fn answers_match_pins() {
    let mut actual = campaign_triage();
    actual.extend(engine_enum());
    let actual = actual.join("\n") + "\n";
    if actual != PINS {
        eprintln!("actual answers:\n{actual}");
    }
    assert!(actual == PINS, "answers moved; see the lines printed above");
}

/// Every prepare of `campaign-triage` at full scale, labelled
/// `circuit/fault-model/pP/sSEED`: `s6669_like` and `s1423_like`, the
/// four fault models, p = 1, seeds 1 and 2, with the campaign's request
/// defaults (8 tests, a 2^15-vector budget). Built once per test binary
/// and shared by the tests below.
fn full_scale_triage_prepares() -> &'static [(String, Prepared)] {
    static PREPARES: OnceLock<Vec<(String, Prepared)>> = OnceLock::new();
    PREPARES.get_or_init(|| {
        let mut spec = CampaignSpec::new(vec![
            ("s6669_like".to_string(), s6669_like(1)),
            ("s1423_like".to_string(), s1423_like(1)),
        ]);
        spec.error_counts = vec![1];
        spec.engines = vec![EngineKind::Bsim];
        spec.fault_models = FaultModel::ALL.to_vec();
        spec.seeds = vec![1, 2];
        spec.instances()
            .iter()
            .map(|inst| {
                let (name, golden) = &spec.circuits[inst.circuit];
                let request = DiagnoseRequest {
                    engine: inst.engine,
                    fault_model: inst.fault_model,
                    p: inst.p,
                    seed: inst.seed,
                    tests: spec.tests,
                    max_test_vectors: spec.max_test_vectors,
                    ..DiagnoseRequest::default()
                };
                let label = format!(
                    "{name}/{}/p{}/s{}",
                    inst.fault_model.name(),
                    inst.p,
                    inst.seed
                );
                (label, prepare(golden, &request))
            })
            .collect()
    })
}

/// The failing tests of every full-scale `campaign-triage` prepare. Five
/// of the sixteen searches exhaust the budget without a failing test;
/// the others stop after one or more 512-vector batches. Only the tests
/// are pinned: the engines' answers at this scale are the perfbench
/// digests' business.
fn full_scale_triage_tests() -> Vec<String> {
    full_scale_triage_prepares()
        .iter()
        .map(|(label, prepared)| format!("{label} tests={}", tests_digest(prepared)))
        .collect()
}

/// One line per full-scale `campaign-triage` prepare: `label
/// tests=count:digest`.
const FULL_SCALE_TEST_PINS: &str = "\
s6669_like/gate-change/p1/s1 tests=8:5590f84ba85a14ae\n\
s6669_like/gate-change/p1/s2 tests=8:b039a05295765d80\n\
s6669_like/stuck-at/p1/s1 tests=8:e6fa08b644184217\n\
s6669_like/stuck-at/p1/s2 tests=0:cbf29ce484222325\n\
s6669_like/input-swap/p1/s1 tests=0:cbf29ce484222325\n\
s6669_like/input-swap/p1/s2 tests=8:2087085246d8cc99\n\
s6669_like/extra-inverter/p1/s1 tests=8:7dac102fd7951826\n\
s6669_like/extra-inverter/p1/s2 tests=0:cbf29ce484222325\n\
s1423_like/gate-change/p1/s1 tests=8:6dc5ebf2f5cd0dca\n\
s1423_like/gate-change/p1/s2 tests=8:8a29c65bef8a60cc\n\
s1423_like/stuck-at/p1/s1 tests=8:598e538bd96cd3a7\n\
s1423_like/stuck-at/p1/s2 tests=0:cbf29ce484222325\n\
s1423_like/input-swap/p1/s1 tests=8:429cb373d2108da4\n\
s1423_like/input-swap/p1/s2 tests=0:cbf29ce484222325\n\
s1423_like/extra-inverter/p1/s1 tests=8:c1362e740bc03382\n\
s1423_like/extra-inverter/p1/s2 tests=8:4c5e11158b08b8a6\n\
";

#[test]
fn full_scale_triage_tests_match_pins() {
    let actual = full_scale_triage_tests().join("\n") + "\n";
    if actual != FULL_SCALE_TEST_PINS {
        eprintln!("actual tests:\n{actual}");
    }
    assert!(
        actual == FULL_SCALE_TEST_PINS,
        "generated tests moved; see the lines printed above"
    );
}

/// Lemma 3 at full scale: BSAT at k = 1 returns exactly the single gates
/// that are valid corrections. Such a gate lies in the fan-in cone of
/// every failing output, so one reused simulation oracle screening the
/// intersection of those cones must return BSAT's list. This certifies
/// completeness where brute force cannot reach.
#[test]
fn full_scale_bsat_k1_equals_the_cone_intersection_sim_screen() {
    let mut prepares = 0;
    let mut solutions = 0;
    for (label, prepared) in full_scale_triage_prepares() {
        let (Some(faulty), PreparedTests::Combinational(tests)) =
            (&prepared.faulty, &prepared.tests)
        else {
            panic!("{label}: campaign-triage prepares are combinational and injectable");
        };
        if tests.is_empty() {
            continue;
        }
        let bsat = basic_sat_diagnose(faulty, tests, 1, BsatOptions::default());
        assert!(bsat.complete, "{label}: BSAT truncated");
        let mut outputs: Vec<GateId> = tests.iter().map(|t| t.output).collect();
        outputs.sort();
        outputs.dedup();
        let cones: Vec<GateSet> = outputs.iter().map(|&o| fanin_cone(faulty, &[o])).collect();
        let mut oracle = ValidityOracle::with_backend(faulty, ValidityBackend::Sim);
        let screened: Vec<Vec<GateId>> = faulty
            .iter()
            .filter(|&(id, g)| {
                g.kind() != GateKind::Input && cones.iter().all(|cone| cone.contains(id))
            })
            .filter(|&(id, _)| oracle.is_valid(tests, &[id]))
            .map(|(id, _)| vec![id])
            .collect();
        assert_eq!(bsat.solutions, screened, "{label}");
        prepares += 1;
        solutions += screened.len();
    }
    assert_eq!((prepares, solutions), (11, 134));
}
