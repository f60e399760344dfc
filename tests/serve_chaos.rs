//! Chaos tests of `verifas serve`: seeded fault injection at every site.
//!
//! The robustness claim under test is twofold.  *Liveness*: whatever a
//! seeded [`FaultPlan`] throws at the serve path — stalled and reset
//! sockets, panicking workers, session evictions racing lookups, a
//! skewed clock — the server answers its next request, and every gauge
//! (in-flight requests, queue depth, core leases) returns to zero once
//! traffic drains.  *Integrity*: faults can only truncate or refuse a
//! request, never steer it — every report a chaos run *completes* is
//! bit-identical (modulo timing fields) to a direct `Engine::check_all`
//! of the same property.  And because a plan's decisions are a pure
//! function of `(seed, site, occurrence)`, a failing run replays
//! byte-for-byte from its plan string alone.

use std::io::{BufReader, Read, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use verifas::core::Json;
use verifas::prelude::*;
use verifas::serve::{
    AdmissionLimits, FaultPlan, FaultSite, Gateway, PriorityClass, ServeConfig, Server,
    VerifyRequest,
};
use verifas::ReuseMode;

fn example(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("examples/specs")
        .join(name);
    std::fs::read_to_string(&path).expect("example spec exists")
}

/// A report's scheduling-independent core: verdict, witness and search
/// statistics with timing and machine-sharing fields stripped (same
/// idiom as the `serve_e2e` and `batch_scheduling` suites).
fn comparable(
    report: &VerificationReport,
) -> (
    VerificationOutcome,
    Option<Witness>,
    SearchStats,
    Option<SearchStats>,
    Option<CycleStats>,
) {
    let strip = |mut stats: SearchStats| {
        stats.elapsed_ms = 0;
        stats.threads = 0;
        stats
    };
    let cycle = report.repeated_cycle.map(|mut cycle| {
        cycle.edge_micros = 0;
        cycle.scc_micros = 0;
        cycle.threads = 0;
        cycle
    });
    (
        report.outcome,
        report.witness.clone(),
        strip(report.stats),
        report.repeated_stats.map(strip),
        cycle,
    )
}

fn frame_kind(frame: &Json) -> &str {
    frame.get("frame").and_then(Json::as_str).unwrap()
}

/// Submit through an in-process gateway, collecting every frame.
fn collect(gateway: &Gateway, request: &VerifyRequest) -> Vec<Json> {
    let frames = Mutex::new(Vec::new());
    let sink = |line: &str| frames.lock().unwrap().push(Json::parse(line).unwrap());
    gateway
        .submit(request, &sink)
        .expect("chaos-run requests must be served, not refused");
    frames.into_inner().unwrap()
}

/// One best-effort HTTP round trip: the raw response text, or `None`
/// when an injected fault (reset, stalled-out socket) killed the
/// connection.  Chaos clients expect to lose some requests.
fn try_roundtrip(addr: std::net::SocketAddr, request: &str) -> Option<String> {
    let stream = std::net::TcpStream::connect(addr).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .ok()?;
    (&stream).write_all(request.as_bytes()).ok()?;
    let mut response = String::new();
    BufReader::new(&stream).read_to_string(&mut response).ok()?;
    Some(response)
}

fn get(path: &str) -> String {
    format!("GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
}

fn post(path: &str, body: &str) -> String {
    format!(
        "POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// Block until every request-holding gauge of `gateway` reads zero.
fn await_drained(gateway: &Gateway) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let drained = PriorityClass::ALL.iter().all(|&class| {
            gateway.requests().in_flight(class) == 0 && gateway.requests().queued_len(class) == 0
        });
        if drained {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "gauges never drained: {}",
            gateway.metrics_text()
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Integrity under chaos: with eviction races, clock skew and worker
/// panics firing throughout, every report a run *completes* is
/// bit-identical to a direct `Engine::check_all`, every failure is the
/// typed, contained worker-panic error, and every stream stays
/// well-formed (first frame `admitted`, last frame `done`).
#[test]
fn completed_results_under_chaos_match_direct_check_all_bit_for_bit() {
    let source = example("conference_review.has");
    let compiled = verifas::spec::compile(&source).unwrap();
    let direct = Engine::load(compiled.spec.clone())
        .unwrap()
        .check_all(&compiled.properties);

    let plan =
        Arc::new(FaultPlan::parse("seed=5,evict-race=2,clock-skew=2,worker-panic=17").unwrap());
    let gateway = Gateway::with_faults(
        ServeConfig {
            cores: 2,
            sessions: 2,
            limits: AdmissionLimits::default(),
            reuse: ReuseMode::Preproc,
            memory_bytes: 0,
        },
        Some(Arc::clone(&plan)),
    );

    let names: Vec<String> = compiled.properties.iter().map(|p| p.name.clone()).collect();
    for round in 0..10 {
        let request = VerifyRequest {
            spec: source.clone(),
            class: if round % 2 == 0 {
                PriorityClass::Interactive
            } else {
                PriorityClass::Batch
            },
            // Stretch early rounds so the worker-panic site gets plenty
            // of in-search visits before report reuse kicks in.
            properties: Some(std::iter::repeat_n(names.clone(), 3).flatten().collect()),
            // A generous deadline the ±250 ms clock-skew fault cannot
            // push into the past.
            deadline_ms: Some(600_000),
            max_states: None,
            max_millis: None,
        };
        let frames = collect(&gateway, &request);
        assert_eq!(frame_kind(&frames[0]), "admitted", "round {round}");
        assert_eq!(frame_kind(frames.last().unwrap()), "done", "round {round}");
        for frame in &frames {
            if frame_kind(frame) != "report" {
                continue;
            }
            let index = frame.get("index").and_then(Json::as_u64).unwrap() as usize;
            match frame.get("report") {
                Some(report) => {
                    let report = VerificationReport::from_json(&report.to_string()).unwrap();
                    assert_eq!(
                        comparable(&report),
                        comparable(direct[index % names.len()].as_ref().unwrap()),
                        "round {round}: a fault changed a completed result"
                    );
                }
                None => {
                    let error = frame.get("error").and_then(Json::as_str).unwrap();
                    assert!(
                        error.contains("worker panicked"),
                        "round {round}: only the contained worker panic may fail \
                         a property here, got: {error}"
                    );
                }
            }
        }
    }

    assert!(
        plan.fired_count(FaultSite::EvictRace) >= 3,
        "the eviction race must actually have raced"
    );
    assert!(
        plan.fired_count(FaultSite::ClockSkew) >= 3,
        "the clock-skew site must actually have skewed"
    );
    assert!(
        plan.fired_count(FaultSite::WorkerPanic) >= 1,
        "at least one search worker must have panicked mid-search"
    );
    await_drained(&gateway);
    let text = gateway.metrics_text();
    assert!(text.contains("verifas_requests_in_flight{class=\"interactive\"} 0"));
    assert!(text.contains("verifas_requests_in_flight{class=\"batch\"} 0"));
}

/// Liveness under a socket-fault storm: hundreds of requests against a
/// server whose reads stall and reset, whose writes stall and reset,
/// and whose connection handlers panic.  The server must answer its
/// next request afterwards, every contained panic must be counted, and
/// no gauge may leak.
#[test]
fn a_socket_fault_storm_leaves_the_server_live_and_leak_free() {
    let plan = Arc::new(
        FaultPlan::parse(
            "seed=11,read-stall=3,read-reset=4,write-stall=3,write-reset=5,conn-panic=5,stall-ms=1",
        )
        .unwrap(),
    );
    let mut server = Server::start_with_faults(
        "127.0.0.1:0",
        ServeConfig {
            cores: 2,
            sessions: 4,
            limits: AdmissionLimits::default(),
            reuse: ReuseMode::Preproc,
            memory_bytes: 0,
        },
        4,
        Some(Arc::clone(&plan)),
    )
    .unwrap();
    let addr = server.local_addr();
    let spec = example("loan_approval.has");
    let verify_body = Json::Obj(vec![("spec".to_owned(), Json::Str(spec.clone()))]).to_string();

    let mut answered = 0usize;
    for round in 0..300 {
        let request = match round % 25 {
            0 => post("/v1/verify", &verify_body),
            n if n % 3 == 0 => get("/metrics"),
            n if n % 3 == 1 => post("/v1/hash", &verify_body),
            _ => get("/healthz"),
        };
        if let Some(response) = try_roundtrip(addr, &request) {
            if response.starts_with("HTTP/1.1 200") {
                answered += 1;
            }
        }
    }
    assert!(
        answered >= 50,
        "the server must keep answering through the storm (got {answered}/300)"
    );

    // Every socket-level site must actually have fired — a storm that
    // never struck proves nothing.
    for site in [
        FaultSite::ReadStall,
        FaultSite::ReadReset,
        FaultSite::WriteStall,
        FaultSite::WriteReset,
        FaultSite::ConnPanic,
    ] {
        assert!(
            plan.fired_count(site) >= 1,
            "site {} never fired",
            site.name()
        );
    }
    let total_fired: u64 = FaultSite::ALL
        .iter()
        .map(|&site| plan.fired_count(site))
        .sum();
    assert!(
        total_fired >= 100,
        "a storm should land hundreds of faults, landed {total_fired}"
    );

    // Requests whose clients were cut off mid-stream finish server-side;
    // wait for the last of them, then check the books.
    await_drained(server.gateway());
    let text = server.gateway().metrics_text();
    assert!(text.contains(&format!("verifas_faults_injected_total {total_fired}")));
    assert!(text.contains(&format!(
        "verifas_worker_panics_total {}",
        plan.fired_count(FaultSite::ConnPanic)
    )));
    assert!(text.contains("verifas_requests_in_flight{class=\"interactive\"} 0"));
    assert!(text.contains("verifas_requests_in_flight{class=\"batch\"} 0"));
    assert!(text.contains("verifas_queue_depth{class=\"interactive\"} 0"));
    assert!(text.contains("verifas_queue_depth{class=\"batch\"} 0"));

    // The storm is over only when a clean request gets through; faults
    // still fire, so allow a few attempts.
    let alive = (0..20).any(|_| {
        try_roundtrip(addr, &get("/healthz"))
            .is_some_and(|response| response.starts_with("HTTP/1.1 200"))
    });
    assert!(alive, "the server must still answer after the storm");
    server.shutdown();
}

/// Replayability: the same plan string against the same serial request
/// sequence makes byte-for-byte the same fault decisions and produces
/// the same frame sequence — the property that lets CI replay any chaos
/// failure from its seed alone.
#[test]
fn the_same_fault_plan_replays_the_same_decisions_and_frames() {
    let source = example("parcel_returns.has");
    let run = |plan_text: &str| {
        let plan = Arc::new(FaultPlan::parse(plan_text).unwrap());
        let gateway = Gateway::with_faults(
            ServeConfig {
                // One core and serial submissions: the visit sequence at
                // every site is deterministic, so the runs must agree.
                cores: 1,
                sessions: 2,
                limits: AdmissionLimits::default(),
                reuse: ReuseMode::Preproc,
                memory_bytes: 0,
            },
            Some(Arc::clone(&plan)),
        );
        let mut kinds = Vec::new();
        for round in 0..6 {
            let request = VerifyRequest {
                spec: source.clone(),
                class: PriorityClass::Interactive,
                properties: None,
                deadline_ms: Some(600_000 + round),
                max_states: None,
                max_millis: None,
            };
            for frame in collect(&gateway, &request) {
                kinds.push(frame_kind(&frame).to_owned());
            }
        }
        let counts: Vec<(u64, u64)> = FaultSite::ALL
            .iter()
            .map(|&site| (plan.visit_count(site), plan.fired_count(site)))
            .collect();
        (kinds, counts)
    };

    let plan_text = "seed=42,evict-race=2,clock-skew=3,stall-ms=1";
    let (first_frames, first_counts) = run(plan_text);
    let (second_frames, second_counts) = run(plan_text);
    assert_eq!(
        first_counts, second_counts,
        "same plan, same traffic: same visit and fire counts at every site"
    );
    assert_eq!(
        first_frames, second_frames,
        "same plan, same traffic: same frame sequence"
    );
    assert!(
        first_counts.iter().any(|&(_, fired)| fired > 0),
        "the replayed plan must actually inject something"
    );

    // A different seed over the same traffic diverges — the seed is the
    // whole story.
    let (_, other_counts) = run("seed=43,evict-race=2,clock-skew=3,stall-ms=1");
    assert_ne!(
        first_counts, other_counts,
        "a different seed must make different decisions"
    );
}

/// Memory-pressure degradation end to end: a server whose byte budget
/// cannot hold even one search round answers every property with the
/// typed `ResourceExhausted` report error — states-explored and budget
/// figures included — finishes the stream with a well-formed `done`
/// frame, and keeps serving.
#[test]
fn a_memory_starved_server_degrades_typed_and_stays_live() {
    let mut server = Server::start(
        "127.0.0.1:0",
        ServeConfig {
            cores: 2,
            sessions: 4,
            limits: AdmissionLimits::default(),
            reuse: ReuseMode::Preproc,
            memory_bytes: 1,
        },
        2,
    )
    .unwrap();
    let addr = server.local_addr();
    let body = Json::Obj(vec![(
        "spec".to_owned(),
        Json::Str(example("loan_approval.has")),
    )])
    .to_string();

    let response = try_roundtrip(addr, &post("/v1/verify", &body))
        .expect("a memory-starved server still answers");
    let (head, body) = response.split_once("\r\n\r\n").unwrap();
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let frames: Vec<Json> = body.lines().map(|l| Json::parse(l).unwrap()).collect();
    assert_eq!(frame_kind(&frames[0]), "admitted");
    let reports: Vec<&Json> = frames
        .iter()
        .filter(|f| frame_kind(f) == "report")
        .collect();
    assert!(!reports.is_empty());
    for report in &reports {
        let error = report
            .get("error")
            .and_then(Json::as_str)
            .expect("every search must degrade to a typed report error");
        assert!(
            error.contains("memory budget exhausted"),
            "wrong degradation: {error}"
        );
        assert!(
            error.contains("1-byte budget"),
            "the error must carry the budget figures: {error}"
        );
    }
    let done = frames.last().unwrap();
    assert_eq!(frame_kind(done), "done");
    assert_eq!(
        done.get("summary")
            .and_then(|s| s.get("errors"))
            .and_then(Json::as_u64),
        Some(reports.len() as u64),
        "the summary must account every degraded property"
    );

    // Degradation is not death: the server answers, the books balance.
    let text = server.gateway().metrics_text();
    assert!(text.contains(&format!(
        "verifas_resource_exhausted_total {}",
        reports.len()
    )));
    assert!(text.contains("verifas_requests_in_flight{class=\"interactive\"} 0"));
    assert!(text.contains("verifas_memory_budget_bytes 1"));
    let health = try_roundtrip(addr, &get("/healthz")).unwrap();
    assert!(health.starts_with("HTTP/1.1 200"), "{health}");
    server.shutdown();
}
