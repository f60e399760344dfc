//! `serve_mix`: open-loop HTTP traffic against an in-process
//! `verifas_serve::Server`.
//!
//! Requests arrive at seeded exponential inter-arrival times at a fixed
//! nominal rate — independent users, so the loop is open: each request is
//! timed from when it was due, and a stall delays every request behind
//! it.  One client thread sends them, each on its own connection (the
//! server closes every connection), and reads all open connections
//! without blocking.  Four kinds of request, in fixed shares:
//!
//! * `resubmit` — an unchanged `examples/specs/*.has` file (a session hit
//!   answered from the report cache),
//! * `edit` — a seeded one-token edit of a corpus file (one task-condition
//!   constant swapped for another the spec already uses: a delta upgrade
//!   of the cached session),
//! * `fuzz` — a `verifas_fuzzgen::gen_spec_file` spec from a fixed seed
//!   range (the cold path),
//! * `batch` — an edit of `order_fulfillment.has` in the `batch` class,
//!   which the arbiter squeezes whenever interactive requests arrive.
//!
//! Every request carries `max_states`, so its reports are deterministic:
//! each served report must equal a direct `Engine::check_all` of the same
//! compiled spec with the same budget, after the fuzz oracle's scrub of
//! wall-clock fields.

use crate::layers::{self, Comparable, Counts, Schedule};
use crate::trace::Recorder;
use crate::{cores, peak_rss_mb, stats, timed_setup, Args, EndToEnd, Metric, Outcome};
use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use verifas::core::Json;
use verifas::fuzzgen::{gen_spec_file, Lcg};
use verifas::serve::{AdmissionLimits, Gateway, PriorityClass, ServeConfig, Server, VerifyRequest};
use verifas::spec::{format_spec, parse, resolve};
use verifas::{
    Engine, ReuseMode, SearchLimits, VerificationOutcome, VerificationReport, VerifierOptions,
};

/// Requests per second the open loop offers.
pub const NOMINAL_RPS: f64 = 50.0;
/// Per-search state budget of interactive requests.
pub const MAX_STATES: usize = 500;
/// Per-search state budget of `batch`-class requests.
pub const BATCH_MAX_STATES: usize = 2_000;
/// Generator seed of the `batch` kind's edits, fixed across run seeds.
const BATCH_EDIT_SEED: u64 = 2017;
/// Far beyond any request's run time: only the state budget stops a search.
const MAX_MILLIS: u64 = 3_600_000;
/// Generator seeds of the `fuzz` kind.  Below 100, seeds 18 and 63 give
/// specs that take 0.3 s and 1 s at this budget; 100..200 stays under
/// 0.1 s, so the mix has no single request that stalls the whole loop.
pub const FUZZ_SEEDS: std::ops::Range<u64> = 100..200;
/// Loaded sessions the server keeps.  The corpus is resubmitted often
/// enough to stay in the LRU while edit and fuzz sessions churn through
/// it, so resubmits stay session hits.
pub const SESSIONS: usize = 32;
/// Per-class admission limits: one interactive request per core and one
/// batch request run at a time; the rest wait in lanes deep enough that
/// the nominal rate never overflows them (an overflow is a 429 and fails
/// the run).
fn limits() -> AdmissionLimits {
    AdmissionLimits {
        max_interactive: cores(),
        max_batch: 1,
        queue_depth: 32,
    }
}
/// Connection-handling threads of the server: more than the requests the
/// open loop ever has in flight, so the admission queue, not the HTTP
/// worker pool, is where requests wait.
const HTTP_WORKERS: usize = 64;
/// The rates of `slo_rps`' ladder, requests per second; the first is the
/// nominal rate of the run itself.
pub const RATE_LADDER: [f64; 5] = [NOMINAL_RPS, 100.0, 200.0, 300.0, 400.0];
/// Requests per rung above the nominal one: enough for a p99.
pub const LADDER_REQUESTS: usize = 1000;
/// The latency limit of `slo_rps`.
pub const LATENCY_LIMIT_MS: f64 = 250.0;
/// Repetitions timed for the set-up figure.
const SETUP_REPS: usize = 9;
const CORPUS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../examples/specs");

/// The request kinds and their shares of the mix, in percent.  No trace
/// of real traffic backs the shares: they are an assumption, chosen so
/// that the median request is a resubmit and few resubmits wait for a
/// core that a search holds, which keeps the run-to-run spread small (see
/// `README.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Resubmit,
    Edit,
    Fuzz,
    Batch,
}

pub const KIND_SHARES: [(Kind, usize); 4] = [
    (Kind::Resubmit, 86),
    (Kind::Edit, 8),
    (Kind::Fuzz, 4),
    (Kind::Batch, 2),
];

/// The kinds of `count` requests in a seeded order: each kind but
/// `Resubmit` exactly its share of `count`, rounded down, and resubmits
/// the rest.  Only the order depends on the seed — a drawn count would
/// move the median request's rank among the resubmits from one seed to
/// the next.
fn kinds(count: usize, rng: &mut Lcg) -> Vec<Kind> {
    let mut kinds: Vec<Kind> = KIND_SHARES
        .iter()
        .filter(|(kind, _)| *kind != Kind::Resubmit)
        .flat_map(|&(kind, share)| std::iter::repeat_n(kind, count * share / 100))
        .collect();
    kinds.resize(count, Kind::Resubmit);
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, rng.below(i + 1));
    }
    kinds
}

/// One scheduled request.
#[derive(Debug, Clone, PartialEq)]
pub struct Planned {
    /// Seconds after the start of the loop at which it is due.
    pub due_s: f64,
    pub kind: Kind,
    /// Index into [`Plan::texts`].
    pub text: usize,
}

impl Planned {
    fn max_states(&self) -> usize {
        if self.kind == Kind::Batch {
            BATCH_MAX_STATES
        } else {
            MAX_STATES
        }
    }

    fn class(&self) -> PriorityClass {
        if self.kind == Kind::Batch {
            PriorityClass::Batch
        } else {
            PriorityClass::Interactive
        }
    }
}

/// A run's inputs: the distinct spec texts and the request schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Distinct `.has` sources; the first `corpus` are the unchanged
    /// corpus files.
    pub texts: Vec<String>,
    pub corpus: usize,
    pub requests: Vec<Planned>,
}

/// Byte ranges of the string constants compared in a spec's task and
/// `init` conditions (everything before the first property).
fn constant_sites(text: &str) -> Vec<(usize, usize)> {
    let end = text.find("\nproperty ").unwrap_or(text.len());
    let mut sites = Vec::new();
    for op in ["== \"", "!= \""] {
        let mut from = 0;
        while let Some(at) = text[from..end].find(op) {
            let open = from + at + op.len();
            if let Some(len) = text[open..end].find('"') {
                sites.push((open, open + len));
            }
            from = open;
        }
    }
    sites.sort_unstable();
    sites
}

/// A one-token edit: one constant of a task condition becomes another
/// constant the spec already compares against.  The edit site's own
/// constant occurs elsewhere too, so the spec's constant set — part of
/// every task's slice — is unchanged, and the tasks the edit does not
/// touch stay reusable by a delta upgrade.
fn edited(text: &str, rng: &mut Lcg) -> String {
    let sites = constant_sites(text);
    let mut values: Vec<&str> = sites.iter().map(|&(s, e)| &text[s..e]).collect();
    values.sort_unstable();
    values.dedup();
    let editable: Vec<(usize, usize)> = sites
        .iter()
        .copied()
        .filter(|&(s, e)| text.matches(&format!("\"{}\"", &text[s..e])).count() > 1)
        .collect();
    let (start, end) = editable[rng.below(editable.len())];
    let others: Vec<&str> = values
        .iter()
        .copied()
        .filter(|v| *v != &text[start..end])
        .collect();
    let replacement = others[rng.below(others.len())];
    format!("{}{replacement}{}", &text[..start], &text[end..])
}

/// The seed's schedule over `corpus` (named sources, sorted by name):
/// `count` requests at exponential inter-arrival times of mean
/// `1 / rate`, kinds in the shares of [`KIND_SHARES`].
pub fn plan(seed: u64, corpus: &[(String, String)], count: usize, rate: f64) -> Plan {
    let mut rng = Lcg::from_seed(seed);
    let kinds = kinds(count, &mut rng);
    let mut texts: Vec<String> = corpus.iter().map(|(_, t)| t.clone()).collect();
    let mut index: HashMap<String, usize> = texts
        .iter()
        .enumerate()
        .map(|(i, t)| (t.clone(), i))
        .collect();
    let order_fulfillment = corpus
        .iter()
        .position(|(name, _)| name == "order_fulfillment.has")
        .expect("the corpus holds order_fulfillment.has");
    // Batch requests carry most of the run's CPU time, and their edits
    // differ widely in cost, so their edits are the same for every seed;
    // the seed only places them.
    let mut batch_rng = Lcg::from_seed(BATCH_EDIT_SEED);
    let mut due_s = 0.0;
    let mut requests = Vec::with_capacity(count);
    for kind in kinds {
        // Uniform in (0, 1) from the generator's 31-bit output.
        let u = (rng.next_u64() as f64 + 0.5) / (1u64 << 31) as f64;
        due_s += -u.ln() / rate;
        let text = match kind {
            Kind::Resubmit => texts[rng.below(corpus.len())].clone(),
            Kind::Edit => {
                let base = &corpus[rng.below(corpus.len())].1;
                edited(base, &mut rng)
            }
            Kind::Fuzz => {
                let seed = FUZZ_SEEDS.start
                    + rng.below((FUZZ_SEEDS.end - FUZZ_SEEDS.start) as usize) as u64;
                format_spec(&gen_spec_file(seed))
            }
            Kind::Batch => edited(&corpus[order_fulfillment].1, &mut batch_rng),
        };
        let next = texts.len();
        let text = *index.entry(text.clone()).or_insert_with(|| {
            texts.push(text);
            next
        });
        requests.push(Planned { due_s, kind, text });
    }
    Plan {
        texts,
        corpus: corpus.len(),
        requests,
    }
}

fn read_corpus() -> Result<Vec<(String, String)>, String> {
    let mut files: Vec<(String, String)> = std::fs::read_dir(CORPUS)
        .map_err(|e| format!("reading {CORPUS}: {e}"))?
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|path| path.extension().is_some_and(|e| e == "has"))
        .map(|path| {
            let name = path
                .file_name()
                .map_or(String::new(), |n| n.to_string_lossy().into_owned());
            std::fs::read_to_string(&path)
                .map(|text| (name, text))
                .map_err(|e| format!("reading {}: {e}", path.display()))
        })
        .collect::<Result<_, _>>()?;
    files.sort();
    Ok(files)
}

fn request(plan: &Plan, planned: &Planned) -> VerifyRequest {
    VerifyRequest {
        spec: plan.texts[planned.text].clone(),
        class: planned.class(),
        properties: None,
        deadline_ms: None,
        max_states: Some(planned.max_states()),
        max_millis: Some(MAX_MILLIS),
    }
}

fn body(req: &VerifyRequest) -> String {
    Json::Obj(vec![
        ("spec".to_owned(), Json::Str(req.spec.clone())),
        ("class".to_owned(), Json::Str(req.class.name().to_owned())),
        (
            "max_states".to_owned(),
            Json::Num(req.max_states.unwrap_or(MAX_STATES) as f64),
        ),
        ("max_millis".to_owned(), Json::Num(MAX_MILLIS as f64)),
    ])
    .to_string()
}

fn config() -> ServeConfig {
    ServeConfig {
        cores: cores(),
        sessions: SESSIONS,
        limits: limits(),
        reuse: ReuseMode::Preproc,
        memory_bytes: 0,
    }
}

/// One request's response as the client saw it: the status, when the
/// status line arrived, and each body line (frame) with its arrival time,
/// all in seconds since the loop's start.
#[derive(Debug, Default)]
pub struct Response {
    pub status: u16,
    pub head_s: f64,
    pub frames: Vec<(f64, String)>,
}

/// One open-loop sample: when the request was due, sent and finished
/// (seconds since the loop's start), and what came back.
#[derive(Debug)]
pub struct Sample<R> {
    pub due_s: f64,
    pub sent_s: f64,
    pub done_s: f64,
    pub value: R,
}

/// A connection whose response is still streaming in.
struct Open {
    index: usize,
    sent_s: f64,
    stream: TcpStream,
    pending: Vec<u8>,
    in_body: bool,
    response: Response,
}

impl Open {
    /// Take in newly read bytes, stamping every completed line with `at_s`.
    fn feed(&mut self, bytes: &[u8], at_s: f64) -> Result<(), String> {
        self.pending.extend_from_slice(bytes);
        while let Some(end) = self.pending.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.pending.drain(..=end).collect();
            let line = String::from_utf8_lossy(&line).trim_end().to_owned();
            if self.response.head_s == 0.0 {
                self.response.head_s = at_s;
                self.response.status = line
                    .split_whitespace()
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| format!("bad status line {line:?}"))?;
            } else if !self.in_body {
                self.in_body = line.is_empty();
            } else {
                self.response.frames.push((at_s, line));
            }
        }
        Ok(())
    }
}

/// Connect and send one `/v1/verify` request.
fn send_verify(addr: SocketAddr, body: &str) -> std::io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let head = format!(
        "POST /v1/verify HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    Ok(stream)
}

/// A response still incomplete this long after its request was sent
/// fails, so a stuck connection cannot hang the run.
const RESPONSE_TIMEOUT_S: f64 = 60.0;

/// How long the loop sleeps when nothing is due and nothing arrived: the
/// resolution of its timestamps.
const POLL: Duration = Duration::from_micros(50);

/// The open loop, from one client thread: request `i` is sent on its own
/// connection (opened by `open(i)`) as soon as `due_s[i]` has passed,
/// whether or not earlier responses are complete, and every open
/// connection is read as its frames arrive.  Requests are timed from
/// their due time, so a stall of the generator itself shows both in the
/// latency of every request behind it and in how late they were sent.
pub fn http_loop(
    due_s: &[f64],
    open: impl Fn(usize) -> std::io::Result<TcpStream>,
) -> Vec<Sample<Result<Response, String>>> {
    let epoch = Instant::now();
    let now = || epoch.elapsed().as_secs_f64();
    let mut samples: Vec<Option<Sample<Result<Response, String>>>> =
        due_s.iter().map(|_| None).collect();
    let mut finish = |index: usize, sent_s: f64, value| {
        samples[index] = Some(Sample {
            due_s: due_s[index],
            sent_s,
            done_s: now(),
            value,
        });
    };
    let mut live: Vec<Open> = Vec::new();
    let mut next = 0;
    let mut chunk = vec![0u8; 1 << 16];
    while next < due_s.len() || !live.is_empty() {
        while next < due_s.len() && due_s[next] <= now() {
            let sent_s = now();
            match open(next).and_then(|stream| stream.set_nonblocking(true).map(|()| stream)) {
                Ok(stream) => live.push(Open {
                    index: next,
                    sent_s,
                    stream,
                    pending: Vec::new(),
                    in_body: false,
                    response: Response::default(),
                }),
                Err(e) => finish(next, sent_s, Err(e.to_string())),
            }
            next += 1;
        }
        let mut progressed = false;
        let mut i = 0;
        while i < live.len() {
            let conn = &mut live[i];
            let read = std::io::Read::read(&mut conn.stream, &mut chunk);
            let ended = match read {
                Ok(0) => Some(Ok(())),
                Ok(n) => {
                    progressed = true;
                    conn.feed(&chunk[..n], now()).err().map(Err)
                }
                Err(e) if e.kind() != std::io::ErrorKind::WouldBlock => Some(Err(e.to_string())),
                Err(_) if now() - conn.sent_s > RESPONSE_TIMEOUT_S => {
                    Some(Err("no complete response within the timeout".to_owned()))
                }
                Err(_) => None,
            };
            match ended {
                Some(result) => {
                    let conn = live.swap_remove(i);
                    let value = result.map(|()| conn.response);
                    finish(conn.index, conn.sent_s, value);
                }
                None => i += 1,
            }
        }
        if !progressed {
            let until_due = due_s.get(next).map_or(POLL.as_secs_f64(), |d| d - now());
            std::thread::sleep(Duration::from_secs_f64(
                until_due.clamp(0.0, POLL.as_secs_f64()),
            ));
        }
    }
    samples
        .into_iter()
        .map(|s| s.expect("every request finishes"))
        .collect()
}

/// The in-process counterpart of [`http_loop`]: `send(i)` runs on a
/// thread of its own, started when request `i` is due.
fn in_process_loop<R: Send>(
    due_s: &[f64],
    send: impl Fn(usize, Instant) -> R + Sync,
) -> Vec<Sample<R>> {
    let epoch = Instant::now();
    let send = &send;
    std::thread::scope(|scope| {
        let handles: Vec<_> = due_s
            .iter()
            .enumerate()
            .map(|(i, &due)| {
                let wait = due - epoch.elapsed().as_secs_f64();
                if wait > 0.0 {
                    std::thread::sleep(Duration::from_secs_f64(wait));
                }
                scope.spawn(move || {
                    let sent_s = epoch.elapsed().as_secs_f64();
                    let value = send(i, epoch);
                    Sample {
                        due_s: due,
                        sent_s,
                        done_s: epoch.elapsed().as_secs_f64(),
                        value,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("an in-process request panicked"))
            .collect()
    })
}

fn get_metrics(addr: SocketAddr) -> Result<String, String> {
    let io = |e: std::io::Error| e.to_string();
    let mut stream = TcpStream::connect(addr).map_err(io)?;
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\nContent-Length: 0\r\n\r\n")
        .map_err(io)?;
    let mut text = String::new();
    std::io::Read::read_to_string(&mut stream, &mut text).map_err(io)?;
    Ok(text
        .split_once("\r\n\r\n")
        .map_or(text.clone(), |(_, b)| b.to_owned()))
}

/// A counter's value from a `/metrics` document.
fn counter(metrics: &str, series: &str) -> f64 {
    metrics
        .lines()
        .find_map(|line| line.strip_prefix(series)?.trim().parse().ok())
        .unwrap_or(0.0)
}

/// One frame, parsed: its kind, arrival time, and the `report` frames'
/// property index and report.
struct Frame {
    at_s: f64,
    kind: String,
    json: Json,
}

fn parse_frames(frames: &[(f64, String)]) -> Result<Vec<Frame>, String> {
    frames
        .iter()
        .map(|(at_s, line)| {
            let json = Json::parse(line).map_err(|e| format!("bad frame {line:?}: {e}"))?;
            let kind = json
                .get("frame")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("frame without a kind: {line:?}"))?
                .to_owned();
            Ok(Frame {
                at_s: *at_s,
                kind,
                json,
            })
        })
        .collect()
}

/// The expected reports of one distinct (text, budget) — a direct
/// `Engine::check_all` — with its wall time and how it was scheduled.
struct Expected {
    reports: Vec<Result<Comparable, String>>,
    wall_s: f64,
    schedule: Schedule,
}

fn options(max_states: usize) -> VerifierOptions {
    VerifierOptions {
        limits: SearchLimits {
            max_states,
            max_millis: MAX_MILLIS,
        },
        ..VerifierOptions::default()
    }
}

fn direct_check_all(text: &str, max_states: usize) -> Expected {
    let started = Instant::now();
    let mut schedule = Schedule::default();
    let reports = match verifas::spec::compile(text) {
        Ok(compiled) => match Engine::load_with_options(compiled.spec, options(max_states)) {
            Ok(engine) => {
                let results = engine.check_all(&compiled.properties);
                let done: Vec<&VerificationReport> =
                    results.iter().filter_map(|r| r.as_ref().ok()).collect();
                schedule.add(
                    Schedule::batch_makespan_ms(done.iter().copied()),
                    cores(),
                    done,
                );
                results
                    .iter()
                    .map(|r| r.as_ref().map(Comparable::of).map_err(|e| e.to_string()))
                    .collect()
            }
            Err(e) => vec![Err(e.to_string())],
        },
        Err(e) => vec![Err(e.to_string())],
    };
    Expected {
        reports,
        wall_s: started.elapsed().as_secs_f64(),
        schedule,
    }
}

/// What one request's frames say, once checked against the oracle.
#[derive(Debug, Default)]
struct Checked {
    /// Report frames: (arrival, decided?).
    verdicts: Vec<(f64, bool)>,
    done_s: f64,
    queued_s: Option<f64>,
    admitted_s: Option<f64>,
    admitted_cores: Option<f64>,
    session: Option<String>,
}

/// Check one request's frames: a `done` frame that is not aborted, one
/// report per property, each equal to the direct `check_all` report.
fn check_frames(frames: &[Frame], expected: &Expected) -> Result<Checked, String> {
    let mut out = Checked::default();
    let mut done_s = None;
    let mut seen = vec![false; expected.reports.len()];
    for frame in frames {
        match frame.kind.as_str() {
            "queued" => out.queued_s = Some(frame.at_s),
            "admitted" => {
                out.admitted_s = Some(frame.at_s);
                out.admitted_cores = frame
                    .json
                    .get("cores")
                    .and_then(Json::as_u64)
                    .map(|c| c as f64);
                out.session = frame
                    .json
                    .get("reuse")
                    .and_then(Json::as_str)
                    .map(str::to_owned);
            }
            "report" => {
                let index = frame
                    .json
                    .get("index")
                    .and_then(Json::as_u64)
                    .ok_or("report frame without an index")? as usize;
                if let Some(error) = frame.json.get("error").and_then(Json::as_str) {
                    return Err(format!("property #{index} failed: {error}"));
                }
                let report = frame
                    .json
                    .get("report")
                    .ok_or("report frame without a report")
                    .and_then(|json| {
                        VerificationReport::from_json(&json.to_string())
                            .map_err(|_| "report frame does not parse")
                    })?;
                match expected.reports.get(index) {
                    Some(Ok(want)) if *want == Comparable::of(&report) => {}
                    Some(Ok(_)) => {
                        return Err(format!("property #{index} differs from a direct check_all"))
                    }
                    Some(Err(e)) => {
                        return Err(format!("property #{index}: direct check_all failed: {e}"))
                    }
                    None => return Err(format!("unexpected property #{index}")),
                }
                if std::mem::replace(&mut seen[index], true) {
                    return Err(format!("property #{index} reported twice"));
                }
                out.verdicts.push((
                    frame.at_s,
                    report.outcome != VerificationOutcome::Inconclusive,
                ));
            }
            "done" => {
                let summary = frame.json.get("summary");
                if summary.and_then(|s| s.get("aborted")) != Some(&Json::Bool(false)) {
                    return Err("done frame reports an aborted batch".to_owned());
                }
                done_s = Some(frame.at_s);
            }
            other => return Err(format!("unexpected {other} frame")),
        }
    }
    out.done_s = done_s.ok_or("no done frame")?;
    if seen.iter().any(|s| !s) {
        return Err("a property's report is missing".to_owned());
    }
    Ok(out)
}

/// A running server warmed by one pass over the corpus.
fn start(plan: &Plan) -> Result<Server, String> {
    let server = Server::start("127.0.0.1:0", config(), HTTP_WORKERS).map_err(|e| e.to_string())?;
    let addr = server.local_addr();
    let warm: Vec<String> = plan.texts[..plan.corpus]
        .iter()
        .map(|text| body(&warm_request(text)))
        .collect();
    for sample in http_loop(&vec![0.0; warm.len()], |i| send_verify(addr, &warm[i])) {
        match sample.value {
            Ok(response) if response.status == 200 => {}
            Ok(response) => return Err(format!("warming the corpus got HTTP {}", response.status)),
            Err(e) => return Err(format!("warming the corpus: {e}")),
        }
    }
    Ok(server)
}

fn warm_request(text: &str) -> VerifyRequest {
    VerifyRequest {
        spec: text.to_owned(),
        class: PriorityClass::Interactive,
        properties: None,
        deadline_ms: None,
        max_states: Some(MAX_STATES),
        max_millis: Some(MAX_MILLIS),
    }
}

/// The oracle: one direct `check_all` per distinct (text, budget) the
/// requests use.
fn oracle(plan: &Plan) -> HashMap<(usize, usize), Expected> {
    let mut keys: Vec<(usize, usize)> = plan
        .requests
        .iter()
        .map(|r| (r.text, r.max_states()))
        .collect();
    keys.sort_unstable();
    keys.dedup();
    keys.into_iter()
        .map(|(text, budget)| ((text, budget), direct_check_all(&plan.texts[text], budget)))
        .collect()
}

/// CPU seconds (user + system) from a `proc(5)` `stat` file:
/// `/proc/self/stat` counts every thread of the process, exited ones
/// included; `/proc/thread-self/stat` only the calling thread.
fn cpu_s(path: &str) -> f64 {
    /// `USER_HZ`, the unit of the `utime` and `stime` fields.
    const TICKS_PER_S: f64 = 100.0;
    let stat = std::fs::read_to_string(path).unwrap_or_default();
    // Fields 14 and 15; the counting restarts after the `(comm)` field 2.
    let fields: Vec<f64> = stat
        .rsplit_once(')')
        .map(|(_, rest)| {
            rest.split_whitespace()
                .map(|f| f.parse().unwrap_or(0.0))
                .collect()
        })
        .unwrap_or_default();
    fields
        .get(11..13)
        .map_or(0.0, |t| (t[0] + t[1]) / TICKS_PER_S)
}

fn ms(values: impl IntoIterator<Item = f64>) -> Vec<f64> {
    values.into_iter().map(|s| s * 1e3).collect()
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let count = ((args.seconds * NOMINAL_RPS).ceil() as usize).max(1);
    let (ready, setup_s) = timed_setup(SETUP_REPS, || {
        let corpus = read_corpus()?;
        let plan = plan(args.seed, &corpus, count, NOMINAL_RPS);
        let server = start(&plan)?;
        Ok::<_, String>((corpus, plan, server))
    });
    let (corpus, plan, mut server) = ready?;
    let addr = server.local_addr();
    let before = get_metrics(addr)?;
    let cpu_before = (cpu_s("/proc/self/stat"), cpu_s("/proc/thread-self/stat"));
    let samples = send_all(addr, &plan);
    // The server's CPU time over the loop: the process's, less the load
    // generator's (this thread's).
    let server_cpu_s = (cpu_s("/proc/self/stat") - cpu_before.0)
        - (cpu_s("/proc/thread-self/stat") - cpu_before.1);
    let rss = peak_rss_mb();
    let after = get_metrics(addr)?;
    let rungs = if args.trace {
        ladder(addr, args.seed, &corpus)
    } else {
        Vec::new()
    };
    server.shutdown();

    let expected = oracle(&plan);
    let mut outcome = Outcome {
        attempted: samples.len(),
        ..Outcome::default()
    };
    let mut checked = Vec::new();
    for (i, sample) in samples.iter().enumerate() {
        let planned = &plan.requests[i];
        let result = sample
            .value
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|response| {
                if response.status != 200 {
                    return Err(format!("HTTP {}", response.status));
                }
                let frames = parse_frames(&response.frames)?;
                check_frames(&frames, &expected[&(planned.text, planned.max_states())])
            });
        match result {
            Ok(c) => checked.push((i, c)),
            Err(e) => outcome
                .failures
                .push(format!("request {i} ({:?}): {e}", planned.kind)),
        }
    }

    let latency_ms = ms(checked.iter().map(|(i, c)| c.done_s - samples[*i].due_s));
    let verdict_ms = ms(checked
        .iter()
        .flat_map(|(i, c)| c.verdicts.iter().map(|(at, _)| at - samples[*i].due_s)));
    let verdicts: usize = checked.iter().map(|(_, c)| c.verdicts.len()).sum();
    let decided: usize = checked
        .iter()
        .map(|(_, c)| c.verdicts.iter().filter(|(_, d)| *d).count())
        .sum();
    // The delivered rate: the loop offers a fixed rate, so this moves only
    // when the server falls behind it (see `README.md`).
    let window_s = samples.iter().map(|s| s.done_s).fold(0.0, f64::max);
    outcome.metrics = EndToEnd {
        setup_s,
        peak_rss_mb: rss,
        verdicts_per_s: verdicts as f64 / window_s,
        verdict_ms_p50: stats::median(&verdict_ms).unwrap_or(0.0),
        req_ms_p50: stats::median(&latency_ms).unwrap_or(0.0),
        decided_frac: decided as f64 / verdicts.max(1) as f64,
    }
    .metrics();
    outcome.diagnostics.push(Metric {
        name: "requests",
        value: samples.len() as f64,
        unit: "count",
    });
    outcome.diagnostics.push(Metric {
        name: "verdicts_per_cpu_s",
        value: verdicts as f64 / server_cpu_s.max(f64::MIN_POSITIVE),
        unit: "1/s",
    });
    for (name, pct, values) in [
        ("req_ms_p99", 99, &latency_ms),
        ("verdict_ms_p99", 99, &verdict_ms),
    ] {
        match stats::tail(values, pct) {
            Ok(v) => outcome.diagnostics.push(Metric {
                name,
                value: v,
                unit: "ms",
            }),
            Err(refused) => outcome
                .notes
                .push(format!("  {name} not reported: {refused}")),
        }
    }
    let late_ms = ms(samples.iter().map(|s| s.sent_s - s.due_s));
    if let Ok(v) = stats::tail(&late_ms, 99) {
        outcome.diagnostics.push(Metric {
            name: "loadgen.late_ms_p99",
            value: v,
            unit: "ms",
        });
    }
    for (kind, _) in KIND_SHARES {
        let of_kind: Vec<f64> = checked
            .iter()
            .filter(|(i, _)| plan.requests[*i].kind == kind)
            .map(|(i, c)| (c.done_s - samples[*i].due_s) * 1e3)
            .collect();
        outcome.notes.push(format!(
            "  {kind:?}: {} requests, p50 {:.2} ms",
            of_kind.len(),
            stats::median(&of_kind).unwrap_or(0.0)
        ));
    }
    let lookups = |m: &str, r: &str| {
        counter(
            m,
            &format!("verifas_session_cache_lookups_total{{result=\"{r}\"}}"),
        )
    };
    outcome.notes.push(format!(
        "  sessions: {} hits, {} misses ({} upgrades)",
        lookups(&after, "hit") - lookups(&before, "hit"),
        lookups(&after, "miss") - lookups(&before, "miss"),
        counter(&after, "verifas_session_cache_upgrades_total")
            - counter(&before, "verifas_session_cache_upgrades_total"),
    ));
    if args.trace {
        let nominal = rung(NOMINAL_RPS, &samples, |i| {
            checked.iter().any(|(c, _)| *c == i)
        });
        report_ladder(nominal, rungs, &mut outcome);
        traced(args, &plan, &samples, &checked, &expected, outcome)
    } else {
        Ok(outcome)
    }
}

/// Send every planned request of `plan` to `addr` through the open loop.
fn send_all(addr: SocketAddr, plan: &Plan) -> Vec<Sample<Result<Response, String>>> {
    let due: Vec<f64> = plan.requests.iter().map(|r| r.due_s).collect();
    let bodies: Vec<String> = plan
        .requests
        .iter()
        .map(|r| body(&request(plan, r)))
        .collect();
    http_loop(&due, |i| send_verify(addr, &bodies[i]))
}

/// One rung of the rate ladder.
#[derive(Debug, Clone, Copy)]
struct Rung {
    rps: f64,
    /// p99 latency, with every failed or refused request counted as
    /// missing the limit; `None` when the tail has too few samples.
    p99_ms: Option<f64>,
    /// Median latency of the last tenth of the requests: above the limit
    /// the backlog grew through the rung.
    last_tenth_ms: f64,
    failed: usize,
}

impl Rung {
    fn met(&self) -> bool {
        self.p99_ms.is_some_and(|p| p <= LATENCY_LIMIT_MS) && self.last_tenth_ms <= LATENCY_LIMIT_MS
    }
}

fn rung(
    rps: f64,
    samples: &[Sample<Result<Response, String>>],
    ok: impl Fn(usize) -> bool,
) -> Rung {
    let latency_ms: Vec<f64> = samples
        .iter()
        .enumerate()
        .map(|(i, s)| {
            if ok(i) {
                (s.done_s - s.due_s) * 1e3
            } else {
                f64::INFINITY
            }
        })
        .collect();
    let tail = &latency_ms[latency_ms.len() - latency_ms.len() / 10..];
    Rung {
        rps,
        p99_ms: stats::tail(&latency_ms, 99).ok(),
        last_tenth_ms: stats::median(tail).unwrap_or(f64::INFINITY),
        failed: (0..samples.len()).filter(|&i| !ok(i)).count(),
    }
}

/// The rungs above the nominal rate, each a fresh seeded schedule of
/// [`LADDER_REQUESTS`] against the same running server.  A request
/// counts as served when it got HTTP 200 and a `done` frame of a batch
/// that was not aborted, with no failed property; the nominal rung's
/// bit-identity oracle is not repeated here.
fn ladder(addr: SocketAddr, seed: u64, corpus: &[(String, String)]) -> Vec<Rung> {
    RATE_LADDER[1..]
        .iter()
        .enumerate()
        .map(|(step, &rps)| {
            let plan = plan(
                seed ^ ((step as u64 + 1) << 32),
                corpus,
                LADDER_REQUESTS,
                rps,
            );
            let samples = send_all(addr, &plan);
            rung(rps, &samples, |i| {
                samples[i].value.as_ref().is_ok_and(|response| {
                    response.status == 200
                        && parse_frames(&response.frames).is_ok_and(|frames| {
                            frames.iter().all(|f| f.json.get("error").is_none())
                                && frames.last().is_some_and(|f| {
                                    f.kind == "done"
                                        && f.json.get("summary").and_then(|s| s.get("aborted"))
                                            == Some(&Json::Bool(false))
                                })
                        })
                })
            })
        })
        .collect()
}

/// `slo_rps`: the highest rung such that it and every rung below it met
/// the latency limit without a growing backlog.
fn report_ladder(nominal: Rung, rungs: Vec<Rung>, outcome: &mut Outcome) {
    let mut slo_rps = 0.0;
    let mut table = format!(
        "  rate ladder (limit {LATENCY_LIMIT_MS} ms on p99 and on the last tenth's median):"
    );
    let mut holding = true;
    for r in std::iter::once(nominal).chain(rungs) {
        holding &= r.met();
        if holding {
            slo_rps = r.rps;
        }
        table.push_str(&format!(
            "\n  {:>6} req/s  p99 {:>10}  last tenth p50 {:>9.2} ms  failed {:>4}  {}",
            r.rps,
            r.p99_ms.map_or("n/a".to_owned(), |p| format!("{p:.2} ms")),
            r.last_tenth_ms,
            r.failed,
            if r.met() { "met" } else { "missed" }
        ));
    }
    outcome.notes.push(table);
    outcome.diagnostics.push(Metric {
        name: "slo_rps",
        value: slo_rps,
        unit: "req/s",
    });
}

/// The traced pass, after the untraced HTTP loop: the same schedule again
/// through `Gateway::submit` in process with a sink that timestamps every
/// frame, then each distinct spec of the run reissued layer by layer —
/// `parse`, `resolve`, then the engine's layers — against the direct
/// `check_all` it must reproduce.
fn traced(
    args: &Args,
    plan: &Plan,
    samples: &[Sample<Result<Response, String>>],
    checked: &[(usize, Checked)],
    expected: &HashMap<(usize, usize), Expected>,
    mut outcome: Outcome,
) -> Result<Outcome, String> {
    let mut diagnostics = Vec::new();
    let mut metric = |name, value, unit| diagnostics.push(Metric { name, value, unit });

    // Client-side HTTP timing of the untraced loop.
    let ttfb = ms(checked.iter().filter_map(|(i, _)| {
        samples[*i]
            .value
            .as_ref()
            .ok()
            .map(|r| r.head_s - samples[*i].sent_s)
    }));
    let stream = ms(checked.iter().filter_map(|(i, c)| {
        let response = samples[*i].value.as_ref().ok()?;
        Some(c.done_s - response.frames.first()?.0)
    }));
    metric(
        "http.ttfb_ms_p50",
        stats::median(&ttfb).unwrap_or(0.0),
        "ms",
    );
    metric(
        "http.stream_ms_p50",
        stats::median(&stream).unwrap_or(0.0),
        "ms",
    );
    let requests = checked.len().max(1) as f64;
    let share = |reuse: &str| {
        checked
            .iter()
            .filter(|(_, c)| c.session.as_deref() == Some(reuse))
            .count() as f64
            / requests
    };
    metric("session.hit_frac", share("session"), "ratio");
    metric("session.upgrade_frac", share("preproc"), "ratio");
    metric("session.miss_frac", share("cold"), "ratio");
    let queued = checked.iter().filter(|(_, c)| c.queued_s.is_some()).count();
    metric("admission.queued_frac", queued as f64 / requests, "ratio");
    let cores_sum: f64 = checked.iter().filter_map(|(_, c)| c.admitted_cores).sum();
    metric("arbiter.cores_mean", cores_sum / requests, "count");
    let mut schedule = Schedule::default();
    for e in expected.values() {
        schedule.merge(&e.schedule);
    }

    // The same schedule through Gateway::submit, in process.
    let gateway = Gateway::new(config());
    for text in &plan.texts[..plan.corpus] {
        gateway
            .submit(&warm_request(text), &|_| {})
            .map_err(|e| e.to_string())?;
    }
    let due: Vec<f64> = plan.requests.iter().map(|r| r.due_s).collect();
    let reqs: Vec<VerifyRequest> = plan.requests.iter().map(|r| request(plan, r)).collect();
    let in_process = in_process_loop(&due, |i, epoch| {
        let frames = Mutex::new(Vec::new());
        let sink = |line: &str| {
            let at = epoch.elapsed().as_secs_f64();
            frames
                .lock()
                .expect("frames poisoned")
                .push((at, line.to_owned()));
        };
        let submitted = gateway.submit(&reqs[i], &sink).map_err(|e| e.to_string());
        submitted.map(|_| frames.into_inner().expect("frames poisoned"))
    });
    let mut admit_ms = Vec::new();
    let mut wait_ms = Vec::new();
    for (i, sample) in in_process.iter().enumerate() {
        outcome.attempted += 1;
        let planned = &plan.requests[i];
        let result = sample
            .value
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|frames| parse_frames(frames))
            .and_then(|frames| {
                check_frames(&frames, &expected[&(planned.text, planned.max_states())])
            });
        match result {
            Ok(c) => {
                let admitted = c.admitted_s.unwrap_or(sample.sent_s);
                admit_ms.push((admitted - sample.sent_s) * 1e3);
                wait_ms.push(c.queued_s.map_or(0.0, |q| (admitted - q) * 1e3));
            }
            Err(e) => outcome
                .failures
                .push(format!("in-process request {i}: {e}")),
        }
    }
    metric(
        "gateway.admit_ms_p50",
        stats::median(&admit_ms).unwrap_or(0.0),
        "ms",
    );
    match stats::tail(&wait_ms, 99) {
        Ok(v) => metric("admission.wait_ms_p99", v, "ms"),
        Err(refused) => outcome
            .notes
            .push(format!("  admission.wait_ms_p99 not reported: {refused}")),
    }

    // Each distinct (text, budget): the direct check_all above is the
    // untraced side; reissue it layer by layer, traced.
    let recorder = Recorder::new();
    let mut counts = Counts::default();
    let mut keys: Vec<&(usize, usize)> = expected.keys().collect();
    keys.sort_unstable();
    let untraced_before: f64 = keys.iter().map(|k| expected[*k].wall_s).sum();
    let mut bytes = 0usize;
    let mut request = 0u64;
    let t0 = Instant::now();
    for &&(text, budget) in &keys {
        let source = &plan.texts[text];
        bytes += source.len();
        let file = recorder.span("parse", request, None, |_| {
            parse(source).map_err(|e| e.to_string())
        })?;
        let compiled = recorder.span("resolve", request, None, |_| {
            resolve(&file).map_err(|e| e.to_string())
        })?;
        let session = layers::load(&recorder, request, compiled.spec, options(budget))?;
        let (reports, c) = session.verify_batch(&recorder, request, &compiled.properties, cores());
        counts.add(&c);
        request += reports.len().max(1) as u64;
        let reissued: Vec<Result<Comparable, String>> = reports
            .iter()
            .map(|r| r.as_ref().map(Comparable::of).map_err(Clone::clone))
            .collect();
        outcome.attempted += 1;
        if reissued != expected[&(text, budget)].reports {
            outcome.failures.push(format!(
                "spec text #{text}: traced reports differ from check_all"
            ));
        }
    }
    let traced_s = t0.elapsed().as_secs_f64();
    // The untraced side runs again after the traced one: the first run
    // of a process pays its memory warm-up, so the overhead is measured
    // against the second.
    let untraced_after: f64 = keys
        .iter()
        .map(|&&(text, budget)| direct_check_all(&plan.texts[text], budget).wall_s)
        .sum();
    let spans = recorder.into_spans();
    let times = crate::trace::self_times(&spans);
    let us = |name: &str| times.get(name).map_or(0.0, |t| t.0);
    metric("spec.parse_us", us("parse"), "us");
    metric("spec.resolve_us", us("resolve"), "us");
    metric(
        "spec.bytes_per_s",
        bytes as f64 * 1e6 / (us("parse") + us("resolve")).max(f64::MIN_POSITIVE),
        "B/s",
    );
    outcome.metrics = layers::layer_metrics(&spans, &counts, &schedule, traced_s, untraced_after);
    outcome.notes.push(layers::findings(
        &outcome.metrics,
        traced_s,
        untraced_before,
        untraced_after,
    ));
    outcome.diagnostics.extend(diagnostics);
    crate::report_trace(args, &spans, &mut outcome);
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<(String, String)> {
        read_corpus().expect("the corpus is readable")
    }

    #[test]
    fn the_same_seed_gives_the_same_schedule_kinds_and_texts() {
        let corpus = corpus();
        let a = plan(5, &corpus, 300, NOMINAL_RPS);
        assert_eq!(a, plan(5, &corpus, 300, NOMINAL_RPS));
        let b = plan(6, &corpus, 300, NOMINAL_RPS);
        assert_ne!(a.requests, b.requests);
        for (kind, share) in KIND_SHARES {
            let count = |p: &Plan| p.requests.iter().filter(|r| r.kind == kind).count();
            assert_eq!(count(&a), 300 * share / 100, "{kind:?}");
            assert_eq!(count(&a), count(&b), "{kind:?}: the seed moved a count");
        }
    }

    #[test]
    fn edits_change_one_constant_and_still_compile() {
        let corpus = corpus();
        let mut rng = Lcg::from_seed(1);
        for (name, text) in &corpus {
            let edit = edited(text, &mut rng);
            assert_ne!(&edit, text);
            let (before, after) = (
                verifas::spec::compile(text).unwrap(),
                verifas::spec::compile(&edit).unwrap_or_else(|e| panic!("{name}: {e}")),
            );
            assert_eq!(
                verifas::core::spec_constants(&before.spec),
                verifas::core::spec_constants(&after.spec),
                "{name}: the edit changed the constant set"
            );
        }
    }

    #[test]
    fn open_loop_times_from_the_due_time_and_reports_a_stall() {
        // A stand-in server answering every connection with one frame,
        // a request due every millisecond, and one 80 ms stall of the
        // generator before request 100: the requests due during the stall
        // are sent late, and their latency counts the wait.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let due: Vec<f64> = (0..1200).map(|i| i as f64 * 1e-3).collect();
        let server = std::thread::spawn(move || {
            for stream in listener.incoming().take(1200) {
                let mut stream = stream.unwrap();
                let mut head = [0u8; 256];
                let _ = std::io::Read::read(&mut stream, &mut head);
                let _ = stream.write_all(
                    b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n{\"frame\":\"done\"}\n",
                );
            }
        });
        let samples = http_loop(&due, |i| {
            if i == 100 {
                std::thread::sleep(Duration::from_millis(80));
            }
            let mut stream = TcpStream::connect(addr)?;
            stream.write_all(b"GET / HTTP/1.1\r\n\r\n")?;
            Ok(stream)
        });
        server.join().unwrap();
        assert!(samples
            .iter()
            .all(|s| s.value.as_ref().is_ok_and(|r| r.frames.len() == 1)));
        let late_ms: Vec<f64> = samples.iter().map(|s| (s.sent_s - s.due_s) * 1e3).collect();
        let p99 = stats::tail(&late_ms, 99).expect("1200 samples support p99");
        assert!(p99 > 40.0, "late p99 {p99} ms hides the stall");
        let behind = &samples[130];
        assert!(
            behind.done_s - behind.due_s > 0.04,
            "latency must run from the due time"
        );
        assert!(samples[90].sent_s - samples[90].due_s < 0.04);
    }
}
