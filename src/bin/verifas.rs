//! The `verifas` command-line verifier: drive the whole engine from a
//! textual `.has` specification.
//!
//! ```text
//! verifas check    <spec.has> [--prop NAME] [--threads N] [--json OUT]
//!                             [--base PRIOR.json]
//!                             [--max-states N] [--max-millis MS]
//! verifas batch    <spec.has> [--all-props] [--threads N] [--json OUT]
//!                             [--max-states N] [--max-millis MS]
//! verifas validate <spec.has>
//! verifas hash     <spec.has>
//! verifas fmt      <spec.has> [--write | --check]
//! verifas serve    [--addr HOST:PORT] [--cores N] [--sessions N]
//!                  [--max-interactive N] [--max-batch N]
//!                  [--incremental MODE] [--memory-mb N]
//! verifas submit   <spec.has> [--addr HOST:PORT] [--class NAME]
//!                  [--prop NAME] [--deadline-ms MS] [--retries N]
//! verifas fuzz     [--seeds A..B] [--matrix ARM,ARM,...] [--shrink]
//!                  [--repro-dir DIR] [--max-states N] [--max-millis MS]
//! ```
//!
//! `check` verifies properties one at a time through `Engine::check`;
//! `batch` routes the whole property set through `Engine::batch()` with
//! the sharded scheduler and streams per-property results as they land;
//! `serve` runs the multi-tenant verification daemon (`verifas-serve`)
//! until a `POST /v1/shutdown` stops it; `submit` sends one spec to a
//! running daemon and streams the response frames, retrying `overloaded`
//! refusals and connection resets with jittered exponential backoff.
//!
//! `fuzz` drives the differential harness in `crates/fuzzgen`: each
//! seed generates a valid specification, runs it through every selected
//! oracle arm, and any disagreement with the baseline engine is a
//! failure (exit 1), minimized to a small `.has` repro when `--shrink`
//! is given.  See `docs/FUZZING.md` for the matrix and the seed-replay
//! workflow.  A hidden `--corrupt-arm ARM` flag deliberately corrupts
//! one arm's reports — it exists to prove, in CI and in tests, that the
//! harness actually catches and shrinks a divergence.
//!
//! `serve` also accepts a hidden `--fault-plan PLAN` flag (e.g.
//! `--fault-plan seed=42,conn-panic=20,write-reset=50`) that installs a
//! seeded, replayable fault-injection plan — chaos testing and CI only;
//! see `crates/serve/src/faults.rs`.
//!
//! The edit loop (`docs/SPEC_LANGUAGE.md` walks through it): `check
//! --json out.json` embeds an `incremental` snapshot (per-task slice
//! hashes plus report fingerprints) in the output document; a later
//! `check --base out.json` on the *edited* spec reuses every prior
//! report whose task slice, property and options are provably unchanged
//! and verifies only the rest.  `serve --incremental` picks how much an
//! edited spec reuses from a cached session instead.
//! Exit codes: 0 — every requested verification completed (whatever the
//! verdict); 1 — `fmt --check` found unformatted input; 2 — any error
//! (parse, resolution, I/O, usage).

use std::process::ExitCode;
use verifas::core::delta::{fingerprint, slice_hash};
use verifas::core::{spec_hash_hex, Json};
use verifas::fuzzgen::{run_sweep, FuzzConfig, OracleArm};
use verifas::prelude::*;
use verifas::serve::{AdmissionLimits, FaultPlan, ServeConfig, Server};
use verifas::spec::{self, CompiledSpec};
use verifas::ReuseMode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage: verifas <command> <spec.has> [options]

commands:
  check      verify properties one at a time (default: every property)
  batch      verify every property as one scheduled batch (Engine::batch)
  validate   parse, resolve and type-check the specification and properties
  hash       print the canonical spec hash (the serve session-cache key)
  fmt        print the specification in canonical formatting
  serve      run the multi-tenant verification daemon (no spec file)
  submit     send a spec to a running daemon, streaming response frames
             (retries `overloaded` and resets with jittered backoff)
  fuzz       generate seeded specs and run them through the differential
             oracle matrix (no spec file; exit 1 on any divergence)

options:
  --prop NAME        check only the named property (check only)
  --base PRIOR.json  check: reuse reports from a prior `--json` snapshot
                     whose task slice / property / options are unchanged
  --incremental MODE serve: how much an edited spec reuses from a
                     cached session, `cold` or `preproc` (default)
  --all-props        verify every property (batch; this is the default)
  --threads N        worker threads (check: per search; batch: core budget; 0 = auto)
  --json OUT         write the reports as a JSON document to OUT
  --max-states N     per-phase state limit (default 100000)
  --max-millis MS    per-phase wall-clock limit (default 60000)
  --write            fmt: rewrite the file in place
  --check            fmt: exit 1 if the file is not canonically formatted
  --addr HOST:PORT   serve: listen address (default 127.0.0.1:7464)
                     submit: daemon address to send to
  --cores N          serve: server-global core budget (0 = all cores)
  --sessions N       serve: loaded-session LRU capacity (default 8)
  --max-interactive N  serve: in-flight limit of the interactive class
  --max-batch N      serve: in-flight limit of the batch class
  --memory-mb N      serve: soft memory budget in MiB — searches over it
                     degrade to typed resource_exhausted errors (0 = off)
  --class NAME       submit: priority class, `interactive` or `batch`
  --deadline-ms MS   submit: per-request deadline (keeps ticking while
                     the request waits in the admission queue)
  --retries N        submit: attempts on `overloaded`/reset (default 5)
  --seeds A..B       fuzz: half-open seed range to sweep (default 0..256)
  --matrix ARMS      fuzz: comma-separated oracle arms (default: all of
                     threads,index,repeated,preproc,serve)
  --shrink           fuzz: minimize each divergence to a small repro
  --repro-dir DIR    fuzz: write each divergence's `.has` repro to DIR";

struct Options {
    file: String,
    prop: Option<String>,
    base: Option<String>,
    incremental: Option<ReuseMode>,
    threads: usize,
    json: Option<String>,
    max_states: Option<usize>,
    max_millis: Option<u64>,
    write: bool,
    check: bool,
    addr: String,
    cores: usize,
    sessions: usize,
    max_interactive: usize,
    max_batch: usize,
    memory_mb: usize,
    fault_plan: Option<String>,
    class: String,
    deadline_ms: Option<u64>,
    retries: u32,
    seeds: Option<String>,
    matrix: Option<String>,
    shrink: bool,
    repro_dir: Option<String>,
    corrupt_arm: Option<String>,
    /// Every flag the parser accepted, for per-command applicability
    /// checks.
    seen: Vec<String>,
}

/// The flags each subcommand accepts; anything else is rejected rather
/// than silently ignored (a typo like `check --check` must surface).
fn allowed_flags(command: &str) -> &'static [&'static str] {
    match command {
        "check" => &[
            "--prop",
            "--threads",
            "--json",
            "--base",
            "--max-states",
            "--max-millis",
        ],
        "batch" => &[
            "--all-props",
            "--threads",
            "--json",
            "--max-states",
            "--max-millis",
        ],
        "fmt" => &["--write", "--check"],
        "serve" => &[
            "--addr",
            "--cores",
            "--sessions",
            "--max-interactive",
            "--max-batch",
            "--incremental",
            "--memory-mb",
            "--fault-plan",
        ],
        "submit" => &["--addr", "--class", "--prop", "--deadline-ms", "--retries"],
        "fuzz" => &[
            "--seeds",
            "--matrix",
            "--shrink",
            "--repro-dir",
            "--corrupt-arm",
            "--max-states",
            "--max-millis",
        ],
        _ => &[],
    }
}

fn parse_options(args: &[String], needs_file: bool) -> Result<Options, String> {
    let mut options = Options {
        file: String::new(),
        prop: None,
        base: None,
        incremental: None,
        threads: 1,
        json: None,
        max_states: None,
        max_millis: None,
        write: false,
        check: false,
        addr: "127.0.0.1:7464".to_owned(),
        cores: 0,
        sessions: 8,
        max_interactive: 8,
        max_batch: 2,
        memory_mb: 0,
        fault_plan: None,
        class: "interactive".to_owned(),
        deadline_ms: None,
        retries: 5,
        seeds: None,
        matrix: None,
        shrink: false,
        repro_dir: None,
        corrupt_arm: None,
        seen: Vec::new(),
    };
    let mut iter = args.iter();
    let value_of = |flag: &str, iter: &mut std::slice::Iter<'_, String>| {
        iter.next()
            .cloned()
            .ok_or_else(|| format!("error: {flag} needs a value\n\n{USAGE}"))
    };
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--prop" => options.prop = Some(value_of("--prop", &mut iter)?),
            "--base" => options.base = Some(value_of("--base", &mut iter)?),
            "--incremental" => {
                let name = value_of("--incremental", &mut iter)?;
                options.incremental = Some(ReuseMode::from_name(&name).ok_or_else(|| {
                    format!("error: --incremental must be `cold` or `preproc`, not {name:?}")
                })?)
            }
            "--threads" => {
                options.threads = value_of("--threads", &mut iter)?
                    .parse()
                    .map_err(|_| "error: --threads needs a number".to_string())?
            }
            "--json" => options.json = Some(value_of("--json", &mut iter)?),
            "--max-states" => {
                options.max_states = Some(
                    value_of("--max-states", &mut iter)?
                        .parse()
                        .map_err(|_| "error: --max-states needs a number".to_string())?,
                )
            }
            "--max-millis" => {
                options.max_millis = Some(
                    value_of("--max-millis", &mut iter)?
                        .parse()
                        .map_err(|_| "error: --max-millis needs a number".to_string())?,
                )
            }
            "--all-props" => {}
            "--write" => options.write = true,
            "--check" => options.check = true,
            "--addr" => options.addr = value_of("--addr", &mut iter)?,
            "--cores" => {
                options.cores = value_of("--cores", &mut iter)?
                    .parse()
                    .map_err(|_| "error: --cores needs a number".to_string())?
            }
            "--sessions" => {
                options.sessions = value_of("--sessions", &mut iter)?
                    .parse()
                    .map_err(|_| "error: --sessions needs a number".to_string())?
            }
            "--max-interactive" => {
                options.max_interactive = value_of("--max-interactive", &mut iter)?
                    .parse()
                    .map_err(|_| "error: --max-interactive needs a number".to_string())?
            }
            "--max-batch" => {
                options.max_batch = value_of("--max-batch", &mut iter)?
                    .parse()
                    .map_err(|_| "error: --max-batch needs a number".to_string())?
            }
            "--memory-mb" => {
                options.memory_mb = value_of("--memory-mb", &mut iter)?
                    .parse()
                    .map_err(|_| "error: --memory-mb needs a number".to_string())?
            }
            "--fault-plan" => options.fault_plan = Some(value_of("--fault-plan", &mut iter)?),
            "--class" => options.class = value_of("--class", &mut iter)?,
            "--deadline-ms" => {
                options.deadline_ms = Some(
                    value_of("--deadline-ms", &mut iter)?
                        .parse()
                        .map_err(|_| "error: --deadline-ms needs a number".to_string())?,
                )
            }
            "--retries" => {
                options.retries = value_of("--retries", &mut iter)?
                    .parse()
                    .map_err(|_| "error: --retries needs a number".to_string())?
            }
            "--seeds" => options.seeds = Some(value_of("--seeds", &mut iter)?),
            "--matrix" => options.matrix = Some(value_of("--matrix", &mut iter)?),
            "--shrink" => options.shrink = true,
            "--repro-dir" => options.repro_dir = Some(value_of("--repro-dir", &mut iter)?),
            "--corrupt-arm" => options.corrupt_arm = Some(value_of("--corrupt-arm", &mut iter)?),
            flag if flag.starts_with("--") => {
                return Err(format!("error: unknown option {flag}\n\n{USAGE}"))
            }
            path if options.file.is_empty() => options.file = path.to_string(),
            extra => return Err(format!("error: unexpected argument {extra:?}\n\n{USAGE}")),
        }
        // Every unknown `--` argument was rejected above.
        if arg.starts_with("--") {
            options.seen.push(arg.clone());
        }
    }
    if needs_file && options.file.is_empty() {
        return Err(format!("error: no specification file given\n\n{USAGE}"));
    }
    if !needs_file && !options.file.is_empty() {
        return Err(format!(
            "error: unexpected argument {:?}\n\n{USAGE}",
            options.file
        ));
    }
    Ok(options)
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some(command) = args.first() else {
        return Err(USAGE.to_string());
    };
    let options = parse_options(&args[1..], command != "serve" && command != "fuzz")?;
    let allowed = allowed_flags(command);
    if let Some(flag) = options.seen.iter().find(|f| !allowed.contains(&f.as_str())) {
        return Err(format!(
            "error: {flag} does not apply to `{command}`\n\n{USAGE}"
        ));
    }
    if command == "serve" {
        return serve(&options);
    }
    if command == "fuzz" {
        return fuzz(&options);
    }
    let source = std::fs::read_to_string(&options.file)
        .map_err(|e| format!("error: cannot read {}: {e}", options.file))?;
    match command.as_str() {
        "check" => check(&options, &source, false),
        "batch" => check(&options, &source, true),
        "validate" => validate(&options, &source),
        "hash" => hash(&options, &source),
        "fmt" => fmt(&options, &source),
        "submit" => submit(&options, &source),
        other => Err(format!("error: unknown command {other:?}\n\n{USAGE}")),
    }
}

fn compile(options: &Options, source: &str) -> Result<CompiledSpec, String> {
    spec::compile(source).map_err(|e| e.render(&options.file))
}

fn verifier_options(options: &Options) -> VerifierOptions {
    let mut out = VerifierOptions::default();
    if let Some(max_states) = options.max_states {
        out.limits.max_states = max_states;
    }
    if let Some(max_millis) = options.max_millis {
        out.limits.max_millis = max_millis;
    }
    out
}

/// The options a `check` search actually runs with — the fingerprint key
/// of snapshot reports, so a later `--base` run only reuses a report
/// produced under identical options.
fn effective_options(options: &Options) -> VerifierOptions {
    let mut out = verifier_options(options);
    out.search_threads = options.threads;
    out
}

fn hex64(value: u64) -> String {
    format!("{value:016x}")
}

/// A parsed `--base` snapshot: the prior run's per-task slice hashes and
/// its definite, uncancelled reports keyed by fingerprints.
struct BaseSnapshot {
    /// task name → slice hash (hex).
    slices: Vec<(String, String)>,
    /// (property fingerprint, options fingerprint, task name, report).
    reports: Vec<(String, String, String, VerificationReport)>,
}

impl BaseSnapshot {
    /// Parse the `incremental` member of a prior `--json` document.
    fn load(path: &str) -> Result<BaseSnapshot, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("error: cannot read {path}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("error: {path}: invalid JSON: {e}"))?;
        let incremental = doc.get("incremental").ok_or_else(|| {
            format!(
                "error: {path}: no \"incremental\" member (not a `verifas check --json` snapshot?)"
            )
        })?;
        let all_reports = doc
            .get("reports")
            .and_then(Json::as_array)
            .ok_or_else(|| format!("error: {path}: no \"reports\" array"))?;
        let mut slices = Vec::new();
        for entry in incremental
            .get("slices")
            .and_then(Json::as_array)
            .unwrap_or_default()
        {
            if let (Some(task), Some(hash)) = (
                entry.get("task").and_then(Json::as_str),
                entry.get("hash").and_then(Json::as_str),
            ) {
                slices.push((task.to_owned(), hash.to_owned()));
            }
        }
        let mut reports = Vec::new();
        for entry in incremental
            .get("reports")
            .and_then(Json::as_array)
            .unwrap_or_default()
        {
            let (Some(index), Some(pfp), Some(ofp), Some(task)) = (
                entry.get("index").and_then(Json::as_u64),
                entry.get("property_fp").and_then(Json::as_str),
                entry.get("options_fp").and_then(Json::as_str),
                entry.get("task").and_then(Json::as_str),
            ) else {
                continue;
            };
            let Some(report) = all_reports.get(index as usize) else {
                continue;
            };
            // Re-render and reparse through the report's own schema-checked
            // reader; a malformed or stale entry is skipped, not fatal.
            let Ok(report) = VerificationReport::from_json(&report.to_string()) else {
                continue;
            };
            reports.push((pfp.to_owned(), ofp.to_owned(), task.to_owned(), report));
        }
        Ok(BaseSnapshot { slices, reports })
    }

    /// The prior report for `property` under `effective` options — if and
    /// only if the property's task slice is bit-identically unchanged in
    /// `spec` and the fingerprints match.
    fn lookup(
        &self,
        spec: &HasSpec,
        property: &LtlFoProperty,
        effective: &VerifierOptions,
    ) -> Option<&VerificationReport> {
        let task_name = &spec.task(property.task).name;
        let slice = hex64(slice_hash(spec, property.task));
        self.slices
            .iter()
            .any(|(name, hash)| name == task_name && *hash == slice)
            .then_some(())?;
        let pfp = hex64(fingerprint(property));
        let ofp = hex64(fingerprint(effective));
        self.reports
            .iter()
            .find(|(p, o, t, _)| *p == pfp && *o == ofp && t == task_name)
            .map(|(_, _, _, report)| report)
    }
}

fn validate(options: &Options, source: &str) -> Result<ExitCode, String> {
    let compiled = compile(options, source)?;
    let stats = compiled.spec.stats();
    println!(
        "OK: {} — {} tasks, {} relations, {} services, {} properties",
        compiled.spec.name,
        stats.tasks,
        stats.relations,
        stats.services,
        compiled.properties.len()
    );
    println!("canonical hash: {}", spec_hash_hex(&compiled.spec));
    Ok(ExitCode::SUCCESS)
}

/// Print the canonical spec hash — the `verifas serve` session-cache key
/// — in `sha256sum` style, so `verifas hash a.has b.formatted.has` diffs
/// are scriptable (formatting-equivalent specs hash identically).
fn hash(options: &Options, source: &str) -> Result<ExitCode, String> {
    let compiled = compile(options, source)?;
    println!(
        "{}  {} ({})",
        spec_hash_hex(&compiled.spec),
        options.file,
        compiled.spec.name
    );
    Ok(ExitCode::SUCCESS)
}

fn serve(options: &Options) -> Result<ExitCode, String> {
    let config = ServeConfig {
        cores: if options.cores == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            options.cores
        },
        sessions: options.sessions,
        limits: AdmissionLimits {
            max_interactive: options.max_interactive,
            max_batch: options.max_batch,
            ..AdmissionLimits::default()
        },
        reuse: options.incremental.unwrap_or(ReuseMode::Preproc),
        memory_bytes: options.memory_mb << 20,
    };
    let faults = match &options.fault_plan {
        Some(text) => Some(std::sync::Arc::new(
            FaultPlan::parse(text).map_err(|e| format!("error: --fault-plan: {e}"))?,
        )),
        None => None,
    };
    // One connection thread per admissible request (each verification
    // stream occupies its worker for the request's lifetime), one per
    // queue slot (a queued request also holds its connection), plus two
    // for control traffic (`/metrics`, `/v1/cancel`, `/v1/shutdown`).
    let workers = config
        .limits
        .limit(verifas::serve::PriorityClass::Interactive)
        + config.limits.limit(verifas::serve::PriorityClass::Batch)
        + 2 * config.limits.queue_depth
        + 2;
    let mut server = Server::start_with_faults(&options.addr, config, workers, faults.clone())
        .map_err(|e| format!("error: cannot bind {}: {e}", options.addr))?;
    println!(
        "verifas serve: listening on http://{} — {} cores, {} sessions, \
         limits {}/{} (interactive/batch, queue depth {}); \
         POST /v1/shutdown to stop",
        server.local_addr(),
        config.cores,
        config.sessions,
        config.limits.max_interactive,
        config.limits.max_batch,
        config.limits.queue_depth,
    );
    if let Some(plan) = &faults {
        println!("verifas serve: CHAOS MODE — fault plan installed: {plan}");
    }
    server.wait();
    println!("verifas serve: shut down");
    Ok(ExitCode::SUCCESS)
}

/// `verifas fuzz`: sweep a seed range through the differential oracle
/// matrix and exit nonzero on any divergence or harness error.  The
/// last line always reports how many seeds ran — the CI smoke job
/// asserts on it, so an accidentally-empty range cannot pass as green.
fn fuzz(options: &Options) -> Result<ExitCode, String> {
    let seeds = match &options.seeds {
        None => 0..256,
        Some(text) => {
            let (a, b) = text.split_once("..").ok_or_else(|| {
                format!("error: --seeds must be a range like 0..256, not {text:?}")
            })?;
            let start: u64 = a
                .parse()
                .map_err(|_| format!("error: --seeds start {a:?} is not a number"))?;
            let end: u64 = b
                .parse()
                .map_err(|_| format!("error: --seeds end {b:?} is not a number"))?;
            if start >= end {
                return Err(format!("error: --seeds range {text} is empty"));
            }
            start..end
        }
    };
    let mut config = FuzzConfig::default();
    if let Some(list) = &options.matrix {
        config.arms = list
            .split(',')
            .map(|name| {
                OracleArm::from_name(name.trim()).ok_or_else(|| {
                    let known: Vec<&str> = OracleArm::ALL.iter().map(|a| a.name()).collect();
                    format!(
                        "error: --matrix: unknown arm {name:?} (known: {})",
                        known.join(", ")
                    )
                })
            })
            .collect::<Result<Vec<OracleArm>, String>>()?;
    }
    if let Some(max_states) = options.max_states {
        config.limits.max_states = max_states;
    }
    if let Some(max_millis) = options.max_millis {
        config.limits.max_millis = max_millis;
    }
    if let Some(name) = &options.corrupt_arm {
        let arm = OracleArm::from_name(name)
            .ok_or_else(|| format!("error: --corrupt-arm: unknown arm {name:?}"))?;
        // Corrupting an arm the matrix never runs would "prove" the
        // harness works while exercising nothing — reject the combo so
        // a typo'd CI job cannot pass green.
        if !config.arms.contains(&arm) {
            return Err(format!(
                "error: --corrupt-arm {name} is not in the selected matrix"
            ));
        }
        config.corrupt = Some(arm);
        println!("fuzz: CORRUPTION MODE — arm `{name}` deliberately broken");
    }
    let arm_names: Vec<&str> = config.arms.iter().map(|a| a.name()).collect();
    println!(
        "fuzz: seeds {}..{} across arms [{}], max-states {}",
        seeds.start,
        seeds.end,
        arm_names.join(", "),
        config.limits.max_states
    );
    let outcome = run_sweep(seeds, &config, options.shrink, &mut |line| {
        println!("fuzz: {line}")
    });
    for (index, repro) in outcome.divergences.iter().enumerate() {
        let d = &repro.divergence;
        println!(
            "fuzz: divergence {index}: seed {} arm `{}`: {}",
            d.seed,
            d.arm.name(),
            d.detail
        );
        if let Some(dir) = &options.repro_dir {
            std::fs::create_dir_all(dir).map_err(|e| format!("error: cannot create {dir}: {e}"))?;
            let path = format!("{dir}/seed{}_{}.has", d.seed, d.arm.name());
            std::fs::write(&path, &repro.minimized)
                .map_err(|e| format!("error: cannot write {path}: {e}"))?;
            println!("fuzz: wrote repro to {path}");
        } else {
            println!("--- repro ---\n{}", repro.minimized);
        }
    }
    for (seed, error) in &outcome.errors {
        println!("fuzz: seed {seed}: harness error: {error}");
    }
    println!(
        "fuzz: ran {} seeds — {} divergences, {} errors",
        outcome.seeds_run,
        outcome.divergences.len(),
        outcome.errors.len()
    );
    if outcome.clean() {
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::from(1))
    }
}

/// `verifas submit`: send one spec to a running daemon over its NDJSON
/// HTTP protocol and stream the response frames to stdout.  An
/// `overloaded` refusal (HTTP 429: the admission queue is full) or a
/// connection reset retries with jittered exponential backoff —
/// verification is deterministic, so a retry is always safe.
fn submit(options: &Options, source: &str) -> Result<ExitCode, String> {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let mut members = vec![
        ("spec".to_owned(), Json::Str(source.to_owned())),
        ("class".to_owned(), Json::Str(options.class.clone())),
    ];
    if let Some(name) = &options.prop {
        members.push((
            "properties".to_owned(),
            Json::Arr(vec![Json::Str(name.clone())]),
        ));
    }
    if let Some(ms) = options.deadline_ms {
        members.push(("deadline_ms".to_owned(), Json::Num(ms as f64)));
    }
    let body = Json::Obj(members).to_string();
    let attempts = options.retries.max(1);

    for attempt in 1..=attempts {
        let outcome = (|| -> Result<SubmitOutcome, String> {
            let mut stream = TcpStream::connect(&options.addr)
                .map_err(|e| format!("cannot connect to {}: {e}", options.addr))?;
            let request = format!(
                "POST /v1/verify HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                options.addr,
                body.len()
            );
            stream
                .write_all(request.as_bytes())
                .map_err(|e| format!("send failed: {e}"))?;
            let mut reader = BufReader::new(stream);
            let mut status = String::new();
            reader
                .read_line(&mut status)
                .map_err(|e| format!("read failed: {e}"))?;
            let code: u16 = status
                .split_whitespace()
                .nth(1)
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| format!("malformed status line {status:?}"))?;
            // Skip the remaining headers; the NDJSON body follows.
            loop {
                let mut line = String::new();
                if reader
                    .read_line(&mut line)
                    .map_err(|e| format!("read failed: {e}"))?
                    == 0
                    || line.trim_end().is_empty()
                {
                    break;
                }
            }
            if code == 429 {
                return Ok(SubmitOutcome::Overloaded);
            }
            let mut saw_done = false;
            for line in reader.lines() {
                let line = line.map_err(|e| format!("stream reset: {e}"))?;
                if line.is_empty() {
                    continue;
                }
                println!("{line}");
                if let Ok(frame) = Json::parse(&line) {
                    if frame.get("frame").and_then(Json::as_str) == Some("done") {
                        saw_done = true;
                    }
                }
            }
            if code != 200 {
                return Ok(SubmitOutcome::Refused(code));
            }
            if !saw_done {
                // 200 but the stream ended without its terminal frame:
                // the connection was reset mid-stream.
                return Err("stream ended before the done frame".to_owned());
            }
            Ok(SubmitOutcome::Done)
        })();
        match outcome {
            Ok(SubmitOutcome::Done) => return Ok(ExitCode::SUCCESS),
            Ok(SubmitOutcome::Refused(code)) => {
                return Err(format!(
                    "error: {}: request refused (HTTP {code})",
                    options.addr
                ));
            }
            Ok(SubmitOutcome::Overloaded) if attempt < attempts => {
                let delay = backoff_delay(attempt);
                eprintln!(
                    "verifas submit: overloaded; retry {attempt}/{} in {}ms",
                    attempts - 1,
                    delay.as_millis()
                );
                std::thread::sleep(delay);
            }
            Ok(SubmitOutcome::Overloaded) => {
                return Err(format!(
                    "error: {}: still overloaded after {attempts} attempts",
                    options.addr
                ));
            }
            Err(reason) if attempt < attempts => {
                let delay = backoff_delay(attempt);
                eprintln!(
                    "verifas submit: {reason}; retry {attempt}/{} in {}ms",
                    attempts - 1,
                    delay.as_millis()
                );
                std::thread::sleep(delay);
            }
            Err(reason) => return Err(format!("error: {}: {reason}", options.addr)),
        }
    }
    unreachable!("the loop returns on its last attempt");
}

enum SubmitOutcome {
    /// The stream completed with a `done` frame.
    Done,
    /// HTTP 429: the admission queue is full — back off and retry.
    Overloaded,
    /// Any other non-200 status: a typed refusal, not retryable.
    Refused(u16),
}

/// Exponential backoff with ±50% multiplicative jitter: 100ms base,
/// doubling per attempt, capped at 5s.  Jitter decorrelates a thundering
/// herd of clients that were all refused by the same overload.
fn backoff_delay(attempt: u32) -> std::time::Duration {
    let base_ms = 100u64.saturating_mul(1 << (attempt - 1).min(10)).min(5_000);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.subsec_nanos() as u64);
    let mut mix = nanos ^ ((std::process::id() as u64) << 32) ^ (attempt as u64);
    mix = mix
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let factor = 50 + (mix >> 33) % 101; // 50%..150%
    std::time::Duration::from_millis(base_ms * factor / 100)
}

fn fmt(options: &Options, source: &str) -> Result<ExitCode, String> {
    // `format_source` re-anchors `//` comments against the canonical
    // layout, so commented files format (and rewrite in place) without
    // losing their documentation.
    let formatted = spec::format_source(source).map_err(|e| e.render(&options.file))?;
    if options.check {
        if formatted == source {
            Ok(ExitCode::SUCCESS)
        } else {
            eprintln!("{}: not canonically formatted", options.file);
            Ok(ExitCode::from(1))
        }
    } else if options.write {
        std::fs::write(&options.file, &formatted)
            .map_err(|e| format!("error: cannot write {}: {e}", options.file))?;
        Ok(ExitCode::SUCCESS)
    } else {
        print!("{formatted}");
        Ok(ExitCode::SUCCESS)
    }
}

fn check(options: &Options, source: &str, batch: bool) -> Result<ExitCode, String> {
    let compiled = compile(options, source)?;
    let CompiledSpec { spec, properties } = compiled;
    let selected: Vec<LtlFoProperty> = match &options.prop {
        None => properties,
        Some(name) => {
            let found: Vec<LtlFoProperty> =
                properties.into_iter().filter(|p| p.name == *name).collect();
            if found.is_empty() {
                return Err(format!(
                    "error: {}: no property named {name:?}",
                    options.file
                ));
            }
            found
        }
    };
    if selected.is_empty() {
        println!("{}: no properties to verify", spec.name);
        return Ok(ExitCode::SUCCESS);
    }
    let name = spec.name.clone();
    let base = options
        .base
        .as_deref()
        .map(BaseSnapshot::load)
        .transpose()?;
    let engine = Engine::load_with_options(spec, verifier_options(options))
        .map_err(|e| format!("error: {}: {e}", options.file))?;
    println!("{name}: verifying {} properties", selected.len());
    let reports: Vec<Result<VerificationReport, VerifasError>> = if batch {
        // Stream completions as the scheduler finishes them (completion
        // order); the full per-property summaries follow in input order.
        let total = selected.len();
        let mut done = 0usize;
        let mut on_result = |index: usize, result: &Result<VerificationReport, VerifasError>| {
            done += 1;
            let status = match result {
                Ok(report) => format!("{:?}", report.outcome),
                Err(_) => "error".to_owned(),
            };
            println!("  [{done}/{total}] finished #{index} ({status})");
        };
        engine
            .batch()
            .batch_threads(options.threads)
            .on_result(&mut on_result)
            .run(&selected)
    } else {
        let effective = effective_options(options);
        let mut reused = 0usize;
        let reports: Vec<Result<VerificationReport, VerifasError>> = selected
            .iter()
            .map(|property| {
                if let Some(report) = base
                    .as_ref()
                    .and_then(|base| base.lookup(engine.spec(), property, &effective))
                {
                    reused += 1;
                    let report = Ok(report.clone());
                    println!("  {} [reused]", summarize(&report));
                    return report;
                }
                let report = engine
                    .verification()
                    .property(property)
                    .search_threads(options.threads)
                    .run();
                println!("  {}", summarize(&report));
                report
            })
            .collect();
        if base.is_some() {
            println!("incremental: reused {reused} of {} reports", selected.len());
        }
        reports
    };
    if batch {
        for report in &reports {
            println!("  {}", summarize(report));
        }
    }
    if let Some(path) = &options.json {
        let documents: Vec<Json> = reports
            .iter()
            .map(|r| match r {
                Ok(report) => report.to_json_value(),
                Err(e) => Json::Obj(vec![("error".to_owned(), Json::Str(e.to_string()))]),
            })
            .collect();
        let mut members = vec![
            ("spec".to_owned(), Json::Str(name.clone())),
            ("reports".to_owned(), Json::Arr(documents)),
        ];
        if !batch {
            // The edit-loop snapshot: enough identity to let a later
            // `check --base` prove which reports are still valid.  Batch
            // runs are excluded — their thread budgets are
            // scheduler-driven, so their stats are not what a later
            // `check` would reproduce.
            members.push((
                "incremental".to_owned(),
                incremental_snapshot(engine.spec(), &selected, &reports, options),
            ));
        }
        std::fs::write(path, Json::Obj(members).to_string())
            .map_err(|e| format!("error: cannot write {path}: {e}"))?;
        println!("wrote {} reports to {path}", reports.len());
    }
    if reports.iter().any(|r| r.is_err()) {
        return Err(format!(
            "error: {}: some verifications failed",
            options.file
        ));
    }
    Ok(ExitCode::SUCCESS)
}

/// The `incremental` member of a `--json` document: per-task slice
/// hashes plus (property, options) fingerprints of every definite,
/// uncancelled report — everything `BaseSnapshot::lookup` needs.
fn incremental_snapshot(
    spec: &HasSpec,
    selected: &[LtlFoProperty],
    reports: &[Result<VerificationReport, VerifasError>],
    options: &Options,
) -> Json {
    let slices: Vec<Json> = spec
        .iter_tasks()
        .map(|(id, task)| {
            Json::Obj(vec![
                ("task".to_owned(), Json::Str(task.name.clone())),
                ("hash".to_owned(), Json::Str(hex64(slice_hash(spec, id)))),
            ])
        })
        .collect();
    let effective = effective_options(options);
    let options_fp = hex64(fingerprint(&effective));
    let mut entries = Vec::new();
    for (index, (property, result)) in selected.iter().zip(reports).enumerate() {
        let Ok(report) = result else { continue };
        // A cancelled or inconclusive verdict depends on wall-clock
        // limits; reusing one would not be bit-identical to re-running.
        if report.cancelled || report.outcome == VerificationOutcome::Inconclusive {
            continue;
        }
        entries.push(Json::Obj(vec![
            ("index".to_owned(), Json::Num(index as f64)),
            ("task".to_owned(), Json::Str(report.task.clone())),
            (
                "property_fp".to_owned(),
                Json::Str(hex64(fingerprint(property))),
            ),
            ("options_fp".to_owned(), Json::Str(options_fp.clone())),
        ]));
    }
    Json::Obj(vec![
        ("schema".to_owned(), Json::Num(1.0)),
        ("spec_hash".to_owned(), Json::Str(spec_hash_hex(spec))),
        ("slices".to_owned(), Json::Arr(slices)),
        ("reports".to_owned(), Json::Arr(entries)),
    ])
}

fn summarize(report: &Result<VerificationReport, VerifasError>) -> String {
    match report {
        Err(e) => format!("error: {e}"),
        Ok(report) => {
            let outcome = match report.outcome {
                VerificationOutcome::Satisfied => "satisfied",
                VerificationOutcome::Violated => "VIOLATED",
                VerificationOutcome::Inconclusive => "inconclusive",
            };
            let mut line = format!(
                "{}: {outcome} ({} states, {} ms)",
                report.property,
                report.stats.states_created,
                report.elapsed_ms()
            );
            if let Some(witness) = &report.witness {
                let kind = if witness.finite { "finite" } else { "infinite" };
                line.push_str(&format!("\n      {kind} witness: {}", witness.description));
            }
            line
        }
    }
}
