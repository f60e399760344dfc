//! `perfbench` — the end-to-end and per-layer benchmark of VERIFAS.
//!
//! ```text
//! perfbench --workload <real_check|lattice|torus|serve_mix> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --record-answers <path>
//! ```
//!
//! A run builds its inputs from the seed, measures the workload through
//! the public API for about `--seconds`, checks every output, and prints
//! one JSON object as the last line of standard output:
//! `{"correct", "attempted", "failed", "metrics"}`.  With `--trace 0` the
//! metrics are the end-to-end ones of `BENCHMARK.json`; with `--trace 1`
//! the run reissues its work layer by layer with spans and reports the
//! per-layer ones.  Diagnostics and tables go to standard error.  The
//! exit code is non-zero when any operation failed.  See `README.md`.

mod cold_check;
mod layers;
mod real_check;
mod serve_mix;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The end-to-end metrics every workload reports (see `README.md` for
/// what each means on each workload).
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub verdicts_per_s: f64,
    pub verdict_ms_p50: f64,
    pub req_ms_p50: f64,
    pub decided_frac: f64,
}

impl EndToEnd {
    /// The metrics, in `BENCHMARK.json` order.
    pub fn metrics(self) -> Vec<Metric> {
        let metric = |name, value, unit| Metric { name, value, unit };
        vec![
            metric("setup_s", self.setup_s, "s"),
            metric("peak_rss_mb", self.peak_rss_mb, "MiB"),
            metric("verdicts_per_s", self.verdicts_per_s, "1/s"),
            metric("verdict_ms_p50", self.verdict_ms_p50, "ms"),
            metric("req_ms_p50", self.req_ms_p50, "ms"),
            metric("decided_frac", self.decided_frac, "ratio"),
        ]
    }
}

/// What a run measured and found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (verifications, checks or requests).
    pub attempted: usize,
    /// One line per failed operation.
    pub failures: Vec<String>,
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Further numbers printed on standard error only.
    pub diagnostics: Vec<Metric>,
    /// Free-form report text for standard error (tables, findings).
    pub notes: Vec<String>,
}

/// The run's arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Worker threads for searches, batches and the load generator: one per
/// core.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set (VmHWM) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Time `setup` `reps` times and return the last result with the median
/// set-up time in seconds (the first repetition also pays process warm-up,
/// so the median is the steadier figure).  Each repetition's clock stops
/// before the previous result is dropped, so no time includes a teardown.
pub fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let started = Instant::now();
        let value = setup();
        times.push(started.elapsed().as_secs_f64());
        last = Some(value);
    }
    let median = stats::median(&times).expect("at least one repetition");
    (last.expect("at least one repetition"), median)
}

/// Where the traced pass writes its spans.
pub fn trace_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    PathBuf::from(target).join("perfbench")
}

/// Write the traced pass's spans under [`trace_dir`] and add its self-time
/// table (per span name: summed self time, share, span count) to the notes.
pub fn report_trace(args: &Args, spans: &[trace::Span], outcome: &mut Outcome) {
    let times = trace::self_times(spans);
    let total: f64 = times.values().map(|t| t.0).sum();
    let mut table = format!(
        "  {:<10} {:>12} {:>7} {:>8}",
        "span", "self ms", "share", "spans"
    );
    for (name, (us, count)) in &times {
        table.push_str(&format!(
            "\n  {name:<10} {:>12.2} {:>6.1}% {count:>8}",
            us / 1e3,
            100.0 * us / total.max(f64::MIN_POSITIVE)
        ));
    }
    outcome.notes.push(table);
    let dir = trace_dir();
    let path = dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, trace::spans_json(spans)));
    outcome.notes.push(match written {
        Ok(()) => format!("  spans written to {}", path.display()),
        Err(e) => format!("  spans not written: {e}"),
    });
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut iter = raw.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--seconds needs a positive number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_owned()
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failures.is_empty(),
        outcome.attempted.max(1),
        outcome.failures.len(),
        metrics.join(", ")
    )
}

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "real_check" => real_check::run(args),
        "lattice" => cold_check::run(args, cold_check::Shape::LATTICE),
        "torus" => cold_check::run(args, cold_check::Shape::TORUS),
        "serve_mix" => serve_mix::run(args),
        other => Err(format!(
            "unknown workload {other:?} (expected real_check, lattice, torus or serve_mix)"
        )),
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("--record-answers") {
        let Some(path) = raw.get(1) else {
            eprintln!("perfbench: --record-answers needs a path");
            std::process::exit(2);
        };
        if let Err(e) = real_check::record_answers(path) {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    eprintln!(
        "{} seed {} on {} cores: {} attempted, {} failed",
        args.workload,
        args.seed,
        cores(),
        outcome.attempted,
        outcome.failures.len()
    );
    for failure in outcome.failures.iter().take(20) {
        eprintln!("  FAILED: {failure}");
    }
    for m in outcome.metrics.iter().chain(&outcome.diagnostics) {
        eprintln!("  {:<28} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for note in &outcome.notes {
        eprintln!("{note}");
    }
    println!("{}", result_line(&outcome));
    if !outcome.failures.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let outcome = Outcome {
            attempted: 3,
            failures: vec!["x".to_owned()],
            metrics: vec![Metric {
                name: "setup_s",
                value: 0.5,
                unit: "s",
            }],
            ..Outcome::default()
        };
        let doc = verifas::core::Json::parse(&result_line(&outcome)).unwrap();
        let verifas::core::Json::Obj(members) = &doc else {
            panic!("not an object");
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            doc.get("failed").and_then(verifas::core::Json::as_u64),
            Some(1)
        );
    }

    fn read_json(relative: &str) -> verifas::core::Json {
        let path = format!("{}/{relative}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        verifas::core::Json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    /// `(name, unit)` of every metric a `BENCHMARK.json` list declares.
    fn declared(doc: &verifas::core::Json, key: &str) -> Vec<(String, String)> {
        let field = |m: &verifas::core::Json, f: &str| {
            m.get(f)
                .and_then(verifas::core::Json::as_str)
                .unwrap()
                .to_owned()
        };
        doc.get(key)
            .and_then(verifas::core::Json::as_array)
            .unwrap()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    fn printed(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.to_owned(), m.unit.to_owned()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_metrics_runs_print() {
        let doc = read_json("../BENCHMARK.json");
        let e2e = EndToEnd {
            setup_s: 1.0,
            peak_rss_mb: 1.0,
            verdicts_per_s: 1.0,
            verdict_ms_p50: 1.0,
            req_ms_p50: 1.0,
            decided_frac: 1.0,
        };
        assert_eq!(declared(&doc, "end_to_end"), printed(&e2e.metrics()));
        let layer = layers::layer_metrics(
            &[],
            &layers::Counts::default(),
            &layers::Schedule::default(),
            1.0,
            1.0,
        );
        assert_eq!(declared(&doc, "per_layer"), printed(&layer));
    }

    #[test]
    fn arguments_are_all_required_and_checked() {
        let args = |s: &str| s.split(' ').map(str::to_owned).collect::<Vec<_>>();
        let ok = parse_args(&args("--workload lattice --seed 3 --seconds 2 --trace 1")).unwrap();
        assert_eq!((ok.seed, ok.trace), (3, true));
        assert!(parse_args(&args("--workload lattice --seed 3 --seconds 2")).is_err());
        assert!(parse_args(&args("--workload lattice --seed x --seconds 2 --trace 0")).is_err());
        assert!(parse_args(&args("--workload lattice --seed 1 --seconds 0 --trace 0")).is_err());
    }
}
