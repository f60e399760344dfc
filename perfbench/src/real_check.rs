//! `real_check`: the paper's own workload — the 32 real-style workflows,
//! each with its 12 Table-4 properties (`generate_properties` at the
//! paper's seed 2017), 384 pairs in all.
//!
//! Each spec's properties run as one `Engine::batch()` on every core,
//! under a deterministic per-phase `max_states` budget with `max_millis`
//! out of reach.  The run's seed orders the specs.  Every run draws all
//! 384 pairs: single-threaded at this budget the median pair takes 18 ms
//! and the slowest 0.45 s, and the mean cost of a random subset of 128
//! has an interquartile spread of 14% from draw to draw — more than any
//! regression bound this benchmark could hold.
//!
//! Verdicts are checked against `answers/real_check.tsv`, recorded with
//! `perfbench --record-answers`: a definite verdict that contradicts a
//! definite recorded one is a failure; Inconclusive against definite only
//! moves `decided_frac`.

use crate::layers::{self, Comparable, Counts, Schedule};
use crate::trace::Recorder;
use crate::{cores, peak_rss_mb, stats, timed_setup, Args, EndToEnd, Metric, Outcome};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use verifas::core::BaselineVerifier;
use verifas::fuzzgen::Lcg;
use verifas::ltl::LtlFoProperty;
use verifas::model::HasSpec;
use verifas::workloads::{generate_properties, real_workflows};
use verifas::{Engine, SearchLimits, VerificationOutcome, VerificationReport, VerifierOptions};

/// The per-phase state budget.
pub const MAX_STATES: usize = 1_000;
/// The property-generation seed of the paper's experiments.
pub const PROPERTY_SEED: u64 = 2017;
/// Repetitions timed for the set-up figure.
const SETUP_REPS: usize = 9;
/// The recorded verdicts.
const ANSWERS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/answers/real_check.tsv");

fn options() -> VerifierOptions {
    VerifierOptions {
        limits: SearchLimits {
            max_states: MAX_STATES,
            max_millis: 3_600_000,
        },
        ..VerifierOptions::default()
    }
}

/// The seed's order of the specs.  Each spec's batch holds its
/// properties in declaration order, as a spec file lists them: shuffling
/// within a batch moves where its slowest property starts, and with it
/// the batch's makespan, by more than any bound this benchmark could hold.
pub fn draw(seed: u64, specs: usize) -> Vec<usize> {
    let mut rng = Lcg::from_seed(seed);
    let mut order: Vec<usize> = (0..specs).collect();
    for i in (1..specs).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

/// Whether `got` contradicts `expected`: both definite and different.
/// Inconclusive on either side is not a contradiction.
pub fn contradicts(expected: VerificationOutcome, got: VerificationOutcome) -> bool {
    use VerificationOutcome::Inconclusive;
    expected != Inconclusive && got != Inconclusive && expected != got
}

fn verdict_name(outcome: VerificationOutcome) -> &'static str {
    match outcome {
        VerificationOutcome::Satisfied => "satisfied",
        VerificationOutcome::Violated => "violated",
        VerificationOutcome::Inconclusive => "inconclusive",
    }
}

fn parse_verdict(name: &str) -> Option<VerificationOutcome> {
    match name {
        "satisfied" => Some(VerificationOutcome::Satisfied),
        "violated" => Some(VerificationOutcome::Violated),
        "inconclusive" => Some(VerificationOutcome::Inconclusive),
        _ => None,
    }
}

/// Expected verdict per property name, from the answers file.
fn read_answers(path: &str) -> Result<HashMap<String, VerificationOutcome>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut out = HashMap::new();
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let mut cols = line.split('\t');
        let (Some(property), Some(verdict)) = (cols.nth(1), cols.next()) else {
            return Err(format!("malformed answers line {line:?}"));
        };
        let verdict =
            parse_verdict(verdict).ok_or_else(|| format!("unknown verdict in {line:?}"))?;
        out.insert(property.to_owned(), verdict);
    }
    Ok(out)
}

struct Inputs {
    specs: Vec<HasSpec>,
    properties: Vec<Vec<LtlFoProperty>>,
    /// Spec indices in the seed's order.
    order: Vec<usize>,
    answers: HashMap<String, VerificationOutcome>,
}

fn inputs(seed: u64) -> Result<Inputs, String> {
    let specs = real_workflows();
    let properties: Vec<Vec<LtlFoProperty>> = specs
        .iter()
        .map(|spec| generate_properties(spec, PROPERTY_SEED))
        .collect();
    let order = draw(seed, specs.len());
    let answers = read_answers(ANSWERS)?;
    Ok(Inputs {
        specs,
        properties,
        order,
        answers,
    })
}

/// One verification's result, as the run keeps it.
struct Verdict {
    property: String,
    result: Result<VerificationReport, String>,
    latency_s: f64,
}

/// One spec's batch through `Engine::batch()`: the engine load and the
/// batch are timed from the same start; each verification's latency runs
/// to its `on_result` callback.
fn run_batch(spec: &HasSpec, properties: &[LtlFoProperty]) -> (Vec<Verdict>, f64) {
    let spec = spec.clone();
    let started = Instant::now();
    let mut latencies = vec![0.0; properties.len()];
    let results: Vec<Result<VerificationReport, String>> =
        match Engine::load_with_options(spec, options()) {
            Ok(engine) => {
                let mut on_result =
                    |i: usize, _: &Result<VerificationReport, verifas::VerifasError>| {
                        latencies[i] = started.elapsed().as_secs_f64();
                    };
                engine
                    .batch()
                    .batch_threads(cores())
                    .on_result(&mut on_result)
                    .run(properties)
                    .into_iter()
                    .map(|r| r.map_err(|e| e.to_string()))
                    .collect()
            }
            Err(e) => properties.iter().map(|_| Err(e.to_string())).collect(),
        };
    let wall = started.elapsed().as_secs_f64();
    let verdicts = properties
        .iter()
        .zip(results)
        .zip(latencies)
        .map(|((p, result), latency_s)| Verdict {
            property: p.name.clone(),
            result,
            latency_s,
        })
        .collect();
    (verdicts, wall)
}

fn check_answers(
    verdicts: &[Verdict],
    answers: &HashMap<String, VerificationOutcome>,
    outcome: &mut Outcome,
) {
    for v in verdicts {
        match (&v.result, answers.get(&v.property)) {
            (Err(e), _) => outcome.failures.push(format!("{}: {e}", v.property)),
            (Ok(_), None) => outcome
                .failures
                .push(format!("{}: no recorded verdict", v.property)),
            (Ok(report), Some(&expected)) if contradicts(expected, report.outcome) => {
                outcome.failures.push(format!(
                    "{}: {:?}, recorded {:?}",
                    v.property, report.outcome, expected
                ))
            }
            (Ok(_), Some(_)) => {}
        }
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let (inputs, setup_s) = timed_setup(SETUP_REPS, || inputs(args.seed));
    let inputs = inputs?;
    if args.trace {
        return traced(args, &inputs);
    }

    // Whole passes over the draw: a pass starts only while its
    // predecessor's duration still fits in the time left, so every run
    // measures the same set of pairs.
    let started = Instant::now();
    let mut verdicts = Vec::new();
    let mut batch_walls = Vec::new();
    loop {
        let pass_started = Instant::now();
        for &spec in &inputs.order {
            let (v, wall) = run_batch(&inputs.specs[spec], &inputs.properties[spec]);
            verdicts.extend(v);
            batch_walls.push(wall);
        }
        let pass_s = pass_started.elapsed().as_secs_f64();
        if started.elapsed().as_secs_f64() + pass_s > args.seconds {
            break;
        }
    }
    let rss = peak_rss_mb();

    let mut outcome = Outcome {
        attempted: verdicts.len(),
        ..Outcome::default()
    };
    check_answers(&verdicts, &inputs.answers, &mut outcome);
    let decided = verdicts
        .iter()
        .filter(|v| {
            v.result
                .as_ref()
                .is_ok_and(|r| r.outcome != VerificationOutcome::Inconclusive)
        })
        .count();
    let latencies_ms: Vec<f64> = verdicts.iter().map(|v| v.latency_s * 1e3).collect();
    let batch_ms: Vec<f64> = batch_walls.iter().map(|s| s * 1e3).collect();
    outcome.metrics = EndToEnd {
        setup_s,
        peak_rss_mb: rss,
        verdicts_per_s: verdicts.len() as f64 / batch_walls.iter().sum::<f64>(),
        verdict_ms_p50: stats::median(&latencies_ms).unwrap_or(0.0),
        req_ms_p50: stats::median(&batch_ms).unwrap_or(0.0),
        decided_frac: decided as f64 / verdicts.len() as f64,
    }
    .metrics();
    outcome.diagnostics.push(Metric {
        name: "verifications",
        value: verdicts.len() as f64,
        unit: "count",
    });
    match stats::tail(&latencies_ms, 90) {
        Ok(p90) => outcome.diagnostics.push(Metric {
            name: "verdict_ms_p90",
            value: p90,
            unit: "ms",
        }),
        Err(refused) => outcome
            .notes
            .push(format!("  verdict_ms_p90 not reported: {refused}")),
    }
    Ok(outcome)
}

/// The whole draw through `Engine::batch()` untraced, then the same
/// batches reissued layer by layer under the same sharded scheduler, then
/// untraced once more.  Traced and untraced reports must agree.
fn traced(args: &Args, inputs: &Inputs) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let untraced_pass = || {
        let t0 = Instant::now();
        let batches: Vec<Vec<Verdict>> = inputs
            .order
            .iter()
            .map(|&spec| run_batch(&inputs.specs[spec], &inputs.properties[spec]).0)
            .collect();
        (batches, t0.elapsed().as_secs_f64())
    };
    let (untraced, untraced_before) = untraced_pass();
    let mut schedule = Schedule::default();
    for verdicts in &untraced {
        let reports: Vec<&VerificationReport> = verdicts
            .iter()
            .filter_map(|v| v.result.as_ref().ok())
            .collect();
        schedule.add(
            Schedule::batch_makespan_ms(reports.iter().copied()),
            cores(),
            reports.iter().copied(),
        );
    }

    let recorder = Recorder::new();
    let mut counts = Counts::default();
    let mut traced = Vec::new();
    let t0 = Instant::now();
    let mut request = 0u64;
    for &spec in &inputs.order {
        let properties = &inputs.properties[spec];
        let session = layers::load(&recorder, request, inputs.specs[spec].clone(), options())?;
        let (reports, c) = session.verify_batch(&recorder, request, properties, cores());
        counts.add(&c);
        request += properties.len() as u64;
        traced.push(reports);
    }
    let traced_s = t0.elapsed().as_secs_f64();
    // The untraced side runs again after the traced one: the first run
    // of a process pays its memory warm-up, so the overhead is measured
    // against the second.
    let untraced_after = untraced_pass().1;

    for (u_batch, t_batch) in untraced.iter().zip(&traced) {
        for (u, t) in u_batch.iter().zip(t_batch) {
            outcome.attempted += 1;
            // An untraced error is counted by the answer check below.
            match (&u.result, t) {
                (Ok(u_report), Ok(t_report))
                    if Comparable::of(u_report) != Comparable::of(t_report) =>
                {
                    outcome.failures.push(format!(
                        "{}: traced report differs from Engine::batch",
                        u.property
                    ))
                }
                (Ok(_), Err(e)) => outcome.failures.push(format!("{}: {e}", u.property)),
                _ => {}
            }
        }
        check_answers(u_batch, &inputs.answers, &mut outcome);
    }
    let spans = recorder.into_spans();
    outcome.metrics = layers::layer_metrics(&spans, &counts, &schedule, traced_s, untraced_after);
    outcome.notes.push(layers::findings(
        &outcome.metrics,
        traced_s,
        untraced_before,
        untraced_after,
    ));
    crate::report_trace(args, &spans, &mut outcome);
    Ok(outcome)
}

/// Record `answers/real_check.tsv`: every pair's verdict under the
/// benchmark's options, plus the SA-off, DSS-off and SP-off arms and, on
/// the `-flat` variants, `BaselineVerifier`.  A definite arm verdict that
/// contradicts the default is listed as a disagreement, never dropped.
pub fn record_answers(path: &str) -> Result<(), String> {
    let specs = real_workflows();
    let pairs: Vec<(usize, LtlFoProperty)> = specs
        .iter()
        .enumerate()
        .flat_map(|(s, spec)| {
            generate_properties(spec, PROPERTY_SEED)
                .into_iter()
                .map(move |p| (s, p))
        })
        .collect();
    let arms = [
        ("sa_off", options().try_without("SA")),
        ("dss_off", options().try_without("DSS")),
        ("sp_off", options().try_without("SP")),
    ];
    let next = AtomicUsize::new(0);
    let rows: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..cores() {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some((s, property)) = pairs.get(i) else {
                    break;
                };
                let spec = &specs[*s];
                let verdict = |options: VerifierOptions| {
                    Engine::load_with_options(spec.clone(), options)
                        .and_then(|e| e.check(property))
                        .map_err(|e| e.to_string())
                };
                let row = match verdict(options()) {
                    Ok(report) => {
                        let mut cols = vec![
                            spec.name.clone(),
                            property.name.clone(),
                            verdict_name(report.outcome).to_owned(),
                            report.stats.states_created.to_string(),
                            report
                                .repeated_stats
                                .map_or(0, |s| s.states_created)
                                .to_string(),
                        ];
                        let mut disagree = Vec::new();
                        for (arm, options) in &arms {
                            let got = options
                                .as_ref()
                                .map_err(|e| e.to_string())
                                .and_then(|o| verdict(*o).map(|r| r.outcome));
                            cols.push(
                                got.as_ref()
                                    .map_or("error", |o| verdict_name(*o))
                                    .to_owned(),
                            );
                            if got.is_ok_and(|o| contradicts(report.outcome, o)) {
                                disagree.push(*arm);
                            }
                        }
                        if spec.name.ends_with("-flat") {
                            let baseline = BaselineVerifier::new(spec, property, options().limits)
                                .map(|b| b.verify().outcome);
                            cols.push(
                                baseline
                                    .as_ref()
                                    .map_or("error", |o| verdict_name(*o))
                                    .to_owned(),
                            );
                            if baseline.is_ok_and(|o| contradicts(report.outcome, o)) {
                                disagree.push("baseline");
                            }
                        } else {
                            cols.push("-".to_owned());
                        }
                        cols.push(if disagree.is_empty() {
                            "-".to_owned()
                        } else {
                            disagree.join(",")
                        });
                        cols.join("\t")
                    }
                    Err(e) => format!("{}\t{}\terror: {e}", spec.name, property.name),
                };
                rows.lock().expect("rows poisoned").push((i, row));
            });
        }
    });
    let mut rows = rows.into_inner().expect("rows poisoned");
    rows.sort_by_key(|(i, _)| *i);
    let disagreements = rows
        .iter()
        .filter(|(_, r)| !r.ends_with("\t-") && !r.contains("error"))
        .count();
    let mut text = format!(
        "# real_check expected verdicts: {} real-style workflows x {} Table-4 properties\n\
         # (generate_properties seed {PROPERTY_SEED}), max_states {MAX_STATES} per phase.\n\
         # Written by `perfbench --record-answers`. Arms re-verify each pair with one\n\
         # optimisation off (sa_off, dss_off, sp_off); baseline is BaselineVerifier on\n\
         # the -flat variants. `disagree` names every arm whose definite verdict\n\
         # contradicts the definite default verdict ({disagreements} rows).\n\
         # spec\tproperty\tverdict\tphase1_states\tphase2_states\tsa_off\tdss_off\tsp_off\tbaseline\tdisagree\n",
        specs.len(),
        pairs.len() / specs.len()
    );
    for (_, row) in rows {
        text.push_str(&row);
        text.push('\n');
    }
    std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use VerificationOutcome::{Inconclusive, Satisfied, Violated};

    #[test]
    fn answer_check_flags_flips_but_not_newly_decided_verdicts() {
        assert!(contradicts(Satisfied, Violated));
        assert!(contradicts(Violated, Satisfied));
        assert!(!contradicts(Inconclusive, Violated));
        assert!(!contradicts(Satisfied, Inconclusive));
        assert!(!contradicts(Violated, Violated));
    }

    #[test]
    fn the_draw_is_a_seeded_order_of_every_spec() {
        let a = draw(11, 32);
        assert_eq!(a, draw(11, 32));
        assert_ne!(a, draw(12, 32));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<_>>());
    }
}
