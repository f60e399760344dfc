//! The differential oracle matrix.
//!
//! Every generated spec runs once through the plain engine (one thread,
//! DSS on, filtered repeated-reachability, cold load, direct
//! `check_all`) — the *baseline* — and then once per enabled
//! [`OracleArm`].  Each arm answers the same question a different way
//! the codebase deliberately retains:
//!
//! * [`OracleArm::Threads`] — four search worker threads,
//! * [`OracleArm::IndexOff`] — data-structure support off: linear
//!   candidate scans in both phases and the cycle pass instead of
//!   signature-gated discrete groups,
//! * [`OracleArm::ReferenceRepeated`] — the retained O(active²)
//!   repeated-reachability oracle, reached through the engine's hidden
//!   `check_with_reference_phase2` entry (verdict/witness compare only:
//!   the reference emits no cycle statistics),
//! * [`OracleArm::IncrementalPreproc`] — `Engine::load_delta` from a
//!   mutated predecessor spec in [`ReuseMode::Preproc`],
//! * [`OracleArm::Serve`] — the spec text submitted through an
//!   in-process `verifas serve` gateway, reports read back from the
//!   response frames.
//!
//! All comparisons are exact on the report's deterministic core:
//! verdict, witness, search statistics, repeated-reachability statistics
//! (timing, thread-count and candidate-count fields zeroed, exactly as
//! the parallel-determinism suite does).  An error in a baseline slot is
//! a harness error, not a comparison: a panic or debug assertion that
//! fires in every arm would otherwise read as agreement.

use crate::gen::gen_spec_file;
use std::sync::Mutex;
use verifas_core::{
    CycleStats, Engine, Json, ReuseMode, SearchLimits, SearchStats, VerificationOutcome,
    VerificationReport, VerifierOptions, Witness,
};
use verifas_serve::{Gateway, PriorityClass, ServeConfig, VerifyRequest};
use verifas_spec::ast::{CondExpr, SpecFile};
use verifas_spec::{compile, format_spec};

/// One arm of the differential matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleArm {
    /// Four search worker threads vs one.
    Threads,
    /// Data-structure support off (linear candidate scans) vs on.
    IndexOff,
    /// Retained reference repeated-reachability vs the filtered one.
    ReferenceRepeated,
    /// `Engine::load_delta` in [`ReuseMode::Preproc`] vs a cold load.
    IncrementalPreproc,
    /// Served over an in-process gateway vs direct `check_all`.
    Serve,
}

impl OracleArm {
    /// Every arm, in the order the matrix runs them.
    pub const ALL: [OracleArm; 5] = [
        OracleArm::Threads,
        OracleArm::IndexOff,
        OracleArm::ReferenceRepeated,
        OracleArm::IncrementalPreproc,
        OracleArm::Serve,
    ];

    /// The short name used by `verifas fuzz --matrix`.
    pub fn name(self) -> &'static str {
        match self {
            OracleArm::Threads => "threads",
            OracleArm::IndexOff => "index",
            OracleArm::ReferenceRepeated => "repeated",
            OracleArm::IncrementalPreproc => "preproc",
            OracleArm::Serve => "serve",
        }
    }

    /// Inverse of [`OracleArm::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        OracleArm::ALL.into_iter().find(|arm| arm.name() == name)
    }
}

/// Matrix configuration: arms to run, deterministic search limits, and
/// the deliberate-corruption hook the shrinker tests use.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Arms to compare against the baseline.
    pub arms: Vec<OracleArm>,
    /// Per-search limits.  Keep `max_millis` effectively unbounded: only
    /// the deterministic state budget may stop a run, otherwise verdicts
    /// would depend on wall clock and arms could legitimately disagree.
    pub limits: SearchLimits,
    /// Deliberately corrupt this arm's reports before comparison.  This
    /// exists so tests can prove the harness detects a broken oracle and
    /// the shrinker minimizes the resulting divergence.
    pub corrupt: Option<OracleArm>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            arms: OracleArm::ALL.to_vec(),
            limits: SearchLimits {
                max_states: 2_000,
                max_millis: 600_000,
            },
            corrupt: None,
        }
    }
}

/// A divergence between the baseline and one oracle arm.
#[derive(Debug, Clone)]
pub struct Divergence {
    pub seed: u64,
    pub arm: OracleArm,
    /// Which property and which part of its report disagreed.
    pub detail: String,
    /// The canonical `.has` text that exposed the divergence.
    pub source: String,
}

/// How much of a report an arm must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Strictness {
    /// Everything deterministic: verdict, witness, both phases' stats.
    Full,
    /// Verdict and witness services only — the reference
    /// repeated-reachability oracle reports neither cycle statistics nor
    /// the same auxiliary-phase counters, and renders the repetition
    /// reason differently (precedent: `ci_bench` compares the witness
    /// prefix only).
    Verdict,
}

/// The deterministic core of a report (see the parallel-determinism
/// suite, whose scrub rules this mirrors).
#[derive(Debug, Clone, PartialEq)]
struct ComparableReport {
    property: String,
    outcome: VerificationOutcome,
    witness: Option<Witness>,
    stats: Option<SearchStats>,
    repeated_stats: Option<SearchStats>,
    repeated_cycle: Option<CycleStats>,
}

fn comparable(report: &VerificationReport, strict: Strictness) -> ComparableReport {
    let strip = |mut stats: SearchStats| {
        stats.elapsed_ms = 0;
        stats.threads = 0;
        stats
    };
    let cycle = report.repeated_cycle.map(|mut cycle| {
        cycle.edge_micros = 0;
        cycle.scc_micros = 0;
        cycle.threads = 0;
        // `candidates` measures the filter itself, so it legitimately
        // differs between DSS on and off.
        cycle.candidates = 0;
        cycle
    });
    let witness = report.witness.clone().map(|mut witness| {
        if strict == Strictness::Verdict {
            // The repetition reason is implementation-specific prose.
            witness.description = String::new();
        }
        witness
    });
    match strict {
        Strictness::Full => ComparableReport {
            property: report.property.clone(),
            outcome: report.outcome,
            witness,
            stats: Some(strip(report.stats)),
            repeated_stats: report.repeated_stats.map(strip),
            repeated_cycle: cycle,
        },
        Strictness::Verdict => ComparableReport {
            property: report.property.clone(),
            outcome: report.outcome,
            witness,
            stats: Some(strip(report.stats)),
            repeated_stats: None,
            repeated_cycle: None,
        },
    }
}

/// Per-property results of one matrix arm (errors by display text).
type ArmReports = Vec<Result<VerificationReport, String>>;

fn compare(baseline: &ArmReports, arm_reports: &ArmReports, strict: Strictness) -> Option<String> {
    if baseline.len() != arm_reports.len() {
        return Some(format!(
            "report count diverged: baseline {} vs arm {}",
            baseline.len(),
            arm_reports.len()
        ));
    }
    for (index, (base, arm)) in baseline.iter().zip(arm_reports).enumerate() {
        match (base, arm) {
            (Ok(base), Ok(arm)) => {
                let base = comparable(base, strict);
                let arm = comparable(arm, strict);
                if base != arm {
                    return Some(format!(
                        "property #{index} ({}): baseline {:?} vs arm {:?}",
                        base.property, base, arm
                    ));
                }
            }
            (base, arm) => {
                return Some(format!(
                    "property #{index}: baseline {} vs arm {}",
                    describe_slot(base),
                    describe_slot(arm)
                ));
            }
        }
    }
    None
}

fn describe_slot(slot: &Result<VerificationReport, String>) -> String {
    match slot {
        Ok(report) => format!("report({:?})", report.outcome),
        Err(e) => format!("error({e})"),
    }
}

fn baseline_options(limits: SearchLimits) -> VerifierOptions {
    VerifierOptions {
        limits,
        ..VerifierOptions::default()
    }
}

/// Every property of `source` on a cold engine: through `check_all`, or
/// with `reference_phase2` one at a time through the engine's hidden
/// reference-phase-2 entry (the `repeated` arm).
fn engine_reports(
    options: VerifierOptions,
    source: &str,
    reference_phase2: bool,
) -> Result<ArmReports, String> {
    let compiled = compile(source).map_err(|e| format!("compile failed: {e}"))?;
    let engine =
        Engine::load_with_options(compiled.spec, options).map_err(|e| format!("load: {e}"))?;
    let reports = if reference_phase2 {
        compiled
            .properties
            .iter()
            .map(|p| engine.check_with_reference_phase2(p))
            .collect()
    } else {
        engine.check_all(&compiled.properties)
    };
    Ok(reports
        .into_iter()
        .map(|r| r.map_err(|e| e.to_string()))
        .collect())
}

/// The predecessor spec the incremental arms edit *from*: the first
/// service precondition `c` becomes `(c) && (c)` — a real structural
/// change (the resolver folds `true && c` but not `c && c`), confined
/// to one task's slice so every other task's preprocessing and reports
/// are carried across the delta.  Shrunken repros can drop every
/// service, so fall back to doubling an opening condition, and when
/// even those are gone return the spec unchanged — the delta is then
/// empty, which still exercises the carry-everything path.
fn predecessor(file: &SpecFile) -> SpecFile {
    let mut out = file.clone();
    if let Some(service) = out.tasks.iter_mut().find_map(|t| t.services.first_mut()) {
        let pre = service.pre.clone();
        service.pre = CondExpr::And(vec![pre.clone(), pre]);
    } else if let Some(opening) = out.tasks.iter_mut().find_map(|t| t.opening.as_mut()) {
        let cond = opening.clone();
        *opening = CondExpr::And(vec![cond.clone(), cond]);
    }
    out
}

fn incremental_reports(
    file: &SpecFile,
    source: &str,
    options: VerifierOptions,
) -> Result<ArmReports, String> {
    let prior_source = format_spec(&predecessor(file));
    let prior_compiled =
        compile(&prior_source).map_err(|e| format!("predecessor compile failed: {e}"))?;
    let prior = Engine::load_with_options(prior_compiled.spec, options)
        .map_err(|e| format!("predecessor load: {e}"))?;
    // Warm the prior engine's caches so the delta has something to carry.
    let _ = prior.check_all(&prior_compiled.properties);
    let compiled = compile(source).map_err(|e| format!("compile failed: {e}"))?;
    let (engine, _summary) = Engine::load_delta(&prior, compiled.spec, ReuseMode::Preproc)
        .map_err(|e| format!("load_delta: {e}"))?;
    Ok(engine
        .check_all(&compiled.properties)
        .into_iter()
        .map(|r| r.map_err(|e| e.to_string()))
        .collect())
}

fn served_reports(source: &str, limits: SearchLimits) -> Result<ArmReports, String> {
    let gateway = Gateway::new(ServeConfig {
        cores: 1,
        sessions: 2,
        reuse: ReuseMode::Cold,
        ..ServeConfig::default()
    });
    let request = VerifyRequest {
        spec: source.to_owned(),
        class: PriorityClass::Interactive,
        properties: None,
        deadline_ms: None,
        max_states: Some(limits.max_states),
        max_millis: Some(limits.max_millis),
    };
    let frames = Mutex::new(Vec::new());
    gateway
        .submit(&request, &|frame: &str| {
            frames.lock().unwrap().push(frame.to_owned());
        })
        .map_err(|e| format!("serve submit: {e}"))?;
    let frames = frames.into_inner().unwrap();
    let mut indexed: Vec<(usize, Result<VerificationReport, String>)> = Vec::new();
    for frame in &frames {
        let value = Json::parse(frame).map_err(|e| format!("bad frame: {e}"))?;
        if value.get("frame").and_then(Json::as_str) != Some("report") {
            continue;
        }
        let index = value
            .get("index")
            .and_then(Json::as_u64)
            .ok_or("report frame without index")? as usize;
        let slot = match value.get("report") {
            Some(json) => Ok(VerificationReport::from_json(&json.to_string())
                .map_err(|e| format!("report frame failed to parse: {e}"))?),
            None => Err(value
                .get("error")
                .and_then(Json::as_str)
                .ok_or("report frame with neither report nor error")?
                .to_owned()),
        };
        indexed.push((index, slot));
    }
    indexed.sort_by_key(|(index, _)| *index);
    Ok(indexed.into_iter().map(|(_, slot)| slot).collect())
}

/// Deliberately perturb an arm's first successful report (the shrinker
/// tests drive this through [`FuzzConfig::corrupt`]).
fn corrupt_reports(reports: &mut ArmReports) {
    if let Some(report) = reports.iter_mut().find_map(|slot| slot.as_mut().ok()) {
        report.stats.states_created += 1;
        report.outcome = match report.outcome {
            VerificationOutcome::Satisfied => VerificationOutcome::Violated,
            _ => VerificationOutcome::Satisfied,
        };
        report.witness = None;
    }
}

/// Run one arm over an already-printed spec.
fn arm_reports(
    arm: OracleArm,
    file: &SpecFile,
    source: &str,
    config: &FuzzConfig,
) -> Result<ArmReports, String> {
    let base = baseline_options(config.limits);
    match arm {
        OracleArm::Threads => engine_reports(
            VerifierOptions {
                search_threads: 4,
                ..base
            },
            source,
            false,
        ),
        OracleArm::IndexOff => engine_reports(
            VerifierOptions {
                data_structure_support: false,
                ..base
            },
            source,
            false,
        ),
        OracleArm::ReferenceRepeated => engine_reports(base, source, true),
        OracleArm::IncrementalPreproc => incremental_reports(file, source, base),
        OracleArm::Serve => served_reports(source, config.limits),
    }
}

fn strictness(arm: OracleArm) -> Strictness {
    match arm {
        OracleArm::ReferenceRepeated => Strictness::Verdict,
        _ => Strictness::Full,
    }
}

/// The first error slot of the baseline, as a message naming its
/// property (compiled properties keep declaration order).
fn baseline_error(file: &SpecFile, baseline: &ArmReports) -> Option<String> {
    baseline.iter().enumerate().find_map(|(index, slot)| {
        let message = slot.as_ref().err()?;
        let name = file.properties.get(index).map_or("?", |p| p.name.as_str());
        Some(format!(
            "baseline error on property #{index} ({name}): {message}"
        ))
    })
}

/// Run the full configured matrix over one spec AST.  `Ok(None)` means
/// every arm agreed with the baseline; `Ok(Some(_))` is a divergence;
/// `Err(_)` means the spec failed to print/compile/load at all (a
/// generator or front-end bug — also worth a repro), or the baseline
/// returned an error for some property.
pub fn check_spec_file(
    file: &SpecFile,
    seed: u64,
    config: &FuzzConfig,
) -> Result<Option<Divergence>, String> {
    let source = format_spec(file);
    let baseline = engine_reports(baseline_options(config.limits), &source, false)?;
    if let Some(error) = baseline_error(file, &baseline) {
        return Err(error);
    }
    for &arm in &config.arms {
        let mut reports = arm_reports(arm, file, &source, config)?;
        if config.corrupt == Some(arm) {
            corrupt_reports(&mut reports);
        }
        if let Some(detail) = compare(&baseline, &reports, strictness(arm)) {
            return Ok(Some(Divergence {
                seed,
                arm,
                detail,
                source,
            }));
        }
    }
    Ok(None)
}

/// Generate the spec for `seed` and run it through the matrix.
pub fn run_seed(seed: u64, config: &FuzzConfig) -> Result<Option<Divergence>, String> {
    check_spec_file(&gen_spec_file(seed), seed, config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_baseline_error_is_a_harness_error_naming_its_property() {
        let file = gen_spec_file(0);
        let names: Vec<&str> = file.properties.iter().map(|p| p.name.as_str()).collect();
        assert!(names.len() >= 2, "seed 0 declares several properties");
        let mut baseline: ArmReports = engine_reports(
            baseline_options(FuzzConfig::default().limits),
            &format_spec(&file),
            false,
        )
        .unwrap();
        assert_eq!(baseline_error(&file, &baseline), None);
        baseline[1] = Err("verification worker panicked: boom".to_owned());
        let error = baseline_error(&file, &baseline).expect("the error slot is reported");
        assert!(error.contains(names[1]), "{error}");
        assert!(error.contains("boom"), "{error}");
    }
}
