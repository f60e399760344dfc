//! Incremental re-verification acceptance: for every `.has` file in
//! `examples/specs/`, an edit script of small source mutations (tweak a
//! service condition, add a property, rename an alias) is verified twice
//! at every step — once cold, once incrementally from the previous
//! step's engine via `Engine::load_delta` — and the reports must be
//! bit-identical modulo wall-clock fields.  A targeted two-task scenario
//! then proves through the warm engine's own build counts
//! (`Engine::cache_stats`) that the preprocessing of an unchanged task is
//! carried, not rebuilt.

use std::path::{Path, PathBuf};
use verifas::prelude::*;
use verifas::spec::{self, CompiledSpec};

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/specs")
}

fn corpus() -> Vec<(String, String)> {
    let mut files: Vec<(String, String)> = std::fs::read_dir(corpus_dir())
        .expect("examples/specs exists")
        .filter_map(|entry| {
            let path = entry.unwrap().path();
            (path.extension().is_some_and(|e| e == "has")).then(|| {
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                let source = std::fs::read_to_string(&path).unwrap();
                (name, source)
            })
        })
        .collect();
    files.sort();
    assert!(files.len() >= 4);
    files
}

fn compile(name: &str, source: &str) -> CompiledSpec {
    spec::compile(source).unwrap_or_else(|e| panic!("{}", e.render(name)))
}

/// Deterministic engine options: state-bounded, no wall-clock cutoff.
fn options() -> VerifierOptions {
    VerifierOptions {
        limits: SearchLimits {
            max_states: 50_000,
            max_millis: 600_000,
        },
        ..VerifierOptions::default()
    }
}

/// A report's scheduling- and timing-independent core.
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

/// Replace whole-word occurrences of `from` with `to` (identifier
/// boundaries on both sides, so renaming a `define` alias never chews
/// into string literals like `"Received"` or longer identifiers).
fn rename_word(source: &str, from: &str, to: &str) -> String {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut out = String::with_capacity(source.len());
    let mut rest = source;
    while let Some(at) = rest.find(from) {
        let before = rest[..at].chars().last().or_else(|| out.chars().last());
        let before_ok = !before.is_some_and(is_ident);
        let after = rest[at + from.len()..].chars().next();
        let after_ok = !after.is_some_and(is_ident);
        out.push_str(&rest[..at]);
        out.push_str(if before_ok && after_ok { to } else { from });
        rest = &rest[at + from.len()..];
    }
    out.push_str(rest);
    out
}

/// Mutation 1 — tweak a service condition: conjoin the file's first
/// pre-condition with itself.  Semantically vacuous but structurally
/// real (the lowering folds `true && c`, not `c && c`), and no constant
/// enters or leaves the spec, so sibling task slices survive the edit.
fn tweak_service_condition(source: &str) -> String {
    let at = source
        .find("pre: ")
        .expect("every corpus file has a service");
    let end = at + source[at..].find(';').expect("the pre-condition ends");
    let cond = &source[at + 5..end];
    format!(
        "{}pre: ({cond}) && ({cond}){}",
        &source[..at],
        &source[end..]
    )
}

/// Mutation 2 — add a property (on `task`): the lowered spec is
/// untouched, so the delta is fully unchanged and every prior artefact
/// carries; only the new property itself needs a search.
fn add_property(source: &str, task: &str) -> String {
    format!("{source}\nproperty \"delta-probe\" on {task} {{\n    formula: F {{ true }};\n}}\n")
}

/// Mutation 3 — rename an alias: the first `define` alias where one
/// exists (pure frontend sugar — the lowered spec *and* properties are
/// bit-identical), else the first service name (a real structural
/// rename the delta must treat as a change).
fn rename_alias_or_service(source: &str) -> String {
    let (keyword, suffix) = if source.contains("define ") {
        ("define ", "_renamed")
    } else {
        ("service ", "Renamed")
    };
    let at = source.find(keyword).unwrap() + keyword.len();
    let name: String = source[at..]
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    rename_word(source, &name, &format!("{name}{suffix}"))
}

/// The cumulative edit script for one corpus file: each step builds on
/// the previous source, the way an interactive editing session would.
fn edit_script(source: &str, root: &str) -> Vec<(&'static str, String)> {
    let tweaked = tweak_service_condition(source);
    let extended = add_property(&tweaked, root);
    let renamed = rename_alias_or_service(&extended);
    vec![
        ("original", source.to_owned()),
        ("tweak-pre", tweaked),
        ("add-property", extended),
        ("rename-alias", renamed),
    ]
}

fn root_name(compiled: &CompiledSpec) -> String {
    compiled.spec.task(compiled.spec.root()).name.clone()
}

/// Every corpus property of every edit-script step, checked on a warm
/// chain of `load_delta` engines, must match a cold engine bit for bit.
#[test]
fn edit_scripts_verify_bit_identically() {
    for (name, source) in corpus() {
        let root = root_name(&compile(&name, &source));
        let steps = edit_script(&source, &root);
        let mut warm: Option<Engine> = None;
        for (label, text) in &steps {
            let step = format!("{name}[{label}]");
            let compiled = compile(&step, text);
            let cold = Engine::load_with_options(compiled.spec.clone(), options()).unwrap();
            let next = match &warm {
                None => {
                    Engine::load_with_reuse(compiled.spec.clone(), options(), ReuseMode::Preproc)
                        .unwrap()
                }
                Some(prior) => {
                    Engine::load_delta(prior, compiled.spec.clone(), ReuseMode::Preproc)
                        .unwrap()
                        .0
                }
            };
            for property in &compiled.properties {
                let from_cold = cold.check(property).unwrap();
                let from_warm = next.check(property).unwrap();
                assert_eq!(
                    comparable(&from_cold),
                    comparable(&from_warm),
                    "{step} {:?}: incremental must be bit-identical to cold",
                    property.name
                );
                assert_ne!(
                    from_cold.outcome,
                    VerificationOutcome::Inconclusive,
                    "{step}"
                );
            }
            warm = Some(next);
        }
    }
}

/// The two-task counter scenario: `conference_review.has` with two
/// extra properties on the child task `Referee` (identical formulas —
/// they share one preprocessing key), then a root-local service edit.
fn referee_scenario() -> (CompiledSpec, CompiledSpec) {
    let source = std::fs::read_to_string(corpus_dir().join("conference_review.has")).unwrap();
    let probe = "property \"referee-probe\" on Referee {\n    formula: F { verdict != null };\n}\n";
    let probe2 =
        "property \"referee-probe-2\" on Referee {\n    formula: F { verdict != null };\n}\n";
    let base = format!("{source}\n{probe}\n{probe2}");
    let edited = tweak_service_condition(&base);
    (
        compile("conference_review.has[+probes]", &base),
        compile("conference_review.has[+probes,tweak-pre]", &edited),
    )
}

fn property<'a>(compiled: &'a CompiledSpec, name: &str) -> &'a LtlFoProperty {
    compiled
        .properties
        .iter()
        .find(|p| p.name == name)
        .unwrap_or_else(|| panic!("property {name:?} missing"))
}

/// After a root-local edit, the unchanged child task's preprocessing is
/// carried — provably not rebuilt (the warm engine's build count stays
/// flat while a fresh child search runs) — while the edited root's is
/// rebuilt.
#[test]
fn unchanged_preprocessing_is_carried_not_rebuilt() {
    let (base, edited) = referee_scenario();
    let prior = Engine::load_with_reuse(base.spec.clone(), options(), ReuseMode::Preproc).unwrap();
    let first = prior.check(property(&base, "referee-probe")).unwrap();

    let (warm, summary) =
        Engine::load_delta(&prior, edited.spec.clone(), ReuseMode::Preproc).unwrap();
    let builds = || warm.cache_stats().preprocessing_builds;
    let builds_before = builds();
    assert_eq!(builds_before, 0, "load_delta carries, it builds nothing");
    assert_eq!(summary.tasks, 2);
    assert_eq!(
        summary.tasks_unchanged, 1,
        "only the Referee slice survives"
    );
    assert_eq!(summary.preps_carried, 1);
    assert_eq!(summary.reports_carried, 1);

    // A *new* property on the unchanged task runs a real search (the
    // report cache misses) against the carried preprocessing: no
    // universe is built.
    let fresh = warm.check(property(&edited, "referee-probe-2")).unwrap();
    assert_eq!(
        builds(),
        builds_before,
        "the carried preprocessing must serve the unchanged task's search"
    );
    assert_eq!(
        comparable(&first),
        comparable(&fresh),
        "identical formulas, same search"
    );

    // The identical request is answered from the carried report — the
    // exact same report, wall-clock fields included, zero search.
    let reused_before = warm.cache_stats().reports_reused;
    let carried = warm.check(property(&edited, "referee-probe")).unwrap();
    assert_eq!(carried, first);
    assert_eq!(warm.cache_stats().reports_reused, reused_before + 1);

    // The edited root, by contrast, is rebuilt from scratch.
    let root_property = property(&edited, "submissions-recur");
    warm.check(root_property).unwrap();
    assert!(
        builds() > builds_before,
        "the changed root task must rebuild its preprocessing"
    );
}
