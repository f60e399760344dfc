//! The spec-language frontend end to end: every `.has` file in
//! `examples/specs/` parses, validates, formats idempotently and
//! verifies; the two ported real workloads (loan approval, order
//! fulfillment) lower *bit-identically* to their programmatic builders —
//! same `HasSpec`, same `LtlFoProperty`, and same verdict, witness and
//! search statistics when run through the engine.  The `verifas` binary
//! rejects a flag its command does not take with a usage error, and its
//! `check --json` → `check --base` edit loop reuses exactly the reports
//! an edit leaves valid.

use std::path::{Path, PathBuf};
use verifas::core::Json;
use verifas::prelude::*;
use verifas::spec::{self, CompiledSpec};
use verifas::workloads::{
    loan_approval, loan_approval_property, order_fulfillment, order_fulfillment_property,
};

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
    assert!(
        files.len() >= 4,
        "the corpus must hold the two ported workloads plus at least two new scenarios"
    );
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

/// One ported workload: the text file and the programmatic builder must
/// agree on everything, down to the verification report.
fn assert_port_is_bit_identical(file: &str, built: HasSpec, property: LtlFoProperty) {
    let source = std::fs::read_to_string(corpus_dir().join(file)).unwrap();
    let compiled = compile(file, &source);
    assert_eq!(
        compiled.spec, built,
        "{file}: the lowered specification must equal the programmatic builder's"
    );
    let ported = compiled
        .properties
        .iter()
        .find(|p| p.name == property.name)
        .unwrap_or_else(|| panic!("{file}: property {:?} missing", property.name));
    assert_eq!(
        *ported, property,
        "{file}: the lowered property must equal the programmatic one"
    );
    // Same verdict, witness and search statistics through the engine.
    let text_engine = Engine::load_with_options(compiled.spec.clone(), options()).unwrap();
    let built_engine = Engine::load_with_options(built, options()).unwrap();
    let from_text = text_engine.check(ported).unwrap();
    let from_builder = built_engine.check(&property).unwrap();
    assert_eq!(
        comparable(&from_text),
        comparable(&from_builder),
        "{file}: the verification reports must be bit-identical"
    );
    assert_ne!(
        from_text.outcome,
        VerificationOutcome::Inconclusive,
        "{file}: the cross-checked property must reach a verdict"
    );
}

#[test]
fn order_fulfillment_port_is_bit_identical() {
    let built = order_fulfillment();
    let property = order_fulfillment_property(&built);
    assert_port_is_bit_identical("order_fulfillment.has", built, property);
}

#[test]
fn loan_approval_port_is_bit_identical() {
    let built = loan_approval();
    let property = loan_approval_property(&built);
    assert_port_is_bit_identical("loan_approval.has", built, property);
}

/// Every corpus file parses, validates, and every one of its properties
/// verifies to a conclusive verdict through the engine.
#[test]
fn every_corpus_file_compiles_and_verifies() {
    for (name, source) in corpus() {
        let compiled = compile(&name, &source);
        compiled
            .spec
            .validate()
            .unwrap_or_else(|e| panic!("{name}: lowered spec invalid: {e}"));
        assert!(
            !compiled.properties.is_empty(),
            "{name}: corpus files must state at least one property"
        );
        let engine = Engine::load_with_options(compiled.spec, options()).unwrap();
        for property in &compiled.properties {
            let report = engine
                .check(property)
                .unwrap_or_else(|e| panic!("{name}: {} failed: {e}", property.name));
            assert_ne!(
                report.outcome,
                VerificationOutcome::Inconclusive,
                "{name}: {} must reach a verdict within the corpus limits",
                property.name
            );
            // Reports stay serializable end to end.
            let parsed = VerificationReport::from_json(&report.to_json()).unwrap();
            assert_eq!(parsed, report);
        }
    }
}

/// The canonical formatter is stable over the whole corpus: formatting is
/// idempotent and the formatted text lowers to the same specification.
#[test]
fn corpus_formatting_is_idempotent_and_lowering_invariant() {
    for (name, source) in corpus() {
        let formatted =
            spec::format_source(&source).unwrap_or_else(|e| panic!("{}", e.render(&name)));
        let again = spec::format_source(&formatted).unwrap();
        assert_eq!(formatted, again, "{name}: formatting must be idempotent");
        let original = compile(&name, &source);
        let reformatted = compile(&name, &formatted);
        assert_eq!(original.spec, reformatted.spec, "{name}");
        assert_eq!(original.properties, reformatted.properties, "{name}");
    }
}

/// The batch path (`Engine::batch`, sharded scheduler, streaming
/// callback) produces the same results as one-at-a-time checks for a
/// compiled `.has` property set — the CLI's `batch` subcommand rides on
/// exactly this.
#[test]
fn compiled_property_sets_batch_like_they_check() {
    let (name, source) = corpus()
        .into_iter()
        .find(|(name, _)| name == "conference_review.has")
        .expect("corpus holds conference_review.has");
    let compiled = compile(&name, &source);
    let engine = Engine::load_with_options(compiled.spec, options()).unwrap();
    let mut streamed = 0usize;
    let mut on_result = |_: usize, _: &Result<VerificationReport, VerifasError>| streamed += 1;
    let batched = engine
        .batch()
        .batch_threads(2)
        .on_result(&mut on_result)
        .run(&compiled.properties);
    assert_eq!(streamed, compiled.properties.len());
    for (property, batched) in compiled.properties.iter().zip(&batched) {
        let single = engine.check(property).unwrap();
        let batched = batched.as_ref().unwrap();
        assert_eq!(
            comparable(&single),
            comparable(batched),
            "{}",
            property.name
        );
    }
}

/// The curated scenario files stay in the corpus and keep exercising
/// the surface they were written for: a three-level task hierarchy,
/// Table-4 template instantiations, and the `R` (release) operator.
#[test]
fn curated_scenarios_cover_depth_templates_and_release() {
    use verifas::spec::ast::{LtlExpr, PropertyBody};

    for name in [
        "insurance_claim.has",
        "procurement.has",
        "cicd_pipeline.has",
    ] {
        let source = std::fs::read_to_string(corpus_dir().join(name))
            .unwrap_or_else(|e| panic!("{name} must stay in the corpus: {e}"));
        let file = spec::parse(&source).unwrap_or_else(|e| panic!("{}", e.render(name)));

        // Depth ≥ 3: some task's parent is itself a child.
        let is_child = |task_name: &str| {
            file.tasks
                .iter()
                .any(|t| t.name.name == task_name && t.parent.is_some())
        };
        assert!(
            file.tasks
                .iter()
                .any(|t| t.parent.as_ref().is_some_and(|p| is_child(&p.name))),
            "{name}: must declare a grandchild task"
        );

        // At least one Table-4 template instantiation.
        assert!(
            file.properties
                .iter()
                .any(|p| matches!(p.body, PropertyBody::Template { .. })),
            "{name}: must instantiate a Table-4 template"
        );

        // At least one `R` (release) operator in a formula body.
        fn has_release(f: &LtlExpr) -> bool {
            match f {
                LtlExpr::Release(..) => true,
                LtlExpr::True(_) | LtlExpr::False(_) | LtlExpr::Atom(_) => false,
                LtlExpr::Not(inner, _)
                | LtlExpr::Next(inner, _)
                | LtlExpr::Globally(inner, _)
                | LtlExpr::Eventually(inner, _) => has_release(inner),
                LtlExpr::And(a, b)
                | LtlExpr::Or(a, b)
                | LtlExpr::Implies(a, b)
                | LtlExpr::Until(a, b) => has_release(a) || has_release(b),
            }
        }
        assert!(
            file.properties.iter().any(|p| match &p.body {
                PropertyBody::Formula(f) => has_release(f),
                PropertyBody::Template { .. } => false,
            }),
            "{name}: must use the R (release) operator"
        );
    }
}

/// Frontend errors surface as the typed `VerifasError::Spec` with the
/// offending line and column.
#[test]
fn frontend_errors_are_typed_and_spanned() {
    let err: VerifasError = spec::compile(
        "spec \"x\";\nschema { relation R(a: data); }\ntask T { vars { x: data } opening: x == null; }",
    )
    .unwrap_err()
    .into();
    match err {
        VerifasError::Spec { span, message } => {
            assert_eq!(span.line, 3);
            assert!(message.contains("root task"), "{message}");
        }
        other => panic!("expected a Spec error, got {other:?}"),
    }
}

/// Run the `verifas` binary from the repository root.
fn verifas(args: &[&str]) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_verifas"))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args(args)
        .output()
        .expect("the verifas binary runs")
}

/// Run `verifas`, expecting a usage error (exit 2); returns its stderr.
fn usage_error(args: &[&str]) -> String {
    let output = verifas(args);
    assert_eq!(output.status.code(), Some(2), "{args:?}");
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn check_rejects_an_unknown_incremental_mode() {
    let spec = "examples/specs/conference_review.has";
    // `check` reuses reports only through `--base`: it takes no mode.
    let stderr = usage_error(&["check", spec, "--incremental", "cold"]);
    assert!(
        stderr.contains("--incremental does not apply to `check`"),
        "{stderr}"
    );
    // An unknown mode fails while parsing, before `serve` binds a socket.
    let stderr = usage_error(&["serve", "--incremental", "replay"]);
    assert!(
        stderr.contains("`cold`") && stderr.contains("`preproc`"),
        "{stderr}"
    );
    // The batch scheduling policy is gone: the flag is unknown.
    let stderr = usage_error(&["batch", spec, "--schedule", "flat"]);
    assert!(stderr.contains("unknown option --schedule"), "{stderr}");
    // `--threads` is the batch's core budget; the override flag is gone.
    let stderr = usage_error(&["batch", spec, "--batch-threads", "2"]);
    assert!(
        stderr.contains("unknown option --batch-threads"),
        "{stderr}"
    );
    // A known flag of another command is rejected per command.
    let stderr = usage_error(&["check", spec, "--write"]);
    assert!(
        stderr.contains("--write does not apply to `check`"),
        "{stderr}"
    );
}

/// The `check --json` → `check --base` edit loop: an unchanged spec
/// reuses every definite report, an edit re-verifies exactly the
/// properties of the tasks it touched (matching a cold `check`), and a
/// missing or malformed snapshot is a usage error.
#[test]
fn check_base_reuses_exactly_the_reports_an_edit_leaves_valid() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("edit-loop");
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let check = |args: &[&str]| {
        let output = verifas(args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(0), "{args:?}: {stderr}");
        String::from_utf8(output.stdout).unwrap()
    };
    let reports = |file: &str| -> Vec<VerificationReport> {
        let doc = Json::parse(&std::fs::read_to_string(file).unwrap()).unwrap();
        doc.get("reports")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|report| VerificationReport::from_json(&report.to_string()).unwrap())
            .collect()
    };
    let spec = "examples/specs/cicd_pipeline.has";
    let base = path("base.json");
    check(&["check", spec, "--json", &base]);
    let doc = Json::parse(&std::fs::read_to_string(&base).unwrap()).unwrap();
    let decided = doc
        .get("incremental")
        .and_then(|snapshot| snapshot.get("reports"))
        .and_then(Json::as_array)
        .unwrap()
        .len();
    assert_eq!(decided, 4, "every pipeline property has a definite verdict");

    let stdout = check(&["check", spec, "--base", &base]);
    assert!(
        stdout.contains("incremental: reused 4 of 4 reports"),
        "{stdout}"
    );

    // Widening a root guard with a constant the spec already has leaves
    // the child tasks' slices unchanged: only the `Build` property keeps
    // its report.
    let source = std::fs::read_to_string(spec).unwrap();
    let edited_source = source.replacen(
        "pre: phase == \"Deployed\";",
        "pre: phase == \"Deployed\" || phase == \"Green\";",
        1,
    );
    assert_ne!(edited_source, source);
    let edited = path("edited.has");
    std::fs::write(&edited, edited_source).unwrap();
    let (warm, cold) = (path("warm.json"), path("cold.json"));
    let stdout = check(&["check", &edited, "--base", &base, "--json", &warm]);
    assert!(
        stdout.contains("incremental: reused 1 of 4 reports"),
        "{stdout}"
    );
    let reused: Vec<&str> = stdout
        .lines()
        .filter(|line| line.ends_with("[reused]"))
        .collect();
    assert_eq!(reused.len(), 1, "{stdout}");
    assert!(
        reused[0].trim_start().starts_with("tests-gate-promotion:"),
        "{stdout}"
    );
    check(&["check", &edited, "--json", &cold]);
    let (warm, cold) = (reports(&warm), reports(&cold));
    assert_eq!(warm.len(), cold.len());
    for (warm, cold) in warm.iter().zip(&cold) {
        assert_eq!(comparable(warm), comparable(cold), "{}", warm.property);
    }

    let garbled = path("garbled.json");
    std::fs::write(&garbled, "not json").unwrap();
    let foreign = path("foreign.json");
    std::fs::write(&foreign, "{\"spec\": \"cicd-pipeline\"}").unwrap();
    let missing = path("missing.json");
    let _ = std::fs::remove_file(&missing);
    for (snapshot, message) in [
        (&missing, "cannot read"),
        (&garbled, "invalid JSON"),
        (&foreign, "no \"incremental\" member"),
    ] {
        let stderr = usage_error(&["check", spec, "--base", snapshot]);
        assert!(stderr.contains(message), "{stderr}");
    }
}
