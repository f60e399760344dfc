//! A served resubmission builds no new preprocessing: re-submitting a
//! spec (reformatted, so the text differs) lands on the cached session,
//! and the expression-universe and constraint-graph build counts of
//! `verifas::core::counters` stay flat while its batch runs.
//!
//! This file deliberately contains a single `#[test]`: the construction
//! counters are process-wide, and integration-test binaries each run in
//! their own process, so nothing else can increment them concurrently.

use std::path::Path;
use std::sync::Mutex;
use verifas::core::{counters, Json};
use verifas::serve::{Gateway, PriorityClass, ServeConfig, VerifyRequest};

/// Submit `spec` synchronously; returns the `session` member of the
/// first (`admitted`) frame and the number of `report` frames.
fn submit(gateway: &Gateway, spec: &str) -> (String, usize) {
    let request = VerifyRequest {
        spec: spec.to_owned(),
        class: PriorityClass::Interactive,
        properties: None,
        deadline_ms: None,
        max_states: None,
        max_millis: None,
    };
    let frames = Mutex::new(Vec::new());
    let sink = |line: &str| frames.lock().unwrap().push(Json::parse(line).unwrap());
    gateway
        .submit(&request, &sink)
        .expect("request should be served");
    let frames = frames.into_inner().unwrap();
    let session = frames[0].get("session").and_then(Json::as_str).unwrap();
    let reports = frames
        .iter()
        .filter(|frame| frame.get("frame").and_then(Json::as_str) == Some("report"))
        .count();
    (session.to_owned(), reports)
}

#[test]
fn a_resubmitted_spec_builds_no_new_preprocessing() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/specs/conference_review.has");
    let source = std::fs::read_to_string(path).expect("example spec exists");
    let gateway = Gateway::new(ServeConfig {
        cores: 2,
        sessions: 4,
        ..ServeConfig::default()
    });
    let (session, reports) = submit(&gateway, &source);
    assert_eq!(session, "miss");
    assert!(reports > 0);

    let universe_before = counters::universe_builds();
    let graph_before = counters::spec_graph_builds();
    let reformatted = format!("// resubmission with different formatting\n{source}\n\n");
    assert_eq!(
        submit(&gateway, &reformatted),
        ("hit".to_owned(), reports),
        "format-equivalent spec must share the session"
    );
    assert_eq!(
        (counters::universe_builds(), counters::spec_graph_builds()),
        (universe_before, graph_before),
        "a cached session must serve the batch with zero new preprocessing"
    );
}
