//! Behavioural tests of the session-oriented `Engine` API: report JSON
//! round-trips, observer event ordering, cancellation, deadlines, and
//! `check_all` building one preprocessing for a whole batch.

use std::sync::{Arc, Mutex};
use verifas::core::Json;
use verifas::prelude::*;
use verifas::workloads::{generate_properties, loan_approval, order_fulfillment};

fn limits() -> SearchLimits {
    SearchLimits {
        max_states: 20_000,
        max_millis: 10_000,
    }
}

fn engine_for(spec: HasSpec) -> Engine {
    let options = VerifierOptions {
        limits: limits(),
        ..VerifierOptions::default()
    };
    Engine::load_with_options(spec, options).unwrap()
}

/// Reports produced by real verification runs round-trip through JSON,
/// for satisfied, violated (with witness) and repeated-phase results alike.
#[test]
fn verification_reports_round_trip_through_json() {
    let spec = order_fulfillment();
    let engine = engine_for(spec.clone());
    let mut round_tripped = 0;
    for property in generate_properties(&spec, 2017).iter().take(6) {
        let report = engine.check(property).unwrap();
        let text = report.to_json();
        let parsed = VerificationReport::from_json(&text).unwrap();
        assert_eq!(
            parsed, report,
            "round trip changed the report for {}",
            property.name
        );
        assert_eq!(
            parsed.to_json(),
            text,
            "serialization is not stable for {}",
            property.name
        );
        round_tripped += 1;
    }
    assert!(round_tripped > 0);
}

/// The witness of a violated property survives serialization with its
/// structured steps intact.
#[test]
fn witness_steps_survive_json() {
    let spec = loan_approval();
    let review = spec.task_by_name("Review").unwrap().0;
    let property = LtlFoProperty::new(
        "review-never-rejects",
        review,
        vec![],
        Ltl::globally(Ltl::not(Ltl::prop(0))),
        vec![PropAtom::Condition(Condition::eq(
            Term::var(VarId::new(3)),
            Term::str("Rejected"),
        ))],
    );
    let engine = engine_for(spec);
    let report = engine.check(&property).unwrap();
    assert_eq!(report.outcome, VerificationOutcome::Violated);
    let parsed = VerificationReport::from_json(&report.to_json()).unwrap();
    let original = report.witness.unwrap();
    let recovered = parsed.witness.unwrap();
    assert_eq!(original.steps, recovered.steps);
    assert!(!recovered.steps.is_empty());
    assert_eq!(original.finite, recovered.finite);
}

/// Progress events arrive in order: each phase starts before its progress
/// events, `states_created` never decreases within a phase, and every
/// started phase finishes.
#[test]
fn observer_events_are_monotone() {
    let spec = order_fulfillment();
    let engine = engine_for(spec.clone());
    // Pick a property whose search is big enough to emit several events.
    let property = order_fulfillment_property_with_big_search(&spec);
    let events: Arc<Mutex<Vec<ProgressEvent>>> = Arc::default();
    let sink = Arc::clone(&events);
    let mut observer = move |event: &ProgressEvent| sink.lock().unwrap().push(*event);
    let report = engine
        .verification()
        .property(&property)
        .observer(&mut observer)
        .progress_every(16)
        .run()
        .unwrap();
    let events = events.lock().unwrap();
    assert!(!events.is_empty(), "no events were observed");
    let mut started = Vec::new();
    let mut finished = Vec::new();
    let mut last_created: Option<(Phase, usize)> = None;
    for event in events.iter() {
        match *event {
            ProgressEvent::PhaseStarted { phase } => {
                started.push(phase);
                last_created = None;
            }
            ProgressEvent::Progress {
                phase,
                states_created,
                ..
            } => {
                assert_eq!(
                    started.last(),
                    Some(&phase),
                    "progress for a phase that has not started"
                );
                if let Some((last_phase, last)) = last_created {
                    if last_phase == phase {
                        assert!(
                            states_created >= last,
                            "states_created went backwards: {last} -> {states_created}"
                        );
                    }
                }
                last_created = Some((phase, states_created));
            }
            ProgressEvent::PhaseFinished { phase, stats } => {
                assert_eq!(started.last(), Some(&phase), "finish without start");
                assert!(stats.states_created > 0);
                finished.push(phase);
            }
            ProgressEvent::CycleProgress { phase, .. } => {
                // Cycle-detection progress follows the repeated phase's own
                // search (it runs over the finished search's active set).
                assert_eq!(phase, Phase::RepeatedReachability);
                assert!(
                    started.contains(&Phase::RepeatedReachability),
                    "cycle progress before the repeated phase started"
                );
            }
        }
    }
    assert_eq!(started, finished, "every started phase must finish");
    assert!(
        events
            .iter()
            .any(|e| matches!(e, ProgressEvent::Progress { .. })),
        "the search was big enough for progress events"
    );
    assert_ne!(report.outcome, VerificationOutcome::Inconclusive);
}

/// Cancelling from inside the observer stops the search: the report is
/// Inconclusive, flagged cancelled, and far smaller than the full run.
#[test]
fn cancellation_stops_the_search() {
    let spec = order_fulfillment();
    let engine = engine_for(spec.clone());
    let property = order_fulfillment_property_with_big_search(&spec);
    let full = engine.check(&property).unwrap();
    assert!(full.stats.states_created > 100, "need a sizeable search");

    let token = CancelToken::new();
    let trigger = token.clone();
    let mut observer = move |event: &ProgressEvent| {
        if matches!(event, ProgressEvent::Progress { .. }) {
            trigger.cancel();
        }
    };
    let report = engine
        .verification()
        .property(&property)
        .observer(&mut observer)
        .progress_every(16)
        .cancel_token(token)
        .run()
        .unwrap();
    assert_eq!(report.outcome, VerificationOutcome::Inconclusive);
    assert!(report.cancelled);
    assert!(report.stats.cancelled);
    assert!(
        report.stats.states_created < full.stats.states_created,
        "cancellation did not stop early ({} vs {})",
        report.stats.states_created,
        full.stats.states_created
    );
}

/// An already-expired deadline stops the run before any state expansion.
#[test]
fn expired_deadlines_stop_immediately() {
    let spec = order_fulfillment();
    let engine = engine_for(spec.clone());
    let property = order_fulfillment_property_with_big_search(&spec);
    let report = engine
        .verification()
        .property(&property)
        .deadline(std::time::Duration::ZERO)
        .run()
        .unwrap();
    assert_eq!(report.outcome, VerificationOutcome::Inconclusive);
    assert!(report.cancelled);
}

/// Batched multi-property verification over one workload spec must (a)
/// produce byte-identical verdicts to one-by-one `check` calls and (b)
/// construct the expression universe and the spec-side static-analysis
/// constraint graph exactly once, counted by the engine itself.
#[test]
fn check_all_shares_preprocessing_and_matches_sequential_checks() {
    let spec = order_fulfillment();
    // All twelve benchmark properties verify the root task with no global
    // variables and draw their constants from the spec's own conditions,
    // so one preprocessing must serve the whole batch.
    let properties: Vec<LtlFoProperty> = generate_properties(&spec, 2017)
        .into_iter()
        .take(4)
        .collect();
    assert!(properties.len() >= 3);

    let engine = engine_for(spec.clone());
    let batched = engine.check_all(&properties);
    assert_eq!(
        engine.cache_stats().preprocessing_builds,
        1,
        "check_all must build the expression universe exactly once"
    );
    assert_eq!(
        engine.cache_stats().spec_graph_builds,
        1,
        "check_all must build the spec-side constraint graph exactly once"
    );

    // Sequential one-by-one checks on a fresh engine.
    let sequential_engine = engine_for(spec);
    for (property, batched) in properties.iter().zip(&batched) {
        let batched = batched.as_ref().unwrap();
        let sequential = sequential_engine.check(property).unwrap();
        // Byte-identical verdicts: outcome and witness serialize to the
        // same JSON (stats carry wall-clock times and are compared
        // structurally instead).
        let verdict_json = |report: &VerificationReport| {
            let doc = Json::parse(&report.to_json()).unwrap();
            Json::Obj(vec![
                ("outcome".to_owned(), doc.get("outcome").unwrap().clone()),
                ("witness".to_owned(), doc.get("witness").unwrap().clone()),
            ])
            .to_string()
        };
        assert_eq!(
            verdict_json(batched),
            verdict_json(&sequential),
            "batched and sequential verdicts differ on {}",
            property.name
        );
        assert_eq!(batched.outcome, sequential.outcome);
        assert_eq!(batched.witness, sequential.witness);
        assert_eq!(
            batched.stats.states_created, sequential.stats.states_created,
            "the searches themselves must be identical for {}",
            property.name
        );
    }
}

/// A benchmark property of the order-fulfillment workflow whose search
/// expands enough states to emit several progress events at granularity 16.
fn order_fulfillment_property_with_big_search(spec: &HasSpec) -> LtlFoProperty {
    let engine = engine_for(spec.clone());
    generate_properties(spec, 2017)
        .into_iter()
        .find(|p| {
            engine
                .check(p)
                .map(|r| r.stats.states_created > 200)
                .unwrap_or(false)
        })
        .expect("some benchmark property has a sizeable search")
}
