//! Determinism and fault isolation of the sharded batch scheduler.
//!
//! `Engine::check_all` now routes through `verifas::core::schedule`: a
//! core budget is split between batch width and per-search depth, and
//! cores freed by finished properties are reassigned to still-running
//! searches at round boundaries.  None of that may change any result:
//! every property's verdict, witness and search-tree statistics must be
//! bit-identical for every batch width, for every seed — and identical to
//! an independent sequential `Engine::check` of the same property.  The
//! suite also pins the batch-level failure modes: a cancellation fired
//! mid-batch stops every search, and an invalid property reports its own
//! typed error without disturbing the rest of the batch.
//!
//! Runs are bounded by `max_states` (deterministic) rather than wall
//! clock, so scheduling can never change where a limited run stops.

use verifas::prelude::*;
use verifas::workloads::{
    cycle_grid, cycle_grid_liveness, generate, generate_properties, real_workflows,
    skewed_batch_properties, skewed_grid, SyntheticParams,
};

const SEEDS: std::ops::Range<u64> = 0..4;
const BATCH_WIDTHS: [usize; 3] = [1, 2, 4];

fn limits() -> SearchLimits {
    SearchLimits {
        max_states: 150,
        max_millis: 600_000,
    }
}

fn engine_for(spec: &HasSpec) -> Engine {
    Engine::load_with_options(
        spec.clone(),
        VerifierOptions {
            limits: limits(),
            ..VerifierOptions::default()
        },
    )
    .expect("workload specs are valid")
}

/// A report's scheduling-independent core: verdict, witness, search stats
/// and repeated-reachability stats (search + cycle detection), with the
/// timing and configuration-echo fields zeroed.  The `schedule` block and
/// the per-worker stats are deliberately absent — they describe how the
/// machine was shared, which is exactly what may differ.
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

/// Every batch width must reproduce the independent sequential `check` of
/// each property bit for bit.
fn assert_schedule_invariant(engine: &Engine, properties: &[LtlFoProperty], context: &str) {
    let baseline: Vec<_> = properties
        .iter()
        .map(|p| comparable(&engine.check(p).expect("sequential check succeeds")))
        .collect();
    for batch_threads in BATCH_WIDTHS {
        let reports = engine.check_all_with(properties, BatchOptions { batch_threads });
        assert_eq!(reports.len(), properties.len());
        for (i, report) in reports.iter().enumerate() {
            let report = report.as_ref().unwrap_or_else(|e| {
                panic!("{context}: property {i} failed with batch_threads={batch_threads}: {e}")
            });
            assert_eq!(
                comparable(report),
                baseline[i],
                "{context}: property {i} ({}) diverged with batch_threads={batch_threads}",
                properties[i].name
            );
            let stats = report
                .schedule
                .as_ref()
                .expect("batch runs carry a schedule block");
            assert_eq!(stats.property_index, i);
            assert_eq!(stats.batch_threads, batch_threads);
            assert!(!stats.occupancy.is_empty());
            assert!(stats
                .occupancy
                .iter()
                .all(|s| { s.threads >= 1 && s.threads <= batch_threads }));
        }
    }
}

#[test]
fn synthetic_batches_are_schedule_invariant() {
    for seed in SEEDS {
        let Some(spec) = generate(SyntheticParams::small(), seed) else {
            continue;
        };
        let engine = engine_for(&spec);
        let properties: Vec<_> = generate_properties(&spec, seed)
            .into_iter()
            .take(4)
            .collect();
        assert_schedule_invariant(
            &engine,
            &properties,
            &format!("{} (seed {seed})", spec.name),
        );
    }
}

#[test]
fn real_workload_batches_are_schedule_invariant() {
    let spec = real_workflows()
        .into_iter()
        .next()
        .expect("at least one real workload");
    let engine = engine_for(&spec);
    for seed in SEEDS {
        let properties: Vec<_> = generate_properties(&spec, seed)
            .into_iter()
            .skip(seed as usize)
            .take(3)
            .collect();
        assert_schedule_invariant(
            &engine,
            &properties,
            &format!("{} (seed {seed})", spec.name),
        );
    }
}

/// A skewed batch (one heavy exhaustive search + trivially violated light
/// properties) is the shape the sharded scheduler exists for; it must
/// stay schedule-invariant, and the straggler's occupancy timeline must
/// show the freed cores arriving (budget growth past the initial width
/// share).
#[test]
fn skewed_batches_are_schedule_invariant_and_reassign_cores() {
    let spec = cycle_grid(5);
    let engine = Engine::load_with_options(
        spec.clone(),
        VerifierOptions {
            limits: SearchLimits {
                max_states: 10_000,
                max_millis: 600_000,
            },
            ..VerifierOptions::default()
        },
    )
    .unwrap();
    let mut properties = vec![cycle_grid_liveness(&spec)];
    for i in 0..3 {
        properties.push(LtlFoProperty::new(
            format!("hits-v0_{i}"),
            spec.root(),
            vec![],
            Ltl::globally(Ltl::not(Ltl::prop(0))),
            vec![PropAtom::Condition(Condition::eq(
                Term::var(VarId::new(0)),
                Term::str(format!("v0_{i}")),
            ))],
        ));
    }
    assert_schedule_invariant(&engine, &properties, "cycle-grid skewed batch");
    // A singleton batch with an explicit budget: the lone search
    // must run under the whole budget (deterministic even on a 1-core
    // host — the budget is the knob, not the hardware).
    let report = engine
        .check_all_with(&properties[..1], BatchOptions { batch_threads: 4 })
        .remove(0)
        .unwrap();
    assert_eq!(report.stats.threads, 4, "the straggler gets all cores");
    let schedule = report.schedule.unwrap();
    assert_eq!(schedule.occupancy.last().unwrap().threads, 4);
}

/// The post-drain straggler split (the scheduler splits the budget evenly
/// over the searches still running, and the last one inherits it all) on
/// the batch shape it exists for: `skewed_grid`'s one heavy root search
/// plus many trivial `Chore` properties.  Budgets are advisory scheduling
/// input only, so every result must stay bit-identical for every batch
/// width and to independent sequential checks — and the straggler's
/// occupancy timeline ends with the whole core budget and never dips
/// below one thread.
#[test]
fn skewed_grid_straggler_split_is_schedule_invariant() {
    let spec = skewed_grid(4);
    let engine = Engine::load_with_options(
        spec.clone(),
        VerifierOptions {
            limits: SearchLimits {
                max_states: 4_000,
                max_millis: 600_000,
            },
            ..VerifierOptions::default()
        },
    )
    .unwrap();
    let properties = skewed_batch_properties(&spec, 4);
    assert_schedule_invariant(&engine, &properties, "skewed-grid straggler batch");
    // Under an explicit budget the heavy search (property 0, the only
    // exhaustive one) must end up owning every core once the lights are
    // done: freed cores never stop arriving.
    //
    // The straggler claim is only meaningful if the heavy search outlives
    // the lights, and OS scheduling does not guarantee that on a busy
    // single-core host: the worker thread that claimed the heavy job can
    // run it to completion before the light workers ever get a slice, so
    // the queue never drains while the heavy runs and width-first leaves
    // its budget at the floor of one.  Hold the heavy search at its first
    // progress event until every light result has landed — budgets and
    // timing are advisory scheduling input only (they change when answers
    // arrive, never what they are), so the gate cannot change any report,
    // but it makes the requested 4-core budget arrive deterministically
    // regardless of host cores.
    let lights = properties.len() - 1;
    let lights_done = (std::sync::Mutex::new(0usize), std::sync::Condvar::new());
    let on_event = |index: usize, _: &ProgressEvent| {
        if index == 0 {
            let (count, cond) = &lights_done;
            let mut done = count.lock().unwrap();
            while *done < lights {
                let (next, timeout) = cond
                    .wait_timeout(done, std::time::Duration::from_secs(60))
                    .unwrap();
                done = next;
                if timeout.timed_out() {
                    // Let the assertions below report what went wrong
                    // instead of hanging the suite.
                    break;
                }
            }
        }
    };
    let mut on_result = |index: usize, _: &Result<VerificationReport, VerifasError>| {
        if index != 0 {
            let (count, cond) = &lights_done;
            *count.lock().unwrap() += 1;
            cond.notify_all();
        }
    };
    let reports = engine
        .batch()
        .batch_threads(4)
        .on_event(&on_event)
        .on_result(&mut on_result)
        .run(&properties);
    let heavy = reports[0].as_ref().unwrap();
    let schedule = heavy.schedule.as_ref().unwrap();
    let occupancy = &schedule.occupancy;
    assert!(!occupancy.is_empty());
    assert_eq!(
        occupancy.last().unwrap().threads,
        4,
        "the straggler must inherit the whole budget"
    );
    assert!(occupancy.iter().all(|s| s.threads >= 1 && s.threads <= 4));
    assert_eq!(heavy.stats.threads, 4, "the widest pool is recorded");
}

/// Cancelling the batch token mid-batch stops every search: properties
/// that were still queued or running report `cancelled`, while results
/// that completed before the cancellation are untouched.
#[test]
fn mid_batch_cancellation_stops_all_searches() {
    let spec = cycle_grid(6);
    let engine = Engine::load_with_options(
        spec.clone(),
        VerifierOptions {
            limits: SearchLimits {
                max_states: 1_000_000,
                max_millis: 600_000,
            },
            ..VerifierOptions::default()
        },
    )
    .unwrap();
    // Property 0 is violated after a couple of steps; the rest exhaust
    // the grid and run its repeated-reachability pass.
    let quick = LtlFoProperty::new(
        "quick-violation",
        spec.root(),
        vec![],
        Ltl::globally(Ltl::not(Ltl::prop(0))),
        vec![PropAtom::Condition(Condition::eq(
            Term::var(VarId::new(0)),
            Term::str("v0_1"),
        ))],
    );
    let properties = vec![
        quick,
        cycle_grid_liveness(&spec),
        cycle_grid_liveness(&spec),
        cycle_grid_liveness(&spec),
    ];
    let token = CancelToken::new();
    let trigger = token.clone();
    // Fire the cancellation from the batch's own result stream, as a
    // verification service would: the moment the first property lands.
    let mut on_result = move |index: usize, _: &Result<VerificationReport, VerifasError>| {
        if index == 0 {
            trigger.cancel();
        }
    };
    // batch_threads = 1 makes the order deterministic: property 0 runs
    // (and cancels the batch) before any other search starts.
    let reports = engine
        .batch()
        .batch_threads(1)
        .cancel_token(token)
        .on_result(&mut on_result)
        .run(&properties);
    let first = reports[0].as_ref().unwrap();
    assert_eq!(first.outcome, VerificationOutcome::Violated);
    assert!(!first.cancelled, "property 0 finished before the cancel");
    for (i, report) in reports.iter().enumerate().skip(1) {
        let report = report.as_ref().unwrap();
        assert!(
            report.cancelled,
            "property {i} must report the cancellation"
        );
        assert_eq!(report.outcome, VerificationOutcome::Inconclusive);
        assert!(
            report.stats.states_created < 1_000_000,
            "property {i} must stop long before its state budget"
        );
    }
}

/// One invalid property reports its own typed error; every other property
/// of the batch is verified normally.
#[test]
fn an_invalid_property_leaves_the_rest_of_the_batch_unaffected() {
    let spec = real_workflows()
        .into_iter()
        .next()
        .expect("at least one real workload");
    let engine = engine_for(&spec);
    let valid: Vec<_> = generate_properties(&spec, 0).into_iter().take(2).collect();
    // Proposition 7 has no interpretation: validation fails.
    let invalid = LtlFoProperty::new(
        "invalid",
        spec.root(),
        vec![],
        Ltl::globally(Ltl::prop(7)),
        vec![],
    );
    let properties = vec![valid[0].clone(), invalid, valid[1].clone()];
    let expected_first = comparable(&engine.check(&valid[0]).unwrap());
    let expected_last = comparable(&engine.check(&valid[1]).unwrap());
    let reports = engine.check_all_with(&properties, BatchOptions { batch_threads: 2 });
    assert!(
        matches!(reports[1], Err(VerifasError::Model(_))),
        "the invalid property must report a typed model error, got {:?}",
        reports[1]
    );
    assert_eq!(comparable(reports[0].as_ref().unwrap()), expected_first);
    assert_eq!(comparable(reports[2].as_ref().unwrap()), expected_last);
}

/// A panicking `on_result` callback is contained: every property's report
/// is still returned (the callback is observability only — losing a
/// finished verification to a logging bug would be absurd).
#[test]
fn a_panicking_on_result_callback_does_not_discard_reports() {
    let Some(spec) = generate(SyntheticParams::small(), 1) else {
        return;
    };
    let engine = engine_for(&spec);
    let properties: Vec<_> = generate_properties(&spec, 1).into_iter().take(3).collect();
    let mut on_result = |index: usize, _: &Result<VerificationReport, VerifasError>| {
        if index == 0 {
            panic!("observer bug");
        }
    };
    let reports = engine
        .batch()
        .batch_threads(1)
        .on_result(&mut on_result)
        .run(&properties);
    for (i, report) in reports.iter().enumerate() {
        assert!(report.is_ok(), "property {i} lost to a callback panic");
    }
}

/// The schedule block round-trips through the report's JSON serialization
/// (schema v4).
#[test]
fn batch_reports_serialize_their_schedule_block() {
    let Some(spec) = generate(SyntheticParams::small(), 0) else {
        return;
    };
    let engine = engine_for(&spec);
    let properties: Vec<_> = generate_properties(&spec, 0).into_iter().take(2).collect();
    let reports = engine.check_all(&properties);
    for report in reports {
        let report = report.unwrap();
        assert!(report.schedule.is_some());
        let parsed = VerificationReport::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed, report);
    }
}
