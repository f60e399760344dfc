//! `ci_bench` — the quick-mode benchmark CI runs on every push.
//!
//! Measures single-run states/sec of the Karp–Miller search, sequential
//! versus N worker threads, on a fixed set of workload scenarios, and
//! writes the results as `BENCH_parallel_search.json` so the perf
//! trajectory of the repository is recorded per commit.  Three gates:
//!
//! 1. **Correctness** — the verdict and witness of every scenario must be
//!    identical across thread counts (the parallel search is
//!    deterministic by design; a divergence is a bug, not noise).
//! 2. **Regression** — with `--baseline <path>`, states/sec may not drop
//!    more than 30% below the committed baseline for any scenario.
//! 3. **Speedup** — with `--min-speedup <x>`, the best parallel speedup
//!    across scenarios must reach `x`.  This gate is enforced only when
//!    the host actually has at least `--threads` cores (a single-core
//!    runner cannot exhibit parallel speedup and reports it
//!    informationally instead).
//!
//! A fourth gate covers the repeated-reachability post-pass: the
//! cycle-heavy `cycle_grid` scenario runs to exhaustion and the filtered,
//! single-pass SCC cycle detection is timed against the retained
//! O(active²) reference implementation (`--min-repeated-speedup`), with
//! the parallel edge construction additionally gated on multi-core hosts
//! (`--min-repeated-parallel-speedup`, self-disabling like gate 3).
//!
//! A fifth gate covers the sharded batch scheduler: the skewed
//! one-heavy-plus-many-light batch of `skewed_grid` is run end to end
//! through `Engine::check_all_with` under the flat pool and under the
//! sharded scheduler (`--min-batch-speedup`, enforced only on hosts with
//! at least `--threads` cores, like gate 3 — a flat pool leaves the heavy
//! straggler on one core, the sharded scheduler hands it the whole
//! budget once the light properties drain).  Per-property verdicts,
//! witnesses and search sizes must be identical across both policies and
//! a sequential reference.
//!
//! A sixth gate covers incremental re-verification (`Engine::load_delta`,
//! see `crates/core/src/delta.rs`): one edit-loop iteration on the
//! `cycle_grid` liveness check, cold (fresh engine, full search) versus
//! warm (delta-loaded from a prior session — the unchanged slice carries
//! its preprocessing and finished report across, so the re-check answers
//! from the carried report).  `--min-incremental-speedup` gates the
//! cold/warm ratio, and the warm verdict must be bit-identical to the
//! cold one.
//!
//! A seventh gate covers the state layout's candidate discovery: the
//! million-state open/close lattice is searched single-threaded with
//! data-structure support (discrete-key candidate groups) and without it
//! (full linear coverage scans, the no-DSS ablation), and the states/sec
//! ratio is gated with `--min-layout-speedup`.  The two arms are
//! additionally cross-checked bit for bit at the reference arm's state
//! budget, and the grouped arm's peak memory estimate is recorded
//! alongside.
//!
//! Usage:
//!
//! ```text
//! ci_bench [--quick] [--threads N] [--seed N] [--out PATH]
//!          [--baseline PATH] [--update-baseline] [--min-speedup X]
//!          [--min-repeated-speedup X] [--min-repeated-parallel-speedup X]
//!          [--min-batch-speedup X] [--min-incremental-speedup X]
//!          [--min-layout-speedup X]
//! ```

use std::time::Instant;
use verifas_core::static_analysis::ConstraintGraph;
use verifas_core::{
    find_infinite_violation_reference, find_infinite_violation_with, BatchOptions, CoverageKind,
    Engine as VerifasEngine, Json, KarpMillerSearch, ProductSystem, RepeatedOutcome, ReuseMode,
    SchedulePolicy, SearchControl, SearchLimits, VerificationOutcome, VerificationReport,
    VerifierOptions,
};
use verifas_ltl::LtlFoProperty;
use verifas_model::HasSpec;
use verifas_workloads::{
    cycle_grid, cycle_grid_liveness, cycle_torus, generate, generate_properties,
    lattice_false_property, open_close_lattice, real_workflows, skewed_batch_properties,
    skewed_grid, SyntheticParams,
};

struct Args {
    quick: bool,
    threads: usize,
    seed: u64,
    out: String,
    baseline: Option<String>,
    update_baseline: bool,
    min_speedup: Option<f64>,
    min_repeated_speedup: Option<f64>,
    min_repeated_parallel_speedup: Option<f64>,
    min_batch_speedup: Option<f64>,
    min_incremental_speedup: Option<f64>,
    min_layout_speedup: Option<f64>,
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        threads: 4,
        seed: 2017,
        out: "BENCH_parallel_search.json".to_owned(),
        baseline: None,
        update_baseline: false,
        min_speedup: None,
        min_repeated_speedup: None,
        min_repeated_parallel_speedup: None,
        min_batch_speedup: None,
        min_incremental_speedup: None,
        min_layout_speedup: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {name}"))
        };
        match flag.as_str() {
            "--quick" => args.quick = true,
            "--threads" => args.threads = value("--threads").parse().expect("--threads"),
            "--seed" => args.seed = value("--seed").parse().expect("--seed"),
            "--out" => args.out = value("--out"),
            "--baseline" => args.baseline = Some(value("--baseline")),
            "--update-baseline" => args.update_baseline = true,
            "--min-speedup" => {
                args.min_speedup = Some(value("--min-speedup").parse().expect("--min-speedup"))
            }
            "--min-repeated-speedup" => {
                args.min_repeated_speedup = Some(
                    value("--min-repeated-speedup")
                        .parse()
                        .expect("--min-repeated-speedup"),
                )
            }
            "--min-repeated-parallel-speedup" => {
                args.min_repeated_parallel_speedup = Some(
                    value("--min-repeated-parallel-speedup")
                        .parse()
                        .expect("--min-repeated-parallel-speedup"),
                )
            }
            "--min-batch-speedup" => {
                args.min_batch_speedup = Some(
                    value("--min-batch-speedup")
                        .parse()
                        .expect("--min-batch-speedup"),
                )
            }
            "--min-incremental-speedup" => {
                args.min_incremental_speedup = Some(
                    value("--min-incremental-speedup")
                        .parse()
                        .expect("--min-incremental-speedup"),
                )
            }
            "--min-layout-speedup" => {
                args.min_layout_speedup = Some(
                    value("--min-layout-speedup")
                        .parse()
                        .expect("--min-layout-speedup"),
                )
            }
            other => panic!("unknown flag {other:?} (see ci_bench source for usage)"),
        }
    }
    args
}

struct Scenario {
    name: String,
    spec: HasSpec,
    property: LtlFoProperty,
}

/// The benchmark scenarios: for each chosen workload, the generated
/// property with the largest sequential search (probed under a small
/// budget), so the measurement exercises the search loop rather than the
/// setup path.
fn scenarios(args: &Args) -> Vec<Scenario> {
    let mut specs: Vec<HasSpec> = real_workflows().into_iter().take(3).collect();
    let synthetic_count = if args.quick { 1 } else { 2 };
    for offset in 0..synthetic_count {
        if let Some(spec) = generate(SyntheticParams::small(), args.seed + offset) {
            specs.push(spec);
        }
    }
    // The probe only needs search *size and speed*, so it runs cheap:
    // small state budget, no repeated-reachability phase.  Workloads whose
    // probe explores fewer than 64 states, or at under 1000 states/sec,
    // are skipped — the benchmark measures the search loop, and a scenario
    // that cannot reach its state budget in seconds would make the smoke
    // job crawl.
    let probe_limits = SearchLimits {
        max_states: 600,
        max_millis: 3_000,
    };
    let mut out = Vec::new();
    for spec in specs {
        let engine = VerifasEngine::load_with_options(
            spec.clone(),
            VerifierOptions {
                check_repeated: false,
                limits: probe_limits,
                ..VerifierOptions::default()
            },
        )
        .expect("workload specs are valid");
        let mut best: Option<(usize, LtlFoProperty)> = None;
        for property in generate_properties(&spec, args.seed) {
            let start = Instant::now();
            let Ok(report) = engine.check(&property) else {
                continue;
            };
            let states = report.stats.states_created;
            let per_sec = states as f64 / start.elapsed().as_secs_f64().max(1e-9);
            if per_sec < 1_000.0 {
                continue;
            }
            if best.as_ref().is_none_or(|(b, _)| states > *b) {
                best = Some((states, property));
            }
            // A probe that fills the budget is as big as we can tell
            // apart; stop probing this spec.
            if best
                .as_ref()
                .is_some_and(|(b, _)| *b >= probe_limits.max_states)
            {
                break;
            }
        }
        if let Some((states, property)) = best {
            if states >= 64 {
                out.push(Scenario {
                    name: format!("{}/{}", spec.name, property.name),
                    spec,
                    property,
                });
            }
        }
    }
    out
}

struct Measurement {
    report: VerificationReport,
    millis: f64,
    states: usize,
}

fn measure(scenario: &Scenario, threads: usize, args: &Args) -> Measurement {
    let limits = SearchLimits {
        max_states: if args.quick { 3_000 } else { 12_000 },
        // Wall-clock limits would make the stop point scheduling
        // dependent; the state budget is the only limiter.
        max_millis: 600_000,
    };
    // `check_repeated: false` keeps the measurement on the Karp–Miller
    // search itself (the repeated-reachability cycle detection is a
    // separate, still-sequential post-pass; see ROADMAP).
    let engine = VerifasEngine::load_with_options(
        scenario.spec.clone(),
        VerifierOptions {
            search_threads: threads,
            check_repeated: false,
            limits,
            ..VerifierOptions::default()
        },
    )
    .expect("workload specs are valid");
    let samples = if args.quick { 1 } else { 3 };
    let mut best: Option<Measurement> = None;
    // One warm-up plus `samples` timed runs; keep the fastest (criterion
    // quick-mode style: the minimum is the least noisy location estimate
    // for a deterministic workload).
    for sample in 0..=samples {
        let start = Instant::now();
        let report = engine.check(&scenario.property).expect("scenario verifies");
        let millis = start.elapsed().as_secs_f64() * 1_000.0;
        if sample == 0 {
            continue;
        }
        let states =
            report.stats.states_created + report.repeated_stats.map_or(0, |s| s.states_created);
        if best.as_ref().is_none_or(|b| millis < b.millis) {
            best = Some(Measurement {
                report,
                millis,
                states,
            });
        }
    }
    best.expect("at least one timed sample")
}

struct Row {
    name: String,
    verdict: &'static str,
    states: usize,
    seq_millis: f64,
    par_millis: f64,
    seq_states_per_sec: f64,
    par_states_per_sec: f64,
    speedup: f64,
    /// Fraction of the sequential run spent in the (parallelisable) plan
    /// phase — an upper-bound predictor of multi-core speedup.
    plan_fraction: f64,
}

/// The repeated-reachability post-pass measurement: a cycle-heavy
/// scenario run to exhaustion, timed through the retained O(active²)
/// reference implementation, the filtered single-pass SCC implementation
/// (sequential) and the same with parallel edge construction.  Post-pass
/// times are tracked in microseconds — at quick-mode scale the new pass
/// is sub-millisecond and coarser units would quantize the gate ratios
/// to noise.
struct RepeatedRow {
    name: String,
    verdict: &'static str,
    active: usize,
    edges: usize,
    sccs: usize,
    candidate_hit_rate: f64,
    /// End-to-end times (auxiliary search + post-pass) per arm.
    reference_millis: f64,
    seq_millis: f64,
    par_millis: f64,
    /// Post-pass (cycle detection) times per arm: for the reference, the
    /// end-to-end time minus the same sample's search time; for the new
    /// implementation, the edge-construction plus SCC time it reports.
    reference_postpass_micros: f64,
    seq_postpass_micros: f64,
    par_postpass_micros: f64,
    /// Post-pass time ratio: reference / sequential single-pass.
    speedup_vs_reference: f64,
    /// Post-pass time ratio: sequential / parallel edge construction.
    parallel_speedup: f64,
    /// Edge-construction throughput of the sequential single-pass arm
    /// (the quantity the baseline regression gate compares).
    edges_per_sec: f64,
}

/// One timed arm: best-of-N end-to-end and post-pass times — both taken
/// from the *same* best-end-to-end sample, so a ratio never mixes the
/// wall clock of one run with the phase split of another — plus that
/// sample's outcome for the determinism checks.
struct RepeatedArm {
    total_millis: f64,
    postpass_micros: f64,
    outcome: RepeatedOutcome,
}

/// Time one analysis arm (one warm-up, then `samples` timed runs, keep
/// the fastest).  `postpass` extracts the post-pass time in microseconds
/// from a finished run and its wall-clock milliseconds.
fn time_repeated(
    samples: usize,
    mut run: impl FnMut() -> RepeatedOutcome,
    postpass: impl Fn(&RepeatedOutcome, f64) -> f64,
) -> RepeatedArm {
    let mut best: Option<RepeatedArm> = None;
    for sample in 0..=samples {
        let start = Instant::now();
        let outcome = run();
        let total_millis = start.elapsed().as_secs_f64() * 1_000.0;
        if sample == 0 {
            continue;
        }
        if best.as_ref().is_none_or(|b| total_millis < b.total_millis) {
            best = Some(RepeatedArm {
                total_millis,
                postpass_micros: postpass(&outcome, total_millis),
                outcome,
            });
        }
    }
    best.expect("at least one timed sample ran")
}

/// Measure one cycle-heavy scenario across the three arms.
fn measure_repeated_scenario(
    spec: HasSpec,
    args: &Args,
    failures: &mut Vec<String>,
) -> RepeatedRow {
    let property = cycle_grid_liveness(&spec);
    let limits = SearchLimits {
        max_states: 100_000,
        // The state budget is the only limiter (wall-clock stops would be
        // scheduling dependent).
        max_millis: 600_000,
    };
    // The same prepared product the engine pipeline would verify: static
    // analysis applied, artifact relations handled.
    let mut product = ProductSystem::new(&spec, &property, true).expect("cycle grid is valid");
    let graph = ConstraintGraph::build(&spec, property.task, &property, &product.task.universe);
    let removed = graph.non_violating_edges(&product.task.universe);
    product.set_static_removed(removed);
    let samples = if args.quick { 1 } else { 3 };
    // The reference does not track its post-pass separately: subtract the
    // same sample's search time from its wall clock (the search time is
    // millisecond-granular, fine against post-passes this size).
    let reference_postpass = |outcome: &RepeatedOutcome, total_millis: f64| -> f64 {
        ((total_millis - outcome.stats.elapsed_ms as f64) * 1_000.0).max(1.0)
    };
    let cycle_postpass = |outcome: &RepeatedOutcome, _total: f64| -> f64 {
        let cycle = outcome.cycle.unwrap_or_default();
        ((cycle.edge_micros + cycle.scc_micros) as f64).max(1.0)
    };
    let reference = time_repeated(
        samples,
        || find_infinite_violation_reference(&product, CoverageKind::StrictSubsumption, limits),
        reference_postpass,
    );
    let seq = time_repeated(
        samples,
        || {
            find_infinite_violation_with(
                &product,
                CoverageKind::StrictSubsumption,
                true,
                limits,
                1,
                &mut SearchControl::default(),
            )
        },
        cycle_postpass,
    );
    let par = time_repeated(
        samples,
        || {
            find_infinite_violation_with(
                &product,
                CoverageKind::StrictSubsumption,
                true,
                limits,
                args.threads,
                &mut SearchControl::default(),
            )
        },
        cycle_postpass,
    );
    let name = format!("{}/{}", spec.name, property.name);
    if seq.outcome.stats.limit_reached {
        failures.push(format!("{name}: scenario did not exhaust its search"));
    }
    let prefix = |outcome: &RepeatedOutcome| outcome.violation.as_ref().map(|v| v.prefix.clone());
    let seq_prefix = prefix(&seq.outcome);
    if prefix(&par.outcome) != seq_prefix {
        failures.push(format!(
            "{name}: witness diverged between 1 and {} threads",
            args.threads
        ));
    }
    if prefix(&reference.outcome) != seq_prefix {
        failures.push(format!(
            "{name}: witness diverged from the reference implementation"
        ));
    }
    let cycle = seq.outcome.cycle.unwrap_or_default();
    RepeatedRow {
        verdict: if seq.outcome.violation.is_some() {
            "violated"
        } else if seq.outcome.limit_reached {
            "inconclusive"
        } else {
            "satisfied"
        },
        name,
        active: cycle.states,
        edges: cycle.edges,
        sccs: cycle.sccs,
        candidate_hit_rate: cycle.candidate_hit_rate(),
        reference_millis: reference.total_millis,
        seq_millis: seq.total_millis,
        par_millis: par.total_millis,
        reference_postpass_micros: reference.postpass_micros,
        seq_postpass_micros: seq.postpass_micros,
        par_postpass_micros: par.postpass_micros,
        speedup_vs_reference: reference.postpass_micros / seq.postpass_micros,
        parallel_speedup: seq.postpass_micros / par.postpass_micros,
        edges_per_sec: cycle.edges as f64 / (seq.postpass_micros / 1_000_000.0),
    }
}

/// The cycle-heavy scenario set: a wide 2D grid where the signature gate
/// narrows candidates to almost exactly the true edges (the
/// speedup-vs-reference showcase), and a high-dimensional torus whose
/// short value cycles fill each discrete group with states the gate
/// rejects — more candidates per source than the grid, so the shape
/// where parallel edge workers have the most to share.
fn measure_repeated(args: &Args, failures: &mut Vec<String>) -> Vec<RepeatedRow> {
    let grid = cycle_grid(if args.quick { 12 } else { 16 });
    let torus = cycle_torus(if args.quick { 5 } else { 6 }, 3);
    vec![
        measure_repeated_scenario(grid, args, failures),
        measure_repeated_scenario(torus, args, failures),
    ]
}

/// The sharded-batch measurement: the skewed one-heavy-plus-many-light
/// batch of `skewed_grid`, run end to end through `check_all_with` under
/// the flat pool and the sharded scheduler with the same core budget.
struct BatchRow {
    name: String,
    properties: usize,
    flat_millis: f64,
    sharded_millis: f64,
    /// End-to-end batch time ratio: flat / sharded.
    speedup: f64,
    /// Batch throughput of the sharded arm (the quantity the baseline
    /// regression gate compares).
    sharded_props_per_sec: f64,
}

/// Time one batch arm: one warm-up plus `samples` timed runs, keep the
/// fastest together with its reports (for the determinism cross-check).
fn time_batch(
    samples: usize,
    mut run: impl FnMut() -> Vec<Result<VerificationReport, verifas_core::VerifasError>>,
) -> (f64, Vec<VerificationReport>) {
    let mut best: Option<(f64, Vec<VerificationReport>)> = None;
    for sample in 0..=samples {
        let start = Instant::now();
        let reports = run();
        let millis = start.elapsed().as_secs_f64() * 1_000.0;
        if sample == 0 {
            continue;
        }
        if best.as_ref().is_none_or(|(b, _)| millis < *b) {
            let reports = reports
                .into_iter()
                .map(|r| r.expect("skewed-batch properties verify"))
                .collect();
            best = Some((millis, reports));
        }
    }
    best.expect("at least one timed sample ran")
}

fn measure_batch(args: &Args, failures: &mut Vec<String>) -> BatchRow {
    let spec = skewed_grid(if args.quick { 12 } else { 16 });
    let properties = skewed_batch_properties(&spec, 7);
    let engine = VerifasEngine::load_with_options(
        spec.clone(),
        VerifierOptions {
            limits: SearchLimits {
                max_states: 100_000,
                // The state budget is the only limiter (wall-clock stops
                // would be scheduling dependent).
                max_millis: 600_000,
            },
            ..VerifierOptions::default()
        },
    )
    .expect("skewed grid is valid");
    let name = format!("{}/skewed-batch", spec.name);
    let samples = if args.quick { 1 } else { 3 };
    let batch = |schedule: SchedulePolicy| BatchOptions {
        batch_threads: args.threads,
        schedule,
    };
    let (flat_millis, flat_reports) = time_batch(samples, || {
        engine.check_all_with(&properties, batch(SchedulePolicy::Flat))
    });
    let (sharded_millis, sharded_reports) = time_batch(samples, || {
        engine.check_all_with(&properties, batch(SchedulePolicy::Sharded))
    });
    // Determinism cross-check: both policies must reproduce a sequential
    // reference bit for bit (verdict, witness, search size).
    for (i, property) in properties.iter().enumerate() {
        let reference = engine.check(property).expect("sequential check succeeds");
        for (policy, report) in [("flat", &flat_reports[i]), ("sharded", &sharded_reports[i])] {
            if report.outcome != reference.outcome
                || report.witness != reference.witness
                || report.stats.states_created != reference.stats.states_created
            {
                failures.push(format!(
                    "{name}: property {} diverged under {policy} scheduling",
                    property.name
                ));
            }
        }
    }
    BatchRow {
        name,
        properties: properties.len(),
        flat_millis,
        sharded_millis,
        speedup: flat_millis / sharded_millis,
        sharded_props_per_sec: properties.len() as f64 / (sharded_millis / 1_000.0),
    }
}

/// The incremental edit-loop measurement: one iteration of the
/// check–edit–re-check loop on the `cycle_grid` liveness property.
struct IncrementalRow {
    name: String,
    /// A cold iteration: fresh `Engine::load_with_options` plus the full
    /// search.
    cold_millis: f64,
    /// A warm iteration: `Engine::load_delta` from a prior session (the
    /// unchanged slice carries preprocessing and report), then the same
    /// `check` — answered from the carried report, no search.
    warm_millis: f64,
    /// Edit-loop time ratio: cold / warm (the `--min-incremental-speedup`
    /// gate).
    speedup: f64,
    /// Warm iteration throughput (the quantity the baseline regression
    /// gate compares).
    warm_iterations_per_sec: f64,
}

fn measure_incremental(args: &Args, failures: &mut Vec<String>) -> IncrementalRow {
    let spec = cycle_grid(if args.quick { 12 } else { 16 });
    let property = cycle_grid_liveness(&spec);
    let options = VerifierOptions {
        limits: SearchLimits {
            max_states: 100_000,
            // The state budget is the only limiter (wall-clock stops
            // would be scheduling dependent).
            max_millis: 600_000,
        },
        ..VerifierOptions::default()
    };
    let name = format!("{}/{}", spec.name, property.name);
    let samples = if args.quick { 1 } else { 3 };
    // One warm-up plus `samples` timed runs per arm, keep the fastest
    // (with its report, for the determinism cross-check).
    let time_arm = |run: &mut dyn FnMut() -> VerificationReport| {
        let mut best: Option<(f64, VerificationReport)> = None;
        for sample in 0..=samples {
            let start = Instant::now();
            let report = run();
            let millis = start.elapsed().as_secs_f64() * 1_000.0;
            if sample == 0 {
                continue;
            }
            if best.as_ref().is_none_or(|(b, _)| millis < *b) {
                best = Some((millis, report));
            }
        }
        best.expect("at least one timed sample ran")
    };
    let (cold_millis, cold) = time_arm(&mut || {
        VerifasEngine::load_with_options(spec.clone(), options)
            .expect("cycle grid is valid")
            .check(&property)
            .expect("cycle grid verifies")
    });
    // The prior session the edit loop resumes from: it has checked the
    // property once, so its preprocessing and report are there to carry.
    let prior = VerifasEngine::load_with_reuse(spec.clone(), options, ReuseMode::Preproc).unwrap();
    prior.check(&property).expect("cycle grid verifies");
    let (warm_millis, warm) = time_arm(&mut || {
        let (engine, _) =
            VerifasEngine::load_delta(&prior, spec.clone(), ReuseMode::Preproc).unwrap();
        engine.check(&property).expect("cycle grid verifies")
    });
    // Determinism cross-check: the warm arm must reproduce the cold
    // verdict, witness and search size bit for bit.
    if warm.outcome != cold.outcome
        || warm.witness != cold.witness
        || warm.stats.states_created != cold.stats.states_created
    {
        failures.push(format!("{name}: warm incremental run diverged from cold"));
    }
    IncrementalRow {
        name,
        cold_millis,
        warm_millis,
        speedup: cold_millis / warm_millis,
        warm_iterations_per_sec: 1_000.0 / warm_millis,
    }
}

/// The state-layout measurement: the open/close lattice searched raw
/// (no engine pipeline, no repeated-reachability pass) and
/// single-threaded, once with grouped candidates (DSS on) and once with
/// the reference linear scans (DSS off).
struct LayoutRow {
    name: String,
    /// States created per arm — the arms run under *different* state
    /// budgets (the reference layout is orders of magnitude slower, and
    /// its per-state cost grows with the node count, so capping it low
    /// flatters it; the reported speedup is therefore conservative).
    new_states: usize,
    reference_states: usize,
    new_millis: f64,
    reference_millis: f64,
    new_states_per_sec: f64,
    reference_states_per_sec: f64,
    /// States/sec ratio: arena layout / reference layout (the
    /// `--min-layout-speedup` gate).
    layout_speedup: f64,
    /// The arena arm's `estimated_bytes` at the end of its (larger) run —
    /// the same deterministic estimate the memory budget charges against,
    /// recorded so the per-state footprint of the layout is tracked.
    peak_bytes_estimate: usize,
}

/// Run one single-threaded lattice search arm to its state budget and
/// return `(states_created, best_millis, final estimated_bytes)` plus the
/// identity the cross-check compares: the state count and the exact
/// active-node id set.
#[allow(clippy::type_complexity)]
fn time_layout_arm(
    product: &ProductSystem,
    data_structure_support: bool,
    max_states: usize,
    samples: usize,
) -> (usize, f64, usize, (usize, usize, Vec<usize>)) {
    let limits = SearchLimits {
        max_states,
        // The state budget is the only limiter (wall-clock stops would be
        // scheduling dependent).
        max_millis: 600_000,
    };
    let mut best: Option<(usize, f64, usize, (usize, usize, Vec<usize>))> = None;
    for sample in 0..=samples {
        let mut search = KarpMillerSearch::new(
            product,
            CoverageKind::Subsumption,
            data_structure_support,
            limits,
        );
        search.threads = 1;
        let start = Instant::now();
        search.run();
        let millis = start.elapsed().as_secs_f64() * 1_000.0;
        if sample == 0 {
            continue;
        }
        if best.as_ref().is_none_or(|(_, b, _, _)| millis < *b) {
            best = Some((
                search.stats.states_created,
                millis,
                search.estimated_bytes(),
                (
                    search.stats.states_created,
                    search.len(),
                    search.active_nodes(),
                ),
            ));
        }
    }
    best.expect("at least one timed sample ran")
}

fn measure_layout(args: &Args, failures: &mut Vec<String>) -> LayoutRow {
    let spec = open_close_lattice(16, 16);
    let property = lattice_false_property(&spec);
    let product = ProductSystem::new(&spec, &property, true).expect("lattice is valid");
    let name = format!("{}/{}", spec.name, property.name);
    let samples = if args.quick { 1 } else { 2 };
    // The arena arm gets a budget deep enough that group scans, arena
    // interning and the publication protocol dominate; the reference arm
    // gets a budget it can clear in seconds (its full linear scans are
    // quadratic in the node count).
    let new_cap = if args.quick { 30_000 } else { 120_000 };
    let reference_cap = if args.quick { 4_000 } else { 8_000 };
    let (new_states, new_millis, peak_bytes_estimate, _) =
        time_layout_arm(&product, true, new_cap, samples);
    let (reference_states, reference_millis, _, reference_id) =
        time_layout_arm(&product, false, reference_cap, samples);
    // Cross-check: at the *same* budget the two layouts must materialise
    // bit-identical trees (the grouped scan visits exactly the states the
    // full scan does, in the same order).
    let (_, _, _, new_id) = time_layout_arm(&product, true, reference_cap, 1);
    if new_id != reference_id {
        failures.push(format!(
            "{name}: arena and reference layouts diverged at {reference_cap} states \
             (arena {new_id:?} vs reference {reference_id:?})"
        ));
    }
    let new_states_per_sec = new_states as f64 / (new_millis / 1_000.0);
    let reference_states_per_sec = reference_states as f64 / (reference_millis / 1_000.0);
    LayoutRow {
        name,
        new_states,
        reference_states,
        new_millis,
        reference_millis,
        new_states_per_sec,
        reference_states_per_sec,
        layout_speedup: new_states_per_sec / reference_states_per_sec,
        peak_bytes_estimate,
    }
}

fn layout_json(row: &LayoutRow) -> Json {
    Json::Obj(vec![
        ("name".to_owned(), Json::Str(row.name.clone())),
        ("new_states".to_owned(), Json::Num(row.new_states as f64)),
        (
            "reference_states".to_owned(),
            Json::Num(row.reference_states as f64),
        ),
        ("new_millis".to_owned(), Json::Num(row.new_millis)),
        (
            "reference_millis".to_owned(),
            Json::Num(row.reference_millis),
        ),
        (
            "new_states_per_sec".to_owned(),
            Json::Num(row.new_states_per_sec),
        ),
        (
            "reference_states_per_sec".to_owned(),
            Json::Num(row.reference_states_per_sec),
        ),
        ("layout_speedup".to_owned(), Json::Num(row.layout_speedup)),
        (
            "peak_bytes_estimate".to_owned(),
            Json::Num(row.peak_bytes_estimate as f64),
        ),
    ])
}

fn incremental_json(row: &IncrementalRow) -> Json {
    Json::Obj(vec![
        ("name".to_owned(), Json::Str(row.name.clone())),
        ("cold_millis".to_owned(), Json::Num(row.cold_millis)),
        ("warm_millis".to_owned(), Json::Num(row.warm_millis)),
        ("speedup".to_owned(), Json::Num(row.speedup)),
        (
            "warm_iterations_per_sec".to_owned(),
            Json::Num(row.warm_iterations_per_sec),
        ),
    ])
}

fn batch_json(row: &BatchRow) -> Json {
    Json::Obj(vec![
        ("name".to_owned(), Json::Str(row.name.clone())),
        ("properties".to_owned(), Json::Num(row.properties as f64)),
        ("flat_millis".to_owned(), Json::Num(row.flat_millis)),
        ("sharded_millis".to_owned(), Json::Num(row.sharded_millis)),
        ("speedup".to_owned(), Json::Num(row.speedup)),
        (
            "sharded_props_per_sec".to_owned(),
            Json::Num(row.sharded_props_per_sec),
        ),
    ])
}

fn repeated_json(row: &RepeatedRow) -> Json {
    Json::Obj(vec![
        ("name".to_owned(), Json::Str(row.name.clone())),
        ("verdict".to_owned(), Json::Str(row.verdict.to_owned())),
        ("active".to_owned(), Json::Num(row.active as f64)),
        ("edges".to_owned(), Json::Num(row.edges as f64)),
        ("sccs".to_owned(), Json::Num(row.sccs as f64)),
        (
            "candidate_hit_rate".to_owned(),
            Json::Num(row.candidate_hit_rate),
        ),
        (
            "reference_millis".to_owned(),
            Json::Num(row.reference_millis),
        ),
        ("seq_millis".to_owned(), Json::Num(row.seq_millis)),
        ("par_millis".to_owned(), Json::Num(row.par_millis)),
        (
            "reference_postpass_micros".to_owned(),
            Json::Num(row.reference_postpass_micros),
        ),
        (
            "seq_postpass_micros".to_owned(),
            Json::Num(row.seq_postpass_micros),
        ),
        (
            "par_postpass_micros".to_owned(),
            Json::Num(row.par_postpass_micros),
        ),
        (
            "speedup_vs_reference".to_owned(),
            Json::Num(row.speedup_vs_reference),
        ),
        (
            "parallel_speedup".to_owned(),
            Json::Num(row.parallel_speedup),
        ),
        ("edges_per_sec".to_owned(), Json::Num(row.edges_per_sec)),
    ])
}

fn verdict_name(outcome: VerificationOutcome) -> &'static str {
    match outcome {
        VerificationOutcome::Satisfied => "satisfied",
        VerificationOutcome::Violated => "violated",
        VerificationOutcome::Inconclusive => "inconclusive",
    }
}

fn results_json(
    rows: &[Row],
    repeated: &[RepeatedRow],
    batch: &BatchRow,
    incremental: &IncrementalRow,
    layout: &LayoutRow,
    args: &Args,
    host_parallelism: usize,
) -> Json {
    Json::Obj(vec![
        // Version 2 added the `repeated_reachability` section; version 3
        // the `batch_sharded` section; version 4 the `incremental`
        // section; version 5 the `state_layout` section.
        ("schema".to_owned(), Json::Num(5.0)),
        ("threads".to_owned(), Json::Num(args.threads as f64)),
        (
            "host_parallelism".to_owned(),
            Json::Num(host_parallelism as f64),
        ),
        ("quick".to_owned(), Json::Bool(args.quick)),
        (
            "best_speedup".to_owned(),
            Json::Num(rows.iter().map(|r| r.speedup).fold(0.0, f64::max)),
        ),
        (
            "scenarios".to_owned(),
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::Obj(vec![
                            ("name".to_owned(), Json::Str(r.name.clone())),
                            ("verdict".to_owned(), Json::Str(r.verdict.to_owned())),
                            ("states".to_owned(), Json::Num(r.states as f64)),
                            ("seq_millis".to_owned(), Json::Num(r.seq_millis)),
                            ("par_millis".to_owned(), Json::Num(r.par_millis)),
                            (
                                "seq_states_per_sec".to_owned(),
                                Json::Num(r.seq_states_per_sec),
                            ),
                            (
                                "par_states_per_sec".to_owned(),
                                Json::Num(r.par_states_per_sec),
                            ),
                            ("speedup".to_owned(), Json::Num(r.speedup)),
                            ("plan_fraction".to_owned(), Json::Num(r.plan_fraction)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "repeated_reachability".to_owned(),
            Json::Arr(repeated.iter().map(repeated_json).collect()),
        ),
        ("batch_sharded".to_owned(), batch_json(batch)),
        ("incremental".to_owned(), incremental_json(incremental)),
        ("state_layout".to_owned(), layout_json(layout)),
    ])
}

fn num_member(value: &Json, key: &str) -> Option<f64> {
    match value.get(key) {
        Some(Json::Num(n)) => Some(*n),
        _ => None,
    }
}

/// Compare against the committed baseline; returns the failure messages.
fn regression_failures(
    rows: &[Row],
    repeated: &[RepeatedRow],
    batch: &BatchRow,
    incremental: &IncrementalRow,
    layout: &LayoutRow,
    baseline: &Json,
) -> Vec<String> {
    const TOLERANCE: f64 = 0.7; // fail on a >30% drop
    let mut failures = Vec::new();
    // The arena state layout regresses on its states/sec (absent from
    // pre-PR-9 baselines: nothing to compare).
    if let Some(base) = baseline.get("state_layout") {
        if base.get("name").and_then(Json::as_str) == Some(layout.name.as_str()) {
            if let Some(reference) = num_member(base, "new_states_per_sec") {
                let current = layout.new_states_per_sec;
                if current < reference * TOLERANCE {
                    failures.push(format!(
                        "{}: new_states_per_sec regressed to {current:.0} \
                         (baseline {reference:.0}, floor {:.0})",
                        layout.name,
                        reference * TOLERANCE
                    ));
                }
            }
            // Peak memory regresses upward: the estimate is deterministic
            // for a deterministic search, so any growth is a layout
            // change, not noise — allow the same 30% headroom.
            if let Some(reference) = num_member(base, "peak_bytes_estimate") {
                let current = layout.peak_bytes_estimate as f64;
                if current > reference / TOLERANCE {
                    failures.push(format!(
                        "{}: peak_bytes_estimate grew to {current:.0} \
                         (baseline {reference:.0}, ceiling {:.0})",
                        layout.name,
                        reference / TOLERANCE
                    ));
                }
            }
        }
    }
    // The incremental edit loop regresses on its warm-iteration
    // throughput (absent from pre-PR-7 baselines: nothing to compare).
    if let Some(base) = baseline.get("incremental") {
        if base.get("name").and_then(Json::as_str) == Some(incremental.name.as_str()) {
            if let Some(reference) = num_member(base, "warm_iterations_per_sec") {
                let current = incremental.warm_iterations_per_sec;
                if current < reference * TOLERANCE {
                    failures.push(format!(
                        "{}: warm_iterations_per_sec regressed to {current:.1} \
                         (baseline {reference:.1}, floor {:.1})",
                        incremental.name,
                        reference * TOLERANCE
                    ));
                }
            }
        }
    }
    // The sharded batch regresses on its end-to-end throughput (absent
    // from pre-PR-4 baselines: nothing to compare).
    if let Some(base) = baseline.get("batch_sharded") {
        if base.get("name").and_then(Json::as_str) == Some(batch.name.as_str()) {
            if let Some(reference) = num_member(base, "sharded_props_per_sec") {
                let current = batch.sharded_props_per_sec;
                if current < reference * TOLERANCE {
                    failures.push(format!(
                        "{}: sharded_props_per_sec regressed to {current:.2} \
                         (baseline {reference:.2}, floor {:.2})",
                        batch.name,
                        reference * TOLERANCE
                    ));
                }
            }
        }
    }
    // The repeated-reachability pass regresses on its edge-construction
    // throughput (absent from pre-PR-3 baselines: nothing to compare).
    if let Some(bases) = baseline
        .get("repeated_reachability")
        .and_then(Json::as_array)
    {
        for row in repeated {
            let Some(base) = bases
                .iter()
                .find(|b| b.get("name").and_then(Json::as_str) == Some(row.name.as_str()))
            else {
                continue;
            };
            if let Some(reference) = num_member(base, "edges_per_sec") {
                let current = row.edges_per_sec;
                if current < reference * TOLERANCE {
                    failures.push(format!(
                        "{}: edges_per_sec regressed to {current:.0} (baseline {reference:.0}, \
                         floor {:.0})",
                        row.name,
                        reference * TOLERANCE
                    ));
                }
            }
        }
    }
    let Some(scenarios) = baseline.get("scenarios").and_then(Json::as_array) else {
        return vec!["baseline file has no `scenarios` array".to_owned()];
    };
    for row in rows {
        let Some(base) = scenarios
            .iter()
            .find(|s| s.get("name").and_then(Json::as_str) == Some(row.name.as_str()))
        else {
            continue; // new scenario: nothing to regress against
        };
        for (metric, current) in [
            ("seq_states_per_sec", row.seq_states_per_sec),
            ("par_states_per_sec", row.par_states_per_sec),
        ] {
            if let Some(reference) = num_member(base, metric) {
                if current < reference * TOLERANCE {
                    failures.push(format!(
                        "{}: {metric} regressed to {current:.0} (baseline {reference:.0}, \
                         floor {:.0})",
                        row.name,
                        reference * TOLERANCE
                    ));
                }
            }
        }
    }
    failures
}

fn main() {
    let args = parse_args();
    let host_parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let scenarios = scenarios(&args);
    assert!(
        !scenarios.is_empty(),
        "no benchmark scenario produced a sizeable search"
    );
    println!(
        "ci_bench: {} scenarios, 1 vs {} threads on a {}-core host{}",
        scenarios.len(),
        args.threads,
        host_parallelism,
        if args.quick { " (quick mode)" } else { "" }
    );
    let mut rows = Vec::new();
    let mut verdict_failures = Vec::new();
    for scenario in &scenarios {
        let sequential = measure(scenario, 1, &args);
        let parallel = measure(scenario, args.threads, &args);
        if sequential.report.outcome != parallel.report.outcome
            || sequential.report.witness != parallel.report.witness
        {
            verdict_failures.push(format!(
                "{}: sequential {:?} vs {}-thread {:?}",
                scenario.name, sequential.report.outcome, args.threads, parallel.report.outcome
            ));
        }
        let busy_micros: u64 = sequential
            .report
            .workers
            .iter()
            .map(|w| w.busy_micros)
            .sum();
        let row = Row {
            name: scenario.name.clone(),
            verdict: verdict_name(sequential.report.outcome),
            states: sequential.states,
            seq_millis: sequential.millis,
            par_millis: parallel.millis,
            seq_states_per_sec: sequential.states as f64 / (sequential.millis / 1_000.0),
            par_states_per_sec: parallel.states as f64 / (parallel.millis / 1_000.0),
            speedup: sequential.millis / parallel.millis,
            plan_fraction: (busy_micros as f64 / 1_000.0 / sequential.millis).min(1.0),
        };
        println!(
            "  {:<48} {:>12} {:>8} states  seq {:>9.1}ms  par {:>9.1}ms  speedup {:.2}x               plan {:.0}%",
            row.name,
            row.verdict,
            row.states,
            row.seq_millis,
            row.par_millis,
            row.speedup,
            row.plan_fraction * 100.0
        );
        rows.push(row);
    }
    let repeated = measure_repeated(&args, &mut verdict_failures);
    for row in &repeated {
        println!(
            "  {:<48} {:>12} {:>8} active  post-pass: ref {:>8.1}ms  seq {:>8.1}ms  par {:>8.1}ms  vs-ref {:.1}x  par {:.2}x  (end-to-end {:.0}/{:.0}/{:.0}ms)",
            row.name,
            row.verdict,
            row.active,
            row.reference_postpass_micros / 1_000.0,
            row.seq_postpass_micros / 1_000.0,
            row.par_postpass_micros / 1_000.0,
            row.speedup_vs_reference,
            row.parallel_speedup,
            row.reference_millis,
            row.seq_millis,
            row.par_millis,
        );
    }
    let batch = measure_batch(&args, &mut verdict_failures);
    println!(
        "  {:<48} {:>12} {:>8} props   batch: flat {:>9.1}ms  sharded {:>9.1}ms  speedup {:.2}x",
        batch.name,
        "batch",
        batch.properties,
        batch.flat_millis,
        batch.sharded_millis,
        batch.speedup,
    );
    let incremental = measure_incremental(&args, &mut verdict_failures);
    println!(
        "  {:<48} {:>12}          edit-loop: cold {:>9.1}ms  warm {:>9.3}ms  speedup {:.0}x",
        incremental.name,
        "incremental",
        incremental.cold_millis,
        incremental.warm_millis,
        incremental.speedup,
    );
    let layout = measure_layout(&args, &mut verdict_failures);
    println!(
        "  {:<48} {:>12}          layout: arena {:>8.0}/s  reference {:>8.0}/s  speedup {:.1}x  peak ~{:.0} MB",
        layout.name,
        "state-layout",
        layout.new_states_per_sec,
        layout.reference_states_per_sec,
        layout.layout_speedup,
        layout.peak_bytes_estimate as f64 / 1e6,
    );
    let doc = results_json(
        &rows,
        &repeated,
        &batch,
        &incremental,
        &layout,
        &args,
        host_parallelism,
    );
    std::fs::write(&args.out, format!("{doc}\n")).expect("write results file");
    println!("wrote {}", args.out);

    let mut failed = false;
    if !verdict_failures.is_empty() {
        failed = true;
        eprintln!("FAIL: verdicts diverged across thread counts:");
        for failure in &verdict_failures {
            eprintln!("  {failure}");
        }
    }
    let mut baseline_cores = 0usize;
    if let Some(path) = &args.baseline {
        if args.update_baseline {
            std::fs::write(path, format!("{doc}\n")).expect("write baseline file");
            println!("updated baseline {path}");
        } else {
            match std::fs::read_to_string(path) {
                Ok(text) => {
                    let baseline = Json::parse(&text).expect("baseline file parses");
                    // Absolute states/sec only regresses meaningfully
                    // against a baseline captured on comparable hardware;
                    // across machine classes the comparison is advisory
                    // until the baseline is refreshed where the job runs.
                    baseline_cores = baseline
                        .get("host_parallelism")
                        .and_then(Json::as_u64)
                        .unwrap_or(0) as usize;
                    let comparable = baseline_cores == host_parallelism;
                    let failures = regression_failures(
                        &rows,
                        &repeated,
                        &batch,
                        &incremental,
                        &layout,
                        &baseline,
                    );
                    if !failures.is_empty() && comparable {
                        failed = true;
                        eprintln!("FAIL: >30% throughput regression vs {path}:");
                        for failure in &failures {
                            eprintln!("  {failure}");
                        }
                    } else if !failures.is_empty() {
                        eprintln!(
                            "warning: throughput below baseline {path}, but the baseline was \
                             captured on a {baseline_cores}-core host and this is a \
                             {host_parallelism}-core host — advisory only; refresh with \
                             --update-baseline from this hardware class:"
                        );
                        for failure in &failures {
                            eprintln!("  {failure}");
                        }
                    } else {
                        println!("no regression vs {path}");
                    }
                }
                Err(e) => {
                    failed = true;
                    eprintln!("FAIL: cannot read baseline {path}: {e}");
                }
            }
        }
    }
    if let Some(min) = args.min_speedup {
        let best = rows.iter().map(|r| r.speedup).fold(0.0, f64::max);
        if host_parallelism >= args.threads {
            if best < min {
                failed = true;
                eprintln!("FAIL: best parallel speedup {best:.2}x is below the required {min:.2}x");
            } else {
                println!("best parallel speedup {best:.2}x (required {min:.2}x)");
            }
        } else {
            println!(
                "note: host has {host_parallelism} core(s) < {} threads; speedup gate skipped \
                 (best observed {best:.2}x)",
                args.threads
            );
        }
    }
    // Both repeated gates apply to the best scenario (mirroring the main
    // search's best-speedup gate): each scenario showcases one side of the
    // optimisation — the grid the single-pass win, the denser torus the
    // parallel edge construction.
    let best_vs_reference = repeated
        .iter()
        .map(|r| r.speedup_vs_reference)
        .fold(0.0, f64::max);
    let best_parallel = repeated
        .iter()
        .map(|r| r.parallel_speedup)
        .fold(0.0, f64::max);
    if let Some(min) = args.min_repeated_speedup {
        if best_vs_reference < min {
            failed = true;
            eprintln!(
                "FAIL: repeated-reachability post-pass speedup vs the reference \
                 implementation is {best_vs_reference:.2}x, below the required {min:.2}x"
            );
        } else {
            println!(
                "repeated-reachability post-pass speedup vs reference {best_vs_reference:.2}x \
                 (required {min:.2}x)"
            );
        }
    }
    if let Some(min) = args.min_repeated_parallel_speedup {
        if host_parallelism < args.threads {
            println!(
                "note: host has {host_parallelism} core(s) < {} threads; repeated parallel \
                 speedup gate skipped (best observed {best_parallel:.2}x)",
                args.threads
            );
        } else if best_parallel >= min {
            println!(
                "repeated-reachability parallel speedup {best_parallel:.2}x \
                 (required {min:.2}x)"
            );
        } else if baseline_cores >= args.threads {
            // The committed baseline proves a multi-core host has measured
            // this number before: a miss now is a genuine regression.
            failed = true;
            eprintln!(
                "FAIL: repeated-reachability parallel speedup {best_parallel:.2}x is \
                 below the required {min:.2}x"
            );
        } else {
            // No multi-core measurement has ever been committed (the
            // baseline comes from a {baseline_cores}-core host); report
            // without failing until one is.
            println!(
                "warning: repeated-reachability parallel speedup {best_parallel:.2}x is \
                 below {min:.2}x, but the committed baseline was captured on a \
                 {baseline_cores}-core host — advisory until the baseline is refreshed \
                 from a host with at least {} cores",
                args.threads
            );
        }
    }
    if let Some(min) = args.min_batch_speedup {
        // Like the main search's speedup gate: a flat pool and a sharded
        // scheduler are indistinguishable on a host that cannot run the
        // heavy straggler's search in parallel to begin with.
        if host_parallelism >= args.threads {
            if batch.speedup < min {
                failed = true;
                eprintln!(
                    "FAIL: sharded batch speedup {:.2}x is below the required {min:.2}x",
                    batch.speedup
                );
            } else {
                println!(
                    "sharded batch speedup {:.2}x (required {min:.2}x)",
                    batch.speedup
                );
            }
        } else {
            println!(
                "note: host has {host_parallelism} core(s) < {} threads; sharded batch \
                 speedup gate skipped (observed {:.2}x)",
                args.threads, batch.speedup
            );
        }
    }
    if let Some(min) = args.min_incremental_speedup {
        // Unlike the parallel gates, the warm edit loop needs no spare
        // cores — the speedup comes from not redoing work, so the gate
        // holds on any host.
        if incremental.speedup < min {
            failed = true;
            eprintln!(
                "FAIL: incremental edit-loop speedup {:.2}x is below the required {min:.2}x",
                incremental.speedup
            );
        } else {
            println!(
                "incremental edit-loop speedup {:.0}x warm (required {min:.2}x)",
                incremental.speedup
            );
        }
    }
    if let Some(min) = args.min_layout_speedup {
        // Both arms are single-threaded, so this gate holds on any host.
        if layout.layout_speedup < min {
            failed = true;
            eprintln!(
                "FAIL: arena state-layout speedup {:.2}x is below the required {min:.2}x",
                layout.layout_speedup
            );
        } else {
            println!(
                "arena state-layout speedup {:.1}x (required {min:.2}x)",
                layout.layout_speedup
            );
        }
    }
    if failed {
        std::process::exit(1);
    }
}
