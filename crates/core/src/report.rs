//! Structured verification requests and reports.
//!
//! A [`VerificationReport`] is the machine-readable result of one
//! [`crate::engine::Engine`] run: the verdict, a structured counterexample
//! witness path (when the property is violated), per-phase
//! [`SearchStats`], the options that were in effect and whether the run
//! was cancelled.  Reports serialize to and parse from JSON
//! ([`VerificationReport::to_json`] / [`VerificationReport::from_json`])
//! so a verification service can ship them across process boundaries and
//! archive them; the format is versioned through the `schema` member.

use crate::error::VerifasError;
use crate::json::Json;
use crate::repeated::CycleStats;
use crate::schedule::{OccupancySample, ScheduleStats};
use crate::search::{SearchLimits, SearchStats, WorkerStats};
use crate::verifier::{VerificationOutcome, VerificationResult, VerifierOptions};
use verifas_model::{HasSpec, ServiceRef, TaskId};

/// Version tag written into every serialized report.
///
/// Version 2 added the effective thread count ([`SearchStats::threads`],
/// `VerifierOptions::search_threads`) and the per-worker statistics
/// (`workers`).  Version 3 added the repeated-reachability cycle-detection
/// block (`repeated_cycle`, see [`CycleStats`]).  Version 4 added the
/// batch-scheduling block (`schedule`, see [`ScheduleStats`]): the batch's
/// core budget plus the property's start/finish times and core-occupancy
/// timeline.
pub const REPORT_SCHEMA_VERSION: u64 = 4;

/// One observable service occurrence on a witness path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WitnessStep {
    /// The service that fired.
    pub service: ServiceRef,
    /// The service rendered with task/service names.
    pub label: String,
}

/// A structured counterexample: the violating symbolic local run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    /// The observable services of the violating run, oldest first (for an
    /// infinite violation, the prefix leading to the repeated state).
    pub steps: Vec<WitnessStep>,
    /// `true` for a finite violating run (the task closes), `false` for an
    /// infinite one.
    pub finite: bool,
    /// Human-readable rendering of the whole run (including, for infinite
    /// violations, why the final state repeats).
    pub description: String,
}

/// The machine-readable result of one verification run.
#[derive(Debug, Clone, PartialEq)]
pub struct VerificationReport {
    /// Name of the verified property.
    pub property: String,
    /// Name of the task whose local runs were verified.
    pub task: String,
    /// The verdict.
    pub outcome: VerificationOutcome,
    /// The counterexample witness, when the property is violated.
    pub witness: Option<Witness>,
    /// Statistics of the main reachability phase.
    pub stats: SearchStats,
    /// Statistics of the repeated-reachability phase (when it ran).
    pub repeated_stats: Option<SearchStats>,
    /// Statistics of the repeated-reachability cycle-detection pass: the
    /// abstract-graph size, the candidate-filter hit rate and the
    /// edge-construction/SCC timings (when the pass ran).
    pub repeated_cycle: Option<CycleStats>,
    /// Per-worker statistics across both phases (empty for sequential
    /// engines that did not track them).
    pub workers: Vec<WorkerStats>,
    /// How this run was scheduled within its batch — core budget and the
    /// core-occupancy timeline (None for single-property runs,
    /// which are not batch-scheduled).
    pub schedule: Option<ScheduleStats>,
    /// The options that were in effect for this run.
    pub options: VerifierOptions,
    /// `true` when the run was stopped by cancellation or a deadline.
    /// The outcome is then usually `Inconclusive`; a definite `Violated`
    /// is still possible when a violation was found before the stop (a
    /// found violation is always sound).
    pub cancelled: bool,
}

impl VerificationReport {
    /// Assemble a report from a raw [`VerificationResult`].
    pub fn from_result(
        spec: &HasSpec,
        property_name: &str,
        task: TaskId,
        options: VerifierOptions,
        result: VerificationResult,
    ) -> Self {
        let witness = result.counterexample.map(|cex| Witness {
            steps: cex
                .services
                .iter()
                .map(|&service| WitnessStep {
                    service,
                    label: spec.service_name(service),
                })
                .collect(),
            finite: cex.finite,
            description: cex.description,
        });
        let cancelled =
            result.stats.cancelled || result.repeated_stats.is_some_and(|s| s.cancelled);
        VerificationReport {
            property: property_name.to_owned(),
            task: spec.task(task).name.clone(),
            outcome: result.outcome,
            witness,
            stats: result.stats,
            repeated_stats: result.repeated_stats,
            repeated_cycle: result.repeated_cycle,
            workers: result.worker_stats,
            schedule: None,
            options,
            cancelled,
        }
    }

    /// Total elapsed time across phases, in milliseconds.
    pub fn elapsed_ms(&self) -> u64 {
        self.stats.elapsed_ms + self.repeated_stats.map_or(0, |s| s.elapsed_ms)
    }

    /// Serialize to a single-line JSON document.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string()
    }

    /// The report as a [`Json`] value.
    pub fn to_json_value(&self) -> Json {
        let mut members = vec![
            ("schema".to_owned(), Json::Num(REPORT_SCHEMA_VERSION as f64)),
            ("property".to_owned(), Json::Str(self.property.clone())),
            ("task".to_owned(), Json::Str(self.task.clone())),
            (
                "outcome".to_owned(),
                Json::Str(outcome_name(self.outcome).to_owned()),
            ),
            (
                "witness".to_owned(),
                match &self.witness {
                    None => Json::Null,
                    Some(w) => witness_to_json(w),
                },
            ),
            ("stats".to_owned(), stats_to_json(&self.stats)),
            (
                "repeated_stats".to_owned(),
                match &self.repeated_stats {
                    None => Json::Null,
                    Some(s) => stats_to_json(s),
                },
            ),
            (
                "repeated_cycle".to_owned(),
                match &self.repeated_cycle {
                    None => Json::Null,
                    Some(c) => cycle_stats_to_json(c),
                },
            ),
            (
                "workers".to_owned(),
                Json::Arr(self.workers.iter().map(worker_stats_to_json).collect()),
            ),
            (
                "schedule".to_owned(),
                match &self.schedule {
                    None => Json::Null,
                    Some(s) => schedule_stats_to_json(s),
                },
            ),
            ("options".to_owned(), options_to_json(&self.options)),
        ];
        members.push(("cancelled".to_owned(), Json::Bool(self.cancelled)));
        Json::Obj(members)
    }

    /// Parse a report serialized with [`VerificationReport::to_json`].
    pub fn from_json(text: &str) -> Result<Self, VerifasError> {
        let doc = Json::parse(text)?;
        let schema = doc
            .require("schema")?
            .as_u64()
            .ok_or_else(|| malformed("schema"))?;
        if schema != REPORT_SCHEMA_VERSION {
            return Err(VerifasError::MalformedReport {
                reason: format!(
                    "unsupported schema version {schema} (expected {REPORT_SCHEMA_VERSION})"
                ),
            });
        }
        Ok(VerificationReport {
            property: str_member(&doc, "property")?,
            task: str_member(&doc, "task")?,
            outcome: outcome_from_json(doc.require("outcome")?)?,
            witness: match doc.require("witness")? {
                Json::Null => None,
                w => Some(witness_from_json(w)?),
            },
            stats: stats_from_json(doc.require("stats")?)?,
            repeated_stats: match doc.require("repeated_stats")? {
                Json::Null => None,
                s => Some(stats_from_json(s)?),
            },
            repeated_cycle: match doc.require("repeated_cycle")? {
                Json::Null => None,
                c => Some(cycle_stats_from_json(c)?),
            },
            workers: doc
                .require("workers")?
                .as_array()
                .ok_or_else(|| malformed("workers"))?
                .iter()
                .map(worker_stats_from_json)
                .collect::<Result<Vec<_>, VerifasError>>()?,
            schedule: match doc.require("schedule")? {
                Json::Null => None,
                s => Some(schedule_stats_from_json(s)?),
            },
            options: options_from_json(doc.require("options")?)?,
            cancelled: bool_member(&doc, "cancelled")?,
        })
    }
}

fn malformed(what: &str) -> VerifasError {
    VerifasError::MalformedReport {
        reason: format!("member {what:?} is missing or has the wrong type"),
    }
}

fn str_member(doc: &Json, key: &str) -> Result<String, VerifasError> {
    doc.require(key)?
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| malformed(key))
}

fn bool_member(doc: &Json, key: &str) -> Result<bool, VerifasError> {
    doc.require(key)?.as_bool().ok_or_else(|| malformed(key))
}

fn u64_member(doc: &Json, key: &str) -> Result<u64, VerifasError> {
    doc.require(key)?.as_u64().ok_or_else(|| malformed(key))
}

fn outcome_name(outcome: VerificationOutcome) -> &'static str {
    match outcome {
        VerificationOutcome::Satisfied => "satisfied",
        VerificationOutcome::Violated => "violated",
        VerificationOutcome::Inconclusive => "inconclusive",
    }
}

fn outcome_from_json(value: &Json) -> Result<VerificationOutcome, VerifasError> {
    match value.as_str() {
        Some("satisfied") => Ok(VerificationOutcome::Satisfied),
        Some("violated") => Ok(VerificationOutcome::Violated),
        Some("inconclusive") => Ok(VerificationOutcome::Inconclusive),
        _ => Err(malformed("outcome")),
    }
}

fn service_to_json(service: ServiceRef) -> Json {
    match service {
        ServiceRef::Internal { task, index } => Json::Obj(vec![
            ("kind".to_owned(), Json::Str("internal".to_owned())),
            ("task".to_owned(), Json::Num(task.index() as f64)),
            ("index".to_owned(), Json::Num(index as f64)),
        ]),
        ServiceRef::Opening(task) => Json::Obj(vec![
            ("kind".to_owned(), Json::Str("opening".to_owned())),
            ("task".to_owned(), Json::Num(task.index() as f64)),
        ]),
        ServiceRef::Closing(task) => Json::Obj(vec![
            ("kind".to_owned(), Json::Str("closing".to_owned())),
            ("task".to_owned(), Json::Num(task.index() as f64)),
        ]),
    }
}

fn service_from_json(value: &Json) -> Result<ServiceRef, VerifasError> {
    let task = TaskId::new(u64_member(value, "task")? as u32);
    match value.require("kind")?.as_str() {
        Some("internal") => Ok(ServiceRef::Internal {
            task,
            index: u64_member(value, "index")? as usize,
        }),
        Some("opening") => Ok(ServiceRef::Opening(task)),
        Some("closing") => Ok(ServiceRef::Closing(task)),
        _ => Err(malformed("service.kind")),
    }
}

fn witness_to_json(witness: &Witness) -> Json {
    Json::Obj(vec![
        (
            "steps".to_owned(),
            Json::Arr(
                witness
                    .steps
                    .iter()
                    .map(|step| {
                        Json::Obj(vec![
                            ("service".to_owned(), service_to_json(step.service)),
                            ("label".to_owned(), Json::Str(step.label.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("finite".to_owned(), Json::Bool(witness.finite)),
        (
            "description".to_owned(),
            Json::Str(witness.description.clone()),
        ),
    ])
}

fn witness_from_json(value: &Json) -> Result<Witness, VerifasError> {
    let steps = value
        .require("steps")?
        .as_array()
        .ok_or_else(|| malformed("witness.steps"))?
        .iter()
        .map(|step| {
            Ok(WitnessStep {
                service: service_from_json(step.require("service")?)?,
                label: str_member(step, "label")?,
            })
        })
        .collect::<Result<Vec<_>, VerifasError>>()?;
    Ok(Witness {
        steps,
        finite: bool_member(value, "finite")?,
        description: str_member(value, "description")?,
    })
}

fn stats_to_json(stats: &SearchStats) -> Json {
    Json::Obj(vec![
        (
            "states_created".to_owned(),
            Json::Num(stats.states_created as f64),
        ),
        (
            "states_active".to_owned(),
            Json::Num(stats.states_active as f64),
        ),
        (
            "states_skipped".to_owned(),
            Json::Num(stats.states_skipped as f64),
        ),
        (
            "states_pruned".to_owned(),
            Json::Num(stats.states_pruned as f64),
        ),
        (
            "accelerations".to_owned(),
            Json::Num(stats.accelerations as f64),
        ),
        (
            "stored_types".to_owned(),
            Json::Num(stats.stored_types as f64),
        ),
        ("elapsed_ms".to_owned(), Json::Num(stats.elapsed_ms as f64)),
        ("threads".to_owned(), Json::Num(stats.threads as f64)),
        ("limit_reached".to_owned(), Json::Bool(stats.limit_reached)),
        ("cancelled".to_owned(), Json::Bool(stats.cancelled)),
    ])
}

fn cycle_stats_to_json(stats: &CycleStats) -> Json {
    Json::Obj(vec![
        ("states".to_owned(), Json::Num(stats.states as f64)),
        ("successors".to_owned(), Json::Num(stats.successors as f64)),
        ("candidates".to_owned(), Json::Num(stats.candidates as f64)),
        ("edges".to_owned(), Json::Num(stats.edges as f64)),
        ("sccs".to_owned(), Json::Num(stats.sccs as f64)),
        (
            "cyclic_states".to_owned(),
            Json::Num(stats.cyclic_states as f64),
        ),
        ("threads".to_owned(), Json::Num(stats.threads as f64)),
        (
            "edge_micros".to_owned(),
            Json::Num(stats.edge_micros as f64),
        ),
        ("scc_micros".to_owned(), Json::Num(stats.scc_micros as f64)),
        ("completed".to_owned(), Json::Bool(stats.completed)),
    ])
}

fn cycle_stats_from_json(value: &Json) -> Result<CycleStats, VerifasError> {
    Ok(CycleStats {
        states: u64_member(value, "states")? as usize,
        successors: u64_member(value, "successors")? as usize,
        candidates: u64_member(value, "candidates")? as usize,
        edges: u64_member(value, "edges")? as usize,
        sccs: u64_member(value, "sccs")? as usize,
        cyclic_states: u64_member(value, "cyclic_states")? as usize,
        threads: u64_member(value, "threads")? as usize,
        edge_micros: u64_member(value, "edge_micros")?,
        scc_micros: u64_member(value, "scc_micros")?,
        completed: bool_member(value, "completed")?,
    })
}

fn schedule_stats_to_json(stats: &ScheduleStats) -> Json {
    Json::Obj(vec![
        (
            "batch_threads".to_owned(),
            Json::Num(stats.batch_threads as f64),
        ),
        (
            "property_index".to_owned(),
            Json::Num(stats.property_index as f64),
        ),
        ("started_ms".to_owned(), Json::Num(stats.started_ms as f64)),
        (
            "finished_ms".to_owned(),
            Json::Num(stats.finished_ms as f64),
        ),
        (
            "occupancy".to_owned(),
            Json::Arr(
                stats
                    .occupancy
                    .iter()
                    .map(|sample| {
                        Json::Obj(vec![
                            ("at_ms".to_owned(), Json::Num(sample.at_ms as f64)),
                            ("threads".to_owned(), Json::Num(sample.threads as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn schedule_stats_from_json(value: &Json) -> Result<ScheduleStats, VerifasError> {
    let occupancy = value
        .require("occupancy")?
        .as_array()
        .ok_or_else(|| malformed("schedule.occupancy"))?
        .iter()
        .map(|sample| {
            Ok(OccupancySample {
                at_ms: u64_member(sample, "at_ms")?,
                threads: u64_member(sample, "threads")? as usize,
            })
        })
        .collect::<Result<Vec<_>, VerifasError>>()?;
    Ok(ScheduleStats {
        batch_threads: u64_member(value, "batch_threads")? as usize,
        property_index: u64_member(value, "property_index")? as usize,
        started_ms: u64_member(value, "started_ms")?,
        finished_ms: u64_member(value, "finished_ms")?,
        occupancy,
    })
}

fn worker_stats_to_json(stats: &WorkerStats) -> Json {
    Json::Obj(vec![
        ("worker".to_owned(), Json::Num(stats.worker as f64)),
        (
            "nodes_planned".to_owned(),
            Json::Num(stats.nodes_planned as f64),
        ),
        (
            "successors_planned".to_owned(),
            Json::Num(stats.successors_planned as f64),
        ),
        (
            "busy_micros".to_owned(),
            Json::Num(stats.busy_micros as f64),
        ),
    ])
}

fn worker_stats_from_json(value: &Json) -> Result<WorkerStats, VerifasError> {
    Ok(WorkerStats {
        worker: u64_member(value, "worker")? as usize,
        nodes_planned: u64_member(value, "nodes_planned")? as usize,
        successors_planned: u64_member(value, "successors_planned")? as usize,
        busy_micros: u64_member(value, "busy_micros")?,
    })
}

fn stats_from_json(value: &Json) -> Result<SearchStats, VerifasError> {
    Ok(SearchStats {
        states_created: u64_member(value, "states_created")? as usize,
        states_active: u64_member(value, "states_active")? as usize,
        states_skipped: u64_member(value, "states_skipped")? as usize,
        states_pruned: u64_member(value, "states_pruned")? as usize,
        accelerations: u64_member(value, "accelerations")? as usize,
        stored_types: u64_member(value, "stored_types")? as usize,
        elapsed_ms: u64_member(value, "elapsed_ms")?,
        threads: u64_member(value, "threads")? as usize,
        limit_reached: bool_member(value, "limit_reached")?,
        cancelled: bool_member(value, "cancelled")?,
    })
}

fn options_to_json(options: &VerifierOptions) -> Json {
    Json::Obj(vec![
        (
            "state_pruning".to_owned(),
            Json::Bool(options.state_pruning),
        ),
        (
            "static_analysis".to_owned(),
            Json::Bool(options.static_analysis),
        ),
        (
            "data_structure_support".to_owned(),
            Json::Bool(options.data_structure_support),
        ),
        (
            "handle_artifact_relations".to_owned(),
            Json::Bool(options.handle_artifact_relations),
        ),
        (
            "check_repeated".to_owned(),
            Json::Bool(options.check_repeated),
        ),
        (
            "search_threads".to_owned(),
            Json::Num(options.search_threads as f64),
        ),
        (
            "limits".to_owned(),
            Json::Obj(vec![
                (
                    "max_states".to_owned(),
                    Json::Num(options.limits.max_states as f64),
                ),
                (
                    "max_millis".to_owned(),
                    Json::Num(options.limits.max_millis as f64),
                ),
            ]),
        ),
    ])
}

fn options_from_json(value: &Json) -> Result<VerifierOptions, VerifasError> {
    let limits = value.require("limits")?;
    Ok(VerifierOptions {
        state_pruning: bool_member(value, "state_pruning")?,
        static_analysis: bool_member(value, "static_analysis")?,
        data_structure_support: bool_member(value, "data_structure_support")?,
        handle_artifact_relations: bool_member(value, "handle_artifact_relations")?,
        check_repeated: bool_member(value, "check_repeated")?,
        search_threads: u64_member(value, "search_threads")? as usize,
        limits: SearchLimits {
            max_states: u64_member(limits, "max_states")? as usize,
            max_millis: u64_member(limits, "max_millis")?,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> VerificationReport {
        VerificationReport {
            property: "never-deny".to_owned(),
            task: "Review".to_owned(),
            outcome: VerificationOutcome::Violated,
            witness: Some(Witness {
                steps: vec![
                    WitnessStep {
                        service: ServiceRef::Opening(TaskId::new(1)),
                        label: "open(Review)".to_owned(),
                    },
                    WitnessStep {
                        service: ServiceRef::Internal {
                            task: TaskId::new(1),
                            index: 0,
                        },
                        label: "Review.decide".to_owned(),
                    },
                    WitnessStep {
                        service: ServiceRef::Closing(TaskId::new(1)),
                        label: "close(Review)".to_owned(),
                    },
                ],
                finite: true,
                description: "open(Review) → Review.decide → close(Review)".to_owned(),
            }),
            stats: SearchStats {
                states_created: 17,
                states_active: 9,
                elapsed_ms: 3,
                threads: 4,
                ..SearchStats::default()
            },
            repeated_stats: Some(SearchStats::default()),
            repeated_cycle: Some(CycleStats {
                states: 9,
                successors: 21,
                candidates: 34,
                edges: 12,
                sccs: 4,
                cyclic_states: 6,
                threads: 4,
                edge_micros: 2_150,
                scc_micros: 480,
                completed: true,
            }),
            workers: vec![
                WorkerStats {
                    worker: 0,
                    nodes_planned: 9,
                    successors_planned: 14,
                    busy_micros: 2_500,
                },
                WorkerStats {
                    worker: 1,
                    nodes_planned: 8,
                    successors_planned: 11,
                    busy_micros: 2_311,
                },
            ],
            schedule: Some(ScheduleStats {
                batch_threads: 4,
                property_index: 2,
                started_ms: 1,
                finished_ms: 9,
                occupancy: vec![
                    OccupancySample {
                        at_ms: 1,
                        threads: 1,
                    },
                    OccupancySample {
                        at_ms: 5,
                        threads: 4,
                    },
                ],
            }),
            options: VerifierOptions::default(),
            cancelled: false,
        }
    }

    #[test]
    fn json_round_trip_preserves_every_field() {
        let report = sample_report();
        let text = report.to_json();
        let parsed = VerificationReport::from_json(&text).unwrap();
        assert_eq!(parsed, report);
        // And the serialization itself is stable.
        assert_eq!(parsed.to_json(), text);
    }

    /// Documents written before `used_index`, `reference_layout`,
    /// `reference_repeated` and the schedule block's `policy` were dropped
    /// still read: unknown members are ignored.
    #[test]
    fn retired_members_are_ignored() {
        let report = sample_report();
        let text = report
            .to_json()
            .replacen("\"edge_micros\"", "\"used_index\":true,\"edge_micros\"", 1)
            .replacen(
                "\"limits\"",
                "\"reference_layout\":false,\"reference_repeated\":true,\"limits\"",
                1,
            )
            .replacen(
                "\"batch_threads\"",
                "\"policy\":\"flat\",\"batch_threads\"",
                1,
            );
        assert!(text.contains("used_index") && text.contains("reference_layout"));
        assert!(text.contains("\"reference_repeated\":true"));
        assert!(text.contains("\"schedule\":{\"policy\":\"flat\""));
        assert_eq!(VerificationReport::from_json(&text).unwrap(), report);
    }

    #[test]
    fn missing_members_are_reported_by_name() {
        let err = VerificationReport::from_json(r#"{"schema":4,"property":"p"}"#).unwrap_err();
        match err {
            VerifasError::MalformedReport { reason } => {
                assert!(reason.contains("task"), "{reason:?}")
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn unsupported_schema_versions_are_rejected() {
        let mut report = sample_report().to_json();
        report = report.replacen("\"schema\":4", "\"schema\":99", 1);
        assert!(matches!(
            VerificationReport::from_json(&report),
            Err(VerifasError::MalformedReport { .. })
        ));
    }
}
