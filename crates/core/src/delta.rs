//! Incremental re-verification on spec deltas.
//!
//! The paper's pitch is *interactive* verification: a designer edits a
//! workflow, re-checks, edits again.  Rebuilding every artefact from
//! scratch on each edit throws away almost all of the previous session's
//! work — the expression universe, the compiled symbolic task, the static
//! analysis, the finished searches.  This module is the IVM-style answer
//! (never recompute what did not change):
//!
//! * [`SpecDelta`] — a structural diff between two lowered
//!   [`HasSpec`]s, computed from per-task *slice hashes* (see
//!   [`slice_hash`]).  A task's slice covers everything its compiled
//!   artefacts can observe: its own definition, its whole subtree, the
//!   database schema, the specification constants and (for the root) the
//!   global pre-condition.  Two equal slices therefore guarantee that the
//!   expression universe, the compiled [`crate::transition::SymbolicTask`]
//!   and the spec-side constraint graph are bit-identical — which is what
//!   lets `Engine::load_delta` carry them over instead of rebuilding.
//! * [`ReuseMode`] — how much a delta-loaded engine may reuse:
//!   [`ReuseMode::Cold`] (nothing) or [`ReuseMode::Preproc`] (carried
//!   preprocessing + prior [`crate::report::VerificationReport`]s for
//!   unchanged (task slice, property, options) keys).
//!
//! This module only *reports* which slices are unchanged; what a session
//! carries over is decided by `Engine::load_delta` alone, which counts
//! what it carried in a [`DeltaSummary`].

use crate::transition::spec_constants;
use std::fmt;
use verifas_model::{HasSpec, TaskId};

/// How much a delta-loaded engine reuses from its predecessor session
/// (see `Engine::load_delta`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReuseMode {
    /// No reuse: behave exactly like a freshly loaded engine.
    Cold,
    /// Carry the spec-side preprocessing of unchanged task slices and
    /// answer unchanged (task, property, options) requests from the prior
    /// session's reports.
    #[default]
    Preproc,
}

impl ReuseMode {
    /// The wire/CLI name of the mode.
    pub fn name(self) -> &'static str {
        match self {
            ReuseMode::Cold => "cold",
            ReuseMode::Preproc => "preproc",
        }
    }

    /// Parse a wire/CLI name.
    pub fn from_name(name: &str) -> Option<ReuseMode> {
        match name {
            "cold" => Some(ReuseMode::Cold),
            "preproc" => Some(ReuseMode::Preproc),
            _ => None,
        }
    }
}

impl fmt::Display for ReuseMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// FNV-1a over the canonical `Debug` rendering of a value — the same
/// canonical-structural-hash idiom as [`crate::engine::spec_hash`].
/// Equal structures render (and therefore hash) equally; stable for one
/// build of the library, which is the lifetime of every in-memory cache
/// keyed by it.
pub fn fingerprint<T: fmt::Debug + ?Sized>(value: &T) -> u64 {
    use std::fmt::Write;
    struct Fnv(u64);
    impl Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for byte in s.bytes() {
                self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut fnv = Fnv(0xcbf2_9ce4_8422_2325);
    write!(fnv, "{value:?}").expect("writing to a hasher cannot fail");
    fnv.0
}

/// The slice hash of one task: a fingerprint of *everything the task's
/// compiled verification artefacts can observe*.  Two specs whose task
/// `T` has equal slice hashes produce bit-identical expression universes,
/// compiled symbolic tasks and spec-side constraint graphs for `T`:
///
/// * the task's own definition (variables, services with their pre/post
///   conditions, artifact relations, opening/closing guards) and its id,
/// * the full definition and id of every descendant (their opening
///   guards and closing output maps are compiled into the parent's
///   transition system; ids appear in [`verifas_model::ServiceRef`]s),
/// * the database schema (expression universes navigate it),
/// * the specification constants (every universe contains all of them,
///   wherever in the spec they occur — see
///   [`crate::transition::spec_constants`]),
/// * the spec name (it is embedded in every report), and
/// * for the root task, the global pre-condition (compiled into the
///   initial instances; for other tasks only its constants matter and
///   those are already covered).
pub fn slice_hash(spec: &HasSpec, task: TaskId) -> u64 {
    let mut rendering = format!("{:?};{:?};{:?}", spec.name, task, spec.task(task));
    let mut descendants = spec.descendants(task);
    descendants.sort();
    for d in descendants {
        rendering.push_str(&format!(";{:?}={:?}", d, spec.task(d)));
    }
    rendering.push_str(&format!(";db={:?}", spec.db));
    rendering.push_str(&format!(";consts={:?}", spec_constants(spec)));
    if task == spec.root() {
        rendering.push_str(&format!(";global_pre={:?}", spec.global_pre));
    }
    fingerprint(rendering.as_str())
}

/// The per-task entry of a [`SpecDelta`]: whether the task's whole
/// *slice* (the reuse unit — see [`slice_hash`]) is untouched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskDelta {
    /// The task's name in the new specification.
    pub name: String,
    /// `true` iff the task's whole slice hash is unchanged — the
    /// condition under which its preprocessing and reports carry over.
    pub unchanged: bool,
}

/// A structural diff between two lowered specifications, computed by
/// [`SpecDelta::diff`].  Indexed by the *new* specification's task ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecDelta {
    /// Per-task deltas, indexed by the new spec's [`TaskId`]s.
    pub tasks: Vec<TaskDelta>,
}

impl SpecDelta {
    /// Diff `new` against `old`.  A task is matched by id, name and
    /// parent; an unmatched task is never unchanged.
    pub fn diff(old: &HasSpec, new: &HasSpec) -> SpecDelta {
        let tasks = new
            .iter_tasks()
            .map(|(id, task)| TaskDelta {
                name: task.name.clone(),
                unchanged: old
                    .tasks
                    .get(id.index())
                    .is_some_and(|o| o.name == task.name && o.parent == task.parent)
                    && slice_hash(new, id) == slice_hash(old, id),
            })
            .collect();
        SpecDelta { tasks }
    }

    /// `true` iff `task` (a new-spec id) has an unchanged slice, so its
    /// preprocessing and prior reports are valid verbatim.
    pub fn task_unchanged(&self, task: TaskId) -> bool {
        self.tasks.get(task.index()).is_some_and(|t| t.unchanged)
    }

    /// Number of tasks with unchanged slices.
    pub fn unchanged_tasks(&self) -> usize {
        self.tasks.iter().filter(|t| t.unchanged).count()
    }

    /// `true` iff the prior session is worth upgrading from: at least one
    /// task slice survives the edit.  `verifas serve` uses this to pick a
    /// delta-compatible base among its cached sessions instead of
    /// requiring exact spec-hash equality.
    pub fn compatible(&self) -> bool {
        self.unchanged_tasks() > 0
    }
}

/// What `Engine::load_delta` reused from the prior session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaSummary {
    /// The reuse mode of the new engine.
    pub mode: ReuseMode,
    /// Tasks in the new specification.
    pub tasks: usize,
    /// Tasks whose slice (and therefore preprocessing) is unchanged.
    pub tasks_unchanged: usize,
    /// Preprocessing cache entries carried over (not rebuilt).
    pub preps_carried: usize,
    /// Finished verification reports carried over.
    pub reports_carried: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use verifas_model::schema::attr::data;
    use verifas_model::{Condition, DatabaseSchema, SpecBuilder, TaskBuilder, Term};

    fn two_task_spec(child_value: &str) -> HasSpec {
        let mut db = DatabaseSchema::new();
        db.add_relation("R", vec![data("a")]).unwrap();
        let mut root = TaskBuilder::new("Root");
        let status = root.data_var("status");
        // Receives the child's output by same-name wiring.
        let _result = root.data_var("result");
        root.service_parts(
            "go",
            Condition::eq(Term::var(status), Term::Null),
            Condition::eq(Term::var(status), Term::str("Done")),
            vec![],
            None,
        );
        let mut b = SpecBuilder::new("delta", db, root.build());
        let mut child = TaskBuilder::new("Child");
        let r = child.data_var("result");
        child.outputs([r]);
        child.opening_pre(Condition::True);
        child.closing_pre(Condition::eq(Term::var(r), Term::str(child_value)));
        b.add_child("Root", child.build()).unwrap();
        b.global_pre(Condition::eq(Term::var(status), Term::Null));
        b.build().unwrap()
    }

    #[test]
    fn identical_specs_diff_as_fully_unchanged() {
        let spec = two_task_spec("Ok");
        let delta = SpecDelta::diff(&spec, &spec.clone());
        assert_eq!(delta.tasks.len(), 2);
        assert!(delta.tasks.iter().all(|t| t.unchanged));
        assert_eq!(delta.unchanged_tasks(), 2);
        assert!(delta.compatible());
    }

    #[test]
    fn a_child_edit_invalidates_the_ancestors_but_not_unrelated_facets() {
        let old = two_task_spec("Ok");
        let new = two_task_spec("Changed");
        let delta = SpecDelta::diff(&old, &new);
        // The child's own guard changed, and the root's slice includes
        // its subtree, so nothing is reusable.
        assert!(!delta.tasks[0].unchanged);
        assert!(!delta.task_unchanged(TaskId::new(0)));
        assert!(!delta.tasks[1].unchanged);
        assert!(!delta.task_unchanged(TaskId::new(1)));
        // The constant "Changed" enters the spec constants, which every
        // slice observes — so incompatibility is expected here.
        assert!(!delta.compatible());
    }

    #[test]
    fn a_root_service_edit_leaves_the_child_slice_intact() {
        let old = two_task_spec("Ok");
        let mut new = two_task_spec("Ok");
        // Widen the root's post-condition without introducing or dropping
        // any constant, so the shared constant set stays stable.
        new.tasks[0].services[0].post = Condition::or([
            Condition::eq(Term::var(verifas_model::VarId::new(0)), Term::str("Done")),
            Condition::eq(Term::var(verifas_model::VarId::new(0)), Term::str("Ok")),
        ]);
        let delta = SpecDelta::diff(&old, &new);
        assert!(!delta.tasks[0].unchanged);
        assert!(delta.tasks[1].unchanged, "child slice must survive");
        assert!(delta.compatible());
        assert!(delta.task_unchanged(TaskId::new(1)));
        assert!(!delta.task_unchanged(TaskId::new(0)));
    }

    #[test]
    fn renames_and_schema_edits_are_reported() {
        let old = two_task_spec("Ok");
        let mut renamed = old.clone();
        renamed.name = "delta2".to_owned();
        let delta = SpecDelta::diff(&old, &renamed);
        // The spec name is part of every slice (reports embed it).
        assert_eq!(delta.unchanged_tasks(), 0);
        assert!(!delta.compatible());

        let mut reschema = old.clone();
        reschema.db.add_relation("S", vec![data("b")]).unwrap();
        let delta = SpecDelta::diff(&old, &reschema);
        assert_eq!(delta.unchanged_tasks(), 0);
        assert!(!delta.compatible());
    }

    #[test]
    fn added_and_removed_tasks_are_counted() {
        let one = {
            let mut db = DatabaseSchema::new();
            db.add_relation("R", vec![data("a")]).unwrap();
            let mut root = TaskBuilder::new("Root");
            let _ = root.data_var("status");
            SpecBuilder::new("delta", db, root.build()).build().unwrap()
        };
        let two = two_task_spec("Ok");
        // An added task is never unchanged, and its parent's subtree moved.
        let grown = SpecDelta::diff(&one, &two);
        assert_eq!(grown.tasks.len(), 2);
        assert!(!grown.task_unchanged(TaskId::new(1)));
        assert!(!grown.compatible());
        // A removed task is gone from the diff, and its parent's subtree
        // moved with it.
        let shrunk = SpecDelta::diff(&two, &one);
        assert_eq!(shrunk.tasks.len(), 1);
        assert!(!shrunk.compatible());
    }

    #[test]
    fn reuse_modes_round_trip_by_name() {
        for mode in [ReuseMode::Cold, ReuseMode::Preproc] {
            assert_eq!(ReuseMode::from_name(mode.name()), Some(mode));
            assert_eq!(mode.to_string(), mode.name());
        }
        assert_eq!(ReuseMode::from_name("replay"), None);
    }

    #[test]
    fn fingerprints_are_stable_and_structural() {
        let spec = two_task_spec("Ok");
        assert_eq!(fingerprint(&spec), fingerprint(&spec.clone()));
        assert_eq!(
            slice_hash(&spec, spec.root()),
            slice_hash(&spec.clone(), spec.root())
        );
        assert_ne!(
            slice_hash(&spec, TaskId::new(0)),
            slice_hash(&spec, TaskId::new(1))
        );
    }
}
