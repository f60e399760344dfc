//! Symbolic transitions of a single task (Section 3.2 and Appendix A
//! "Symbolic Transitions").
//!
//! [`SymbolicTask`] pre-compiles every service observable in local runs of
//! the verified task — its internal services, the opening/closing services
//! of its children and its own closing service — into expression-level DNF,
//! projection sets and stored-tuple rename maps.  [`SymbolicTask::successors`]
//! then computes `succ(I)` for a partial symbolic instance `I`:
//!
//! * **internal service** (children must be inactive): extend the type with
//!   a pre-condition conjunct, project onto the propagated variables (plus
//!   globals and constants), extend with a post-condition conjunct, then
//!   apply the artifact-relation update — an insertion increments the
//!   counter of the inserted tuple's type, a retrieval nondeterministically
//!   picks a stored type with positive count, decrements it and conjoins the
//!   retrieved constraints onto the retrieval variables;
//! * **opening of a child**: extend with the opening guard (a condition on
//!   this task's variables) and mark the child active;
//! * **closing of a child**: drop the constraints on the variables
//!   overwritten by the child's output (they are lazily re-constrained by
//!   later conditions) and mark the child inactive;
//! * **own closing service** (non-root tasks): extend with the closing
//!   guard; the resulting instance ends the local run.

use crate::eval::{compile_condition, eval_extensions, CompiledCondition};
use crate::expr::{ExprHead, ExprId, ExprUniverse};
use crate::pit::{Edge, Pit, PitBuilder};
use crate::psi::{InternTypes, Psi};
use std::collections::{BTreeSet, HashMap, HashSet};
use verifas_model::{
    ArtRelId, Condition, DataValue, HasSpec, ServiceRef, TaskId, Update, VarId, VarRef, VarType,
};

/// A pre-compiled artifact-relation update.
#[derive(Debug, Clone)]
struct CompiledUpdate {
    rel: ArtRelId,
    insert: bool,
    /// Expressions kept when projecting the tuple type out of the current
    /// type (headed by the update variables, constants or `null`).
    tuple_keep: HashSet<ExprId>,
    /// Rename map from update-variable-headed expressions to slot-headed
    /// expressions (identity on constants and `null`).
    var_to_slot: HashMap<ExprId, ExprId>,
    /// Inverse map used on retrieval.
    slot_to_var: HashMap<ExprId, ExprId>,
}

/// A pre-compiled observable service.
#[derive(Debug, Clone)]
enum ServiceKind {
    Internal {
        pre: CompiledCondition,
        post: CompiledCondition,
        keep: HashSet<ExprId>,
        update: Option<CompiledUpdate>,
    },
    OpenChild {
        child_index: usize,
        pre: CompiledCondition,
    },
    CloseChild {
        child_index: usize,
        /// Expressions to drop (headed by the parent variables overwritten
        /// by the child's output).
        keep: HashSet<ExprId>,
    },
    CloseSelf {
        pre: CompiledCondition,
    },
}

/// One observable service, compiled.
#[derive(Debug, Clone)]
pub struct SymbolicService {
    /// The service reference (used for LTL service propositions and for
    /// counterexample reporting).
    pub service: ServiceRef,
    kind: ServiceKind,
}

/// The symbolic transition system of one task.
#[derive(Debug, Clone)]
pub struct SymbolicTask {
    /// The underlying specification.
    pub spec: HasSpec,
    /// The verified task.
    pub task: TaskId,
    /// The expression universe of the task (plus property globals).
    pub universe: ExprUniverse,
    /// Whether artifact relations are handled (`false` = the `NoSet`
    /// configuration: updates are ignored).
    pub include_sets: bool,
    services: Vec<SymbolicService>,
    initial_condition: CompiledCondition,
    initial_null_vars: Vec<ExprId>,
    /// Edges proved non-violating by the static analysis (dropped from
    /// every computed type).
    pub static_removed: HashSet<Edge>,
}

impl SymbolicTask {
    /// Build the symbolic transition system for `task` of `spec`.
    ///
    /// `extra_conditions` are the FO conditions of the property being
    /// verified (their constants must be part of the expression universe);
    /// `global_types` are the types of the property's global variables.
    pub fn new(
        spec: &HasSpec,
        task: TaskId,
        extra_conditions: &[Condition],
        global_types: &[VarType],
        include_sets: bool,
    ) -> Self {
        let mut constants = spec_constants(spec);
        for c in extra_conditions {
            constants.extend(c.constants());
        }
        let universe = ExprUniverse::build(spec, task, global_types, &constants);
        Self::with_universe(spec, task, universe, include_sets)
    }

    /// Build the symbolic transition system against a pre-built expression
    /// universe.  The universe must contain every constant of the
    /// specification (see [`spec_constants`]) and of any property that will
    /// be verified against this task — `verifas::Engine` uses this to build
    /// the universe once and share the compiled task across the properties
    /// of a batch.
    pub fn with_universe(
        spec: &HasSpec,
        task: TaskId,
        universe: ExprUniverse,
        include_sets: bool,
    ) -> Self {
        let task_def = spec.task(task);

        // Expressions that always survive projection: constants, null and
        // the property's global variables (they are rigid).
        let persistent: HashSet<ExprId> = universe
            .headed_by(|h| {
                matches!(h, ExprHead::Null | ExprHead::Const(_))
                    || matches!(h, ExprHead::Var(VarRef::Global(_)))
            })
            .into_iter()
            .collect();
        let headed_by_vars = |vars: &[VarId]| -> HashSet<ExprId> {
            let set: BTreeSet<VarId> = vars.iter().copied().collect();
            universe
                .headed_by(|h| matches!(h, ExprHead::Var(VarRef::Task(v)) if set.contains(v)))
                .into_iter()
                .collect()
        };

        let mut services = Vec::new();
        // Internal services.
        for (index, svc) in task_def.services.iter().enumerate() {
            let mut keep: HashSet<ExprId> = persistent.clone();
            keep.extend(headed_by_vars(&svc.propagated));
            let update = if include_sets {
                svc.update
                    .as_ref()
                    .map(|u| compile_update(&universe, task_def, u, &persistent))
            } else {
                None
            };
            services.push(SymbolicService {
                service: ServiceRef::Internal { task, index },
                kind: ServiceKind::Internal {
                    pre: compile_condition(&svc.pre, &universe),
                    post: compile_condition(&svc.post, &universe),
                    keep,
                    update,
                },
            });
        }
        // Children opening/closing services.
        for (child_index, &child) in task_def.children.iter().enumerate() {
            let child_def = spec.task(child);
            services.push(SymbolicService {
                service: ServiceRef::Opening(child),
                kind: ServiceKind::OpenChild {
                    child_index,
                    pre: compile_condition(&child_def.opening.pre, &universe),
                },
            });
            // Parent variables overwritten when the child returns.
            let returned: Vec<VarId> = child_def
                .closing
                .output_map
                .iter()
                .map(|(_, pv)| *pv)
                .collect();
            let dropped = headed_by_vars(&returned);
            let keep: HashSet<ExprId> = universe
                .headed_by(|_| true)
                .into_iter()
                .filter(|e| !dropped.contains(e))
                .collect();
            services.push(SymbolicService {
                service: ServiceRef::Closing(child),
                kind: ServiceKind::CloseChild { child_index, keep },
            });
        }
        // The task's own closing service (never fires for the root, whose
        // closing condition is `false`).
        if task != spec.root() {
            services.push(SymbolicService {
                service: ServiceRef::Closing(task),
                kind: ServiceKind::CloseSelf {
                    pre: compile_condition(&task_def.closing.pre, &universe),
                },
            });
        }
        // Initial configuration.
        let (initial_condition, initial_null_vars) = if task == spec.root() {
            (compile_condition(&spec.global_pre, &universe), Vec::new())
        } else {
            let inputs: BTreeSet<VarId> = task_def.input_vars.iter().copied().collect();
            let nulls = task_def
                .iter_vars()
                .filter(|(v, _)| !inputs.contains(v))
                .filter_map(|(v, _)| universe.var_expr(VarRef::Task(v)))
                .collect();
            (CompiledCondition::trivial(), nulls)
        };
        SymbolicTask {
            spec: spec.clone(),
            task,
            universe,
            include_sets,
            services,
            initial_condition,
            initial_null_vars,
            static_removed: HashSet::new(),
        }
    }

    /// The compiled observable services (in a fixed order: internal
    /// services, then children opening/closing pairs, then the own closing
    /// service).
    pub fn services(&self) -> &[SymbolicService] {
        &self.services
    }

    /// The opening service of the verified task (the first letter of every
    /// local run).
    pub fn opening_service(&self) -> ServiceRef {
        ServiceRef::Opening(self.task)
    }

    /// `true` iff `service` is the verified task's own closing service.
    pub fn is_own_closing(&self, service: ServiceRef) -> bool {
        service == ServiceRef::Closing(self.task)
    }

    /// The partial isomorphism types of the initial instance: for the root
    /// task, the minimal extensions of the empty type satisfying the global
    /// pre-condition; for other tasks, all non-input variables are `null`
    /// and the (parent-provided) input variables are unconstrained.
    pub fn initial_pits(&self) -> Vec<Pit> {
        let mut base = PitBuilder::new(&self.universe);
        let null = self.universe.null_expr();
        for &v in &self.initial_null_vars {
            base.assert_eq(v, null);
        }
        let base = base
            .finish()
            .expect("null initialisation is always consistent");
        eval_extensions(
            &base,
            &self.initial_condition,
            &self.universe,
            &self.static_removed,
        )
    }

    /// `succ(I)`: every successor of the partial symbolic instance under
    /// one application of an observable service, together with the service
    /// that produced it.
    pub fn successors(&self, psi: &Psi, interner: &mut dyn InternTypes) -> Vec<(ServiceRef, Psi)> {
        let mut out = Vec::new();
        // Internal pre-conditions are evaluated with nothing removed, and a
        // state type has gaps where the static analysis dropped edges, so
        // `eval_extensions` gets the closed state type there (its
        // precondition).  The results are unchanged, because
        // closure(A ∪ c) = closure(closure(A) ∪ c).
        let closed;
        let pre_input = if psi.no_child_active() && !self.static_removed.is_empty() {
            closed = PitBuilder::from_pit(&self.universe, &psi.pit)
                .finish()
                .expect("a state type re-closes consistently");
            &closed
        } else {
            &psi.pit
        };
        for svc in &self.services {
            match &svc.kind {
                ServiceKind::Internal {
                    pre,
                    post,
                    keep,
                    update,
                } => {
                    if !psi.no_child_active() {
                        continue;
                    }
                    for tau0 in eval_extensions(pre_input, pre, &self.universe, &HashSet::new()) {
                        let tau1 = tau0.project(|e| keep.contains(&e));
                        for tau2 in
                            eval_extensions(&tau1, post, &self.universe, &self.static_removed)
                        {
                            match update {
                                None => out.push((
                                    svc.service,
                                    Psi {
                                        pit: tau2.clone(),
                                        counters: psi.counters.clone(),
                                        child_active: psi.child_active,
                                    },
                                )),
                                Some(u) if u.insert => {
                                    let tuple = tau0.project(|e| u.tuple_keep.contains(&e));
                                    let stored =
                                        tuple.rename(&self.universe, &u.var_to_slot).expect(
                                            "renaming a consistent tuple type stays consistent",
                                        );
                                    let id = interner.intern(u.rel, stored);
                                    out.push((
                                        svc.service,
                                        Psi {
                                            pit: tau2.clone(),
                                            counters: psi.counters.incremented(id),
                                            child_active: psi.child_active,
                                        },
                                    ));
                                }
                                Some(u) => {
                                    // Retrieval: pick any stored type of this
                                    // relation with a positive count.
                                    for (tid, _count) in psi.counters.iter() {
                                        let (rel, stored) = interner.get(tid);
                                        if *rel != u.rel {
                                            continue;
                                        }
                                        let Some(retrieved) =
                                            stored.rename(&self.universe, &u.slot_to_var)
                                        else {
                                            continue;
                                        };
                                        let Some(tau3) = tau2.conjoin(&retrieved, &self.universe)
                                        else {
                                            continue;
                                        };
                                        let Some(counters) = psi.counters.decremented(tid) else {
                                            continue;
                                        };
                                        out.push((
                                            svc.service,
                                            Psi {
                                                pit: tau3.without_edges(&self.static_removed),
                                                counters,
                                                child_active: psi.child_active,
                                            },
                                        ));
                                    }
                                }
                            }
                        }
                    }
                }
                ServiceKind::OpenChild { child_index, pre } => {
                    if psi.child_is_active(*child_index) {
                        continue;
                    }
                    for tau in eval_extensions(&psi.pit, pre, &self.universe, &self.static_removed)
                    {
                        out.push((
                            svc.service,
                            Psi {
                                pit: tau,
                                counters: psi.counters.clone(),
                                child_active: psi.child_active | (1 << child_index),
                            },
                        ));
                    }
                }
                ServiceKind::CloseChild { child_index, keep } => {
                    if !psi.child_is_active(*child_index) {
                        continue;
                    }
                    let tau = psi.pit.project(|e| keep.contains(&e));
                    out.push((
                        svc.service,
                        Psi {
                            pit: tau,
                            counters: psi.counters.clone(),
                            child_active: psi.child_active & !(1 << child_index),
                        },
                    ));
                }
                ServiceKind::CloseSelf { pre } => {
                    if !psi.no_child_active() {
                        continue;
                    }
                    for tau in eval_extensions(&psi.pit, pre, &self.universe, &self.static_removed)
                    {
                        out.push((
                            svc.service,
                            Psi {
                                pit: tau,
                                counters: psi.counters.clone(),
                                child_active: psi.child_active,
                            },
                        ));
                    }
                }
            }
        }
        out
    }
}

/// Every constant occurring in the conditions of a specification (service
/// pre/post conditions, opening/closing guards, the global pre-condition).
///
/// The expression universe of a verified task must contain at least these,
/// plus the constants of the property being verified.
pub fn spec_constants(spec: &HasSpec) -> BTreeSet<DataValue> {
    let mut constants: BTreeSet<DataValue> = BTreeSet::new();
    for t in &spec.tasks {
        for svc in &t.services {
            constants.extend(svc.pre.constants());
            constants.extend(svc.post.constants());
        }
        constants.extend(t.opening.pre.constants());
        constants.extend(t.closing.pre.constants());
    }
    constants.extend(spec.global_pre.constants());
    constants
}

fn compile_update(
    universe: &ExprUniverse,
    task_def: &verifas_model::Task,
    update: &Update,
    persistent: &HashSet<ExprId>,
) -> CompiledUpdate {
    let rel = update.relation();
    let vars = update.vars();
    let mut tuple_keep = persistent.clone();
    let mut var_to_slot = HashMap::new();
    let mut slot_to_var = HashMap::new();
    // Constants and null map to themselves in both directions.
    for e in persistent {
        var_to_slot.insert(*e, *e);
        slot_to_var.insert(*e, *e);
    }
    for (col, &v) in vars.iter().enumerate() {
        let var_head = ExprHead::Var(VarRef::Task(v));
        let slot_head = ExprHead::Slot(rel, col as u32);
        for e in universe.headed_by(|h| *h == var_head) {
            tuple_keep.insert(e);
            if let Some(slot_e) = universe.rebase(e, &var_head, &slot_head) {
                var_to_slot.insert(e, slot_e);
                slot_to_var.insert(slot_e, e);
            }
        }
    }
    let _ = task_def;
    CompiledUpdate {
        rel,
        insert: update.is_insert(),
        tuple_keep,
        var_to_slot,
        slot_to_var,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::psi::StoredTypeInterner;
    use verifas_model::schema::attr::data;
    use verifas_model::{DatabaseSchema, SpecBuilder, TaskBuilder, Term};

    /// A single-task workflow with a pool: start sets status, stash stores
    /// it and resets, unstash retrieves it.
    fn pool_spec() -> HasSpec {
        let mut db = DatabaseSchema::new();
        db.add_relation("R", vec![data("a")]).unwrap();
        let mut root = TaskBuilder::new("Root");
        let status = root.data_var("status");
        let pool = root.art_relation_like("POOL", &[status]);
        root.service_parts(
            "start",
            Condition::eq(Term::var(status), Term::Null),
            Condition::eq(Term::var(status), Term::str("Working")),
            vec![],
            None,
        );
        root.service_parts(
            "stash",
            Condition::eq(Term::var(status), Term::str("Working")),
            Condition::eq(Term::var(status), Term::Null),
            vec![],
            Some(Update::Insert {
                rel: pool,
                vars: vec![status],
            }),
        );
        root.service_parts(
            "unstash",
            Condition::eq(Term::var(status), Term::Null),
            Condition::True,
            vec![],
            Some(Update::Retrieve {
                rel: pool,
                vars: vec![status],
            }),
        );
        let mut b = SpecBuilder::new("pool", db, root.build());
        b.global_pre(Condition::eq(Term::var(status), Term::Null));
        b.build().unwrap()
    }

    #[test]
    fn initial_pits_satisfy_the_global_precondition() {
        let spec = pool_spec();
        let st = SymbolicTask::new(&spec, spec.root(), &[], &[], true);
        let pits = st.initial_pits();
        assert_eq!(pits.len(), 1);
        let status = st.universe.var_expr(VarRef::Task(VarId::new(0))).unwrap();
        assert!(pits[0].contains(Edge::eq(status, st.universe.null_expr())));
    }

    #[test]
    fn insert_and_retrieve_round_trip_constraints_through_counters() {
        let spec = pool_spec();
        let st = SymbolicTask::new(&spec, spec.root(), &[], &[], true);
        let mut interner = StoredTypeInterner::new();
        let status = st.universe.var_expr(VarRef::Task(VarId::new(0))).unwrap();
        let working = st.universe.const_expr(&DataValue::str("Working")).unwrap();

        let initial = Psi::with_pit(st.initial_pits().remove(0));
        // start: only the "start" service applies (status = null holds).
        let succs = st.successors(&initial, &mut interner);
        let started: Vec<&Psi> = succs
            .iter()
            .filter(|(s, _)| matches!(s, ServiceRef::Internal { index: 0, .. }))
            .map(|(_, p)| p)
            .collect();
        assert_eq!(started.len(), 1);
        assert!(started[0].pit.contains(Edge::eq(status, working)));

        // stash: inserts a tuple whose stored type records status = "Working".
        let succs = st.successors(started[0], &mut interner);
        let stashed: Vec<&Psi> = succs
            .iter()
            .filter(|(s, _)| matches!(s, ServiceRef::Internal { index: 1, .. }))
            .map(|(_, p)| p)
            .collect();
        assert_eq!(stashed.len(), 1);
        assert_eq!(stashed[0].counters.total(), 1);
        assert!(stashed[0]
            .pit
            .contains(Edge::eq(status, st.universe.null_expr())));
        let (_, stored_type) = interner.get(stashed[0].counters.iter().next().unwrap().0);
        let slot = st.universe.slot_expr(ArtRelId::new(0), 0).unwrap();
        assert!(stored_type.contains(Edge::eq(slot, working)));

        // unstash: the retrieved tuple re-imposes status = "Working".
        let succs = st.successors(stashed[0], &mut interner);
        let unstashed: Vec<&Psi> = succs
            .iter()
            .filter(|(s, _)| matches!(s, ServiceRef::Internal { index: 2, .. }))
            .map(|(_, p)| p)
            .collect();
        assert_eq!(unstashed.len(), 1);
        assert_eq!(unstashed[0].counters.total(), 0);
        assert!(unstashed[0].pit.contains(Edge::eq(status, working)));
    }

    #[test]
    fn retrieval_from_empty_counters_produces_no_successor() {
        let spec = pool_spec();
        let st = SymbolicTask::new(&spec, spec.root(), &[], &[], true);
        let mut interner = StoredTypeInterner::new();
        let initial = Psi::with_pit(st.initial_pits().remove(0));
        let succs = st.successors(&initial, &mut interner);
        assert!(succs
            .iter()
            .all(|(s, _)| !matches!(s, ServiceRef::Internal { index: 2, .. })));
    }

    #[test]
    fn noset_mode_ignores_artifact_relation_updates() {
        let spec = pool_spec();
        let st = SymbolicTask::new(&spec, spec.root(), &[], &[], false);
        let mut interner = StoredTypeInterner::new();
        let initial = Psi::with_pit(st.initial_pits().remove(0));
        let succs = st.successors(&initial, &mut interner);
        // In NoSet mode the retrieval service behaves like a plain internal
        // service (its pre-condition status = null holds initially).
        assert!(succs
            .iter()
            .any(|(s, _)| matches!(s, ServiceRef::Internal { index: 2, .. })));
        // And insertions do not touch counters.
        let started = succs
            .iter()
            .find(|(s, _)| matches!(s, ServiceRef::Internal { index: 0, .. }))
            .unwrap()
            .1
            .clone();
        let succs = st.successors(&started, &mut interner);
        let stashed = succs
            .iter()
            .find(|(s, _)| matches!(s, ServiceRef::Internal { index: 1, .. }))
            .unwrap();
        assert_eq!(stashed.1.counters.total(), 0);
        assert_eq!(interner.len(), 0);
    }

    #[test]
    fn child_open_close_toggles_activity_and_drops_returned_constraints() {
        // Root with a child returning into the root's `result` variable.
        let mut db = DatabaseSchema::new();
        db.add_relation("R", vec![data("a")]).unwrap();
        let mut root = TaskBuilder::new("Root");
        let result = root.data_var("result");
        root.service_parts(
            "consume",
            Condition::eq(Term::var(result), Term::str("Done")),
            Condition::eq(Term::var(result), Term::Null),
            vec![],
            None,
        );
        let mut b = SpecBuilder::new("pc", db, root.build());
        let mut child = TaskBuilder::new("Child");
        let r = child.data_var("result");
        child.outputs([r]);
        child.opening_pre(Condition::eq(Term::var(result), Term::Null));
        child.closing_pre(Condition::neq(Term::var(r), Term::Null));
        child.service_parts(
            "work",
            Condition::True,
            Condition::eq(Term::var(r), Term::str("Done")),
            vec![],
            None,
        );
        b.add_child("Root", child.build()).unwrap();
        b.global_pre(Condition::eq(Term::var(result), Term::Null));
        let spec = b.build().unwrap();

        let st = SymbolicTask::new(&spec, spec.root(), &[], &[], true);
        let mut interner = StoredTypeInterner::new();
        let initial = Psi::with_pit(st.initial_pits().remove(0));
        // Only the child opening applies initially (consume's pre fails).
        let succs = st.successors(&initial, &mut interner);
        assert_eq!(succs.len(), 1);
        let (svc, opened) = &succs[0];
        assert!(matches!(svc, ServiceRef::Opening(t) if t.index() == 1));
        assert!(opened.child_is_active(0));
        // While the child is active, no internal service applies; only the
        // child's closing.
        let succs = st.successors(opened, &mut interner);
        assert_eq!(succs.len(), 1);
        let (svc, closed) = &succs[0];
        assert!(matches!(svc, ServiceRef::Closing(t) if t.index() == 1));
        assert!(closed.no_child_active());
        // The constraint result = null was dropped by the child's return, so
        // `consume` (which needs result = "Done") becomes possible.
        let succs = st.successors(closed, &mut interner);
        assert!(succs
            .iter()
            .any(|(s, _)| matches!(s, ServiceRef::Internal { index: 0, .. })));
    }
}
