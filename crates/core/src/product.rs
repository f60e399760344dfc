//! Product of the symbolic transition system with the Büchi automaton of
//! the negated property (Section 3.2, "Verification therefore amounts to
//! solving the SRR problem").
//!
//! A product state pairs a partial symbolic instance with a state of the
//! violation automaton (the Büchi automaton of the negated,
//! finite-trace-embedded property).  Product transitions interleave a
//! symbolic transition with an automaton transition whose label is
//! *enforced* on the new instance:
//!
//! * service propositions must match the service that caused the
//!   transition,
//! * condition propositions required true (resp. false) extend the new type
//!   with the condition (resp. its negation) through `eval`,
//! * the reserved `alive` proposition is true on every real transition.
//!
//! A product state reached by the verified task's own closing service ends
//! the local run; it is a *finite violation* iff the automaton can complete
//! an accepting run on the infinite padding that follows (pre-computed per
//! automaton state).  Infinite violations are accepting cycles found by the
//! repeated-reachability analysis.

use crate::eval::{compile_condition, extend_all, CompiledCondition};
use crate::pit::Pit;
use crate::psi::{InternTypes, Psi, StoredTypeId};
use crate::transition::SymbolicTask;
use std::collections::HashSet;
use verifas_ltl::{LtlFoProperty, PropAtom, PropertyAutomaton};
use verifas_model::{Condition, HasSpec, ModelError, ServiceRef};

/// A state of the product system.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProductState {
    /// The partial symbolic instance.
    pub psi: Psi,
    /// The violation-automaton state.
    pub buchi: usize,
    /// `true` iff the local run has ended (the task closed); closed states
    /// have no successors.
    pub closed: bool,
}

/// A borrowed, allocation-free view of a product state: the shape every
/// coverage test and index query operates on, so states kept in the
/// structure-of-arrays [`crate::arena::StateArena`] can be compared
/// without materialising owned [`ProductState`] values.
#[derive(Debug, Clone, Copy)]
pub struct StateView<'a> {
    /// The partial isomorphism type.
    pub pit: &'a Pit,
    /// The stored-tuple counters: non-zero entries sorted by type id.
    pub counters: &'a [(StoredTypeId, u32)],
    /// Bitmask over the task's children: bit `i` set iff active.
    pub child_active: u64,
    /// The violation-automaton state.
    pub buchi: usize,
    /// `true` iff the local run has ended.
    pub closed: bool,
}

impl ProductState {
    /// A borrowed view of this state.
    pub fn view(&self) -> StateView<'_> {
        StateView {
            pit: &self.psi.pit,
            counters: self.psi.counters.as_slice(),
            child_active: self.psi.child_active,
            buchi: self.buchi,
            closed: self.closed,
        }
    }
}

/// One product successor.
#[derive(Debug, Clone)]
pub struct ProductSuccessor {
    /// The observable service that caused the transition.
    pub service: ServiceRef,
    /// The successor state.
    pub state: ProductState,
    /// `true` iff the transition closes the task and the automaton accepts
    /// the padded continuation — i.e. a *finite* violating local run has
    /// been found.
    pub finite_violation: bool,
}

/// The product system explored by the Karp–Miller search.
#[derive(Debug, Clone)]
pub struct ProductSystem {
    /// The compiled symbolic task.
    pub task: SymbolicTask,
    /// The violation automaton of the property.
    pub automaton: PropertyAutomaton,
    /// The property being verified.
    pub property: LtlFoProperty,
    prop_pos: Vec<Option<CompiledCondition>>,
    prop_neg: Vec<Option<CompiledCondition>>,
    prop_service: Vec<Option<ServiceRef>>,
}

impl ProductSystem {
    /// Build the product system for a property of a task of `spec`.
    ///
    /// `include_sets = false` gives the `VERIFAS-NoSet` configuration
    /// (artifact-relation updates ignored).
    pub fn new(
        spec: &HasSpec,
        property: &LtlFoProperty,
        include_sets: bool,
    ) -> Result<Self, ModelError> {
        property.validate(spec)?;
        let conditions: Vec<Condition> = property
            .props
            .iter()
            .filter_map(|p| match p {
                PropAtom::Condition(c) => Some(c.clone()),
                PropAtom::Service(_) => None,
            })
            .collect();
        let task = SymbolicTask::new(
            spec,
            property.task,
            &conditions,
            &property.global_vars,
            include_sets,
        );
        Self::with_task(task, property)
    }

    /// Build the product from a pre-compiled symbolic task.
    ///
    /// The task must belong to the property's task and its expression
    /// universe must contain every constant of the property's conditions
    /// and an expression per global variable of the property —
    /// `verifas::Engine` uses this to compile the task once and share it
    /// across the properties of a batch.
    pub fn with_task(task: SymbolicTask, property: &LtlFoProperty) -> Result<Self, ModelError> {
        property.validate(&task.spec)?;
        Ok(Self::with_task_prevalidated(task, property))
    }

    /// [`ProductSystem::with_task`] for callers that have already
    /// validated the property against the task's spec (the engine
    /// validates once per request).
    pub(crate) fn with_task_prevalidated(task: SymbolicTask, property: &LtlFoProperty) -> Self {
        let automaton = PropertyAutomaton::for_violations(&property.formula, property.alive_prop());
        let mut prop_pos = Vec::new();
        let mut prop_neg = Vec::new();
        let mut prop_service = Vec::new();
        for atom in &property.props {
            match atom {
                PropAtom::Condition(c) => {
                    prop_pos.push(Some(compile_condition(c, &task.universe)));
                    prop_neg.push(Some(compile_condition(
                        &Condition::not(c.clone()).nnf(),
                        &task.universe,
                    )));
                    prop_service.push(None);
                }
                PropAtom::Service(s) => {
                    prop_pos.push(None);
                    prop_neg.push(None);
                    prop_service.push(Some(*s));
                }
            }
        }
        ProductSystem {
            task,
            automaton,
            property: property.clone(),
            prop_pos,
            prop_neg,
            prop_service,
        }
    }

    /// Set the non-violating edges computed by the static analysis.
    pub fn set_static_removed(&mut self, removed: HashSet<crate::pit::Edge>) {
        self.task.static_removed = removed;
    }

    /// `true` iff the automaton state of a product state is accepting
    /// (candidate for an infinite violation through repeated reachability).
    pub fn is_accepting_view(&self, state: StateView<'_>) -> bool {
        self.automaton.buchi.accepting[state.buchi]
    }

    /// Enforce the label of automaton state `q` on the candidate types of a
    /// transition caused by `service`.  Returns the surviving extended
    /// types (empty when the label is incompatible with the service or the
    /// types).
    fn enforce_label(&self, q: usize, service: ServiceRef, pits: Vec<Pit>) -> Vec<Pit> {
        let label = &self.automaton.buchi.labels[q];
        if label.requires_false(self.automaton.alive) {
            return Vec::new();
        }
        let mut pits = pits;
        for (i, svc) in self.prop_service.iter().enumerate() {
            let p = i as u32;
            if !label.requires_true(p) && !label.requires_false(p) {
                continue;
            }
            match svc {
                Some(s) => {
                    let holds = *s == service;
                    if (label.requires_true(p) && !holds) || (label.requires_false(p) && holds) {
                        return Vec::new();
                    }
                }
                None => {
                    let compiled = if label.requires_true(p) {
                        self.prop_pos[i].as_ref()
                    } else {
                        self.prop_neg[i].as_ref()
                    };
                    if let Some(compiled) = compiled {
                        pits = extend_all(
                            pits,
                            compiled,
                            &self.task.universe,
                            &self.task.static_removed,
                        );
                        if pits.is_empty() {
                            return pits;
                        }
                    }
                }
            }
        }
        pits
    }

    /// The initial product states: the verified task opens (the first
    /// letter of every local run) while the automaton takes one of its
    /// initial transitions.
    pub fn initial_states(&self) -> Vec<ProductState> {
        let service = self.task.opening_service();
        let mut out = Vec::new();
        for pit in self.task.initial_pits() {
            for &q in &self.automaton.buchi.initial {
                for extended in self.enforce_label(q, service, vec![pit.clone()]) {
                    out.push(ProductState {
                        psi: Psi::with_pit(extended),
                        buchi: q,
                        closed: false,
                    });
                }
            }
        }
        out
    }

    /// All product successors of a state.
    pub fn successors(
        &self,
        state: &ProductState,
        interner: &mut dyn InternTypes,
    ) -> Vec<ProductSuccessor> {
        let mut out = Vec::new();
        self.successors_into(state, interner, &mut out);
        out
    }

    /// [`ProductSystem::successors`] writing into a caller-owned buffer.
    ///
    /// The buffer is cleared first.  Tight loops that enumerate the
    /// successors of many states (the repeated-reachability edge
    /// construction visits every active state) reuse one buffer instead of
    /// allocating a fresh `Vec` per state.
    pub fn successors_into(
        &self,
        state: &ProductState,
        interner: &mut dyn InternTypes,
        out: &mut Vec<ProductSuccessor>,
    ) {
        out.clear();
        if state.closed {
            return;
        }
        for (service, psi) in self.task.successors(&state.psi, interner) {
            let closes = self.task.is_own_closing(service);
            for &q in &self.automaton.buchi.transitions[state.buchi] {
                for pit in self.enforce_label(q, service, vec![psi.pit.clone()]) {
                    let finite_violation = closes && self.automaton.padding_accepting[q];
                    out.push(ProductSuccessor {
                        service,
                        state: ProductState {
                            psi: Psi {
                                pit,
                                counters: psi.counters.clone(),
                                child_active: psi.child_active,
                            },
                            buchi: q,
                            closed: closes,
                        },
                        finite_violation,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::psi::StoredTypeInterner;
    use verifas_ltl::Ltl;
    use verifas_model::schema::attr::data;
    use verifas_model::{
        Condition, DatabaseSchema, SpecBuilder, TaskBuilder, TaskId, Term, VarType,
    };

    /// A one-task flow: status goes null -> "Working" -> "Done" and loops
    /// back to null.
    fn flow_spec() -> HasSpec {
        let mut db = DatabaseSchema::new();
        db.add_relation("R", vec![data("a")]).unwrap();
        let mut root = TaskBuilder::new("Root");
        let status = root.data_var("status");
        root.service_parts(
            "begin",
            Condition::eq(Term::var(status), Term::Null),
            Condition::eq(Term::var(status), Term::str("Working")),
            vec![],
            None,
        );
        root.service_parts(
            "finish",
            Condition::eq(Term::var(status), Term::str("Working")),
            Condition::eq(Term::var(status), Term::str("Done")),
            vec![],
            None,
        );
        root.service_parts(
            "reset",
            Condition::eq(Term::var(status), Term::str("Done")),
            Condition::eq(Term::var(status), Term::Null),
            vec![],
            None,
        );
        let mut b = SpecBuilder::new("flow", db, root.build());
        b.global_pre(Condition::eq(Term::var(status), Term::Null));
        b.build().unwrap()
    }

    fn status_is(v: &str) -> Condition {
        Condition::eq(Term::var(verifas_model::VarId::new(0)), Term::str(v))
    }

    #[test]
    fn product_initial_states_and_successors() {
        let spec = flow_spec();
        // Property: G ¬(status = "Broken") — trivially satisfied, so the
        // violation automaton should still produce a searchable product.
        let property = LtlFoProperty::new(
            "no-broken",
            TaskId::new(0),
            vec![],
            Ltl::globally(Ltl::not(Ltl::prop(0))),
            vec![PropAtom::Condition(status_is("Broken"))],
        );
        let product = ProductSystem::new(&spec, &property, true).unwrap();
        let initial = product.initial_states();
        assert!(!initial.is_empty());
        let mut interner = StoredTypeInterner::new();
        let succs = product.successors(&initial[0], &mut interner);
        // Only `begin` is enabled initially, but the automaton may offer
        // several branches; every successor must be via `begin`.
        assert!(!succs.is_empty());
        assert!(succs
            .iter()
            .all(|s| matches!(s.service, ServiceRef::Internal { index: 0, .. })));
        // The root never closes, so no finite violation can be flagged.
        assert!(succs.iter().all(|s| !s.finite_violation));
    }

    #[test]
    fn violating_condition_is_enforced_on_the_type() {
        let spec = flow_spec();
        // Property: G ¬(status = "Done") — violated; the violating branch
        // requires a state whose type contains status = "Done".
        let property = LtlFoProperty::new(
            "never-done",
            TaskId::new(0),
            vec![],
            Ltl::globally(Ltl::not(Ltl::prop(0))),
            vec![PropAtom::Condition(status_is("Done"))],
        );
        let product = ProductSystem::new(&spec, &property, true).unwrap();
        let mut interner = StoredTypeInterner::new();
        // Walk: init -> begin -> finish; after `finish` some product branch
        // must be accepting (the automaton saw status = "Done").
        let mut frontier = product.initial_states();
        for _ in 0..2 {
            let mut next = Vec::new();
            for s in &frontier {
                next.extend(
                    product
                        .successors(s, &mut interner)
                        .into_iter()
                        .map(|s| s.state),
                );
            }
            frontier = next;
            assert!(!frontier.is_empty());
        }
        assert!(frontier.iter().any(|s| product.is_accepting_view(s.view())));
    }

    #[test]
    fn service_propositions_filter_transitions() {
        let spec = flow_spec();
        // Property: G ¬σ_finish ("finish is never applied") — the violating
        // automaton requires seeing the finish service.
        let finish = ServiceRef::Internal {
            task: TaskId::new(0),
            index: 1,
        };
        let property = LtlFoProperty::new(
            "never-finish",
            TaskId::new(0),
            vec![],
            Ltl::globally(Ltl::not(Ltl::prop(0))),
            vec![PropAtom::Service(finish)],
        );
        let product = ProductSystem::new(&spec, &property, true).unwrap();
        let mut interner = StoredTypeInterner::new();
        let initial = product.initial_states();
        assert!(!initial.is_empty());
        // After begin, the `finish` transition must lead to an accepting
        // automaton state on some branch.
        let mut accepting_seen = false;
        for s0 in &initial {
            for s1 in product.successors(s0, &mut interner) {
                for s2 in product.successors(&s1.state, &mut interner) {
                    if s2.service == finish && product.is_accepting_view(s2.state.view()) {
                        accepting_seen = true;
                    }
                }
            }
        }
        assert!(accepting_seen);
    }

    #[test]
    fn global_variable_types_extend_the_universe() {
        let spec = flow_spec();
        let property = LtlFoProperty::new(
            "with-global",
            TaskId::new(0),
            vec![VarType::Data],
            Ltl::globally(Ltl::not(Ltl::prop(0))),
            vec![PropAtom::Condition(Condition::eq(
                Term::var(verifas_model::VarId::new(0)),
                Term::global(0),
            ))],
        );
        let product = ProductSystem::new(&spec, &property, true).unwrap();
        assert!(product
            .task
            .universe
            .var_expr(verifas_model::VarRef::Global(0))
            .is_some());
        assert!(!product.initial_states().is_empty());
    }
}
