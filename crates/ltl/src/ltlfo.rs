//! LTL-FO properties of HAS\* tasks (paper Section 2.1, Definition 29).
//!
//! An LTL-FO property `∀ȳ φ_f` of a task `T` consists of
//!
//! * a tuple of *global variables* `ȳ`, universally quantified over the
//!   whole property and shared between conditions (they connect the state
//!   of the task at different moments in time),
//! * an LTL formula `φ` over propositions `P ∪ Σ^obs_T`,
//! * an interpretation `f` mapping each proposition of `P` to a
//!   quantifier-free condition over `x̄ᵀ ∪ ȳ`; propositions in `Σ^obs_T`
//!   hold at a position of a local run iff the corresponding service caused
//!   that transition.
//!
//! This module also provides the concrete-run oracle
//! [`LtlFoProperty::check_local_run`] used by tests to cross-validate the
//! symbolic verifier on runs produced by the interpreter.

use crate::formula::{Letter, Ltl, PropId};
use std::collections::BTreeSet;
use verifas_model::{
    Condition, DataValue, DatabaseInstance, HasSpec, LocalRun, ModelError, ServiceRef, TaskId,
    Value, VarRef, VarType,
};

/// Interpretation of one atomic proposition of an LTL-FO property.
#[derive(Debug, Clone, PartialEq)]
pub enum PropAtom {
    /// A quantifier-free condition over the task's variables and the
    /// property's global variables.
    Condition(Condition),
    /// "The transition was caused by this observable service."
    Service(ServiceRef),
}

/// An LTL-FO property of a task.
#[derive(Debug, Clone, PartialEq)]
pub struct LtlFoProperty {
    /// Property name (used in reports and benchmarks).
    pub name: String,
    /// The task whose local runs the property constrains.
    pub task: TaskId,
    /// Types of the universally quantified global variables `ȳ`.
    pub global_vars: Vec<VarType>,
    /// The LTL skeleton over proposition ids `0..props.len()`.
    pub formula: Ltl,
    /// Interpretation of each proposition.
    pub props: Vec<PropAtom>,
}

impl LtlFoProperty {
    /// Create a property; `props[i]` interprets proposition `i` of
    /// `formula`.
    pub fn new(
        name: impl Into<String>,
        task: TaskId,
        global_vars: Vec<VarType>,
        formula: Ltl,
        props: Vec<PropAtom>,
    ) -> Self {
        LtlFoProperty {
            name: name.into(),
            task,
            global_vars,
            formula,
            props,
        }
    }

    /// The proposition id reserved for the `alive` marker of the
    /// finite-trace embedding (one past the interpreted propositions).
    pub fn alive_prop(&self) -> PropId {
        self.props.len() as PropId
    }

    /// Every constant appearing in the FO conditions interpreting the
    /// property's propositions.
    ///
    /// The expression universe a property is verified against must contain
    /// these constants on top of the specification's own — `verifas::Engine`
    /// uses this set to decide which properties can share one pre-built
    /// universe.
    pub fn condition_constants(&self) -> BTreeSet<DataValue> {
        let mut out = BTreeSet::new();
        for atom in &self.props {
            if let PropAtom::Condition(c) = atom {
                out.extend(c.constants());
            }
        }
        out
    }

    /// Check the property is well-formed with respect to a specification:
    /// every proposition of the formula has an interpretation, conditions
    /// type-check against the task and the global variables, service
    /// propositions are observable services of the task, and the total
    /// proposition count fits the 64-bit letter encoding.
    pub fn validate(&self, spec: &HasSpec) -> Result<(), ModelError> {
        if self.task.index() >= spec.tasks.len() {
            return Err(ModelError::UnknownName {
                kind: "task",
                name: format!("task #{}", self.task.index()),
            });
        }
        if self.props.len() >= 63 {
            return Err(ModelError::InvalidSpec {
                reason: format!(
                    "property {} has {} propositions; at most 62 are supported",
                    self.name,
                    self.props.len()
                ),
            });
        }
        for p in self.formula.props() {
            if p as usize >= self.props.len() {
                return Err(ModelError::UnknownName {
                    kind: "proposition",
                    name: format!("p{p} in property {}", self.name),
                });
            }
        }
        let observable: BTreeSet<ServiceRef> =
            spec.observable_services(self.task).into_iter().collect();
        let task = spec.task(self.task);
        for atom in &self.props {
            match atom {
                PropAtom::Condition(cond) => {
                    cond.typecheck(&spec.db, task, &self.global_vars)?;
                }
                PropAtom::Service(s) => {
                    if !observable.contains(s) {
                        return Err(ModelError::InvalidSpec {
                            reason: format!(
                                "property {}: service {} is not observable in task {}",
                                self.name,
                                spec.service_name(*s),
                                task.name
                            ),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Truth assignment (letter) induced by one event of a local run under
    /// a valuation of the global variables.
    fn letter_for_event(
        &self,
        db: &DatabaseInstance,
        event: &verifas_model::LocalEvent,
        globals: &[Value],
    ) -> Letter {
        let mut letter: Letter = 0;
        for (i, atom) in self.props.iter().enumerate() {
            let truth = match atom {
                PropAtom::Service(s) => *s == event.service,
                PropAtom::Condition(cond) => cond.eval_concrete(db, &|v| match v {
                    VarRef::Task(id) => event
                        .valuation
                        .get(id.index())
                        .cloned()
                        .unwrap_or(Value::Null),
                    VarRef::Global(g) => globals.get(g as usize).cloned().unwrap_or(Value::Null),
                }),
            };
            if truth {
                letter |= 1u64 << i;
            }
        }
        letter
    }

    /// Candidate values for the universal global variables when checking a
    /// concrete run: values of the right type occurring in the run, the
    /// database active domain, the constants of the property, `null`, and
    /// one fresh value (sufficient for the equality-only conditions of
    /// HAS\*; this is a test oracle, not a decision procedure).
    fn global_candidates(&self, db: &DatabaseInstance, run: &LocalRun) -> Vec<Vec<Value>> {
        let mut seen: BTreeSet<Value> = BTreeSet::new();
        for event in &run.events {
            seen.extend(event.valuation.iter().cloned());
        }
        seen.extend(db.active_domain());
        for atom in &self.props {
            if let PropAtom::Condition(c) = atom {
                seen.extend(c.constants().into_iter().map(Value::Data));
            }
        }
        seen.insert(Value::Null);
        self.global_vars
            .iter()
            .map(|typ| {
                let mut vals: Vec<Value> = seen
                    .iter()
                    .filter(|v| match (typ, v) {
                        (_, Value::Null) => true,
                        (VarType::Data, Value::Data(_)) => true,
                        (VarType::Id(rel), Value::Id(r, _)) => r == rel,
                        _ => false,
                    })
                    .cloned()
                    .collect();
                // One fresh value not occurring anywhere (a fresh ID key /
                // a fresh string), representing "any other value".
                vals.push(match typ {
                    VarType::Data => Value::str("\u{0}fresh\u{0}"),
                    VarType::Id(rel) => Value::Id(*rel, u64::MAX),
                });
                vals
            })
            .collect()
    }

    /// Check a *closed* concrete local run against the property
    /// (finite-trace semantics); returns `None` for runs that did not close
    /// (their satisfaction cannot be decided from the prefix alone).
    ///
    /// The universal quantification over the global variables is
    /// approximated by enumerating the candidate values described in
    /// `global_candidates`.
    pub fn check_local_run(&self, db: &DatabaseInstance, run: &LocalRun) -> Option<bool> {
        if !run.closed || run.events.is_empty() {
            return None;
        }
        let candidates = self.global_candidates(db, run);
        let mut assignment: Vec<Value> = candidates
            .iter()
            .map(|c| c.first().cloned().unwrap_or(Value::Null))
            .collect();
        // Enumerate the Cartesian product of candidate values.
        let mut index = vec![0usize; candidates.len()];
        loop {
            for (i, c) in candidates.iter().enumerate() {
                assignment[i] = c[index[i]].clone();
            }
            let word: Vec<Letter> = run
                .events
                .iter()
                .map(|e| self.letter_for_event(db, e, &assignment))
                .collect();
            if !self.formula.eval_finite(&word) {
                return Some(false);
            }
            // Advance the odometer.
            let mut pos = 0;
            loop {
                if pos == candidates.len() {
                    return Some(true);
                }
                index[pos] += 1;
                if index[pos] < candidates[pos].len() {
                    break;
                }
                index[pos] = 0;
                pos += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use verifas_model::{LocalEvent, VarId};

    fn service(task: u32, index: usize) -> ServiceRef {
        ServiceRef::Internal {
            task: TaskId::new(task),
            index,
        }
    }

    fn event(svc: ServiceRef, values: Vec<Value>) -> LocalEvent {
        LocalEvent {
            service: svc,
            valuation: values,
        }
    }

    #[test]
    fn check_local_run_with_condition_and_service_props() {
        // Property: G (p0 -> F p1) where p0 = "service 0 applied" and
        // p1 = status = "Done".
        let prop = LtlFoProperty::new(
            "response",
            TaskId::new(0),
            vec![],
            Ltl::globally(Ltl::implies(Ltl::prop(0), Ltl::eventually(Ltl::prop(1)))),
            vec![
                PropAtom::Service(service(0, 0)),
                PropAtom::Condition(Condition::eq(
                    verifas_model::Term::var(VarId::new(0)),
                    verifas_model::Term::str("Done"),
                )),
            ],
        );
        let db = DatabaseInstance::default();
        let good = LocalRun {
            task: TaskId::new(0),
            events: vec![
                event(ServiceRef::Opening(TaskId::new(0)), vec![Value::Null]),
                event(service(0, 0), vec![Value::str("Working")]),
                event(service(0, 1), vec![Value::str("Done")]),
                event(
                    ServiceRef::Closing(TaskId::new(0)),
                    vec![Value::str("Done")],
                ),
            ],
            closed: true,
        };
        assert_eq!(prop.check_local_run(&db, &good), Some(true));
        let bad = LocalRun {
            task: TaskId::new(0),
            events: vec![
                event(ServiceRef::Opening(TaskId::new(0)), vec![Value::Null]),
                event(service(0, 0), vec![Value::str("Working")]),
                event(
                    ServiceRef::Closing(TaskId::new(0)),
                    vec![Value::str("Failed")],
                ),
            ],
            closed: true,
        };
        assert_eq!(prop.check_local_run(&db, &bad), Some(false));
        let unclosed = LocalRun {
            task: TaskId::new(0),
            events: vec![event(service(0, 0), vec![Value::Null])],
            closed: false,
        };
        assert_eq!(prop.check_local_run(&db, &unclosed), None);
    }

    #[test]
    fn global_variables_quantify_universally() {
        // ∀ y: G (x = y -> F (z = y)) over a task with vars [x, z]:
        // whenever x takes a value, z must later take the same value.
        let prop = LtlFoProperty::new(
            "echo",
            TaskId::new(0),
            vec![VarType::Data],
            Ltl::globally(Ltl::implies(Ltl::prop(0), Ltl::eventually(Ltl::prop(1)))),
            vec![
                PropAtom::Condition(Condition::and([
                    Condition::eq(
                        verifas_model::Term::var(VarId::new(0)),
                        verifas_model::Term::global(0),
                    ),
                    Condition::neq(
                        verifas_model::Term::var(VarId::new(0)),
                        verifas_model::Term::Null,
                    ),
                ])),
                PropAtom::Condition(Condition::eq(
                    verifas_model::Term::var(VarId::new(1)),
                    verifas_model::Term::global(0),
                )),
            ],
        );
        let db = DatabaseInstance::default();
        let svc = service(0, 0);
        let echoed = LocalRun {
            task: TaskId::new(0),
            events: vec![
                event(svc, vec![Value::str("a"), Value::Null]),
                event(svc, vec![Value::Null, Value::str("a")]),
                event(
                    ServiceRef::Closing(TaskId::new(0)),
                    vec![Value::Null, Value::Null],
                ),
            ],
            closed: true,
        };
        assert_eq!(prop.check_local_run(&db, &echoed), Some(true));
        let not_echoed = LocalRun {
            task: TaskId::new(0),
            events: vec![
                event(svc, vec![Value::str("a"), Value::Null]),
                event(svc, vec![Value::Null, Value::str("b")]),
                event(
                    ServiceRef::Closing(TaskId::new(0)),
                    vec![Value::Null, Value::Null],
                ),
            ],
            closed: true,
        };
        assert_eq!(prop.check_local_run(&db, &not_echoed), Some(false));
    }

    #[test]
    fn alive_prop_is_one_past_the_interpreted_props() {
        let prop = LtlFoProperty::new(
            "p",
            TaskId::new(0),
            vec![],
            Ltl::True,
            vec![PropAtom::Service(service(0, 0))],
        );
        assert_eq!(prop.alive_prop(), 1);
    }
}
