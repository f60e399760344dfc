//! Fluent builders for HAS\* specifications.
//!
//! Writing a specification directly against the raw structs requires
//! manual index bookkeeping.  [`TaskBuilder`] and [`SpecBuilder`] resolve
//! names to ids and wire up the hierarchy, following the paper's
//! convention that a child's input/output variables map to the parent
//! variables *of the same name* (Example 12, footnote 2) unless an explicit
//! mapping is given.

use crate::condition::{Condition, Term};
use crate::error::{ModelError, Result};
use crate::schema::{DatabaseSchema, RelId};
use crate::service::{InternalService, Update};
use crate::spec::HasSpec;
use crate::task::{ArtRelId, ArtRelation, Task, TaskId, VarId, VarType, Variable};

/// Builder for a single task.
#[derive(Debug, Clone)]
pub struct TaskBuilder {
    task: Task,
}

impl TaskBuilder {
    /// Start building a task with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        TaskBuilder {
            task: Task::new(name),
        }
    }

    /// Declare a data-typed artifact variable and return its id.
    pub fn data_var(&mut self, name: impl Into<String>) -> VarId {
        let id = VarId::new(self.task.vars.len() as u32);
        self.task.vars.push(Variable {
            name: name.into(),
            typ: VarType::Data,
        });
        id
    }

    /// Declare an ID-typed artifact variable referencing relation `rel`.
    pub fn id_var(&mut self, name: impl Into<String>, rel: RelId) -> VarId {
        let id = VarId::new(self.task.vars.len() as u32);
        self.task.vars.push(Variable {
            name: name.into(),
            typ: VarType::Id(rel),
        });
        id
    }

    /// Mark variables as input variables of the task.
    pub fn inputs(&mut self, vars: impl IntoIterator<Item = VarId>) -> &mut Self {
        self.task.input_vars.extend(vars);
        self
    }

    /// Mark variables as output variables of the task.
    pub fn outputs(&mut self, vars: impl IntoIterator<Item = VarId>) -> &mut Self {
        self.task.output_vars.extend(vars);
        self
    }

    /// Declare an artifact relation whose columns mirror the given task
    /// variables (same names and types), the common case in the paper's
    /// examples (e.g. `ORDERS(cust_id, item_id, status, instock)`).
    pub fn art_relation_like(&mut self, name: impl Into<String>, vars: &[VarId]) -> ArtRelId {
        let id = ArtRelId::new(self.task.art_relations.len() as u32);
        let columns = vars.iter().map(|v| self.task.var(*v).clone()).collect();
        self.task.art_relations.push(ArtRelation {
            name: name.into(),
            columns,
        });
        id
    }

    /// Add an internal service.
    pub fn service(&mut self, svc: InternalService) -> &mut Self {
        self.task.services.push(svc);
        self
    }

    /// Add an internal service described by its parts.
    pub fn service_parts(
        &mut self,
        name: impl Into<String>,
        pre: Condition,
        post: Condition,
        propagated: Vec<VarId>,
        update: Option<Update>,
    ) -> &mut Self {
        self.task.services.push(InternalService {
            name: name.into(),
            pre,
            post,
            propagated,
            update,
        });
        self
    }

    /// Set the opening condition (over the parent's variables).
    pub fn opening_pre(&mut self, pre: Condition) -> &mut Self {
        self.task.opening.pre = pre;
        self
    }

    /// Set the closing condition (over this task's variables).
    pub fn closing_pre(&mut self, pre: Condition) -> &mut Self {
        self.task.closing.pre = pre;
        self
    }

    /// A term referring to the variable with the given name.
    ///
    /// # Panics
    /// Panics if the variable has not been declared; builders are used in
    /// test and benchmark code where an early panic is the useful
    /// behaviour.
    pub fn term(&self, name: &str) -> Term {
        Term::var(self.var(name))
    }

    /// The id of the variable with the given name.
    ///
    /// # Panics
    /// Panics if the variable has not been declared.
    pub fn var(&self, name: &str) -> VarId {
        self.task
            .var_by_name(name)
            .map(|(id, _)| id)
            .unwrap_or_else(|| panic!("task {}: unknown variable {name:?}", self.task.name))
    }

    /// Finish building and return the task.
    pub fn build(self) -> Task {
        self.task
    }

    /// Access the task under construction.
    pub fn as_task(&self) -> &Task {
        &self.task
    }
}

/// Builder for a complete specification.
#[derive(Debug, Clone)]
pub struct SpecBuilder {
    name: String,
    db: DatabaseSchema,
    tasks: Vec<Task>,
    global_pre: Condition,
}

impl SpecBuilder {
    /// Start a specification with the given name, database schema and root
    /// task.
    pub fn new(name: impl Into<String>, db: DatabaseSchema, root: Task) -> Self {
        SpecBuilder {
            name: name.into(),
            db,
            tasks: vec![root],
            global_pre: Condition::True,
        }
    }

    /// Set the global pre-condition `Π` (over the root task's variables).
    pub fn global_pre(&mut self, pre: Condition) -> &mut Self {
        self.global_pre = pre;
        self
    }

    /// Add `task` as a child of the task named `parent`, wiring its
    /// input/output variables to the parent variables with the same names.
    pub fn add_child(&mut self, parent: &str, task: Task) -> Result<TaskId> {
        self.add_child_with_maps(parent, task, None, None)
    }

    /// Add `task` as a child of `parent` with explicit input/output
    /// variable mappings given as `(child variable name, parent variable
    /// name)` pairs.  `None` falls back to the same-name convention.
    pub fn add_child_with_maps(
        &mut self,
        parent: &str,
        mut task: Task,
        input_map: Option<Vec<(String, String)>>,
        output_map: Option<Vec<(String, String)>>,
    ) -> Result<TaskId> {
        let (parent_id, _) = self
            .tasks
            .iter()
            .enumerate()
            .find(|(_, t)| t.name == parent)
            .map(|(i, t)| (TaskId::new(i as u32), t))
            .ok_or_else(|| ModelError::UnknownName {
                kind: "task",
                name: parent.to_owned(),
            })?;
        let child_id = TaskId::new(self.tasks.len() as u32);
        task.parent = Some(parent_id);
        task.opening.input_map = self.resolve_map(&task, parent_id, &task.input_vars, input_map)?;
        task.closing.output_map =
            self.resolve_map(&task, parent_id, &task.output_vars, output_map)?;
        self.tasks[parent_id.index()].children.push(child_id);
        self.tasks.push(task);
        Ok(child_id)
    }

    fn resolve_map(
        &self,
        child: &Task,
        parent_id: TaskId,
        child_vars: &[VarId],
        explicit: Option<Vec<(String, String)>>,
    ) -> Result<Vec<(VarId, VarId)>> {
        let parent = &self.tasks[parent_id.index()];
        match explicit {
            Some(pairs) => pairs
                .into_iter()
                .map(|(cname, pname)| {
                    let (cv, _) =
                        child
                            .var_by_name(&cname)
                            .ok_or_else(|| ModelError::UnknownName {
                                kind: "variable",
                                name: format!("{}.{}", child.name, cname),
                            })?;
                    let (pv, _) =
                        parent
                            .var_by_name(&pname)
                            .ok_or_else(|| ModelError::UnknownName {
                                kind: "variable",
                                name: format!("{}.{}", parent.name, pname),
                            })?;
                    Ok((cv, pv))
                })
                .collect(),
            None => child_vars
                .iter()
                .map(|&cv| {
                    let cname = &child.var(cv).name;
                    let (pv, _) =
                        parent
                            .var_by_name(cname)
                            .ok_or_else(|| ModelError::UnknownName {
                                kind: "variable (same-name mapping)",
                                name: format!("{}.{}", parent.name, cname),
                            })?;
                    Ok((cv, pv))
                })
                .collect(),
        }
    }

    /// Finish building: validate and return the specification.
    pub fn build(self) -> Result<HasSpec> {
        let spec = HasSpec {
            name: self.name,
            db: self.db,
            tasks: self.tasks,
            global_pre: self.global_pre,
        };
        spec.validate()?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::attr::data;

    #[test]
    fn build_parent_child_with_same_name_wiring() {
        let mut db = DatabaseSchema::new();
        let r = db.add_relation("R", vec![data("a")]).unwrap();

        let mut root = TaskBuilder::new("Root");
        let x = root.id_var("x", r);
        let status = root.data_var("status");
        root.service_parts(
            "init",
            Condition::True,
            Condition::eq(Term::var(status), Term::str("Init")),
            vec![],
            None,
        );
        let _ = x;
        let mut builder = SpecBuilder::new("demo", db, root.build());

        let mut child = TaskBuilder::new("Child");
        let cx = child.id_var("x", r);
        child.inputs([cx]).outputs([cx]);
        child.opening_pre(Condition::True);
        child.closing_pre(Condition::neq(Term::var(cx), Term::Null));
        // Child declares x as input and output; wiring by name should hit
        // the parent's x.
        builder.add_child("Root", child.build()).unwrap();

        let spec = builder.build().unwrap();
        assert_eq!(spec.tasks.len(), 2);
        assert_eq!(
            spec.tasks[1].opening.input_map,
            vec![(VarId::new(0), VarId::new(0))]
        );
        assert_eq!(
            spec.tasks[1].closing.output_map,
            vec![(VarId::new(0), VarId::new(0))]
        );
        assert_eq!(spec.children(TaskId::new(0)), &[TaskId::new(1)]);
    }

    #[test]
    fn add_child_to_unknown_parent_fails() {
        let db = DatabaseSchema::new();
        let root = TaskBuilder::new("Root").build();
        let mut builder = SpecBuilder::new("demo", db, root);
        let child = TaskBuilder::new("Child").build();
        assert!(builder.add_child("Nope", child).is_err());
    }

    #[test]
    fn same_name_wiring_fails_when_parent_lacks_variable() {
        let db = DatabaseSchema::new();
        let root = TaskBuilder::new("Root").build();
        let mut builder = SpecBuilder::new("demo", db, root);
        let mut child = TaskBuilder::new("Child");
        let v = child.data_var("only_in_child");
        child.inputs([v]);
        assert!(builder.add_child("Root", child.build()).is_err());
    }

    #[test]
    fn explicit_mapping_overrides_names() {
        let db = DatabaseSchema::new();
        let mut root = TaskBuilder::new("Root");
        root.data_var("p");
        let mut builder = SpecBuilder::new("demo", db, root.build());
        let mut child = TaskBuilder::new("Child");
        let c = child.data_var("c");
        child.inputs([c]);
        builder
            .add_child_with_maps(
                "Root",
                child.build(),
                Some(vec![("c".into(), "p".into())]),
                None,
            )
            .unwrap();
        let spec = builder.build().unwrap();
        assert_eq!(
            spec.tasks[1].opening.input_map,
            vec![(VarId::new(0), VarId::new(0))]
        );
    }

    #[test]
    #[should_panic(expected = "unknown variable")]
    fn term_for_unknown_variable_panics() {
        let b = TaskBuilder::new("T");
        let _ = b.term("missing");
    }

    #[test]
    fn art_relation_like_copies_types() {
        let mut db = DatabaseSchema::new();
        let r = db.add_relation("R", vec![data("a")]).unwrap();
        let mut t = TaskBuilder::new("T");
        let a = t.id_var("a", r);
        let b = t.data_var("b");
        let rel = t.art_relation_like("POOL", &[a, b]);
        let task = t.build();
        assert_eq!(task.art_rel(rel).arity(), 2);
        assert_eq!(task.art_rel(rel).columns[0].typ, VarType::Id(r));
        assert_eq!(task.art_rel(rel).columns[1].typ, VarType::Data);
    }
}
