//! HAS\* specifications (paper Definition 13) and navigation helpers.

use crate::condition::Condition;
use crate::error::Result;
use crate::schema::DatabaseSchema;
use crate::service::ServiceRef;
use crate::task::{Task, TaskId};
use crate::validate;

/// A Hierarchical Artifact System\* specification `Γ = ⟨A, Σ, Π⟩`:
/// an artifact schema (database schema + task hierarchy), the services of
/// every task, and a global pre-condition over the root task's variables.
#[derive(Debug, Clone, PartialEq)]
pub struct HasSpec {
    /// Human-readable name of the specification (used by the benchmark
    /// harness).
    pub name: String,
    /// The read-only database schema.
    pub db: DatabaseSchema,
    /// The tasks; index 0 is the root of the hierarchy.
    pub tasks: Vec<Task>,
    /// Global pre-condition `Π` over the root task's variables.
    pub global_pre: Condition,
}

impl HasSpec {
    /// Create an empty specification with a single (root) task.
    pub fn new(name: impl Into<String>, db: DatabaseSchema, root: Task) -> Self {
        HasSpec {
            name: name.into(),
            db,
            tasks: vec![root],
            global_pre: Condition::True,
        }
    }

    /// The root task id.
    pub fn root(&self) -> TaskId {
        TaskId::ROOT
    }

    /// Get a task by id.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.index()]
    }

    /// Look up a task by name.
    pub fn task_by_name(&self, name: &str) -> Option<(TaskId, &Task)> {
        self.tasks
            .iter()
            .enumerate()
            .find(|(_, t)| t.name == name)
            .map(|(i, t)| (TaskId::new(i as u32), t))
    }

    /// Iterate over `(TaskId, &Task)` pairs.
    pub fn iter_tasks(&self) -> impl Iterator<Item = (TaskId, &Task)> {
        self.tasks
            .iter()
            .enumerate()
            .map(|(i, t)| (TaskId::new(i as u32), t))
    }

    /// The children of a task.
    pub fn children(&self, id: TaskId) -> &[TaskId] {
        &self.task(id).children
    }

    /// The descendants of a task, excluding the task itself (`desc(T)`).
    pub fn descendants(&self, id: TaskId) -> Vec<TaskId> {
        let mut out = Vec::new();
        let mut stack: Vec<TaskId> = self.children(id).to_vec();
        while let Some(t) = stack.pop() {
            out.push(t);
            stack.extend_from_slice(self.children(t));
        }
        out
    }

    /// The services observable in local runs of `task` (`Σ^obs_T`): the
    /// task's internal services, its own opening and closing services, and
    /// the opening/closing services of its children.
    pub fn observable_services(&self, task: TaskId) -> Vec<ServiceRef> {
        let mut out = Vec::new();
        for i in 0..self.task(task).services.len() {
            out.push(ServiceRef::Internal { task, index: i });
        }
        out.push(ServiceRef::Opening(task));
        out.push(ServiceRef::Closing(task));
        for &c in self.children(task) {
            out.push(ServiceRef::Opening(c));
            out.push(ServiceRef::Closing(c));
        }
        out
    }

    /// A human-readable name for a service reference.
    pub fn service_name(&self, s: ServiceRef) -> String {
        match s {
            ServiceRef::Internal { task, index } => {
                format!(
                    "{}.{}",
                    self.task(task).name,
                    self.task(task).services[index].name
                )
            }
            ServiceRef::Opening(task) => format!("open({})", self.task(task).name),
            ServiceRef::Closing(task) => format!("close({})", self.task(task).name),
        }
    }

    /// Validate the specification (schema acyclicity, hierarchy shape,
    /// typing of all conditions, structural restrictions on services).
    pub fn validate(&self) -> Result<()> {
        validate::validate_spec(self)
    }

    /// Structural statistics used by Table 1 of the paper.
    pub fn stats(&self) -> SpecStats {
        SpecStats {
            relations: self.db.len(),
            tasks: self.tasks.len(),
            variables: self.tasks.iter().map(|t| t.vars.len()).sum(),
            services: self.tasks.iter().map(|t| t.services.len()).sum(),
            artifact_relations: self.tasks.iter().map(|t| t.art_relations.len()).sum(),
        }
    }

    /// Drop all artifact relations and the services' updates, producing the
    /// restricted specification used by the `VERIFAS-NoSet` configuration
    /// and by the baseline verifier (which, like the Spin-based verifier of
    /// the paper, cannot handle updatable artifact relations).
    pub fn without_artifact_relations(&self) -> HasSpec {
        let mut spec = self.clone();
        for task in &mut spec.tasks {
            task.art_relations.clear();
            for svc in &mut task.services {
                svc.update = None;
            }
        }
        spec
    }
}

/// Structural statistics of a specification (Table 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpecStats {
    /// Number of database relations.
    pub relations: usize,
    /// Number of tasks.
    pub tasks: usize,
    /// Total number of artifact variables across tasks.
    pub variables: usize,
    /// Total number of internal services across tasks.
    pub services: usize,
    /// Total number of artifact relations across tasks.
    pub artifact_relations: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::attr::data;
    use crate::service::InternalService;
    use crate::task::{Task, Variable};

    fn two_level_spec() -> HasSpec {
        let mut db = DatabaseSchema::new();
        db.add_relation("R", vec![data("a")]).unwrap();
        let mut root = Task::new("Root");
        root.vars.push(Variable {
            name: "x".into(),
            typ: crate::task::VarType::Data,
        });
        root.services.push(InternalService::new("s0"));
        let mut spec = HasSpec::new("test", db, root);
        let mut child = Task::new("Child");
        child.parent = Some(TaskId::new(0));
        child.services.push(InternalService::new("c0"));
        spec.tasks.push(child);
        spec.tasks[0].children.push(TaskId::new(1));
        let mut grandchild = Task::new("Grandchild");
        grandchild.parent = Some(TaskId::new(1));
        spec.tasks.push(grandchild);
        spec.tasks[1].children.push(TaskId::new(2));
        spec
    }

    #[test]
    fn navigation_helpers() {
        let spec = two_level_spec();
        assert_eq!(spec.root(), TaskId::new(0));
        assert_eq!(spec.task_by_name("Child").unwrap().0, TaskId::new(1));
        assert!(spec.task_by_name("Nope").is_none());
        assert_eq!(spec.children(TaskId::new(0)), &[TaskId::new(1)]);
        let mut desc = spec.descendants(TaskId::new(0));
        desc.sort();
        assert_eq!(desc, vec![TaskId::new(1), TaskId::new(2)]);
        assert!(spec.descendants(TaskId::new(2)).is_empty());
    }

    #[test]
    fn observable_services_of_root() {
        let spec = two_level_spec();
        let obs = spec.observable_services(TaskId::new(0));
        // 1 internal + own open/close + child open/close = 5
        assert_eq!(obs.len(), 5);
        assert!(obs.contains(&ServiceRef::Opening(TaskId::new(1))));
        assert!(obs.contains(&ServiceRef::Closing(TaskId::new(1))));
        assert!(!obs.contains(&ServiceRef::Opening(TaskId::new(2))));
    }

    #[test]
    fn service_names_resolve() {
        let spec = two_level_spec();
        assert_eq!(
            spec.service_name(ServiceRef::Internal {
                task: TaskId::new(0),
                index: 0
            }),
            "Root.s0"
        );
        assert_eq!(
            spec.service_name(ServiceRef::Opening(TaskId::new(1))),
            "open(Child)"
        );
    }

    #[test]
    fn stats_count_everything() {
        let spec = two_level_spec();
        let stats = spec.stats();
        assert_eq!(stats.relations, 1);
        assert_eq!(stats.tasks, 3);
        assert_eq!(stats.variables, 1);
        assert_eq!(stats.services, 2);
        assert_eq!(stats.artifact_relations, 0);
    }

    #[test]
    fn without_artifact_relations_strips_updates() {
        use crate::service::Update;
        use crate::task::{ArtRelId, ArtRelation};
        let mut spec = two_level_spec();
        spec.tasks[0].art_relations.push(ArtRelation {
            name: "POOL".into(),
            columns: vec![],
        });
        spec.tasks[0].services[0].update = Some(Update::Insert {
            rel: ArtRelId::new(0),
            vars: vec![],
        });
        let stripped = spec.without_artifact_relations();
        assert!(stripped.tasks[0].art_relations.is_empty());
        assert!(stripped.tasks[0].services[0].update.is_none());
        // Original untouched.
        assert!(!spec.tasks[0].art_relations.is_empty());
    }
}
