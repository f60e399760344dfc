//! Foreign-key navigation expressions (paper Section 3.2).
//!
//! For a fixed task (plus the global variables of the property being
//! verified), the *expression universe* `E` contains
//!
//! * the constants occurring in the specification or the property
//!   (including `null`),
//! * every artifact variable of the task and every global property
//!   variable,
//! * one *slot* per column of each artifact relation of the task (used to
//!   describe the isomorphism types of stored tuples),
//! * all navigations `ξ.A₁.…​.Aₖ` obtained by following foreign keys from
//!   an ID-typed expression, which are finitely many because the database
//!   schema is acyclic.
//!
//! Expressions are interned to dense ids so that partial isomorphism types
//! can be stored as sorted edge lists over `u32` pairs.

use crate::pit::BuilderTemplate;
use std::collections::{BTreeSet, HashMap};
use verifas_model::{
    ArtRelId, AttrId, AttrKind, DataValue, HasSpec, RelId, TaskId, VarRef, VarType,
};

/// Dense identifier of an expression within an [`ExprUniverse`].
pub type ExprId = u32;

/// The root ("head") of an expression: what the navigation path starts
/// from.  Projection keeps or drops an expression based on its head.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ExprHead {
    /// The constant `null`.
    Null,
    /// A data constant (index into the universe's constant table).
    Const(u32),
    /// A task variable or a global property variable.
    Var(VarRef),
    /// Column `col` of artifact relation `rel` of the task.
    Slot(ArtRelId, u32),
}

/// The sort (type) of an expression, used for consistency checks when
/// merging equivalence classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExprSort {
    /// The `null` constant (member of every domain).
    Null,
    /// A specific data constant.
    DataConst,
    /// A data-valued expression.
    Data,
    /// An ID-valued expression of the given relation.
    Id(RelId),
}

/// One expression of the universe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expr {
    /// Head of the navigation path.
    pub head: ExprHead,
    /// Attribute path followed from the head (empty for the head itself).
    pub path: Vec<AttrId>,
    /// Sort of the expression.
    pub sort: ExprSort,
    /// Constant value if the expression is a constant.
    pub constant: Option<DataValue>,
    /// Navigation children: `(attribute, child expression)` pairs, present
    /// only for ID-sorted expressions.
    pub children: Vec<(AttrId, ExprId)>,
    /// Parent expression and the attribute navigated to reach this one.
    pub parent: Option<(ExprId, AttrId)>,
}

/// The interned expression universe of one task (plus property globals).
#[derive(Debug, Clone)]
pub struct ExprUniverse {
    exprs: Vec<Expr>,
    constants: Vec<DataValue>,
    null_id: ExprId,
    const_ids: HashMap<DataValue, ExprId>,
    var_ids: HashMap<VarRef, ExprId>,
    slot_ids: HashMap<(ArtRelId, u32), ExprId>,
    /// Initial state of a [`crate::PitBuilder`] over this universe.
    builder_template: BuilderTemplate,
}

impl ExprUniverse {
    /// Build the expression universe for `task` of `spec`, with the given
    /// global-variable types and the set of constants collected from the
    /// specification and the property.
    pub fn build(
        spec: &HasSpec,
        task: TaskId,
        global_types: &[VarType],
        constants: &BTreeSet<DataValue>,
    ) -> Self {
        crate::counters::UNIVERSE_BUILDS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut universe = ExprUniverse {
            exprs: Vec::new(),
            constants: Vec::new(),
            null_id: 0,
            const_ids: HashMap::new(),
            var_ids: HashMap::new(),
            slot_ids: HashMap::new(),
            builder_template: BuilderTemplate::default(),
        };
        // null first.
        universe.null_id = universe.push(Expr {
            head: ExprHead::Null,
            path: vec![],
            sort: ExprSort::Null,
            constant: None,
            children: vec![],
            parent: None,
        });
        // Constants.
        for c in constants {
            let idx = universe.constants.len() as u32;
            universe.constants.push(c.clone());
            let id = universe.push(Expr {
                head: ExprHead::Const(idx),
                path: vec![],
                sort: ExprSort::DataConst,
                constant: Some(c.clone()),
                children: vec![],
                parent: None,
            });
            universe.const_ids.insert(c.clone(), id);
        }
        // Task variables and property globals, with navigation closure.
        let task_def = spec.task(task);
        let mut roots: Vec<(ExprHead, VarType)> = Vec::new();
        for (vid, var) in task_def.iter_vars() {
            roots.push((ExprHead::Var(VarRef::Task(vid)), var.typ));
        }
        for (g, typ) in global_types.iter().enumerate() {
            roots.push((ExprHead::Var(VarRef::Global(g as u32)), *typ));
        }
        for (rid, rel) in task_def.art_relations.iter().enumerate() {
            for (col, column) in rel.columns.iter().enumerate() {
                roots.push((
                    ExprHead::Slot(ArtRelId::new(rid as u32), col as u32),
                    column.typ,
                ));
            }
        }
        for (head, typ) in roots {
            let sort = match typ {
                VarType::Data => ExprSort::Data,
                VarType::Id(rel) => ExprSort::Id(rel),
            };
            let id = universe.push(Expr {
                head,
                path: vec![],
                sort,
                constant: None,
                children: vec![],
                parent: None,
            });
            match head {
                ExprHead::Var(v) => {
                    universe.var_ids.insert(v, id);
                }
                ExprHead::Slot(rel, col) => {
                    universe.slot_ids.insert((rel, col), id);
                }
                _ => unreachable!(),
            }
            if let VarType::Id(rel) = typ {
                universe.expand_navigation(spec, id, rel);
            }
        }
        universe.builder_template = BuilderTemplate::of(&universe);
        universe
    }

    fn push(&mut self, e: Expr) -> ExprId {
        let id = self.exprs.len() as ExprId;
        self.exprs.push(e);
        id
    }

    /// Recursively add navigation children of an ID-sorted expression.
    fn expand_navigation(&mut self, spec: &HasSpec, parent: ExprId, rel: RelId) {
        let relation = spec.db.relation(rel).clone();
        for (attr_idx, attr) in relation.attrs.iter().enumerate() {
            let attr_id = AttrId::new(attr_idx as u32);
            let (sort, child_rel) = match attr.kind {
                AttrKind::NonKey => (ExprSort::Data, None),
                AttrKind::ForeignKey(target) => (ExprSort::Id(target), Some(target)),
            };
            let mut path = self.exprs[parent as usize].path.clone();
            path.push(attr_id);
            let head = self.exprs[parent as usize].head;
            let child = self.push(Expr {
                head,
                path,
                sort,
                constant: None,
                children: vec![],
                parent: Some((parent, attr_id)),
            });
            self.exprs[parent as usize].children.push((attr_id, child));
            if let Some(target) = child_rel {
                self.expand_navigation(spec, child, target);
            }
        }
    }

    /// Number of expressions.
    pub fn len(&self) -> usize {
        self.exprs.len()
    }

    /// `true` iff the universe is empty (never the case after `build`).
    pub fn is_empty(&self) -> bool {
        self.exprs.is_empty()
    }

    /// The expression with the given id.
    pub fn expr(&self, id: ExprId) -> &Expr {
        &self.exprs[id as usize]
    }

    /// The dense starting point of every [`crate::PitBuilder`] over this
    /// universe.
    pub(crate) fn builder_template(&self) -> &BuilderTemplate {
        &self.builder_template
    }

    /// The id of the `null` expression.
    pub fn null_expr(&self) -> ExprId {
        self.null_id
    }

    /// The id of a constant expression (if the constant was collected).
    pub fn const_expr(&self, c: &DataValue) -> Option<ExprId> {
        self.const_ids.get(c).copied()
    }

    /// The id of a variable expression.
    pub fn var_expr(&self, v: VarRef) -> Option<ExprId> {
        self.var_ids.get(&v).copied()
    }

    /// The id of the expression for column `col` of artifact relation
    /// `rel`.
    pub fn slot_expr(&self, rel: ArtRelId, col: u32) -> Option<ExprId> {
        self.slot_ids.get(&(rel, col)).copied()
    }

    /// Navigate one attribute from an ID-sorted expression.
    pub fn navigate(&self, parent: ExprId, attr: AttrId) -> Option<ExprId> {
        self.expr(parent)
            .children
            .iter()
            .find(|(a, _)| *a == attr)
            .map(|(_, c)| *c)
    }

    /// All expressions whose head satisfies the predicate (the expression
    /// itself and all its navigations).
    pub fn headed_by(&self, pred: impl Fn(&ExprHead) -> bool) -> Vec<ExprId> {
        (0..self.exprs.len() as ExprId)
            .filter(|&id| pred(&self.exprs[id as usize].head))
            .collect()
    }

    /// Map an expression headed by variable `from` to the corresponding
    /// expression (same navigation path) headed by `to_head`, which must
    /// have the same type.  Returns `None` when the expression is not
    /// headed by `from`.
    pub fn rebase(&self, expr: ExprId, from: &ExprHead, to_head: &ExprHead) -> Option<ExprId> {
        let e = self.expr(expr);
        if e.head != *from {
            return None;
        }
        // Find the root expression with head `to_head` and walk the path.
        let mut current = match to_head {
            ExprHead::Var(v) => self.var_expr(*v)?,
            ExprHead::Slot(rel, col) => self.slot_expr(*rel, *col)?,
            ExprHead::Null => self.null_id,
            ExprHead::Const(idx) => self
                .const_ids
                .get(&self.constants[*idx as usize])
                .copied()?,
        };
        for attr in &e.path {
            current = self.navigate(current, *attr)?;
        }
        Some(current)
    }

    /// Iterate over all `(ExprId, &Expr)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ExprId, &Expr)> {
        self.exprs.iter().enumerate().map(|(i, e)| (i as ExprId, e))
    }

    /// Human-readable rendering of an expression (for counterexamples and
    /// debugging).
    pub fn display(&self, spec: &HasSpec, task: TaskId, id: ExprId) -> String {
        let e = self.expr(id);
        let mut out = match &e.head {
            ExprHead::Null => "null".to_owned(),
            ExprHead::Const(idx) => format!("{}", self.constants[*idx as usize]),
            ExprHead::Var(VarRef::Task(v)) => spec.task(task).var(*v).name.clone(),
            ExprHead::Var(VarRef::Global(g)) => format!("$g{g}"),
            ExprHead::Slot(rel, col) => {
                let r = spec.task(task).art_rel(*rel);
                format!("{}[{}]", r.name, r.columns[*col as usize].name)
            }
        };
        // Resolve attribute names along the path.
        let mut sort = {
            // Determine the relation of the head if ID-sorted.
            let root = match &e.head {
                ExprHead::Var(v) => self.var_expr(*v),
                ExprHead::Slot(rel, col) => self.slot_expr(*rel, *col),
                _ => None,
            };
            root.map(|r| self.expr(r).sort)
        };
        for attr in &e.path {
            if let Some(ExprSort::Id(rel)) = sort {
                let relation = spec.db.relation(rel);
                let a = relation.attr(*attr);
                out.push('.');
                out.push_str(&a.name);
                sort = Some(match a.kind {
                    AttrKind::NonKey => ExprSort::Data,
                    AttrKind::ForeignKey(t) => ExprSort::Id(t),
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use verifas_model::schema::attr::{data, fk};
    use verifas_model::{Condition, DatabaseSchema, SpecBuilder, TaskBuilder, Term, VarId};

    /// Order-fulfillment-like spec: CUSTOMERS -> CREDIT_RECORD chain plus a
    /// task with one ID variable, one data variable and an artifact
    /// relation.
    fn spec() -> (HasSpec, RelId, RelId) {
        let mut db = DatabaseSchema::new();
        let credit = db
            .add_relation("CREDIT_RECORD", vec![data("status")])
            .unwrap();
        let customers = db
            .add_relation("CUSTOMERS", vec![data("name"), fk("record", credit)])
            .unwrap();
        let mut root = TaskBuilder::new("Root");
        let cust = root.id_var("cust_id", customers);
        let status = root.data_var("status");
        root.art_relation_like("ORDERS", &[cust, status]);
        root.service_parts(
            "init",
            Condition::True,
            Condition::eq(Term::var(status), Term::str("Init")),
            vec![],
            None,
        );
        let spec = SpecBuilder::new("expr-test", db, root.build())
            .build()
            .unwrap();
        (spec, credit, customers)
    }

    #[test]
    fn universe_contains_variables_constants_slots_and_navigations() {
        let (spec, credit, customers) = spec();
        let constants = BTreeSet::from([DataValue::str("Init")]);
        let u = ExprUniverse::build(&spec, spec.root(), &[VarType::Id(customers)], &constants);
        // null + 1 constant + 2 task vars + 1 global + 2 slots, plus
        // navigations: cust_id.{name,record,record.status} (3), global same
        // (3), ORDERS slot 0 same (3).
        assert_eq!(u.len(), 1 + 1 + 2 + 1 + 2 + 3 * 3);
        let cust = u
            .var_expr(VarRef::Task(VarId::new(0)))
            .expect("cust_id expression");
        assert_eq!(u.expr(cust).sort, ExprSort::Id(customers));
        // cust_id.record.status exists and is data-sorted.
        let record = u.navigate(cust, AttrId::new(1)).unwrap();
        assert_eq!(u.expr(record).sort, ExprSort::Id(credit));
        let status = u.navigate(record, AttrId::new(0)).unwrap();
        assert_eq!(u.expr(status).sort, ExprSort::Data);
        assert!(u.navigate(status, AttrId::new(0)).is_none());
        // The constant and null exist.
        assert!(u.const_expr(&DataValue::str("Init")).is_some());
        assert!(u.const_expr(&DataValue::str("Other")).is_none());
        assert_eq!(u.expr(u.null_expr()).sort, ExprSort::Null);
    }

    #[test]
    fn rebase_maps_variable_navigations_to_slot_navigations() {
        let (spec, _, customers) = spec();
        let u = ExprUniverse::build(&spec, spec.root(), &[], &BTreeSet::new());
        let cust_var = VarRef::Task(VarId::new(0));
        let cust = u.var_expr(cust_var).unwrap();
        let record = u.navigate(cust, AttrId::new(1)).unwrap();
        let slot_head = ExprHead::Slot(ArtRelId::new(0), 0);
        let rebased = u
            .rebase(record, &ExprHead::Var(cust_var), &slot_head)
            .unwrap();
        let slot_root = u.slot_expr(ArtRelId::new(0), 0).unwrap();
        assert_eq!(u.expr(rebased).parent.unwrap().0, slot_root);
        assert_eq!(u.expr(rebased).sort, u.expr(record).sort);
        // Rebasing an expression with a different head returns None.
        assert!(u
            .rebase(
                record,
                &ExprHead::Var(VarRef::Task(VarId::new(1))),
                &slot_head
            )
            .is_none());
        let _ = customers;
    }

    #[test]
    fn headed_by_filters_by_head() {
        let (spec, _, _) = spec();
        let u = ExprUniverse::build(&spec, spec.root(), &[], &BTreeSet::new());
        let status_var = VarRef::Task(VarId::new(1));
        let headed = u.headed_by(|h| *h == ExprHead::Var(status_var));
        assert_eq!(headed.len(), 1); // data variable: no navigations
        let cust_var = VarRef::Task(VarId::new(0));
        let headed = u.headed_by(|h| *h == ExprHead::Var(cust_var));
        assert_eq!(headed.len(), 4); // cust_id, .name, .record, .record.status
    }

    #[test]
    fn display_renders_navigation_paths() {
        let (spec, _, _) = spec();
        let u = ExprUniverse::build(&spec, spec.root(), &[], &BTreeSet::new());
        let cust = u.var_expr(VarRef::Task(VarId::new(0))).unwrap();
        let record = u.navigate(cust, AttrId::new(1)).unwrap();
        let status = u.navigate(record, AttrId::new(0)).unwrap();
        assert_eq!(
            u.display(&spec, spec.root(), status),
            "cust_id.record.status"
        );
        let slot = u.slot_expr(ArtRelId::new(0), 1).unwrap();
        assert_eq!(u.display(&spec, spec.root(), slot), "ORDERS[status]");
    }
}
