//! Static analysis of non-violating constraints (Section 3.7).
//!
//! The *constraint graph* `G` collects every `=`/`≠` edge that any symbolic
//! transition or property condition could ever add to a partial
//! isomorphism type (Definition 24).  An edge of `G` is *non-violating*
//! when adding it to any consistent subgraph keeps the subgraph consistent;
//! such edges can be dropped from every reachable type without changing
//! the verification outcome, shrinking the state space.
//!
//! Following the paper, a `≠`-edge is non-violating when its endpoints lie
//! in different connected components of the `=`-edges.  For `=`-edges the
//! paper uses biconnected components; this implementation uses the simpler,
//! *conservative* criterion that the whole `=`-connected component contains
//! no conflict (no `≠`-edge between two of its members and at most one
//! constant among its members) — every edge it removes is also removed by
//! the exact criterion, so soundness is preserved and only some reduction
//! opportunities are missed.

use crate::eval::compile_condition;
use crate::expr::{ExprId, ExprUniverse};
use crate::pit::Edge;
use std::collections::{HashMap, HashSet};
use verifas_ltl::{LtlFoProperty, PropAtom};
use verifas_model::{Condition, HasSpec, TaskId};

/// The constraint graph of a specification/property pair, restricted to the
/// verified task's expression universe.
#[derive(Debug, Default, Clone)]
pub struct ConstraintGraph {
    /// All `=`-edges that can ever be asserted.
    pub eq_edges: HashSet<(ExprId, ExprId)>,
    /// All `≠`-edges that can ever be asserted.
    pub neq_edges: HashSet<(ExprId, ExprId)>,
}

impl ConstraintGraph {
    /// Build the constraint graph from every condition observable in local
    /// runs of the task (service pre/post conditions, opening/closing
    /// guards, the global pre-condition) and the property's conditions.
    pub fn build(
        spec: &HasSpec,
        task: TaskId,
        property: &LtlFoProperty,
        universe: &ExprUniverse,
    ) -> Self {
        ConstraintGraph::build_spec_side(spec, task, universe).with_property(property, universe)
    }

    /// Build the property-independent part of the constraint graph: every
    /// condition observable in local runs of the task (service pre/post
    /// conditions, opening/closing guards, the global pre-condition).  The
    /// result can be shared across properties of the same task and extended
    /// per property with [`ConstraintGraph::with_property`].
    pub fn build_spec_side(spec: &HasSpec, task: TaskId, universe: &ExprUniverse) -> Self {
        let mut graph = ConstraintGraph::default();
        let mut conditions: Vec<Condition> = Vec::new();
        let task_def = spec.task(task);
        for svc in &task_def.services {
            conditions.push(svc.pre.clone());
            conditions.push(svc.post.clone());
        }
        conditions.push(task_def.closing.pre.clone());
        for &child in spec.children(task) {
            conditions.push(spec.task(child).opening.pre.clone());
        }
        if task == spec.root() {
            conditions.push(spec.global_pre.clone());
        }
        graph.add_conditions(&conditions, universe);
        graph
    }

    /// Extend a (spec-side) graph with the edges of a property's FO
    /// conditions and their negations, returning the completed graph.
    pub fn with_property(&self, property: &LtlFoProperty, universe: &ExprUniverse) -> Self {
        let mut graph = self.clone();
        let mut conditions: Vec<Condition> = Vec::new();
        for atom in &property.props {
            if let PropAtom::Condition(c) = atom {
                conditions.push(c.clone());
                conditions.push(Condition::not(c.clone()));
            }
        }
        graph.add_conditions(&conditions, universe);
        graph
    }

    fn add_conditions(&mut self, conditions: &[Condition], universe: &ExprUniverse) {
        for cond in conditions {
            // Compiling both the condition and, through DNF, all its atoms
            // yields exactly the edges a symbolic transition may add; add
            // their navigation consequences as well (Definition 24 closes
            // `=`-edges under common suffixes).
            let compiled = compile_condition(&cond.nnf(), universe);
            for conjunct in &compiled.conjuncts {
                for edge in conjunct {
                    self.add_edge_with_suffixes(*edge, universe);
                }
            }
        }
    }

    fn add_edge_with_suffixes(&mut self, edge: Edge, universe: &ExprUniverse) {
        let (a, b) = edge.endpoints();
        if edge.is_neq() {
            self.neq_edges.insert(ordered(a, b));
        } else {
            self.eq_edges.insert(ordered(a, b));
            // x = y implies x.w = y.w for every common suffix w.
            let mut stack = vec![(a, b)];
            while let Some((x, y)) = stack.pop() {
                for (attr, cx) in &universe.expr(x).children {
                    if let Some(cy) = universe.navigate(y, *attr) {
                        if self.eq_edges.insert(ordered(*cx, cy)) {
                            stack.push((*cx, cy));
                        }
                    }
                }
            }
        }
    }

    /// The set of non-violating edges: these can be removed from every
    /// reachable partial isomorphism type (Section 3.7).
    pub fn non_violating_edges(&self, universe: &ExprUniverse) -> HashSet<Edge> {
        // Connected components of the =-edges.
        let n = universe.len();
        let mut dsu: Vec<usize> = (0..n).collect();
        fn find(dsu: &mut Vec<usize>, x: usize) -> usize {
            if dsu[x] != x {
                let root = find(dsu, dsu[x]);
                dsu[x] = root;
            }
            dsu[x]
        }
        for &(a, b) in &self.eq_edges {
            let (ra, rb) = (find(&mut dsu, a as usize), find(&mut dsu, b as usize));
            if ra != rb {
                dsu[ra] = rb;
            }
        }
        // A component is conflicted when it contains both endpoints of a
        // ≠-edge or more than one constant (including null).
        let mut conflicted: HashSet<usize> = HashSet::new();
        for &(a, b) in &self.neq_edges {
            let (ra, rb) = (find(&mut dsu, a as usize), find(&mut dsu, b as usize));
            if ra == rb {
                conflicted.insert(ra);
            }
        }
        let mut constants_per_component: HashMap<usize, usize> = HashMap::new();
        for (id, expr) in universe.iter() {
            let is_const = matches!(
                expr.head,
                crate::expr::ExprHead::Null | crate::expr::ExprHead::Const(_)
            ) && expr.path.is_empty();
            if is_const {
                let r = find(&mut dsu, id as usize);
                *constants_per_component.entry(r).or_insert(0) += 1;
            }
        }
        for (component, count) in constants_per_component {
            if count > 1 {
                conflicted.insert(component);
            }
        }
        let mut out = HashSet::new();
        // ≠-edges between different =-components are non-violating.
        for &(a, b) in &self.neq_edges {
            if find(&mut dsu, a as usize) != find(&mut dsu, b as usize) {
                out.insert(Edge::neq(a, b));
            }
        }
        // =-edges inside a conflict-free component are non-violating.
        for &(a, b) in &self.eq_edges {
            let r = find(&mut dsu, a as usize);
            if !conflicted.contains(&r) {
                out.insert(Edge::eq(a, b));
            }
        }
        out
    }
}

fn ordered(a: ExprId, b: ExprId) -> (ExprId, ExprId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use verifas_ltl::Ltl;
    use verifas_model::schema::attr::data;
    use verifas_model::{DatabaseSchema, SpecBuilder, TaskBuilder, Term, VarId, VarRef};

    /// Spec where variable x is compared only by equality to "a" (never
    /// disequated) and variable y is both equated and disequated to "b".
    fn spec_and_property() -> (HasSpec, LtlFoProperty) {
        let mut db = DatabaseSchema::new();
        db.add_relation("R", vec![data("a")]).unwrap();
        let mut root = TaskBuilder::new("Root");
        let x = root.data_var("x");
        let y = root.data_var("y");
        root.service_parts(
            "sx",
            Condition::True,
            Condition::eq(Term::var(x), Term::str("a")),
            vec![],
            None,
        );
        root.service_parts(
            "sy",
            Condition::neq(Term::var(y), Term::str("b")),
            Condition::eq(Term::var(y), Term::str("b")),
            vec![],
            None,
        );
        let spec = SpecBuilder::new("sa", db, root.build()).build().unwrap();
        let property = LtlFoProperty::new(
            "trivial",
            TaskId::new(0),
            vec![],
            Ltl::globally(Ltl::prop(0)),
            vec![PropAtom::Condition(Condition::True)],
        );
        (spec, property)
    }

    #[test]
    fn equality_only_constraints_are_non_violating() {
        let (spec, property) = spec_and_property();
        let st = crate::transition::SymbolicTask::new(&spec, spec.root(), &[], &[], true);
        let graph = ConstraintGraph::build(&spec, spec.root(), &property, &st.universe);
        let removable = graph.non_violating_edges(&st.universe);
        let u = &st.universe;
        let x = u.var_expr(VarRef::Task(VarId::new(0))).unwrap();
        let y = u.var_expr(VarRef::Task(VarId::new(1))).unwrap();
        let a = u.const_expr(&verifas_model::DataValue::str("a")).unwrap();
        let b = u.const_expr(&verifas_model::DataValue::str("b")).unwrap();
        // x = "a" can never be violated (x is never disequated from
        // anything), so it is removable.
        assert!(removable.contains(&Edge::eq(x, a)));
        // y = "b" conflicts with the pre-condition y ≠ "b", so it must stay.
        assert!(!removable.contains(&Edge::eq(y, b)));
        // The ≠-edge y ≠ "b" connects two expressions joined by an =-edge
        // elsewhere in the graph (y = "b"), so it is violating and must stay.
        assert!(!removable.contains(&Edge::neq(y, b)));
    }

    #[test]
    fn disconnected_disequalities_are_non_violating() {
        // A ≠ between two expressions never connected by = edges can never
        // cause inconsistency.
        let mut db = DatabaseSchema::new();
        db.add_relation("R", vec![data("a")]).unwrap();
        let mut root = TaskBuilder::new("Root");
        let x = root.data_var("x");
        let y = root.data_var("y");
        root.service_parts(
            "s",
            Condition::neq(Term::var(x), Term::var(y)),
            Condition::True,
            vec![],
            None,
        );
        let spec = SpecBuilder::new("sa2", db, root.build()).build().unwrap();
        let property = LtlFoProperty::new(
            "trivial",
            TaskId::new(0),
            vec![],
            Ltl::globally(Ltl::prop(0)),
            vec![PropAtom::Condition(Condition::True)],
        );
        let st = crate::transition::SymbolicTask::new(&spec, spec.root(), &[], &[], true);
        let graph = ConstraintGraph::build(&spec, spec.root(), &property, &st.universe);
        let removable = graph.non_violating_edges(&st.universe);
        let u = &st.universe;
        let xe = u.var_expr(VarRef::Task(VarId::new(0))).unwrap();
        let ye = u.var_expr(VarRef::Task(VarId::new(1))).unwrap();
        assert!(removable.contains(&Edge::neq(xe, ye)));
    }
}
