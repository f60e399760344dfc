//! Partial isomorphism types (paper Definition 17).
//!
//! A partial isomorphism type is an undirected graph over the expression
//! universe whose edges are labelled `=` or `≠`, such that
//!
//! 1. the equivalence induced by the `=`-edges is closed under foreign-key
//!    navigation (if `e ∼ e'` and both `e.A` and `e'.A` exist, then
//!    `e.A ∼ e'.A`), and
//! 2. `≠`-edges are propagated to whole equivalence classes and never
//!    contradict the `=`-edges.
//!
//! [`Pit`] stores the *canonically closed* edge set (every implied pair is
//! materialised), which makes the implication test of Definition 22
//! (`τ ⊨ τ'` iff `τ' ⊆ τ`) a plain sorted-subset test and gives types a
//! canonical hashable form.  [`PitBuilder`] is the working representation: a
//! union-find plus disequality constraints with congruence closure and
//! consistency checking (conflicting constants, incompatible ID types,
//! `≠` inside a class), kept in dense per-class arrays so that building a
//! type never hashes.

use crate::expr::{ExprId, ExprSort, ExprUniverse};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// An edge of a partial isomorphism type: an (in)equality between two
/// expressions, encoded compactly for fast set operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Edge(u64);

impl Edge {
    /// An `=` edge (order of endpoints is irrelevant).
    pub fn eq(a: ExprId, b: ExprId) -> Edge {
        Edge::encode(a, b, false)
    }

    /// A `≠` edge (order of endpoints is irrelevant).
    pub fn neq(a: ExprId, b: ExprId) -> Edge {
        Edge::encode(a, b, true)
    }

    fn encode(a: ExprId, b: ExprId, neq: bool) -> Edge {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        Edge(((lo as u64) << 33) | ((hi as u64) << 1) | (neq as u64))
    }

    /// `true` iff this is a `≠` edge.
    pub fn is_neq(self) -> bool {
        self.0 & 1 == 1
    }

    /// The same pair with the other label (`a ≠ b` for `a = b`, and back).
    pub fn complement(self) -> Edge {
        Edge(self.0 ^ 1)
    }

    /// The two endpoints (smaller id first).
    pub fn endpoints(self) -> (ExprId, ExprId) {
        (
            ((self.0 >> 33) & 0xFFFF_FFFF) as ExprId,
            ((self.0 >> 1) & 0xFFFF_FFFF) as ExprId,
        )
    }
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (a, b) = self.endpoints();
        write!(f, "e{a} {} e{b}", if self.is_neq() { "≠" } else { "=" })
    }
}

/// A canonically closed, consistent partial isomorphism type.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pit {
    edges: Vec<Edge>,
}

impl Pit {
    /// The empty type (no constraints).
    pub fn empty() -> Pit {
        Pit::default()
    }

    /// The (sorted) closed edge set.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Number of edges of the closed representation.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// `true` iff the type imposes no constraint.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Implication of Definition 22: `self ⊨ weaker` iff every edge of
    /// `weaker` is an edge of `self` (both are closed, so syntactic subset
    /// coincides with semantic implication).
    pub fn implies(&self, weaker: &Pit) -> bool {
        // Sorted-merge subset test.
        let mut i = 0;
        for edge in &weaker.edges {
            while i < self.edges.len() && self.edges[i] < *edge {
                i += 1;
            }
            if i >= self.edges.len() || self.edges[i] != *edge {
                return false;
            }
            i += 1;
        }
        true
    }

    /// `true` iff the edge belongs to the type.
    pub fn contains(&self, edge: Edge) -> bool {
        self.edges.binary_search(&edge).is_ok()
    }

    /// Projection: keep only the edges whose two endpoints satisfy the
    /// predicate (paper: "keeps only the expressions headed by variables in
    /// ȳ and their connections").  The result is still closed and
    /// consistent.
    pub fn project(&self, keep: impl Fn(ExprId) -> bool) -> Pit {
        Pit {
            edges: self
                .edges
                .iter()
                .copied()
                .filter(|e| {
                    let (a, b) = e.endpoints();
                    keep(a) && keep(b)
                })
                .collect(),
        }
    }

    /// Remove the given edges (used by the static-analysis optimisation of
    /// Section 3.7 to drop non-violating constraints).
    pub fn without_edges(&self, remove: &HashSet<Edge>) -> Pit {
        if remove.is_empty() {
            return self.clone();
        }
        Pit {
            edges: self
                .edges
                .iter()
                .copied()
                .filter(|e| !remove.contains(e))
                .collect(),
        }
    }

    /// Rename expressions through `map` (expressions without a mapping are
    /// dropped), re-closing and re-checking consistency.  Used when moving
    /// a tuple type between task variables and artifact-relation slots.
    pub fn rename(&self, universe: &ExprUniverse, map: &HashMap<ExprId, ExprId>) -> Option<Pit> {
        let mut builder = PitBuilder::new(universe);
        for edge in &self.edges {
            let (a, b) = edge.endpoints();
            let (Some(&a2), Some(&b2)) = (map.get(&a), map.get(&b)) else {
                continue;
            };
            if edge.is_neq() {
                builder.assert_neq(a2, b2);
            } else {
                builder.assert_eq(a2, b2);
            }
        }
        builder.finish()
    }

    /// Conjoin two types (union of constraints), re-closing; `None` when
    /// the conjunction is inconsistent.
    pub fn conjoin(&self, other: &Pit, universe: &ExprUniverse) -> Option<Pit> {
        let mut builder = PitBuilder::from_pit(universe, self);
        builder.merge_pit(other);
        builder.finish()
    }

    /// The type's [`Signature`]: one bit per `=`-edge.
    pub(crate) fn signature(&self) -> Signature {
        let mut words = [0u64; 4];
        for edge in self.edges.iter().filter(|e| !e.is_neq()) {
            // Fibonacci hashing: the top 8 bits of the product pick the bit.
            let bit = (edge.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as usize;
            words[bit >> 6] |= 1 << (bit & 63);
        }
        Signature(words)
    }
}

/// A 256-bit summary of a type's `=`-edges: each edge sets the bit a fixed
/// multiplicative hash picks for it, so when one type's edges include
/// another's, its signature includes the other's too.
///
/// Coverage candidates are gated on it (see `index::Candidates`), so it
/// covers the largest edge set for which the gate is *sound*: it never
/// drops a true coverage candidate, which the repeated-reachability cycle
/// detection depends on (a dropped candidate there would be a missed edge
/// and possibly a missed violation).
///
/// * Every coverage order requires `covering.pit ⊑ covered.pit`, i.e. the
///   covering type's closed edge set is a subset of the covered one's, so
///   its `=`-edges, and with them its signature bits, are too.
/// * `≠`-edges are left out for selectivity, not soundness: a canonically
///   closed type materialises a `≠`-edge against almost every constant of
///   the universe, so their bits would fill nearly every signature.
/// * Stored-type edges (of positive counters) are left out for soundness:
///   a covering state may hold stored tuples the flow mapping leaves as
///   slack, whose types — and edges — appear nowhere in the covered state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Signature([u64; 4]);

impl Signature {
    /// `true` iff every bit of `self` is set in `other`.
    pub(crate) fn is_subset_of(&self, other: &Signature) -> bool {
        self.0
            .iter()
            .zip(&other.0)
            .fold(0, |outside, (mine, theirs)| outside | (mine & !theirs))
            == 0
    }
}

/// Sentinel for "no constant member" / "no navigation child" in the dense
/// per-class arrays of [`PitBuilder`].
const NONE: u32 = u32::MAX;

/// The starting point of every [`PitBuilder`] over one universe: each
/// expression its own class, with its own sort, constant and navigation
/// children, laid out densely.  Computed once when the universe is built
/// (see [`ExprUniverse::build`]) and copied by [`PitBuilder::new`].
#[derive(Debug, Clone, Default)]
pub(crate) struct BuilderTemplate {
    /// Slots per class in `children`: one per attribute of the widest
    /// relation any expression navigates.
    width: usize,
    /// Per-expression "strong" sort; `Null` stands for "none yet".
    sort: Vec<ExprSort>,
    /// Per-expression constant member (the expression itself for `null`
    /// and data constants, [`NONE`] otherwise).
    konst: Vec<ExprId>,
    /// Row-major `expression × attribute` navigation children ([`NONE`]
    /// where the expression has no such attribute).
    children: Vec<ExprId>,
}

impl BuilderTemplate {
    /// The template of `universe`.
    pub(crate) fn of(universe: &ExprUniverse) -> Self {
        let width = universe
            .iter()
            .flat_map(|(_, e)| e.children.iter().map(|(attr, _)| attr.index() + 1))
            .max()
            .unwrap_or(0);
        let mut template = BuilderTemplate {
            width,
            sort: Vec::with_capacity(universe.len()),
            konst: Vec::with_capacity(universe.len()),
            children: vec![NONE; universe.len() * width],
        };
        for (id, expr) in universe.iter() {
            template.sort.push(expr.sort);
            template.konst.push(match expr.sort {
                ExprSort::Null | ExprSort::DataConst => id,
                _ => NONE,
            });
            for (attr, child) in &expr.children {
                template.children[id as usize * width + attr.index()] = *child;
            }
        }
        template
    }
}

/// Working representation of a partial isomorphism type under
/// construction: a union-find with congruence closure plus disequalities.
///
/// Every per-class property is a dense array indexed by the class
/// representative, so building a type allocates a handful of flat vectors
/// and never hashes.
pub struct PitBuilder<'u> {
    universe: &'u ExprUniverse,
    parent: Vec<u32>,
    /// Slots per representative in `children`.
    width: usize,
    /// Per-representative "strong" sort (`Null` when the class has only
    /// `null`-sorted members).
    sort: Vec<ExprSort>,
    /// Per-representative constant member (a `DataConst` or `Null` expr),
    /// [`NONE`] when the class has none.
    konst: Vec<ExprId>,
    /// Per-representative navigation children, `width` slots per class
    /// (attribute → child expression, [`NONE`] when absent).  Rows of
    /// non-representatives are dead.
    children: Vec<ExprId>,
    /// Asserted disequalities (by original expression ids).
    neqs: Vec<(ExprId, ExprId)>,
    inconsistent: bool,
}

impl<'u> PitBuilder<'u> {
    /// A builder with no constraints.
    pub fn new(universe: &'u ExprUniverse) -> Self {
        let template = universe.builder_template();
        PitBuilder {
            universe,
            parent: (0..universe.len() as u32).collect(),
            width: template.width,
            sort: template.sort.clone(),
            konst: template.konst.clone(),
            children: template.children.clone(),
            neqs: Vec::new(),
            inconsistent: false,
        }
    }

    /// A builder pre-loaded with the constraints of an existing type.
    pub fn from_pit(universe: &'u ExprUniverse, pit: &Pit) -> Self {
        let mut b = PitBuilder::new(universe);
        b.merge_pit(pit);
        b
    }

    fn find(&mut self, x: u32) -> u32 {
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    /// Merge the sorts and constants of two classes; marks the builder
    /// inconsistent on a type clash or two distinct constants.
    fn merge_sorts(&mut self, keep: u32, drop: u32) {
        let (keep, drop) = (keep as usize, drop as usize);
        let (a, b) = (self.sort[keep], self.sort[drop]);
        if sorts_compatible(a, b) {
            self.sort[keep] = merge_sort(a, b);
        } else {
            self.inconsistent = true;
        }
        let c = self.konst[drop];
        if c != NONE {
            if self.konst[keep] == NONE {
                self.konst[keep] = c;
            } else if self.konst[keep] != c {
                // Two distinct constant expressions (distinct constants, or
                // null vs a constant) in the same class.
                self.inconsistent = true;
            }
        }
    }

    /// Assert `a = b`, with congruence closure.
    pub fn assert_eq(&mut self, a: ExprId, b: ExprId) {
        if self.inconsistent {
            return;
        }
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        // Union by arbitrary orientation (keep ra).
        self.parent[rb as usize] = ra;
        self.merge_sorts(ra, rb);
        if self.inconsistent {
            return;
        }
        // Congruence: merge navigation children attribute-wise.  `rb` is
        // no longer a representative, so its row is never written again.
        let row = rb as usize * self.width;
        for attr in 0..self.width {
            let child_b = self.children[row + attr];
            if child_b == NONE {
                continue;
            }
            // The recursive merge below can union `ra`'s class under a
            // different root, so the surviving representative must be
            // re-resolved on every iteration.  Keying off the stale `ra`
            // would orphan child entries (and miss existing ones), leaving
            // the congruence closure incomplete.
            let slot = self.find(ra) as usize * self.width + attr;
            match self.children[slot] {
                NONE => self.children[slot] = child_b,
                child_a => self.assert_eq(child_a, child_b),
            }
            if self.inconsistent {
                return;
            }
        }
    }

    /// Assert `a ≠ b`.
    pub fn assert_neq(&mut self, a: ExprId, b: ExprId) {
        if self.inconsistent {
            return;
        }
        self.neqs.push((a, b));
    }

    /// Add a single edge.
    pub fn assert_edge(&mut self, edge: Edge) {
        let (a, b) = edge.endpoints();
        if edge.is_neq() {
            self.assert_neq(a, b);
        } else {
            self.assert_eq(a, b);
        }
    }

    /// Add all the constraints of an existing type.
    pub fn merge_pit(&mut self, pit: &Pit) {
        for edge in pit.edges() {
            self.assert_edge(*edge);
        }
    }

    /// Finish: `None` if the accumulated constraints are inconsistent,
    /// otherwise the canonically closed type.
    ///
    /// The result depends only on the final partition and the asserted
    /// disequalities, never on which member a class keeps as its
    /// representative.
    pub fn finish(mut self) -> Option<Pit> {
        if self.inconsistent {
            return None;
        }
        let n = self.universe.len();
        // Flatten the forest: afterwards `parent[x]` is x's root.
        for x in 0..n as u32 {
            let root = self.find(x);
            self.parent[x as usize] = root;
        }
        let root = &self.parent;
        // Disequalities must separate distinct classes.
        if self
            .neqs
            .iter()
            .any(|&(a, b)| root[a as usize] == root[b as usize])
        {
            return None;
        }
        // Bucket the expressions by root (a counting sort, so every class
        // lists its members ascending).  After the placement pass
        // `end[r]` is one past the last member of root r's class and
        // `end[r - 1]` (or 0) its first.
        let mut end = vec![0u32; n];
        for &r in root {
            end[r as usize] += 1;
        }
        let mut total = 0u32;
        let mut eq_edges = 0usize;
        for count in end.iter_mut() {
            let k = *count as usize;
            eq_edges += k * k.saturating_sub(1) / 2;
            total += *count;
            *count = total - *count;
        }
        let mut members = vec![0u32; n];
        for (x, &r) in root.iter().enumerate() {
            members[end[r as usize] as usize] = x as u32;
            end[r as usize] += 1;
        }
        let class = |r: u32| {
            let r = r as usize;
            let begin = if r == 0 { 0 } else { end[r - 1] as usize };
            &members[begin..end[r] as usize]
        };
        // Each asserted disequality separates two whole classes; count
        // every class pair once.
        let mut neq_pairs: Vec<(u32, u32)> = self
            .neqs
            .iter()
            .map(|&(a, b)| {
                let (ra, rb) = (root[a as usize], root[b as usize]);
                (ra.min(rb), ra.max(rb))
            })
            .collect();
        neq_pairs.sort_unstable();
        neq_pairs.dedup();
        let neq_edges: usize = neq_pairs
            .iter()
            .map(|&(ra, rb)| class(ra).len() * class(rb).len())
            .sum();
        let mut edges: Vec<Edge> = Vec::with_capacity(eq_edges + neq_edges);
        for r in 0..n as u32 {
            if root[r as usize] != r {
                continue;
            }
            let members = class(r);
            for (i, &a) in members.iter().enumerate() {
                for &b in &members[i + 1..] {
                    edges.push(Edge::eq(a, b));
                }
            }
        }
        for &(ra, rb) in &neq_pairs {
            for &a in class(ra) {
                for &b in class(rb) {
                    edges.push(Edge::neq(a, b));
                }
            }
        }
        edges.sort_unstable();
        Some(Pit { edges })
    }

    /// `true` if an inconsistency has already been detected (the final
    /// verdict still requires [`PitBuilder::finish`], which also checks the
    /// disequalities).
    pub fn is_inconsistent(&self) -> bool {
        self.inconsistent
    }
}

/// Can two class sorts co-exist in one equivalence class?
///
/// Expressions of different domains (an ID of relation `R` and a data
/// value, or IDs of two different relations) *can* still be equal when both
/// are `null`, so such merges are not rejected — rejecting them would make
/// the symbolic search unsound the other way (dropping reachable states).
/// The only impossible combination is an ID-sorted expression equal to a
/// *non-null data constant*, which can never be `null`.
fn sorts_compatible(a: ExprSort, b: ExprSort) -> bool {
    use ExprSort::*;
    !matches!((a, b), (Id(_), DataConst) | (DataConst, Id(_)))
}

fn merge_sort(a: ExprSort, b: ExprSort) -> ExprSort {
    use ExprSort::*;
    match (a, b) {
        (DataConst, _) | (_, DataConst) => DataConst,
        (Id(r), _) | (_, Id(r)) => Id(r),
        (Null, x) | (x, Null) => x,
        _ => Data,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;
    use verifas_model::schema::attr::data;
    use verifas_model::{
        AttrId, Condition, DataValue, DatabaseSchema, HasSpec, SpecBuilder, TaskBuilder, Term,
        VarId, VarRef,
    };

    /// Schema R(ID, A) with variables x, y, z of type R.ID — the setting of
    /// Example 18 of the paper — plus two constants.
    pub(crate) fn example18() -> (HasSpec, ExprUniverse) {
        let mut db = DatabaseSchema::new();
        let r = db.add_relation("R", vec![data("A")]).unwrap();
        let mut root = TaskBuilder::new("Root");
        let x = root.id_var("x", r);
        root.id_var("y", r);
        root.id_var("z", r);
        root.service_parts(
            "noop",
            Condition::True,
            Condition::neq(Term::var(x), Term::Null),
            vec![],
            None,
        );
        let spec = SpecBuilder::new("ex18", db, root.build()).build().unwrap();
        let consts = BTreeSet::from([DataValue::str("c1"), DataValue::str("c2")]);
        let u = ExprUniverse::build(&spec, spec.root(), &[], &consts);
        (spec, u)
    }

    fn var(u: &ExprUniverse, i: u32) -> ExprId {
        u.var_expr(VarRef::Task(VarId::new(i))).unwrap()
    }

    fn attr_of(u: &ExprUniverse, v: ExprId) -> ExprId {
        u.navigate(v, AttrId::new(0)).unwrap()
    }

    #[test]
    fn edge_encoding_is_symmetric_and_typed() {
        assert_eq!(Edge::eq(3, 5), Edge::eq(5, 3));
        assert_ne!(Edge::eq(3, 5), Edge::neq(3, 5));
        assert_eq!(Edge::eq(3, 5).endpoints(), (3, 5));
        assert!(Edge::neq(1, 2).is_neq());
        assert!(!Edge::eq(1, 2).is_neq());
        assert_eq!(Edge::eq(3, 5).complement(), Edge::neq(5, 3));
        assert_eq!(Edge::neq(3, 5).complement(), Edge::eq(3, 5));
    }

    #[test]
    fn key_dependency_congruence_is_enforced() {
        // Example 18: x = y forces x.A = y.A.
        let (_spec, u) = example18();
        let (x, y) = (var(&u, 0), var(&u, 1));
        let mut b = PitBuilder::new(&u);
        b.assert_eq(x, y);
        let pit = b.finish().unwrap();
        assert!(pit.contains(Edge::eq(x, y)));
        assert!(pit.contains(Edge::eq(attr_of(&u, x), attr_of(&u, y))));
        // z remains unconstrained.
        let z = var(&u, 2);
        assert!(!pit.contains(Edge::eq(attr_of(&u, x), attr_of(&u, z))));
    }

    #[test]
    fn inconsistent_types_are_rejected() {
        let (_spec, u) = example18();
        let (x, y, z) = (var(&u, 0), var(&u, 1), var(&u, 2));
        // x = y, y = z, x ≠ z is inconsistent.
        let mut b = PitBuilder::new(&u);
        b.assert_eq(x, y);
        b.assert_eq(y, z);
        b.assert_neq(x, z);
        assert!(b.finish().is_none());
        // Distinct constants cannot be merged.
        let c1 = u.const_expr(&DataValue::str("c1")).unwrap();
        let c2 = u.const_expr(&DataValue::str("c2")).unwrap();
        let mut b = PitBuilder::new(&u);
        b.assert_eq(c1, c2);
        assert!(b.finish().is_none());
        // A constant cannot equal null.
        let mut b = PitBuilder::new(&u);
        b.assert_eq(c1, u.null_expr());
        assert!(b.finish().is_none());
        // An ID variable cannot equal a data constant.
        let mut b = PitBuilder::new(&u);
        b.assert_eq(x, c1);
        assert!(b.finish().is_none());
        // ...but x.A (data-sorted) can.
        let mut b = PitBuilder::new(&u);
        b.assert_eq(attr_of(&u, x), c1);
        assert!(b.finish().is_some());
    }

    #[test]
    fn implication_is_subset_of_closed_edges() {
        let (_spec, u) = example18();
        let (x, y, z) = (var(&u, 0), var(&u, 1), var(&u, 2));
        let mut b = PitBuilder::new(&u);
        b.assert_eq(x, y);
        b.assert_neq(y, z);
        let strong = b.finish().unwrap();
        let mut b = PitBuilder::new(&u);
        b.assert_eq(x, y);
        let weak = b.finish().unwrap();
        assert!(strong.implies(&weak));
        assert!(!weak.implies(&strong));
        assert!(strong.implies(&Pit::empty()));
        assert!(Pit::empty().implies(&Pit::empty()));
        // ≠ propagates to the whole classes: y ≠ z implies x ≠ z since x = y.
        assert!(strong.contains(Edge::neq(x, z)));
    }

    #[test]
    fn canonical_form_is_order_independent() {
        let (_spec, u) = example18();
        let (x, y, z) = (var(&u, 0), var(&u, 1), var(&u, 2));
        let mut b1 = PitBuilder::new(&u);
        b1.assert_eq(x, y);
        b1.assert_eq(y, z);
        let p1 = b1.finish().unwrap();
        let mut b2 = PitBuilder::new(&u);
        b2.assert_eq(z, x);
        b2.assert_eq(x, y);
        let p2 = b2.finish().unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn projection_keeps_only_selected_heads() {
        let (_spec, u) = example18();
        let (x, y, z) = (var(&u, 0), var(&u, 1), var(&u, 2));
        let mut b = PitBuilder::new(&u);
        b.assert_eq(x, y);
        b.assert_neq(x, z);
        let pit = b.finish().unwrap();
        // Keep only expressions headed by y and z (and constants/null).
        let keep: Vec<ExprId> = u.headed_by(|h| {
            matches!(h, crate::expr::ExprHead::Var(VarRef::Task(v)) if v.index() >= 1)
                || matches!(
                    h,
                    crate::expr::ExprHead::Null | crate::expr::ExprHead::Const(_)
                )
        });
        let keep_set: std::collections::HashSet<ExprId> = keep.into_iter().collect();
        let projected = pit.project(|e| keep_set.contains(&e));
        assert!(!projected.contains(Edge::eq(x, y)));
        assert!(!projected.contains(Edge::neq(x, z)));
        // The propagated disequality between the kept variables survives
        // (x = y and x ≠ z imply y ≠ z, and both y and z are kept).
        assert!(projected.contains(Edge::neq(y, z)));
        assert_eq!(projected.edge_count(), 1);
    }

    #[test]
    fn conjoin_detects_conflicts() {
        let (_spec, u) = example18();
        let (x, y) = (var(&u, 0), var(&u, 1));
        let mut b = PitBuilder::new(&u);
        b.assert_eq(x, y);
        let eq = b.finish().unwrap();
        let mut b = PitBuilder::new(&u);
        b.assert_neq(x, y);
        let neq = b.finish().unwrap();
        assert!(eq.conjoin(&neq, &u).is_none());
        let mut b = PitBuilder::new(&u);
        b.assert_neq(x, var(&u, 2));
        let other = b.finish().unwrap();
        let combined = eq.conjoin(&other, &u).unwrap();
        assert!(combined.contains(Edge::eq(x, y)));
        assert!(combined.contains(Edge::neq(y, var(&u, 2))));
    }

    #[test]
    fn rename_moves_constraints_between_heads() {
        let (_spec, u) = example18();
        let (x, y) = (var(&u, 0), var(&u, 1));
        let c1 = u.const_expr(&DataValue::str("c1")).unwrap();
        let mut b = PitBuilder::new(&u);
        b.assert_eq(attr_of(&u, x), c1);
        let pit = b.finish().unwrap();
        // Rename x -> y (and x.A -> y.A); keep constants fixed.
        let mut map = HashMap::new();
        map.insert(x, y);
        map.insert(attr_of(&u, x), attr_of(&u, y));
        map.insert(c1, c1);
        map.insert(u.null_expr(), u.null_expr());
        let renamed = pit.rename(&u, &map).unwrap();
        assert!(renamed.contains(Edge::eq(attr_of(&u, y), c1)));
        assert!(!renamed.contains(Edge::eq(attr_of(&u, x), c1)));
    }

    /// The type of a seeded `=`/`≠` assertion set, `None` when it is
    /// inconsistent.  Three in four partners share the first expression's
    /// domain (or are `null`), so most sets stay consistent long enough
    /// for congruence to matter.
    pub(crate) fn random_pit(u: &ExprUniverse, seed: u64) -> Option<Pit> {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = u.len();
        let domain = |id: usize| match u.expr(id as ExprId).sort {
            ExprSort::Id(rel) => Some(rel),
            _ => None,
        };
        let mut b = PitBuilder::new(u);
        for _ in 0..rng.gen_range(1..8) {
            let a = rng.gen_range(0..n);
            let partner = if rng.gen_range(0..4) == 0 {
                rng.gen_range(0..n)
            } else {
                let partners: Vec<usize> = (0..n)
                    .filter(|&b| domain(b) == domain(a) || b == u.null_expr() as usize)
                    .collect();
                partners[rng.gen_range(0..partners.len())]
            };
            let (a, partner) = (a as ExprId, partner as ExprId);
            if rng.gen_range(0..3) == 0 {
                b.assert_neq(a, partner);
            } else {
                b.assert_eq(a, partner);
            }
        }
        b.finish()
    }

    /// The signature gate never rejects a true coverage candidate: over
    /// every pair of seeded random types, `a ⊨ b` (which every coverage
    /// order requires of a covered `a` and a covering `b`) puts `b`'s
    /// signature inside `a`'s, and equal types have equal signatures.
    fn check_signature_gate(name: &str, u: &ExprUniverse) {
        let typed: Vec<(Pit, Signature)> = (0..400)
            .filter_map(|seed| random_pit(u, seed))
            .map(|pit| {
                let signature = pit.signature();
                (pit, signature)
            })
            .collect();
        let (mut strict, mut equal) = (0, 0);
        for (a, a_sig) in &typed {
            for (b, b_sig) in &typed {
                if !a.implies(b) {
                    continue;
                }
                assert!(b_sig.is_subset_of(a_sig), "{name}: {a:?} implies {b:?}");
                if a == b {
                    equal += 1;
                    assert_eq!(a_sig, b_sig, "{name}: {a:?}");
                } else {
                    strict += 1;
                }
            }
        }
        // Beyond the pairs of a type with itself, the sample must hold
        // strict implications and repeated types.
        assert!(
            strict > typed.len() && equal > typed.len(),
            "{name}: weak sample ({} types, {strict} strict implications, {equal} equal pairs)",
            typed.len()
        );
    }

    #[test]
    fn implied_types_have_subset_signatures_on_example18() {
        let (_spec, u) = example18();
        check_signature_gate("example18", &u);
    }

    #[test]
    fn implied_types_have_subset_signatures_on_order_fulfillment() {
        let spec = verifas_workloads::order_fulfillment();
        let u = ExprUniverse::build(
            &spec,
            spec.root(),
            &[],
            &crate::transition::spec_constants(&spec),
        );
        check_signature_gate("order_fulfillment", &u);
    }

    #[test]
    fn without_edges_removes_exact_edges() {
        let (_spec, u) = example18();
        let (x, y) = (var(&u, 0), var(&u, 1));
        let mut b = PitBuilder::new(&u);
        b.assert_eq(x, y);
        let pit = b.finish().unwrap();
        let mut remove = HashSet::new();
        remove.insert(Edge::eq(x, y));
        let cleaned = pit.without_edges(&remove);
        assert!(!cleaned.contains(Edge::eq(x, y)));
        // The congruence-derived edge survives.
        assert!(cleaned.contains(Edge::eq(attr_of(&u, x), attr_of(&u, y))));
    }
}
