//! Data-structure support for the coverage tests (Section 3.6).
//!
//! Every time the search produces a state it must find the active states
//! that cover it and the active states it covers.  Every coverage order
//! requires equal discrete components (automaton state, child activation,
//! closed flag), so with DSS on `Candidates` keeps one ascending id
//! vector per discrete key: scanning a group visits exactly the states a
//! full scan would accept, in the same order.  With DSS off it is the
//! paper's no-DSS ablation, a linear scan over every id.
//!
//! The paper's Trie and inverted lists over state signatures survive as
//! `SubsetFilter`: posting lists from the `=`-edges of a type to the
//! states holding them, built once over the final active set of the
//! repeated-reachability cycle pass.  It is the only place a signature
//! filter pays for itself: there most candidates of a group fail the
//! exact test, while inside the search a group's members are cheap to
//! test directly.

use crate::coverage::discrete_key;
use crate::pit::Edge;
use crate::product::StateView;
use std::collections::HashMap;
use std::ops::Range;

/// Discrete part of a state; only states of the same group are ever
/// comparable.
pub(crate) type GroupKey = (usize, u64, bool);

/// Coverage-candidate ids of a set that grows by ascending ids.
#[derive(Debug)]
pub(crate) struct Candidates {
    /// Ascending live ids per discrete key, or `None` for the linear scan.
    groups: Option<HashMap<GroupKey, Vec<u32>>>,
    /// One past the largest id inserted.
    len: u32,
}

impl Candidates {
    /// An empty set: grouped by discrete key with DSS on, scanned
    /// linearly with it off.
    pub(crate) fn new(data_structure_support: bool) -> Self {
        Candidates {
            groups: data_structure_support.then(HashMap::new),
            len: 0,
        }
    }

    /// Add `id`, which must exceed every id added before.
    pub(crate) fn insert(&mut self, key: GroupKey, id: u32) {
        debug_assert!(id >= self.len, "ids are inserted in ascending order");
        self.len = id + 1;
        if let Some(groups) = &mut self.groups {
            groups.entry(key).or_default().push(id);
        }
    }

    /// Drop `id` from its group.  The scan still yields it, so callers
    /// check liveness themselves.
    pub(crate) fn remove(&mut self, key: GroupKey, id: u32) {
        if let Some(group) = self.groups.as_mut().and_then(|g| g.get_mut(&key)) {
            // Ordered removal keeps the group ascending.
            if let Ok(pos) = group.binary_search(&id) {
                group.remove(pos);
            }
        }
    }

    /// The ids ≥ `from` that may share `key`, ascending: the key's group,
    /// or every id inserted so far under the scan.
    pub(crate) fn ids(&self, key: GroupKey, from: u32) -> Ids<'_> {
        match &self.groups {
            Some(groups) => {
                let group = groups.get(&key).map_or(&[][..], Vec::as_slice);
                Ids::Listed(group[group.partition_point(|&id| id < from)..].iter())
            }
            None => Ids::Scan(from..self.len),
        }
    }
}

/// An ascending run of candidate ids.
#[derive(Debug)]
pub(crate) enum Ids<'a> {
    /// Part of a discrete group.
    Listed(std::slice::Iter<'a, u32>),
    /// Every id of a range.
    Scan(Range<u32>),
    /// The ids a [`SubsetFilter`] query kept.
    Filtered(std::vec::IntoIter<u32>),
}

impl Iterator for Ids<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        match self {
            Ids::Listed(ids) => ids.next().copied(),
            Ids::Scan(ids) => ids.next(),
            Ids::Filtered(ids) => ids.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            Ids::Listed(ids) => ids.size_hint(),
            Ids::Scan(ids) => ids.size_hint(),
            Ids::Filtered(ids) => ids.size_hint(),
        }
    }
}

impl ExactSizeIterator for Ids<'_> {}

/// The edge signature of a state: the `=`-edges of its partial
/// isomorphism type (a sorted set, like the type's edges).
///
/// This is the largest signature for which the subset filter is *sound*
/// (it never drops a true coverage candidate), which the
/// repeated-reachability cycle detection depends on — a dropped candidate
/// there would be a missed edge and possibly a missed violation:
///
/// * every coverage order requires `covering.pit ⊑ covered.pit`, i.e. the
///   covering type's closed edge set is a subset of the covered one's, so
///   its `=`-edges are too;
/// * `≠`-edges are excluded for cost, not soundness: a canonically closed
///   type materialises a `≠`-edge against almost every constant of the
///   universe, so `≠`-postings degenerate to nearly the whole group and a
///   query over them costs more than the exact tests it filters;
/// * stored-type edges (of positive counters) are excluded for soundness:
///   a covering state may hold stored tuples the flow mapping leaves as
///   slack, whose types — and edges — appear nowhere in the covered state.
fn edge_signature<'a>(state: StateView<'a>) -> impl Iterator<Item = Edge> + 'a {
    state.pit.edges().iter().copied().filter(|e| !e.is_neq())
}

/// Posting lists of one discrete group.
#[derive(Debug, Default)]
struct FilterGroup {
    /// Edge → ascending ids whose signature contains the edge.
    postings: HashMap<Edge, Vec<u32>>,
    /// Ascending ids with an empty signature.
    empty: Vec<u32>,
}

/// A subset-signature filter over a fixed set of states.
///
/// A stored state can cover a query only when its signature is a subset
/// of the query's, i.e. when it occurs in the posting list of each of its
/// own signature edges among the query's edges.  The filter is immutable
/// once built, so any number of threads query it without locks.
#[derive(Debug)]
pub(crate) struct SubsetFilter {
    groups: HashMap<GroupKey, FilterGroup>,
    /// Signature length per id.
    sizes: Vec<usize>,
}

impl SubsetFilter {
    /// Index `states` under the ids 0, 1, 2, … in iteration order.
    pub(crate) fn new<'a>(states: impl IntoIterator<Item = StateView<'a>>) -> Self {
        let mut groups: HashMap<GroupKey, FilterGroup> = HashMap::new();
        let mut sizes = Vec::new();
        for (id, state) in states.into_iter().enumerate() {
            let id = id as u32;
            let group = groups.entry(discrete_key(state)).or_default();
            let mut size = 0;
            for edge in edge_signature(state) {
                group.postings.entry(edge).or_default().push(id);
                size += 1;
            }
            if size == 0 {
                group.empty.push(id);
            }
            sizes.push(size);
        }
        SubsetFilter { groups, sizes }
    }

    /// Narrow `group` — the candidates of `state`'s discrete group,
    /// ascending — to the ids whose signature is a subset of `state`'s.
    ///
    /// A query walks the posting lists of the state's signature edges.
    /// When their total length exceeds the group's, high-frequency edges
    /// make filtering dearer than testing the group itself, so `group`
    /// comes back unchanged: the same over-approximation, only coarser.
    /// Either way the ids come out ascending.
    pub(crate) fn narrow<'c>(&self, state: StateView<'_>, group: Ids<'c>) -> Ids<'c> {
        let Some(lists) = self.groups.get(&discrete_key(state)) else {
            return group;
        };
        let cost: usize = edge_signature(state)
            .map(|edge| lists.postings.get(&edge).map_or(0, Vec::len))
            .sum();
        if cost > group.len() {
            return group;
        }
        let mut hits: Vec<u32> = Vec::with_capacity(cost);
        for edge in edge_signature(state) {
            if let Some(list) = lists.postings.get(&edge) {
                hits.extend_from_slice(list);
            }
        }
        hits.sort_unstable();
        // An id whose every signature edge is among the query's occurs
        // once per edge, i.e. exactly its signature length times.
        let mut kept = lists.empty.clone();
        for run in hits.chunk_by(|a, b| a == b) {
            if run.len() == self.sizes[run[0] as usize] {
                kept.push(run[0]);
            }
        }
        kept.sort_unstable();
        Ids::Filtered(kept.into_iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ExprUniverse;
    use crate::pit::{Pit, PitBuilder};
    use crate::product::ProductState;
    use crate::psi::Psi;
    use std::collections::BTreeSet;
    use verifas_model::schema::attr::data;
    use verifas_model::{
        Condition, DataValue, DatabaseSchema, SpecBuilder, TaskBuilder, VarId, VarRef,
    };

    fn universe() -> ExprUniverse {
        let mut db = DatabaseSchema::new();
        db.add_relation("R", vec![data("a")]).unwrap();
        let mut root = TaskBuilder::new("Root");
        root.data_var("x");
        root.data_var("y");
        root.service_parts("noop", Condition::True, Condition::True, vec![], None);
        let spec = SpecBuilder::new("idx", db, root.build()).build().unwrap();
        ExprUniverse::build(
            &spec,
            spec.root(),
            &[],
            &BTreeSet::from([DataValue::str("a"), DataValue::str("b")]),
        )
    }

    fn state_with(pit: Pit) -> ProductState {
        ProductState {
            psi: Psi::with_pit(pit),
            buchi: 0,
            closed: false,
        }
    }

    fn pit_eq(u: &ExprUniverse, var: u32, c: &str) -> Pit {
        let x = u.var_expr(VarRef::Task(VarId::new(var))).unwrap();
        let k = u.const_expr(&DataValue::str(c)).unwrap();
        let mut b = PitBuilder::new(u);
        b.assert_eq(x, k);
        b.finish().unwrap()
    }

    /// Grouped candidates and a filter over the same states, ids in order.
    fn indexed(states: &[&ProductState]) -> (Candidates, SubsetFilter) {
        let mut candidates = Candidates::new(true);
        for (id, state) in states.iter().enumerate() {
            candidates.insert(discrete_key(state.view()), id as u32);
        }
        let filter = SubsetFilter::new(states.iter().map(|s| s.view()));
        (candidates, filter)
    }

    fn narrowed(candidates: &Candidates, filter: &SubsetFilter, state: &ProductState) -> Vec<u32> {
        let group = candidates.ids(discrete_key(state.view()), 0);
        filter.narrow(state.view(), group).collect()
    }

    #[test]
    fn subset_candidates() {
        let u = universe();
        let empty = state_with(Pit::empty());
        let xa = state_with(pit_eq(&u, 0, "a"));
        let both = state_with(pit_eq(&u, 0, "a").conjoin(&pit_eq(&u, 1, "b"), &u).unwrap());
        let (candidates, filter) = indexed(&[&empty, &xa, &both]);
        // Subset candidates of `both`: everything with signature ⊆ both.
        assert_eq!(narrowed(&candidates, &filter, &both), vec![0, 1, 2]);
        // Subset candidates of `xa`: the empty state and itself.
        assert_eq!(narrowed(&candidates, &filter, &xa), vec![0, 1]);
        // Subset candidates of the empty state: empty signatures only.
        assert_eq!(narrowed(&candidates, &filter, &empty), vec![0]);
    }

    /// A query whose posting lists are longer than its group yields the
    /// group itself; one under that limit yields the filtered subset.
    #[test]
    fn costly_queries_fall_back_to_the_group() {
        let u = universe();
        // x = a ∧ y = a closes to three `=`-edges: x=a, y=a, x=y.
        let xy = || state_with(pit_eq(&u, 0, "a").conjoin(&pit_eq(&u, 1, "a"), &u).unwrap());
        let (first, second) = (xy(), xy());
        let xb = state_with(pit_eq(&u, 0, "b"));
        let (candidates, filter) = indexed(&[&first, &xb, &second]);
        // Querying `first` walks 3 edges × 2 postings = 6 > 3 members.
        assert_eq!(narrowed(&candidates, &filter, &first), vec![0, 1, 2]);
        // Querying `xb` walks one posting, under the limit: only itself.
        assert_eq!(narrowed(&candidates, &filter, &xb), vec![1]);
    }

    #[test]
    fn groups_partition_by_discrete_state() {
        let u = universe();
        let mut a = state_with(pit_eq(&u, 0, "a"));
        let (candidates, filter) = indexed(&[&a]);
        a.buchi = 3;
        // Different automaton state: no candidates from the other group.
        assert!(narrowed(&candidates, &filter, &a).is_empty());
    }

    /// Without DSS every id inserted so far is a candidate, grouped or
    /// not and live or not; with it only the live members of the group.
    #[test]
    fn the_scan_yields_every_id_and_groups_only_live_members() {
        let (one, two) = ((0, 0, false), (1, 0, false));
        let mut scan = Candidates::new(false);
        let mut grouped = Candidates::new(true);
        for (id, key) in [one, two, one, one].into_iter().enumerate() {
            scan.insert(key, id as u32);
            grouped.insert(key, id as u32);
        }
        scan.remove(one, 2);
        grouped.remove(one, 2);
        assert_eq!(scan.ids(one, 1).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(grouped.ids(one, 0).collect::<Vec<_>>(), vec![0, 3]);
        assert_eq!(grouped.ids(one, 1).collect::<Vec<_>>(), vec![3]);
        assert_eq!(grouped.ids(two, 0).len(), 1);
    }
}
