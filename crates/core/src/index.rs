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
//! The paper's state signatures gate the members of a group.  Next to
//! each member id sits the `pit::Signature` of its type's `=`-edges, and a
//! query skips every member whose signature is not a subset of its own
//! (when it asks for the states that may cover it) or not a superset (when
//! it asks for the states it may cover).  A skipped member would have
//! failed the exact test, so the gate changes how many exact tests run and
//! nothing else.  Both search phases and the repeated-reachability cycle
//! pass query the same structure.

use crate::pit::Signature;
use std::collections::HashMap;
use std::iter::Zip;
use std::ops::Range;
use std::slice::Iter;

/// Discrete part of a state; only states of the same group are ever
/// comparable.
pub(crate) type GroupKey = (usize, u64, bool);

/// Coverage-candidate ids of a set that grows by ascending ids.
#[derive(Debug)]
pub(crate) struct Candidates {
    /// The live members of each discrete key, or `None` for the linear
    /// scan.
    groups: Option<HashMap<GroupKey, Group>>,
    /// One past the largest id inserted.
    len: u32,
}

/// The live members of one discrete group: ascending ids, each with its
/// signature at the same position, so a query never touches the states.
#[derive(Debug, Default)]
struct Group {
    ids: Vec<u32>,
    signatures: Vec<Signature>,
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

    /// Add `id` with its type's signature; `id` must exceed every id added
    /// before.
    pub(crate) fn insert(&mut self, key: GroupKey, id: u32, signature: Signature) {
        debug_assert!(id >= self.len, "ids are inserted in ascending order");
        self.len = id + 1;
        if let Some(groups) = &mut self.groups {
            let group = groups.entry(key).or_default();
            group.ids.push(id);
            group.signatures.push(signature);
        }
    }

    /// Drop `id` from its group.  The scan still yields it, so callers
    /// check liveness themselves.
    pub(crate) fn remove(&mut self, key: GroupKey, id: u32) {
        if let Some(group) = self.groups.as_mut().and_then(|g| g.get_mut(&key)) {
            // Ordered removal keeps the group ascending.
            if let Ok(pos) = group.ids.binary_search(&id) {
                group.ids.remove(pos);
                group.signatures.remove(pos);
            }
        }
    }

    /// The ids ≥ `from` that may cover a state with this key and
    /// signature, ascending: the group members whose signature is a subset
    /// of it, or every id inserted so far under the scan.
    pub(crate) fn covering(&self, key: GroupKey, signature: Signature, from: u32) -> Ids<'_> {
        self.query(key, signature, from, true)
    }

    /// The ids ≥ `from` that a state with this key and signature may
    /// cover, ascending: the group members whose signature is a superset
    /// of it, or every id inserted so far under the scan.
    pub(crate) fn covered(&self, key: GroupKey, signature: Signature, from: u32) -> Ids<'_> {
        self.query(key, signature, from, false)
    }

    fn query(&self, key: GroupKey, query: Signature, from: u32, covering: bool) -> Ids<'_> {
        let Some(groups) = &self.groups else {
            return Ids::Scan(from..self.len);
        };
        let (ids, signatures) = groups
            .get(&key)
            .map_or((&[][..], &[][..]), |g| (&g.ids[..], &g.signatures[..]));
        let start = ids.partition_point(|&id| id < from);
        Ids::Gated {
            members: ids[start..].iter().zip(signatures[start..].iter()),
            query,
            covering,
        }
    }
}

/// An ascending run of candidate ids.
#[derive(Debug)]
pub(crate) enum Ids<'a> {
    /// The members of a discrete group that pass the signature gate.
    Gated {
        members: Zip<Iter<'a, u32>, Iter<'a, Signature>>,
        query: Signature,
        /// `true` to keep subsets of `query`, `false` for supersets.
        covering: bool,
    },
    /// Every id of a range.
    Scan(Range<u32>),
}

impl Iterator for Ids<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        match self {
            Ids::Gated {
                members,
                query,
                covering,
            } => {
                let (query, covering) = (*query, *covering);
                members
                    .find(|(_, signature)| {
                        if covering {
                            signature.is_subset_of(&query)
                        } else {
                            query.is_subset_of(signature)
                        }
                    })
                    .map(|(&id, _)| id)
            }
            Ids::Scan(ids) => ids.next(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::discrete_key;
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

    /// Grouped candidates over the states, ids in order.
    fn indexed(states: &[&ProductState]) -> Candidates {
        let mut candidates = Candidates::new(true);
        for (id, state) in states.iter().enumerate() {
            let view = state.view();
            candidates.insert(discrete_key(view), id as u32, view.pit.signature());
        }
        candidates
    }

    /// The candidates that may cover `state`.
    fn covering(candidates: &Candidates, state: &ProductState) -> Vec<u32> {
        let view = state.view();
        candidates
            .covering(discrete_key(view), view.pit.signature(), 0)
            .collect()
    }

    /// The candidates `state` may cover.
    fn covered(candidates: &Candidates, state: &ProductState) -> Vec<u32> {
        let view = state.view();
        candidates
            .covered(discrete_key(view), view.pit.signature(), 0)
            .collect()
    }

    #[test]
    fn subset_candidates() {
        let u = universe();
        let empty = state_with(Pit::empty());
        let xa = state_with(pit_eq(&u, 0, "a"));
        let both = state_with(pit_eq(&u, 0, "a").conjoin(&pit_eq(&u, 1, "b"), &u).unwrap());
        let candidates = indexed(&[&empty, &xa, &both]);
        // Subset candidates of `both`: everything with signature ⊆ both.
        assert_eq!(covering(&candidates, &both), vec![0, 1, 2]);
        // Subset candidates of `xa`: the empty state and itself.
        assert_eq!(covering(&candidates, &xa), vec![0, 1]);
        // Subset candidates of the empty state: empty signatures only.
        assert_eq!(covering(&candidates, &empty), vec![0]);
        // Superset candidates run the other way round.
        assert_eq!(covered(&candidates, &empty), vec![0, 1, 2]);
        assert_eq!(covered(&candidates, &xa), vec![1, 2]);
        assert_eq!(covered(&candidates, &both), vec![2]);
    }

    /// Every query is narrowed to the members whose signature matches,
    /// however many `=`-edges the query or the members carry.
    #[test]
    fn gated_queries_keep_only_matching_ids() {
        let u = universe();
        // x = a ∧ y = a closes to three `=`-edges: x=a, y=a, x=y.
        let xy = || state_with(pit_eq(&u, 0, "a").conjoin(&pit_eq(&u, 1, "a"), &u).unwrap());
        let (first, second) = (xy(), xy());
        let xb = state_with(pit_eq(&u, 0, "b"));
        let candidates = indexed(&[&first, &xb, &second]);
        assert_eq!(covering(&candidates, &first), vec![0, 2]);
        assert_eq!(covered(&candidates, &first), vec![0, 2]);
        assert_eq!(covering(&candidates, &xb), vec![1]);
        assert_eq!(covered(&candidates, &xb), vec![1]);
    }

    #[test]
    fn groups_partition_by_discrete_state() {
        let u = universe();
        let mut a = state_with(pit_eq(&u, 0, "a"));
        let candidates = indexed(&[&a]);
        a.buchi = 3;
        // Different automaton state: no candidates from the other group.
        assert!(covering(&candidates, &a).is_empty());
        assert!(covered(&candidates, &a).is_empty());
    }

    /// Without DSS every id inserted so far is a candidate, grouped or
    /// not and live or not; with it only the live members of the group.
    #[test]
    fn the_scan_yields_every_id_and_groups_only_live_members() {
        let (one, two) = ((0, 0, false), (1, 0, false));
        let sig = Signature::default();
        let mut scan = Candidates::new(false);
        let mut grouped = Candidates::new(true);
        for (id, key) in [one, two, one, one].into_iter().enumerate() {
            scan.insert(key, id as u32, sig);
            grouped.insert(key, id as u32, sig);
        }
        scan.remove(one, 2);
        grouped.remove(one, 2);
        assert_eq!(
            scan.covering(one, sig, 1).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert_eq!(scan.covered(one, sig, 1).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(
            grouped.covering(one, sig, 0).collect::<Vec<_>>(),
            vec![0, 3]
        );
        assert_eq!(grouped.covered(one, sig, 1).collect::<Vec<_>>(), vec![3]);
        assert_eq!(grouped.covering(two, sig, 0).count(), 1);
    }
}
