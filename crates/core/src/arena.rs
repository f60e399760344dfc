//! Arena-backed, structure-of-arrays storage for the Karp–Miller tree.
//!
//! A million-state search keeps every node of the tree resident: the
//! pre-overhaul layout stored one heap-owned [`ProductState`] per node
//! (its own `Pit`, its own counter vector, its own children list), which
//! at that scale is both cache-hostile — every coverage test chases a
//! fresh pointer per candidate — and memory-hungry, since the same few
//! distinct types and counter vectors are cloned into thousands of
//! nodes.  This module replaces it with three arenas:
//!
//! * [`PitArena`] — deduplicated partial isomorphism types.  A node
//!   stores a `u32` id; structurally equal pits share one allocation.
//! * [`CounterArena`] — deduplicated counter vectors, flattened into one
//!   slab of `(type, count)` entries addressed by span.
//! * [`StateArena`] — the tree itself as parallel columns (pit id,
//!   counter id, child mask, automaton state, service, parent, intrusive
//!   child links, flags), so the discrete-key comparisons that gate every
//!   coverage test read small dense arrays instead of scattered nodes.
//!
//! States are *published* into the arenas only by the sequential apply
//! phase of the search (plan workers operate on owned successor states
//! against a frozen arena), so every id is assigned in deterministic
//! apply order and a parallel run stays bit-identical to a sequential
//! one.  Comparisons run on borrowed [`StateView`]s; an owned
//! [`ProductState`] is only materialised where the public API demands it
//! (traces, counterexamples, successor re-enumeration).

use crate::pit::Pit;
use crate::product::{ProductState, StateView};
use crate::psi::{CounterVec, Psi, StoredTypeId};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use verifas_model::ServiceRef;

/// Sentinel id for "no node" in the parent / child-link columns.
pub const NO_NODE: u32 = u32::MAX;

const FLAG_ACTIVE: u8 = 1;
const FLAG_EXPANDED: u8 = 1 << 1;
const FLAG_CLOSED: u8 = 1 << 2;

/// A deterministic 64-bit hash (fixed-key SipHash) for hash-bucket
/// deduplication.
pub(crate) fn hash64<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

/// Deduplicating arena of partial isomorphism types.
#[derive(Debug, Default)]
pub struct PitArena {
    pits: Vec<Pit>,
    /// Hash buckets over `pits` (no second owned copy of the keys).
    buckets: HashMap<u64, Vec<u32>>,
    /// Total closed edges across all distinct pits (memory accounting).
    edge_units: usize,
}

impl PitArena {
    /// Intern a type, returning the id of its unique stored copy.
    pub fn intern(&mut self, pit: &Pit) -> u32 {
        let key = hash64(pit);
        if let Some(ids) = self.buckets.get(&key) {
            for &id in ids {
                if self.pits[id as usize] == *pit {
                    return id;
                }
            }
        }
        let id = u32::try_from(self.pits.len()).expect("pit arena overflow");
        self.edge_units += pit.edge_count();
        self.pits.push(pit.clone());
        self.buckets.entry(key).or_default().push(id);
        id
    }

    /// The stored type under `id`.
    pub fn get(&self, id: u32) -> &Pit {
        &self.pits[id as usize]
    }

    /// Number of distinct types stored.
    pub fn len(&self) -> usize {
        self.pits.len()
    }

    /// `true` iff no type has been interned.
    pub fn is_empty(&self) -> bool {
        self.pits.is_empty()
    }

    /// Total closed edges across all distinct stored types.
    pub fn edge_units(&self) -> usize {
        self.edge_units
    }
}

/// Deduplicating arena of counter vectors, flattened into one slab.
#[derive(Debug, Default)]
pub struct CounterArena {
    slab: Vec<(StoredTypeId, u32)>,
    /// `(start, len)` span of each stored vector within the slab.
    spans: Vec<(u32, u32)>,
    /// Hash buckets over spans (no second owned copy of the entries).
    buckets: HashMap<u64, Vec<u32>>,
}

impl CounterArena {
    /// Intern a sorted entry slice, returning the id of its unique copy.
    pub fn intern(&mut self, entries: &[(StoredTypeId, u32)]) -> u32 {
        let key = hash64(entries);
        if let Some(ids) = self.buckets.get(&key) {
            for &id in ids {
                if self.get(id) == entries {
                    return id;
                }
            }
        }
        let id = u32::try_from(self.spans.len()).expect("counter arena overflow");
        let start = u32::try_from(self.slab.len()).expect("counter slab overflow");
        self.slab.extend_from_slice(entries);
        self.spans.push((start, entries.len() as u32));
        self.buckets.entry(key).or_default().push(id);
        id
    }

    /// The entry slice stored under `id`.
    pub fn get(&self, id: u32) -> &[(StoredTypeId, u32)] {
        let (start, len) = self.spans[id as usize];
        &self.slab[start as usize..(start + len) as usize]
    }

    /// Number of distinct counter vectors stored.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// `true` iff no vector has been interned.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Total `(type, count)` entries in the slab.
    pub fn slab_len(&self) -> usize {
        self.slab.len()
    }
}

/// The Karp–Miller tree as structure-of-arrays columns over the two
/// deduplicating arenas.
#[derive(Debug, Default)]
pub struct StateArena {
    pits: PitArena,
    counters: CounterArena,
    pit: Vec<u32>,
    ctr: Vec<u32>,
    child_active: Vec<u64>,
    buchi: Vec<u32>,
    service: Vec<ServiceRef>,
    parent: Vec<u32>,
    first_child: Vec<u32>,
    next_sibling: Vec<u32>,
    flags: Vec<u8>,
}

impl StateArena {
    /// An empty arena.
    pub fn new() -> Self {
        StateArena::default()
    }

    /// Number of nodes stored.
    pub fn len(&self) -> usize {
        self.flags.len()
    }

    /// `true` iff no node has been pushed.
    pub fn is_empty(&self) -> bool {
        self.flags.is_empty()
    }

    /// Publish a state as a new node: intern its type and counters, append
    /// one row (born active, unexpanded) and link it into the parent's
    /// child list.  Child links are a prepend-order intrusive list; no
    /// traversal depends on their order (subtree deactivation is
    /// set-semantics).
    pub fn push(&mut self, state: &ProductState, parent: Option<u32>, service: ServiceRef) -> u32 {
        let id = u32::try_from(self.flags.len()).expect("state arena overflow");
        self.pit.push(self.pits.intern(&state.psi.pit));
        self.ctr
            .push(self.counters.intern(state.psi.counters.as_slice()));
        self.child_active.push(state.psi.child_active);
        self.buchi
            .push(u32::try_from(state.buchi).expect("buchi state overflow"));
        self.service.push(service);
        self.parent.push(parent.unwrap_or(NO_NODE));
        self.first_child.push(NO_NODE);
        self.next_sibling.push(NO_NODE);
        self.flags
            .push(FLAG_ACTIVE | if state.closed { FLAG_CLOSED } else { 0 });
        if let Some(p) = parent {
            self.next_sibling[id as usize] = self.first_child[p as usize];
            self.first_child[p as usize] = id;
        }
        id
    }

    /// Intern a type without storing a node (compact successor logging).
    pub fn intern_pit(&mut self, pit: &Pit) -> u32 {
        self.pits.intern(pit)
    }

    /// Intern a counter slice without storing a node (compact successor
    /// logging).
    pub fn intern_counters(&mut self, entries: &[(StoredTypeId, u32)]) -> u32 {
        self.counters.intern(entries)
    }

    /// A borrowed view of the node under `id`.
    pub fn view(&self, id: u32) -> StateView<'_> {
        let i = id as usize;
        self.raw_view(
            self.pit[i],
            self.ctr[i],
            self.child_active[i],
            self.buchi[i],
            self.flags[i] & FLAG_CLOSED != 0,
        )
    }

    /// A view assembled from arena ids directly — how the compact
    /// successor log resolves entries that never became tree nodes.
    pub fn raw_view(
        &self,
        pit: u32,
        counters: u32,
        child_active: u64,
        buchi: u32,
        closed: bool,
    ) -> StateView<'_> {
        StateView {
            pit: self.pits.get(pit),
            counters: self.counters.get(counters),
            child_active,
            buchi: buchi as usize,
            closed,
        }
    }

    /// Materialise an owned [`ProductState`] for the node under `id`.
    pub fn materialize(&self, id: u32) -> ProductState {
        let view = self.view(id);
        ProductState {
            psi: Psi {
                pit: view.pit.clone(),
                counters: CounterVec::from_sorted(view.counters.to_vec()),
                child_active: view.child_active,
            },
            buchi: view.buchi,
            closed: view.closed,
        }
    }

    /// The discrete comparison key of the node (automaton state, child
    /// mask, closed flag) — read from the dense columns, no type access.
    pub fn discrete_key(&self, id: u32) -> (usize, u64, bool) {
        let i = id as usize;
        (
            self.buchi[i] as usize,
            self.child_active[i],
            self.flags[i] & FLAG_CLOSED != 0,
        )
    }

    /// Is the node active (not pruned)?
    pub fn is_active(&self, id: u32) -> bool {
        self.flags[id as usize] & FLAG_ACTIVE != 0
    }

    /// Activate / deactivate the node.
    pub fn set_active(&mut self, id: u32, active: bool) {
        if active {
            self.flags[id as usize] |= FLAG_ACTIVE;
        } else {
            self.flags[id as usize] &= !FLAG_ACTIVE;
        }
    }

    /// Has the apply phase replayed this node's successors?
    pub fn is_expanded(&self, id: u32) -> bool {
        self.flags[id as usize] & FLAG_EXPANDED != 0
    }

    /// Mark the node expanded.
    pub fn mark_expanded(&mut self, id: u32) {
        self.flags[id as usize] |= FLAG_EXPANDED;
    }

    /// The parent id, if any.
    pub fn parent(&self, id: u32) -> Option<u32> {
        match self.parent[id as usize] {
            NO_NODE => None,
            p => Some(p),
        }
    }

    /// The observable service that produced the node.
    pub fn service(&self, id: u32) -> ServiceRef {
        self.service[id as usize]
    }

    /// The node's children (prepend order).
    pub fn children(&self, id: u32) -> ChildIter<'_> {
        ChildIter {
            arena: self,
            next: self.first_child[id as usize],
        }
    }

    /// Number of active nodes.
    pub fn active_count(&self) -> usize {
        self.flags.iter().filter(|f| **f & FLAG_ACTIVE != 0).count()
    }

    /// Deterministic estimate of the arena's resident bytes: fixed
    /// per-element costs times the actual occupancy of the columns and the
    /// two deduplicating arenas — never an allocator probe, so a
    /// memory-budgeted run takes the same rounds on every host.
    pub fn estimated_bytes(&self) -> usize {
        // One SoA row: 4+4+8+4+4+4+4+1 column bytes, the service ref, a
        // share of index/group bookkeeping, and the 32-byte `=`-edge
        // signature each candidate-group member stores next to its id.
        const ROW_BYTES: usize = 88;
        // One distinct pit: Vec header + bucket entry.
        const PIT_BASE_BYTES: usize = 64;
        // One packed pit edge plus its share of hash overhead.
        const PIT_EDGE_BYTES: usize = 16;
        // One slab entry; spans and buckets amortised per vector below.
        const COUNTER_ENTRY_BYTES: usize = 8;
        const COUNTER_SPAN_BYTES: usize = 16;
        self.flags.len() * ROW_BYTES
            + self.pits.len() * PIT_BASE_BYTES
            + self.pits.edge_units() * PIT_EDGE_BYTES
            + self.counters.slab_len() * COUNTER_ENTRY_BYTES
            + self.counters.len() * COUNTER_SPAN_BYTES
    }
}

/// Iterator over a node's children through the intrusive sibling links.
pub struct ChildIter<'a> {
    arena: &'a StateArena,
    next: u32,
}

impl Iterator for ChildIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        match self.next {
            NO_NODE => None,
            id => {
                self.next = self.arena.next_sibling[id as usize];
                Some(id)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use verifas_model::TaskId;

    fn svc() -> ServiceRef {
        ServiceRef::Opening(TaskId::new(0))
    }

    fn state(child_active: u64, buchi: usize, closed: bool) -> ProductState {
        ProductState {
            psi: Psi {
                pit: Pit::empty(),
                counters: CounterVec::empty(),
                child_active,
            },
            buchi,
            closed,
        }
    }

    #[test]
    fn pits_and_counters_deduplicate() {
        let mut arena = StateArena::new();
        let a = arena.push(&state(0, 0, false), None, svc());
        let b = arena.push(&state(1, 0, false), Some(a), svc());
        let c = arena.push(&state(0, 0, false), Some(a), svc());
        assert_eq!(arena.len(), 3);
        // All three share the empty pit and the empty counter vector.
        assert_eq!(arena.pits.len(), 1);
        assert_eq!(arena.counters.len(), 1);
        assert_eq!(arena.view(b).child_active, 1);
        assert_eq!(arena.view(c).child_active, 0);
    }

    #[test]
    fn materialize_round_trips() {
        let mut arena = StateArena::new();
        let original = state(5, 2, true);
        let id = arena.push(&original, None, svc());
        assert_eq!(arena.materialize(id), original);
        assert_eq!(arena.discrete_key(id), (2, 5, true));
    }

    #[test]
    fn child_links_and_flags() {
        let mut arena = StateArena::new();
        let root = arena.push(&state(0, 0, false), None, svc());
        let kids: Vec<u32> = (0..3)
            .map(|i| arena.push(&state(i, 0, false), Some(root), svc()))
            .collect();
        let mut seen: Vec<u32> = arena.children(root).collect();
        seen.sort_unstable();
        assert_eq!(seen, kids);
        assert!(arena.is_active(kids[1]));
        arena.set_active(kids[1], false);
        assert!(!arena.is_active(kids[1]));
        assert!(!arena.is_expanded(root));
        arena.mark_expanded(root);
        assert!(arena.is_expanded(root));
        assert_eq!(arena.parent(kids[0]), Some(root));
        assert_eq!(arena.parent(root), None);
    }

    #[test]
    fn estimated_bytes_tracks_occupancy() {
        let mut arena = StateArena::new();
        let before = arena.estimated_bytes();
        arena.push(&state(0, 0, false), None, svc());
        let after = arena.estimated_bytes();
        assert!(after > before);
        // A duplicate state only grows by one row — its pit and counters
        // deduplicate — so the second delta is strictly smaller.
        arena.push(&state(0, 0, false), None, svc());
        let second = arena.estimated_bytes();
        assert!(second > after);
        assert!(second - after < after - before);
    }
}
