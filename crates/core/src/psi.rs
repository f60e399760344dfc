//! Partial symbolic instances (paper Definition 19 / Definition 30).
//!
//! A partial symbolic instance (PSI) consists of
//!
//! * the partial isomorphism type of the current artifact tuple,
//! * one counter per *stored* partial isomorphism type, counting the tuples
//!   of the artifact relations that share that type (sparse: only non-zero
//!   counters are materialised, and a counter may hold the ordinal `ω`
//!   after acceleration),
//! * the activation status of the task's children (Definition 30).
//!
//! Stored tuple types are interned globally by the search through
//! [`StoredTypeInterner`] so counters are plain `(type id, count)` pairs.
//! The parallel search gives each worker a [`WorkerInterner`]: a read-only
//! view of the shared table plus a private scratch cache that hands out
//! *provisional* ids for types the shared table does not know yet.  The
//! apply phase of each search round publishes the scratch types to the
//! shared table in a deterministic order (see [`crate::search`]), so the
//! final numbering is independent of how work was scheduled across
//! workers.

use crate::arena::hash64;
use crate::pit::Pit;
use std::collections::HashMap;
use std::fmt;
use verifas_model::ArtRelId;

/// Identifier of an interned stored-tuple type.
pub type StoredTypeId = u32;

/// Read access to a table of stored-tuple types.  Implemented by the
/// shared [`StoredTypeInterner`] and by the per-worker [`WorkerInterner`]
/// overlay, so the coverage tests ([`crate::coverage`]) resolve ids from
/// either, in a plan worker and in the apply phase alike.
pub trait TypeTable {
    /// The artifact relation and type of an interned id.
    fn get(&self, id: StoredTypeId) -> &(ArtRelId, Pit);
}

/// Write access to a table of stored-tuple types: interning is idempotent
/// and returns a stable id for the lifetime of the table.
pub trait InternTypes: TypeTable {
    /// Intern a stored type, returning its id.
    fn intern(&mut self, rel: ArtRelId, pit: Pit) -> StoredTypeId;
}

/// Counter value standing for the ordinal `ω` (introduced by the
/// Karp–Miller acceleration).
pub const OMEGA: u32 = u32::MAX;

/// An append-only table of stored types with hash buckets over it, probed
/// by borrow: a lookup hashes `(rel, &pit)` and compares in place, so only
/// a type that is actually new is ever moved into the table.
#[derive(Debug, Default, Clone)]
struct TypeSlots {
    types: Vec<(ArtRelId, Pit)>,
    buckets: HashMap<u64, Vec<u32>>,
}

impl TypeSlots {
    fn hash(rel: ArtRelId, pit: &Pit) -> u64 {
        hash64(&(rel, pit))
    }

    /// The slot of an already-stored type with the given hash.
    fn find(&self, hash: u64, rel: ArtRelId, pit: &Pit) -> Option<u32> {
        self.buckets.get(&hash)?.iter().copied().find(|&slot| {
            let (r, p) = &self.types[slot as usize];
            *r == rel && p == pit
        })
    }

    /// Store a type known to be absent, returning its slot.
    fn push(&mut self, hash: u64, rel: ArtRelId, pit: Pit) -> u32 {
        let slot = self.types.len() as u32;
        self.types.push((rel, pit));
        self.buckets.entry(hash).or_default().push(slot);
        slot
    }
}

/// Interner of stored-tuple partial isomorphism types, shared by a whole
/// search so that counter dimensions are stable integers.
#[derive(Debug, Default, Clone)]
pub struct StoredTypeInterner {
    slots: TypeSlots,
}

impl StoredTypeInterner {
    /// Create an empty interner.
    pub fn new() -> Self {
        StoredTypeInterner::default()
    }

    /// Intern a stored type, returning its stable id.
    pub fn intern(&mut self, rel: ArtRelId, pit: Pit) -> StoredTypeId {
        let hash = TypeSlots::hash(rel, &pit);
        match self.slots.find(hash, rel, &pit) {
            Some(id) => id,
            None => self.slots.push(hash, rel, pit),
        }
    }

    /// The artifact relation and type of an interned id.
    pub fn get(&self, id: StoredTypeId) -> &(ArtRelId, Pit) {
        &self.slots.types[id as usize]
    }

    /// The id of an already-interned type, without interning it.
    pub fn lookup(&self, rel: ArtRelId, pit: &Pit) -> Option<StoredTypeId> {
        self.slots.find(TypeSlots::hash(rel, pit), rel, pit)
    }

    /// Number of interned types.
    pub fn len(&self) -> usize {
        self.slots.types.len()
    }

    /// `true` iff nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.slots.types.is_empty()
    }
}

impl TypeTable for StoredTypeInterner {
    fn get(&self, id: StoredTypeId) -> &(ArtRelId, Pit) {
        StoredTypeInterner::get(self, id)
    }
}

impl InternTypes for StoredTypeInterner {
    fn intern(&mut self, rel: ArtRelId, pit: Pit) -> StoredTypeId {
        StoredTypeInterner::intern(self, rel, pit)
    }
}

/// Bit marking a provisional (worker-scratch) type id.
const PROVISIONAL_BIT: StoredTypeId = 1 << 31;
/// Bits reserved for the worker tag inside a provisional id.
const WORKER_SHIFT: u32 = 20;
const WORKER_MASK: StoredTypeId = 0x7FF;
const LOCAL_MASK: StoredTypeId = (1 << WORKER_SHIFT) - 1;

/// `true` iff the id was handed out by a [`WorkerInterner`] scratch cache
/// and still awaits publication to the shared table.
pub fn is_provisional(id: StoredTypeId) -> bool {
    id != OMEGA && id & PROVISIONAL_BIT != 0
}

/// Decompose a provisional id into `(worker, local index)`.
pub fn provisional_parts(id: StoredTypeId) -> (usize, usize) {
    debug_assert!(is_provisional(id));
    (
        ((id >> WORKER_SHIFT) & WORKER_MASK) as usize,
        (id & LOCAL_MASK) as usize,
    )
}

/// A per-worker interner overlay used during the parallel plan phase of a
/// search round: reads resolve against the frozen shared table first, then
/// against the worker's private scratch; writes of unknown types go to the
/// scratch under provisional ids.  [`WorkerInterner::begin_node`] /
/// [`WorkerInterner::take_node_new`] bracket the processing of one search
/// node and report, in first-intern order, the provisional ids of the
/// types that node introduced relative to the shared table — the apply
/// phase replays these lists in deterministic node order to publish the
/// types with scheduling-independent final ids.
pub struct WorkerInterner<'a> {
    base: &'a StoredTypeInterner,
    worker: StoredTypeId,
    /// The scratch types, slot = local part of the provisional id.
    slots: TypeSlots,
    node_new: Vec<StoredTypeId>,
}

impl<'a> WorkerInterner<'a> {
    /// A scratch overlay for `worker` on top of the frozen shared table.
    pub fn new(base: &'a StoredTypeInterner, worker: usize) -> Self {
        assert!(
            worker as StoredTypeId <= WORKER_MASK,
            "worker tag {worker} does not fit the provisional-id encoding"
        );
        WorkerInterner {
            base,
            worker: worker as StoredTypeId,
            slots: TypeSlots::default(),
            node_new: Vec::new(),
        }
    }

    /// A throwaway scratch overlay (worker tag 0) for read-mostly passes
    /// that never publish their provisional ids — e.g. the
    /// repeated-reachability edge construction, which interns successor
    /// types only to run coverage tests and then discards them.  Cheaper
    /// than cloning the shared table: the overlay starts empty and only
    /// materialises the types the pass actually discovers.
    pub fn scratch(base: &'a StoredTypeInterner) -> Self {
        WorkerInterner::new(base, 0)
    }

    /// Start recording the new types of the next search node.
    pub fn begin_node(&mut self) {
        self.node_new.clear();
    }

    /// The provisional ids first interned while processing the current
    /// node (in intern-call order, deduplicated).
    pub fn take_node_new(&mut self) -> Vec<StoredTypeId> {
        std::mem::take(&mut self.node_new)
    }

    /// The scratch type table, indexed by the local part of the
    /// provisional ids this worker handed out.
    pub fn into_types(self) -> Vec<(ArtRelId, Pit)> {
        self.slots.types
    }
}

impl TypeTable for WorkerInterner<'_> {
    fn get(&self, id: StoredTypeId) -> &(ArtRelId, Pit) {
        if is_provisional(id) {
            let (worker, local) = provisional_parts(id);
            debug_assert_eq!(worker, self.worker as usize);
            &self.slots.types[local]
        } else {
            self.base.get(id)
        }
    }
}

impl InternTypes for WorkerInterner<'_> {
    fn intern(&mut self, rel: ArtRelId, pit: Pit) -> StoredTypeId {
        let hash = TypeSlots::hash(rel, &pit);
        if let Some(id) = self.base.slots.find(hash, rel, &pit) {
            return id;
        }
        let local = match self.slots.find(hash, rel, &pit) {
            Some(local) => local,
            None => {
                assert!(
                    self.slots.types.len() as StoredTypeId <= LOCAL_MASK,
                    "worker scratch interner overflow"
                );
                self.slots.push(hash, rel, pit)
            }
        };
        let id = PROVISIONAL_BIT | (self.worker << WORKER_SHIFT) | local;
        if !self.node_new.contains(&id) {
            self.node_new.push(id);
        }
        id
    }
}

/// A sparse vector of counters over stored types.  Counts are strictly
/// positive; [`OMEGA`] represents `ω`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CounterVec {
    entries: Vec<(StoredTypeId, u32)>,
}

impl CounterVec {
    /// The all-zero counter vector.
    pub fn empty() -> Self {
        CounterVec::default()
    }

    /// The count for a stored type (0 if absent).
    pub fn get(&self, id: StoredTypeId) -> u32 {
        self.entries
            .binary_search_by_key(&id, |(t, _)| *t)
            .map(|i| self.entries[i].1)
            .unwrap_or(0)
    }

    /// Non-zero entries, sorted by type id.
    pub fn iter(&self) -> impl Iterator<Item = (StoredTypeId, u32)> + '_ {
        self.entries.iter().copied()
    }

    /// The non-zero entries as a sorted slice — the borrowed form the
    /// arena/state-view layer compares and stores.
    pub fn as_slice(&self) -> &[(StoredTypeId, u32)] {
        &self.entries
    }

    /// Rebuild a counter vector from entries that are already sorted by
    /// type id, deduplicated and strictly positive — the invariant every
    /// slice stored in [`crate::arena::CounterArena`] satisfies.
    pub fn from_sorted(entries: Vec<(StoredTypeId, u32)>) -> CounterVec {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        debug_assert!(entries.iter().all(|(_, c)| *c > 0));
        CounterVec { entries }
    }

    /// `true` iff every counter is zero.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total number of stored tuples (`ω` saturates).
    pub fn total(&self) -> u64 {
        self.entries
            .iter()
            .map(|(_, c)| {
                if *c == OMEGA {
                    u64::from(u32::MAX)
                } else {
                    u64::from(*c)
                }
            })
            .sum()
    }

    /// A copy with the counter of `id` incremented (ω stays ω).
    pub fn incremented(&self, id: StoredTypeId) -> CounterVec {
        let mut out = self.clone();
        match out.entries.binary_search_by_key(&id, |(t, _)| *t) {
            Ok(i) => {
                if out.entries[i].1 != OMEGA {
                    out.entries[i].1 += 1;
                }
            }
            Err(i) => out.entries.insert(i, (id, 1)),
        }
        out
    }

    /// A copy with the counter of `id` decremented; `None` if it is zero.
    /// Decrementing an `ω` counter leaves it at `ω`.
    pub fn decremented(&self, id: StoredTypeId) -> Option<CounterVec> {
        let mut out = self.clone();
        match out.entries.binary_search_by_key(&id, |(t, _)| *t) {
            Ok(i) => {
                if out.entries[i].1 == OMEGA {
                    return Some(out);
                }
                out.entries[i].1 -= 1;
                if out.entries[i].1 == 0 {
                    out.entries.remove(i);
                }
                Some(out)
            }
            Err(_) => None,
        }
    }

    /// A copy with the counter of `id` set to `ω`.
    pub fn with_omega(&self, id: StoredTypeId) -> CounterVec {
        let mut out = self.clone();
        match out.entries.binary_search_by_key(&id, |(t, _)| *t) {
            Ok(i) => out.entries[i].1 = OMEGA,
            Err(i) => out.entries.insert(i, (id, OMEGA)),
        }
        out
    }

    /// A copy with every type id rewritten through `f` (used to publish
    /// provisional worker ids as final shared ids).  Entries mapping to
    /// the same id are merged (`ω` saturates).
    pub fn map_ids(&self, mut f: impl FnMut(StoredTypeId) -> StoredTypeId) -> CounterVec {
        let mut out = CounterVec::empty();
        for (t, c) in self.entries.iter() {
            let t = f(*t);
            match out.entries.binary_search_by_key(&t, |(u, _)| *u) {
                Ok(i) => {
                    let merged = if out.entries[i].1 == OMEGA || *c == OMEGA {
                        OMEGA
                    } else {
                        out.entries[i].1.saturating_add(*c)
                    };
                    out.entries[i].1 = merged;
                }
                Err(i) => out.entries.insert(i, (t, *c)),
            }
        }
        out
    }
}

impl fmt::Display for CounterVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (t, c)) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            if *c == OMEGA {
                write!(f, "τ{t}: ω")?;
            } else {
                write!(f, "τ{t}: {c}")?;
            }
        }
        write!(f, "}}")
    }
}

/// A partial symbolic instance: the artifact-tuple type, the stored-tuple
/// counters and the children activation flags.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Psi {
    /// Partial isomorphism type of the artifact variables (plus the
    /// property's global variables).
    pub pit: Pit,
    /// Counters of stored tuples per stored type.
    pub counters: CounterVec,
    /// Bitmask over the task's children: bit `i` set iff the `i`-th child
    /// is currently active.
    pub child_active: u64,
}

impl Psi {
    /// A PSI with the given type, no stored tuples and no active child.
    pub fn with_pit(pit: Pit) -> Self {
        Psi {
            pit,
            counters: CounterVec::empty(),
            child_active: 0,
        }
    }

    /// `true` iff child `i` is active.
    pub fn child_is_active(&self, i: usize) -> bool {
        self.child_active & (1u64 << i) != 0
    }

    /// A copy with child `i` marked active/inactive.
    pub fn with_child_active(&self, i: usize, active: bool) -> Psi {
        let mut out = self.clone();
        if active {
            out.child_active |= 1u64 << i;
        } else {
            out.child_active &= !(1u64 << i);
        }
        out
    }

    /// `true` iff no child is active.
    pub fn no_child_active(&self) -> bool {
        self.child_active == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_vec_increment_decrement() {
        let c = CounterVec::empty();
        assert_eq!(c.get(3), 0);
        assert!(c.decremented(3).is_none());
        let c = c.incremented(3).incremented(3).incremented(1);
        assert_eq!(c.get(3), 2);
        assert_eq!(c.get(1), 1);
        assert_eq!(c.total(), 3);
        assert_eq!(c.as_slice().len(), 2);
        let c = c.decremented(3).unwrap();
        assert_eq!(c.get(3), 1);
        let c = c.decremented(3).unwrap();
        assert_eq!(c.get(3), 0);
        assert_eq!(c.as_slice().len(), 1);
    }

    #[test]
    fn omega_counters_absorb_updates() {
        let c = CounterVec::empty().incremented(0).with_omega(0);
        assert_eq!(c.get(0), OMEGA);
        assert_eq!(c.incremented(0).get(0), OMEGA);
        assert_eq!(c.decremented(0).unwrap().get(0), OMEGA);
    }

    #[test]
    fn interner_reuses_ids() {
        let mut interner = StoredTypeInterner::new();
        let rel = ArtRelId::new(0);
        let a = interner.intern(rel, Pit::empty());
        let b = interner.intern(rel, Pit::empty());
        assert_eq!(a, b);
        assert_eq!(interner.len(), 1);
        let other_rel = ArtRelId::new(1);
        let c = interner.intern(other_rel, Pit::empty());
        assert_ne!(a, c);
        assert_eq!(interner.get(c).0, other_rel);
    }

    #[test]
    fn worker_interner_resolves_shared_and_scratch_ids() {
        let mut shared = StoredTypeInterner::new();
        let rel = ArtRelId::new(0);
        let known = shared.intern(rel, Pit::empty());
        let mut worker = WorkerInterner::new(&shared, 3);
        worker.begin_node();
        // Known types resolve to the shared id without touching scratch.
        assert_eq!(worker.intern(rel, Pit::empty()), known);
        assert!(worker.take_node_new().is_empty());
        // Unknown types get a provisional id, recorded once per node.
        let other = ArtRelId::new(1);
        worker.begin_node();
        let p = worker.intern(other, Pit::empty());
        let p2 = worker.intern(other, Pit::empty());
        assert_eq!(p, p2);
        assert!(is_provisional(p));
        assert!(!is_provisional(known));
        assert_eq!(provisional_parts(p), (3, 0));
        assert_eq!(worker.get(p).0, other);
        assert_eq!(worker.take_node_new(), vec![p]);
        // The same scratch type re-encountered on a later node is
        // reported again (it is still unknown to the shared table).
        worker.begin_node();
        assert_eq!(worker.intern(other, Pit::empty()), p);
        assert_eq!(worker.take_node_new(), vec![p]);
        assert_eq!(worker.into_types(), vec![(other, Pit::empty())]);
    }

    #[test]
    fn map_ids_renumbers_and_merges() {
        let c = CounterVec::empty()
            .incremented(7)
            .incremented(7)
            .incremented(3)
            .with_omega(9);
        let mapped = c.map_ids(|t| if t == 7 { 0 } else { t });
        assert_eq!(mapped.get(0), 2);
        assert_eq!(mapped.get(3), 1);
        assert_eq!(mapped.get(9), OMEGA);
        // Collisions merge; ω absorbs.
        let collided = c.map_ids(|_| 5);
        assert_eq!(collided.get(5), OMEGA);
        assert_eq!(collided.as_slice().len(), 1);
    }

    #[test]
    fn child_activation_flags() {
        let psi = Psi::with_pit(Pit::empty());
        assert!(psi.no_child_active());
        let psi = psi.with_child_active(2, true);
        assert!(psi.child_is_active(2));
        assert!(!psi.child_is_active(0));
        assert!(!psi.no_child_active());
        let psi = psi.with_child_active(2, false);
        assert!(psi.no_child_active());
    }
}
