//! Coverage orders between partial symbolic instances: the classic
//! Karp–Miller order `≤` (Section 3.3), the novel subsumption order `≼`
//! (Section 3.5, Definition 22) decided through a max-flow reduction, and
//! its strict variant `≼⁺` used by the repeated-reachability extension
//! (Appendix C, Definition 31).

use crate::product::StateView;
use crate::psi::{CounterVec, StoredTypeId, TypeTable, OMEGA};
use std::cell::RefCell;

/// Which order the search uses to prune covered states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoverageKind {
    /// Exact equality only (duplicate detection) — the baseline verifier.
    Equality,
    /// The classic Karp–Miller order: identical types, pointwise-smaller
    /// counters.
    Standard,
    /// The ≼ order of Definition 22: a less restrictive type plus a
    /// tuple-wise mapping into less restrictive stored types (max-flow).
    Subsumption,
    /// The ≼⁺ order of Definition 31 (equality, or ≼ with strict slack on
    /// the stored tuples), which restores strict monotonicity for the
    /// repeated-reachability analysis.
    StrictSubsumption,
}

/// Capacity used to represent `ω` in the flow network.
const BIG: i64 = 1 << 40;

fn count_value(c: u32) -> i64 {
    if c == OMEGA {
        BIG
    } else {
        i64::from(c)
    }
}

/// The discrete components of a state (automaton state, child activation,
/// closed flag).  Two states are comparable under *any* coverage relation
/// only when their discrete keys are equal, so the coverage candidates of
/// both search phases and of the repeated-reachability edge construction
/// (`index::Candidates`) are grouped by this key before the exact tests.
pub fn discrete_key(state: StateView<'_>) -> (usize, u64, bool) {
    (state.buchi, state.child_active, state.closed)
}

/// Discrete components (automaton state, child activation, closed flag)
/// must match exactly for any coverage relation.
fn discrete_match(covered: StateView<'_>, covering: StateView<'_>) -> bool {
    discrete_key(covered) == discrete_key(covering)
}

/// The count for a stored type in a sorted entry slice (0 if absent).
fn slice_get(entries: &[(StoredTypeId, u32)], id: StoredTypeId) -> u32 {
    entries
        .binary_search_by_key(&id, |(t, _)| *t)
        .map(|i| entries[i].1)
        .unwrap_or(0)
}

/// Pointwise comparison `left ≤ right` (with `n < ω` for all `n`) over
/// sorted entry slices ([`CounterVec::as_slice`]).
fn slice_leq(left: &[(StoredTypeId, u32)], right: &[(StoredTypeId, u32)]) -> bool {
    left.iter().all(|(t, c)| {
        let o = slice_get(right, *t);
        o == OMEGA || (*c != OMEGA && *c <= o)
    })
}

/// `true` iff some counter of `right` strictly exceeds the matching one
/// of `left` (used by the acceleration rule).
fn slice_strictly_less_somewhere(
    left: &[(StoredTypeId, u32)],
    right: &[(StoredTypeId, u32)],
) -> bool {
    right.iter().any(|(t, c)| {
        let mine = slice_get(left, *t);
        mine != OMEGA && (*c == OMEGA || mine < *c)
    })
}

/// `true` iff `covering` covers `covered` under the given order
/// (`covered ⊑ covering`), i.e. `covered` may be pruned in favour of
/// `covering`.
pub fn covers(
    kind: CoverageKind,
    covered: StateView<'_>,
    covering: StateView<'_>,
    interner: &dyn TypeTable,
) -> bool {
    if !discrete_match(covered, covering) {
        return false;
    }
    // The discrete components already matched, so full equality reduces
    // to the type and the counters.
    let equal = || covered.pit == covering.pit && covered.counters == covering.counters;
    match kind {
        CoverageKind::Equality => equal(),
        CoverageKind::Standard => {
            covered.pit == covering.pit && slice_leq(covered.counters, covering.counters)
        }
        CoverageKind::Subsumption => {
            covered.pit.implies(covering.pit)
                && flow_feasible(covered.counters, covering.counters, interner, 0)
        }
        CoverageKind::StrictSubsumption => {
            equal()
                || (covered.pit.implies(covering.pit)
                    && flow_feasible(covered.counters, covering.counters, interner, 1))
        }
    }
}

/// `true` iff the tuples counted by `left` can be injectively mapped to
/// tuples counted by `right` such that every tuple lands on a type it
/// implies (Definition 22).  When `required_slack > 0` the mapping must in
/// addition leave at least that much unused capacity on the right
/// (Definition 31).  An `ω` count weighs `2^40` on either side.
///
/// The answer is whether the bipartite network source → left (capacity =
/// count) → right along implication (no capacity limit) → sink (capacity
/// = count) carries a flow of value `demand`.  Most calls are settled
/// before any flow is routed, in this order:
///
/// 1. the totals: no demand needs only `supply ≥ slack`, and a supply
///    below `demand + slack` fails;
/// 2. the identity: when `left ≤ right` pointwise, mapping every type to
///    itself is a flow of value `demand`;
/// 3. per-type reachability (Hall's condition for one type): a left type
///    whose count exceeds the summed capacity of the right types it
///    implies cannot be placed.
///
/// A call past the three exits places the left entries' counts one
/// entry at a time along breadth-first augmenting paths, in buffers each
/// thread reuses, so it allocates nothing once its thread has made such
/// a call.  The answer is `false` as soon as an entry with count left
/// over has no augmenting path (the left entries that search reaches
/// then violate Hall's condition), and `true` once every entry is
/// placed.
pub fn flow_feasible(
    left: &[(StoredTypeId, u32)],
    right: &[(StoredTypeId, u32)],
    interner: &dyn TypeTable,
    required_slack: i64,
) -> bool {
    let total = |entries: &[(StoredTypeId, u32)]| -> i64 {
        entries.iter().map(|(_, c)| count_value(*c)).sum()
    };
    let demand = total(left);
    let supply = total(right);
    if demand == 0 {
        return supply >= required_slack;
    }
    if supply < demand + required_slack {
        return false;
    }
    if slice_leq(left, right) {
        return true;
    }
    FLOW.with(|network| network.borrow_mut().feasible(left, right, interner))
}

thread_local! {
    /// The buffers of [`flow_feasible`]'s augmenting-path step.
    static FLOW: RefCell<FlowNetwork> = const { RefCell::new(FlowNetwork::new()) };
}

/// Marks a (left, right) pair without a middle edge in
/// [`FlowNetwork::flow`].
const NO_EDGE: i64 = -1;
/// Marks a node the breadth-first search has not reached.
const UNSEEN: u32 = u32::MAX;

/// The residual network of one ≼ test, in buffers reused across tests.
/// Nodes are numbered left entries first, then right entries.
struct FlowNetwork {
    /// Flow on each middle edge, row-major by left entry, or [`NO_EDGE`]
    /// where the left type does not imply the right one.
    flow: Vec<i64>,
    /// The unused capacity of each right entry's sink edge.
    spare: Vec<i64>,
    /// The breadth-first predecessor of each node, or [`UNSEEN`].
    prev: Vec<u32>,
    queue: Vec<u32>,
    /// Augmentations that moved flow back along a middle edge.
    #[cfg(test)]
    back_edge_augmentations: usize,
}

impl FlowNetwork {
    const fn new() -> Self {
        FlowNetwork {
            flow: Vec::new(),
            spare: Vec::new(),
            prev: Vec::new(),
            queue: Vec::new(),
            #[cfg(test)]
            back_edge_augmentations: 0,
        }
    }

    /// Steps 3 and on of [`flow_feasible`]: list the middle edges, check
    /// every left type's reach, then route the left counts.
    fn feasible(
        &mut self,
        left: &[(StoredTypeId, u32)],
        right: &[(StoredTypeId, u32)],
        interner: &dyn TypeTable,
    ) -> bool {
        self.flow.clear();
        for &(lt, lc) in left {
            let (lrel, lpit) = interner.get(lt);
            let mut reach = 0;
            for &(rt, rc) in right {
                let (rrel, rpit) = interner.get(rt);
                if lrel == rrel && lpit.implies(rpit) {
                    reach += count_value(rc);
                    self.flow.push(0);
                } else {
                    self.flow.push(NO_EDGE);
                }
            }
            if count_value(lc) > reach {
                return false;
            }
        }
        self.spare.clear();
        self.spare
            .extend(right.iter().map(|&(_, c)| count_value(c)));
        for (root, &(_, count)) in left.iter().enumerate() {
            let mut need = count_value(count);
            while need > 0 {
                let Some(end) = self.augmenting_path(root, left.len()) else {
                    return false;
                };
                need -= self.augment(root, end, need, left.len());
            }
        }
        true
    }

    /// Breadth-first search of the residual network from left entry
    /// `root`: forward along every middle edge, back along a middle edge
    /// that carries flow.  Returns the first right entry reached whose
    /// sink edge has spare capacity.
    fn augmenting_path(&mut self, root: usize, lefts: usize) -> Option<usize> {
        let width = self.spare.len();
        self.prev.clear();
        self.prev.resize(lefts + width, UNSEEN);
        self.prev[root] = root as u32;
        self.queue.clear();
        self.queue.push(root as u32);
        let mut head = 0;
        while let Some(&node) = self.queue.get(head) {
            head += 1;
            let node = node as usize;
            if node < lefts {
                let row = &self.flow[node * width..(node + 1) * width];
                for (j, &flow) in row.iter().enumerate() {
                    if flow != NO_EDGE && self.prev[lefts + j] == UNSEEN {
                        self.prev[lefts + j] = node as u32;
                        if self.spare[j] > 0 {
                            return Some(j);
                        }
                        self.queue.push((lefts + j) as u32);
                    }
                }
            } else {
                let j = node - lefts;
                for i in 0..lefts {
                    if self.flow[i * width + j] > 0 && self.prev[i] == UNSEEN {
                        self.prev[i] = node as u32;
                        self.queue.push(i as u32);
                    }
                }
            }
        }
        None
    }

    /// Push flow from `root` to the sink along the path the last search
    /// found to right entry `end`: as much as `need`, the sink edge's spare
    /// capacity and the flow on every back edge allow.  Returns the amount.
    fn augment(&mut self, root: usize, end: usize, need: i64, lefts: usize) -> i64 {
        let width = self.spare.len();
        // Walk the path from its right end: right entry `j` was reached
        // from left entry `i`, which was reached back from right entry
        // `prev[i]` unless it is the root.
        let mut amount = need.min(self.spare[end]);
        let mut j = end;
        loop {
            let i = self.prev[lefts + j] as usize;
            if i == root {
                break;
            }
            j = self.prev[i] as usize - lefts;
            amount = amount.min(self.flow[i * width + j]);
        }
        self.spare[end] -= amount;
        let mut j = end;
        loop {
            let i = self.prev[lefts + j] as usize;
            self.flow[i * width + j] += amount;
            if i == root {
                break;
            }
            j = self.prev[i] as usize - lefts;
            self.flow[i * width + j] -= amount;
        }
        #[cfg(test)]
        {
            self.back_edge_augmentations += usize::from(self.prev[lefts + end] as usize != root);
        }
        amount
    }
}

/// The Karp–Miller acceleration: compare a candidate state against an
/// ancestor; when the ancestor is covered by the candidate and some counter
/// strictly grew, that counter is set to `ω` (Section 3.3; the
/// subsumption-based generalisation of Section 3.5 sets `ω` on every
/// right-hand type that can keep strict slack in a feasible mapping).
/// Returns `None` when no acceleration applies.
pub fn accelerate(
    kind: CoverageKind,
    ancestor: StateView<'_>,
    candidate: StateView<'_>,
    interner: &dyn TypeTable,
) -> Option<CounterVec> {
    if !discrete_match(ancestor, candidate) {
        return None;
    }
    match kind {
        CoverageKind::Equality => None,
        CoverageKind::Standard => {
            if ancestor.pit != candidate.pit
                || !slice_leq(ancestor.counters, candidate.counters)
                || !slice_strictly_less_somewhere(ancestor.counters, candidate.counters)
            {
                return None;
            }
            let mut counters = CounterVec::from_sorted(candidate.counters.to_vec());
            for &(t, c) in candidate.counters {
                let anc = slice_get(ancestor.counters, t);
                if anc != OMEGA && c != OMEGA && anc < c {
                    counters = counters.with_omega(t);
                }
                if anc != OMEGA && c == OMEGA {
                    counters = counters.with_omega(t);
                }
            }
            Some(counters)
        }
        CoverageKind::Subsumption | CoverageKind::StrictSubsumption => {
            if !ancestor.pit.implies(candidate.pit)
                || !flow_feasible(ancestor.counters, candidate.counters, interner, 0)
            {
                return None;
            }
            // A right-hand type can be accelerated if the mapping can leave
            // slack on it: feasibility still holds after lowering its
            // capacity by one.
            let owned = CounterVec::from_sorted(candidate.counters.to_vec());
            let mut counters = owned.clone();
            let mut changed = false;
            for (t, c) in owned.iter() {
                if c == OMEGA {
                    continue;
                }
                let Some(reduced) = owned.decremented(t) else {
                    continue;
                };
                if flow_feasible(ancestor.counters, reduced.as_slice(), interner, 0) {
                    counters = counters.with_omega(t);
                    changed = true;
                }
            }
            if changed {
                Some(counters)
            } else {
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ExprUniverse;
    use crate::pit::{Pit, PitBuilder};
    use crate::psi::{Psi, StoredTypeInterner};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;
    use verifas_model::schema::attr::data;
    use verifas_model::{
        ArtRelId, Condition, DataValue, DatabaseSchema, HasSpec, SpecBuilder, TaskBuilder, VarId,
        VarRef,
    };

    fn setup() -> (HasSpec, ExprUniverse) {
        let mut db = DatabaseSchema::new();
        db.add_relation("R", vec![data("a")]).unwrap();
        let mut root = TaskBuilder::new("Root");
        let x = root.data_var("x");
        root.art_relation_like("S", &[x]);
        root.service_parts("noop", Condition::True, Condition::True, vec![], None);
        let spec = SpecBuilder::new("cov", db, root.build()).build().unwrap();
        let consts = BTreeSet::from([DataValue::str("a"), DataValue::str("b")]);
        let u = ExprUniverse::build(&spec, spec.root(), &[], &consts);
        (spec, u)
    }

    use crate::product::ProductState;

    fn state(pit: Pit, counters: crate::psi::CounterVec) -> ProductState {
        ProductState {
            psi: Psi {
                pit,
                counters,
                child_active: 0,
            },
            buchi: 0,
            closed: false,
        }
    }

    fn constrained(u: &ExprUniverse, c: &str) -> Pit {
        let x = u.var_expr(VarRef::Task(VarId::new(0))).unwrap();
        let k = u.const_expr(&DataValue::str(c)).unwrap();
        let mut b = PitBuilder::new(u);
        b.assert_eq(x, k);
        b.finish().unwrap()
    }

    fn slot_constrained(u: &ExprUniverse, c: &str) -> Pit {
        let s = u.slot_expr(ArtRelId::new(0), 0).unwrap();
        let k = u.const_expr(&DataValue::str(c)).unwrap();
        let mut b = PitBuilder::new(u);
        b.assert_eq(s, k);
        b.finish().unwrap()
    }

    #[test]
    fn pointwise_order_with_omega() {
        let a = CounterVec::empty().incremented(0).incremented(1);
        let b = CounterVec::empty()
            .incremented(0)
            .incremented(0)
            .incremented(1);
        let w = CounterVec::empty().with_omega(0).incremented(1);
        let (a, b, w) = (a.as_slice(), b.as_slice(), w.as_slice());
        assert!(slice_leq(a, b));
        assert!(!slice_leq(b, a));
        assert!(slice_leq(a, a));
        assert!(slice_leq(a, w));
        assert!(!slice_leq(w, b));
        assert!(slice_strictly_less_somewhere(a, b));
        assert!(!slice_strictly_less_somewhere(b, a));
        assert!(slice_strictly_less_somewhere(a, w));
    }

    #[test]
    fn standard_coverage_requires_identical_types() {
        let (_s, u) = setup();
        let interner = StoredTypeInterner::new();
        let a = state(Pit::empty(), crate::psi::CounterVec::empty());
        let b = state(constrained(&u, "a"), crate::psi::CounterVec::empty());
        assert!(covers(
            CoverageKind::Standard,
            a.view(),
            a.view(),
            &interner
        ));
        assert!(!covers(
            CoverageKind::Standard,
            b.view(),
            a.view(),
            &interner
        ));
        // Subsumption allows pruning the more constrained state in favour of
        // the less constrained one.
        assert!(covers(
            CoverageKind::Subsumption,
            b.view(),
            a.view(),
            &interner
        ));
        assert!(!covers(
            CoverageKind::Subsumption,
            a.view(),
            b.view(),
            &interner
        ));
        // Equality is the strictest.
        assert!(!covers(
            CoverageKind::Equality,
            b.view(),
            a.view(),
            &interner
        ));
    }

    #[test]
    fn subsumption_counters_use_the_flow_mapping() {
        // Example 23 of the paper: {τa: 2, τb: 2} ≼ {τa: 3, τb: 1} when
        // τb ⊨ τa (τb is more restrictive).
        let (_s, u) = setup();
        let mut interner = StoredTypeInterner::new();
        let rel = ArtRelId::new(0);
        let tau_a = interner.intern(rel, Pit::empty());
        let tau_b = interner.intern(rel, slot_constrained(&u, "a"));
        let left = crate::psi::CounterVec::empty()
            .incremented(tau_a)
            .incremented(tau_a)
            .incremented(tau_b)
            .incremented(tau_b);
        let right = crate::psi::CounterVec::empty()
            .incremented(tau_a)
            .incremented(tau_a)
            .incremented(tau_a)
            .incremented(tau_b);
        let covered = state(Pit::empty(), left.clone());
        let covering = state(Pit::empty(), right.clone());
        assert!(covers(
            CoverageKind::Subsumption,
            covered.view(),
            covering.view(),
            &interner
        ));
        // Standard coverage fails: counters are not pointwise comparable.
        assert!(!covers(
            CoverageKind::Standard,
            covered.view(),
            covering.view(),
            &interner
        ));
        // The reverse direction does not hold: τa tuples cannot map to τb.
        assert!(!covers(
            CoverageKind::Subsumption,
            covering.view(),
            covered.view(),
            &interner
        ));
    }

    #[test]
    fn strict_subsumption_needs_slack_or_equality() {
        let (_s, u) = setup();
        let mut interner = StoredTypeInterner::new();
        let rel = ArtRelId::new(0);
        let tau_a = interner.intern(rel, Pit::empty());
        let one = crate::psi::CounterVec::empty().incremented(tau_a);
        let two = one.incremented(tau_a);
        let s1 = state(Pit::empty(), one.clone());
        let s2 = state(Pit::empty(), two);
        assert!(covers(
            CoverageKind::StrictSubsumption,
            s1.view(),
            s1.view(),
            &interner
        ));
        assert!(covers(
            CoverageKind::StrictSubsumption,
            s1.view(),
            s2.view(),
            &interner
        ));
        // Same totals, different nothing: ≼ holds but ≼⁺ needs strict slack.
        let s1b = state(Pit::empty(), one);
        assert!(covers(
            CoverageKind::Subsumption,
            s1.view(),
            s1b.view(),
            &interner
        ));
        assert!(covers(
            CoverageKind::StrictSubsumption,
            s1.view(),
            s1b.view(),
            &interner
        )); // equality case
        let different = state(
            constrained(&u, "a"),
            crate::psi::CounterVec::empty().incremented(tau_a),
        );
        assert!(!covers(
            CoverageKind::StrictSubsumption,
            different.view(),
            s1.view(),
            &interner
        ));
        let _ = u;
    }

    #[test]
    fn acceleration_pumps_strictly_growing_counters() {
        let (_s, _u) = setup();
        let mut interner = StoredTypeInterner::new();
        let rel = ArtRelId::new(0);
        let t = interner.intern(rel, Pit::empty());
        let ancestor = state(Pit::empty(), crate::psi::CounterVec::empty().incremented(t));
        let candidate = state(
            Pit::empty(),
            crate::psi::CounterVec::empty()
                .incremented(t)
                .incremented(t),
        );
        let accelerated = accelerate(
            CoverageKind::Standard,
            ancestor.view(),
            candidate.view(),
            &interner,
        )
        .expect("acceleration applies");
        assert_eq!(accelerated.get(t), OMEGA);
        // No acceleration when counters did not grow.
        assert!(accelerate(
            CoverageKind::Standard,
            ancestor.view(),
            ancestor.view(),
            &interner
        )
        .is_none());
        // Subsumption-based acceleration also pumps.
        let accelerated = accelerate(
            CoverageKind::Subsumption,
            ancestor.view(),
            candidate.view(),
            &interner,
        )
        .expect("subsumption acceleration applies");
        assert_eq!(accelerated.get(t), OMEGA);
    }

    /// The summed counts of `entries`, with an `ω` count weighing 2^40 as
    /// in the network.
    fn weight<'a>(entries: impl IntoIterator<Item = &'a (StoredTypeId, u32)>) -> i64 {
        entries
            .into_iter()
            .map(|&(_, c)| if c == OMEGA { 1 << 40 } else { i64::from(c) })
            .sum()
    }

    /// Hall's condition by brute force: `supply ≥ demand + slack`, and
    /// every non-empty set `S` of left entries fits into the right entries
    /// it implies (`Σ_S count ≤ Σ_{N(S)} cap`).
    fn halls_condition(
        left: &[(StoredTypeId, u32)],
        right: &[(StoredTypeId, u32)],
        interner: &StoredTypeInterner,
        slack: i64,
    ) -> bool {
        if weight(right) < weight(left) + slack {
            return false;
        }
        // The right entries each left entry implies, as a bit mask.
        let implied: Vec<u32> = left
            .iter()
            .map(|&(l, _)| {
                let (lrel, lpit) = interner.get(l);
                (0..right.len())
                    .filter(|&j| {
                        let (rrel, rpit) = interner.get(right[j].0);
                        lrel == rrel && lpit.implies(rpit)
                    })
                    .fold(0, |mask, j| mask | 1 << j)
            })
            .collect();
        (1..1u32 << left.len()).all(|set| {
            let members = (0..left.len()).filter(|i| set & (1 << i) != 0);
            let reached = members.clone().fold(0, |mask, i| mask | implied[i]);
            let demand = weight(members.map(|i| &left[i]));
            let supply = weight(
                (0..right.len())
                    .filter(|j| reached & (1 << j) != 0)
                    .map(|j| &right[j]),
            );
            demand <= supply
        })
    }

    /// Stored types of two relations: each relation's empty type and the
    /// seeded random types of [`crate::pit::tests::random_pit`].
    fn stored_types(u: &ExprUniverse, interner: &mut StoredTypeInterner) -> Vec<StoredTypeId> {
        let mut types = vec![
            interner.intern(ArtRelId::new(0), Pit::empty()),
            interner.intern(ArtRelId::new(1), Pit::empty()),
        ];
        for seed in 0..60 {
            if let Some(pit) = crate::pit::tests::random_pit(u, seed) {
                types.push(interner.intern(ArtRelId::new(seed as u32 % 2), pit));
            }
        }
        types.sort_unstable();
        types.dedup();
        types
    }

    /// A sorted counter vector over `types`: `len` draws (duplicates
    /// merged), each counting 1 to `max` or `ω` with probability
    /// `1 / (max + 1)`.
    fn draw_counters(
        rng: &mut StdRng,
        types: &[StoredTypeId],
        len: usize,
        max: u32,
    ) -> Vec<(StoredTypeId, u32)> {
        let mut entries: Vec<(StoredTypeId, u32)> = (0..len)
            .map(|_| {
                let count = match rng.gen_range(0..max + 1) {
                    0 => OMEGA,
                    c => c,
                };
                (types[rng.gen_range(0..types.len())], count)
            })
            .collect();
        entries.sort_unstable_by_key(|(t, _)| *t);
        entries.dedup_by_key(|(t, _)| *t);
        entries
    }

    /// How the cases of [`compare_with_halls`] that the totals leave open
    /// were settled.
    #[derive(Debug, Default)]
    struct Tally {
        /// By the identity mapping.
        identity: usize,
        /// By one left type that cannot be placed on its own.
        unplaceable: usize,
        /// By routing flow, feasible.
        network_feasible: usize,
        /// By routing flow, infeasible: only a set of two or more left
        /// types exposes these.
        network_infeasible: usize,
        /// Augmentations that moved flow back along a middle edge.
        back_edge_augmentations: usize,
    }

    /// Asserts that `flow_feasible` equals [`halls_condition`] at slack 0
    /// and 1 on `cases` pairs from `draw`, and tallies how the cases were
    /// settled.
    fn compare_with_halls(
        interner: &StoredTypeInterner,
        cases: usize,
        mut draw: impl FnMut() -> Vec<(StoredTypeId, u32)>,
    ) -> Tally {
        let back_edges = || FLOW.with(|network| network.borrow().back_edge_augmentations);
        let start = back_edges();
        let mut tally = Tally::default();
        for _ in 0..cases {
            let (left, right) = (draw(), draw());
            for slack in [0, 1] {
                let expected = halls_condition(&left, &right, interner, slack);
                assert_eq!(
                    flow_feasible(&left, &right, interner, slack),
                    expected,
                    "left {left:?}, right {right:?}, slack {slack}"
                );
                if left.is_empty() || weight(&right) < weight(&left) + slack {
                    continue;
                }
                if slice_leq(&left, &right) {
                    tally.identity += 1;
                } else if left
                    .iter()
                    .any(|entry| !halls_condition(&[*entry], &right, interner, 0))
                {
                    tally.unplaceable += 1;
                } else if expected {
                    tally.network_feasible += 1;
                } else {
                    tally.network_infeasible += 1;
                }
            }
        }
        tally.back_edge_augmentations = back_edges() - start;
        tally
    }

    /// `flow_feasible` equals [`halls_condition`] on random counter
    /// vectors over random stored types of two relations, at slack 0 and
    /// 1, in two samples:
    ///
    /// * 0–4 entries per side (counts 1–3 or `ω`), which must hold cases
    ///   the identity mapping decides, cases with a single unplaceable
    ///   type, and infeasible cases that only a set of two or more types
    ///   exposes;
    /// * 5–10 entries per side (counts 1–5 or `ω`), which must hold
    ///   feasible and infeasible networks past the early exits, and
    ///   augmenting paths that move flow back along a middle edge.
    ///
    /// This pins today's `ω` arithmetic: `ω` weighs 2^40, so for instance
    /// two `ω` types never fit into one `ω` type.
    #[test]
    fn flow_feasible_matches_halls_condition() {
        let (_s, u) = setup();
        let mut interner = StoredTypeInterner::new();
        let types = stored_types(&u, &mut interner);
        let mut rng = StdRng::seed_from_u64(23);
        let small = compare_with_halls(&interner, 20_000, || {
            let len = rng.gen_range(0..5usize);
            let mut entries = draw_counters(&mut rng, &types, len, 4);
            for entry in &mut entries {
                if entry.1 != OMEGA {
                    entry.1 = entry.1.min(3);
                }
            }
            entries
        });
        assert!(
            small.identity > 100 && small.unplaceable > 100 && small.network_infeasible > 20,
            "weak small sample: {small:?}"
        );
        let mut rng = StdRng::seed_from_u64(29);
        let large = compare_with_halls(&interner, 20_000, || loop {
            let len = rng.gen_range(5..11usize);
            let entries = draw_counters(&mut rng, &types, len, 5);
            if entries.len() >= 5 {
                break entries;
            }
        });
        assert!(
            large.network_feasible > 150
                && large.network_infeasible > 300
                && large.back_edge_augmentations > 200,
            "weak large sample: {large:?}"
        );
    }

    #[test]
    fn discrete_components_must_match() {
        let (_s, _u) = setup();
        let interner = StoredTypeInterner::new();
        let a = state(Pit::empty(), crate::psi::CounterVec::empty());
        let mut b = a.clone();
        b.buchi = 1;
        assert!(!covers(
            CoverageKind::Subsumption,
            a.view(),
            b.view(),
            &interner
        ));
        let mut c = a.clone();
        c.psi.child_active = 1;
        assert!(!covers(
            CoverageKind::Standard,
            a.view(),
            c.view(),
            &interner
        ));
        let mut d = a.clone();
        d.closed = true;
        assert!(!covers(
            CoverageKind::Equality,
            a.view(),
            d.view(),
            &interner
        ));
    }
}
