//! Coverage orders between partial symbolic instances: the classic
//! Karp–Miller order `≤` (Section 3.3), the novel subsumption order `≼`
//! (Section 3.5, Definition 22) decided through a max-flow reduction, and
//! its strict variant `≼⁺` used by the repeated-reachability extension
//! (Appendix C, Definition 31).

use crate::product::StateView;
use crate::psi::{CounterVec, StoredTypeId, TypeTable, OMEGA};

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
/// sorted entry slices — the borrowed twin of [`CounterVec::leq`].
fn slice_leq(left: &[(StoredTypeId, u32)], right: &[(StoredTypeId, u32)]) -> bool {
    left.iter().all(|(t, c)| {
        let o = slice_get(right, *t);
        o == OMEGA || (*c != OMEGA && *c <= o)
    })
}

/// `true` iff some counter of `right` strictly exceeds the matching one
/// of `left` — the borrowed twin of [`CounterVec::strictly_less_somewhere`].
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
/// The answer is the max-flow test below, but most calls are settled
/// before a network exists, in this order:
///
/// 1. the totals: no demand needs only `supply ≥ slack`, and a supply
///    below `demand + slack` fails;
/// 2. the identity: when `left ≤ right` pointwise, mapping every type to
///    itself is a flow of value `demand`;
/// 3. per-type reachability (Hall's condition for one type): a left type
///    whose count exceeds the summed capacity of the right types it
///    implies cannot be placed.
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
    // The (left, right) index pairs with the left stored type implying the
    // right one in the same artifact relation: the middle edges of the
    // network, computed once.
    let mut implied: Vec<(usize, usize)> = Vec::new();
    for (i, &(lt, lc)) in left.iter().enumerate() {
        let (lrel, lpit) = interner.get(lt);
        let mut reach = 0;
        for (j, &(rt, rc)) in right.iter().enumerate() {
            let (rrel, rpit) = interner.get(rt);
            if lrel == rrel && lpit.implies(rpit) {
                implied.push((i, j));
                reach += count_value(rc);
            }
        }
        if count_value(lc) > reach {
            return false;
        }
    }
    // Max-flow on the bipartite graph: source -> left (capacity = count),
    // left -> right along `implied`, right -> sink (capacity = count).
    let n = 2 + left.len() + right.len();
    let source = 0;
    let sink = 1;
    let left_node = |i: usize| 2 + i;
    let right_node = |j: usize| 2 + left.len() + j;
    let mut flow = MaxFlow::new(n);
    for (i, (_, c)) in left.iter().enumerate() {
        flow.add_edge(source, left_node(i), count_value(*c));
    }
    for (j, (_, c)) in right.iter().enumerate() {
        flow.add_edge(right_node(j), sink, count_value(*c));
    }
    for &(i, j) in &implied {
        flow.add_edge(left_node(i), right_node(j), BIG);
    }
    flow.max_flow(source, sink) >= demand
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

/// A small Dinic-style max-flow (BFS levels + DFS blocking flow), adequate
/// for the tiny bipartite networks produced by the ≼ test.
struct MaxFlow {
    graph: Vec<Vec<usize>>,
    to: Vec<usize>,
    cap: Vec<i64>,
}

impl MaxFlow {
    fn new(n: usize) -> Self {
        MaxFlow {
            graph: vec![Vec::new(); n],
            to: Vec::new(),
            cap: Vec::new(),
        }
    }

    fn add_edge(&mut self, from: usize, to: usize, cap: i64) {
        let e = self.to.len();
        self.graph[from].push(e);
        self.to.push(to);
        self.cap.push(cap);
        self.graph[to].push(e + 1);
        self.to.push(from);
        self.cap.push(0);
    }

    fn bfs(&self, source: usize, sink: usize) -> Option<Vec<i32>> {
        let mut level = vec![-1; self.graph.len()];
        level[source] = 0;
        let mut queue = std::collections::VecDeque::from([source]);
        while let Some(u) = queue.pop_front() {
            for &e in &self.graph[u] {
                let v = self.to[e];
                if self.cap[e] > 0 && level[v] < 0 {
                    level[v] = level[u] + 1;
                    queue.push_back(v);
                }
            }
        }
        if level[sink] >= 0 {
            Some(level)
        } else {
            None
        }
    }

    fn dfs(&mut self, u: usize, sink: usize, pushed: i64, level: &[i32], it: &mut [usize]) -> i64 {
        if u == sink {
            return pushed;
        }
        while it[u] < self.graph[u].len() {
            let e = self.graph[u][it[u]];
            let v = self.to[e];
            if self.cap[e] > 0 && level[v] == level[u] + 1 {
                let d = self.dfs(v, sink, pushed.min(self.cap[e]), level, it);
                if d > 0 {
                    self.cap[e] -= d;
                    self.cap[e ^ 1] += d;
                    return d;
                }
            }
            it[u] += 1;
        }
        0
    }

    fn max_flow(&mut self, source: usize, sink: usize) -> i64 {
        let mut total = 0;
        while let Some(level) = self.bfs(source, sink) {
            let mut it = vec![0usize; self.graph.len()];
            loop {
                let pushed = self.dfs(source, sink, i64::MAX, &level, &mut it);
                if pushed == 0 {
                    break;
                }
                total += pushed;
            }
        }
        total
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
        let implies = |l: StoredTypeId, r: StoredTypeId| {
            let ((lrel, lpit), (rrel, rpit)) = (interner.get(l), interner.get(r));
            lrel == rrel && lpit.implies(rpit)
        };
        (1..1u32 << left.len()).all(|set| {
            let members: Vec<&(StoredTypeId, u32)> = (0..left.len())
                .filter(|i| set & (1 << i) != 0)
                .map(|i| &left[i])
                .collect();
            let reached = right
                .iter()
                .filter(|(r, _)| members.iter().any(|(l, _)| implies(*l, *r)));
            weight(members.iter().copied()) <= weight(reached)
        })
    }

    /// `flow_feasible` equals [`halls_condition`] on random counter vectors
    /// of 0–4 entries (counts 1–3 or `ω`) over random stored types of two
    /// relations, at slack 0 and 1.  The sample must hold cases the
    /// identity mapping decides, cases with a single unplaceable type, and
    /// infeasible cases that only a set of two or more types exposes.
    ///
    /// This pins today's `ω` arithmetic: `ω` weighs 2^40, so for instance
    /// two `ω` types never fit into one `ω` type.
    #[test]
    fn flow_feasible_matches_halls_condition() {
        let (_s, u) = setup();
        let mut interner = StoredTypeInterner::new();
        let mut types = vec![
            interner.intern(ArtRelId::new(0), Pit::empty()),
            interner.intern(ArtRelId::new(1), Pit::empty()),
        ];
        for seed in 0..60 {
            if let Some(pit) = crate::pit::tests::random_pit(&u, seed) {
                types.push(interner.intern(ArtRelId::new(seed as u32 % 2), pit));
            }
        }
        types.sort_unstable();
        types.dedup();
        let mut rng = StdRng::seed_from_u64(23);
        let draw = |rng: &mut StdRng| {
            let mut entries: Vec<(StoredTypeId, u32)> = (0..rng.gen_range(0..5))
                .map(|_| {
                    let count = match rng.gen_range(0..5u32) {
                        0 => OMEGA,
                        c => c.min(3),
                    };
                    (types[rng.gen_range(0..types.len())], count)
                })
                .collect();
            entries.sort_unstable_by_key(|(t, _)| *t);
            entries.dedup_by_key(|(t, _)| *t);
            entries
        };
        let (mut identity, mut unplaceable, mut only_sets) = (0, 0, 0);
        for _ in 0..20_000 {
            let (left, right) = (draw(&mut rng), draw(&mut rng));
            for slack in [0, 1] {
                let expected = halls_condition(&left, &right, &interner, slack);
                assert_eq!(
                    flow_feasible(&left, &right, &interner, slack),
                    expected,
                    "left {left:?}, right {right:?}, slack {slack}"
                );
                // Tally the cases the totals do not settle.
                if left.is_empty() || weight(&right) < weight(&left) + slack {
                    continue;
                }
                if slice_leq(&left, &right) {
                    identity += 1;
                } else if left
                    .iter()
                    .any(|entry| !halls_condition(&[*entry], &right, &interner, 0))
                {
                    unplaceable += 1;
                } else if !expected {
                    only_sets += 1;
                }
            }
        }
        assert!(
            identity > 100 && unplaceable > 100 && only_sets > 20,
            "weak sample: {identity} identity, {unplaceable} unplaceable, {only_sets} set-only"
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
