//! Condition evaluation over partial isomorphism types
//! (`eval(τ, φ)` of Section 3.2).
//!
//! A quantifier-free condition is *compiled* against the expression
//! universe: it is put in DNF, relational atoms are flattened into
//! navigation equalities (`flat(φ)` of Appendix A: `R(x, y₁…yₙ)` becomes
//! `⋀ᵢ x.Aᵢ = yᵢ`, and a negated atom becomes the disjunction of the
//! corresponding disequalities), and each resulting conjunct becomes a set
//! of [`Edge`]s.  Evaluating the compiled condition on a type `τ` returns
//! the *minimal extensions* of `τ` satisfying the condition: one candidate
//! per conjunct, discarding the inconsistent ones.

use crate::expr::{ExprId, ExprUniverse};
use crate::pit::{Edge, Pit, PitBuilder};
use std::collections::HashSet;
use verifas_model::{AttrId, Condition, Literal, Term};

/// A condition compiled to expression-level DNF.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompiledCondition {
    /// Each element is one satisfiable-looking conjunct: a set of edges
    /// that must all be added to the type.  An empty outer vector means the
    /// condition is unsatisfiable (`False`); an empty inner vector is the
    /// trivially true conjunct.
    pub conjuncts: Vec<Vec<Edge>>,
}

impl CompiledCondition {
    /// The trivially true compiled condition.
    pub fn trivial() -> Self {
        CompiledCondition {
            conjuncts: vec![vec![]],
        }
    }

    /// `true` iff the compiled condition has no satisfiable conjunct.
    pub fn is_unsatisfiable(&self) -> bool {
        self.conjuncts.is_empty()
    }
}

/// Translate a term into its expression (the universe must have been built
/// with every constant occurring in the conditions of the specification and
/// the property).
fn term_expr(term: &Term, universe: &ExprUniverse) -> ExprId {
    match term {
        Term::Null => universe.null_expr(),
        Term::Var(v) => universe
            .var_expr(*v)
            .unwrap_or_else(|| panic!("variable {v:?} missing from the expression universe")),
        Term::Const(c) => universe
            .const_expr(c)
            .unwrap_or_else(|| panic!("constant {c:?} missing from the expression universe")),
    }
}

/// Compile a condition against an expression universe.
pub fn compile_condition(cond: &Condition, universe: &ExprUniverse) -> CompiledCondition {
    let mut out: Vec<Vec<Edge>> = Vec::new();
    for conjunct in cond.dnf() {
        // Each model-level conjunct may expand into several expression-level
        // conjuncts because a negated relational atom is a disjunction of
        // attribute disequalities.
        let mut partials: Vec<Vec<Edge>> = vec![vec![]];
        let mut dead = false;
        for literal in &conjunct {
            match literal {
                Literal::Cmp(l, op, r) => {
                    let (a, b) = (term_expr(l, universe), term_expr(r, universe));
                    if a == b {
                        match op {
                            verifas_model::CmpOp::Eq => continue,
                            verifas_model::CmpOp::Neq => {
                                dead = true;
                                break;
                            }
                        }
                    }
                    let edge = match op {
                        verifas_model::CmpOp::Eq => Edge::eq(a, b),
                        verifas_model::CmpOp::Neq => Edge::neq(a, b),
                    };
                    for p in &mut partials {
                        p.push(edge);
                    }
                }
                Literal::Rel {
                    id, args, positive, ..
                } => {
                    if matches!(id, Term::Null) {
                        // A relational atom with a null key is false.
                        if *positive {
                            dead = true;
                            break;
                        } else {
                            continue;
                        }
                    }
                    let id_expr = term_expr(id, universe);
                    let navs: Vec<(ExprId, ExprId)> = args
                        .iter()
                        .enumerate()
                        .map(|(i, arg)| {
                            let child = universe
                                .navigate(id_expr, AttrId::new(i as u32))
                                .unwrap_or_else(|| {
                                    panic!(
                                        "navigation expression missing for attribute {i} of a relational atom"
                                    )
                                });
                            (child, term_expr(arg, universe))
                        })
                        .collect();
                    if *positive {
                        for p in &mut partials {
                            for (child, arg) in &navs {
                                if child != arg {
                                    p.push(Edge::eq(*child, *arg));
                                }
                            }
                        }
                    } else {
                        // ¬R(x, ȳ): some attribute differs.
                        let mut next = Vec::with_capacity(partials.len() * navs.len().max(1));
                        if navs.is_empty() {
                            // A negated atom over a zero-attribute relation
                            // can only constrain the key, which flat() drops;
                            // treat it as unsatisfiable within this conjunct.
                            dead = true;
                            break;
                        }
                        for p in &partials {
                            for (child, arg) in &navs {
                                if child == arg {
                                    continue; // x.A ≠ x.A is unsatisfiable
                                }
                                let mut q = p.clone();
                                q.push(Edge::neq(*child, *arg));
                                next.push(q);
                            }
                        }
                        if next.is_empty() {
                            dead = true;
                            break;
                        }
                        partials = next;
                    }
                }
            }
        }
        if !dead {
            out.extend(partials);
        }
    }
    // Deduplicate identical conjuncts (common after flattening).
    for c in &mut out {
        c.sort_unstable();
        c.dedup();
    }
    out.sort();
    out.dedup();
    CompiledCondition { conjuncts: out }
}

/// `eval(τ, φ)`: all minimal consistent extensions of `pit` satisfying the
/// compiled condition.  `static_removed` lists edges the static analysis
/// proved non-violating; they are dropped from the results to shrink the
/// state space (Section 3.7).
///
/// Each conjunct `c` yields `closure(pit ∪ c) \ static_removed`, or
/// nothing when that union is inconsistent.  Two cases are settled
/// without a closure:
///
/// * **contradicted**: `pit` holds the complement of an edge of `c`, so
///   the closure would put a `≠` inside a class — no extension, for any
///   `pit`;
/// * **held**: `pit` holds every edge of `c`, so the extension is
///   `pit \ static_removed`.
///
/// Every other conjunct re-closes `pit` with its edges through
/// [`PitBuilder`].
///
/// **Precondition** (what makes "held" exact): re-closing `pit` adds no
/// edge outside `S = static_removed`, i.e. `closure(pit) \ S == pit \ S`.
/// A state type is a closure with the removed edges dropped, and a
/// projection of one onto heads closed under navigation qualifies too, so
/// every state type and every intermediate type of a transition does.  A
/// state type passed with an *empty* removed set does not, because its
/// gaps would re-close; `SymbolicTask::successors` closes the state type
/// before it evaluates internal pre-conditions for that reason.  Debug
/// builds check the precondition on every call.
pub fn eval_extensions(
    pit: &Pit,
    compiled: &CompiledCondition,
    universe: &ExprUniverse,
    static_removed: &HashSet<Edge>,
) -> Vec<Pit> {
    debug_assert!(
        recloses_within(pit, universe, static_removed),
        "eval_extensions: re-closing the input adds edges outside the removed set"
    );
    let mut out = Vec::new();
    for conjunct in &compiled.conjuncts {
        let mut held = true;
        let mut contradicted = false;
        for edge in conjunct {
            if pit.contains(edge.complement()) {
                contradicted = true;
                break;
            }
            held = held && pit.contains(*edge);
        }
        if contradicted {
            continue;
        }
        if held {
            out.push(pit.without_edges(static_removed));
            continue;
        }
        let mut builder = PitBuilder::from_pit(universe, pit);
        for edge in conjunct {
            builder.assert_edge(*edge);
        }
        if let Some(extended) = builder.finish() {
            out.push(if static_removed.is_empty() {
                extended
            } else {
                extended.without_edges(static_removed)
            });
        }
    }
    out.sort();
    out.dedup();
    out
}

/// The precondition of [`eval_extensions`]: `pit` re-closes consistently
/// and re-closing it adds no edge outside `removed`.
fn recloses_within(pit: &Pit, universe: &ExprUniverse, removed: &HashSet<Edge>) -> bool {
    PitBuilder::from_pit(universe, pit)
        .finish()
        .is_some_and(|closed| closed.without_edges(removed) == pit.without_edges(removed))
}

/// Extend every type of `pits` with the compiled condition, flattening the
/// results (used by the product construction to conjoin the conditions of
/// several propositions).
pub fn extend_all(
    pits: Vec<Pit>,
    compiled: &CompiledCondition,
    universe: &ExprUniverse,
    static_removed: &HashSet<Edge>,
) -> Vec<Pit> {
    let mut out = Vec::new();
    for pit in pits {
        out.extend(eval_extensions(&pit, compiled, universe, static_removed));
    }
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pit::tests::{example18, random_pit};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;
    use verifas_model::schema::attr::{data, fk};
    use verifas_model::{
        DataValue, DatabaseSchema, HasSpec, SpecBuilder, TaskBuilder, VarId, VarRef,
    };

    fn spec() -> (HasSpec, ExprUniverse) {
        let mut db = DatabaseSchema::new();
        let credit = db.add_relation("CREDIT", vec![data("status")]).unwrap();
        let cust = db
            .add_relation("CUSTOMERS", vec![data("name"), fk("record", credit)])
            .unwrap();
        let mut root = TaskBuilder::new("Root");
        root.id_var("cust_id", cust);
        root.data_var("name");
        root.data_var("status");
        root.service_parts("noop", Condition::True, Condition::True, vec![], None);
        let spec = SpecBuilder::new("eval-test", db, root.build())
            .build()
            .unwrap();
        let consts = BTreeSet::from([DataValue::str("Good"), DataValue::str("Init")]);
        let u = ExprUniverse::build(&spec, spec.root(), &[], &consts);
        (spec, u)
    }

    #[test]
    fn compile_comparison_conditions() {
        let (_spec, u) = spec();
        let status = Term::var(VarId::new(2));
        let c = Condition::eq(status.clone(), Term::str("Init"));
        let compiled = compile_condition(&c, &u);
        assert_eq!(compiled.conjuncts.len(), 1);
        assert_eq!(compiled.conjuncts[0].len(), 1);
        // Disjunction gives two conjuncts.
        let c2 = Condition::or([
            Condition::eq(status.clone(), Term::str("Init")),
            Condition::eq(status.clone(), Term::str("Good")),
        ]);
        assert_eq!(compile_condition(&c2, &u).conjuncts.len(), 2);
        // x = x is trivially true, x ≠ x unsatisfiable.
        assert_eq!(
            compile_condition(&Condition::eq(status.clone(), status.clone()), &u),
            CompiledCondition::trivial()
        );
        assert!(compile_condition(&Condition::neq(status.clone(), status), &u).is_unsatisfiable());
        assert!(compile_condition(&Condition::False, &u).is_unsatisfiable());
    }

    #[test]
    fn compile_relational_atoms_flattens_to_navigations() {
        let (spec, u) = spec();
        let cust_rel = spec.db.relation_by_name("CUSTOMERS").unwrap().0;
        let credit_rel = spec.db.relation_by_name("CREDIT").unwrap().0;
        let cust_id = Term::var(VarId::new(0));
        let name = Term::var(VarId::new(1));
        // CUSTOMERS(cust_id, name, r) with r existentially handled by using
        // a navigation-free wildcard: here we bind the record position to
        // null to exercise the flat() translation only.
        let atom = Condition::Rel {
            rel: cust_rel,
            id: cust_id.clone(),
            args: vec![name.clone(), Term::Null],
        };
        let compiled = compile_condition(&atom, &u);
        assert_eq!(compiled.conjuncts.len(), 1);
        assert_eq!(compiled.conjuncts[0].len(), 2); // cust_id.name = name, cust_id.record = null
                                                    // Negated atom: one conjunct per attribute.
        let neg = Condition::not(atom);
        let compiled_neg = compile_condition(&neg, &u);
        assert_eq!(compiled_neg.conjuncts.len(), 2);
        // A nested navigation: CREDIT(record-of-cust, "Good") written as a
        // condition over cust_id.record via an atom on CREDIT with the
        // navigation expression — here we exercise it through eval below.
        let _ = credit_rel;
    }

    #[test]
    fn eval_returns_minimal_consistent_extensions() {
        let (_spec, u) = spec();
        let status = VarRef::Task(VarId::new(2));
        let status_e = u.var_expr(status).unwrap();
        let init = u.const_expr(&DataValue::str("Init")).unwrap();
        let good = u.const_expr(&DataValue::str("Good")).unwrap();
        let cond = Condition::or([
            Condition::eq(Term::var(VarId::new(2)), Term::str("Init")),
            Condition::eq(Term::var(VarId::new(2)), Term::str("Good")),
        ]);
        let compiled = compile_condition(&cond, &u);
        let none = HashSet::new();
        let results = eval_extensions(&Pit::empty(), &compiled, &u, &none);
        assert_eq!(results.len(), 2);
        assert!(results.iter().any(|p| p.contains(Edge::eq(status_e, init))));
        assert!(results.iter().any(|p| p.contains(Edge::eq(status_e, good))));
        // With status already = "Good", only the consistent branch remains.
        let mut b = PitBuilder::new(&u);
        b.assert_eq(status_e, good);
        let pit = b.finish().unwrap();
        let results = eval_extensions(&pit, &compiled, &u, &none);
        assert_eq!(results.len(), 1);
        assert!(results[0].contains(Edge::eq(status_e, good)));
        // An unsatisfiable condition yields no extension.
        let f = compile_condition(&Condition::False, &u);
        assert!(eval_extensions(&pit, &f, &u, &none).is_empty());
    }

    #[test]
    fn eval_respects_existing_disequalities() {
        let (_spec, u) = spec();
        let status_e = u.var_expr(VarRef::Task(VarId::new(2))).unwrap();
        let init = u.const_expr(&DataValue::str("Init")).unwrap();
        let mut b = PitBuilder::new(&u);
        b.assert_neq(status_e, init);
        let pit = b.finish().unwrap();
        let cond = Condition::eq(Term::var(VarId::new(2)), Term::str("Init"));
        let compiled = compile_condition(&cond, &u);
        assert!(eval_extensions(&pit, &compiled, &u, &HashSet::new()).is_empty());
    }

    #[test]
    fn static_removed_edges_are_filtered_from_results() {
        let (_spec, u) = spec();
        let status_e = u.var_expr(VarRef::Task(VarId::new(2))).unwrap();
        let init = u.const_expr(&DataValue::str("Init")).unwrap();
        let cond = Condition::eq(Term::var(VarId::new(2)), Term::str("Init"));
        let compiled = compile_condition(&cond, &u);
        let removed: HashSet<Edge> = [Edge::eq(status_e, init)].into_iter().collect();
        let results = eval_extensions(&Pit::empty(), &compiled, &u, &removed);
        assert_eq!(results.len(), 1);
        assert!(results[0].is_empty());
    }

    /// `eval(τ, φ)` computed by the builder alone: every conjunct
    /// re-closes `pit` with its edges, with no short-circuit.
    fn eval_by_closure(
        pit: &Pit,
        compiled: &CompiledCondition,
        u: &ExprUniverse,
        removed: &HashSet<Edge>,
    ) -> Vec<Pit> {
        let mut out: Vec<Pit> = compiled
            .conjuncts
            .iter()
            .filter_map(|conjunct| {
                let mut b = PitBuilder::from_pit(u, pit);
                for edge in conjunct {
                    b.assert_edge(*edge);
                }
                b.finish().map(|p| p.without_edges(removed))
            })
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Over seeded random closed types `P` with random removed sets
    /// `R ⊆ edges(P)`, `eval_extensions` on `P \ R` (removing `R`) and on
    /// `P` (removing nothing) equals [`eval_by_closure`], for conditions
    /// whose conjuncts mix edges of `P`, complements of `P`'s edges and
    /// fresh edges.  Every conjunct is tallied by how `eval_extensions`
    /// settles it, and each kind must occur often.
    fn check_short_circuits(name: &str, u: &ExprUniverse) {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let n = u.len() as ExprId;
        let (mut held, mut contradicted, mut built) = (0, 0, 0);
        for seed in 0..300 {
            let Some(pit) = random_pit(u, seed) else {
                continue;
            };
            let removed: HashSet<Edge> = pit
                .edges()
                .iter()
                .copied()
                .filter(|_| rng.gen_range(0..4) == 0)
                .collect();
            let gapped = pit.without_edges(&removed);
            let draw_edge = |rng: &mut StdRng| {
                let kind = if pit.is_empty() {
                    2
                } else {
                    rng.gen_range(0..3)
                };
                if kind < 2 {
                    let edge = pit.edges()[rng.gen_range(0..pit.edge_count())];
                    return if kind == 0 { edge } else { edge.complement() };
                }
                loop {
                    let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
                    let edge = if rng.gen_range(0..2) == 0 {
                        Edge::eq(a, b)
                    } else {
                        Edge::neq(a, b)
                    };
                    if a != b && !pit.contains(edge) && !pit.contains(edge.complement()) {
                        return edge;
                    }
                }
            };
            for _ in 0..8 {
                let conjuncts = (0..rng.gen_range(1..4))
                    .map(|_| {
                        (0..rng.gen_range(1..4))
                            .map(|_| draw_edge(&mut rng))
                            .collect()
                    })
                    .collect();
                let compiled = CompiledCondition { conjuncts };
                for (input, removed) in [(&gapped, &removed), (&pit, &HashSet::new())] {
                    assert_eq!(
                        eval_extensions(input, &compiled, u, removed),
                        eval_by_closure(input, &compiled, u, removed),
                        "{name}: seed {seed}, conjuncts {:?}",
                        compiled.conjuncts
                    );
                    for conjunct in &compiled.conjuncts {
                        if conjunct.iter().any(|e| input.contains(e.complement())) {
                            contradicted += 1;
                        } else if conjunct.iter().all(|e| input.contains(*e)) {
                            held += 1;
                        } else {
                            built += 1;
                        }
                    }
                }
            }
        }
        assert!(
            held > 300 && contradicted > 300 && built > 300,
            "{name}: weak sample ({held} held, {contradicted} contradicted, {built} built)"
        );
    }

    #[test]
    fn short_circuits_match_the_closure_on_example18() {
        let (_spec, u) = example18();
        check_short_circuits("example18", &u);
    }

    #[test]
    fn short_circuits_match_the_closure_on_order_fulfillment() {
        let spec = verifas_workloads::order_fulfillment();
        let u = ExprUniverse::build(
            &spec,
            spec.root(),
            &[],
            &crate::transition::spec_constants(&spec),
        );
        check_short_circuits("order_fulfillment", &u);
    }

    #[test]
    fn extend_all_combines_branches() {
        let (_spec, u) = spec();
        let v_name = Term::var(VarId::new(1));
        let v_status = Term::var(VarId::new(2));
        let c1 = compile_condition(
            &Condition::or([
                Condition::eq(v_name.clone(), Term::str("Good")),
                Condition::eq(v_name, Term::str("Init")),
            ]),
            &u,
        );
        let c2 = compile_condition(
            &Condition::or([
                Condition::eq(v_status.clone(), Term::str("Good")),
                Condition::eq(v_status, Term::str("Init")),
            ]),
            &u,
        );
        let none = HashSet::new();
        let step1 = eval_extensions(&Pit::empty(), &c1, &u, &none);
        let step2 = extend_all(step1, &c2, &u, &none);
        assert_eq!(step2.len(), 4);
    }
}
