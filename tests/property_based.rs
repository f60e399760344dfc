//! Randomised tests over the symbolic machinery using generated synthetic
//! specifications and LTL templates.
//!
//! Written as plain seeded loops (the build environment cannot fetch
//! `proptest`); the seeds sweep the same space the original property-based
//! tests explored.

use verifas::prelude::*;
use verifas::workloads::{cyclomatic_complexity, generate, generate_properties, SyntheticParams};

/// A tiny deterministic generator (seeded-loop style, standing in for
/// proptest) used to assemble random batch mixes.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self, bound: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) as usize) % bound.max(1)
    }
}

/// Generated specifications validate, have non-negative complexity and
/// every template property is accepted by the verifier front-end.
#[test]
fn synthetic_specs_are_well_formed() {
    for seed in 0u64..60 {
        if let Some(spec) = generate(SyntheticParams::small(), seed) {
            assert!(spec.validate().is_ok(), "seed {seed}");
            assert!(cyclomatic_complexity(&spec) >= 0, "seed {seed}");
            let properties = generate_properties(&spec, seed);
            assert_eq!(properties.len(), 12, "seed {seed}");
            for p in &properties {
                assert!(p.validate(&spec).is_ok(), "seed {seed} / {}", p.name);
            }
        }
    }
}

/// Disabling optimizations never changes a definite verdict (the
/// optimizations are pure pruning).
#[test]
fn ablation_preserves_verdicts() {
    let limits = SearchLimits {
        max_states: 2_000,
        max_millis: 500,
    };
    let mut checked = 0;
    for seed in 0u64..12 {
        let Some(spec) = generate(SyntheticParams::small(), seed) else {
            continue;
        };
        let prop_index = (seed as usize * 5) % 12;
        let property = generate_properties(&spec, seed).swap_remove(prop_index);
        let engine = Engine::load(spec.clone()).unwrap();
        let run = |options: VerifierOptions| {
            let mut options = options;
            options.limits = limits;
            engine
                .verification()
                .property(&property)
                .options(options)
                .run()
                .unwrap()
                .outcome
        };
        let default = run(VerifierOptions::default());
        let no_sp = run(VerifierOptions::default().without("SP"));
        if default != VerificationOutcome::Inconclusive
            && no_sp != VerificationOutcome::Inconclusive
        {
            assert_eq!(default, no_sp, "seed {seed} / {}", property.name);
            checked += 1;
        }
    }
    assert!(checked > 0, "no definite verdict pair was ever produced");
}

/// Randomly skewed batches through the sharded scheduler match
/// independent sequential `check` calls property for property.
///
/// The mixes deliberately repeat properties (the scheduler must not
/// conflate equal-keyed work), interleave heavy and light searches in
/// random order, and run under random core budgets — the shapes that
/// would shake out a budget race between the scheduler's rebalancing and
/// the searches polling their budgets at round boundaries.
#[test]
fn random_skewed_batches_match_independent_checks() {
    let limits = SearchLimits {
        max_states: 300,
        max_millis: 600_000,
    };
    let mut batches = 0;
    for seed in 0u64..10 {
        let Some(spec) = generate(SyntheticParams::small(), seed) else {
            continue;
        };
        let engine = Engine::load_with_options(
            spec.clone(),
            VerifierOptions {
                limits,
                ..VerifierOptions::default()
            },
        )
        .unwrap();
        let pool = generate_properties(&spec, seed);
        let mut rng = Lcg(seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1));
        let mix: Vec<LtlFoProperty> = (0..4 + rng.next(5))
            .map(|_| pool[rng.next(pool.len())].clone())
            .collect();
        let batch_threads = 1 + rng.next(4);
        let expected: Vec<_> = mix
            .iter()
            .map(|p| {
                let report = engine.check(p).unwrap();
                (report.outcome, report.witness, report.stats.states_created)
            })
            .collect();
        let batched = engine.check_all_with(&mix, BatchOptions { batch_threads });
        for (i, report) in batched.iter().enumerate() {
            let report = report.as_ref().unwrap();
            assert_eq!(
                (
                    report.outcome,
                    report.witness.clone(),
                    report.stats.states_created
                ),
                expected[i],
                "seed {seed} / property {i} ({}) under batch_threads={batch_threads}",
                mix[i].name
            );
        }
        batches += 1;
    }
    assert!(batches > 0, "no synthetic spec was ever generated");
}

/// An independent oracle for [`PitBuilder`]: a naive fixpoint closure over
/// explicit class labels (no union-find), compared edge for edge with
/// `finish()` on seeded random `=`/`≠` assertion sets.  Every fuzz arm
/// shares the builder, so only a second implementation can catch a
/// closure bug common to all of them.
mod closure_oracle {
    use super::Lcg;
    use std::collections::BTreeSet;
    use verifas::core::{spec_constants, Edge, ExprId, ExprSort, ExprUniverse, Pit, PitBuilder};
    use verifas::model::schema::attr::data;
    use verifas::model::{Condition, DataValue, DatabaseSchema, SpecBuilder, TaskBuilder, Term};
    use verifas::workloads::order_fulfillment;

    /// One assertion: `(a, b, is_neq)`.
    type Assertion = (ExprId, ExprId, bool);

    /// Example 18 of the paper: R(ID, A) with `x`, `y`, `z` of type R.ID,
    /// plus two data constants.
    fn example18() -> ExprUniverse {
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
        ExprUniverse::build(&spec, spec.root(), &[], &consts)
    }

    /// The root universe of the paper's running example: foreign-key
    /// navigation two levels deep, the `ORDERS` artifact-relation slots,
    /// every constant of the specification and `null`.
    fn order_fulfillment_root() -> ExprUniverse {
        let spec = order_fulfillment();
        ExprUniverse::build(&spec, spec.root(), &[], &spec_constants(&spec))
    }

    /// The naive closure: `None` if inconsistent, else the closed edges
    /// and whether navigation congruence derived any equality.
    fn naive_closure(u: &ExprUniverse, assertions: &[Assertion]) -> Option<(Vec<Edge>, bool)> {
        let n = u.len();
        let mut class: Vec<usize> = (0..n).collect();
        let relabel = |class: &mut Vec<usize>, a: usize, b: usize| {
            let (from, to) = (class[b], class[a]);
            if from == to {
                return false;
            }
            for c in class.iter_mut() {
                if *c == from {
                    *c = to;
                }
            }
            true
        };
        for &(a, b, neq) in assertions {
            if !neq {
                relabel(&mut class, a as usize, b as usize);
            }
        }
        // Navigation congruence to a fixpoint: equal expressions have
        // equal children under every attribute both of them have.
        let mut congruent = false;
        loop {
            let mut changed = false;
            for p in 0..n {
                for q in p + 1..n {
                    if class[p] != class[q] {
                        continue;
                    }
                    for &(attr_p, child_p) in &u.expr(p as ExprId).children {
                        for &(attr_q, child_q) in &u.expr(q as ExprId).children {
                            if attr_p == attr_q {
                                changed |= relabel(&mut class, child_p as usize, child_q as usize);
                            }
                        }
                    }
                }
            }
            if !changed {
                break;
            }
            congruent = true;
        }
        for p in 0..n {
            for q in p + 1..n {
                if class[p] != class[q] {
                    continue;
                }
                let (sp, sq) = (u.expr(p as ExprId).sort, u.expr(q as ExprId).sort);
                let constant = |s: ExprSort| matches!(s, ExprSort::Null | ExprSort::DataConst);
                // Two distinct constants, or null with a constant.
                if constant(sp) && constant(sq) {
                    return None;
                }
                // An ID can be null but never a data constant.
                if matches!(
                    (sp, sq),
                    (ExprSort::Id(_), ExprSort::DataConst) | (ExprSort::DataConst, ExprSort::Id(_))
                ) {
                    return None;
                }
            }
        }
        let mut edges = BTreeSet::new();
        for p in 0..n {
            for q in p + 1..n {
                if class[p] == class[q] {
                    edges.insert(Edge::eq(p as ExprId, q as ExprId));
                }
            }
        }
        for &(a, b, neq) in assertions {
            if !neq {
                continue;
            }
            let (ca, cb) = (class[a as usize], class[b as usize]);
            if ca == cb {
                return None;
            }
            // `≠` spreads to the whole classes.
            for p in (0..n).filter(|&p| class[p] == ca) {
                for q in (0..n).filter(|&q| class[q] == cb) {
                    edges.insert(Edge::neq(p as ExprId, q as ExprId));
                }
            }
        }
        Some((edges.into_iter().collect(), congruent))
    }

    fn build(u: &ExprUniverse, assertions: &[Assertion]) -> Option<Pit> {
        let mut builder = PitBuilder::new(u);
        for &(a, b, neq) in assertions {
            if neq {
                builder.assert_neq(a, b);
            } else {
                builder.assert_eq(a, b);
            }
        }
        builder.finish()
    }

    /// A seeded assertion set.  Three in four partners share the first
    /// expression's domain (or are `null`), so most sets stay consistent
    /// long enough for congruence to matter.
    fn random_assertions(u: &ExprUniverse, rng: &mut Lcg) -> Vec<Assertion> {
        let n = u.len();
        let domain = |id: usize| match u.expr(id as ExprId).sort {
            ExprSort::Id(rel) => Some(rel),
            _ => None,
        };
        (0..1 + rng.next(7))
            .map(|_| {
                let a = rng.next(n);
                let b = if rng.next(4) == 0 {
                    rng.next(n)
                } else {
                    let partners: Vec<usize> = (0..n)
                        .filter(|&b| domain(b) == domain(a) || b == u.null_expr() as usize)
                        .collect();
                    partners[rng.next(partners.len())]
                };
                (a as ExprId, b as ExprId, rng.next(3) == 0)
            })
            .collect()
    }

    fn check_universe(name: &str, u: &ExprUniverse, seeds: u64) {
        let (mut consistent, mut inconsistent, mut congruent) = (0, 0, 0);
        for seed in 0..seeds {
            let mut rng = Lcg(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(7));
            let assertions = random_assertions(u, &mut rng);
            let got = build(u, &assertions);
            let expected = naive_closure(u, &assertions);
            assert_eq!(
                got.as_ref().map(|p| p.edges()),
                expected.as_ref().map(|(edges, _)| edges.as_slice()),
                "{name} seed {seed}: {assertions:?}"
            );
            // The assertion order never matters.
            let mut shuffled = assertions.clone();
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, rng.next(i + 1));
            }
            assert_eq!(build(u, &shuffled), got, "{name} seed {seed} shuffled");
            let Some(pit) = got else {
                inconsistent += 1;
                continue;
            };
            consistent += 1;
            if expected.is_some_and(|(_, derived)| derived) {
                congruent += 1;
            }
            // Re-closing a closed type is the identity.
            assert_eq!(
                PitBuilder::from_pit(u, &pit).finish().as_ref(),
                Some(&pit),
                "{name} seed {seed}: from_pit"
            );
        }
        assert!(
            consistent > seeds / 4 && inconsistent > seeds / 20 && congruent > seeds / 20,
            "{name}: weak sample ({consistent} consistent, {inconsistent} inconsistent, \
             {congruent} with congruence-derived equalities)"
        );
    }

    #[test]
    fn builder_matches_naive_closure_on_example18() {
        check_universe("example18", &example18(), 2_000);
    }

    #[test]
    fn builder_matches_naive_closure_on_order_fulfillment() {
        let u = order_fulfillment_root();
        assert!(u.iter().any(|(_, e)| e.children.len() > 1));
        check_universe("order_fulfillment", &u, 2_000);
    }
}
