//! Micro-benchmarks of the partial-isomorphism-type machinery: building
//! the expression universe, closing types, evaluating conditions and the
//! implication test.
//!
//! The `state_type_*` benches time the calls the search makes on every
//! successor: re-closing a populated state type (`PitBuilder::from_pit`)
//! and extending it by a one-edge condition (`eval_extensions`) the type
//! neither holds nor contradicts, holds, or contradicts — one bench per
//! path `eval_extensions` takes.
//!
//! The `flow_network_*` and `covers_subsumption_*` benches time the ≼ test
//! (Definition 22) on counter vectors that no early exit settles — not
//! the totals, not the identity mapping, not one type's reachability —
//! so every iteration routes flow through the network.

use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::{BTreeSet, HashSet};
use verifas_core::coverage::flow_feasible;
use verifas_core::{
    covers, eval::compile_condition, eval::eval_extensions, CoverageKind, ExprUniverse, Pit,
    PitBuilder, Psi, StateView, StoredTypeId, StoredTypeInterner, SymbolicTask,
};
use verifas_model::{ArtRelId, Condition, DataValue, Term, VarId, VarRef};
use verifas_workloads::order_fulfillment;

/// The largest state type within three service applications of the
/// initial types of `order_fulfillment`'s root task.
fn populated_state_type(task: &SymbolicTask) -> Pit {
    let mut interner = StoredTypeInterner::new();
    let mut frontier: Vec<Psi> = task.initial_pits().into_iter().map(Psi::with_pit).collect();
    let mut largest = Pit::empty();
    for _ in 0..3 {
        let mut next = Vec::new();
        for psi in &frontier {
            for (_, succ) in task.successors(psi, &mut interner) {
                if succ.pit.edge_count() > largest.edge_count() {
                    largest = succ.pit.clone();
                }
                next.push(succ);
            }
        }
        frontier = next;
    }
    largest
}

fn bench_pit_ops(c: &mut Criterion) {
    let spec = order_fulfillment();
    let constants: BTreeSet<DataValue> = ["Init", "OrderPlaced", "Passed", "Failed", "Yes", "No"]
        .iter()
        .map(|s| DataValue::str(*s))
        .collect();
    let universe = ExprUniverse::build(&spec, spec.root(), &[], &constants);
    c.bench_function("expr_universe_build", |b| {
        b.iter(|| ExprUniverse::build(&spec, spec.root(), &[], &constants))
    });
    let status = universe.var_expr(VarRef::Task(VarId::new(2))).unwrap();
    let init = universe.const_expr(&DataValue::str("Init")).unwrap();
    c.bench_function("pit_close_and_canonicalize", |b| {
        b.iter(|| {
            let mut builder = PitBuilder::new(&universe);
            builder.assert_eq(status, init);
            builder.assert_neq(
                universe.var_expr(VarRef::Task(VarId::new(0))).unwrap(),
                universe.null_expr(),
            );
            builder.finish().unwrap()
        })
    });
    let cond = Condition::or([
        Condition::eq(Term::var(VarId::new(2)), Term::str("Init")),
        Condition::eq(Term::var(VarId::new(2)), Term::str("Passed")),
    ]);
    let compiled = compile_condition(&cond, &universe);
    let none = HashSet::new();
    c.bench_function("eval_extensions", |b| {
        b.iter(|| eval_extensions(&Pit::empty(), &compiled, &universe, &none))
    });
    let mut builder = PitBuilder::new(&universe);
    builder.assert_eq(status, init);
    let strong = builder.finish().unwrap();
    c.bench_function("pit_implies", |b| b.iter(|| strong.implies(&Pit::empty())));

    let task = SymbolicTask::new(&spec, spec.root(), &[], &[], true);
    let state = populated_state_type(&task);
    assert!(state.edge_count() > 0);
    c.bench_function("state_type_from_pit", |b| {
        b.iter(|| PitBuilder::from_pit(&task.universe, &state).finish())
    });
    // `eval_extensions` settles a conjunct the state type holds or
    // contradicts without a closure; the setup asserts which path each
    // bench times.
    let one_edge_on = |cond: &Condition| {
        let compiled = compile_condition(cond, &task.universe);
        assert_eq!(compiled.conjuncts.len(), 1);
        assert_eq!(compiled.conjuncts[0].len(), 1);
        let edge = compiled.conjuncts[0][0];
        (compiled, edge)
    };
    let status = Term::var(VarId::new(2));
    let instock = Term::var(VarId::new(3));
    // Neither held nor contradicted, and consistent with the state type,
    // so every iteration runs the full re-close, assert and finish.
    let (built, edge) = one_edge_on(&Condition::neq(status, Term::str("Passed")));
    assert!(!state.contains(edge) && !state.contains(edge.complement()));
    assert!(!eval_extensions(&state, &built, &task.universe, &none).is_empty());
    c.bench_function("state_type_eval_one_edge", |b| {
        b.iter(|| eval_extensions(&state, &built, &task.universe, &none))
    });
    let (held, edge) = one_edge_on(&Condition::eq(instock.clone(), Term::str("No")));
    assert!(state.contains(edge));
    c.bench_function("state_type_eval_held", |b| {
        b.iter(|| eval_extensions(&state, &held, &task.universe, &none))
    });
    let (contradicted, edge) = one_edge_on(&Condition::neq(instock, Term::str("No")));
    assert!(state.contains(edge.complement()));
    c.bench_function("state_type_eval_contradicted", |b| {
        b.iter(|| eval_extensions(&state, &contradicted, &task.universe, &none))
    });
}

/// Counter vectors over stored `ORDERS` tuple types of
/// `order_fulfillment`: any tuple (`τa`), and tuples whose status is
/// `Init` (`τb`), `Passed` (`τc`) or `Failed` (`τx`).  `τb` and `τc` imply
/// only `τa` and themselves.  The left side `{τb: 2, τc: 2}` fits into
/// `fits` and not into `overflows`, where `τb` and `τc` together reach
/// only 3 of the 4 slots they need.
struct FlowNetworks {
    interner: StoredTypeInterner,
    left: Vec<(StoredTypeId, u32)>,
    fits: Vec<(StoredTypeId, u32)>,
    overflows: Vec<(StoredTypeId, u32)>,
}

fn flow_networks(task: &SymbolicTask) -> FlowNetworks {
    let orders = ArtRelId::new(0);
    let status = task.universe.slot_expr(orders, 2).unwrap();
    let with_status = |name: &str| {
        let mut builder = PitBuilder::new(&task.universe);
        builder.assert_eq(
            status,
            task.universe.const_expr(&DataValue::str(name)).unwrap(),
        );
        builder.finish().unwrap()
    };
    let mut interner = StoredTypeInterner::new();
    let any = interner.intern(orders, Pit::empty());
    let init = interner.intern(orders, with_status("Init"));
    let passed = interner.intern(orders, with_status("Passed"));
    let failed = interner.intern(orders, with_status("Failed"));
    FlowNetworks {
        interner,
        left: vec![(init, 2), (passed, 2)],
        fits: vec![(any, 2), (init, 1), (passed, 1), (failed, 1)],
        overflows: vec![(any, 1), (init, 1), (passed, 1), (failed, 2)],
    }
}

/// Asserts that `flow_feasible(left, right)` passes its three early
/// exits: the totals allow it, the identity mapping does not place
/// every tuple, and every left type alone fits into what it reaches.
fn assert_network_case(
    left: &[(StoredTypeId, u32)],
    right: &[(StoredTypeId, u32)],
    interner: &StoredTypeInterner,
) {
    let total = |entries: &[(StoredTypeId, u32)]| entries.iter().map(|e| e.1).sum::<u32>();
    assert!(total(left) <= total(right));
    let count = |id| right.iter().find(|e| e.0 == id).map_or(0, |e| e.1);
    assert!(left.iter().any(|&(id, c)| c > count(id)));
    for entry in left {
        assert!(flow_feasible(&[*entry], right, interner, 0));
    }
}

fn bench_coverage(c: &mut Criterion) {
    let spec = order_fulfillment();
    let task = SymbolicTask::new(&spec, spec.root(), &[], &[], true);
    let FlowNetworks {
        interner,
        left,
        fits,
        overflows,
    } = flow_networks(&task);
    assert_network_case(&left, &fits, &interner);
    assert_network_case(&left, &overflows, &interner);
    assert!(flow_feasible(&left, &fits, &interner, 0));
    assert!(!flow_feasible(&left, &overflows, &interner, 0));
    c.bench_function("flow_network_feasible", |b| {
        b.iter(|| flow_feasible(&left, &fits, &interner, 0))
    });
    c.bench_function("flow_network_infeasible", |b| {
        b.iter(|| flow_feasible(&left, &overflows, &interner, 0))
    });
    // A populated state type implies the empty one, so the counters
    // decide both coverage tests.
    let state = populated_state_type(&task);
    let empty = Pit::empty();
    assert!(state.implies(&empty));
    let view = |pit, counters| StateView {
        pit,
        counters,
        child_active: 0,
        buchi: 0,
        closed: false,
    };
    let covered = view(&state, &left);
    let (hit, miss) = (view(&empty, &fits), view(&empty, &overflows));
    let subsumption = CoverageKind::Subsumption;
    assert!(covers(subsumption, covered, hit, &interner));
    assert!(!covers(subsumption, covered, miss, &interner));
    c.bench_function("covers_subsumption_hit", |b| {
        b.iter(|| covers(subsumption, covered, hit, &interner))
    });
    c.bench_function("covers_subsumption_miss", |b| {
        b.iter(|| covers(subsumption, covered, miss, &interner))
    });
}

criterion_group!(benches, bench_pit_ops, bench_coverage);
criterion_main!(benches);
