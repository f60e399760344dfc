//! Micro-benchmarks of the partial-isomorphism-type machinery: building
//! the expression universe, closing types, evaluating conditions and the
//! implication test.
//!
//! The `state_type_*` benches time the calls the search makes on every
//! successor: re-closing a populated state type (`PitBuilder::from_pit`)
//! and extending it by a one-edge condition (`eval_extensions`) the type
//! neither holds nor contradicts, holds, or contradicts — one bench per
//! path `eval_extensions` takes.

use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::{BTreeSet, HashSet};
use verifas_core::{
    eval::compile_condition, eval::eval_extensions, ExprUniverse, Pit, PitBuilder, Psi,
    StoredTypeInterner, SymbolicTask,
};
use verifas_model::{Condition, DataValue, Term, VarId, VarRef};
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

criterion_group!(benches, bench_pit_ops);
criterion_main!(benches);
