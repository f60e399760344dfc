//! The "real" workflow set: HAS\* specifications modelled on the kinds of
//! business processes the paper rewrote from bpmn.org (Section 4.1).
//!
//! The flagship specification is the order-fulfillment workflow of the
//! paper's running example (Appendix B), reproduced faithfully: a
//! `ProcessOrders` root coordinating `TakeOrder`, `CheckCredit`, `Restock`
//! and `ShipItem` stages over a `CUSTOMERS`/`ITEMS`/`CREDIT_RECORD`
//! database and an `ORDERS` artifact relation.  Seven further hand-written
//! workflows cover the same structural range (hierarchies of depth 2,
//! artifact relations used as work pools, foreign-key navigation in
//! conditions).  [`real_workflows`] expands the eight base processes into a
//! set of 32 specifications through systematic variants, mirroring the
//! size of the paper's real set (see `docs/ARCHITECTURE.md`,
//! "Substitutions for the paper's artefacts").

use verifas_model::schema::attr::{data, fk};
use verifas_model::{
    Condition, DatabaseSchema, HasSpec, InternalService, SpecBuilder, Task, TaskBuilder, Term,
    Update,
};

/// The order fulfillment workflow of the paper's running example
/// (Appendix B).
pub fn order_fulfillment() -> HasSpec {
    let mut db = DatabaseSchema::new();
    let credit = db
        .add_relation("CREDIT_RECORD", vec![data("status")])
        .unwrap();
    let customers = db
        .add_relation(
            "CUSTOMERS",
            vec![data("name"), data("address"), fk("record", credit)],
        )
        .unwrap();
    let items = db
        .add_relation("ITEMS", vec![data("item_name"), data("price")])
        .unwrap();

    // Root task: ProcessOrders.
    let mut root = TaskBuilder::new("ProcessOrders");
    let cust_id = root.id_var("cust_id", customers);
    let item_id = root.id_var("item_id", items);
    let status = root.data_var("status");
    let instock = root.data_var("instock");
    let orders = root.art_relation_like("ORDERS", &[cust_id, item_id, status, instock]);
    root.service_parts(
        "Initialize",
        Condition::and([
            Condition::eq(Term::var(status), Term::Null),
            Condition::eq(Term::var(cust_id), Term::Null),
        ]),
        Condition::and([
            Condition::eq(Term::var(cust_id), Term::Null),
            Condition::eq(Term::var(item_id), Term::Null),
            Condition::eq(Term::var(status), Term::str("Init")),
        ]),
        vec![],
        None,
    );
    root.service_parts(
        "StoreOrder",
        Condition::and([
            Condition::neq(Term::var(cust_id), Term::Null),
            Condition::neq(Term::var(item_id), Term::Null),
            Condition::neq(Term::var(status), Term::str("Failed")),
        ]),
        Condition::and([
            Condition::eq(Term::var(cust_id), Term::Null),
            Condition::eq(Term::var(item_id), Term::Null),
            Condition::eq(Term::var(status), Term::str("Init")),
        ]),
        vec![],
        Some(Update::Insert {
            rel: orders,
            vars: vec![cust_id, item_id, status, instock],
        }),
    );
    root.service_parts(
        "RetrieveOrder",
        Condition::and([
            Condition::eq(Term::var(cust_id), Term::Null),
            Condition::eq(Term::var(item_id), Term::Null),
        ]),
        Condition::True,
        vec![],
        Some(Update::Retrieve {
            rel: orders,
            vars: vec![cust_id, item_id, status, instock],
        }),
    );
    let mut builder = SpecBuilder::new("order-fulfillment", db, root.build());
    builder.global_pre(Condition::and([
        Condition::eq(Term::var(cust_id), Term::Null),
        Condition::eq(Term::var(item_id), Term::Null),
        Condition::eq(Term::var(status), Term::Null),
        Condition::eq(Term::var(instock), Term::Null),
    ]));

    // TakeOrder: the customer enters the order; the supplier sets instock.
    let mut take = TaskBuilder::new("TakeOrder");
    let t_cust = take.id_var("cust_id", customers);
    let t_item = take.id_var("item_id", items);
    let t_status = take.data_var("status");
    let t_instock = take.data_var("instock");
    let t_name = take.data_var("scratch_name");
    let t_addr = take.data_var("scratch_addr");
    let t_rec = take.id_var("scratch_record", credit);
    let t_iname = take.data_var("scratch_item_name");
    let t_price = take.data_var("scratch_price");
    take.outputs([t_cust, t_item, t_status, t_instock]);
    take.opening_pre(Condition::eq(Term::var(status), Term::str("Init")));
    take.closing_pre(Condition::and([
        Condition::neq(Term::var(t_cust), Term::Null),
        Condition::neq(Term::var(t_item), Term::Null),
    ]));
    take.service_parts(
        "EnterCustomer",
        Condition::True,
        Condition::and([
            Condition::Rel {
                rel: customers,
                id: Term::var(t_cust),
                args: vec![Term::var(t_name), Term::var(t_addr), Term::var(t_rec)],
            },
            Condition::implies(
                Condition::and([
                    Condition::neq(Term::var(t_cust), Term::Null),
                    Condition::neq(Term::var(t_item), Term::Null),
                ]),
                Condition::eq(Term::var(t_status), Term::str("OrderPlaced")),
            ),
            Condition::implies(
                Condition::or([
                    Condition::eq(Term::var(t_cust), Term::Null),
                    Condition::eq(Term::var(t_item), Term::Null),
                ]),
                Condition::eq(Term::var(t_status), Term::Null),
            ),
        ]),
        vec![t_instock, t_item],
        None,
    );
    take.service_parts(
        "EnterItem",
        Condition::True,
        Condition::and([
            Condition::Rel {
                rel: items,
                id: Term::var(t_item),
                args: vec![Term::var(t_iname), Term::var(t_price)],
            },
            Condition::or([
                Condition::eq(Term::var(t_instock), Term::str("Yes")),
                Condition::eq(Term::var(t_instock), Term::str("No")),
            ]),
            Condition::implies(
                Condition::and([
                    Condition::neq(Term::var(t_cust), Term::Null),
                    Condition::neq(Term::var(t_item), Term::Null),
                ]),
                Condition::eq(Term::var(t_status), Term::str("OrderPlaced")),
            ),
        ]),
        vec![t_cust],
        None,
    );
    builder.add_child("ProcessOrders", take.build()).unwrap();

    // CheckCredit: checks the customer's credit record via the foreign key.
    let mut check = TaskBuilder::new("CheckCredit");
    let c_cust = check.id_var("cust_id", customers);
    let c_record = check.id_var("record", credit);
    let c_status = check.data_var("status");
    let c_name = check.data_var("scratch_name");
    let c_addr = check.data_var("scratch_addr");
    check.inputs([c_cust]);
    check.outputs([c_status]);
    check.opening_pre(Condition::eq(Term::var(status), Term::str("OrderPlaced")));
    check.closing_pre(Condition::or([
        Condition::eq(Term::var(c_status), Term::str("Passed")),
        Condition::eq(Term::var(c_status), Term::str("Failed")),
    ]));
    check.service_parts(
        "Check",
        Condition::True,
        Condition::and([
            Condition::Rel {
                rel: customers,
                id: Term::var(c_cust),
                args: vec![Term::var(c_name), Term::var(c_addr), Term::var(c_record)],
            },
            Condition::implies(
                Condition::Rel {
                    rel: credit,
                    id: Term::var(c_record),
                    args: vec![Term::str("Good")],
                },
                Condition::eq(Term::var(c_status), Term::str("Passed")),
            ),
            Condition::implies(
                Condition::not(Condition::Rel {
                    rel: credit,
                    id: Term::var(c_record),
                    args: vec![Term::str("Good")],
                }),
                Condition::eq(Term::var(c_status), Term::str("Failed")),
            ),
        ]),
        vec![c_cust],
        None,
    );
    builder.add_child("ProcessOrders", check.build()).unwrap();

    // Restock: procures an out-of-stock item.
    let mut restock = TaskBuilder::new("Restock");
    let r_item = restock.id_var("item_id", items);
    let r_instock = restock.data_var("instock");
    restock.inputs([r_item]);
    restock.outputs([r_instock]);
    restock.opening_pre(Condition::eq(Term::var(instock), Term::str("No")));
    restock.closing_pre(Condition::eq(Term::var(r_instock), Term::str("Yes")));
    restock.service_parts(
        "Procure",
        Condition::True,
        Condition::or([
            Condition::eq(Term::var(r_instock), Term::str("Yes")),
            Condition::eq(Term::var(r_instock), Term::str("No")),
        ]),
        vec![r_item],
        None,
    );
    builder.add_child("ProcessOrders", restock.build()).unwrap();

    // ShipItem: ships once credit passed and the item is in stock.
    let mut ship = TaskBuilder::new("ShipItem");
    let s_item = ship.id_var("item_id", items);
    let s_status = ship.data_var("status");
    ship.inputs([s_item]);
    ship.outputs([s_status]);
    ship.opening_pre(Condition::and([
        Condition::eq(Term::var(status), Term::str("Passed")),
        Condition::eq(Term::var(instock), Term::str("Yes")),
    ]));
    ship.closing_pre(Condition::or([
        Condition::eq(Term::var(s_status), Term::str("Shipped")),
        Condition::eq(Term::var(s_status), Term::str("Failed")),
    ]));
    ship.service_parts(
        "Ship",
        Condition::True,
        Condition::or([
            Condition::eq(Term::var(s_status), Term::str("Shipped")),
            Condition::eq(Term::var(s_status), Term::str("Failed")),
        ]),
        vec![s_item],
        None,
    );
    builder.add_child("ProcessOrders", ship.build()).unwrap();

    builder
        .build()
        .expect("order fulfillment specification is well-formed")
}

/// A buggy variant of [`order_fulfillment`] in which `ShipItem` can open
/// without checking `instock`, violating property (†) of the paper — used
/// by tests and the counterexample example.
pub fn order_fulfillment_buggy() -> HasSpec {
    let mut spec = order_fulfillment();
    let (ship_id, _) = spec.task_by_name("ShipItem").unwrap();
    let parent_status = spec
        .task_by_name("ProcessOrders")
        .unwrap()
        .1
        .var_by_name("status")
        .unwrap()
        .0;
    // Drop the instock = "Yes" conjunct from the opening guard.
    spec.tasks[ship_id.index()].opening.pre =
        Condition::eq(Term::var(parent_status), Term::str("Passed"));
    spec.name = "order-fulfillment-buggy".into();
    spec
}

/// A two-stage loan approval process: applications are pooled, assessed by
/// a `Review` subtask against the applicant's credit file, then archived.
pub fn loan_approval() -> HasSpec {
    let mut db = DatabaseSchema::new();
    let bureau = db.add_relation("BUREAU", vec![data("rating")]).unwrap();
    let applicants = db
        .add_relation("APPLICANTS", vec![data("name"), fk("file", bureau)])
        .unwrap();
    let mut root = TaskBuilder::new("LoanDesk");
    let applicant = root.id_var("applicant", applicants);
    let decision = root.data_var("decision");
    let stage = root.data_var("stage");
    let pool = root.art_relation_like("APPLICATIONS", &[applicant, stage]);
    root.service_parts(
        "Receive",
        Condition::eq(Term::var(applicant), Term::Null),
        Condition::and([
            Condition::neq(Term::var(applicant), Term::Null),
            Condition::eq(Term::var(stage), Term::str("Received")),
            Condition::eq(Term::var(decision), Term::Null),
        ]),
        vec![],
        None,
    );
    root.service_parts(
        "Queue",
        Condition::eq(Term::var(stage), Term::str("Received")),
        Condition::and([
            Condition::eq(Term::var(applicant), Term::Null),
            Condition::eq(Term::var(stage), Term::Null),
        ]),
        vec![],
        Some(Update::Insert {
            rel: pool,
            vars: vec![applicant, stage],
        }),
    );
    root.service_parts(
        "Dequeue",
        Condition::eq(Term::var(applicant), Term::Null),
        Condition::True,
        vec![],
        Some(Update::Retrieve {
            rel: pool,
            vars: vec![applicant, stage],
        }),
    );
    root.service_parts(
        "Archive",
        Condition::or([
            Condition::eq(Term::var(decision), Term::str("Approved")),
            Condition::eq(Term::var(decision), Term::str("Rejected")),
        ]),
        Condition::and([
            Condition::eq(Term::var(applicant), Term::Null),
            Condition::eq(Term::var(decision), Term::Null),
            Condition::eq(Term::var(stage), Term::Null),
        ]),
        vec![],
        None,
    );
    let mut builder = SpecBuilder::new("loan-approval", db, root.build());
    builder.global_pre(Condition::and([
        Condition::eq(Term::var(applicant), Term::Null),
        Condition::eq(Term::var(decision), Term::Null),
        Condition::eq(Term::var(stage), Term::Null),
    ]));
    let mut review = TaskBuilder::new("Review");
    let r_app = review.id_var("applicant", applicants);
    let r_file = review.id_var("file", bureau);
    let r_name = review.data_var("scratch_name");
    let r_decision = review.data_var("decision");
    review.inputs([r_app]);
    review.outputs([r_decision]);
    review.opening_pre(Condition::and([
        Condition::neq(Term::var(applicant), Term::Null),
        Condition::eq(Term::var(decision), Term::Null),
    ]));
    review.closing_pre(Condition::neq(Term::var(r_decision), Term::Null));
    review.service_parts(
        "Assess",
        Condition::True,
        Condition::and([
            Condition::Rel {
                rel: applicants,
                id: Term::var(r_app),
                args: vec![Term::var(r_name), Term::var(r_file)],
            },
            Condition::implies(
                Condition::Rel {
                    rel: bureau,
                    id: Term::var(r_file),
                    args: vec![Term::str("Prime")],
                },
                Condition::eq(Term::var(r_decision), Term::str("Approved")),
            ),
            Condition::implies(
                Condition::not(Condition::Rel {
                    rel: bureau,
                    id: Term::var(r_file),
                    args: vec![Term::str("Prime")],
                }),
                Condition::or([
                    Condition::eq(Term::var(r_decision), Term::str("Rejected")),
                    Condition::eq(Term::var(r_decision), Term::str("Approved")),
                ]),
            ),
        ]),
        vec![r_app],
        None,
    );
    builder.add_child("LoanDesk", review.build()).unwrap();
    builder
        .build()
        .expect("loan approval specification is well-formed")
}

/// Insurance claim handling: claims are registered, triaged, optionally
/// inspected, then settled or denied.
pub fn insurance_claim() -> HasSpec {
    let mut db = DatabaseSchema::new();
    let policies = db.add_relation("POLICIES", vec![data("coverage")]).unwrap();
    let holders = db
        .add_relation("HOLDERS", vec![data("name"), fk("policy", policies)])
        .unwrap();
    let mut root = TaskBuilder::new("ClaimsDesk");
    let holder = root.id_var("holder", holders);
    let severity = root.data_var("severity");
    let outcome = root.data_var("outcome");
    let claims = root.art_relation_like("CLAIMS", &[holder, severity]);
    root.service_parts(
        "Register",
        Condition::eq(Term::var(holder), Term::Null),
        Condition::and([
            Condition::neq(Term::var(holder), Term::Null),
            Condition::or([
                Condition::eq(Term::var(severity), Term::str("Minor")),
                Condition::eq(Term::var(severity), Term::str("Major")),
            ]),
            Condition::eq(Term::var(outcome), Term::Null),
        ]),
        vec![],
        None,
    );
    root.service_parts(
        "Park",
        Condition::neq(Term::var(holder), Term::Null),
        Condition::and([
            Condition::eq(Term::var(holder), Term::Null),
            Condition::eq(Term::var(severity), Term::Null),
            Condition::eq(Term::var(outcome), Term::Null),
        ]),
        vec![],
        Some(Update::Insert {
            rel: claims,
            vars: vec![holder, severity],
        }),
    );
    root.service_parts(
        "Resume",
        Condition::eq(Term::var(holder), Term::Null),
        Condition::True,
        vec![],
        Some(Update::Retrieve {
            rel: claims,
            vars: vec![holder, severity],
        }),
    );
    root.service_parts(
        "CloseClaim",
        Condition::or([
            Condition::eq(Term::var(outcome), Term::str("Settled")),
            Condition::eq(Term::var(outcome), Term::str("Denied")),
        ]),
        Condition::and([
            Condition::eq(Term::var(holder), Term::Null),
            Condition::eq(Term::var(outcome), Term::Null),
            Condition::eq(Term::var(severity), Term::Null),
        ]),
        vec![],
        None,
    );
    let mut builder = SpecBuilder::new("insurance-claim", db, root.build());
    builder.global_pre(Condition::and([
        Condition::eq(Term::var(holder), Term::Null),
        Condition::eq(Term::var(severity), Term::Null),
        Condition::eq(Term::var(outcome), Term::Null),
    ]));
    // Inspection is required for major claims.
    let mut inspect = TaskBuilder::new("Inspect");
    let i_holder = inspect.id_var("holder", holders);
    let i_report = inspect.data_var("report");
    inspect.inputs([i_holder]);
    inspect.outputs([i_report]);
    inspect.opening_pre(Condition::eq(Term::var(severity), Term::str("Major")));
    inspect.closing_pre(Condition::or([
        Condition::eq(Term::var(i_report), Term::str("Confirmed")),
        Condition::eq(Term::var(i_report), Term::str("Fraudulent")),
    ]));
    inspect.service_parts(
        "Visit",
        Condition::True,
        Condition::or([
            Condition::eq(Term::var(i_report), Term::str("Confirmed")),
            Condition::eq(Term::var(i_report), Term::str("Fraudulent")),
        ]),
        vec![i_holder],
        None,
    );
    builder
        .add_child_with_maps(
            "ClaimsDesk",
            inspect.build(),
            Some(vec![("holder".into(), "holder".into())]),
            Some(vec![("report".into(), "outcome".into())]),
        )
        .unwrap();
    // Settlement decides the payout.
    let mut settle = TaskBuilder::new("Settle");
    let s_holder = settle.id_var("holder", holders);
    let s_policy = settle.id_var("policy", policies);
    let s_name = settle.data_var("scratch_name");
    let s_outcome = settle.data_var("outcome");
    settle.inputs([s_holder]);
    settle.outputs([s_outcome]);
    settle.opening_pre(Condition::neq(Term::var(holder), Term::Null));
    settle.closing_pre(Condition::neq(Term::var(s_outcome), Term::Null));
    settle.service_parts(
        "Decide",
        Condition::True,
        Condition::and([
            Condition::Rel {
                rel: holders,
                id: Term::var(s_holder),
                args: vec![Term::var(s_name), Term::var(s_policy)],
            },
            Condition::implies(
                Condition::Rel {
                    rel: policies,
                    id: Term::var(s_policy),
                    args: vec![Term::str("Full")],
                },
                Condition::eq(Term::var(s_outcome), Term::str("Settled")),
            ),
            Condition::implies(
                Condition::not(Condition::Rel {
                    rel: policies,
                    id: Term::var(s_policy),
                    args: vec![Term::str("Full")],
                }),
                Condition::or([
                    Condition::eq(Term::var(s_outcome), Term::str("Settled")),
                    Condition::eq(Term::var(s_outcome), Term::str("Denied")),
                ]),
            ),
        ]),
        vec![s_holder],
        None,
    );
    builder.add_child("ClaimsDesk", settle.build()).unwrap();
    builder
        .build()
        .expect("insurance claim specification is well-formed")
}

/// A simple single-variable process used as a template for several further
/// workflows: a status machine with a work pool and one review subtask.
fn staged_process(name: &str, stages: &[&str], reviewer: &str, verdicts: (&str, &str)) -> HasSpec {
    let mut db = DatabaseSchema::new();
    let catalog = db.add_relation("CATALOG", vec![data("kind")]).unwrap();
    let mut root = TaskBuilder::new("Coordinator");
    let item = root.id_var("item", catalog);
    let stage = root.data_var("stage");
    let verdict = root.data_var("verdict");
    let pool = root.art_relation_like("BACKLOG", &[item, stage]);
    // Stage progression services.
    root.service_parts(
        "Open",
        Condition::eq(Term::var(stage), Term::Null),
        Condition::and([
            Condition::neq(Term::var(item), Term::Null),
            Condition::eq(Term::var(stage), Term::str(stages[0])),
        ]),
        vec![],
        None,
    );
    for window in stages.windows(2) {
        root.service_parts(
            format!("Advance_{}_{}", window[0], window[1]),
            Condition::eq(Term::var(stage), Term::str(window[0])),
            Condition::eq(Term::var(stage), Term::str(window[1])),
            vec![],
            None,
        );
    }
    root.service_parts(
        "Defer",
        Condition::neq(Term::var(stage), Term::Null),
        Condition::and([
            Condition::eq(Term::var(stage), Term::Null),
            Condition::eq(Term::var(item), Term::Null),
        ]),
        vec![],
        Some(Update::Insert {
            rel: pool,
            vars: vec![item, stage],
        }),
    );
    root.service_parts(
        "Pick",
        Condition::eq(Term::var(stage), Term::Null),
        Condition::True,
        vec![],
        Some(Update::Retrieve {
            rel: pool,
            vars: vec![item, stage],
        }),
    );
    let mut builder = SpecBuilder::new(name, db, root.build());
    builder.global_pre(Condition::and([
        Condition::eq(Term::var(item), Term::Null),
        Condition::eq(Term::var(stage), Term::Null),
        Condition::eq(Term::var(verdict), Term::Null),
    ]));
    let mut review = TaskBuilder::new(reviewer);
    let r_item = review.id_var("item", catalog);
    let r_kind = review.data_var("scratch_kind");
    let r_verdict = review.data_var("verdict");
    review.inputs([r_item]);
    review.outputs([r_verdict]);
    review.opening_pre(Condition::eq(
        Term::var(stage),
        Term::str(stages[stages.len() - 1]),
    ));
    review.closing_pre(Condition::or([
        Condition::eq(Term::var(r_verdict), Term::str(verdicts.0)),
        Condition::eq(Term::var(r_verdict), Term::str(verdicts.1)),
    ]));
    review.service_parts(
        "Evaluate",
        Condition::True,
        Condition::and([
            Condition::Rel {
                rel: catalog,
                id: Term::var(r_item),
                args: vec![Term::var(r_kind)],
            },
            Condition::or([
                Condition::eq(Term::var(r_verdict), Term::str(verdicts.0)),
                Condition::eq(Term::var(r_verdict), Term::str(verdicts.1)),
            ]),
        ]),
        vec![r_item],
        None,
    );
    builder.add_child("Coordinator", review.build()).unwrap();
    builder
        .build()
        .expect("staged process specification is well-formed")
}

/// Travel booking: request, quote, book, then a confirmation subtask.
pub fn travel_booking() -> HasSpec {
    staged_process(
        "travel-booking",
        &["Requested", "Quoted", "Booked"],
        "Confirm",
        ("Confirmed", "Cancelled"),
    )
}

/// Support ticket handling: triage, work, then a resolution review.
pub fn support_ticket() -> HasSpec {
    staged_process(
        "support-ticket",
        &["New", "Triaged", "InProgress"],
        "Resolve",
        ("Resolved", "Escalated"),
    )
}

/// Invoice processing: capture, match, then an approval subtask.
pub fn invoice_processing() -> HasSpec {
    staged_process(
        "invoice-processing",
        &["Captured", "Matched"],
        "Approve",
        ("Paid", "Disputed"),
    )
}

/// Hiring pipeline: screen, interview, then an offer decision subtask.
pub fn hiring_pipeline() -> HasSpec {
    staged_process(
        "hiring-pipeline",
        &["Screened", "Interviewed", "Shortlisted"],
        "Offer",
        ("Hired", "Declined"),
    )
}

/// Procurement: requisition, tender, then an award decision subtask.
pub fn procurement() -> HasSpec {
    staged_process(
        "procurement",
        &["Requisitioned", "Tendered"],
        "Award",
        ("Awarded", "Abandoned"),
    )
}

/// The eight base real-style workflows.
pub fn base_workflows() -> Vec<HasSpec> {
    vec![
        order_fulfillment(),
        loan_approval(),
        insurance_claim(),
        travel_booking(),
        support_ticket(),
        invoice_processing(),
        hiring_pipeline(),
        procurement(),
    ]
}

/// A variant with an extra audit-logging service on the root task
/// (structure grows, behaviour is unchanged).
fn audited(mut spec: HasSpec) -> HasSpec {
    spec.name = format!("{}-audited", spec.name);
    let root = spec.root();
    let var_count = spec.tasks[root.index()].vars.len();
    spec.tasks[root.index()].services.push(InternalService {
        name: "AuditLog".into(),
        pre: Condition::True,
        post: Condition::True,
        propagated: (0..var_count)
            .map(|i| verifas_model::VarId::new(i as u32))
            .collect(),
        update: None,
    });
    spec
}

/// A variant with an extra escalation flag cycled by two new services.
fn escalated(mut spec: HasSpec) -> HasSpec {
    spec.name = format!("{}-escalated", spec.name);
    let root = spec.root();
    let task: &mut Task = &mut spec.tasks[root.index()];
    let flag = verifas_model::VarId::new(task.vars.len() as u32);
    task.vars.push(verifas_model::Variable {
        name: "escalation".into(),
        typ: verifas_model::VarType::Data,
    });
    task.services.push(InternalService {
        name: "Escalate".into(),
        pre: Condition::eq(Term::var(flag), Term::Null),
        post: Condition::eq(Term::var(flag), Term::str("Escalated")),
        propagated: vec![],
        update: None,
    });
    task.services.push(InternalService {
        name: "Deescalate".into(),
        pre: Condition::eq(Term::var(flag), Term::str("Escalated")),
        post: Condition::eq(Term::var(flag), Term::Null),
        propagated: vec![],
        update: None,
    });
    spec
}

/// A variant without artifact relations (the restricted model the
/// Spin-based baseline supports).
fn flattened(spec: &HasSpec) -> HasSpec {
    let mut out = spec.without_artifact_relations();
    out.name = format!("{}-flat", spec.name);
    out
}

/// The full real set: the eight base workflows expanded to 32
/// specifications through systematic variants (audited, escalated and
/// flattened), matching the size of the paper's real set.
pub fn real_workflows() -> Vec<HasSpec> {
    let mut out = Vec::new();
    for spec in base_workflows() {
        out.push(audited(spec.clone()));
        out.push(escalated(spec.clone()));
        out.push(flattened(&spec));
        out.push(spec);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_real_workflows_validate() {
        let all = real_workflows();
        assert_eq!(all.len(), 32);
        for spec in &all {
            spec.validate()
                .unwrap_or_else(|e| panic!("workflow {} invalid: {e}", spec.name));
        }
        // Names are unique.
        let names: std::collections::HashSet<_> = all.iter().map(|s| s.name.clone()).collect();
        assert_eq!(names.len(), 32);
    }

    #[test]
    fn order_fulfillment_matches_the_paper_structure() {
        let spec = order_fulfillment();
        assert_eq!(spec.tasks.len(), 5);
        assert_eq!(spec.db.len(), 3);
        let (_, root) = spec.task_by_name("ProcessOrders").unwrap();
        assert_eq!(root.services.len(), 3);
        assert_eq!(root.art_relations.len(), 1);
        assert_eq!(root.art_relations[0].name, "ORDERS");
        assert!(spec.task_by_name("TakeOrder").is_some());
        assert!(spec.task_by_name("CheckCredit").is_some());
        assert!(spec.task_by_name("Restock").is_some());
        assert!(spec.task_by_name("ShipItem").is_some());
    }

    #[test]
    fn buggy_variant_differs_only_in_the_shipping_guard() {
        let good = order_fulfillment();
        let bad = order_fulfillment_buggy();
        let (ship, _) = good.task_by_name("ShipItem").unwrap();
        assert_ne!(
            good.tasks[ship.index()].opening.pre,
            bad.tasks[ship.index()].opening.pre
        );
        bad.validate().unwrap();
    }

    #[test]
    fn statistics_are_in_a_realistic_range() {
        for spec in base_workflows() {
            let stats = spec.stats();
            assert!(stats.tasks >= 2, "{}", spec.name);
            assert!(stats.variables >= 3, "{}", spec.name);
            assert!(stats.services >= 3, "{}", spec.name);
        }
    }
}
