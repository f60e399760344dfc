//! # verifas-ltl — temporal logic for VERIFAS
//!
//! Linear-time temporal logic (LTL), LTL-FO properties of HAS\* tasks, and
//! the LTL → Büchi automaton translation used by the symbolic verifier:
//!
//! * [`formula`] — the LTL syntax, negation normal form, a reference
//!   semantics over lasso words, finite-trace (LTLf) semantics and the
//!   *alive* embedding of finite traces into infinite ones,
//! * [`buchi`] — the GPVW tableau construction and the
//!   [`buchi::PropertyAutomaton`] packaging used by `verifas-core`,
//! * [`ltlfo`] — LTL-FO properties (global variables + FO interpretations
//!   of propositions) and a concrete-run oracle,
//! * [`templates`] — the twelve property templates of Table 4 of the paper.

pub mod buchi;
pub mod formula;
pub mod ltlfo;
pub mod templates;

pub use buchi::{BuchiAutomaton, BuchiLabel, PropertyAutomaton};
pub use formula::{letter_has, letter_of, Letter, Ltl, PropId};
pub use ltlfo::{LtlFoProperty, PropAtom};
pub use templates::{all_templates, LtlTemplate, PropertyClass};
