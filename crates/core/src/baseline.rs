//! The baseline verifier standing in for the Spin-based verifier of the
//! paper (Section 4.1, "Baseline").
//!
//! The Spin-based verifier of [Li, Deutsch, Vianu — arXiv:1705.09427] has
//! two defining characteristics in the evaluation of the paper:
//!
//! 1. it cannot handle updatable artifact relations (it verifies the
//!    restricted model only), and
//! 2. it explores a much larger state space because it lacks the lazy
//!    partial-isomorphism-type representation and the subsumption pruning.
//!
//! Spin itself is not redistributable inside this repository, so the
//! baseline is implemented as the same search engine with every
//! state-space optimisation disabled — no static analysis and
//! *exact-duplicate* pruning only (`CoverageKind::Equality`) — over the
//! specification with artifact relations stripped.  This reproduces the
//! mechanism responsible for the performance gap reported in Table 2 —
//! state-space blowup — rather than Spin's absolute running times (see
//! `docs/ARCHITECTURE.md`, "Substitutions for the paper's artefacts").

use crate::coverage::CoverageKind;
use crate::observer::SearchControl;
use crate::product::ProductSystem;
use crate::search::SearchLimits;
use crate::verifier::{run_phases, VerificationResult, VerifierOptions};
use verifas_ltl::LtlFoProperty;
use verifas_model::{HasSpec, ModelError};

/// The baseline ("Spin-Opt"-like) verifier.
pub struct BaselineVerifier {
    product: ProductSystem,
    limits: SearchLimits,
}

impl BaselineVerifier {
    /// Build the baseline verifier.  Artifact relations are always
    /// ignored, mirroring the restriction of the Spin-based verifier.
    pub fn new(
        spec: &HasSpec,
        property: &LtlFoProperty,
        limits: SearchLimits,
    ) -> Result<Self, ModelError> {
        spec.validate()?;
        let product = ProductSystem::new(spec, property, false)?;
        Ok(BaselineVerifier { product, limits })
    }

    /// Run the baseline verification: both phases, sequential, with
    /// exact-duplicate pruning.  Coverage candidates stay grouped by
    /// discrete key — a linear scan would only make the already large
    /// state space quadratic to search, not change what it explores.
    pub fn verify(&self) -> VerificationResult {
        let options = VerifierOptions {
            limits: self.limits,
            ..VerifierOptions::default()
        };
        run_phases(
            &self.product,
            CoverageKind::Equality,
            CoverageKind::Equality,
            options,
            &mut SearchControl::default(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use verifas_ltl::{Ltl, LtlFoProperty, PropAtom};
    use verifas_model::schema::attr::data;
    use verifas_model::{Condition, DatabaseSchema, SpecBuilder, TaskBuilder, TaskId, Term};

    fn small_spec() -> HasSpec {
        let mut db = DatabaseSchema::new();
        db.add_relation("R", vec![data("a")]).unwrap();
        let mut root = TaskBuilder::new("Root");
        let status = root.data_var("status");
        root.service_parts(
            "go",
            Condition::eq(Term::var(status), Term::Null),
            Condition::eq(Term::var(status), Term::str("Done")),
            vec![],
            None,
        );
        root.service_parts(
            "reset",
            Condition::eq(Term::var(status), Term::str("Done")),
            Condition::eq(Term::var(status), Term::Null),
            vec![],
            None,
        );
        let mut b = SpecBuilder::new("small", db, root.build());
        b.global_pre(Condition::eq(Term::var(status), Term::Null));
        b.build().unwrap()
    }

    #[test]
    fn baseline_and_verifas_agree_on_small_specs() {
        let spec = small_spec();
        for (name, formula, cond) in [
            ("violated", Ltl::globally(Ltl::not(Ltl::prop(0))), "Done"),
            (
                "satisfied",
                Ltl::globally(Ltl::not(Ltl::prop(0))),
                "Missing",
            ),
        ] {
            let property = LtlFoProperty::new(
                name,
                TaskId::new(0),
                vec![],
                formula,
                vec![PropAtom::Condition(Condition::eq(
                    Term::var(verifas_model::VarId::new(0)),
                    Term::str(cond),
                ))],
            );
            let baseline =
                BaselineVerifier::new(&spec, &property, SearchLimits::default()).unwrap();
            let engine = Engine::load(spec.clone()).unwrap();
            assert_eq!(
                baseline.verify().outcome,
                engine.check(&property).unwrap().outcome,
                "disagreement on {name}"
            );
        }
    }

    #[test]
    fn baseline_explores_at_least_as_many_states() {
        let spec = small_spec();
        let property = LtlFoProperty::new(
            "safety",
            TaskId::new(0),
            vec![],
            Ltl::globally(Ltl::not(Ltl::prop(0))),
            vec![PropAtom::Condition(Condition::eq(
                Term::var(verifas_model::VarId::new(0)),
                Term::str("Missing"),
            ))],
        );
        let baseline = BaselineVerifier::new(&spec, &property, SearchLimits::default()).unwrap();
        let engine = Engine::load(spec.clone()).unwrap();
        let b = baseline.verify();
        let v = engine.check(&property).unwrap();
        assert!(b.stats.states_created >= v.stats.states_created);
    }
}
