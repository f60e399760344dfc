//! # verifas-spec — the textual `.has` specification language
//!
//! This crate is the textual frontend of VERIFAS: it parses `.has` files
//! describing a Hierarchical Artifact System and its LTL-FO properties,
//! and lowers them to the same `verifas_model::HasSpec` /
//! `verifas_ltl::LtlFoProperty` structures the programmatic builders
//! produce — bit-identically, so a workload ported to text verifies with
//! the same verdict, witness and search statistics as its Rust builder.
//!
//! The pipeline is [`parse`] (lexer + recursive-descent parser with
//! line/column spans) → [`fn@resolve`] (name/type resolution and
//! lowering, with spanned diagnostics) → `verifas::Engine`.
//! [`format_spec`] prints the parsed tree back in one canonical layout
//! (`verifas fmt`).
//!
//! ## Grammar sketch
//!
//! ```text
//! file      := 'spec' STRING ';' schema task+ init? property*
//! schema    := 'schema' '{' ('relation' NAME '(' attr (',' attr)* ')' ';')* '}'
//! attr      := NAME ':' ('data' | 'ref' RELATION)
//! task      := 'task' NAME ('child' 'of' PARENT)? '{' item* '}'
//! item      := 'vars' '{' NAME ':' type (',' NAME ':' type)* '}'
//!            | 'inputs' '{' io (',' io)* '}' | 'outputs' '{' io (',' io)* '}'
//!            | 'artifact' NAME '(' VAR (',' VAR)* ')' ';'
//!            | 'opening' ':' cond ';'        // over the parent's variables
//!            | 'closing' ':' cond ';'        // over the task's own variables
//!            | 'service' NAME '{' 'pre' ':' cond ';' 'post' ':' cond ';'
//!                  ('propagate' VAR (',' VAR)* ';')?
//!                  (('insert' | 'retrieve') REL '(' VAR (',' VAR)* ')' ';')? '}'
//! io        := VAR ('->' PARENTVAR)?          // default: same-name wiring
//! type      := 'data' | 'id' '(' RELATION ')'
//! init      := 'init' ':' cond ';'            // global pre-condition (root vars)
//! property  := 'property' STRING 'on' TASK '{'
//!                  ('forall' NAME ':' type (',' NAME ':' type)* ';')?
//!                  ('define' NAME ':=' cond ';')*
//!                  ('formula' ':' ltl ';'
//!                   | 'template' STRING ('with' ('phi'|'psi') ':=' atom
//!                                        (',' ('phi'|'psi') ':=' atom)*)? ';') '}'
//! cond      := conditions over '==' '!=' 'null' constants, relational atoms
//!              'REL(key, attrs…)', '!', '&&', '||', '->' (right-assoc)
//! ltl       := 'G' 'F' 'X' unary, 'U' 'R' (right-assoc), '!', '&&', '||', '->'
//! atom      := '{' cond '}' | 'open' '(' TASK ')' | 'close' '(' TASK ')'
//!            | 'did' '(' TASK '.' SERVICE ')' | ALIAS
//! ```
//!
//! Comments run `//` to end of line and survive formatting
//! ([`format_source`] re-anchors them).  `template` names are the Table-4
//! rows of `verifas_ltl::all_templates` (e.g. `"G phi"`, `"GF phi"`).
//! Identical atoms share one proposition, assigned in first-occurrence
//! order — exactly how the programmatic properties are written.
//!
//! ## Example
//!
//! ```
//! let source = r#"
//! spec "doc";
//! schema { relation R(a: data); }
//! task Root {
//!     vars { status: data }
//!     service go {
//!         pre: status == null;
//!         post: status == "Done";
//!     }
//! }
//! init: status == null;
//! property "never-broken" on Root {
//!     formula: G !{ status == "Broken" };
//! }
//! "#;
//! let compiled = verifas_spec::compile(source)?;
//! assert_eq!(compiled.spec.name, "doc");
//! let engine = verifas_core::Engine::load(compiled.spec)?;
//! let report = engine.check(&compiled.properties[0])?;
//! assert_eq!(report.outcome, verifas_core::VerificationOutcome::Satisfied);
//! # Ok::<(), verifas_core::VerifasError>(())
//! ```

pub mod ast;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod printer;
pub mod resolve;

pub use ast::SpecFile;
pub use error::SpecError;
pub use lexer::{collect_comments, Comment};
pub use parser::parse;
pub use printer::{format_spec, format_spec_with_comments};
pub use resolve::{resolve, CompiledSpec};

/// Parse and lower a `.has` source text in one step.
pub fn compile(source: &str) -> Result<CompiledSpec, SpecError> {
    resolve(&parse(source)?)
}

/// Parse a `.has` source text and render it in canonical formatting.
/// `//` comments survive: each is re-anchored against the canonical
/// layout (trailing comments stay trailing, standalone comments stay
/// before the declaration that followed them).
pub fn format_source(source: &str) -> Result<String, SpecError> {
    let file = parse(source)?;
    Ok(format_spec_with_comments(&file, &collect_comments(source)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_reports_spanned_errors() {
        let err =
            compile("spec \"x\";\nschema { relation R(a: data); }\ntask T { vars { x: id(S) } }")
                .unwrap_err();
        assert_eq!((err.span.line, err.span.column), (3, 23));
        assert!(err.message.contains("unknown relation `S`"), "{err}");
    }

    #[test]
    fn format_source_normalizes_layout() {
        let text = format_source(
            "spec \"x\";  schema { relation R(a: data); } task T { vars { x: data } }",
        )
        .unwrap();
        assert!(text.starts_with("spec \"x\";\n"));
        assert!(text.contains("task T {\n    vars {\n        x: data\n    }\n}\n"));
    }
}
