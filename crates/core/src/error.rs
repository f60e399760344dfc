//! The typed top-level error of the VERIFAS public API.
//!
//! Every fallible operation of [`crate::engine::Engine`] reports a
//! [`VerifasError`] instead of passing raw [`ModelError`]s through or
//! panicking: callers of a long-lived verification service need to
//! distinguish "your specification is malformed" from "your request is
//! malformed" without string-matching.

use crate::json::JsonError;
use std::fmt;
use verifas_model::ModelError;

/// The optimisation names accepted by
/// [`crate::verifier::VerifierOptions::try_without`].
pub const VALID_OPTIMIZATIONS: &[&str] = &["SP", "SA", "DSS"];

/// A position within a textual specification source (1-based line and
/// column), attached to [`VerifasError::Spec`] diagnostics so tools can
/// point at the offending construct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct SourceSpan {
    /// 1-based line number (0 when the location is unknown).
    pub line: u32,
    /// 1-based column number (0 when the location is unknown).
    pub column: u32,
}

impl SourceSpan {
    /// A span pointing at the given 1-based line and column.
    pub fn new(line: u32, column: u32) -> Self {
        SourceSpan { line, column }
    }
}

impl fmt::Display for SourceSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.column)
    }
}

/// Top-level error type of the `verifas` public API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifasError {
    /// The specification (or the property checked against it) is
    /// malformed.
    Model(ModelError),
    /// An unknown optimisation name was passed to
    /// [`crate::verifier::VerifierOptions::try_without`].
    UnknownOptimization {
        /// The name that was not recognised.
        given: String,
    },
    /// A verification was started without a property
    /// (`engine.verification().run()` before `.property(...)`).
    MissingProperty,
    /// A serialized [`crate::report::VerificationReport`] could not be
    /// parsed.
    MalformedReport {
        /// What was wrong with the document.
        reason: String,
    },
    /// A worker thread of a batched run ([`crate::engine::Engine::check_all`])
    /// failed — panicked, or exited without reporting a result.  The batch
    /// surfaces this as a per-property error instead of aborting the
    /// process.
    Internal {
        /// What the worker reported (a panic message when available).
        reason: String,
    },
    /// A textual specification (`.has` file, see the `verifas-spec` crate)
    /// could not be parsed, type-checked or lowered.  The span points at
    /// the offending construct in the source text.
    Spec {
        /// Where in the source the problem was detected (1-based
        /// line/column; 0:0 when the location is unknown).
        span: SourceSpan,
        /// What was wrong.
        message: String,
    },
    /// A memory-budgeted search ran out of its byte budget
    /// ([`crate::memory::MemoryBudget`]) and stopped at a round boundary —
    /// a graceful, typed degradation instead of an OOM abort.  Carries
    /// what the search had explored so the caller can report progress.
    ResourceExhausted {
        /// States the search had created when the budget ran out.
        states: usize,
        /// Estimated resident bytes of the search at that point.
        bytes: usize,
        /// The byte budget that was exceeded.
        limit_bytes: usize,
    },
}

impl fmt::Display for VerifasError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifasError::Model(e) => write!(f, "specification error: {e}"),
            VerifasError::UnknownOptimization { given } => write!(
                f,
                "unknown optimization {given:?}; valid names are {VALID_OPTIMIZATIONS:?}"
            ),
            VerifasError::MissingProperty => {
                write!(f, "no property was set on the verification request")
            }
            VerifasError::MalformedReport { reason } => {
                write!(f, "malformed verification report: {reason}")
            }
            VerifasError::Internal { reason } => {
                write!(f, "internal verification failure: {reason}")
            }
            VerifasError::Spec { span, message } => {
                write!(f, "specification syntax error at {span}: {message}")
            }
            VerifasError::ResourceExhausted {
                states,
                bytes,
                limit_bytes,
            } => {
                write!(
                    f,
                    "memory budget exhausted: search held ~{bytes} bytes of a \
                     {limit_bytes}-byte budget after exploring {states} states"
                )
            }
        }
    }
}

/// Best-effort rendering of a panic payload (the common `&str` / `String`
/// cases; anything else is reported opaquely).  Shared by every
/// panic-containment site — the batch scheduler's per-property
/// `catch_unwind` and the worker-pool join paths of the search and the
/// repeated-reachability edge construction — so the `reason` strings of
/// the resulting [`VerifasError::Internal`] errors stay uniform.
pub(crate) fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

impl std::error::Error for VerifasError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VerifasError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelError> for VerifasError {
    fn from(e: ModelError) -> Self {
        VerifasError::Model(e)
    }
}

impl From<JsonError> for VerifasError {
    fn from(e: JsonError) -> Self {
        VerifasError::MalformedReport {
            reason: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_valid_optimizations() {
        let e = VerifasError::UnknownOptimization {
            given: "SPP".to_owned(),
        };
        let text = e.to_string();
        for name in VALID_OPTIMIZATIONS {
            assert!(text.contains(name), "{text:?} must list {name}");
        }
    }

    #[test]
    fn spec_errors_carry_their_source_location() {
        let e = VerifasError::Spec {
            span: SourceSpan::new(3, 14),
            message: "unknown variable `statu`".to_owned(),
        };
        assert_eq!(
            e.to_string(),
            "specification syntax error at 3:14: unknown variable `statu`"
        );
    }

    #[test]
    fn model_errors_convert_and_chain() {
        let model = ModelError::InvalidSpec {
            reason: "no root".to_owned(),
        };
        let top: VerifasError = model.clone().into();
        assert_eq!(top, VerifasError::Model(model));
        assert!(std::error::Error::source(&top).is_some());
    }
}
