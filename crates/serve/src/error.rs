//! The typed errors of the verification service.
//!
//! Everything a client can get wrong — and everything the server may
//! refuse — is a [`ServeError`] variant, so the HTTP layer can map each
//! failure to a status code and a structured JSON body instead of
//! string-matching, and in-process embedders (tests, the CLI) can match
//! on the variant directly.

use crate::admission::PriorityClass;
use std::fmt;
use verifas_core::VerifasError;

/// A request the verification service refused or could not serve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Admission control rejected the request: the class already has
    /// `limit` requests in flight *and* its admission queue is full.
    /// (An over-limit request with queue room waits its turn instead;
    /// see [`crate::admission::RequestTable`].)  Maps to HTTP 429; the
    /// client should back off and retry later (or resubmit as the other
    /// class, where policy allows).
    Overloaded {
        /// The class whose limit was hit.
        class: PriorityClass,
        /// The configured in-flight limit of that class.
        limit: usize,
    },
    /// The request body exceeds the server's size limit.  Maps to
    /// HTTP 413.
    PayloadTooLarge {
        /// The configured maximum body size, in bytes.
        limit_bytes: usize,
    },
    /// The request envelope is malformed (missing member, wrong type,
    /// unknown class name, invalid JSON).  Maps to HTTP 400.
    BadRequest {
        /// What was wrong with the envelope.
        reason: String,
    },
    /// The embedded `.has` specification failed to parse, resolve or
    /// validate — the wrapped [`VerifasError`] carries the diagnostic
    /// (including a source span for syntax errors).  Maps to HTTP 400.
    Spec(VerifasError),
    /// The request named a property the specification does not define.
    /// Maps to HTTP 400.
    UnknownProperty {
        /// The name that did not resolve.
        name: String,
    },
}

impl ServeError {
    /// Short machine-readable discriminator, used as the `kind` member of
    /// error response bodies.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::Overloaded { .. } => "overloaded",
            ServeError::PayloadTooLarge { .. } => "payload_too_large",
            ServeError::BadRequest { .. } => "bad_request",
            ServeError::Spec(_) => "spec",
            ServeError::UnknownProperty { .. } => "unknown_property",
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded { class, limit } => write!(
                f,
                "over capacity: {limit} {} requests already in flight",
                class.name()
            ),
            ServeError::PayloadTooLarge { limit_bytes } => {
                write!(f, "request body exceeds the {limit_bytes}-byte limit")
            }
            ServeError::BadRequest { reason } => write!(f, "bad request: {reason}"),
            ServeError::Spec(e) => write!(f, "{e}"),
            ServeError::UnknownProperty { name } => {
                write!(f, "no property named {name:?} in the specification")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Spec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<VerifasError> for ServeError {
    fn from(e: VerifasError) -> Self {
        ServeError::Spec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_and_messages_are_distinct() {
        let errors = [
            ServeError::Overloaded {
                class: PriorityClass::Batch,
                limit: 2,
            },
            ServeError::BadRequest {
                reason: "missing member \"spec\"".to_owned(),
            },
            ServeError::UnknownProperty {
                name: "nope".to_owned(),
            },
        ];
        let kinds: Vec<_> = errors.iter().map(ServeError::kind).collect();
        assert_eq!(kinds, vec!["overloaded", "bad_request", "unknown_property"]);
        assert!(errors[0].to_string().contains("batch"));
        assert!(errors[2].to_string().contains("nope"));
    }
}
