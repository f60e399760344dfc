//! The request/response wire protocol (see `docs/PROTOCOL.md`).
//!
//! Requests are single JSON documents; verification responses are
//! *newline-delimited JSON frames* so per-property reports stream out as
//! each search finishes instead of buffering until the batch ends.
//! Every frame is a one-line JSON object whose `frame` member names its
//! shape: `queued`, `admitted`, `report`, `done`, `error`, `cancelled`,
//! `hash`.
//! The `done` frame is terminal and carries the batch summary, so a
//! client can always distinguish "stream finished" from "connection
//! died" from "stream aborted by cancellation".
//!
//! Everything here is pure data transformation over
//! [`verifas_core::Json`] — no I/O — which keeps it equally usable from
//! the HTTP layer and from in-process tests.

use crate::admission::{PriorityClass, RequestId};
use crate::error::ServeError;
use crate::session::SessionReuse;
use verifas_core::{BatchSummary, Json, VerificationReport};

/// A parsed `/v1/verify` request body.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyRequest {
    /// The `.has` specification source text.
    pub spec: String,
    /// Requested priority class (defaults to interactive).
    pub class: PriorityClass,
    /// Property names to check; `None` means all properties of the spec.
    pub properties: Option<Vec<String>>,
    /// Soft deadline for the whole batch, in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Per-search state budget (`SearchLimits::max_states`); `None`
    /// keeps the engine default.  Unlike `deadline_ms` this bound is
    /// deterministic: two requests with the same spec and the same
    /// `max_states` produce bit-identical reports, which is what the
    /// fuzz harness's served oracle arm compares against a direct
    /// `check_all`.
    pub max_states: Option<usize>,
    /// Per-search wall-clock budget in milliseconds
    /// (`SearchLimits::max_millis`); `None` keeps the engine default.
    pub max_millis: Option<u64>,
}

impl VerifyRequest {
    /// Parse a request body, with precise [`ServeError::BadRequest`]
    /// diagnostics for every way the envelope can be malformed.
    pub fn from_json(text: &str) -> Result<Self, ServeError> {
        let value = parse(text)?;
        let spec = value
            .require("spec")
            .map_err(bad)?
            .as_str()
            .ok_or_else(|| bad_request("member \"spec\" must be a string"))?
            .to_owned();
        let class = match value.get("class") {
            None | Some(Json::Null) => PriorityClass::Interactive,
            Some(json) => {
                let name = json
                    .as_str()
                    .ok_or_else(|| bad_request("member \"class\" must be a string"))?;
                PriorityClass::from_name(name).ok_or_else(|| {
                    bad_request(format!(
                        "unknown class {name:?} (expected \"interactive\" or \"batch\")"
                    ))
                })?
            }
        };
        let properties = match value.get("properties") {
            None | Some(Json::Null) => None,
            Some(json) => {
                let items = json
                    .as_array()
                    .ok_or_else(|| bad_request("member \"properties\" must be an array"))?;
                let mut names = Vec::with_capacity(items.len());
                for item in items {
                    names.push(
                        item.as_str()
                            .ok_or_else(|| {
                                bad_request("member \"properties\" must contain strings")
                            })?
                            .to_owned(),
                    );
                }
                Some(names)
            }
        };
        let deadline_ms = match value.get("deadline_ms") {
            None | Some(Json::Null) => None,
            Some(json) => Some(
                json.as_u64()
                    .ok_or_else(|| bad_request("member \"deadline_ms\" must be an integer"))?,
            ),
        };
        let max_states = match value.get("max_states") {
            None | Some(Json::Null) => None,
            Some(json) => Some(
                json.as_u64()
                    .ok_or_else(|| bad_request("member \"max_states\" must be an integer"))?
                    as usize,
            ),
        };
        let max_millis = match value.get("max_millis") {
            None | Some(Json::Null) => None,
            Some(json) => Some(
                json.as_u64()
                    .ok_or_else(|| bad_request("member \"max_millis\" must be an integer"))?,
            ),
        };
        Ok(VerifyRequest {
            spec,
            class,
            properties,
            deadline_ms,
            max_states,
            max_millis,
        })
    }
}

/// Parse a `/v1/cancel` body: `{"request": <id>}`.
pub fn parse_cancel(text: &str) -> Result<RequestId, ServeError> {
    let value = parse(text)?;
    value
        .require("request")
        .map_err(bad)?
        .as_u64()
        .ok_or_else(|| bad_request("member \"request\" must be an integer"))
}

/// Parse a `/v1/hash` body: `{"spec": "<source>"}`.
pub fn parse_hash_request(text: &str) -> Result<String, ServeError> {
    let value = parse(text)?;
    Ok(value
        .require("spec")
        .map_err(bad)?
        .as_str()
        .ok_or_else(|| bad_request("member \"spec\" must be a string"))?
        .to_owned())
}

/// The first frame of a stream whose request arrived over its class's
/// in-flight limit: the request is waiting in the admission queue.
///
/// `position` is the 1-based queue position at arrival; `retry_ms` is a
/// Retry-After-style hint for clients that would rather disconnect and
/// come back than hold the stream open.  Clients that keep the stream
/// open need to do nothing: an `admitted` frame follows when a slot
/// frees (or a `done` frame with `aborted: true` if the request's
/// deadline expires while it waits — deadlines keep ticking in the
/// queue).
pub fn queued_frame(id: RequestId, class: PriorityClass, position: usize, retry_ms: u64) -> String {
    Json::Obj(vec![
        frame_tag("queued"),
        ("request".to_owned(), Json::Num(id as f64)),
        ("class".to_owned(), Json::Str(class.name().to_owned())),
        ("position".to_owned(), Json::Num(position as f64)),
        ("retry_ms".to_owned(), Json::Num(retry_ms as f64)),
    ])
    .to_string()
}

/// The first frame of a verification stream: the request was admitted.
///
/// `session` reports the cache lookup (`hit` / `miss`); `reuse` refines
/// it with the delta-reuse kind — `session` (exact hit), `cold` (fresh
/// load), or `preproc` (a delta-compatible session was upgraded in
/// [`verifas_core::ReuseMode::Preproc`]).
pub fn admitted_frame(
    id: RequestId,
    spec_hash: &str,
    reuse: SessionReuse,
    class: PriorityClass,
    cores: usize,
    properties: usize,
) -> String {
    Json::Obj(vec![
        frame_tag("admitted"),
        ("request".to_owned(), Json::Num(id as f64)),
        ("spec_hash".to_owned(), Json::Str(spec_hash.to_owned())),
        (
            "session".to_owned(),
            Json::Str(if reuse.is_hit() { "hit" } else { "miss" }.to_owned()),
        ),
        ("reuse".to_owned(), Json::Str(reuse.wire_name().to_owned())),
        ("class".to_owned(), Json::Str(class.name().to_owned())),
        ("cores".to_owned(), Json::Num(cores as f64)),
        ("properties".to_owned(), Json::Num(properties as f64)),
    ])
    .to_string()
}

/// One per-property report, emitted in completion order.
pub fn report_frame(id: RequestId, index: usize, report: &VerificationReport) -> String {
    Json::Obj(vec![
        frame_tag("report"),
        ("request".to_owned(), Json::Num(id as f64)),
        ("index".to_owned(), Json::Num(index as f64)),
        ("report".to_owned(), report.to_json_value()),
    ])
    .to_string()
}

/// A per-property *failure* report: the property's search ended in a
/// typed error instead of a verdict.  Streams in completion order like
/// any other report, with an `error` member instead of `report`.
pub fn report_error_frame(id: RequestId, index: usize, message: &str) -> String {
    Json::Obj(vec![
        frame_tag("report"),
        ("request".to_owned(), Json::Num(id as f64)),
        ("index".to_owned(), Json::Num(index as f64)),
        ("error".to_owned(), Json::Str(message.to_owned())),
    ])
    .to_string()
}

/// The terminal frame: the batch's typed summary.
pub fn done_frame(id: RequestId, summary: &BatchSummary) -> String {
    Json::Obj(vec![
        frame_tag("done"),
        ("request".to_owned(), Json::Num(id as f64)),
        (
            "summary".to_owned(),
            Json::Obj(vec![
                (
                    "properties".to_owned(),
                    Json::Num(summary.properties as f64),
                ),
                ("completed".to_owned(), Json::Num(summary.completed as f64)),
                ("cancelled".to_owned(), Json::Num(summary.cancelled as f64)),
                ("errors".to_owned(), Json::Num(summary.errors as f64)),
                ("aborted".to_owned(), Json::Bool(summary.aborted)),
            ]),
        ),
    ])
    .to_string()
}

/// An error frame (the only frame of a refused request).
pub fn error_frame(error: &ServeError) -> String {
    Json::Obj(vec![
        frame_tag("error"),
        ("kind".to_owned(), Json::Str(error.kind().to_owned())),
        ("message".to_owned(), Json::Str(error.to_string())),
    ])
    .to_string()
}

/// Response to `/v1/cancel`.
pub fn cancelled_frame(id: RequestId, found: bool) -> String {
    Json::Obj(vec![
        frame_tag("cancelled"),
        ("request".to_owned(), Json::Num(id as f64)),
        ("found".to_owned(), Json::Bool(found)),
    ])
    .to_string()
}

/// Response to `/v1/hash`.
pub fn hash_frame(spec_name: &str, spec_hash: &str) -> String {
    Json::Obj(vec![
        frame_tag("hash"),
        ("name".to_owned(), Json::Str(spec_name.to_owned())),
        ("spec_hash".to_owned(), Json::Str(spec_hash.to_owned())),
    ])
    .to_string()
}

fn frame_tag(name: &str) -> (String, Json) {
    ("frame".to_owned(), Json::Str(name.to_owned()))
}

fn parse(text: &str) -> Result<Json, ServeError> {
    Json::parse(text).map_err(|e| bad_request(format!("invalid JSON: {e}")))
}

fn bad(e: verifas_core::JsonError) -> ServeError {
    bad_request(e.message)
}

fn bad_request(reason: impl Into<String>) -> ServeError {
    ServeError::BadRequest {
        reason: reason.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verify_request_defaults_and_full_form() {
        let minimal = VerifyRequest::from_json(r#"{"spec": "spec S {}"}"#).unwrap();
        assert_eq!(
            minimal,
            VerifyRequest {
                spec: "spec S {}".to_owned(),
                class: PriorityClass::Interactive,
                properties: None,
                deadline_ms: None,
                max_states: None,
                max_millis: None,
            }
        );
        let full = VerifyRequest::from_json(
            r#"{"spec": "s", "class": "batch", "properties": ["p", "q"], "deadline_ms": 250,
                "max_states": 4000, "max_millis": 60000}"#,
        )
        .unwrap();
        assert_eq!(full.class, PriorityClass::Batch);
        assert_eq!(
            full.properties.as_deref(),
            Some(&["p".to_owned(), "q".to_owned()][..])
        );
        assert_eq!(full.deadline_ms, Some(250));
        assert_eq!(full.max_states, Some(4000));
        assert_eq!(full.max_millis, Some(60000));
    }

    #[test]
    fn malformed_requests_get_precise_diagnostics() {
        let cases = [
            ("{", "invalid JSON"),
            ("{}", "missing object member \"spec\""),
            (r#"{"spec": 3}"#, "must be a string"),
            (
                r#"{"spec": "s", "class": "urgent"}"#,
                "unknown class \"urgent\"",
            ),
            (r#"{"spec": "s", "properties": "p"}"#, "must be an array"),
            (r#"{"spec": "s", "deadline_ms": -1}"#, "must be an integer"),
            (
                r#"{"spec": "s", "max_states": "many"}"#,
                "member \"max_states\" must be an integer",
            ),
            (
                r#"{"spec": "s", "max_millis": 1.5}"#,
                "member \"max_millis\" must be an integer",
            ),
        ];
        for (body, needle) in cases {
            let error = VerifyRequest::from_json(body).unwrap_err();
            assert_eq!(error.kind(), "bad_request", "case {body:?}");
            assert!(
                error.to_string().contains(needle),
                "case {body:?}: {error} should mention {needle:?}"
            );
        }
    }

    #[test]
    fn frames_are_single_line_json_with_a_frame_tag() {
        let summary = BatchSummary {
            properties: 2,
            completed: 1,
            cancelled: 1,
            errors: 0,
            reused: 1,
            aborted: true,
        };
        let frames = [
            queued_frame(3, PriorityClass::Batch, 2, 200),
            admitted_frame(3, "00ff", SessionReuse::Cold, PriorityClass::Batch, 4, 2),
            done_frame(3, &summary),
            error_frame(&ServeError::Overloaded {
                class: PriorityClass::Batch,
                limit: 2,
            }),
            cancelled_frame(3, true),
            hash_frame("Orders", "00ff"),
        ];
        for frame in &frames {
            assert!(!frame.contains('\n'));
            let parsed = Json::parse(frame).unwrap();
            assert!(parsed.get("frame").and_then(Json::as_str).is_some());
        }
        let done = Json::parse(&frames[2]).unwrap();
        let summary_json = done.get("summary").unwrap();
        assert_eq!(summary_json.get("aborted"), Some(&Json::Bool(true)));
        assert_eq!(
            summary_json.get("cancelled").and_then(Json::as_u64),
            Some(1)
        );
        // The reuse count goes to `/metrics`, not onto the wire.
        assert_eq!(summary_json.get("reused"), None);
    }

    #[test]
    fn cancel_and_hash_bodies_parse() {
        assert_eq!(parse_cancel(r#"{"request": 7}"#).unwrap(), 7);
        assert!(parse_cancel(r#"{"request": "7"}"#).is_err());
        assert_eq!(parse_hash_request(r#"{"spec": "s"}"#).unwrap(), "s");
    }
}
