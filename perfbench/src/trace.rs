//! In-memory span recording for the traced pass.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! (the program itself carries no instrumentation), kept in memory while
//! the pass runs and written out once it ends.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The layer (or grouping) the interval belongs to.
    pub name: &'static str,
    /// The operation the span serves (a verification or a request).
    pub request: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Microseconds since the recorder was created.
    pub start_us: f64,
    /// Microseconds since the recorder was created.
    pub end_us: f64,
}

/// Collects spans from any number of threads.
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Run `f` inside a span named `name`; `f` receives the span's index,
    /// which its own child spans name as their parent.
    pub fn span<T>(
        &self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        f: impl FnOnce(usize) -> T,
    ) -> T {
        let id = {
            let start_us = self.now_us();
            let mut spans = self.spans.lock().expect("span recorder poisoned");
            spans.push(Span {
                name,
                request,
                parent,
                start_us,
                end_us: start_us,
            });
            spans.len() - 1
        };
        let out = f(id);
        let end_us = self.now_us();
        self.spans.lock().expect("span recorder poisoned")[id].end_us = end_us;
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("span recorder poisoned")
    }
}

/// Per span name: the summed self time in microseconds (each span's
/// duration minus the part of it its children cover) and the span count.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (f64, usize)> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, span) in spans.iter().enumerate() {
        if let Some(parent) = span.parent {
            children[parent].push(i);
        }
    }
    let mut out: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
    for (i, span) in spans.iter().enumerate() {
        let mut covered: Vec<(f64, f64)> = children[i]
            .iter()
            .map(|&c| {
                (
                    spans[c].start_us.max(span.start_us),
                    spans[c].end_us.min(span.end_us),
                )
            })
            .filter(|(s, e)| e > s)
            .collect();
        covered.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut union = 0.0;
        let mut reach = f64::NEG_INFINITY;
        for (s, e) in covered {
            if e > reach {
                union += e - s.max(reach);
                reach = e;
            }
        }
        let entry = out.entry(span.name).or_insert((0.0, 0));
        entry.0 += (span.end_us - span.start_us) - union;
        entry.1 += 1;
    }
    out
}

/// The spans as a JSON array, one object per span.
pub fn spans_json(spans: &[Span]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"name\":\"{}\",\"request\":{},\"parent\":{},\"start_us\":{:.1},\"end_us\":{:.1}}}",
                s.name,
                s.request,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                s.start_us,
                s.end_us
            )
        })
        .collect();
    format!("[{}]", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_us: f64, end_us: f64) -> Span {
        Span {
            name,
            request: 0,
            parent,
            start_us,
            end_us,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("verify", None, 0.0, 100.0),
            span("search", Some(0), 10.0, 50.0),
            // Overlaps the first child: only 50..70 is new coverage.
            span("repeated", Some(0), 40.0, 70.0),
        ];
        let times = self_times(&spans);
        assert_eq!(times["verify"], (40.0, 1));
        assert_eq!(times["search"], (40.0, 1));
        assert_eq!(times["repeated"], (30.0, 1));
    }

    #[test]
    fn recorder_nests_spans_through_the_parent_index() {
        let recorder = Recorder::new();
        recorder.span("outer", 7, None, |outer| {
            recorder.span("inner", 7, Some(outer), |_| ());
        });
        let spans = recorder.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_us <= spans[1].start_us && spans[1].end_us <= spans[0].end_us);
    }
}
