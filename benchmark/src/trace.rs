//! In-memory spans recorded around calls into each layer.
//!
//! The benchmark times every layer from outside: a span wraps one call
//! into a crate's public API (or one client-side phase of an HTTP
//! request). Spans stay in memory and are written out once, when the
//! workload ends. With tracing off nothing is recorded and no clock is
//! read beyond what the end-to-end metrics need.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use act_json::{JsonObject, JsonValue, ToJson};

/// One timed interval: a call into a layer, or one phase of a request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique, non-zero identifier.
    pub id: u64,
    /// The span that caused this one (0 for a root).
    pub parent: u64,
    /// Layer-qualified name, e.g. `scenario.parse` or `http.connect`.
    pub name: &'static str,
    /// Request (or operation) identifier shared by one operation's spans.
    pub req: u64,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans when enabled; every method is a no-op when disabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn offset_ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished interval; returns its id (0 when disabled).
    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let span = Span {
            id,
            parent,
            name,
            req,
            start_ns: self.offset_ns(start),
            end_ns: self.offset_ns(end),
        };
        self.spans.lock().expect("a span recorder panicked while holding the lock").push(span);
        id
    }

    /// Runs `f` inside a span. `f` receives the span's id so calls it
    /// makes can record child spans; the id is 0 when disabled.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        req: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        if !self.enabled {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        let span = Span {
            id,
            parent,
            name,
            req,
            start_ns: self.offset_ns(start),
            end_ns: self.offset_ns(end),
        };
        self.spans.lock().expect("a span recorder panicked while holding the lock").push(span);
        out
    }

    /// Every span recorded so far, ordered by id.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        let mut spans =
            self.spans.lock().expect("a span recorder panicked while holding the lock").clone();
        spans.sort_by_key(|span| span.id);
        spans
    }

    /// Durations in milliseconds of every span named `name`.
    #[must_use]
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|span| span.name == name)
            .map(|span| span.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Writes every span, with its self time, to `path` as one JSON
    /// document: `{"workload": ..., "spans": [...]}`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and write failures.
    pub fn write_json(&self, workload: &str, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let self_ns = self_times(&spans);
        let rows: Vec<JsonValue> = spans
            .iter()
            .zip(&self_ns)
            .map(|(span, own)| {
                JsonValue::Object(
                    JsonObject::new()
                        .with("id", span.id.to_json())
                        .with("parent", span.parent.to_json())
                        .with("name", span.name.to_json())
                        .with("req", span.req.to_json())
                        .with("start_ns", span.start_ns.to_json())
                        .with("end_ns", span.end_ns.to_json())
                        .with("self_ns", own.to_json()),
                )
            })
            .collect();
        let doc = JsonObject::new()
            .with("workload", workload.to_json())
            .with("spans", JsonValue::Array(rows));
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, JsonValue::Object(doc).render_compact())
    }
}

/// Self time of each span (same order as `spans`): its duration minus the
/// part of its interval that its direct children cover.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    spans
        .iter()
        .map(|span| {
            let mut covered: Vec<(u64, u64)> = spans
                .iter()
                .filter(|child| child.parent == span.id && span.id != 0)
                .map(|child| (child.start_ns.max(span.start_ns), child.end_ns.min(span.end_ns)))
                .filter(|(start, end)| start < end)
                .collect();
            covered.sort_unstable();
            let mut union = 0;
            let mut reach = span.start_ns;
            for (start, end) in covered {
                let start = start.max(reach);
                if end > start {
                    union += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - union
        })
        .collect()
}

/// Total self time per span name, largest first.
#[must_use]
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut totals: Vec<(&'static str, u64)> = Vec::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        match totals.iter_mut().find(|(name, _)| *name == span.name) {
            Some((_, total)) => *total += own,
            None => totals.push((span.name, own)),
        }
    }
    totals.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name: "t", req: 0, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, 0, 100),
            // Overlapping children count once; one sticks out past the end.
            span(2, 1, 10, 30),
            span(3, 1, 20, 50),
            span(4, 1, 90, 120),
            // A grandchild is covered by its own parent, not by span 1.
            span(5, 2, 12, 14),
        ];
        assert_eq!(self_times(&spans), vec![50, 18, 30, 30, 2]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let value = tracer.span("x", 0, 0, |id| {
            assert_eq!(id, 0);
            7
        });
        assert_eq!(value, 7);
        assert_eq!(tracer.record("y", 0, 0, Instant::now(), Instant::now()), 0);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_links_children_to_parents() {
        let tracer = Tracer::new(true);
        tracer.span("outer", 0, 9, |outer| {
            tracer.span("inner", outer, 9, |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.req, 9);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name.len(), 2);
    }
}
