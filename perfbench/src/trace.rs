//! The benchmark's own span recorder.
//!
//! Spans are opened by the benchmark around each call it makes into a
//! layer of the system (the program itself is not instrumented): name,
//! kind (the kernel or request class the call served), start, end, the
//! span that caused it and, on the served path, the request id. Spans are
//! kept in memory and written out once, when the run ends. A disabled
//! recorder records nothing, so untraced runs pay one branch per call.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

use crate::stats;

/// Index of a recorded span (the parent link of its children).
pub type SpanId = usize;

/// One recorded span; times in seconds since the recorder was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub kind: String,
    pub start: f64,
    pub end: f64,
    pub parent: Option<SpanId>,
    pub request: Option<u64>,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

/// An open span; it ends when dropped (or at [`SpanGuard::end`]).
#[must_use]
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    id: Option<SpanId>,
}

impl SpanGuard<'_> {
    /// The span's id, for parent links (`None` when tracing is off).
    pub fn id(&self) -> Option<SpanId> {
        self.id
    }

    pub fn end(self) {}
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            let now = self.tracer.now();
            if let Ok(mut spans) = self.tracer.spans.lock() {
                spans[id].end = now;
            }
        }
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Open a span named `name` for `kind`, caused by `parent`.
    pub fn span(&self, name: &'static str, kind: &str, parent: Option<SpanId>) -> SpanGuard<'_> {
        self.open(name, kind, parent, None)
    }

    /// Open a span of served request `request`.
    pub fn request_span(
        &self,
        name: &'static str,
        kind: &str,
        parent: Option<SpanId>,
        request: u64,
    ) -> SpanGuard<'_> {
        self.open(name, kind, parent, Some(request))
    }

    fn open(
        &self,
        name: &'static str,
        kind: &str,
        parent: Option<SpanId>,
        request: Option<u64>,
    ) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard {
                tracer: self,
                id: None,
            };
        }
        let start = self.now();
        let mut spans = self
            .spans
            .lock()
            .expect("span list poisoned by a panicking thread");
        spans.push(Span {
            name,
            kind: kind.to_string(),
            start,
            end: f64::NAN,
            parent,
            request,
        });
        SpanGuard {
            tracer: self,
            id: Some(spans.len() - 1),
        }
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &self,
        name: &'static str,
        kind: &str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let _span = self.span(name, kind, parent);
        f()
    }

    /// A copy of every closed span, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list poisoned by a panicking thread")
            .iter()
            .filter(|s| s.end.is_finite())
            .cloned()
            .collect()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children's spans cover (children may overlap each other when
/// they ran on different threads; the union is subtracted once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent.filter(|&p| p < spans.len()) {
            let (lo, hi) = (span.start.max(spans[p].start), span.end.min(spans[p].end));
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut cur: Option<(f64, f64)> = None;
            for &(lo, hi) in kids.iter() {
                match cur {
                    Some((clo, chi)) if lo <= chi => cur = Some((clo, chi.max(hi))),
                    _ => {
                        if let Some((clo, chi)) = cur {
                            covered += chi - clo;
                        }
                        cur = Some((lo, hi));
                    }
                }
            }
            if let Some((clo, chi)) = cur {
                covered += chi - clo;
            }
            (span.duration() - covered).max(0.0)
        })
        .collect()
}

/// The per-layer time of the spans named `name`, in milliseconds: the
/// median duration per kind, geometric-meaned over kinds (kernels differ
/// in cost by orders of magnitude). `None` when no such span closed.
pub fn layer_ms(spans: &[Span], name: &str) -> Option<f64> {
    let mut kinds: Vec<&str> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.kind.as_str())
        .collect();
    kinds.sort_unstable();
    kinds.dedup();
    let medians: Vec<f64> = kinds
        .iter()
        .filter_map(|kind| {
            let durations: Vec<f64> = spans
                .iter()
                .filter(|s| s.name == name && s.kind == *kind)
                .map(|s| s.duration() * 1e3)
                .collect();
            stats::median(&durations)
        })
        .collect();
    stats::geomean(&medians)
}

/// The spans as one JSON document (a list of objects, self time included).
pub fn to_json(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::from("[\n");
    for (i, (s, self_s)) in spans.iter().zip(selfs).enumerate() {
        let _ = writeln!(
            out,
            "  {{\"id\": {i}, \"name\": \"{}\", \"kind\": \"{}\", \"start_us\": {:.1}, \"end_us\": {:.1}, \"self_us\": {:.1}, \"parent\": {}, \"request\": {}}}{}",
            s.name,
            s.kind,
            s.start * 1e6,
            s.end * 1e6,
            self_s * 1e6,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.request.map_or("null".to_string(), |r| r.to_string()),
            if i + 1 == spans.len() { "" } else { "," },
        );
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            kind: String::new(),
            start,
            end,
            parent,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("root", 0.0, 10.0, None),
            // Two overlapping children (parallel threads): union is [1, 5].
            span("a", 1.0, 4.0, Some(0)),
            span("b", 2.0, 5.0, Some(0)),
            // A disjoint child [7, 8].
            span("c", 7.0, 8.0, Some(0)),
            // A grandchild only reduces its own parent.
            span("d", 7.2, 7.7, Some(3)),
        ];
        let selfs = self_times(&spans);
        let expect = [10.0 - 4.0 - 1.0, 3.0, 3.0, 1.0 - 0.5, 0.5];
        for (got, want) in selfs.iter().zip(expect) {
            assert!((got - want).abs() < 1e-12, "{selfs:?}");
        }
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let spans = vec![
            span("root", 0.0, 2.0, None),
            span("late", 1.5, 3.0, Some(0)),
        ];
        let selfs = self_times(&spans);
        assert!((selfs[0] - 1.5).abs() < 1e-12, "{selfs:?}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let g = t.span("x", "", None);
        assert_eq!(g.id(), None);
        drop(g);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_nest_through_parent_ids() {
        let t = Tracer::new(true);
        let outer = t.span("outer", "k", None);
        let inner = t.time("inner", "k", outer.id(), || 7);
        assert_eq!(inner, 7);
        outer.end();
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
    }

    #[test]
    fn layer_ms_is_geomean_of_per_kind_medians() {
        let mut spans = Vec::new();
        for (kind, ds) in [("a", [1.0, 2.0, 3.0]), ("b", [4.0, 4.0, 100.0])] {
            for d in ds {
                spans.push(Span {
                    name: "l",
                    kind: kind.into(),
                    start: 0.0,
                    end: d / 1e3,
                    parent: None,
                    request: None,
                });
            }
        }
        // medians 2 ms and 4 ms → geomean sqrt(8)
        let got = layer_ms(&spans, "l").unwrap();
        assert!((got - 8f64.sqrt()).abs() < 1e-9, "{got}");
        assert_eq!(layer_ms(&spans, "missing"), None);
    }
}
