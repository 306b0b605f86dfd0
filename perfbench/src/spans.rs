//! Spans recorded around the benchmark's own calls into each layer.
//!
//! A traced run wraps every call into a layer in [`Tracer::span`], keeps
//! the spans in memory and writes them out when the run ends. An untraced
//! run uses a disabled tracer, which reads no clock and records nothing,
//! so end-to-end numbers carry no tracing cost.

use std::cell::RefCell;
use std::time::Instant;

/// One timed call. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, such as `core.pretrain`.
    pub name: String,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// An in-memory span recorder for one run.
pub struct Tracer {
    enabled: bool,
    run_id: String,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A recorder; `enabled = false` makes [`Tracer::span`] a plain call.
    pub fn new(enabled: bool, run_id: &str) -> Tracer {
        Tracer {
            enabled,
            run_id: run_id.to_string(),
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let parent = self.stack.borrow().last().copied();
        let start_ns = self.now_ns();
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name: name.to_string(),
                start_ns,
                end_ns: start_ns,
                parent,
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(id);
        let out = f();
        self.stack.borrow_mut().pop();
        let end_ns = self.now_ns();
        if let Some(span) = self.spans.borrow_mut().get_mut(id) {
            span.end_ns = end_ns;
        }
        out
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Durations in seconds of every span called `name`, in call order.
    pub fn seconds(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 / 1e9)
            .collect()
    }

    /// The recorded spans as a JSON document with each span's self time.
    pub fn to_json(&self) -> String {
        let spans = self.spans.borrow();
        let rows: Vec<String> = spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    r#"{{"id":{id},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"run":"{}","self_ns":{}}}"#,
                    adec_obs::json::escape(&s.name),
                    s.start_ns,
                    s.end_ns,
                    adec_obs::json::escape(&self.run_id),
                    self_time_ns(&spans, id),
                )
            })
            .collect();
        format!("{{\"spans\":[\n{}\n]}}\n", rows.join(",\n"))
    }
}

/// Self time of span `id`: its duration minus the union of its direct
/// children's intervals, each clipped to the span. Overlapping children
/// are counted once.
pub fn self_time_ns(spans: &[Span], id: usize) -> u64 {
    let Some(span) = spans.get(id) else {
        return 0;
    };
    let (lo, hi) = (span.start_ns, span.end_ns.max(span.start_ns));
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|c| c.parent == Some(id))
        .map(|c| (c.start_ns.clamp(lo, hi), c.end_ns.clamp(lo, hi)))
        .filter(|(s, e)| e > s)
        .collect();
    children.sort_unstable();
    let mut covered = 0u64;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in children {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = current {
        covered += ce - cs;
    }
    (hi - lo) - covered
}

/// Mean cost in ns of opening and closing one span, measured on a
/// scratch recorder; the traced run multiplies it by its span count to
/// report its own overhead.
pub fn span_cost_ns() -> f64 {
    const N: usize = 20_000;
    let scratch = Tracer::new(true, "calibration");
    let t0 = Instant::now();
    for _ in 0..N {
        scratch.span("calibration", || std::hint::black_box(0u8));
    }
    t0.elapsed().as_nanos() as f64 / N as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 50, 90, Some(0)),
            span("a.inner", 12, 20, Some(1)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 20 - 40);
        assert_eq!(self_time_ns(&spans, 1), 20 - 8);
        assert_eq!(self_time_ns(&spans, 3), 8);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("x", 10, 60, Some(0)),
            span("y", 40, 70, Some(0)),
            span("z", 65, 80, Some(0)),
        ];
        // Union of children is [10, 80].
        assert_eq!(self_time_ns(&spans, 0), 30);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![span("root", 20, 50, None), span("late", 40, 90, Some(0))];
        assert_eq!(self_time_ns(&spans, 0), 20);
        assert_eq!(self_time_ns(&spans, 7), 0);
    }

    #[test]
    fn recorder_nests_and_serializes() {
        let t = Tracer::new(true, "run-1");
        let v = t.span("outer", || t.span("inner", || 7));
        assert_eq!(v, 7);
        assert_eq!(t.len(), 2);
        let spans = t.spans.borrow().clone();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(t.seconds("inner").len(), 1);
        let doc = adec_obs::json::Json::parse(&t.to_json()).expect("span JSON parses");
        let arr = doc
            .get("spans")
            .and_then(|s| s.as_arr())
            .expect("spans array");
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[1].get("parent").and_then(|p| p.as_u64()), Some(0));
        assert_eq!(arr[0].get("run").and_then(|r| r.as_str()), Some("run-1"));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let t = Tracer::new(false, "off");
        assert_eq!(t.span("x", || 3), 3);
        assert_eq!(t.len(), 0);
        assert!(span_cost_ns() > 0.0);
    }
}
