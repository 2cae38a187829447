//! Spans recorded by the traced run, from the benchmark's own files:
//! around each request, each flush, each round, and each timed batch of
//! calls into a layer. They stay in memory until the workload ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Index of a span in its [`Recorder`]; [`NO_PARENT`] marks a root.
pub type SpanId = u32;

/// The parent of a root span.
pub const NO_PARENT: SpanId = u32::MAX;

/// One timed interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `client.request` or `wire.encode_get`.
    pub name: &'static str,
    /// Start, [`crate::clock::now_ns`] scale.
    pub start_ns: u64,
    /// End, same scale.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: SpanId,
    /// Operation identifier: the request index for `client.request`, the
    /// batch index for a timed batch.
    pub op: u64,
    /// Calls the interval covers (1 for a request; the batch size for a
    /// timed batch, because a clock read costs as much as the cheapest
    /// calls being timed).
    pub calls: u32,
}

impl Span {
    /// `end − start`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span store. A disabled recorder drops everything, so the
/// untraced run pays one branch per span site.
#[derive(Debug, Default)]
pub struct Recorder {
    enabled: bool,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder that keeps spans only when `enabled`.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording on or off (traced runs alternate rounds).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Records one finished span and returns its id.
    pub fn push(&mut self, span: Span) -> SpanId {
        if !self.enabled {
            return NO_PARENT;
        }
        self.spans.push(span);
        (self.spans.len() - 1) as SpanId
    }

    /// Opens a span whose end is not known yet; close it with
    /// [`Recorder::close`]. Children recorded meanwhile name it as parent.
    pub fn open(&mut self, name: &'static str, start_ns: u64, parent: SpanId, op: u64) -> SpanId {
        self.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
            calls: 1,
        })
    }

    /// Sets the end of a span opened with [`Recorder::open`].
    pub fn close(&mut self, id: SpanId, end_ns: u64) {
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = end_ns;
        }
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != NO_PARENT {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            let Some(kids) = children.get_mut(&(id as SpanId)) else {
                return s.duration_ns();
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans with this name.
    pub spans: u64,
    /// Calls they cover.
    pub calls: u64,
    /// Σ duration.
    pub total_ns: u64,
    /// Σ self time.
    pub self_ns: u64,
}

/// Totals per span name, sorted by name.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.spans += 1;
        t.calls += u64::from(s.calls);
        t.total_ns += s.duration_ns();
        t.self_ns += self_ns;
    }
    out
}

/// Most spans written out individually; the summary always covers all.
pub const MAX_SPANS_WRITTEN: usize = 20_000;

/// Renders the trace artifact. Request spans are by far the most numerous,
/// so the span list keeps every other span and as many request spans as
/// fit under [`MAX_SPANS_WRITTEN`]; the summary is over everything.
pub fn render_trace_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans_recorded\": {}, \"summary\": [",
        spans.len()
    );
    for (i, (name, t)) in summarize(spans).iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}{{\"name\": \"{name}\", \"spans\": {}, \"calls\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
            t.spans, t.calls, t.total_ns, t.self_ns
        );
    }
    out.push_str("], \"spans\": [");
    let other = spans.iter().filter(|s| s.name != "client.request").count();
    let mut request_budget = MAX_SPANS_WRITTEN.saturating_sub(other);
    let mut first = true;
    for (id, s) in spans.iter().enumerate() {
        if s.name == "client.request" {
            if request_budget == 0 {
                continue;
            }
            request_budget -= 1;
        }
        let sep = if first { "" } else { ", " };
        first = false;
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        let _ = write!(
            out,
            "{sep}\n{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}, \"calls\": {}}}",
            s.name, s.start_ns, s.end_ns, s.op, s.calls
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: SpanId) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
            calls: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            span("root", 0, 100, NO_PARENT),
            span("a", 10, 30, 0),
            // Overlaps `a` on 20..30: the union 10..50 covers 40 ns.
            span("b", 20, 50, 0),
            // Sticks out past the parent: only 90..100 counts.
            span("c", 90, 120, 0),
            span("leaf", 12, 18, 1),
        ];
        assert_eq!(self_times(&spans), vec![50, 14, 30, 30, 6]);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut r = Recorder::new(false);
        assert_eq!(r.push(span("x", 0, 1, NO_PARENT)), NO_PARENT);
        assert!(r.spans().is_empty());
        r.set_enabled(true);
        let id = r.open("round", 5, NO_PARENT, 0);
        r.push(span("x", 6, 8, id));
        r.close(id, 10);
        assert_eq!(r.spans()[0].duration_ns(), 5);
        assert_eq!(self_times(r.spans()), vec![3, 2]);
    }

    #[test]
    fn summary_totals_calls_and_time() {
        let mut batch = span("wire.encode_get", 0, 1_000, NO_PARENT);
        batch.calls = 100;
        let spans = [batch, span("wire.encode_get", 2_000, 2_050, NO_PARENT)];
        let sum = summarize(&spans);
        assert_eq!(
            sum["wire.encode_get"],
            NameTotals {
                spans: 2,
                calls: 101,
                total_ns: 1_050,
                self_ns: 1_050
            }
        );
    }

    #[test]
    fn trace_json_caps_request_spans_only() {
        let mut spans = vec![span("bench.round", 0, 10, NO_PARENT)];
        spans
            .extend((0..MAX_SPANS_WRITTEN as u64 + 5).map(|i| span("client.request", i, i + 1, 0)));
        let json = render_trace_json("local_hit", 7, &spans);
        assert_eq!(json.matches("\"id\":").count(), MAX_SPANS_WRITTEN);
        assert!(json.contains("\"spans_recorded\": 20006"));
        assert!(json.contains("\"name\": \"bench.round\", \"spans\": 1"));
    }
}
