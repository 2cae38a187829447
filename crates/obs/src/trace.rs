//! Structured event tracing: a fixed-capacity ring of `Copy` records.
//!
//! The ring never allocates after construction; recording overwrites the
//! oldest entry once full. Timestamps are supplied by the caller — the
//! ring itself never reads a clock, so deterministic code can pass
//! simulated time and stay `bh-lint` clean, while live nodes pass
//! `started.elapsed()` micros.

/// One trace record. 26 bytes on the wire (`ts` + `kind` + `a` + `b`),
/// `Copy`, encoded without allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Microseconds since the owning component started (caller-supplied).
    pub ts_micros: u64,
    /// Span kind — one of the [`span`] constants, or app-defined.
    pub kind: u16,
    /// First operand (conventionally the object key).
    pub a: u64,
    /// Second operand (kind-specific: outcome code, batch size, ...).
    pub b: u64,
}

/// Span-kind constants for the request-service and hint-propagation
/// paths, plus a stable name table for renderers.
pub mod span {
    /// Request received (`a` = object key).
    pub const RECV: u16 = 1;
    /// Hint-cache lookup (`a` = key, `b` = 1 if a hint was found).
    pub const HINT_LOOKUP: u16 = 2;
    /// Peer probe issued (`a` = key, `b` = outcome: 0 hit, 1 false
    /// positive, 2 transport failure).
    pub const PEER_PROBE: u16 = 3;
    /// Origin fetch (`a` = key, `b` = status code).
    pub const ORIGIN_FETCH: u16 = 4;
    /// Reply written (`a` = key, `b` = served-by code).
    pub const REPLY: u16 = 5;
    /// Served from the local store (`a` = key).
    pub const LOCAL_HIT: u16 = 6;
    /// Hint-propagation batch flushed (`a` = records, `b` = targets).
    pub const FLUSH_BATCH: u16 = 7;
    /// `Get` rejected by admission control (`a` = key, `b` = queue depth
    /// at rejection).
    pub const ADMISSION_REJECT: u16 = 8;
    /// A node's parked `Get`s crossed the admission mark (`a` = parked
    /// depth, `b` = the mark). One per saturation episode.
    pub const QUEUE_SATURATION: u16 = 9;

    /// Human-readable name for a span kind.
    pub fn name(kind: u16) -> &'static str {
        match kind {
            RECV => "recv",
            HINT_LOOKUP => "hint-lookup",
            PEER_PROBE => "peer-probe",
            ORIGIN_FETCH => "origin-fetch",
            REPLY => "reply",
            LOCAL_HIT => "local-hit",
            FLUSH_BATCH => "flush-batch",
            ADMISSION_REJECT => "admission-reject",
            QUEUE_SATURATION => "queue-saturation",
            _ => "unknown",
        }
    }
}

/// Fixed-capacity ring buffer of [`TraceEvent`]s.
#[derive(Debug)]
pub struct TraceRing {
    buf: Vec<TraceEvent>,
    cap: usize,
    /// Write cursor once the ring is full; the oldest record lives here.
    next: usize,
    total: u64,
}

impl TraceRing {
    /// A ring holding up to `capacity` records (minimum 1). The backing
    /// store is allocated once, up front.
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(1);
        TraceRing {
            buf: Vec::with_capacity(cap),
            cap,
            next: 0,
            total: 0,
        }
    }

    /// Records one event, overwriting the oldest once full. Never
    /// allocates after the ring has filled.
    #[inline]
    pub fn record(&mut self, ev: TraceEvent) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.next] = ev;
            self.next = (self.next + 1) % self.cap;
        }
        self.total += 1;
    }

    /// Retained records, oldest first.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.next..]);
        out.extend_from_slice(&self.buf[..self.next]);
        out
    }

    /// Number of records currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total records ever recorded (including overwritten ones).
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    /// Maximum number of retained records.
    pub fn capacity(&self) -> usize {
        self.cap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: u64) -> TraceEvent {
        TraceEvent {
            ts_micros: i,
            kind: span::RECV,
            a: i,
            b: 0,
        }
    }

    #[test]
    fn fills_then_wraps_keeping_newest() {
        let mut ring = TraceRing::new(3);
        for i in 0..5 {
            ring.record(ev(i));
        }
        let got: Vec<u64> = ring.snapshot().iter().map(|e| e.a).collect();
        assert_eq!(got, [2, 3, 4]);
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.total_recorded(), 5);
    }

    #[test]
    fn partial_fill_preserves_order() {
        let mut ring = TraceRing::new(8);
        for i in 0..3 {
            ring.record(ev(i));
        }
        let got: Vec<u64> = ring.snapshot().iter().map(|e| e.a).collect();
        assert_eq!(got, [0, 1, 2]);
    }

    #[test]
    fn wrap_exactly_at_capacity_boundary() {
        let mut ring = TraceRing::new(2);
        ring.record(ev(0));
        ring.record(ev(1));
        assert_eq!(
            ring.snapshot().iter().map(|e| e.a).collect::<Vec<_>>(),
            [0, 1]
        );
        ring.record(ev(2));
        assert_eq!(
            ring.snapshot().iter().map(|e| e.a).collect::<Vec<_>>(),
            [1, 2]
        );
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut ring = TraceRing::new(0);
        ring.record(ev(1));
        ring.record(ev(2));
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.snapshot()[0].a, 2);
    }

    #[test]
    fn span_names_are_stable() {
        assert_eq!(span::name(span::RECV), "recv");
        assert_eq!(span::name(span::FLUSH_BATCH), "flush-batch");
        assert_eq!(span::name(999), "unknown");
    }
}
