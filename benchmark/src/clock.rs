//! The benchmark's only clock. Every timing in this package goes through
//! [`now_ns`], so `bh-lint` has exactly one wall-clock site to waive.

use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process (monotonic).
pub fn now_ns() -> u64 {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    // bh-lint: allow(no-wall-clock, reason = "the benchmark's product is measured time; this is its single clock site")
    let now = Instant::now();
    now.duration_since(*ANCHOR.get_or_init(|| now)).as_nanos() as u64
}

/// Seconds between two [`now_ns`] readings.
pub fn secs_between(start_ns: u64, end_ns: u64) -> f64 {
    end_ns.saturating_sub(start_ns) as f64 / 1e9
}
