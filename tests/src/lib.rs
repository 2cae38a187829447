//! Cross-crate integration tests for the Beyond Hierarchies reproduction.
//!
//! The tests live in `tests/`; this library holds what several of them
//! share.

use bh_proto::node::NodeConfig;
use std::time::Duration;

/// Fast failure detection, manual flush/heartbeat driving (both timers an
/// hour apart) and bounded teardown: the node tuning the chaos tests share.
pub fn tuned(c: NodeConfig) -> NodeConfig {
    let mut c = c
        .with_flush_max(Duration::from_secs(3600))
        .with_heartbeat_interval(Duration::from_secs(3600))
        .with_suspicion_threshold(2)
        .with_confirm_death_after(Duration::from_millis(100))
        .with_shutdown_deadline(Duration::from_secs(2));
    c.io_timeout = Duration::from_millis(500);
    c
}
