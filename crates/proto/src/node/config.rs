//! What a [`super::CacheNode`] is spawned with: addresses, capacities,
//! thread counts and the timer periods of its control plane.

use bh_simcore::ByteSize;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Duration;

/// Configuration for a [`super::CacheNode`].
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Address to bind (port 0 for ephemeral).
    pub bind: String,
    /// The origin server to fall back to.
    pub origin: SocketAddr,
    /// Neighbor caches that receive this node's hint-update batches
    /// (flat/mesh propagation); seeds [`super::Wiring::neighbors`] at spawn.
    pub neighbors: Vec<SocketAddr>,
    /// Data-cache capacity.
    pub data_capacity: ByteSize,
    /// Hint-store capacity (16-byte records, 4-way sets).
    pub hint_capacity: ByteSize,
    /// Upper bound of the randomized update-flush period. The paper uses
    /// 60 s; tests use milliseconds.
    pub flush_max: Duration,
    /// I/O timeout for peer and origin connections.
    pub io_timeout: Duration,
    /// Epoll shard threads (min 1).
    pub shards: usize,
    /// Worker threads servicing `Get` requests (min 1).
    pub workers: usize,
    /// Interval between liveness heartbeats to each neighbor.
    pub heartbeat_interval: Duration,
    /// Consecutive failed heartbeats before a neighbor becomes suspect.
    pub suspicion_threshold: u32,
    /// How long a neighbor must stay suspect (measured from the first
    /// failure of the streak) before it is confirmed dead and standing
    /// state — stale hints, Plaxton table entries — is repaired.
    pub confirm_death_after: Duration,
    /// Upper bound on how long `shutdown`/drop waits for node threads to
    /// unwind before detaching the stragglers.
    pub shutdown_deadline: Duration,
    /// When set, hint-store mutations are mirrored to a crash-safe
    /// append-only log in this directory (the [`bh_hintlog`] crate) and a
    /// warm restart replays it at spawn — recovering the hint table
    /// without a network-wide [`super::CacheNode::resync`]. `None` (the
    /// default) keeps the hint store purely in-memory.
    pub durability_dir: Option<PathBuf>,
}

impl NodeConfig {
    /// A config with the paper's defaults, ephemeral port, no neighbors.
    pub fn new(bind: impl Into<String>, origin: SocketAddr) -> Self {
        NodeConfig {
            bind: bind.into(),
            origin,
            // bh-lint: allow(no-hot-alloc, reason = "config construction runs once per node, not per request")
            neighbors: Vec::new(),
            data_capacity: ByteSize::from_mb(64),
            hint_capacity: ByteSize::from_mb(4),
            flush_max: Duration::from_secs(60),
            io_timeout: Duration::from_secs(5),
            shards: 2,
            workers: 8,
            heartbeat_interval: Duration::from_secs(1),
            suspicion_threshold: 3,
            confirm_death_after: Duration::from_secs(30),
            shutdown_deadline: Duration::from_secs(5),
            durability_dir: None,
        }
    }

    /// Sets the neighbor list.
    pub fn with_neighbors(mut self, neighbors: Vec<SocketAddr>) -> Self {
        self.neighbors = neighbors;
        self
    }

    /// Sets the flush period bound.
    pub fn with_flush_max(mut self, d: Duration) -> Self {
        self.flush_max = d;
        self
    }

    /// Sets the data capacity.
    pub fn with_data_capacity(mut self, c: ByteSize) -> Self {
        self.data_capacity = c;
        self
    }

    /// Sets the epoll shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Sets the `Get` worker-pool size.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the liveness heartbeat interval.
    pub fn with_heartbeat_interval(mut self, d: Duration) -> Self {
        self.heartbeat_interval = d;
        self
    }

    /// Sets the suspicion threshold (consecutive failed heartbeats).
    pub fn with_suspicion_threshold(mut self, n: u32) -> Self {
        self.suspicion_threshold = n.max(1);
        self
    }

    /// Sets the death-confirmation window.
    pub fn with_confirm_death_after(mut self, d: Duration) -> Self {
        self.confirm_death_after = d;
        self
    }

    /// Sets the shutdown join deadline.
    pub fn with_shutdown_deadline(mut self, d: Duration) -> Self {
        self.shutdown_deadline = d;
        self
    }

    /// Enables the durable hint log in `dir` (created if missing).
    pub fn with_durability_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.durability_dir = Some(dir.into());
        self
    }
}
