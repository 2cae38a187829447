//! Seeded lock-order violations: a two-lock cycle (one edge direct, one
//! through a cross-file helper) and blocking I/O behind a lock.

use super::membership::refresh_peers;

pub struct Inner;

/// Direct edge: acquires `store` with `peers` held.
pub fn worker_loop(inner: &Inner) {
    let peers = inner.peers.lock();
    inner.store.lock().touch(1);
    peers.mark();
}

/// Interprocedural edge: calls a helper that acquires `peers` while
/// `store` is held — closing the cycle.
pub fn flush_backlog(inner: &Inner) {
    let store = inner.store.lock();
    refresh_peers(inner);
    store.mark();
}

/// Blocking I/O with a lock held: every request on `trace` waits out
/// the socket write behind it.
pub fn deliver(inner: &Inner, sock: &mut TcpStream) {
    let trace = inner.trace.lock();
    sock.write_all(trace.frame());
}

/// The intended exception: group commit fsyncs under the log lock by
/// design, waived with a reasoned allow.
pub fn persist(inner: &Inner, file: &mut File) {
    let log = inner.log.lock();
    log.stage_all();
    // bh-lint: allow(lock-order, reason = "group commit: only the flush tick takes the log lock, so nothing queues behind the fsync")
    file.sync_all();
}

/// Negative control: a wrapper delegating to a same-named method two
/// levels down (`Shards::purge` → `Cache::purge` → `Bank::purge`). Name
/// resolution leads from `Cache::purge` back to `Shards::purge`; that is
/// the chain seen from below, not the shard lock re-acquired under itself.
impl Shards {
    pub fn purge(&self, location: u64) -> usize {
        let shard = self.shards.lock();
        shard.purge(location)
    }
}

impl Cache {
    pub fn purge(&mut self, location: u64) -> usize {
        self.bank.purge(0, location)
    }
}

impl Bank {
    pub fn purge(&mut self, node: usize, location: u64) -> usize {
        self.rows[node].retain(|r| r.location != location)
    }
}
