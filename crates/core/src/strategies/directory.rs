//! CRISP-style centralized directory baseline (§3, related designs).
//!
//! Data lives only at the L1 proxies. A single, centralized directory maps
//! every object to the set of caches holding it; an L1 miss costs a
//! synchronous lookup round trip to the (far-away) directory before the
//! request can proceed to a peer or the server. Every copy added or
//! dropped anywhere sends an update to the directory — the load Table 5
//! compares against the filtering hierarchy.

use super::{RequestCtx, Strategy};
use crate::metrics::Metrics;
use crate::outcome::AccessPath;
use crate::topology::{NodeIdx, NodeSet, Topology};
use bh_cache::{LruCache, PreMixed};
use bh_simcore::ByteSize;
use std::collections::HashMap;

#[derive(Debug, Default)]
struct DirEntry {
    version: u32,
    holders: NodeSet,
}

/// The centralized-directory strategy.
#[derive(Debug)]
pub struct CentralDirectory {
    topo: Topology,
    caches: Vec<LruCache<PreMixed>>,
    directory: HashMap<u64, DirEntry, PreMixed>,
    updates: u64,
}

impl CentralDirectory {
    /// Builds the system with `node_capacity` bytes per L1.
    pub fn new(topo: Topology, node_capacity: ByteSize) -> Self {
        CentralDirectory {
            caches: (0..topo.l1_count())
                .map(|_| LruCache::with_hasher(node_capacity, PreMixed::default()))
                .collect(),
            directory: HashMap::default(),
            updates: 0,
            topo,
        }
    }

    /// Updates the directory received so far (each add or drop is one).
    pub fn update_count(&self) -> u64 {
        self.updates
    }

    fn insert_copy(&mut self, node: NodeIdx, key: u64, size: ByteSize, version: u32) {
        let Self {
            caches,
            directory,
            updates,
            ..
        } = self;
        let cache = &mut caches[node as usize];
        cache.insert_value(key, size, version, (), |e| {
            drop_holder(directory, updates, e.key, node);
        });
        if cache.peek(key).is_some() && directory.entry(key).or_default().holders.insert(node) {
            *updates += 1;
        }
    }
}

/// Drops `node` from `key`'s holders: one directory update if it was one.
fn drop_holder(
    directory: &mut HashMap<u64, DirEntry, PreMixed>,
    updates: &mut u64,
    key: u64,
    node: NodeIdx,
) {
    if directory
        .get_mut(&key)
        .is_some_and(|e| e.holders.remove(node))
    {
        *updates += 1;
    }
}

impl Strategy for CentralDirectory {
    fn on_request(&mut self, ctx: &RequestCtx) -> AccessPath {
        let node = ctx.l1;
        // Version bump: the directory (which sees all consistency traffic)
        // invalidates every copy.
        let stale_holders = match self.directory.get_mut(&ctx.key) {
            Some(e) if ctx.version > e.version => {
                e.version = ctx.version;
                std::mem::take(&mut e.holders)
            }
            Some(_) => NodeSet::new(),
            None => {
                self.directory.insert(
                    ctx.key,
                    DirEntry {
                        version: ctx.version,
                        holders: NodeSet::new(),
                    },
                );
                NodeSet::new()
            }
        };
        for h in stale_holders.iter() {
            self.caches[h as usize].remove(ctx.key);
            self.updates += 1;
        }

        if self.caches[node as usize]
            .get(ctx.key, ctx.version)
            .is_some()
        {
            return AccessPath::L1Hit;
        }
        // The local copy may have just been invalidated by the get().
        if self.caches[node as usize].peek(ctx.key).is_none() {
            drop_holder(&mut self.directory, &mut self.updates, ctx.key, node);
        }

        // Synchronous directory lookup: pick the nearest fresh holder, a
        // peer since the requester's own copy was just dropped.
        let holders = &self.directory[&ctx.key].holders;
        debug_assert!(!holders.contains(node), "a holder missed locally");
        let outcome = match self.topo.nearest_holder(node, holders) {
            Some(peer) => {
                debug_assert!(self.caches[peer as usize].contains_fresh(ctx.key, ctx.version));
                AccessPath::DirectoryRemoteHit {
                    distance: self.topo.distance(node, peer),
                }
            }
            None => AccessPath::DirectoryServerFetch,
        };
        self.insert_copy(node, ctx.key, ctx.size, ctx.version);
        outcome
    }

    fn name(&self) -> &'static str {
        "central-directory"
    }

    fn finalize(&mut self, metrics: &mut Metrics) {
        metrics.directory_updates = self.updates;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_netmodel::RemoteDistance;
    use bh_simcore::SimTime;
    use bh_trace::WorkloadSpec;

    fn ctx(l1: u32, key: u64, version: u32) -> RequestCtx {
        RequestCtx {
            time: SimTime::ZERO,
            client: bh_trace::ClientId(l1 * 256),
            l1,
            key,
            size: ByteSize::from_kb(10),
            version,
        }
    }

    fn system() -> CentralDirectory {
        CentralDirectory::new(Topology::from_spec(&WorkloadSpec::small()), ByteSize::MAX)
    }

    #[test]
    fn miss_then_remote_hits() {
        let mut d = system();
        assert_eq!(
            d.on_request(&ctx(0, 9, 0)),
            AccessPath::DirectoryServerFetch
        );
        assert_eq!(d.on_request(&ctx(0, 9, 0)), AccessPath::L1Hit);
        assert_eq!(
            d.on_request(&ctx(1, 9, 0)),
            AccessPath::DirectoryRemoteHit {
                distance: RemoteDistance::SameL2
            }
        );
        // Holders are nodes 0 and 1 (L2 group 0); node 3 is in group 1.
        assert_eq!(
            d.on_request(&ctx(3, 9, 0)),
            AccessPath::DirectoryRemoteHit {
                distance: RemoteDistance::SameL3
            }
        );
    }

    #[test]
    fn nearest_copy_preferred() {
        let mut d = system();
        d.on_request(&ctx(0, 5, 0)); // server fetch, node 0 holds
        d.on_request(&ctx(3, 5, 0)); // L3-distance remote hit, node 3 holds
                                     // Node 2 shares L2 with node 3 → SameL2 now available.
        assert_eq!(
            d.on_request(&ctx(2, 5, 0)),
            AccessPath::DirectoryRemoteHit {
                distance: RemoteDistance::SameL2
            }
        );
    }

    #[test]
    fn version_bump_invalidates_and_counts_updates() {
        let mut d = system();
        d.on_request(&ctx(0, 5, 0));
        let before = d.update_count();
        assert_eq!(
            d.on_request(&ctx(1, 5, 2)),
            AccessPath::DirectoryServerFetch
        );
        assert!(
            d.update_count() > before,
            "invalidation must notify the directory"
        );
    }

    #[test]
    fn updates_counted_for_adds_and_evictions() {
        let topo = Topology::from_spec(&WorkloadSpec::small());
        let mut d = CentralDirectory::new(topo, ByteSize::from_kb(20));
        d.on_request(&ctx(0, 1, 0));
        d.on_request(&ctx(0, 2, 0));
        let adds_only = d.update_count();
        assert_eq!(adds_only, 2);
        d.on_request(&ctx(0, 3, 0)); // evicts key 1: one add + one drop
        assert_eq!(d.update_count(), 4);
    }

    #[test]
    fn finalize_exports_counter() {
        let mut d = system();
        d.on_request(&ctx(0, 1, 0));
        let mut m = Metrics::new(&[]);
        d.finalize(&mut m);
        assert_eq!(m.directory_updates, 1);
    }
}
