//! The traditional three-level data-cache hierarchy (§2.1) — the baseline.
//!
//! Requests climb L1 → L2 → L3 → server; data flows back down the same
//! path, and **every cache along the path stores a copy** (hierarchical
//! double caching). Hits at high levels pay store-and-forward costs for
//! every traversed level; misses pay the full traversal before even
//! reaching the server — the two behaviours the paper's design principles
//! single out.

use super::{RequestCtx, Strategy};
use crate::outcome::AccessPath;
use crate::topology::Topology;
use bh_cache::{LruCache, PreMixed};
use bh_netmodel::Level;
use bh_simcore::ByteSize;

/// The Harvest/Squid-style data hierarchy.
#[derive(Debug)]
pub struct DataHierarchy {
    topo: Topology,
    l1: Vec<LruCache<PreMixed>>,
    l2: Vec<LruCache<PreMixed>>,
    l3: LruCache<PreMixed>,
}

impl DataHierarchy {
    /// Builds the hierarchy with `node_capacity` bytes at every node
    /// (the paper's space-constrained runs give each node 5 GB).
    pub fn new(topo: Topology, node_capacity: ByteSize) -> Self {
        DataHierarchy {
            l1: (0..topo.l1_count())
                .map(|_| LruCache::with_hasher(node_capacity, PreMixed::default()))
                .collect(),
            l2: (0..topo.l2_count())
                .map(|_| LruCache::with_hasher(node_capacity, PreMixed::default()))
                .collect(),
            l3: LruCache::with_hasher(node_capacity, PreMixed::default()),
            topo,
        }
    }

    /// Read access to an L1 cache (for tests and inspection).
    pub fn l1_cache(&self, idx: usize) -> &LruCache<PreMixed> {
        &self.l1[idx]
    }

    /// Read access to the root cache.
    pub fn l3_cache(&self) -> &LruCache<PreMixed> {
        &self.l3
    }
}

impl Strategy for DataHierarchy {
    fn on_request(&mut self, ctx: &RequestCtx) -> AccessPath {
        let l1 = ctx.l1 as usize;
        let l2 = self.topo.l2_of(ctx.l1) as usize;

        if self.l1[l1].get(ctx.key, ctx.version).is_some() {
            return AccessPath::L1Hit;
        }
        if self.l2[l2].get(ctx.key, ctx.version).is_some() {
            // Data flows down; the L1 caches a copy.
            self.l1[l1].insert(ctx.key, ctx.size, ctx.version);
            return AccessPath::HierarchyHit(Level::L2);
        }
        if self.l3.get(ctx.key, ctx.version).is_some() {
            self.l2[l2].insert(ctx.key, ctx.size, ctx.version);
            self.l1[l1].insert(ctx.key, ctx.size, ctx.version);
            return AccessPath::HierarchyHit(Level::L3);
        }
        // Full miss: fetched through the hierarchy from the server, cached
        // at every level on the way down.
        self.l3.insert(ctx.key, ctx.size, ctx.version);
        self.l2[l2].insert(ctx.key, ctx.size, ctx.version);
        self.l1[l1].insert(ctx.key, ctx.size, ctx.version);
        AccessPath::HierarchyMiss
    }

    fn name(&self) -> &'static str {
        "data-hierarchy"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn hierarchy() -> DataHierarchy {
        // small(): 4 L1 groups, 2 L1s per L2.
        DataHierarchy::new(Topology::from_spec(&WorkloadSpec::small()), ByteSize::MAX)
    }

    #[test]
    fn miss_then_progressively_closer_hits() {
        let mut h = hierarchy();
        // First access anywhere: full miss.
        assert_eq!(h.on_request(&ctx(0, 42, 0)), AccessPath::HierarchyMiss);
        // Same node again: L1 hit.
        assert_eq!(h.on_request(&ctx(0, 42, 0)), AccessPath::L1Hit);
        // Sibling under the same L2: L2 hit.
        assert_eq!(
            h.on_request(&ctx(1, 42, 0)),
            AccessPath::HierarchyHit(Level::L2)
        );
        // And now that sibling has it locally.
        assert_eq!(h.on_request(&ctx(1, 42, 0)), AccessPath::L1Hit);
        // Node in a different L2 group: L3 hit.
        assert_eq!(
            h.on_request(&ctx(2, 42, 0)),
            AccessPath::HierarchyHit(Level::L3)
        );
    }

    #[test]
    fn version_bump_invalidates_whole_path() {
        let mut h = hierarchy();
        h.on_request(&ctx(0, 7, 0));
        assert_eq!(h.on_request(&ctx(0, 7, 0)), AccessPath::L1Hit);
        // The object was modified: every cached copy is stale.
        assert_eq!(h.on_request(&ctx(0, 7, 1)), AccessPath::HierarchyMiss);
        assert_eq!(h.on_request(&ctx(0, 7, 1)), AccessPath::L1Hit);
    }

    #[test]
    fn copies_at_every_level_consume_space() {
        let mut h = hierarchy();
        h.on_request(&ctx(0, 1, 0));
        assert_eq!(h.l1_cache(0).len(), 1);
        assert_eq!(h.l3_cache().len(), 1);
    }

    #[test]
    fn capacity_pressure_evicts_lru_at_l1() {
        let topo = Topology::from_spec(&WorkloadSpec::small());
        let mut h = DataHierarchy::new(topo, ByteSize::from_kb(20));
        h.on_request(&ctx(0, 1, 0));
        h.on_request(&ctx(0, 2, 0));
        h.on_request(&ctx(0, 3, 0)); // evicts 1 from L1 (and L2/L3 similarly)
        assert_eq!(h.l1_cache(0).len(), 2);
        assert!(h.l1_cache(0).peek(1).is_none());
    }
}
