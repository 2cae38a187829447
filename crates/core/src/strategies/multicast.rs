//! ICP-style multicast-query baseline (§3.1.1's contrast case).
//!
//! Instead of maintaining hint state, a cache *polls* its neighbors on
//! demand: on an L1 miss it multicasts a query to nearby caches and waits
//! for the answers before deciding where to go. The paper's argument
//! against this design is that (a) queries add latency to every lookup
//! (hints answer locally), (b) sharing is limited to the queried
//! neighborhood unless searches are staged through multiple hops, and (c)
//! misses are slowed down — the query wait is pure overhead when nobody
//! has the object. This strategy implements the one-level variant (query
//! the L2 siblings, like Squid's ICP): wider sharing would need a second
//! staged query, making misses even slower.

use super::{RequestCtx, Strategy};
use crate::outcome::AccessPath;
use crate::topology::{NodeIdx, Topology};
use bh_cache::{LruCache, PreMixed};
use bh_netmodel::RemoteDistance;
use bh_simcore::ByteSize;

/// The multicast-query strategy. Data lives at L1s only (as in the hint
/// architecture); location is discovered by polling.
#[derive(Debug)]
pub struct IcpMulticast {
    topo: Topology,
    caches: Vec<LruCache<PreMixed>>,
    /// Queries sent (one per polled sibling) — the overhead Table 5's
    /// hint-update counts compare against.
    queries_sent: u64,
}

impl IcpMulticast {
    /// Builds the system with `node_capacity` bytes per L1.
    pub fn new(topo: Topology, node_capacity: ByteSize) -> Self {
        IcpMulticast {
            caches: (0..topo.l1_count())
                .map(|_| LruCache::with_hasher(node_capacity, PreMixed::default()))
                .collect(),
            queries_sent: 0,
            topo,
        }
    }

    /// Total ICP queries sent so far.
    pub fn queries_sent(&self) -> u64 {
        self.queries_sent
    }

    fn poll_siblings(&mut self, l1: NodeIdx, key: u64, version: u32) -> Option<NodeIdx> {
        // The range holds `l1` itself, which is not queried.
        let siblings = self.topo.l2_siblings(l1);
        self.queries_sent += siblings.len() as u64 - 1;
        siblings
            .filter(|&s| s != l1)
            .find(|&s| self.caches[s as usize].contains_fresh(key, version))
    }
}

impl Strategy for IcpMulticast {
    fn on_request(&mut self, ctx: &RequestCtx) -> AccessPath {
        // Consistency: stale local copies invalidate on access.
        if self.caches[ctx.l1 as usize]
            .get(ctx.key, ctx.version)
            .is_some()
        {
            return AccessPath::L1Hit;
        }
        // Multicast to the L2 neighborhood and wait for replies — modeled
        // as a directory-lookup-class round trip added to whatever follows
        // (the pricing happens via the Directory* paths, which carry
        // exactly that extra round trip).
        let outcome = match self.poll_siblings(ctx.l1, ctx.key, ctx.version) {
            Some(peer) => AccessPath::DirectoryRemoteHit {
                distance: self.topo.distance(ctx.l1, peer),
            },
            // Nobody nearby has it: the query wait was wasted, and the
            // request proceeds to the server (sharing beyond the
            // neighborhood is invisible to ICP).
            None => AccessPath::DirectoryServerFetch,
        };
        self.caches[ctx.l1 as usize].insert(ctx.key, ctx.size, ctx.version);
        outcome
    }

    fn name(&self) -> &'static str {
        "icp-multicast"
    }

    fn finalize(&mut self, metrics: &mut crate::metrics::Metrics) {
        metrics.directory_updates = self.queries_sent;
    }
}

/// The neighborhood a multicast reaches: kept for documentation parity
/// with the paper's discussion (one staged hop = the L2 group).
pub const MULTICAST_SCOPE: RemoteDistance = RemoteDistance::SameL2;

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

    fn system() -> IcpMulticast {
        IcpMulticast::new(Topology::from_spec(&WorkloadSpec::small()), ByteSize::MAX)
    }

    #[test]
    fn finds_copies_in_l2_neighborhood_only() {
        let mut m = system();
        assert_eq!(
            m.on_request(&ctx(0, 1, 0)),
            AccessPath::DirectoryServerFetch
        );
        // Sibling (node 1 shares L2 group 0): found by polling.
        assert_eq!(
            m.on_request(&ctx(1, 1, 0)),
            AccessPath::DirectoryRemoteHit {
                distance: RemoteDistance::SameL2
            }
        );
        // Node 2 is in L2 group 1: the copy at nodes 0/1 is invisible.
        assert_eq!(
            m.on_request(&ctx(2, 1, 0)),
            AccessPath::DirectoryServerFetch
        );
    }

    #[test]
    fn multicast_scope_is_the_l2_group() {
        assert_eq!(MULTICAST_SCOPE, RemoteDistance::SameL2);
    }

    #[test]
    fn query_overhead_counted() {
        let mut m = system();
        m.on_request(&ctx(0, 1, 0)); // polls 1 sibling
        m.on_request(&ctx(0, 1, 0)); // local hit: no poll
        m.on_request(&ctx(2, 2, 0)); // polls 1 sibling
        assert_eq!(m.queries_sent(), 2);
    }

    #[test]
    fn version_bump_invalidates() {
        let mut m = system();
        m.on_request(&ctx(0, 1, 0));
        m.on_request(&ctx(1, 1, 0));
        // Version bumps: both copies stale; sibling poll must not return a
        // stale copy.
        assert_eq!(
            m.on_request(&ctx(1, 1, 2)),
            AccessPath::DirectoryServerFetch
        );
    }

    #[test]
    fn multicast_never_beats_hints_on_far_sharing() {
        // Cross-L2 reuse is a guaranteed miss for ICP but a remote hit for
        // hints: run both on the same stream and compare remote hits.
        use crate::strategies::{HintConfig, HintHierarchy};
        let spec = WorkloadSpec::small().with_requests(5_000);
        let topo = Topology::from_spec(&spec);
        let mut icp = IcpMulticast::new(topo.clone(), ByteSize::MAX);
        let mut hints = HintHierarchy::new(topo, HintConfig::default(), 3);
        let (mut icp_remote, mut hint_remote) = (0u64, 0u64);
        for r in bh_trace::TraceGenerator::new(&spec, 3) {
            if !r.is_cacheable() {
                continue;
            }
            let c = RequestCtx {
                time: r.time,
                client: r.client,
                l1: spec.l1_group_of(r.client),
                key: r.object.key(),
                size: r.size,
                version: r.version,
            };
            if matches!(icp.on_request(&c), AccessPath::DirectoryRemoteHit { .. }) {
                icp_remote += 1;
            }
            if matches!(hints.on_request(&c), AccessPath::RemoteHit { .. }) {
                hint_remote += 1;
            }
        }
        assert!(
            hint_remote > icp_remote,
            "hints ({hint_remote}) must find more remote copies than ICP ({icp_remote})"
        );
    }
}
