//! The default simulated topology (§2.2.3): 256 clients per L1 proxy,
//! 8 L1s per L2, one L3 root over everything.

use bh_netmodel::RemoteDistance;
use bh_trace::{ClientId, WorkloadSpec};
use serde::{Deserialize, Serialize};

/// Index of an L1 proxy cache node.
pub type NodeIdx = u32;

/// The cache-system topology: which L1 serves which client, and how far
/// apart two L1 nodes are in hierarchy terms.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Topology {
    l1_count: u32,
    l1s_per_l2: u32,
    clients_per_l1: u32,
    dynamic_client_ids: bool,
    /// L2 group of every L1 node, so the per-holder distance checks on the
    /// simulator's hot paths index instead of dividing.
    l2_of: Vec<u32>,
}

impl Topology {
    /// Builds the topology a workload spec implies.
    pub fn from_spec(spec: &WorkloadSpec) -> Self {
        let l1_count = spec.l1_groups();
        Topology {
            l1_count,
            l1s_per_l2: spec.l1s_per_l2,
            clients_per_l1: spec.clients_per_l1,
            dynamic_client_ids: spec.dynamic_client_ids,
            l2_of: (0..l1_count).map(|l1| l1 / spec.l1s_per_l2).collect(),
        }
    }

    /// Number of L1 proxies.
    pub fn l1_count(&self) -> u32 {
        self.l1_count
    }

    /// Number of L2 proxies.
    pub fn l2_count(&self) -> u32 {
        self.l1_count.div_ceil(self.l1s_per_l2)
    }

    /// L1s sharing one L2.
    pub fn l1s_per_l2(&self) -> u32 {
        self.l1s_per_l2
    }

    /// The L1 node serving `client`.
    pub fn l1_of(&self, client: ClientId) -> NodeIdx {
        if self.dynamic_client_ids {
            client.0 % self.l1_count
        } else {
            (client.0 / self.clients_per_l1).min(self.l1_count - 1)
        }
    }

    /// The L2 group an L1 node belongs to.
    pub fn l2_of(&self, l1: NodeIdx) -> u32 {
        self.l2_of[l1 as usize]
    }

    /// Hierarchy distance between two *different* L1 nodes.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` (that is a local hit, not a remote fetch).
    pub fn distance(&self, a: NodeIdx, b: NodeIdx) -> RemoteDistance {
        assert_ne!(a, b, "distance between a node and itself");
        if self.l2_of(a) == self.l2_of(b) {
            RemoteDistance::SameL2
        } else {
            RemoteDistance::SameL3
        }
    }

    /// All L1 nodes in the same L2 group as `l1`, including `l1` itself.
    pub fn l2_siblings(&self, l1: NodeIdx) -> impl Iterator<Item = NodeIdx> + '_ {
        let group = self.l2_of(l1);
        let start = group * self.l1s_per_l2;
        let end = (start + self.l1s_per_l2).min(self.l1_count);
        start..end
    }

    /// Picks, among `holders`, the one nearest to `from` (self > same-L2 >
    /// same-L3; ties by lowest index). Returns `None` if `holders` is empty.
    pub fn nearest_holder(
        &self,
        from: NodeIdx,
        holders: impl IntoIterator<Item = NodeIdx>,
    ) -> Option<NodeIdx> {
        let mut best: Option<(u8, NodeIdx)> = None;
        for h in holders {
            let rank = if h == from {
                0
            } else if self.l2_of(h) == self.l2_of(from) {
                1
            } else {
                2
            };
            if best.is_none_or(|(r, n)| (rank, h) < (r, n)) {
                best = Some((rank, h));
            }
        }
        best.map(|(_, n)| n)
    }

    /// [`Topology::nearest_holder`] for every node at once: fills
    /// `nearest[n]` with the holder nearest to node `n`, and leaves
    /// `nearest` empty when there is no holder.
    ///
    /// `holders` must be sorted ascending. An L2 group is a contiguous
    /// index range, so the first holder overall is every node's same-L3
    /// fallback, the first holder inside a group is that group's same-L2
    /// answer, and a holder is its own: O(nodes + holders) instead of
    /// O(nodes × holders).
    pub fn nearest_holders(&self, holders: &[NodeIdx], nearest: &mut Vec<NodeIdx>) {
        nearest.clear();
        let Some(&first) = holders.first() else {
            return;
        };
        nearest.resize(self.l1_count as usize, first);
        let mut group = u32::MAX;
        for &h in holders {
            let g = self.l2_of(h);
            if g != group {
                group = g;
                let start = group * self.l1s_per_l2;
                let end = (start + self.l1s_per_l2).min(self.l1_count);
                nearest[start as usize..end as usize].fill(h);
            }
            nearest[h as usize] = h;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_trace::WorkloadSpec;

    fn topo() -> Topology {
        Topology::from_spec(&WorkloadSpec::dec())
    }

    #[test]
    fn dec_topology_dimensions() {
        let t = topo();
        assert_eq!(t.l1_count(), 64);
        assert_eq!(t.l2_count(), 8);
        assert_eq!(t.l1s_per_l2(), 8);
    }

    #[test]
    fn client_mapping_blocks() {
        let t = topo();
        assert_eq!(t.l1_of(ClientId(0)), 0);
        assert_eq!(t.l1_of(ClientId(255)), 0);
        assert_eq!(t.l1_of(ClientId(256)), 1);
        assert_eq!(t.l1_of(ClientId(16_383)), 63);
    }

    #[test]
    fn dynamic_client_mapping_modular() {
        let t = Topology::from_spec(&WorkloadSpec::prodigy());
        let groups = t.l1_count();
        assert_eq!(t.l1_of(ClientId(5)), 5 % groups);
        assert_eq!(t.l1_of(ClientId(groups + 3)), 3);
    }

    #[test]
    fn distances() {
        let t = topo();
        assert_eq!(t.distance(0, 1), RemoteDistance::SameL2);
        assert_eq!(t.distance(0, 7), RemoteDistance::SameL2);
        assert_eq!(t.distance(0, 8), RemoteDistance::SameL3);
        assert_eq!(t.distance(63, 0), RemoteDistance::SameL3);
    }

    #[test]
    #[should_panic(expected = "itself")]
    fn self_distance_panics() {
        topo().distance(3, 3);
    }

    #[test]
    fn siblings() {
        let t = topo();
        let sibs: Vec<u32> = t.l2_siblings(10).collect();
        assert_eq!(sibs, (8..16).collect::<Vec<_>>());
    }

    #[test]
    fn nearest_holder_prefers_self_then_l2() {
        let t = topo();
        assert_eq!(t.nearest_holder(0, [63, 9, 0]), Some(0));
        assert_eq!(t.nearest_holder(0, [63, 5]), Some(5));
        assert_eq!(t.nearest_holder(0, [63, 42]), Some(42));
        assert_eq!(t.nearest_holder(0, [63, 42, 17]), Some(17));
        assert_eq!(t.nearest_holder(0, std::iter::empty()), None);
        // Tie-break by lowest index within a class.
        assert_eq!(t.nearest_holder(0, [7, 3]), Some(3));
    }

    #[test]
    fn ragged_last_l2_group() {
        let mut spec = WorkloadSpec::small();
        spec.clients = 256 * 5; // 5 L1s, l1s_per_l2 = 2 → groups of 2,2,1
        let t = Topology::from_spec(&spec);
        assert_eq!(t.l1_count(), 5);
        assert_eq!(t.l2_count(), 3);
        let sibs: Vec<u32> = t.l2_siblings(4).collect();
        assert_eq!(sibs, vec![4]);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Resolving a holder change once for all nodes gives every
            /// node exactly what `nearest_holder` gives it alone — for
            /// ragged last groups, single-node groups and the empty set.
            #[test]
            fn nearest_holders_equals_nearest_holder_per_node(
                l1s in 1u32..=70,
                l1s_per_l2 in 1u32..=9,
                picks in proptest::collection::vec(0u32..70, 0..12),
            ) {
                let mut spec = WorkloadSpec::small();
                spec.clients = spec.clients_per_l1 * l1s;
                spec.l1s_per_l2 = l1s_per_l2;
                let t = Topology::from_spec(&spec);
                prop_assert_eq!(t.l1_count(), l1s);
                let mut holders: Vec<NodeIdx> = picks.into_iter().map(|p| p % l1s).collect();
                holders.sort_unstable();
                holders.dedup();
                let mut nearest = vec![9; 3]; // stale content must not survive
                t.nearest_holders(&holders, &mut nearest);
                let expected_len = if holders.is_empty() { 0 } else { l1s as usize };
                prop_assert_eq!(nearest.len(), expected_len);
                for n in 0..l1s {
                    prop_assert_eq!(
                        nearest.get(n as usize).copied(),
                        t.nearest_holder(n, holders.iter().copied())
                    );
                }
            }
        }
    }
}
