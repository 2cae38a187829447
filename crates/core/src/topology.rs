//! The default simulated topology (§2.2.3): 256 clients per L1 proxy,
//! 8 L1s per L2, one L3 root over everything.

use bh_netmodel::RemoteDistance;
use bh_trace::{ClientId, WorkloadSpec};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Index of an L1 proxy cache node.
pub type NodeIdx = u32;

/// Words of a [`NodeSet`] past the inline one.
const HIGH_WORDS: usize = 3;

/// A set of L1 nodes, as a bitset: bit `n % 64` of word `n / 64` is node
/// `n`, for `n` below [`NodeSet::CAPACITY`].
///
/// Word 0 (nodes 0–63) is inline, so in a topology of at most 64 L1s (DEC,
/// Berkeley) a set is one machine word and never allocates. The words for
/// nodes 64 and up (Prodigy's 139 L1s) sit in one heap block, allocated
/// when the first such node joins and freed when the last one leaves, so
/// two equal sets are equal values.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct NodeSet {
    low: u64,
    high: Option<Box<[u64; HIGH_WORDS]>>,
}

impl NodeSet {
    /// One more than the highest node a set can hold.
    pub const CAPACITY: u32 = 64 * (1 + HIGH_WORDS as u32);

    /// The empty set.
    pub const fn new() -> Self {
        NodeSet { low: 0, high: None }
    }

    fn word(&self, i: usize) -> u64 {
        match (i, &self.high) {
            (0, _) => self.low,
            (_, Some(high)) => high[i - 1],
            (_, None) => 0,
        }
    }

    /// Adds `node`; `false` if it was already a member.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not below [`NodeSet::CAPACITY`].
    pub fn insert(&mut self, node: NodeIdx) -> bool {
        let bit = 1u64 << (node % 64);
        let word = match node / 64 {
            0 => &mut self.low,
            w => {
                assert!(node < Self::CAPACITY, "node {node} beyond a NodeSet");
                &mut self.high.get_or_insert_with(Default::default)[w as usize - 1]
            }
        };
        let added = *word & bit == 0;
        *word |= bit;
        added
    }

    /// Removes `node`; `false` if it was not a member.
    pub fn remove(&mut self, node: NodeIdx) -> bool {
        let bit = 1u64 << (node % 64);
        match node / 64 {
            0 => {
                let present = self.low & bit != 0;
                self.low &= !bit;
                present
            }
            w => {
                let Some(high) = &mut self.high else {
                    return false;
                };
                let Some(word) = high.get_mut(w as usize - 1) else {
                    return false;
                };
                let present = *word & bit != 0;
                *word &= !bit;
                if high.iter().all(|&w| w == 0) {
                    self.high = None;
                }
                present
            }
        }
    }

    /// Whether `node` is a member.
    pub fn contains(&self, node: NodeIdx) -> bool {
        self.word(node as usize / 64) & (1 << (node % 64)) != 0
    }

    /// Whether the set has no members.
    pub fn is_empty(&self) -> bool {
        self.low == 0 && self.high.is_none()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        let high = self.high.iter().flat_map(|h| h.iter());
        let ones: u32 = high.map(|w| w.count_ones()).sum();
        (ones + self.low.count_ones()) as usize
    }

    /// The members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = NodeIdx> + '_ {
        Members {
            set: self,
            word: 0,
            bits: self.low,
        }
    }

    /// The lowest member in `start..end`.
    fn first_in(&self, start: NodeIdx, end: NodeIdx) -> Option<NodeIdx> {
        let mut base = start & !63;
        while base < end {
            let lo = start.saturating_sub(base);
            let hi = (end - base).min(64);
            let mask = (u64::MAX << lo) & (u64::MAX >> (64 - hi));
            let bits = self.word(base as usize / 64) & mask;
            if bits != 0 {
                return Some(base + bits.trailing_zeros());
            }
            base += 64;
        }
        None
    }

    /// The lowest member.
    fn first(&self) -> Option<NodeIdx> {
        self.iter().next()
    }
}

impl std::fmt::Debug for NodeSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Iterator over a [`NodeSet`]'s members, ascending.
struct Members<'a> {
    set: &'a NodeSet,
    /// Index of the word `bits` came from.
    word: usize,
    /// The members of that word not yet returned.
    bits: u64,
}

impl Iterator for Members<'_> {
    type Item = NodeIdx;

    fn next(&mut self) -> Option<NodeIdx> {
        while self.bits == 0 {
            if self.word == HIGH_WORDS || self.set.high.is_none() {
                return None;
            }
            self.word += 1;
            self.bits = self.set.word(self.word);
        }
        let bit = self.bits.trailing_zeros();
        self.bits &= self.bits - 1;
        Some(self.word as u32 * 64 + bit)
    }
}

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
    ///
    /// # Panics
    ///
    /// Panics if the spec implies more L1s than a [`NodeSet`] holds.
    pub fn from_spec(spec: &WorkloadSpec) -> Self {
        let l1_count = spec.l1_groups();
        assert!(
            l1_count <= NodeSet::CAPACITY,
            "{l1_count} L1s exceed the {} a holder set can name",
            NodeSet::CAPACITY
        );
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
    pub fn l2_siblings(&self, l1: NodeIdx) -> Range<NodeIdx> {
        let start = self.l2_of(l1) * self.l1s_per_l2;
        start..(start + self.l1s_per_l2).min(self.l1_count)
    }

    /// Picks, among `holders`, the one nearest to `from`: `from` itself,
    /// else the lowest-indexed holder under `from`'s L2 (the requester's
    /// L2 range masked out of the set), else the lowest-indexed holder.
    /// Returns `None` if `holders` is empty.
    pub fn nearest_holder(&self, from: NodeIdx, holders: &NodeSet) -> Option<NodeIdx> {
        if holders.contains(from) {
            return Some(from);
        }
        let siblings = self.l2_siblings(from);
        holders
            .first_in(siblings.start, siblings.end)
            .or_else(|| holders.first())
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

    fn set(nodes: &[NodeIdx]) -> NodeSet {
        let mut set = NodeSet::new();
        for &n in nodes {
            set.insert(n);
        }
        set
    }

    #[test]
    fn nearest_holder_prefers_self_then_l2() {
        let t = topo();
        assert_eq!(t.nearest_holder(0, &set(&[63, 9, 0])), Some(0));
        assert_eq!(t.nearest_holder(0, &set(&[63, 5])), Some(5));
        assert_eq!(t.nearest_holder(0, &set(&[63, 42])), Some(42));
        assert_eq!(t.nearest_holder(0, &set(&[63, 42, 17])), Some(17));
        assert_eq!(t.nearest_holder(0, &NodeSet::new()), None);
        // Tie-break by lowest index within a class.
        assert_eq!(t.nearest_holder(0, &set(&[7, 3])), Some(3));
    }

    #[test]
    fn node_set_is_one_word_until_a_node_past_63_joins() {
        assert_eq!(std::mem::size_of::<NodeSet>(), 16);
        let mut s = set(&[0, 63]);
        assert!(s.high.is_none());
        assert!(s.insert(138));
        assert!(!s.insert(138));
        assert_eq!(s.iter().collect::<Vec<_>>(), [0, 63, 138]);
        assert!(s.remove(138));
        assert!(!s.remove(138));
        assert!(s.high.is_none(), "the last high member frees its words");
        assert_eq!(s, set(&[63, 0]));
        assert_eq!(format!("{s:?}"), "{0, 63}");
    }

    #[test]
    #[should_panic(expected = "beyond a NodeSet")]
    fn node_set_refuses_a_node_past_its_capacity() {
        NodeSet::new().insert(NodeSet::CAPACITY);
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

        fn topology(l1s: u32, l1s_per_l2: u32) -> Topology {
            let mut spec = WorkloadSpec::small();
            spec.clients = spec.clients_per_l1 * l1s;
            spec.l1s_per_l2 = l1s_per_l2;
            let t = Topology::from_spec(&spec);
            assert_eq!(t.l1_count(), l1s);
            t
        }

        proptest! {
            /// `nearest_holder` follows the rule it states, for holders
            /// inserted in any order with repeats, ragged last groups,
            /// single-node groups, groups straddling a word boundary and
            /// the empty set: the node itself, else the lowest holder in
            /// its L2 group, else the lowest holder.
            #[test]
            fn nearest_holder_follows_its_rule(
                l1s in 1u32..=150,
                l1s_per_l2 in 1u32..=9,
                picks in proptest::collection::vec(0u32..150, 0..12),
            ) {
                let t = topology(l1s, l1s_per_l2);
                let holders: Vec<NodeIdx> = picks.into_iter().map(|p| p % l1s).collect();
                let set = super::set(&holders);
                for n in 0..l1s {
                    let group = n / l1s_per_l2;
                    let same_l2 = holders.iter().copied().filter(|&h| h / l1s_per_l2 == group);
                    let expected = if holders.contains(&n) {
                        Some(n)
                    } else {
                        same_l2.min().or(holders.iter().copied().min())
                    };
                    prop_assert_eq!(t.nearest_holder(n, &set), expected);
                }
            }

            /// A `NodeSet` behaves as the sorted `Vec` the strategies kept
            /// before it, at the widths either side of each word boundary
            /// and at Prodigy's 139 L1s: after every insert or remove,
            /// membership, ascending iteration, size and the nearest
            /// holder of every node agree with the witness.
            #[test]
            fn node_set_matches_a_sorted_vec(
                width in 0usize..5,
                l1s_per_l2 in 1u32..=9,
                ops in proptest::collection::vec((any::<bool>(), 0u32..1000), 1..60),
            ) {
                let l1s = [1, 63, 64, 65, 139][width];
                let t = topology(l1s, l1s_per_l2);
                let mut set = NodeSet::new();
                let mut witness: Vec<NodeIdx> = Vec::new();
                for (add, pick) in ops {
                    let node = pick % l1s;
                    let changed = match (add, witness.binary_search(&node)) {
                        (true, Err(pos)) => {
                            witness.insert(pos, node);
                            true
                        }
                        (false, Ok(pos)) => {
                            witness.remove(pos);
                            true
                        }
                        _ => false,
                    };
                    let reported = if add { set.insert(node) } else { set.remove(node) };
                    prop_assert_eq!(reported, changed);
                    prop_assert_eq!(set.iter().collect::<Vec<_>>(), witness.clone());
                    prop_assert_eq!(set.len(), witness.len());
                    prop_assert_eq!(set.is_empty(), witness.is_empty());
                    prop_assert_eq!(&set, &super::set(&witness));
                    for n in 0..l1s {
                        prop_assert_eq!(set.contains(n), witness.contains(&n));
                        let (lo, hi) = (n / l1s_per_l2 * l1s_per_l2, (n / l1s_per_l2 + 1) * l1s_per_l2);
                        let expected = if witness.contains(&n) {
                            Some(n)
                        } else {
                            let same_l2 = witness.iter().copied().find(|h| (lo..hi).contains(h));
                            same_l2.or(witness.first().copied())
                        };
                        prop_assert_eq!(t.nearest_holder(n, &set), expected);
                    }
                }
            }
        }
    }
}
