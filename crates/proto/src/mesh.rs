//! The one way to stand up a live mesh: [`Mesh::spawn`] starts the nodes
//! a [`Topology`] asks for behind one origin and wires them — who flushes
//! hints to whom, who heartbeats whom, which parents an orphan may adopt.
//!
//! Every harness, binary, example and multi-node test goes through this
//! module, so the "who tells whom" decision (§3.1.2 metadata hierarchy,
//! §3.2 neighbour flushes) is written down once, in [`Topology::wiring`],
//! and reaches a node in one call, [`CacheNode::rewire`] — at spawn and at
//! every restart a node is either unwired or fully wired.
//! The fault-injection methods of a running mesh (`crash`, `restart`,
//! `inject`, `lift`) live in [`crate::chaos`].

use crate::node::{CacheNode, NodeConfig, NodeStats, Wiring};
use crate::origin::OriginServer;
use std::io;
use std::net::SocketAddr;

/// The shape of a [`Mesh`]: how many nodes, and how they are wired for
/// hint propagation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Topology {
    /// Every node neighbors every other (the PR-3 mesh).
    Flat {
        /// Number of nodes.
        nodes: usize,
    },
    /// A two-level metadata hierarchy (§3.1.2): `parents` interior nodes
    /// neighbor each other; each parent has `children_per_parent` leaf
    /// children that flush hints only through their parent. Parents are
    /// spawned first (indices `0..parents`), then children in parent
    /// order, so index arithmetic is stable.
    TwoLevel {
        /// Interior (parent) nodes; at least 2 so orphans can re-home.
        parents: usize,
        /// Leaf children under each parent.
        children_per_parent: usize,
    },
}

/// `addrs` without the entry at `i`.
fn all_but(addrs: &[SocketAddr], i: usize) -> Vec<SocketAddr> {
    addrs
        .iter()
        .enumerate()
        .filter(|(j, _)| *j != i)
        .map(|(_, a)| *a)
        .collect()
}

impl Topology {
    /// Total node count.
    pub fn size(&self) -> usize {
        match *self {
            Topology::Flat { nodes } => nodes,
            Topology::TwoLevel {
                parents,
                children_per_parent,
            } => parents * (1 + children_per_parent),
        }
    }

    /// The spawn index of the first interior node at hierarchy depth
    /// `level`, if that depth has interior nodes. A two-level tree has
    /// exactly one interior depth (0, the parents).
    pub fn first_parent_at(&self, level: usize) -> Option<usize> {
        match *self {
            Topology::Flat { .. } => None,
            Topology::TwoLevel { parents, .. } => (level == 0 && parents > 0).then_some(0),
        }
    }

    /// The parent assigned to `index`, if `index` is a child.
    pub fn parent_of(&self, index: usize) -> Option<usize> {
        match *self {
            Topology::Flat { .. } => None,
            Topology::TwoLevel {
                parents,
                children_per_parent,
            } => {
                if index < parents || children_per_parent == 0 {
                    None
                } else {
                    Some((index - parents) / children_per_parent)
                }
            }
        }
    }

    /// The children assigned to `index`, empty for leaves and for meshes
    /// without a hierarchy.
    pub fn children_of(&self, index: usize) -> Vec<usize> {
        match *self {
            Topology::Flat { .. } => Vec::new(),
            Topology::TwoLevel {
                parents,
                children_per_parent,
            } => {
                if index >= parents {
                    return Vec::new();
                }
                let first = parents + index * children_per_parent;
                (first..first + children_per_parent).collect()
            }
        }
    }

    /// Checks the topology itself is well-formed.
    ///
    /// # Errors
    ///
    /// Returns a description of the defect.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            Topology::Flat { nodes: 0 } => Err("flat mesh needs at least 1 node".into()),
            Topology::TwoLevel { parents, .. } if parents < 2 => {
                Err("two-level mesh needs at least 2 parents so orphans can re-home".into())
            }
            _ => Ok(()),
        }
    }

    /// Node `i`'s wiring over `addrs` (one address per node, in spawn
    /// order). In a [`Topology::TwoLevel`] hierarchy, parents neighbor
    /// the other parents and flush down to their children; children flush
    /// only through their parent and carry every parent as a re-homing
    /// fallback. Liveness there is mesh-wide even though hint flushes
    /// follow the tree: every survivor must confirm a death to keep the
    /// repaired Plaxton trees in agreement. Every shape shares the one
    /// Plaxton membership, `addrs` in spawn order.
    pub fn wiring(&self, addrs: &[SocketAddr], i: usize) -> Wiring {
        let mut wiring = Wiring {
            members: addrs.to_vec(),
            ..Wiring::default()
        };
        match *self {
            Topology::Flat { .. } => wiring.neighbors = all_but(addrs, i),
            Topology::TwoLevel { parents, .. } => {
                if i < parents {
                    wiring.neighbors = all_but(&addrs[..parents], i);
                    wiring.children = self.children_of(i).into_iter().map(|c| addrs[c]).collect();
                } else {
                    wiring.parent = self.parent_of(i).map(|p| addrs[p]);
                    wiring.fallback_parents = addrs[..parents].to_vec();
                }
                wiring.liveness_peers = Some(all_but(addrs, i));
            }
        }
        wiring
    }
}

/// A running origin + node cluster. Nodes are addressed by spawn index;
/// a crashed slot ([`Mesh::crash`]) holds `None` until it is restarted.
#[derive(Debug)]
pub struct Mesh {
    origin: OriginServer,
    pub(crate) nodes: Vec<Option<CacheNode>>,
    /// The config each node was spawned with, `bind` rewritten to the
    /// bound address, so a restart reclaims the crashed node's port and
    /// identity.
    pub(crate) configs: Vec<NodeConfig>,
    addrs: Vec<SocketAddr>,
    topology: Topology,
}

impl Mesh {
    /// Spawns the nodes `topology` asks for on ephemeral loopback ports
    /// behind `origin`, then wires them ([`Topology::wiring`]); all share
    /// the same Plaxton membership. `tune` customizes node `i`'s config —
    /// timeouts, heartbeat cadence, a per-node
    /// [`NodeConfig::durability_dir`] — and is called once per node.
    ///
    /// # Errors
    ///
    /// Rejects invalid topologies; propagates node spawn failures.
    pub fn spawn(
        origin: OriginServer,
        topology: Topology,
        tune: impl Fn(usize, NodeConfig) -> NodeConfig,
    ) -> io::Result<Mesh> {
        topology
            .validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let n = topology.size();
        let mut nodes = Vec::with_capacity(n);
        let mut configs = Vec::with_capacity(n);
        let mut addrs = Vec::with_capacity(n);
        for i in 0..n {
            let mut config = tune(i, NodeConfig::new("127.0.0.1:0", origin.addr()));
            let node = CacheNode::spawn(config.clone())?;
            config.bind = node.addr().to_string();
            addrs.push(node.addr());
            configs.push(config);
            nodes.push(Some(node));
        }
        let mesh = Mesh {
            origin,
            nodes,
            configs,
            addrs,
            topology,
        };
        for (i, node) in mesh.nodes.iter().flatten().enumerate() {
            mesh.wire(i, node);
        }
        Ok(mesh)
    }

    /// Installs node `index`'s full runtime wiring. Called at spawn and
    /// again on every restart.
    pub(crate) fn wire(&self, index: usize, node: &CacheNode) {
        node.rewire(self.topology.wiring(&self.addrs, index));
    }

    /// The topology this mesh was spawned with.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// The origin server backing the mesh.
    pub fn origin(&self) -> &OriginServer {
        &self.origin
    }

    /// Every node's bound address, in spawn order (stable across crash
    /// and restart).
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// The node at `index`, or `None` while it is crashed.
    pub fn node(&self, index: usize) -> Option<&CacheNode> {
        self.nodes.get(index).and_then(|n| n.as_ref())
    }

    /// Index of a live node, preferring `preferred` — where a crashed
    /// node's clients reconnect during its window.
    pub fn live_node(&self, preferred: usize) -> Option<usize> {
        if self.node(preferred).is_some() {
            return Some(preferred);
        }
        (0..self.nodes.len()).find(|&i| self.node(i).is_some())
    }

    /// Per-node stats snapshots (`None` for crashed slots).
    pub fn stats(&self) -> Vec<Option<NodeStats>> {
        self.nodes
            .iter()
            .map(|n| n.as_ref().map(|n| n.stats()))
            .collect()
    }

    /// Per-node metrics-registry snapshots (`None` for crashed slots):
    /// every registered metric as a name-sorted `(name, value)` list.
    /// The registry-iteration surface dumps are built from — nothing is
    /// copied field by field.
    pub fn metric_snapshots(&self) -> Vec<Option<Vec<bh_obs::MetricEntry>>> {
        self.nodes
            .iter()
            .map(|n| n.as_ref().map(|n| n.metrics_snapshot()))
            .collect()
    }

    /// Runs one immediate heartbeat round on every live node.
    pub fn heartbeat_all(&self) {
        for node in self.nodes.iter().flatten() {
            node.heartbeat_now();
        }
    }

    /// Flushes pending hint updates on every live node.
    pub fn flush_all(&self) {
        for node in self.nodes.iter().flatten() {
            node.flush_updates_now();
        }
    }

    /// Takes the mesh apart into its origin and its live nodes in spawn
    /// order, for callers that stop nodes one at a time.
    pub fn into_parts(self) -> (OriginServer, Vec<CacheNode>) {
        (self.origin, self.nodes.into_iter().flatten().collect())
    }

    /// Gracefully shuts the whole mesh down, nodes first.
    pub fn shutdown(self) {
        let (origin, nodes) = self.into_parts();
        for node in nodes {
            node.shutdown();
        }
        origin.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` distinct fake addresses: wiring is a pure function of them.
    fn fake(n: usize) -> Vec<SocketAddr> {
        (0..n)
            .map(|i| SocketAddr::from(([127, 0, 0, 1], 9000 + i as u16)))
            .collect()
    }

    /// `addrs` picked by index, to spell expectations as index lists.
    fn pick(addrs: &[SocketAddr], indices: &[usize]) -> Vec<SocketAddr> {
        indices.iter().map(|&i| addrs[i]).collect()
    }

    #[test]
    fn flat_wiring_is_everyone_but_me() {
        let topology = Topology::Flat { nodes: 4 };
        let addrs = fake(topology.size());
        let expect: [&[usize]; 4] = [&[1, 2, 3], &[0, 2, 3], &[0, 1, 3], &[0, 1, 2]];
        for (i, neighbors) in expect.iter().enumerate() {
            assert_eq!(
                topology.wiring(&addrs, i),
                Wiring {
                    neighbors: pick(&addrs, neighbors),
                    members: addrs.clone(),
                    ..Wiring::default()
                },
                "node {i}"
            );
        }
    }

    #[test]
    fn two_level_wiring_follows_the_tree_and_monitors_everyone() {
        let topology = Topology::TwoLevel {
            parents: 2,
            children_per_parent: 2,
        };
        let addrs = fake(topology.size());
        assert_eq!(addrs.len(), 6);
        // (neighbors, parent, children, fallback parents) by node index:
        // parents 0 and 1, then children 2,3 under 0 and 4,5 under 1.
        type Row = (
            &'static [usize],
            Option<usize>,
            &'static [usize],
            &'static [usize],
        );
        let expect: [Row; 6] = [
            (&[1], None, &[2, 3], &[]),
            (&[0], None, &[4, 5], &[]),
            (&[], Some(0), &[], &[0, 1]),
            (&[], Some(0), &[], &[0, 1]),
            (&[], Some(1), &[], &[0, 1]),
            (&[], Some(1), &[], &[0, 1]),
        ];
        for (i, (neighbors, parent, children, fallback)) in expect.iter().enumerate() {
            let everyone_else: Vec<usize> = (0..6).filter(|j| *j != i).collect();
            assert_eq!(
                topology.wiring(&addrs, i),
                Wiring {
                    neighbors: pick(&addrs, neighbors),
                    parent: parent.map(|p| addrs[p]),
                    children: pick(&addrs, children),
                    fallback_parents: pick(&addrs, fallback),
                    liveness_peers: Some(pick(&addrs, &everyone_else)),
                    members: addrs.clone(),
                },
                "node {i}"
            );
            assert_eq!(topology.parent_of(i), *parent, "parent_of({i})");
            assert_eq!(topology.children_of(i), *children, "children_of({i})");
        }
        assert_eq!(topology.first_parent_at(0), Some(0));
        assert_eq!(topology.first_parent_at(1), None);
    }

    #[test]
    fn validate_rejects_malformed_topologies() {
        assert!(Topology::Flat { nodes: 0 }.validate().is_err());
        assert!(Topology::Flat { nodes: 1 }.validate().is_ok());
        let lone_parent = Topology::TwoLevel {
            parents: 1,
            children_per_parent: 3,
        };
        assert!(lone_parent.validate().is_err(), "orphans need a fallback");
    }
}
