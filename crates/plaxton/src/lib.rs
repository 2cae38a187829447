//! Self-configuring metadata hierarchy (§3.1.3).
//!
//! The paper's hint-distribution hierarchy configures itself with the
//! randomized tree-embedding algorithm of Plaxton, Rajaraman & Richa: every
//! node gets a pseudo-random ID (the MD5 of its address) and every object a
//! pseudo-random ID (the MD5 of its URL). The virtual tree for an object
//! climbs through nodes whose IDs match the object's ID in progressively
//! more low-order digits; each node picks the *nearest* eligible parent at
//! every level, which gives the algorithm its locality property. The root
//! for an object is the node matching it in the most low-order digits, so
//! different objects get different roots (load distribution), and nodes
//! joining or leaving disturb only the table entries that referenced them
//! (fault tolerance / automatic reconfiguration).
//!
//! This crate implements the embedding over an explicit node set with
//! coordinates (distances matter for locality), digit-surrogate routing so
//! every source converges on the same root, and incremental node
//! join/leave with a changed-entry count so tests can verify the
//! "disturbs very little" property.
//!
//! # Examples
//!
//! ```
//! use bh_plaxton::{PlaxtonTree, NodeSpec};
//!
//! let nodes: Vec<NodeSpec> = (0..16)
//!     .map(|i| NodeSpec::from_address(&format!("10.0.0.{i}:3128"), (i as f64, 0.0)))
//!     .collect();
//! let tree = PlaxtonTree::build(nodes, 1).unwrap();
//! let object = bh_md5::url_key("http://example.com/index.html");
//! // Every source reaches the same root.
//! let root = tree.root_of(object);
//! for from in 0..16 {
//!     assert_eq!(*tree.route(from, object).last().unwrap(), root);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::{Deserialize, Serialize};
use std::fmt;

/// Description of one node entering the embedding.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeSpec {
    /// The node's pseudo-random 64-bit ID (low 64 bits of the MD5 of its
    /// address, per the paper).
    pub id: u64,
    /// Coordinates used for nearest-parent selection (any metric embedding
    /// of network distance works; the examples use the plane).
    pub position: (f64, f64),
}

impl NodeSpec {
    /// Builds a spec whose ID is the MD5 of `address` (e.g. `"ip:port"`).
    pub fn from_address(address: &str, position: (f64, f64)) -> Self {
        NodeSpec {
            id: bh_md5::node_key(address),
            position,
        }
    }
}

/// Errors from building or editing a tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlaxtonError {
    /// Two nodes share an ID (MD5 collision or duplicate address).
    DuplicateNodeId(u64),
    /// The node set is empty.
    NoNodes,
    /// Arity bits out of the supported range `1..=8`.
    BadArity(u32),
    /// Referenced a node index that does not exist (or was removed).
    NoSuchNode(usize),
}

impl fmt::Display for PlaxtonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlaxtonError::DuplicateNodeId(id) => write!(f, "duplicate node id {id:#x}"),
            PlaxtonError::NoNodes => f.write_str("node set is empty"),
            PlaxtonError::BadArity(b) => write!(f, "arity bits {b} outside 1..=8"),
            PlaxtonError::NoSuchNode(i) => write!(f, "no such node index {i}"),
        }
    }
}

impl std::error::Error for PlaxtonError {}

#[derive(Debug, Clone)]
struct Node {
    spec: NodeSpec,
    alive: bool,
    /// `table[level * arity + digit]` = nearest node matching my bottom
    /// `level` digits followed by `digit`; `usize::MAX` = none exists.
    table: Vec<usize>,
}

const NONE: usize = usize::MAX;

/// The Plaxton embedding over a set of nodes. See the [crate docs](crate).
#[derive(Debug, Clone)]
pub struct PlaxtonTree {
    nodes: Vec<Node>,
    arity_bits: u32,
    levels: usize,
    alive: usize,
}

impl PlaxtonTree {
    /// Builds the embedding.
    ///
    /// `arity_bits` selects the tree arity `b = 2^arity_bits` (the paper's
    /// binary example is `arity_bits = 1`; flatter hierarchies use more).
    ///
    /// # Errors
    ///
    /// Returns [`PlaxtonError::NoNodes`], [`PlaxtonError::BadArity`], or
    /// [`PlaxtonError::DuplicateNodeId`].
    pub fn build(specs: Vec<NodeSpec>, arity_bits: u32) -> Result<Self, PlaxtonError> {
        if specs.is_empty() {
            return Err(PlaxtonError::NoNodes);
        }
        if !(1..=8).contains(&arity_bits) {
            return Err(PlaxtonError::BadArity(arity_bits));
        }
        let mut seen = std::collections::HashSet::new();
        for s in &specs {
            if !seen.insert(s.id) {
                return Err(PlaxtonError::DuplicateNodeId(s.id));
            }
        }
        // Tables cover the full 64-bit ID depth: routes occasionally need
        // more than log_b(N) levels when node IDs collide in many
        // low-order bits, and a truncated table would strand them. The
        // memory cost is tiny (levels × arity entries per node).
        let n = specs.len();
        let levels = (64 / arity_bits) as usize;
        let mut tree = PlaxtonTree {
            nodes: specs
                .into_iter()
                .map(|spec| Node {
                    spec,
                    alive: true,
                    table: Vec::new(),
                })
                .collect(),
            arity_bits,
            levels,
            alive: n,
        };
        for i in 0..tree.nodes.len() {
            tree.nodes[i].table = tree.compute_table(i);
        }
        Ok(tree)
    }

    /// The tree arity `b`.
    pub fn arity(&self) -> u64 {
        1u64 << self.arity_bits
    }

    /// Number of levels in the parent tables.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.alive
    }

    /// Whether no live nodes remain.
    pub fn is_empty(&self) -> bool {
        self.alive == 0
    }

    /// Whether node `i` is live.
    pub fn is_alive(&self, i: usize) -> bool {
        self.nodes.get(i).is_some_and(|n| n.alive)
    }

    /// The spec of node `i`, if it exists (live or not).
    pub fn node(&self, i: usize) -> Option<&NodeSpec> {
        self.nodes.get(i).map(|n| &n.spec)
    }

    fn digit(&self, id: u64, level: usize) -> u64 {
        (id >> (level as u32 * self.arity_bits)) & (self.arity() - 1)
    }

    fn low_digits_match(&self, a: u64, b: u64, levels: usize) -> bool {
        if levels == 0 {
            return true;
        }
        let bits = (levels as u32 * self.arity_bits).min(64);
        if bits >= 64 {
            return a == b;
        }
        let mask = (1u64 << bits) - 1;
        a & mask == b & mask
    }

    fn dist(&self, a: usize, b: usize) -> f64 {
        let pa = self.nodes[a].spec.position;
        let pb = self.nodes[b].spec.position;
        let dx = pa.0 - pb.0;
        let dy = pa.1 - pb.1;
        (dx * dx + dy * dy).sqrt()
    }

    /// Computes node `i`'s full parent table: for each `(level, digit)`, the
    /// nearest live node matching `i`'s bottom `level` digits plus `digit`.
    fn compute_table(&self, i: usize) -> Vec<usize> {
        let b = self.arity() as usize;
        (0..self.levels * b)
            .map(|slot| self.find_parent(i, slot / b, (slot % b) as u64))
            .collect()
    }

    /// Node `i`'s chosen parent at `level` for `digit`, if one exists.
    pub fn parent(&self, i: usize, level: usize, digit: u64) -> Option<usize> {
        let b = self.arity() as usize;
        let entry = *self.nodes.get(i)?.table.get(level * b + digit as usize)?;
        (entry != NONE).then_some(entry)
    }

    /// The deterministic digit sequence routes for `object_key` follow,
    /// including surrogate detours, and the set sizes along the way.
    ///
    /// Digit choice at each level depends only on the object key and the set
    /// of live IDs, so every source converges on the same root (Tapestry-
    /// style surrogate routing).
    fn digit_sequence(&self, object_key: u64) -> (Vec<u64>, usize) {
        let b = self.arity();
        let mut candidates: Vec<usize> = (0..self.nodes.len())
            .filter(|&i| self.nodes[i].alive)
            .collect();
        let mut digits = Vec::new();
        let mut prefix = 0u64;
        let mut level = 0usize;
        while candidates.len() > 1 && level < 64 / self.arity_bits as usize {
            let desired = self.digit(object_key, level);
            let mut chosen = None;
            for delta in 0..b {
                let d = (desired + delta) % b;
                let test_prefix = prefix | (d << (level as u32 * self.arity_bits));
                let matched: Vec<usize> = candidates
                    .iter()
                    .copied()
                    .filter(|&i| {
                        self.low_digits_match(self.nodes[i].spec.id, test_prefix, level + 1)
                    })
                    .collect();
                if !matched.is_empty() {
                    chosen = Some((d, matched));
                    break;
                }
            }
            let (d, matched) = chosen.expect("candidates non-empty implies some digit matches");
            prefix |= d << (level as u32 * self.arity_bits);
            digits.push(d);
            candidates = matched;
            level += 1;
        }
        let root = *candidates
            .iter()
            .min_by_key(|&&i| self.nodes[i].spec.id)
            .expect("non-empty");
        (digits, root)
    }

    /// The unique root node for `object_key`.
    ///
    /// # Panics
    ///
    /// Panics if the tree has no live nodes.
    pub fn root_of(&self, object_key: u64) -> usize {
        assert!(self.alive > 0, "root_of on empty tree");
        self.digit_sequence(object_key).1
    }

    /// The path (inclusive of both endpoints) a metadata update starting at
    /// `from` takes toward the root of `object_key`. Each hop follows the
    /// current node's nearest-parent table for the deterministic digit
    /// sequence; the final element is [`PlaxtonTree::root_of`]`(object_key)`.
    ///
    /// # Errors
    ///
    /// Returns [`PlaxtonError::NoSuchNode`] if `from` is not a live node.
    pub fn route(&self, from: usize, object_key: u64) -> Vec<usize> {
        assert!(
            self.nodes.get(from).is_some_and(|n| n.alive),
            "route from dead or unknown node {from}"
        );
        let (digits, root) = self.digit_sequence(object_key);
        let b = self.arity() as usize;
        let mut path = vec![from];
        let mut cur = from;
        for (level, &d) in digits.iter().enumerate() {
            if cur == root {
                break;
            }
            // If we already match the prefix through this level, no hop needed.
            let bits = ((level + 1) as u32) * self.arity_bits;
            let target_prefix = fold_prefix(&digits[..=level], self.arity_bits);
            if self.low_digits_match(self.nodes[cur].spec.id, target_prefix, level + 1) {
                let _ = bits;
                continue;
            }
            let next = self.nodes[cur].table[level * b + d as usize];
            debug_assert_ne!(next, NONE, "digit sequence guarantees an eligible parent");
            if next == cur {
                continue;
            }
            path.push(next);
            cur = next;
        }
        if cur != root {
            path.push(root);
        }
        path
    }

    /// Marks node `i` dead and repairs every table entry that referenced it.
    /// Returns the number of table entries that changed (the paper's claim:
    /// "this reassignment disturbs very little of the previous
    /// configuration").
    ///
    /// # Errors
    ///
    /// Returns [`PlaxtonError::NoSuchNode`] if `i` is unknown or dead.
    pub fn remove_node(&mut self, i: usize) -> Result<usize, PlaxtonError> {
        if !self.is_alive(i) {
            return Err(PlaxtonError::NoSuchNode(i));
        }
        self.nodes[i].alive = false;
        self.alive -= 1;
        let b = self.arity() as usize;
        let mut changed = 0usize;
        for j in 0..self.nodes.len() {
            if !self.nodes[j].alive {
                continue;
            }
            for level in 0..self.levels {
                for digit in 0..b {
                    if self.nodes[j].table[level * b + digit] == i {
                        let repaired = self.find_parent(j, level, digit as u64);
                        self.nodes[j].table[level * b + digit] = repaired;
                        changed += 1;
                    }
                }
            }
        }
        Ok(changed)
    }

    /// Adds a node and wires it (and everyone else's affected entries) in.
    /// A member that left earlier ([`PlaxtonTree::remove_node`]) returns to
    /// its own index, so indices stay stable and a flapping member never
    /// grows the tree. Returns
    /// `(index, entries_changed_in_existing_tables)`.
    ///
    /// # Errors
    ///
    /// Returns [`PlaxtonError::DuplicateNodeId`] if the ID is already live.
    pub fn add_node(&mut self, spec: NodeSpec) -> Result<(usize, usize), PlaxtonError> {
        let idx = match self.nodes.iter().position(|n| n.spec.id == spec.id) {
            Some(idx) if self.nodes[idx].alive => {
                return Err(PlaxtonError::DuplicateNodeId(spec.id));
            }
            Some(idx) => {
                self.nodes[idx].spec = spec;
                self.nodes[idx].alive = true;
                idx
            }
            None => {
                self.nodes.push(Node {
                    spec,
                    alive: true,
                    // bh-lint: allow(no-hot-alloc, reason = "capacity-0 placeholder, replaced wholesale by compute_table before any push; churn repair runs per membership event, not per request")
                    table: Vec::new(),
                });
                self.nodes.len() - 1
            }
        };
        self.alive += 1;
        self.nodes[idx].table = self.compute_table(idx);
        // Existing nodes adopt the newcomer wherever it outranks their
        // current parent (or fills a hole).
        let b = self.arity() as usize;
        let new_id = self.nodes[idx].spec.id;
        let mut changed = 0usize;
        for j in 0..self.nodes.len() {
            if j == idx || !self.nodes[j].alive {
                continue;
            }
            for level in 0..self.levels {
                // One eligible slot per level, for as long as the newcomer
                // shares `j`'s lower digits.
                if !self.low_digits_match(new_id, self.nodes[j].spec.id, level) {
                    break;
                }
                let slot = level * b + self.digit(new_id, level) as usize;
                let cur = self.nodes[j].table[slot];
                if cur == NONE || self.outranks(j, idx, cur) {
                    self.nodes[j].table[slot] = idx;
                    changed += 1;
                }
            }
        }
        Ok((idx, changed))
    }

    /// The one nearest-parent rule: whether candidate `a` outranks
    /// candidate `b` as a parent for node `i` — the nearer node wins, and
    /// equal distances go to the smaller ID. Building, leaving and joining
    /// all rank through here, so an incrementally repaired tree equals the
    /// tree built fresh over the same live set.
    fn outranks(&self, i: usize, a: usize, b: usize) -> bool {
        self.dist(i, a)
            .total_cmp(&self.dist(i, b))
            .then(self.nodes[a].spec.id.cmp(&self.nodes[b].spec.id))
            .is_lt()
    }

    /// The nearest live node matching `i`'s bottom `level` digits followed
    /// by `digit` (`NONE` if no live node does).
    fn find_parent(&self, i: usize, level: usize, digit: u64) -> usize {
        let prefix_bits = level as u32 * self.arity_bits;
        let target_prefix =
            (self.nodes[i].spec.id & low_mask(prefix_bits)) | (digit << prefix_bits);
        let mut best = NONE;
        for (j, node) in self.nodes.iter().enumerate() {
            if node.alive
                && self.low_digits_match(node.spec.id, target_prefix, level + 1)
                && (best == NONE || self.outranks(i, j, best))
            {
                best = j;
            }
        }
        best
    }

    /// Total live table entries (for reconfiguration-churn ratios).
    pub fn table_entries(&self) -> usize {
        self.alive * self.levels * self.arity() as usize
    }
}

fn low_mask(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

fn fold_prefix(digits: &[u64], arity_bits: u32) -> u64 {
    let mut p = 0u64;
    for (level, &d) in digits.iter().enumerate() {
        p |= d << (level as u32 * arity_bits);
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_nodes(n: usize) -> Vec<NodeSpec> {
        (0..n)
            .map(|i| {
                NodeSpec::from_address(
                    &format!("192.168.{}.{}:3128", i / 16, i % 16),
                    ((i % 8) as f64, (i / 8) as f64),
                )
            })
            .collect()
    }

    #[test]
    fn build_rejects_bad_inputs() {
        assert_eq!(
            PlaxtonTree::build(vec![], 1).unwrap_err(),
            PlaxtonError::NoNodes
        );
        let nodes = grid_nodes(4);
        assert_eq!(
            PlaxtonTree::build(nodes.clone(), 0).unwrap_err(),
            PlaxtonError::BadArity(0)
        );
        assert_eq!(
            PlaxtonTree::build(nodes.clone(), 9).unwrap_err(),
            PlaxtonError::BadArity(9)
        );
        let mut dup = nodes.clone();
        dup.push(nodes[0]);
        assert!(matches!(
            PlaxtonTree::build(dup, 1).unwrap_err(),
            PlaxtonError::DuplicateNodeId(_)
        ));
    }

    #[test]
    fn all_sources_converge_on_one_root() {
        let tree = PlaxtonTree::build(grid_nodes(32), 2).expect("build");
        for obj in 0..50u64 {
            let key = bh_md5::md5(obj.to_le_bytes()).low64();
            let root = tree.root_of(key);
            for from in 0..32 {
                let path = tree.route(from, key);
                assert_eq!(path[0], from);
                assert_eq!(
                    *path.last().expect("non-empty"),
                    root,
                    "object {obj} from {from}"
                );
            }
        }
    }

    #[test]
    fn routes_are_loop_free_and_short() {
        let tree = PlaxtonTree::build(grid_nodes(64), 2).expect("build");
        for obj in 0..100u64 {
            let key = bh_md5::md5(obj.to_le_bytes()).low64();
            for from in [0usize, 17, 63] {
                let path = tree.route(from, key);
                let distinct: std::collections::HashSet<_> = path.iter().collect();
                assert_eq!(distinct.len(), path.len(), "loop in path {path:?}");
                assert!(
                    path.len() <= tree.levels() + 2,
                    "path {path:?} longer than levels+2"
                );
            }
        }
    }

    #[test]
    fn roots_spread_across_nodes() {
        // "if there are N nodes, each node will be the root for roughly 1/N
        // of the objects."
        let n = 32;
        let tree = PlaxtonTree::build(grid_nodes(n), 1).expect("build");
        let mut counts = vec![0u32; n];
        let objects = 4_000;
        for obj in 0..objects as u64 {
            let key = bh_md5::md5(obj.to_le_bytes()).low64();
            counts[tree.root_of(key)] += 1;
        }
        let expected = objects as f64 / n as f64;
        let max = *counts.iter().max().expect("non-empty") as f64;
        let nonzero = counts.iter().filter(|&&c| c > 0).count();
        assert!(nonzero > n / 2, "only {nonzero}/{n} nodes ever root");
        assert!(
            max < expected * 6.0,
            "hottest root {max} vs expected {expected}"
        );
    }

    #[test]
    fn locality_parents_nearer_at_low_levels() {
        // "Near the leaves of the virtual trees, the distance between
        // parents and children tends to be small; near the roots, this
        // distance is generally larger."
        let tree = PlaxtonTree::build(grid_nodes(64), 1).expect("build");
        let b = tree.arity() as usize;
        let mut level_dist = vec![(0.0f64, 0u32); tree.levels()];
        for i in 0..64 {
            for (level, slot) in level_dist.iter_mut().enumerate() {
                for d in 0..b as u64 {
                    if let Some(p) = tree.parent(i, level, d) {
                        if p != i {
                            let dx =
                                tree.node(i).unwrap().position.0 - tree.node(p).unwrap().position.0;
                            let dy =
                                tree.node(i).unwrap().position.1 - tree.node(p).unwrap().position.1;
                            slot.0 += (dx * dx + dy * dy).sqrt();
                            slot.1 += 1;
                        }
                    }
                }
            }
        }
        let avg = |l: usize| level_dist[l].0 / level_dist[l].1.max(1) as f64;
        // Compare the lowest populated level against a higher one.
        assert!(
            avg(0) < avg(3.min(tree.levels() - 1)) + 1e-9,
            "level-0 parents ({}) should be nearer than level-3 parents ({})",
            avg(0),
            avg(3.min(tree.levels() - 1))
        );
    }

    #[test]
    fn remove_node_disturbs_little_and_preserves_convergence() {
        let mut tree = PlaxtonTree::build(grid_nodes(64), 2).expect("build");
        let total_entries = tree.table_entries();
        let changed = tree.remove_node(20).expect("remove");
        assert!(
            (changed as f64) < total_entries as f64 * 0.25,
            "{changed}/{total_entries} entries changed on one departure"
        );
        assert!(!tree.is_alive(20));
        assert_eq!(tree.len(), 63);
        // Still converges, and never routes through the dead node.
        for obj in 0..30u64 {
            let key = bh_md5::md5(obj.to_le_bytes()).low64();
            let root = tree.root_of(key);
            for from in [0usize, 5, 40] {
                let path = tree.route(from, key);
                assert!(!path.contains(&20), "routed through dead node: {path:?}");
                assert_eq!(*path.last().unwrap(), root);
            }
        }
    }

    #[test]
    fn remove_twice_errors() {
        let mut tree = PlaxtonTree::build(grid_nodes(8), 1).expect("build");
        tree.remove_node(3).expect("first removal");
        assert_eq!(
            tree.remove_node(3).unwrap_err(),
            PlaxtonError::NoSuchNode(3)
        );
        assert_eq!(
            tree.remove_node(99).unwrap_err(),
            PlaxtonError::NoSuchNode(99)
        );
    }

    #[test]
    fn add_node_wires_in_and_preserves_convergence() {
        let mut tree = PlaxtonTree::build(grid_nodes(31), 2).expect("build");
        let newcomer = NodeSpec::from_address("10.9.9.9:3128", (3.5, 1.5));
        let (idx, _changed) = tree.add_node(newcomer).expect("add");
        assert_eq!(tree.len(), 32);
        assert!(tree.is_alive(idx));
        for obj in 0..30u64 {
            let key = bh_md5::md5(obj.to_le_bytes()).low64();
            let root = tree.root_of(key);
            for from in 0..tree.len() {
                assert_eq!(*tree.route(from, key).last().unwrap(), root);
            }
        }
    }

    #[test]
    fn add_duplicate_id_rejected() {
        let mut tree = PlaxtonTree::build(grid_nodes(8), 1).expect("build");
        let dup = *tree.node(0).expect("exists");
        assert!(matches!(
            tree.add_node(dup),
            Err(PlaxtonError::DuplicateNodeId(_))
        ));
    }

    #[test]
    fn single_node_is_root_of_everything() {
        let tree = PlaxtonTree::build(grid_nodes(1), 1).expect("build");
        for obj in 0..10u64 {
            let key = bh_md5::md5(obj.to_le_bytes()).low64();
            assert_eq!(tree.root_of(key), 0);
            assert_eq!(tree.route(0, key), vec![0]);
        }
    }

    #[test]
    fn wider_arity_shortens_paths() {
        let binary = PlaxtonTree::build(grid_nodes(64), 1).expect("build");
        let hex = PlaxtonTree::build(grid_nodes(64), 4).expect("build");
        let avg_len = |tree: &PlaxtonTree| {
            let mut total = 0usize;
            let mut count = 0usize;
            for obj in 0..60u64 {
                let key = bh_md5::md5(obj.to_le_bytes()).low64();
                for from in [0usize, 21, 42] {
                    total += tree.route(from, key).len();
                    count += 1;
                }
            }
            total as f64 / count as f64
        };
        assert!(
            avg_len(&hex) < avg_len(&binary),
            "16-ary paths ({}) should be shorter than binary ({})",
            avg_len(&hex),
            avg_len(&binary)
        );
    }

    /// Every live node's table with entries spelled as node IDs, keyed by
    /// the owner's ID — comparable across trees whose indices differ.
    fn tables_by_id(tree: &PlaxtonTree) -> std::collections::BTreeMap<u64, Vec<Option<u64>>> {
        tree.nodes
            .iter()
            .filter(|n| n.alive)
            .map(|n| {
                let row = n
                    .table
                    .iter()
                    .map(|&e| (e != NONE).then(|| tree.nodes[e].spec.id))
                    .collect();
                (n.spec.id, row)
            })
            .collect()
    }

    /// The bound on network-reachable growth: a member that flaps 1,000
    /// times comes back to its own slot every time, and the tree it
    /// rejoins is the tree that never churned.
    #[test]
    fn flapping_member_keeps_its_slot_and_the_tables() {
        let specs: Vec<NodeSpec> = (0..6)
            .map(|i| NodeSpec::from_address(&format!("127.0.0.1:{}", 9000 + i), (i as f64, 0.0)))
            .collect();
        let never_churned = PlaxtonTree::build(specs.clone(), 1).expect("build");
        let mut tree = never_churned.clone();
        for _ in 0..1_000 {
            tree.remove_node(2).expect("leave");
            let (idx, _) = tree.add_node(specs[2]).expect("rejoin");
            assert_eq!(idx, 2, "a returning member takes its own slot back");
        }
        assert_eq!(tree.nodes.len(), specs.len(), "one slot per member");
        assert_eq!(tree.len(), specs.len());
        assert_eq!(tables_by_id(&tree), tables_by_id(&never_churned));
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// Convergence holds for arbitrary node counts, arities, seeds.
            #[test]
            fn convergence(n in 2usize..40, arity_bits in 1u32..5, salt in any::<u64>()) {
                let nodes: Vec<NodeSpec> = (0..n)
                    .map(|i| NodeSpec {
                        id: bh_md5::md5((salt, i as u64).0.to_le_bytes())
                            .low64()
                            .wrapping_add((i as u64).wrapping_mul(0x9E3779B97F4A7C15)),
                        position: ((i % 7) as f64, (i / 7) as f64),
                    })
                    .collect();
                let tree = match PlaxtonTree::build(nodes, arity_bits) {
                    Ok(t) => t,
                    Err(PlaxtonError::DuplicateNodeId(_)) => return Ok(()),
                    Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
                };
                for obj in 0..5u64 {
                    let key = bh_md5::md5((salt ^ obj).to_le_bytes()).low64();
                    let root = tree.root_of(key);
                    for from in 0..n {
                        prop_assert_eq!(*tree.route(from, key).last().unwrap(), root);
                    }
                }
            }

            /// Differential: after any leave/join sequence, every live
            /// node's table equals the table of a tree built fresh over
            /// the live set. Collinear integer positions make distance
            /// ties the common case (the live mesh puts member `i` at
            /// `(i, 0)`); the grid has them too.
            #[test]
            fn churned_tree_equals_fresh_build(
                n in 2usize..10,
                arity_bits in 1u32..5,
                collinear in any::<bool>(),
                salt in any::<u64>(),
                ops in proptest::collection::vec(0usize..10, 1..24),
            ) {
                let specs: Vec<NodeSpec> = (0..n)
                    .map(|i| NodeSpec {
                        id: bh_md5::md5((salt ^ i as u64).to_le_bytes()).low64(),
                        position: if collinear {
                            (i as f64, 0.0)
                        } else {
                            ((i % 3) as f64, (i / 3) as f64)
                        },
                    })
                    .collect();
                let mut tree = match PlaxtonTree::build(specs.clone(), arity_bits) {
                    Ok(t) => t,
                    Err(PlaxtonError::DuplicateNodeId(_)) => return Ok(()),
                    Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
                };
                let mut live = vec![true; n];
                for op in ops {
                    let k = op % n;
                    if live[k] {
                        if tree.len() == 1 {
                            continue;
                        }
                        tree.remove_node(k).expect("leave");
                    } else {
                        tree.add_node(specs[k]).expect("rejoin");
                    }
                    live[k] = !live[k];
                    let survivors: Vec<NodeSpec> =
                        (0..n).filter(|&i| live[i]).map(|i| specs[i]).collect();
                    let fresh = PlaxtonTree::build(survivors, arity_bits).expect("fresh build");
                    prop_assert!(
                        tables_by_id(&tree) == tables_by_id(&fresh),
                        "tables differ from a fresh build once member {k} {}",
                        if live[k] { "rejoins" } else { "leaves" }
                    );
                }
            }
        }
    }
}
