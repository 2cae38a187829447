//! The node's one membership state: who it flushes hints to, who it
//! heartbeats, what it believes about their health, and the Plaxton
//! metadata tree (§3.1.3) it keeps repaired — all behind the single
//! `Inner.membership` lock.
//!
//! [`Membership::observe`] is the one step that changes any of it after
//! wiring: it feeds a heartbeat outcome to the failure detector and, on
//! the `Died`/`Revived` edge, repairs the tree and re-homes an orphan
//! before it returns. The heartbeat thread counts the repair while it
//! still holds the guard, so **`Dead` implies repaired**: a thread that
//! reads `peer_health(addr) == Dead` also reads the repaired
//! `plaxton_repair_entries`, the bumped `parent_rehomes` and the new
//! parent. The step takes the clock as a parameter and touches no
//! socket; pings, the hint purge and the store re-advertisement happen
//! in [`heartbeat_round`], outside the lock.

use super::propagation::{held_as_adds, purge_machine, queue_pending};
use super::{Inner, NodeConfig};
use crate::liveness::{LivenessConfig, LivenessTracker, PeerHealth, Transition};
use crate::pool::RequestOptions;
use crate::wire::{MachineId, Message};
use bh_plaxton::{NodeSpec, PlaxtonTree};
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// One node's place in a mesh, as addresses. [`crate::mesh::Topology::wiring`]
/// computes it; [`super::CacheNode::rewire`] installs it whole.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Wiring {
    /// Peers that receive this node's hint flushes.
    pub neighbors: Vec<SocketAddr>,
    /// Metadata parent, for a child of a hierarchy (§3.1.2): updates that
    /// change this node's knowledge climb to it, *filtered* — an Add only
    /// when it is the first copy this subtree has heard of, a Remove only
    /// when no alternative location remains.
    pub parent: Option<SocketAddr>,
    /// Metadata children, for a parent of a hierarchy: state-changing
    /// updates learned from above (or from one child) propagate down.
    pub children: Vec<SocketAddr>,
    /// Parents an orphaned child may adopt, in preference order. Empty
    /// means "stay orphaned" (the flat-mesh default).
    pub fallback_parents: Vec<SocketAddr>,
    /// Peers to heartbeat when that is not the neighbor set —
    /// hierarchical meshes monitor the whole membership while hint
    /// flushes still follow the tree.
    pub liveness_peers: Option<Vec<SocketAddr>>,
    /// Every mesh member in the order all members agree on: member `i`
    /// sits at `(i, 0)` in the shared Plaxton tree ([`mesh_tree_for`]).
    /// Empty for a node wired by hand outside a mesh (no tree to repair).
    pub members: Vec<SocketAddr>,
}

/// Member `index`'s place in the canonical tree: its ID hashes the
/// address, its coordinates are `(index, 0)`.
fn member_spec(addr: SocketAddr, index: usize) -> NodeSpec {
    NodeSpec::from_address(&addr.to_string(), (index as f64, 0.0))
}

/// Builds the canonical Plaxton metadata tree over an ordered member
/// list: member `i` sits at coordinates `(i, 0)`. Public so integration
/// tests and the chaos driver can replay the same churn against an
/// analytic copy of the tree a live mesh starts from.
pub fn mesh_tree_for(members: &[SocketAddr]) -> PlaxtonTree {
    let specs = members
        .iter()
        .enumerate()
        .map(|(i, a)| member_spec(*a, i))
        .collect();
    // bh-lint: allow(no-panic-hot-path, reason = "setup-time precondition on mesh construction, not a request path")
    PlaxtonTree::build(specs, 1).expect("mesh members form a valid Plaxton tree")
}

/// What one [`Membership::observe`] step changed, for the caller to count
/// and to finish on the I/O side.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(super) struct Observed {
    /// The peer was confirmed dead on this step: purge the hints naming it.
    pub died: bool,
    /// Plaxton routing-table entries rewritten by the leave or rejoin.
    pub repaired: usize,
    /// The dead peer was this node's parent and a fallback was adopted:
    /// re-advertise the store so propagation resumes through it.
    pub rehomed: bool,
}

/// See the [module docs](self).
#[derive(Debug)]
pub(super) struct Membership {
    wiring: Wiring,
    liveness: LivenessTracker,
    /// The shared tree over `wiring.members`; member `i` is tree node `i`
    /// for life (a revived member returns to its own slot).
    tree: Option<PlaxtonTree>,
}

impl Membership {
    /// A membership that presumes every peer of `wiring` alive.
    pub fn new(wiring: Wiring, config: &NodeConfig) -> Self {
        Membership {
            tree: (!wiring.members.is_empty()).then(|| mesh_tree_for(&wiring.members)),
            liveness: LivenessTracker::new(LivenessConfig {
                suspicion_threshold: config.suspicion_threshold,
                confirm_death_after: config.confirm_death_after,
            }),
            wiring,
        }
    }

    /// Replaces the hint-flush neighbor set, leaving the rest in place.
    pub fn set_neighbors(&mut self, neighbors: Vec<SocketAddr>) {
        self.wiring.neighbors = neighbors;
    }

    /// The current metadata parent, if any.
    pub fn parent(&self) -> Option<SocketAddr> {
        self.wiring.parent
    }

    /// Whether hint updates that change this node's table propagate on
    /// (it has a tree edge to carry them).
    pub fn hierarchical(&self) -> bool {
        self.wiring.parent.is_some() || !self.wiring.children.is_empty()
    }

    /// Everyone a hint flush reaches: the neighbor set plus the tree edges
    /// (parent, then children).
    pub fn flush_targets(&self) -> Vec<SocketAddr> {
        let mut targets = self.wiring.neighbors.clone();
        targets.extend(self.wiring.parent);
        targets.extend(&self.wiring.children);
        targets
    }

    /// The failure detector's current judgment of `addr`.
    pub fn health(&self, addr: SocketAddr) -> PeerHealth {
        self.liveness.health(addr)
    }

    /// Feeds one heartbeat outcome for `addr` at time `now` to the failure
    /// detector and, on a confirmed edge, repairs the standing state in
    /// the same step. Confirmed death removes the member from the Plaxton
    /// tree and — when it was this node's metadata parent — adopts the
    /// first fallback parent that is not the dead one (the paper's
    /// self-configuring hierarchy); revival returns the member to its
    /// slot in the tree. Its hint records rebuild through the peer's own
    /// resync plus the normal update flow, not here.
    pub fn observe(&mut self, addr: SocketAddr, answered: bool, now: Instant) -> Observed {
        let transition = if answered {
            self.liveness.record_ok(addr)
        } else {
            self.liveness.record_failure(addr, now)
        };
        let mut observed = Observed::default();
        match transition {
            Transition::Died => {
                observed.died = true;
                observed.repaired = self.repair_tree(addr, false);
                if self.wiring.parent == Some(addr) {
                    let fallbacks = &self.wiring.fallback_parents;
                    self.wiring.parent = fallbacks.iter().copied().find(|p| *p != addr);
                    observed.rehomed = self.wiring.parent.is_some();
                }
            }
            Transition::Revived => observed.repaired = self.repair_tree(addr, true),
            Transition::None | Transition::Suspected => {}
        }
        observed
    }

    /// Takes `addr` out of the tree, or back into it at its own
    /// coordinates; returns the routing-table entries rewritten (0 when
    /// there is no tree or `addr` is not a member).
    fn repair_tree(&mut self, addr: SocketAddr, rejoined: bool) -> usize {
        let index = self.wiring.members.iter().position(|m| *m == addr);
        let (Some(tree), Some(index)) = (self.tree.as_mut(), index) else {
            return 0;
        };
        if rejoined {
            tree.add_node(member_spec(addr, index))
                .map_or(0, |(_, changed)| changed)
        } else {
            tree.remove_node(index).unwrap_or(0)
        }
    }
}

/// The heartbeat thread: ticks [`heartbeat_round`] on the configured
/// interval, parked on the control mailbox in between so it leaves as
/// soon as the node stops.
pub(super) fn heartbeat_loop(inner: &Inner) {
    let interval = inner
        .config
        .heartbeat_interval
        .max(Duration::from_millis(1));
    while inner.mailbox.sleep(interval) {
        heartbeat_round(inner);
    }
}

/// Pings every monitored peer once — outside the membership lock — and
/// feeds each outcome through [`Membership::observe`], then finishes a
/// confirmed transition on the I/O side: GC every hint naming a dead peer
/// (restoring the §3.2 invariant that a dead peer costs at most one
/// wasted probe per object, and zero once the detector has confirmed it)
/// and, after re-homing, re-advertise every cached object upward — the
/// subtree under the adopter may never have heard of these copies.
pub(super) fn heartbeat_round(inner: &Inner) {
    let peers = {
        let membership = inner.membership.lock();
        let wiring = &membership.wiring;
        wiring
            .liveness_peers
            .clone()
            .unwrap_or_else(|| wiring.neighbors.clone())
    };
    for addr in peers {
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // One attempt, feeds the quarantine, but never blocked by it: the
        // detector must keep probing a quarantined peer to notice both
        // durable death and revival.
        let opts = RequestOptions {
            max_attempts: 1,
            quarantine_on_failure: true,
            respect_quarantine: false,
        };
        let answered = matches!(
            inner.pool.request(addr, opts, &Message::Ping),
            Ok(Message::Ack)
        );
        if answered {
            inner.metrics.heartbeats_ok.inc();
            inner.pool.forgive(addr);
        } else {
            inner.metrics.heartbeats_failed.inc();
        }
        let observed = {
            let mut membership = inner.membership.lock();
            let observed = membership.observe(addr, answered, Instant::now());
            // Counted under the guard: whoever reads `Dead` afterwards
            // reads the repair with it.
            let metrics = &inner.metrics;
            metrics.peers_confirmed_dead.add(observed.died as u64);
            metrics.plaxton_repair_entries.add(observed.repaired as u64);
            metrics.parent_rehomes.add(observed.rehomed as u64);
            observed
        };
        if observed.died {
            if let Some(machine) = MachineId::from_addr(addr) {
                purge_machine(inner, machine);
            }
        }
        if observed.rehomed {
            queue_pending(inner, held_as_adds(inner));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::analytic_churn_for;
    use crate::mesh::Topology;

    /// The mesh `loadgen --scenario diurnal-churn --seed 42` runs, and the
    /// order its three crash windows take nodes down (each restarts
    /// before the next window).
    const TOPOLOGY: Topology = Topology::TwoLevel {
        parents: 2,
        children_per_parent: 1,
    };
    const CRASHES: [usize; 3] = [1, 2, 0];

    /// Replays the diurnal-churn history over a mesh bound to `ports`
    /// with no socket and a clock the test advances: every survivor of
    /// every window must repair exactly the analytic churn, and an
    /// orphaned child must end up under the live fallback parent.
    fn replay_diurnal_churn(ports: [u16; 4]) {
        let addrs: Vec<SocketAddr> = ports
            .iter()
            .map(|&p| SocketAddr::from(([127, 0, 0, 1], p)))
            .collect();
        let config = NodeConfig::new("127.0.0.1:0", addrs[0])
            .with_suspicion_threshold(2)
            .with_confirm_death_after(Duration::from_millis(150));
        let fresh = |i: usize| Membership::new(TOPOLOGY.wiring(&addrs, i), &config);
        let mut nodes: Vec<Membership> = (0..addrs.len()).map(fresh).collect();
        let mut now = Instant::now();
        for dead in CRASHES {
            let analytic = analytic_churn_for(&addrs, dead);
            for i in (0..addrs.len()).filter(|&i| i != dead) {
                // Failed heartbeats 40 ms apart until the detector confirms.
                let mut total = Observed::default();
                while nodes[i].health(addrs[dead]) != PeerHealth::Dead {
                    now += Duration::from_millis(40);
                    let step = nodes[i].observe(addrs[dead], false, now);
                    total.died |= step.died;
                    total.rehomed |= step.rehomed;
                    total.repaired += step.repaired;
                }
                assert!(
                    total.died,
                    "ports {ports:?}: node {i} never confirmed {dead}"
                );
                assert_eq!(
                    total.repaired, analytic,
                    "ports {ports:?}: node {i} repaired {} entries for the death of node \
                     {dead}, analytic churn is {analytic}",
                    total.repaired
                );
                if TOPOLOGY.parent_of(i) == Some(dead) {
                    let fallback = addrs[1 - dead];
                    assert!(total.rehomed, "ports {ports:?}: orphan {i} did not re-home");
                    assert_eq!(nodes[i].parent(), Some(fallback), "ports {ports:?}");
                    assert_eq!(nodes[i].health(fallback), PeerHealth::Alive);
                }
            }
            // Warm restart: the crashed node comes back freshly wired and
            // every survivor's next heartbeat is answered.
            nodes[dead] = fresh(dead);
            for i in (0..addrs.len()).filter(|&i| i != dead) {
                now += Duration::from_millis(40);
                nodes[i].observe(addrs[dead], true, now);
                assert_eq!(nodes[i].health(addrs[dead]), PeerHealth::Alive);
            }
        }
    }

    /// The two port sets of the failing runs ISSUE 21 recorded: at the
    /// parent commit nodes 1 and 3 repaired 2 entries for the death of
    /// node 0 where the analytic churn is 1.
    #[test]
    fn diurnal_churn_history_matches_analytic_churn_on_the_recorded_ports() {
        replay_diurnal_churn([45437, 39735, 41617, 37465]);
        replay_diurnal_churn([45277, 46687, 42811, 46419]);
    }

    /// Node IDs hash the ephemeral port, so the same history is replayed
    /// over a few hundred seeded port sets.
    #[test]
    fn diurnal_churn_history_matches_analytic_churn_on_seeded_ports() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next_port = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            32768 + (state >> 33) as u16 % 28000
        };
        for _ in 0..300 {
            let mut ports = [0u16; 4];
            for i in 0..ports.len() {
                ports[i] = next_port();
                while ports[..i].contains(&ports[i]) {
                    ports[i] = next_port();
                }
            }
            replay_diurnal_churn(ports);
        }
    }

    /// A node wired by hand outside a mesh has no tree: a confirmed death
    /// still purges and re-homes, and repairs nothing.
    #[test]
    fn observe_without_members_repairs_nothing() {
        let addr = |p: u16| SocketAddr::from(([127, 0, 0, 1], p));
        let config = NodeConfig::new("127.0.0.1:0", addr(1)).with_suspicion_threshold(1);
        let wiring = Wiring {
            parent: Some(addr(2)),
            fallback_parents: vec![addr(2), addr(3)],
            ..Wiring::default()
        };
        let mut membership = Membership::new(wiring, &config);
        let t0 = Instant::now();
        assert_eq!(
            membership.observe(addr(2), false, t0),
            Observed::default(),
            "suspected, not yet confirmed"
        );
        assert_eq!(
            membership.observe(addr(2), false, t0 + config.confirm_death_after),
            Observed {
                died: true,
                repaired: 0,
                rehomed: true
            }
        );
        assert_eq!(membership.parent(), Some(addr(3)));
        assert_eq!(membership.flush_targets(), vec![addr(3)]);
    }
}
