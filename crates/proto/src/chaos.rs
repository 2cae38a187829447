//! Deterministic fault-plan driver for a live mesh.
//!
//! A [`FaultPlan`] is a seeded schedule of fault windows — crash/restart,
//! partition, added latency, packet drop — positioned by **request
//! counts**, not wall-clock time. The load generator replays a trace
//! segment by segment: `pre` requests before the fault is injected,
//! `hold` requests while it is active, `post` requests after it is
//! lifted. Because every transition is pinned to a request offset, the
//! schedule a plan implies ([`FaultPlan::event_log`]) is a pure function
//! of the plan: the same seed produces a byte-identical event log on
//! every run, which is what makes chaos regressions diffable in CI.
//!
//! A running [`Mesh`] (stood up by [`Mesh::spawn`]) knows how to apply
//! and lift each [`FaultKind`]. Every live control travels through the
//! mesh API namespace as a wire-level `Set` (the same remotely
//! addressable path `obs set` uses), so a chaos window exercises exactly
//! what an operator could do to a production mesh — nothing here reaches
//! into process-local pool or fault-switch handles:
//!
//! * **Crash** — the node is torn down with [`CacheNode::kill`]
//!   (pending hint updates discarded, no goodbye); lifting the window
//!   restarts it on the *same* port (so surviving hints stay addressable)
//!   and rebuilds its hint table by scheduling an anti-entropy resync
//!   via `Set control/resync`, polling `control/resync/runs` for
//!   completion. (The crash itself is process-local by nature.)
//! * **Partition** — both directions of a pair are severed with
//!   `Set pool/blocked/<addr> = true` on each side; the origin is never
//!   blocked, so partitioned nodes degrade to origin fetches rather
//!   than failing. Lifting writes `false`, which also forgives any
//!   quarantine the window accrued.
//! * **Latency** — `Set pool/fault/rx_latency_micros` / `..._tx_...` on
//!   one node's [`bh_netpoll::fault::FaultSwitch`].
//! * **Drop** — `Set pool/fault/drop_per_million`: probabilistic
//!   outbound send drops from the switch's seeded drop stream.

use crate::client::Connection;
use crate::liveness::PeerHealth;
use crate::mesh::{Mesh, Topology};
use crate::node::{mesh_tree_for, CacheNode};
use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// One fault to inject into a running mesh. Node indices refer to the
/// mesh's spawn order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum FaultKind {
    /// Crash-stop `node`; lifted by a warm restart on the same port plus
    /// an anti-entropy resync.
    Crash {
        /// Index of the node to kill.
        node: usize,
    },
    /// Sever the `a`↔`b` link in both directions.
    Partition {
        /// One side of the severed link.
        a: usize,
        /// The other side.
        b: usize,
    },
    /// Sever only the `from`→`to` direction: `from` cannot reach `to`,
    /// while `to` still reaches `from` (an asymmetric route failure).
    PartitionOneWay {
        /// The node whose outbound path is cut.
        from: usize,
        /// The unreachable destination.
        to: usize,
    },
    /// Add fixed service delay to everything `node` receives and sends.
    Latency {
        /// Index of the slowed node.
        node: usize,
        /// Injected delay per direction, microseconds.
        micros: u32,
    },
    /// Drop a fraction of `node`'s outbound sends.
    Drop {
        /// Index of the lossy node.
        node: usize,
        /// Drop rate in parts per million.
        per_million: u32,
    },
    /// Crash-stop the first *interior* (parent) node at hierarchy depth
    /// `level` — a role-targeted crash that only a hierarchical mesh
    /// ([`Topology::TwoLevel`]) can resolve to a concrete index. Its
    /// orphaned children must re-home to a fallback parent and hint
    /// propagation must resume through the adopter.
    CrashParent {
        /// Hierarchy depth of the targeted parent (0 = the top level).
        level: usize,
    },
    /// Turn `peer` byzantine: its outbound hint batches carry corrupted
    /// authenticator tags. Honest receivers must reject every batch,
    /// quarantine the peer once its failure streak crosses the
    /// threshold, and purge the hints it planted — with zero client
    /// errors, since hints are advisory. Lifting the window restores
    /// valid tags; the peer's next good batch heals the quarantine.
    CorruptHints {
        /// Index of the byzantine node.
        peer: usize,
    },
}

impl FaultKind {
    /// A stable one-line description used in event logs.
    pub fn describe(&self) -> String {
        match *self {
            FaultKind::Crash { node } => format!("crash node={node}"),
            FaultKind::Partition { a, b } => format!("partition a={a} b={b}"),
            FaultKind::PartitionOneWay { from, to } => {
                format!("partition_oneway from={from} to={to}")
            }
            FaultKind::Latency { node, micros } => format!("latency node={node} micros={micros}"),
            FaultKind::Drop { node, per_million } => {
                format!("drop node={node} per_million={per_million}")
            }
            FaultKind::CrashParent { level } => format!("crash_parent level={level}"),
            FaultKind::CorruptHints { peer } => format!("corrupt_hints peer={peer}"),
        }
    }

    /// Largest node index the fault touches. [`FaultKind::CrashParent`]
    /// names a role, not an index, and reports 0 — topology-aware
    /// validation ([`FaultPlan::validate_for`]) checks it instead.
    fn max_node(&self) -> usize {
        match *self {
            FaultKind::Crash { node }
            | FaultKind::Latency { node, .. }
            | FaultKind::Drop { node, .. } => node,
            FaultKind::CorruptHints { peer } => peer,
            FaultKind::Partition { a, b } => a.max(b),
            FaultKind::PartitionOneWay { from, to } => from.max(to),
            FaultKind::CrashParent { .. } => 0,
        }
    }
}

/// One fault window: `pre` healthy requests, inject, `hold` requests
/// under the fault, lift, `post` recovery requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct FaultWindow {
    /// The fault this window injects.
    pub fault: FaultKind,
    /// Requests replayed before injection (baseline segment).
    pub pre: u64,
    /// Requests replayed while the fault is active.
    pub hold: u64,
    /// Requests replayed after the fault is lifted (recovery segment).
    pub post: u64,
}

/// A seeded, request-count-positioned schedule of fault windows.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct FaultPlan {
    /// Seed for the workload replayed under the plan (and anything else
    /// the harness randomizes). The event schedule itself is already
    /// deterministic by construction.
    pub seed: u64,
    /// Windows executed in order, back to back.
    pub windows: Vec<FaultWindow>,
}

impl FaultPlan {
    /// The canonical CI smoke plan: one crash window and one partition
    /// window over a 4-node mesh.
    pub fn smoke(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            windows: vec![
                FaultWindow {
                    fault: FaultKind::Crash { node: 1 },
                    pre: 600,
                    hold: 600,
                    post: 600,
                },
                FaultWindow {
                    fault: FaultKind::Partition { a: 0, b: 2 },
                    pre: 300,
                    hold: 600,
                    post: 600,
                },
            ],
        }
    }

    /// Total requests the plan replays across every segment.
    pub fn total_requests(&self) -> u64 {
        self.windows.iter().map(|w| w.pre + w.hold + w.post).sum()
    }

    /// Checks every referenced node index against the mesh size and
    /// rejects degenerate windows. This is the *flat-mesh* check:
    /// role-targeted faults ([`FaultKind::CrashParent`]) are rejected
    /// here because a flat mesh has no parents — use
    /// [`FaultPlan::validate_for`] with a hierarchical topology.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid window.
    pub fn validate(&self, mesh_size: usize) -> Result<(), String> {
        self.validate_for(&Topology::Flat { nodes: mesh_size })
    }

    /// Topology-aware validation: like [`FaultPlan::validate`], but
    /// resolves role-targeted faults against `topology`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid window.
    pub fn validate_for(&self, topology: &Topology) -> Result<(), String> {
        topology.validate()?;
        let mesh_size = topology.size();
        if self.windows.is_empty() {
            return Err("plan has no fault windows".into());
        }
        for (i, w) in self.windows.iter().enumerate() {
            if w.fault.max_node() >= mesh_size {
                return Err(format!(
                    "window {i} ({}) references a node outside the {mesh_size}-node mesh",
                    w.fault.describe()
                ));
            }
            match w.fault {
                FaultKind::Partition { a, b } if a == b => {
                    return Err(format!(
                        "window {i}: partition endpoints must differ (got {a})"
                    ));
                }
                FaultKind::PartitionOneWay { from, to } if from == to => {
                    return Err(format!(
                        "window {i}: one-way partition endpoints must differ (got {from})"
                    ));
                }
                FaultKind::CrashParent { level } if topology.first_parent_at(level).is_none() => {
                    return Err(format!(
                        "window {i}: crash_parent level={level} needs a hierarchical \
                         mesh with interior nodes at that depth"
                    ));
                }
                _ => {}
            }
            if w.hold == 0 {
                return Err(format!(
                    "window {i}: hold segment must replay at least 1 request"
                ));
            }
        }
        Ok(())
    }

    /// Renders the deterministic event schedule the plan implies: one
    /// line per inject/lift, positioned by cumulative request offset.
    /// Depends on nothing but the plan, so two runs of the same plan
    /// produce byte-identical logs.
    pub fn event_log(&self) -> String {
        let mut out = format!("plan seed={} windows={}\n", self.seed, self.windows.len());
        let mut offset = 0u64;
        for (i, w) in self.windows.iter().enumerate() {
            offset += w.pre;
            out.push_str(&format!(
                "window {i}: inject {} at request {offset}\n",
                w.fault.describe()
            ));
            offset += w.hold;
            out.push_str(&format!(
                "window {i}: lift {} at request {offset}\n",
                w.fault.describe()
            ));
            offset += w.post;
        }
        out.push_str(&format!("plan complete at request {offset}\n"));
        out
    }
}

/// Fault injection on a running mesh.
impl Mesh {
    /// Resolves a role-targeted fault to the concrete node index it
    /// names under this mesh's topology. Index-targeted faults pass
    /// through unchanged.
    pub fn resolve(&self, fault: FaultKind) -> FaultKind {
        match fault {
            FaultKind::CrashParent { level } => match self.topology().first_parent_at(level) {
                Some(node) => FaultKind::Crash { node },
                // Rejected by validate_for before any plan runs; resolving
                // anyway keeps inject/lift total.
                None => fault,
            },
            other => other,
        }
    }

    /// Crash-stops node `index` (no-op if already down).
    pub fn crash(&mut self, index: usize) {
        if let Some(node) = self.nodes[index].take() {
            node.kill();
        }
    }

    /// Restarts a crashed node on its original port, rewires it into the
    /// mesh, and rebuilds its hint table: a node with a durable hint log
    /// ([`crate::node::NodeConfig::durability_dir`]) recovers by replaying it at
    /// spawn — no network traffic — and falls back to an anti-entropy
    /// resync driven through the mesh API control plane only when the
    /// replay recovered nothing. Returns the number of hint records
    /// recovered either way.
    ///
    /// # Errors
    ///
    /// Fails if the original port cannot be rebound or the scheduled
    /// resync never completes.
    pub fn restart(&mut self, index: usize) -> io::Result<usize> {
        if self.nodes[index].is_some() {
            return Ok(0);
        }
        let node = CacheNode::spawn(self.configs[index].clone())?;
        self.wire(index, &node);
        let recovered = match node.stats().hints_recovered_from_log {
            0 => resync_over_wire(node.addr())?,
            replayed => replayed as usize,
        };
        self.nodes[index] = Some(node);
        Ok(recovered)
    }

    /// Drives heartbeat rounds until every survivor has confirmed node
    /// `dead` dead (so stale-hint GC and Plaxton repair have fired), for at
    /// most 10 seconds. Returns whether confirmation was reached.
    pub fn await_confirmed_death(&self, dead: usize) -> bool {
        let addr = self.addrs()[dead];
        // bh-lint: allow(no-wall-clock, reason = "deadline-bounded wait on a live mesh; failure detection is wall-clock here")
        let deadline = Instant::now() + Duration::from_secs(10);
        // bh-lint: allow(no-wall-clock, reason = "loop bound against the same live-mesh deadline")
        while Instant::now() < deadline {
            self.heartbeat_all();
            let confirmed = (0..self.addrs().len())
                .filter(|&i| i != dead)
                .filter_map(|i| self.node(i))
                .all(|n| n.peer_health(addr) == PeerHealth::Dead);
            if confirmed {
                return true;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        false
    }

    /// Sends one control-plane write to the node at `index` over the
    /// wire. Crashed slots are skipped (there is nothing to configure
    /// and nothing listening).
    fn control_set(&self, index: usize, path: &str, value: &str) -> io::Result<()> {
        if self.node(index).is_none() {
            return Ok(());
        }
        Connection::open(self.addrs()[index])?.meta_set(path, value)?;
        Ok(())
    }

    /// Writes every fault-switch knob on `index` back to its off value
    /// (the namespace spelling of `FaultSwitch::clear`).
    fn clear_faults(&self, index: usize) -> io::Result<()> {
        for knob in ["rx_latency_micros", "tx_latency_micros", "drop_per_million"] {
            self.control_set(index, &format!("mesh/nodes/self/pool/fault/{knob}"), "0")?;
        }
        self.control_set(
            index,
            "mesh/nodes/self/pool/fault/corrupt_hint_tags",
            "false",
        )
    }

    /// Applies `fault` to the running mesh. Everything except the crash
    /// itself is a wire-level namespace write.
    ///
    /// # Errors
    ///
    /// Propagates control-plane write failures.
    pub fn inject(&mut self, fault: FaultKind) -> io::Result<()> {
        match self.resolve(fault) {
            FaultKind::Crash { node } => self.crash(node),
            FaultKind::Partition { a, b } => {
                let (addr_a, addr_b) = (self.addrs()[a], self.addrs()[b]);
                self.control_set(a, &format!("mesh/nodes/self/pool/blocked/{addr_b}"), "true")?;
                self.control_set(b, &format!("mesh/nodes/self/pool/blocked/{addr_a}"), "true")?;
            }
            FaultKind::PartitionOneWay { from, to } => {
                // Asymmetric: only `from`'s outbound path to `to` is cut;
                // the reverse direction stays healthy.
                let addr_to = self.addrs()[to];
                self.control_set(
                    from,
                    &format!("mesh/nodes/self/pool/blocked/{addr_to}"),
                    "true",
                )?;
            }
            FaultKind::Latency { node, micros } => {
                let micros = micros.to_string();
                self.control_set(
                    node,
                    "mesh/nodes/self/pool/fault/rx_latency_micros",
                    &micros,
                )?;
                self.control_set(
                    node,
                    "mesh/nodes/self/pool/fault/tx_latency_micros",
                    &micros,
                )?;
            }
            FaultKind::Drop { node, per_million } => {
                self.control_set(
                    node,
                    "mesh/nodes/self/pool/fault/drop_per_million",
                    &per_million.to_string(),
                )?;
            }
            FaultKind::CorruptHints { peer } => {
                self.control_set(peer, "mesh/nodes/self/pool/fault/corrupt_hint_tags", "true")?;
            }
            // `resolve` maps CrashParent to Crash on hierarchical meshes;
            // on a flat mesh (rejected at validation) it is a no-op.
            FaultKind::CrashParent { .. } => {}
        }
        Ok(())
    }

    /// Lifts `fault`, restoring the mesh to its pre-window wiring (and
    /// restarting the node a crash window killed).
    ///
    /// # Errors
    ///
    /// Propagates restart failures for crash windows.
    pub fn lift(&mut self, fault: FaultKind) -> io::Result<()> {
        match self.resolve(fault) {
            FaultKind::Crash { node } => {
                self.restart(node)?;
            }
            FaultKind::Partition { a, b } => {
                // `Set blocked = false` also forgives: the next probe
                // must get through instead of waiting out quarantine.
                let (addr_a, addr_b) = (self.addrs()[a], self.addrs()[b]);
                self.control_set(
                    a,
                    &format!("mesh/nodes/self/pool/blocked/{addr_b}"),
                    "false",
                )?;
                self.control_set(
                    b,
                    &format!("mesh/nodes/self/pool/blocked/{addr_a}"),
                    "false",
                )?;
            }
            FaultKind::PartitionOneWay { from, to } => {
                let addr_to = self.addrs()[to];
                self.control_set(
                    from,
                    &format!("mesh/nodes/self/pool/blocked/{addr_to}"),
                    "false",
                )?;
            }
            FaultKind::Latency { node, .. } | FaultKind::Drop { node, .. } => {
                self.clear_faults(node)?;
            }
            FaultKind::CorruptHints { peer } => {
                // Stop corrupting; the receivers' quarantines lift on the
                // peer's next valid batch (the protocol-level heal), but
                // the mesh-level lift also unblocks it everywhere so the
                // post segment starts from restored wiring either way.
                self.clear_faults(peer)?;
                let addr = self.addrs()[peer];
                for i in 0..self.addrs().len() {
                    if i != peer {
                        self.control_set(
                            i,
                            &format!("mesh/nodes/self/pool/blocked/{addr}"),
                            "false",
                        )?;
                    }
                }
            }
            FaultKind::CrashParent { .. } => {}
        }
        Ok(())
    }
}

/// Drives a freshly restarted node's anti-entropy resync through the
/// mesh API control plane: `Set control/resync` schedules the pull on a
/// detached node thread, then the namespace counters are polled until
/// the run completes and report how many hint records it learned.
fn resync_over_wire(addr: SocketAddr) -> io::Result<usize> {
    let mut conn = Connection::open(addr)?;
    let before = read_counter(&mut conn, "mesh/nodes/self/control/resync/runs")?;
    conn.meta_set("mesh/nodes/self/control/resync", "1")?;
    // Bounded poll: a resync against a small mesh completes in
    // milliseconds; the cap (~10 s) only bounds a wedged run.
    for _ in 0..5000 {
        if read_counter(&mut conn, "mesh/nodes/self/control/resync/runs")? > before {
            let learned = read_counter(&mut conn, "mesh/nodes/self/control/resync/learned")?;
            return Ok(learned as usize);
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    Err(io::Error::other(format!(
        "scheduled resync on {addr} did not complete"
    )))
}

/// Reads one numeric namespace leaf.
fn read_counter(conn: &mut Connection, path: &str) -> io::Result<u64> {
    let entries = conn.meta_get(path)?;
    entries
        .first()
        .and_then(|e| e.value.parse().ok())
        .ok_or_else(|| io::Error::other(format!("non-numeric value at {path}")))
}

/// Analytic count of the Plaxton routing-table entries the mesh rewrites
/// when `dead` (a spawn index) is removed from a mesh over `members` —
/// the number every survivor's live repair must match.
pub fn analytic_churn_for(members: &[SocketAddr], dead: usize) -> usize {
    let mut tree = mesh_tree_for(members);
    tree.remove_node(dead).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_plan_validates_and_logs_deterministically() {
        let plan = FaultPlan::smoke(42);
        plan.validate(4).expect("smoke plan is valid for 4 nodes");
        assert_eq!(plan.total_requests(), 600 * 3 + 300 + 600 + 600);
        let log_a = plan.event_log();
        let log_b = FaultPlan::smoke(42).event_log();
        assert_eq!(log_a, log_b, "same seed, byte-identical schedule");
        assert!(log_a.contains("inject crash node=1 at request 600"));
        assert!(log_a.contains("lift crash node=1 at request 1200"));
        assert!(log_a.contains("inject partition a=0 b=2 at request 2100"));
        assert!(log_a.contains("plan complete at request 3300"));
        assert_ne!(log_a, FaultPlan::smoke(43).event_log());
    }

    #[test]
    fn validate_rejects_bad_plans() {
        let mut plan = FaultPlan::smoke(1);
        assert!(plan.validate(2).is_err(), "node 2 outside a 2-node mesh");
        plan.windows[0].hold = 0;
        assert!(plan.validate(4).is_err(), "empty hold segment");
        plan.windows.clear();
        assert!(plan.validate(4).is_err(), "no windows");
        let twisted = FaultPlan {
            seed: 1,
            windows: vec![FaultWindow {
                fault: FaultKind::Partition { a: 1, b: 1 },
                pre: 0,
                hold: 1,
                post: 0,
            }],
        };
        assert!(twisted.validate(4).is_err(), "self-partition");
        let looped = FaultPlan {
            seed: 1,
            windows: vec![FaultWindow {
                fault: FaultKind::PartitionOneWay { from: 2, to: 2 },
                pre: 0,
                hold: 1,
                post: 0,
            }],
        };
        assert!(looped.validate(4).is_err(), "self one-way partition");
    }

    #[test]
    fn plans_round_trip_through_serde() {
        let plan = FaultPlan {
            seed: 7,
            windows: vec![
                FaultWindow {
                    fault: FaultKind::Latency {
                        node: 0,
                        micros: 500,
                    },
                    pre: 10,
                    hold: 20,
                    post: 30,
                },
                FaultWindow {
                    fault: FaultKind::Drop {
                        node: 3,
                        per_million: 250_000,
                    },
                    pre: 1,
                    hold: 2,
                    post: 3,
                },
                FaultWindow {
                    fault: FaultKind::PartitionOneWay { from: 1, to: 2 },
                    pre: 5,
                    hold: 5,
                    post: 5,
                },
                FaultWindow {
                    fault: FaultKind::CorruptHints { peer: 2 },
                    pre: 4,
                    hold: 8,
                    post: 4,
                },
            ],
        };
        let json = serde_json::to_string(&plan).expect("serialize");
        let back: FaultPlan = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(plan, back);
    }
}
