//! The wide-area testbed cost model of §2.1.1 (Figure 1).
//!
//! The testbed arranged Squid 1.1.17 caches at UC Berkeley (client + L1),
//! UC San Diego (L2), UT Austin (L3), and a server at Cornell, and measured
//! fetch time as a function of object size for (a) hierarchical access,
//! (b) direct access, and (c) direct access via the L1 proxy.
//!
//! We model each path as a sum of links, where a *link* contributes a fixed
//! setup cost (TCP connect, HTTP parse, proxy processing) plus a
//! store-and-forward transfer (`size / bandwidth`), and the cache that
//! supplies the data contributes a disk swap-in cost. The constants below
//! are fit to the paper's published anchor points:
//!
//! * an 8 KB L3 hierarchy hit is ≈2.5× slower than fetching the same object
//!   from the L3 cache directly, a difference of ≈545 ms (§2.1.1);
//! * L1 hits for 8 KB objects are ≈4.75× faster than direct access to an
//!   L2-distance cache and ≈6.17× faster than an L3-distance cache (§4);
//! * curves grow slowly below ~64 KB and roughly linearly past 256 KB
//!   (Figure 1's log-log shape).

use crate::model::{CostModel, Level, RemoteDistance};
use bh_simcore::{ByteSize, SimDuration};
use serde::{Deserialize, Serialize};

/// One link (or link class) in the testbed: setup latency plus bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Link {
    /// Fixed per-traversal cost in ms (connect + request parse + proxy
    /// processing).
    pub setup_ms: f64,
    /// Transfer bandwidth in Mbit/s for the store-and-forward copy.
    pub bandwidth_mbps: f64,
}

impl Link {
    /// Time to traverse this link with `size` bytes of payload.
    pub fn traverse(&self, size: ByteSize) -> f64 {
        self.setup_ms + size.as_bytes() as f64 * 8.0 / (self.bandwidth_mbps * 1000.0)
    }
}

/// Full parameter set for the testbed model. All times in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TestbedParams {
    /// Client ↔ L1 (switched 10 Mbit/s Ethernet, same building).
    pub client_l1: Link,
    /// L1 ↔ L2 (Berkeley ↔ San Diego over T3-connected Internet).
    pub l1_l2: Link,
    /// L2 ↔ L3 (San Diego ↔ Austin).
    pub l2_l3: Link,
    /// L3 ↔ origin server (Austin ↔ Cornell).
    pub l3_server: Link,
    /// Direct path from the L1 site to an L2-distance cache.
    pub direct_l2: Link,
    /// Direct path from the L1 site to an L3-distance cache.
    pub direct_l3: Link,
    /// Direct path from the L1 site to the origin server.
    pub direct_server: Link,
    /// Disk swap-in cost at each level's cache, ms.
    pub disk_ms: [f64; 3],
    /// Server-side service time, ms.
    pub server_ms: f64,
}

impl Default for TestbedParams {
    fn default() -> Self {
        // Fit to the Figure 1 anchors; see module docs. The inter-proxy
        // setup costs are dominated by Squid request-processing overhead on
        // loaded wide-area caches, not raw RTT, which is why they are large.
        TestbedParams {
            client_l1: Link {
                setup_ms: 10.0,
                bandwidth_mbps: 8.0,
            },
            l1_l2: Link {
                setup_ms: 280.0,
                bandwidth_mbps: 1.2,
            },
            l2_l3: Link {
                setup_ms: 360.0,
                bandwidth_mbps: 1.0,
            },
            l3_server: Link {
                setup_ms: 350.0,
                bandwidth_mbps: 0.9,
            },
            direct_l2: Link {
                setup_ms: 180.0,
                bandwidth_mbps: 1.4,
            },
            direct_l3: Link {
                setup_ms: 200.0,
                bandwidth_mbps: 1.2,
            },
            direct_server: Link {
                setup_ms: 250.0,
                bandwidth_mbps: 1.1,
            },
            disk_ms: [40.0, 60.0, 80.0],
            server_ms: 60.0,
        }
    }
}

/// The testbed cost model (see module docs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TestbedModel {
    params: TestbedParams,
}

impl Default for TestbedModel {
    fn default() -> Self {
        Self::new()
    }
}

impl TestbedModel {
    /// Creates the model with the default (paper-anchored) parameters.
    pub fn new() -> Self {
        TestbedModel {
            params: TestbedParams::default(),
        }
    }

    /// Creates the model with custom parameters.
    pub fn with_params(params: TestbedParams) -> Self {
        TestbedModel { params }
    }

    /// The parameters in use.
    pub fn params(&self) -> &TestbedParams {
        &self.params
    }

    /// Milliseconds for `size` bytes to cross the links from the client up
    /// to `level`, summed from the client's link upward.
    fn hier_links_ms(&self, level: Level, size: ByteSize) -> f64 {
        let p = &self.params;
        [&p.client_l1, &p.l1_l2, &p.l2_l3][..level.depth()]
            .iter()
            .map(|l| l.traverse(size))
            .sum()
    }

    fn direct_link(&self, distance: RemoteDistance) -> &Link {
        match distance {
            RemoteDistance::SameL2 => &self.params.direct_l2,
            RemoteDistance::SameL3 => &self.params.direct_l3,
        }
    }

    fn remote_disk_ms(&self, distance: RemoteDistance) -> f64 {
        // Peer caches are L1-class machines; their disk cost is the L1 one.
        let _ = distance;
        self.params.disk_ms[0]
    }
}

impl CostModel for TestbedModel {
    fn hierarchy_hit(&self, level: Level, size: ByteSize) -> SimDuration {
        let ms = self.hier_links_ms(level, size) + self.params.disk_ms[level.depth() - 1];
        SimDuration::from_millis_f64(ms)
    }

    fn hierarchy_miss(&self, size: ByteSize) -> SimDuration {
        let ms = self.hier_links_ms(Level::L3, size)
            + self.params.l3_server.traverse(size)
            + self.params.server_ms;
        SimDuration::from_millis_f64(ms)
    }

    fn remote_fetch(&self, distance: RemoteDistance, size: ByteSize) -> SimDuration {
        let ms = self.params.client_l1.traverse(size)
            + self.direct_link(distance).traverse(size)
            + self.remote_disk_ms(distance);
        SimDuration::from_millis_f64(ms)
    }

    fn server_fetch(&self, size: ByteSize) -> SimDuration {
        let ms = self.params.client_l1.traverse(size)
            + self.params.direct_server.traverse(size)
            + self.params.server_ms;
        SimDuration::from_millis_f64(ms)
    }

    fn false_positive_penalty(&self, distance: RemoteDistance) -> SimDuration {
        // Request goes out, an error reply (no payload) comes back.
        SimDuration::from_millis_f64(self.direct_link(distance).setup_ms)
    }

    fn directory_lookup(&self) -> SimDuration {
        // Directory sits at root distance; a lookup is a payload-free round trip.
        SimDuration::from_millis_f64(self.params.direct_l3.setup_ms)
    }

    fn remote_fetch_from_client(&self, distance: RemoteDistance, size: ByteSize) -> SimDuration {
        let ms = self.direct_link(distance).traverse(size) + self.remote_disk_ms(distance);
        SimDuration::from_millis_f64(ms)
    }

    fn server_fetch_from_client(&self, size: ByteSize) -> SimDuration {
        let ms = self.params.direct_server.traverse(size) + self.params.server_ms;
        SimDuration::from_millis_f64(ms)
    }

    fn name(&self) -> &str {
        "Testbed"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KB8: ByteSize = ByteSize::from_kb(8);

    #[test]
    fn l1_hit_fast() {
        let m = TestbedModel::new();
        let t = m.hierarchy_hit(Level::L1, KB8).as_millis_f64();
        assert!((30.0..100.0).contains(&t), "8KB L1 hit {t} ms");
    }

    #[test]
    fn paper_anchor_l3_direct_vs_hierarchy() {
        // §2.1.1: ~545 ms difference and ~2.5× ratio at 8 KB.
        let m = TestbedModel::new();
        let hier = m.hierarchy_hit(Level::L3, KB8).as_millis_f64();
        let direct = m
            .remote_fetch_from_client(RemoteDistance::SameL3, KB8)
            .as_millis_f64();
        let diff = hier - direct;
        let ratio = hier / direct;
        assert!((400.0..700.0).contains(&diff), "difference {diff} ms");
        assert!((2.0..3.2).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn paper_anchor_l1_vs_remote_ratios() {
        // §4: L1 ≈4.75× faster than L2-distance, ≈6.17× faster than
        // L3-distance, for 8 KB objects.
        let m = TestbedModel::new();
        let l1 = m.hierarchy_hit(Level::L1, KB8).as_millis_f64();
        let r2 = m.remote_fetch(RemoteDistance::SameL2, KB8).as_millis_f64();
        let r3 = m.remote_fetch(RemoteDistance::SameL3, KB8).as_millis_f64();
        assert!(
            (3.0..6.5).contains(&(r2 / l1)),
            "L2-distance ratio {}",
            r2 / l1
        );
        assert!(
            (4.0..8.0).contains(&(r3 / l1)),
            "L3-distance ratio {}",
            r3 / l1
        );
    }

    #[test]
    fn monotone_in_level_and_size() {
        let m = TestbedModel::new();
        for &size in &[
            ByteSize::from_kb(2),
            ByteSize::from_kb(64),
            ByteSize::from_kb(1024),
        ] {
            assert!(m.hierarchy_hit(Level::L1, size) < m.hierarchy_hit(Level::L2, size));
            assert!(m.hierarchy_hit(Level::L2, size) < m.hierarchy_hit(Level::L3, size));
            assert!(m.hierarchy_hit(Level::L3, size) < m.hierarchy_miss(size));
        }
        for level in Level::ALL {
            assert!(
                m.hierarchy_hit(level, ByteSize::from_kb(2))
                    < m.hierarchy_hit(level, ByteSize::from_kb(1024))
            );
        }
    }

    #[test]
    fn miss_through_hierarchy_slower_than_direct_server() {
        // The whole point of "do not slow down misses".
        let m = TestbedModel::new();
        assert!(m.hierarchy_miss(KB8) > m.server_fetch(KB8) + SimDuration::from_millis(300));
    }

    #[test]
    fn client_config_faster_than_via_l1() {
        let m = TestbedModel::new();
        assert!(
            m.remote_fetch_from_client(RemoteDistance::SameL2, KB8)
                < m.remote_fetch(RemoteDistance::SameL2, KB8)
        );
        assert!(m.server_fetch_from_client(KB8) < m.server_fetch(KB8));
    }

    #[test]
    fn false_positive_cheaper_than_fetch() {
        let m = TestbedModel::new();
        for d in [RemoteDistance::SameL2, RemoteDistance::SameL3] {
            assert!(m.false_positive_penalty(d) < m.remote_fetch(d, KB8));
        }
    }

    #[test]
    fn params_serde_round_trip() {
        // Operators tune cost models from config files; the parameter set
        // must survive serialization.
        let params = TestbedParams::default();
        let json = serde_json::to_string(&params).expect("serialize");
        let back: TestbedParams = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(params, back);
        let model = TestbedModel::with_params(back);
        assert_eq!(
            model.hierarchy_hit(Level::L3, KB8),
            TestbedModel::new().hierarchy_hit(Level::L3, KB8)
        );
    }

    #[test]
    fn custom_params_change_costs() {
        let mut params = TestbedParams::default();
        params.client_l1.setup_ms += 500.0;
        let slow = TestbedModel::with_params(params);
        assert!(
            slow.hierarchy_hit(Level::L1, KB8) > TestbedModel::new().hierarchy_hit(Level::L1, KB8)
        );
    }

    #[test]
    fn bandwidth_dominates_large_objects() {
        let m = TestbedModel::new();
        let one_mb = ByteSize::from_kb(1024);
        let t = m.hierarchy_hit(Level::L3, one_mb).as_millis_f64();
        // 1 MB over three store-and-forward hops at ~1 Mbit/s each is tens
        // of seconds — matches the top of Figure 1(a)'s y-axis.
        assert!(t > 10_000.0, "1MB L3 hierarchy hit {t} ms");
    }
}
