//! The alternate, client-level hint configuration (Figure 4-b, §3.3).
//!
//! Here the metadata hierarchy extends past the L1 proxies to the clients:
//! each *client* consults its own hint directory and goes straight to the
//! named cache (or the server), skipping the L1 proxy's lookup hop. The
//! trade-off the paper describes: client hint stores are small, so they
//! miss more (false negatives send the client to the server even when a
//! nearby copy — possibly in its own L1! — exists), but every lookup and
//! transfer saves the proxy leg. The paper's finding for the testbed
//! parameters and the DEC trace: *"as long as client caches are large
//! enough so that the false-negative rate for the client hint caches is
//! below 50%, the alternate configuration is superior"*, topping out at
//! ≈20% better response time when client hints match proxy hit rates.
//!
//! Per-client stores for tens of thousands of clients are summarized by
//! two rules. A client always knows about objects **it accessed before**
//! (its own lookups populate its hint cache, and a client's history easily
//! fits a few thousand 16-byte records). For objects the client never
//! touched — the ones only the propagated update stream could have told it
//! about — knowledge is a deterministic Bernoulli draw with the configured
//! **false-negative rate**, the quantity the paper parameterizes by.
//!
//! Outcomes from this strategy must be priced with
//! [`crate::experiments::ClientDirect`], which charges remote and server
//! fetches from the client.

use super::{RequestCtx, Strategy};
use crate::outcome::AccessPath;
use crate::topology::{NodeIdx, NodeSet, Topology};
use bh_cache::{LruCache, PreMixed};
use bh_simcore::ByteSize;
use bh_trace::ClientId;
use std::collections::{HashMap, HashSet};

/// Configuration for [`ClientHints`].
#[derive(Debug, Clone, Copy)]
pub struct ClientHintConfig {
    /// Per-L1 data-cache capacity (data still lives at the proxies).
    pub data_capacity: ByteSize,
    /// Probability a client's hint store does not know of an existing copy.
    /// 0.0 models client stores as large as the proxies'; larger values
    /// model space-constrained clients.
    pub false_negative_rate: f64,
}

impl Default for ClientHintConfig {
    fn default() -> Self {
        ClientHintConfig {
            data_capacity: ByteSize::MAX,
            false_negative_rate: 0.0,
        }
    }
}

#[derive(Debug, Default)]
struct ObjState {
    version: u32,
    /// Bumped on every holder-set change so the per-(client, object)
    /// knowledge hash re-rolls when the copy landscape changes.
    epoch: u32,
    holders: NodeSet,
}

/// The client-level hint strategy. See the docs of its module,
/// `strategies::client_hints`.
#[derive(Debug)]
pub struct ClientHints {
    topo: Topology,
    config: ClientHintConfig,
    caches: Vec<LruCache<PreMixed>>,
    objs: HashMap<u64, ObjState, PreMixed>,
    /// Hashes of (client, object) pairs the client has fetched before —
    /// those are always in the client's own hint cache.
    history: HashSet<u64>,
    false_negatives: u64,
}

impl ClientHints {
    /// Builds the strategy.
    ///
    /// # Panics
    ///
    /// Panics if `false_negative_rate` is not a probability.
    pub fn new(topo: Topology, config: ClientHintConfig) -> Self {
        assert!(
            (0.0..=1.0).contains(&config.false_negative_rate),
            "false_negative_rate must be a probability"
        );
        ClientHints {
            caches: (0..topo.l1_count())
                .map(|_| LruCache::with_hasher(config.data_capacity, PreMixed::default()))
                .collect(),
            objs: HashMap::default(),
            history: HashSet::new(),
            false_negatives: 0,
            topo,
            config,
        }
    }

    fn history_key(client: ClientId, key: u64) -> u64 {
        let mut h = bh_simcore::rng::SplitMix64::new(key ^ ((client.0 as u64) << 32));
        h.next_u64()
    }

    /// False negatives suffered so far.
    pub fn false_negatives(&self) -> u64 {
        self.false_negatives
    }

    /// Whether this client's hint store knows about the object in its
    /// current copy-epoch: always for objects in the client's own history,
    /// a deterministic Bernoulli draw otherwise.
    fn client_knows(&self, client: ClientId, key: u64, epoch: u32) -> bool {
        if self.history.contains(&Self::history_key(client, key)) {
            return true;
        }
        if self.config.false_negative_rate <= 0.0 {
            return true;
        }
        if self.config.false_negative_rate >= 1.0 {
            return false;
        }
        let mut h = bh_simcore::rng::SplitMix64::new(
            key ^ ((client.0 as u64) << 32) ^ (epoch as u64).wrapping_mul(0x9E3779B97F4A7C15),
        );
        let u = (h.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u >= self.config.false_negative_rate
    }

    fn insert_copy(&mut self, node: NodeIdx, key: u64, size: ByteSize, version: u32) {
        let Self { caches, objs, .. } = self;
        let cache = &mut caches[node as usize];
        cache.insert_value(key, size, version, (), |e| {
            if let Some(st) = objs.get_mut(&e.key) {
                if st.holders.remove(node) {
                    st.epoch += 1;
                }
            }
        });
        if cache.peek(key).is_some() {
            let st = objs.entry(key).or_default();
            if st.holders.insert(node) {
                st.epoch += 1;
            }
        }
    }
}

impl Strategy for ClientHints {
    fn on_request(&mut self, ctx: &RequestCtx) -> AccessPath {
        // Consistency: version bump invalidates all copies.
        {
            let st = self.objs.entry(ctx.key).or_default();
            if ctx.version > st.version {
                st.version = ctx.version;
                st.epoch += 1;
                for h in std::mem::take(&mut st.holders).iter() {
                    self.caches[h as usize].remove(ctx.key);
                }
            }
        }
        let (version, epoch, nearest) = {
            let st = &self.objs[&ctx.key];
            let nearest = self.topo.nearest_holder(ctx.l1, &st.holders);
            (st.version, st.epoch, nearest)
        };

        // The client consults its own hints to decide where to go.
        let outcome = match nearest {
            Some(target) if self.client_knows(ctx.client, ctx.key, epoch) => {
                if target == ctx.l1 {
                    // The nearest copy is the client's own L1: a normal L1 hit.
                    let got = self.caches[ctx.l1 as usize].get(ctx.key, version);
                    debug_assert!(got.is_some());
                    return AccessPath::L1Hit;
                }
                AccessPath::RemoteHit {
                    distance: self.topo.distance(ctx.l1, target),
                }
            }
            _ => {
                if nearest.is_some() {
                    self.false_negatives += 1;
                }
                AccessPath::ServerFetch {
                    false_positive: None,
                }
            }
        };

        // The fetched copy lands in the client's L1 (the client's fetch
        // passes its proxy on the way in, which caches it — data still
        // lives at the leaves), and the object enters the client's own
        // hint history.
        self.history.insert(Self::history_key(ctx.client, ctx.key));
        self.insert_copy(ctx.l1, ctx.key, ctx.size, version);
        outcome
    }

    fn name(&self) -> &'static str {
        "client-hints"
    }

    fn finalize(&mut self, metrics: &mut crate::metrics::Metrics) {
        metrics.false_negatives = self.false_negatives;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_netmodel::RemoteDistance;
    use bh_simcore::SimTime;
    use bh_trace::WorkloadSpec;

    fn ctx(client: u32, key: u64, version: u32) -> RequestCtx {
        RequestCtx {
            time: SimTime::ZERO,
            l1: client / 256,
            client: ClientId(client),
            key,
            size: ByteSize::from_kb(10),
            version,
        }
    }

    fn topo() -> Topology {
        Topology::from_spec(&WorkloadSpec::small())
    }

    #[test]
    fn perfect_hints_behave_like_oracle() {
        let mut s = ClientHints::new(topo(), ClientHintConfig::default());
        assert_eq!(
            s.on_request(&ctx(0, 1, 0)),
            AccessPath::ServerFetch {
                false_positive: None
            }
        );
        assert_eq!(
            s.on_request(&ctx(1, 1, 0)),
            AccessPath::L1Hit,
            "same L1 group"
        );
        assert_eq!(
            s.on_request(&ctx(256, 1, 0)),
            AccessPath::RemoteHit {
                distance: RemoteDistance::SameL2
            }
        );
        assert_eq!(
            s.on_request(&ctx(768, 1, 0)),
            AccessPath::RemoteHit {
                distance: RemoteDistance::SameL3
            }
        );
        assert_eq!(s.false_negatives(), 0);
    }

    #[test]
    fn total_false_negatives_send_everything_to_server() {
        let mut s = ClientHints::new(
            topo(),
            ClientHintConfig {
                false_negative_rate: 1.0,
                ..ClientHintConfig::default()
            },
        );
        s.on_request(&ctx(0, 1, 0));
        // Copy exists at L1 0, but the client never knows.
        assert_eq!(
            s.on_request(&ctx(1, 1, 0)),
            AccessPath::ServerFetch {
                false_positive: None
            }
        );
        assert_eq!(s.false_negatives(), 1);
    }

    #[test]
    fn false_negative_rate_is_respected_statistically() {
        let mut s = ClientHints::new(
            topo(),
            ClientHintConfig {
                false_negative_rate: 0.3,
                ..ClientHintConfig::default()
            },
        );
        // Seed one object per key at L1 group 0, probe from group 1 clients.
        let mut fns = 0u64;
        let n = 20_000u64;
        for k in 0..n {
            s.on_request(&ctx(0, k, 0));
            let before = s.false_negatives();
            s.on_request(&ctx(300, k, 0));
            fns += s.false_negatives() - before;
        }
        let rate = fns as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "observed fn rate {rate}");
    }

    #[test]
    fn version_bump_rerolls_knowledge_and_invalidates() {
        let mut s = ClientHints::new(topo(), ClientHintConfig::default());
        s.on_request(&ctx(0, 1, 0));
        s.on_request(&ctx(300, 1, 0));
        assert_eq!(
            s.on_request(&ctx(600, 1, 3)),
            AccessPath::ServerFetch {
                false_positive: None
            }
        );
        // Only the fetcher's L1 holds the new version now.
        assert_eq!(
            s.on_request(&ctx(0, 1, 3)),
            AccessPath::RemoteHit {
                distance: RemoteDistance::SameL3
            }
        );
    }

    #[test]
    fn own_history_is_always_known() {
        let mut s = ClientHints::new(
            topo(),
            ClientHintConfig {
                false_negative_rate: 1.0,
                ..ClientHintConfig::default()
            },
        );
        s.on_request(&ctx(700, 9, 0)); // client 700 (group 2) fetches
                                       // Another client never learns of it…
        assert_eq!(
            s.on_request(&ctx(0, 9, 0)),
            AccessPath::ServerFetch {
                false_positive: None
            }
        );
        // …but client 700 finds its own L1 copy through its own history.
        assert_eq!(s.on_request(&ctx(700, 9, 0)), AccessPath::L1Hit);
    }

    #[test]
    fn determinism() {
        let run = || {
            let mut s = ClientHints::new(
                topo(),
                ClientHintConfig {
                    false_negative_rate: 0.4,
                    ..ClientHintConfig::default()
                },
            );
            let mut outcomes = Vec::new();
            for k in 0..500u64 {
                outcomes.push(s.on_request(&ctx((k % 1024) as u32, k % 50, 0)));
            }
            outcomes
        };
        assert_eq!(run(), run());
    }
}
