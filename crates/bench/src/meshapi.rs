//! Mesh-wide fan-out client for the path-addressed mesh API.
//!
//! [`MeshClient`] holds the addresses of every node in a mesh and fans
//! one namespace operation out to all of them (or aims it at one),
//! opening a fresh [`Connection`] per call — the same operator path the
//! `obs` CLI uses, so harness code and a human at a terminal see exactly
//! the same tree. Fan-out is sequential in address order, keeping output
//! deterministic for seeded runs.
//!
//! The free helpers ([`leaf`], [`metric_values_from_meta`], [`pick`])
//! convert namespace entries (`path` → string `value`) back into the
//! numeric metric shapes the artifact writers expect.

use crate::report::MetricValue;
use bh_proto::client::Connection;
use bh_proto::wire::MetaEntry;
use std::io;
use std::net::SocketAddr;

/// One node's answer to a fanned-out namespace operation.
#[derive(Debug, Clone)]
pub struct NodeReply {
    /// The node that answered.
    pub addr: SocketAddr,
    /// Its entries, exactly as replied (sorted by the node).
    pub entries: Vec<MetaEntry>,
}

/// A thin mesh-wide client over the `MetaRequest`/`MetaReply` frames.
#[derive(Debug, Clone)]
pub struct MeshClient {
    addrs: Vec<SocketAddr>,
}

impl MeshClient {
    /// A client over every node in `addrs` (fan-out order = `addrs`
    /// order).
    pub fn new(addrs: Vec<SocketAddr>) -> MeshClient {
        MeshClient { addrs }
    }

    /// The mesh addresses this client fans out to.
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// `Get path` against one node.
    ///
    /// # Errors
    ///
    /// Fails on connect/protocol errors or a non-`Ok` reply status.
    pub fn get(&self, addr: SocketAddr, path: &str) -> io::Result<Vec<MetaEntry>> {
        Connection::open(addr)?.meta_get(path)
    }

    /// `List path` against one node.
    ///
    /// # Errors
    ///
    /// Fails on connect/protocol errors or a non-`Ok` reply status.
    pub fn list(&self, addr: SocketAddr, path: &str) -> io::Result<Vec<MetaEntry>> {
        Connection::open(addr)?.meta_list(path)
    }

    /// Control-plane `Set path = value` against one node.
    ///
    /// # Errors
    ///
    /// Fails on connect/protocol errors or a non-`Ok` reply status.
    pub fn set(&self, addr: SocketAddr, path: &str, value: &str) -> io::Result<Vec<MetaEntry>> {
        Connection::open(addr)?.meta_set(path, value)
    }

    /// `Get path` fanned out to every node, in address order.
    ///
    /// # Errors
    ///
    /// Fails fast on the first node that errors.
    pub fn get_all(&self, path: &str) -> io::Result<Vec<NodeReply>> {
        self.fan_out(|conn| conn.meta_get(path))
    }

    /// `List path` fanned out to every node, in address order.
    ///
    /// # Errors
    ///
    /// Fails fast on the first node that errors.
    pub fn list_all(&self, path: &str) -> io::Result<Vec<NodeReply>> {
        self.fan_out(|conn| conn.meta_list(path))
    }

    fn fan_out(
        &self,
        mut op: impl FnMut(&mut Connection) -> io::Result<Vec<MetaEntry>>,
    ) -> io::Result<Vec<NodeReply>> {
        self.addrs
            .iter()
            .map(|&addr| {
                let mut conn = Connection::open(addr)?;
                Ok(NodeReply {
                    addr,
                    entries: op(&mut conn)?,
                })
            })
            .collect()
    }
}

/// The last path segment of a namespace entry — the metric/counter name
/// under `.../metrics/<name>` and `.../pool/stats/<name>`.
pub fn leaf(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

/// Converts a `Get .../metrics` scrape back into the numeric
/// [`MetricValue`] rows the artifact writers serialize: name = path
/// leaf, value = parsed decimal (entries with non-numeric values are
/// dropped — the metrics branch never emits any).
pub fn metric_values_from_meta(entries: &[MetaEntry]) -> Vec<MetricValue> {
    entries
        .iter()
        .filter_map(|e| {
            e.value.parse::<u64>().ok().map(|value| MetricValue {
                name: leaf(&e.path).to_string(),
                value,
            })
        })
        .collect()
}

/// Looks one named metric up in a converted scrape (0 when absent).
pub fn pick(metrics: &[MetricValue], name: &str) -> u64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .map_or(0, |m| m.value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(path: &str, value: &str) -> MetaEntry {
        MetaEntry {
            path: path.to_string(),
            value: value.to_string(),
        }
    }

    #[test]
    fn leaf_takes_last_segment() {
        assert_eq!(leaf("mesh/nodes/3/metrics/local_hits"), "local_hits");
        assert_eq!(
            leaf("mesh/nodes/3/metrics/request_service_micros.count"),
            "request_service_micros.count"
        );
        assert_eq!(leaf("bare"), "bare");
    }

    #[test]
    fn metric_conversion_parses_and_drops_non_numeric() {
        let entries = vec![
            entry("mesh/nodes/1/metrics/local_hits", "42"),
            entry("mesh/nodes/1/metrics/peer_hits", "not a number"),
        ];
        let metrics = metric_values_from_meta(&entries);
        assert_eq!(metrics.len(), 1);
        assert_eq!(metrics[0].name, "local_hits");
        assert_eq!(pick(&metrics, "local_hits"), 42);
        assert_eq!(pick(&metrics, "missing"), 0);
    }
}
