//! Networked prototype of the hint protocol — the paper's Squid
//! augmentation (§3.2), reimplemented from scratch over TCP.
//!
//! The prototype mirrors the paper's implementation choices:
//!
//! * the hint module exposes the three interface commands **inform**,
//!   **invalidate**, and **find nearest** (§3.2);
//! * hint updates travel in *batches*, each update a fixed **20-byte
//!   record**: a 4-byte action, an 8-byte object identifier (low half of
//!   the MD5 of the URL), and an 8-byte machine identifier (IP address and
//!   port) — see [`wire::HintUpdate`];
//! * nodes flush update batches to their neighbors on a randomized period
//!   (uniform in `[0, max)`) to avoid the synchronization capture effects
//!   Floyd and Jacobson observed (§3.2);
//! * hints are stored as 16-byte fixed records in a 4-way set-associative
//!   store ([`bh_cache::HintCache`]);
//! * on a local miss a node consults only its **local** hint store, goes
//!   directly to the named peer, and falls back to the origin server on a
//!   false positive — misses never traverse a hierarchy.
//!
//! Threading: the node runs one sharded epoll engine — a fixed set of
//! shard threads owns the accepted sockets and serves every request on
//! them, including the ones that leave the process (peer probes, origin
//! fetches) through pooled, retrying connections driven on the shard's
//! own poller (see `node::engine`), echoing the paper's event-driven
//! Squid. The live prototype therefore requires Linux
//! epoll; [`CacheNode::spawn`] fails with `ErrorKind::Unsupported` elsewhere.
//!
//! # Examples
//!
//! ```no_run
//! use bh_proto::{node::{CacheNode, NodeConfig}, origin::OriginServer};
//!
//! let origin = OriginServer::spawn("127.0.0.1:0").unwrap();
//! let node = CacheNode::spawn(NodeConfig::new("127.0.0.1:0", origin.addr())).unwrap();
//! let (source, body) = bh_proto::client::fetch(node.addr(), "http://x.test/a").unwrap();
//! println!("served from {source:?}: {} bytes", body.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod client;
pub mod liveness;
pub mod mesh;
pub mod node;
pub mod origin;
pub mod pool;
pub mod replay;
pub mod wire;

pub use client::{fetch, Source};
pub use node::{CacheNode, NodeConfig};
pub use origin::OriginServer;
