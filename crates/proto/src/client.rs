//! Blocking client helpers for talking to cache nodes.

use crate::wire::{
    read_message, write_message, MachineId, Message, MetaEntry, MetaOp, MetaStatus, ServedBy,
    Status,
};
use bytes::Bytes;
use std::io;
use std::net::{SocketAddr, TcpStream};

/// Where a fetched object was served from, as observed by the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The contacted node's own cache (an L1 hit).
    Local,
    /// A peer cache via a direct cache-to-cache transfer.
    Peer(MachineId),
    /// The origin server.
    Origin,
    /// The node's admission control turned the request away: the client
    /// should fetch from the origin directly (the body is empty).
    Redirected,
}

/// Fetches `url` through the cache node at `addr`.
///
/// # Errors
///
/// Fails on connection/protocol errors or an error reply.
pub fn fetch(addr: SocketAddr, url: &str) -> io::Result<(Source, Bytes)> {
    let mut conn = Connection::open(addr)?;
    conn.fetch(url)
}

/// A reusable client connection to one cache node.
///
/// Replies are read through a buffer so a framed message usually costs one
/// `read` syscall instead of one per framing layer.
#[derive(Debug)]
pub struct Connection {
    stream: TcpStream,
    reader: io::BufReader<TcpStream>,
}

impl Connection {
    /// Opens a connection.
    ///
    /// # Errors
    ///
    /// Propagates connect errors.
    pub fn open(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = io::BufReader::new(stream.try_clone()?);
        Ok(Connection { stream, reader })
    }

    /// Fetches one URL over this connection.
    ///
    /// # Errors
    ///
    /// Fails on protocol errors or an [`Status::Error`] reply.
    pub fn fetch(&mut self, url: &str) -> io::Result<(Source, Bytes)> {
        write_message(
            &mut self.stream,
            &Message::Get {
                url: url.to_string(),
            },
        )?;
        match read_message(&mut self.reader)? {
            Message::GetReply {
                status: Status::Ok,
                served_by,
                body,
                ..
            } => {
                let source = match served_by {
                    ServedBy::Local => Source::Local,
                    ServedBy::Peer(m) => Source::Peer(m),
                    ServedBy::Origin => Source::Origin,
                };
                Ok((source, body))
            }
            Message::GetReply {
                status: Status::Redirect,
                body,
                ..
            } => Ok((Source::Redirected, body)),
            Message::GetReply { status, .. } => {
                Err(io::Error::other(format!("fetch failed: {status:?}")))
            }
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected reply {other:?}"),
            )),
        }
    }

    /// Pushes an object into the connected cache (the push-caching data
    /// path, §4).
    ///
    /// # Errors
    ///
    /// Fails on protocol errors.
    pub fn push(&mut self, url: &str, version: u32, body: impl Into<Bytes>) -> io::Result<()> {
        write_message(
            &mut self.stream,
            &Message::Push {
                url: url.to_string(),
                version,
                body: body.into(),
            },
        )?;
        match read_message(&mut self.reader)? {
            Message::Ack => Ok(()),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected reply {other:?}"),
            )),
        }
    }

    /// Issues a **find nearest** to the connected node's hint store.
    ///
    /// # Errors
    ///
    /// Fails on protocol errors.
    pub fn find_nearest(&mut self, key: u64) -> io::Result<Option<MachineId>> {
        write_message(&mut self.stream, &Message::FindNearest { key })?;
        match read_message(&mut self.reader)? {
            Message::FindNearestReply { location } => Ok(location),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected reply {other:?}"),
            )),
        }
    }

    /// One raw mesh-API exchange: status and entries exactly as the node
    /// answered them (no status-to-error mapping).
    ///
    /// # Errors
    ///
    /// Fails on connection/protocol errors only.
    pub fn meta(
        &mut self,
        op: MetaOp,
        path: &str,
        value: &str,
    ) -> io::Result<(MetaStatus, Vec<MetaEntry>)> {
        write_message(
            &mut self.stream,
            &Message::MetaRequest {
                op,
                path: path.to_string(),
                value: value.to_string(),
            },
        )?;
        match read_message(&mut self.reader)? {
            Message::MetaReply { status, entries } => Ok((status, entries)),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected reply {other:?}"),
            )),
        }
    }

    /// Reads one namespace leaf or dumps one branch (`Get`), mapping any
    /// non-`Ok` status to an error.
    ///
    /// # Errors
    ///
    /// Fails on protocol errors or a non-`Ok` reply status.
    pub fn meta_get(&mut self, path: &str) -> io::Result<Vec<MetaEntry>> {
        meta_ok(path, self.meta(MetaOp::Get, path, "")?)
    }

    /// Enumerates one namespace branch (`List`), sorted, mapping any
    /// non-`Ok` status to an error.
    ///
    /// # Errors
    ///
    /// Fails on protocol errors or a non-`Ok` reply status.
    pub fn meta_list(&mut self, path: &str) -> io::Result<Vec<MetaEntry>> {
        meta_ok(path, self.meta(MetaOp::List, path, "")?)
    }

    /// Control-plane write (`Set`), mapping any non-`Ok` status to an
    /// error.
    ///
    /// # Errors
    ///
    /// Fails on protocol errors or a non-`Ok` reply status.
    pub fn meta_set(&mut self, path: &str, value: &str) -> io::Result<Vec<MetaEntry>> {
        meta_ok(path, self.meta(MetaOp::Set, path, value)?)
    }
}

/// Maps a mesh-API reply to `entries` on `Ok` and an error naming the
/// path and status otherwise.
fn meta_ok(path: &str, reply: (MetaStatus, Vec<MetaEntry>)) -> io::Result<Vec<MetaEntry>> {
    match reply {
        (MetaStatus::Ok, entries) => Ok(entries),
        (status, _) => Err(io::Error::other(format!("meta {path}: {status:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{CacheNode, NodeConfig};
    use crate::origin::OriginServer;

    #[test]
    fn connection_reuse_and_push() {
        let origin = OriginServer::spawn("127.0.0.1:0").expect("origin");
        let node = CacheNode::spawn(NodeConfig::new("127.0.0.1:0", origin.addr())).expect("node");
        let mut conn = Connection::open(node.addr()).expect("open");

        let (s1, _) = conn.fetch("http://t.test/1").expect("fetch 1");
        let (s2, _) = conn.fetch("http://t.test/1").expect("fetch 2");
        assert_eq!(s1, Source::Origin);
        assert_eq!(s2, Source::Local);

        conn.push("http://t.test/pushed", 4, &b"pushed body"[..])
            .expect("push");
        let (s3, body) = conn.fetch("http://t.test/pushed").expect("fetch pushed");
        assert_eq!(s3, Source::Local, "pushed object must be a local hit");
        assert_eq!(&body[..], b"pushed body");
        assert_eq!(node.stats().pushes_received, 1);
    }

    #[test]
    fn find_nearest_round_trip() {
        let origin = OriginServer::spawn("127.0.0.1:0").expect("origin");
        let node = CacheNode::spawn(NodeConfig::new("127.0.0.1:0", origin.addr())).expect("node");
        let mut conn = Connection::open(node.addr()).expect("open");
        assert_eq!(conn.find_nearest(12345).expect("find"), None);
    }
}
