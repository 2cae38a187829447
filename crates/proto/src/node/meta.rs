//! The mesh meta lens: one path-addressed namespace over a live node.
//!
//! Every node serves a virtual tree rooted at `mesh/nodes/<id>` (its own
//! id, or the `self` alias) over the [`Message::MetaRequest`] /
//! [`Message::MetaReply`] frames. Reads answer from the obs registry, the
//! trace ring, the hint shards, and the pool; writes are the control
//! plane — drain, fault knobs, partition blocks, resync, flush. The
//! `meta/` prefix answers *about* paths: what a path is and which ops it
//! supports (the StructFS meta-lens shape — for data path `P`, `meta/P`
//! describes `P`).
//!
//! Two contracts shape everything here:
//!
//! * **Determinism** — every `List` is sorted, and listings whose values
//!   are measured (metrics, pool stats) carry only static text (units,
//!   or nothing), so `List` output is byte-identical across seeded runs
//!   regardless of shard count or timing. `Get` is the value-bearing op.
//! * **Shard-thread safety** — the resolver runs inline on epoll shard
//!   threads, which never perform outbound I/O. Every read is purely
//!   local; the two writes that imply network work (`control/resync`,
//!   `control/flush`) post a request to the node's control mailbox and
//!   report `scheduled` — the flush thread, the node's one background
//!   executor of both, carries it out, and any number of requests posted
//!   before it looks are one run. Completion is observable at
//!   `control/resync/runs` / `control/resync/learned`.

use super::Inner;
use crate::wire::{MachineId, Message, MetaEntry, MetaOp, MetaStatus};
use bh_obs::span;
use std::net::SocketAddr;
use std::sync::atomic::Ordering;

/// Every route this namespace version serves: `(pattern, ops, help)`.
/// Segments in angle brackets are wildcards. The table is the single
/// source of truth for `meta/` capability discovery; it is sorted and
/// static, so `List meta` is byte-identical everywhere and forever
/// (within [`crate::wire::META_API_VERSION`]).
const ROUTES: &[(&str, &str, &str)] = &[
    (
        "mesh/nodes",
        "list",
        "the serving node (id = path, value = addr)",
    ),
    (
        "mesh/nodes/<id>",
        "list",
        "branches of one node's namespace",
    ),
    ("mesh/nodes/<id>/control", "list", "control-plane switches"),
    (
        "mesh/nodes/<id>/control/drain",
        "get,set",
        "true turns every client Get away with a Redirect",
    ),
    (
        "mesh/nodes/<id>/control/flush",
        "set",
        "schedule an immediate hint flush to all flush targets",
    ),
    (
        "mesh/nodes/<id>/control/resync",
        "set",
        "schedule an anti-entropy pull; poll runs/learned below",
    ),
    (
        "mesh/nodes/<id>/control/resync/learned",
        "get",
        "hint records learned across completed resyncs",
    ),
    (
        "mesh/nodes/<id>/control/resync/runs",
        "get",
        "completed namespace-triggered resyncs",
    ),
    (
        "mesh/nodes/<id>/hints",
        "list",
        "hint store as 16-hex digests",
    ),
    (
        "mesh/nodes/<id>/hints/<digest>",
        "get",
        "nearest known location of one object digest",
    ),
    (
        "mesh/nodes/<id>/metrics",
        "get,list",
        "obs registry: List = names+units, Get = full scrape",
    ),
    (
        "mesh/nodes/<id>/metrics/<name>",
        "get",
        "one metric's value",
    ),
    ("mesh/nodes/<id>/pool", "list", "outbound connection pool"),
    (
        "mesh/nodes/<id>/pool/blocked/<addr>",
        "get,set",
        "partition block toward addr (set false also forgives)",
    ),
    (
        "mesh/nodes/<id>/pool/fault",
        "list",
        "fault-injection knobs with current values",
    ),
    (
        "mesh/nodes/<id>/pool/fault/corrupt_hint_tags",
        "get,set",
        "byzantine sender: corrupt outbound hint-batch tags",
    ),
    (
        "mesh/nodes/<id>/pool/fault/drop_per_million",
        "get,set",
        "outbound send drop rate, parts per million",
    ),
    (
        "mesh/nodes/<id>/pool/fault/rx_latency_micros",
        "get,set",
        "inbound service delay, microseconds",
    ),
    (
        "mesh/nodes/<id>/pool/fault/tx_latency_micros",
        "get,set",
        "outbound send delay, microseconds",
    ),
    (
        "mesh/nodes/<id>/pool/quarantined/<addr>",
        "get",
        "whether addr is currently quarantined",
    ),
    (
        "mesh/nodes/<id>/pool/stats",
        "get,list",
        "pool counters: List = names, Get = values",
    ),
    (
        "mesh/nodes/<id>/pool/stats/<name>",
        "get",
        "one pool counter",
    ),
    (
        "mesh/nodes/<id>/trace",
        "get,list",
        "retained trace ring, oldest first",
    ),
];

/// Pool counter names served under `pool/stats`, sorted. Two are gauges
/// refreshed at read time (`idle_connections`, `quarantined_peers`); the
/// rest come off [`crate::pool::PoolStats`].
const POOL_STAT_NAMES: &[&str] = &[
    "connects",
    "idle_connections",
    "injected_drops",
    "partition_rejections",
    "quarantine_rejections",
    "quarantined_peers",
    "retries",
    "reuses",
];

fn ok(entries: Vec<MetaEntry>) -> Message {
    Message::MetaReply {
        status: MetaStatus::Ok,
        entries,
    }
}

fn fail(status: MetaStatus) -> Message {
    Message::MetaReply {
        status,
        // bh-lint: allow(no-hot-alloc, reason = "Vec::new() is capacity 0 and never touches the allocator; error replies carry no entries")
        entries: Vec::new(),
    }
}

fn entry(path: String, value: impl Into<String>) -> MetaEntry {
    MetaEntry {
        path,
        value: value.into(),
    }
}

/// Entry point: resolves one request against the namespace. Called
/// inline by `local_response` on shard threads — everything in here is
/// local state; the two control writes that imply I/O only post a request.
pub(super) fn handle(inner: &Inner, op: MetaOp, path: &str, value: &str) -> Message {
    let segs: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    match segs.split_first() {
        Some((&"meta", rest)) => handle_meta(op, rest),
        Some((&"mesh", rest)) => handle_mesh(inner, op, rest, value),
        _ => fail(MetaStatus::NotFound),
    }
}

/// `meta/...`: capability discovery. `List meta` dumps the route table;
/// `Get meta/<path>` answers which ops a concrete (or pattern) path
/// supports.
fn handle_meta(op: MetaOp, rest: &[&str]) -> Message {
    match op {
        MetaOp::List if rest.is_empty() => ok(ROUTES
            .iter()
            .map(|(pattern, ops, _)| entry(format!("meta/{pattern}"), *ops))
            .collect()),
        MetaOp::Get if !rest.is_empty() => {
            for (pattern, ops, help) in ROUTES {
                if pattern_matches(pattern, rest) {
                    let mut joined = String::from("meta");
                    for s in rest {
                        joined.push('/');
                        joined.push_str(s);
                    }
                    return ok(vec![entry(joined, format!("{ops} — {help}"))]);
                }
            }
            fail(MetaStatus::NotFound)
        }
        MetaOp::Set => fail(MetaStatus::Denied),
        _ => fail(MetaStatus::Invalid),
    }
}

/// Whether `segs` (a concrete path, or the pattern text itself) matches
/// a route pattern: equal length, each segment either literal-equal or
/// consumed by a `<wildcard>` segment.
fn pattern_matches(pattern: &str, segs: &[&str]) -> bool {
    let pat: Vec<&str> = pattern.split('/').collect();
    pat.len() == segs.len()
        && pat
            .iter()
            .zip(segs)
            .all(|(p, s)| p == s || (p.starts_with('<') && !s.is_empty()))
}

/// `mesh/nodes[/<id>/...]`: the one-node data tree.
fn handle_mesh(inner: &Inner, op: MetaOp, rest: &[&str], value: &str) -> Message {
    let Some((&"nodes", rest)) = rest.split_first() else {
        return fail(MetaStatus::NotFound);
    };
    let id = inner.machine.0;
    let Some((node, rest)) = rest.split_first() else {
        // `mesh/nodes`: each node lists exactly itself; the bench
        // fan-out client unions the mesh view.
        return match op {
            MetaOp::List => ok(vec![entry(
                format!("mesh/nodes/{id}"),
                inner.machine.to_addr().to_string(),
            )]),
            _ => fail(MetaStatus::Denied),
        };
    };
    // `self` always aliases the serving node; a numeric id must be ours
    // (nodes do not proxy for each other — the fan-out client addresses
    // each node directly).
    if *node != "self" {
        match node.parse::<u64>() {
            Ok(n) if n == id => {}
            Ok(_) => return fail(MetaStatus::NotFound),
            Err(_) => return fail(MetaStatus::Invalid),
        }
    }
    let root = format!("mesh/nodes/{id}");
    match rest.split_first() {
        None => match op {
            MetaOp::List => ok(["control", "hints", "metrics", "pool", "trace"]
                .iter()
                .map(|b| entry(format!("{root}/{b}"), ""))
                .collect()),
            _ => fail(MetaStatus::Denied),
        },
        Some((&"metrics", rest)) => metrics_node(inner, op, rest, &root),
        Some((&"trace", rest)) => trace_node(inner, op, rest, &root),
        Some((&"hints", rest)) => hints_node(inner, op, rest, &root),
        Some((&"pool", rest)) => pool_node(inner, op, rest, value, &root),
        Some((&"control", rest)) => control_node(inner, op, rest, value, &root),
        _ => fail(MetaStatus::NotFound),
    }
}

/// `.../metrics`: the obs registry. `List` answers the static catalog
/// (names + units — deterministic); `Get` on the branch is the full
/// scrape (the `obs scrape` compatibility surface); `Get` on a leaf is
/// one value.
fn metrics_node(inner: &Inner, op: MetaOp, rest: &[&str], root: &str) -> Message {
    match (op, rest) {
        (MetaOp::List, []) => ok(inner
            .metrics
            .catalog()
            .into_iter()
            .map(|info| entry(format!("{root}/metrics/{}", info.name), info.unit.label()))
            .collect()),
        (MetaOp::Get, []) => ok(inner
            .metrics
            .snapshot_with_pool(&inner.pool)
            .into_iter()
            .map(|e| entry(format!("{root}/metrics/{}", e.name), e.value.to_string()))
            .collect()),
        (MetaOp::Get, [name]) => inner
            .metrics
            .snapshot_with_pool(&inner.pool)
            .into_iter()
            .find(|e| e.name == *name)
            .map(|e| {
                ok(vec![entry(
                    format!("{root}/metrics/{}", e.name),
                    e.value.to_string(),
                )])
            })
            .unwrap_or_else(|| fail(MetaStatus::NotFound)),
        (MetaOp::Set, _) => fail(MetaStatus::Denied),
        _ => fail(MetaStatus::NotFound),
    }
}

/// `.../trace`: the retained ring, oldest first, one entry per record
/// keyed by ring position.
fn trace_node(inner: &Inner, op: MetaOp, rest: &[&str], root: &str) -> Message {
    match (op, rest) {
        (MetaOp::Get | MetaOp::List, []) => {
            let events = inner.trace.lock().snapshot();
            ok(events
                .into_iter()
                .enumerate()
                .map(|(i, ev)| {
                    entry(
                        format!("{root}/trace/{i}"),
                        format!(
                            "ts={} span={} a={:#018x} b={}",
                            ev.ts_micros,
                            span::name(ev.kind),
                            ev.a,
                            ev.b
                        ),
                    )
                })
                .collect())
        }
        (MetaOp::Set, _) => fail(MetaStatus::Denied),
        _ => fail(MetaStatus::NotFound),
    }
}

/// `.../hints`: the hint store, digests as 16-hex leaves, locations
/// rendered as socket addresses.
fn hints_node(inner: &Inner, op: MetaOp, rest: &[&str], root: &str) -> Message {
    match (op, rest) {
        (MetaOp::List, []) => {
            let entries = inner.hints.entries();
            ok(entries
                .into_iter()
                .map(|(object, location)| {
                    entry(
                        format!("{root}/hints/{object:016x}"),
                        MachineId(location).to_addr().to_string(),
                    )
                })
                .collect())
        }
        (MetaOp::Get, [digest]) => {
            let Ok(key) = u64::from_str_radix(digest, 16) else {
                return fail(MetaStatus::Invalid);
            };
            // Peek, not lookup: introspection must not promote the entry
            // in its set's LRU order.
            let location = inner.hints.table.lock().peek(key);
            match location {
                Some(loc) => ok(vec![entry(
                    format!("{root}/hints/{key:016x}"),
                    MachineId(loc).to_addr().to_string(),
                )]),
                None => fail(MetaStatus::NotFound),
            }
        }
        (MetaOp::Set, _) => fail(MetaStatus::Denied),
        _ => fail(MetaStatus::NotFound),
    }
}

/// Renders one pool counter by name (gauges refreshed now).
fn pool_stat(inner: &Inner, name: &str) -> Option<u64> {
    let stats = inner.pool.stats();
    Some(match name {
        "connects" => stats.connects,
        "idle_connections" => inner.pool.total_idle_connections() as u64,
        "injected_drops" => stats.injected_drops,
        "partition_rejections" => stats.partition_rejections,
        "quarantine_rejections" => stats.quarantine_rejections,
        "quarantined_peers" => inner.pool.quarantined_peer_count() as u64,
        "retries" => stats.retries,
        "reuses" => stats.reuses,
        _ => return None,
    })
}

/// `.../pool`: the outbound connection pool — counters, partition block
/// list, quarantine state, and the fault-injection switchboard.
fn pool_node(inner: &Inner, op: MetaOp, rest: &[&str], value: &str, root: &str) -> Message {
    let switch = inner.pool.fault_switch();
    match (op, rest) {
        (MetaOp::List, []) => ok(["blocked", "fault", "quarantined", "stats"]
            .iter()
            .map(|b| entry(format!("{root}/pool/{b}"), ""))
            .collect()),
        (MetaOp::List, ["stats"]) => ok(POOL_STAT_NAMES
            .iter()
            .map(|n| entry(format!("{root}/pool/stats/{n}"), ""))
            .collect()),
        (MetaOp::Get, ["stats"]) => ok(POOL_STAT_NAMES
            .iter()
            .map(|n| {
                let v = pool_stat(inner, n).unwrap_or(0);
                entry(format!("{root}/pool/stats/{n}"), v.to_string())
            })
            .collect()),
        (MetaOp::Get, ["stats", name]) => match pool_stat(inner, name) {
            Some(v) => ok(vec![entry(
                format!("{root}/pool/stats/{name}"),
                v.to_string(),
            )]),
            None => fail(MetaStatus::NotFound),
        },
        (MetaOp::Get, ["blocked", addr]) => match addr.parse::<SocketAddr>() {
            Ok(a) => ok(vec![entry(
                format!("{root}/pool/blocked/{addr}"),
                bool_str(inner.pool.is_blocked(a)),
            )]),
            Err(_) => fail(MetaStatus::Invalid),
        },
        (MetaOp::Set, ["blocked", addr]) => {
            let Ok(a) = addr.parse::<SocketAddr>() else {
                return fail(MetaStatus::Invalid);
            };
            match parse_bool(value) {
                Some(true) => inner.pool.block(a),
                Some(false) => {
                    // Unblock also forgives: lifting a partition must let
                    // the very next probe through instead of waiting out
                    // quarantine backoff.
                    inner.pool.unblock(a);
                    inner.pool.forgive(a);
                }
                None => return fail(MetaStatus::Invalid),
            }
            ok(vec![entry(format!("{root}/pool/blocked/{addr}"), value)])
        }
        (MetaOp::Get, ["quarantined", addr]) => match addr.parse::<SocketAddr>() {
            Ok(a) => ok(vec![entry(
                format!("{root}/pool/quarantined/{addr}"),
                bool_str(inner.pool.is_quarantined(a)),
            )]),
            Err(_) => fail(MetaStatus::Invalid),
        },
        (MetaOp::List, ["fault"]) => ok(vec![
            entry(
                format!("{root}/pool/fault/corrupt_hint_tags"),
                bool_str(switch.corrupt_hint_tags()),
            ),
            entry(
                format!("{root}/pool/fault/drop_per_million"),
                switch.drop_per_million().to_string(),
            ),
            entry(
                format!("{root}/pool/fault/rx_latency_micros"),
                switch.rx_latency_micros().to_string(),
            ),
            entry(
                format!("{root}/pool/fault/tx_latency_micros"),
                switch.tx_latency_micros().to_string(),
            ),
        ]),
        (MetaOp::Get, ["fault", knob]) => {
            let rendered = match *knob {
                "corrupt_hint_tags" => bool_str(switch.corrupt_hint_tags()).to_string(),
                "drop_per_million" => switch.drop_per_million().to_string(),
                "rx_latency_micros" => switch.rx_latency_micros().to_string(),
                "tx_latency_micros" => switch.tx_latency_micros().to_string(),
                _ => return fail(MetaStatus::NotFound),
            };
            ok(vec![entry(format!("{root}/pool/fault/{knob}"), rendered)])
        }
        (MetaOp::Set, ["fault", knob]) => {
            match *knob {
                "corrupt_hint_tags" => match parse_bool(value) {
                    Some(on) => switch.set_corrupt_hint_tags(on),
                    None => return fail(MetaStatus::Invalid),
                },
                "drop_per_million" | "rx_latency_micros" | "tx_latency_micros" => {
                    let Ok(n) = value.parse::<u32>() else {
                        return fail(MetaStatus::Invalid);
                    };
                    match *knob {
                        "drop_per_million" => switch.set_drop_per_million(n),
                        "rx_latency_micros" => switch.set_rx_latency_micros(n),
                        _ => switch.set_tx_latency_micros(n),
                    }
                }
                _ => return fail(MetaStatus::NotFound),
            }
            ok(vec![entry(format!("{root}/pool/fault/{knob}"), value)])
        }
        (MetaOp::Set, _) => fail(MetaStatus::Denied),
        _ => fail(MetaStatus::NotFound),
    }
}

/// `.../control`: the writable control plane — drain, flush, resync.
fn control_node(inner: &Inner, op: MetaOp, rest: &[&str], value: &str, root: &str) -> Message {
    match (op, rest) {
        (MetaOp::List, []) => ok(["drain", "flush", "resync"]
            .iter()
            .map(|b| entry(format!("{root}/control/{b}"), ""))
            .collect()),
        (MetaOp::Get, ["drain"]) => ok(vec![entry(
            format!("{root}/control/drain"),
            bool_str(inner.drained()),
        )]),
        (MetaOp::Set, ["drain"]) => match parse_bool(value) {
            Some(on) => {
                inner.drained.store(on, Ordering::Relaxed);
                ok(vec![entry(format!("{root}/control/drain"), value)])
            }
            None => fail(MetaStatus::Invalid),
        },
        (MetaOp::Set, ["flush"]) => {
            inner.mailbox.post(|c| c.flush_requested = true);
            ok(vec![entry(format!("{root}/control/flush"), "scheduled")])
        }
        (MetaOp::Set, ["resync"]) => {
            inner.mailbox.post(|c| c.resync_requested = true);
            ok(vec![entry(format!("{root}/control/resync"), "scheduled")])
        }
        (MetaOp::Get, ["resync", leaf @ ("runs" | "learned")]) => {
            let (runs, learned) = inner.propagation.lock().resync_counts();
            let count = if *leaf == "runs" { runs } else { learned };
            ok(vec![entry(
                format!("{root}/control/resync/{leaf}"),
                count.to_string(),
            )])
        }
        (MetaOp::Set, _) => fail(MetaStatus::Denied),
        _ => fail(MetaStatus::NotFound),
    }
}

fn bool_str(b: bool) -> &'static str {
    if b {
        "true"
    } else {
        "false"
    }
}

fn parse_bool(value: &str) -> Option<bool> {
    match value {
        "true" | "1" | "on" => Some(true),
        "false" | "0" | "off" => Some(false),
        _ => None,
    }
}
