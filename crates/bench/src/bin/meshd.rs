//! A long-lived smoke mesh for exercising the mesh API from outside the
//! process — CI's `meta-smoke` job drives it with the `obs` CLI.
//!
//! ```text
//! meshd [--nodes n] [--secs s] [--out dir]
//! ```
//!
//! Spawns an origin plus an `n`-node full mesh, pushes one object
//! through node 0 and propagates its hint over the control plane
//! (`Set control/flush` — meshd itself is a thin client of the
//! namespace), then writes two artifacts and serves until `--secs`
//! elapses:
//!
//! * `<out>/addrs.txt` — one `ip:port` per line, node 0 first, written
//!   only after the hint is observable at node 1 so scripts can start
//!   scraping the moment the file exists;
//! * `<out>/meshd.json` — an enveloped Report artifact describing the
//!   mesh (`obs validate` must accept it).

use bh_bench::meshapi::MeshClient;
use bh_bench::report::Envelope;
use bh_proto::mesh::{Mesh, Topology};
use bh_proto::origin::OriginServer;
use serde::Serialize;
use std::path::PathBuf;
use std::time::Duration;

#[derive(Serialize)]
struct MeshdArtifact {
    nodes: usize,
    serve_secs: u64,
    origin: String,
    addrs: Vec<String>,
    seeded_url: String,
}

fn main() {
    let mut nodes = 4usize;
    let mut secs = 60u64;
    let mut out = PathBuf::from("target/meshd");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{flag} requires a {what} argument"))
        };
        match flag.as_str() {
            "--nodes" => nodes = value("count").parse().expect("--nodes takes an integer"),
            "--secs" => secs = value("count").parse().expect("--secs takes an integer"),
            "--out" => out = PathBuf::from(value("path")),
            "--help" | "-h" => {
                println!("usage: meshd [--nodes n] [--secs s] [--out dir]");
                return;
            }
            other => panic!("unknown flag {other}; try --help"),
        }
    }
    assert!(nodes >= 2, "--nodes must be at least 2 (hints need a peer)");

    let origin = OriginServer::spawn("127.0.0.1:0").expect("origin");
    let mesh = Mesh::spawn(origin, Topology::Flat { nodes }, |_, c| {
        c.with_flush_max(Duration::from_secs(3600))
    })
    .expect("mesh");
    let addrs = mesh.addrs().to_vec();

    // Seed one object through node 0 and flush its hint to the mesh via
    // the namespace, then wait until node 1 can serve the hint read.
    let url = "http://t.test/meshd-seed";
    bh_proto::fetch(addrs[0], url).expect("seed fetch");
    let client = MeshClient::new(addrs.clone());
    client
        .set(addrs[0], "mesh/nodes/self/control/flush", "1")
        .expect("schedule flush");
    let digest_path = format!("mesh/nodes/self/hints/{:016x}", bh_md5::url_key(url));
    let mut propagated = false;
    for _ in 0..5000 {
        if client.get(addrs[1], &digest_path).is_ok() {
            propagated = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(propagated, "seed hint never reached node 1");

    std::fs::create_dir_all(&out).expect("create output directory");
    let artifact = MeshdArtifact {
        nodes,
        serve_secs: secs,
        origin: mesh.origin().addr().to_string(),
        addrs: addrs.iter().map(|a| a.to_string()).collect(),
        seeded_url: url.to_string(),
    };
    let json = serde_json::to_string_pretty(&Envelope::of("meshd", &artifact)).expect("serialize");
    std::fs::write(out.join("meshd.json"), json).expect("write meshd.json");
    let lines: String = addrs.iter().map(|a| format!("{a}\n")).collect();
    std::fs::write(out.join("addrs.txt"), lines).expect("write addrs.txt");

    eprintln!(
        "meshd: serving {nodes} nodes for {secs}s (node 0 at {}); artifacts in {}",
        addrs[0],
        out.display()
    );
    std::thread::sleep(Duration::from_secs(secs));
    mesh.shutdown();
}
