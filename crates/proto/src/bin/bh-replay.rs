//! Replay a synthetic workload (or a previously archived trace) against a
//! live cache cluster.
//!
//! ```text
//! bh-replay --node 127.0.0.1:8801 --node 127.0.0.1:8802 \
//!     [--requests 10000] [--seed 42] [--trace dec|berkeley|prodigy|small]
//! ```
//!
//! Requests go out one at a time, in trace order; one a node does not
//! answer — an unreachable node included — counts as an error and the
//! replay goes on.

use bh_proto::replay::{replay_concurrent, ReplayConfig};
use bh_trace::{TraceGenerator, TraceRecord, WorkloadSpec};

fn main() -> std::io::Result<()> {
    let mut nodes = Vec::new();
    let mut requests = 10_000u64;
    let mut seed = 42u64;
    let mut trace = "small".to_string();

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| panic!("{flag} takes a value"))
        };
        match flag.as_str() {
            "--node" => nodes.push(value().parse().expect("node addr:port")),
            "--requests" => requests = value().parse().expect("--requests takes a count"),
            "--seed" => seed = value().parse().expect("--seed takes an integer"),
            "--trace" => trace = value().to_lowercase(),
            "--help" | "-h" => {
                println!("usage: bh-replay --node addr:port [--node ...] [--requests N] [--seed N] [--trace name]");
                println!("(requests a node does not answer, unreachable nodes included, count as errors)");
                return Ok(());
            }
            other => panic!("unknown flag {other}"),
        }
    }
    assert!(!nodes.is_empty(), "--node is required");

    let spec = match trace.as_str() {
        "dec" => WorkloadSpec::dec(),
        "berkeley" => WorkloadSpec::berkeley(),
        "prodigy" => WorkloadSpec::prodigy(),
        _ => WorkloadSpec::small(),
    }
    .with_requests(requests);

    eprintln!(
        "replaying {} requests of the {} workload against {} node(s)...",
        requests,
        spec.name,
        nodes.len()
    );
    let mut config = ReplayConfig::flat_out(nodes);
    config.clients_per_l1 = spec.clients_per_l1;
    config.dynamic_client_ids = spec.dynamic_client_ids;
    let records: Vec<TraceRecord> = TraceGenerator::new(&spec, seed).collect();
    let out = replay_concurrent(&config, &records, 1)?;
    let report = &out.report;

    println!("requests       {}", report.requests);
    println!(
        "local hits     {} ({:.1}%)",
        report.local_hits,
        100.0 * report.local_hits as f64 / report.requests.max(1) as f64
    );
    println!(
        "peer hits      {} ({:.1}%)",
        report.peer_hits,
        100.0 * report.peer_hits as f64 / report.requests.max(1) as f64
    );
    println!("origin fetches {}", report.origin_fetches);
    println!("errors         {}", report.errors);
    println!("bytes          {}", report.bytes);
    println!("hit ratio      {:.3}", report.hit_ratio());
    println!("throughput     {:.0} req/s", out.requests_per_second());
    Ok(())
}
