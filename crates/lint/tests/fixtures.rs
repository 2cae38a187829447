//! Fixture self-tests: each rule has a violation corpus under
//! `fixtures/<rule>/` that mirrors the repo layout (the path-scoped
//! rules key on repo-relative paths), and an `expected.txt` golden of
//! the diagnostics it must produce. A final meta-test pins the real
//! tree clean, so CI fails the moment a violation lands anywhere.

use std::path::{Path, PathBuf};

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

/// Checks a fixture tree against its golden and returns the report for
/// extra per-fixture assertions.
fn check_fixture(name: &str) -> bh_lint::Report {
    let root = fixture_root(name);
    let report = bh_lint::check_root(&root).expect("scan fixture tree");
    let rendered: Vec<String> = report.diagnostics.iter().map(|d| d.render()).collect();
    let golden = std::fs::read_to_string(root.join("expected.txt")).expect("read golden");
    let expected: Vec<String> = golden
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(str::to_string)
        .collect();
    assert!(
        !expected.is_empty(),
        "{name}: the golden must list at least one diagnostic"
    );
    assert_eq!(
        rendered, expected,
        "{name}: diagnostics diverge from expected.txt"
    );
    report
}

#[test]
fn no_wall_clock_fixture_matches_golden() {
    let report = check_fixture("no-wall-clock");
    // The netpoll file is on the allowlist and contributes nothing.
    assert_eq!(report.files_scanned, 2);
}

#[test]
fn no_ambient_rng_fixture_matches_golden() {
    check_fixture("no-ambient-rng");
}

#[test]
fn ordered_iteration_fixture_matches_golden() {
    let report = check_fixture("ordered-iteration");
    // The non-artifact file's HashMap is not flagged.
    assert!(report
        .diagnostics
        .iter()
        .all(|d| d.file == "crates/bench/src/report.rs"));
}

#[test]
fn no_panic_hot_path_fixture_matches_golden() {
    let report = check_fixture("no-panic-hot-path");
    // The #[cfg(test)] module's unwrap is not flagged.
    assert!(report.diagnostics.iter().all(|d| d.line < 20));
}

#[test]
fn wire_exhaustiveness_fixture_matches_golden() {
    check_fixture("wire-exhaustiveness");
}

#[test]
fn stats_registry_fixture_matches_golden() {
    check_fixture("stats-registry");
}

#[test]
fn no_hot_alloc_fixture_matches_golden() {
    let report = check_fixture("no-hot-alloc");
    // The allowed tail-copy is honored; the out-of-hot-set file and the
    // #[cfg(test)] module contribute nothing.
    assert_eq!(report.allows_honored, 1);
    assert!(report
        .diagnostics
        .iter()
        .all(|d| d.file == "crates/proto/src/node/engine.rs"));
}

#[test]
fn fixed_width_records_fixture_matches_golden() {
    let report = check_fixture("fixed-width-records");
    // The allowed Vec field is honored; the out-of-crate file, the
    // sorting compactor, and the #[cfg(test)] module contribute nothing.
    assert_eq!(report.allows_honored, 1);
    assert!(report
        .diagnostics
        .iter()
        .all(|d| d.file == "crates/hintlog/src/lib.rs"));
}

#[test]
fn lock_order_fixture_matches_golden() {
    let report = check_fixture("lock-order");
    // The seeded cycle is reported once with both acquisition sites —
    // the direct edge and the cross-file helper chain — and the
    // group-commit fsync is waived by its allow.
    assert_eq!(report.allows_honored, 1);
    let cycle = report
        .diagnostics
        .iter()
        .find(|d| d.message.contains("lock-order cycle"))
        .expect("cycle diagnostic");
    assert!(cycle
        .message
        .contains("via `flush_backlog` -> `refresh_peers`"));
}

#[test]
fn lock_order_ranking_fixture_matches_golden() {
    let report = check_fixture("lock-order-ranking");
    // A single-edge graph has no cycle; only the declared-ranking
    // inversion fires.
    assert!(report
        .diagnostics
        .iter()
        .all(|d| !d.message.contains("cycle")));
}

#[test]
fn no_panic_hot_path_interproc_fixture_matches_golden() {
    let report = check_fixture("no-panic-hot-path-interproc");
    // The cross-file unwrap the file-scoped rule cannot see is the only
    // survivor, reported at the leaf with the full chain. The two
    // seeded allows — one at a chain call site in engine.rs, one at
    // the leaf itself — are both honored, and the depth-5 chain stays
    // below the pass's horizon.
    assert_eq!(report.allows_honored, 2);
    assert!(report
        .diagnostics
        .iter()
        .all(|d| d.file != "crates/proto/src/deep.rs"));
}

#[test]
fn no_hot_alloc_interproc_fixture_matches_golden() {
    let report = check_fixture("no-hot-alloc-interproc");
    // The cold-path Vec::new in the bench crate is unreachable from the
    // hot set and contributes nothing.
    assert!(report
        .diagnostics
        .iter()
        .all(|d| d.file == "crates/proto/src/framing.rs"));
}

#[test]
fn lock_order_fixture_graph_has_the_seeded_cycle() {
    let graphs = bh_lint::graph_root(&fixture_root("lock-order")).expect("graph fixture tree");
    assert_eq!(graphs.lock_graph.cycles().len(), 1);
}

#[test]
fn allow_hygiene_fixture_matches_golden() {
    let report = check_fixture("allow-hygiene");
    // The one well-formed directive in the fixture is honored.
    assert_eq!(report.allows_honored, 1);
}

#[test]
fn cross_crate_inline_fixture_matches_golden() {
    let report = check_fixture("cross-crate-inline");
    // Only the named vendored file is in scope: the crate beside it, the
    // bodyless trait method, `#[inline(always)]` behind another
    // attribute and the #[cfg(test)] helper contribute nothing, and the
    // waived site's allow is honored.
    assert_eq!(report.allows_honored, 1);
    assert_eq!(report.files_scanned, 2);
    assert!(report
        .diagnostics
        .iter()
        .all(|d| d.file == "vendor/bytes/src/lib.rs"));
}

/// The meta-test: the real tree must be clean. This is the same check
/// CI runs via `cargo run -p bh-lint -- check`, pinned here so plain
/// `cargo test` catches violations too.
#[test]
fn repo_tree_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = bh_lint::check_root(&root).expect("scan repo tree");
    let rendered: Vec<String> = report.diagnostics.iter().map(|d| d.render()).collect();
    assert!(
        report.is_clean(),
        "the repo tree has unallowed lint findings:\n{}",
        rendered.join("\n")
    );
    assert!(
        report.files_scanned > 50,
        "repo scan looks implausibly small"
    );
    // The acceptance bar for the lock-order pass: the real tree's
    // global lock graph is cycle-free, not merely allowed.
    let graphs = bh_lint::graph_root(&root).expect("graph repo tree");
    assert!(
        graphs.lock_graph.cycles().is_empty(),
        "the repo's global lock-order graph has a cycle"
    );
}
