//! `bh-lint`: a repo-specific static analysis pass enforcing the
//! determinism and resilience invariants this reproduction rests on.
//!
//! Ten rules (see `LINTS.md` at the repo root):
//!
//! 1. `no-wall-clock` — `Instant::now`/`SystemTime::now` only in real
//!    I/O modules; simulation and bench code must be replayable.
//! 2. `no-ambient-rng` — RNGs are built from explicit seeds, never
//!    ambient entropy.
//! 3. `ordered-iteration` — no `HashMap`/`HashSet` in artifact-writing
//!    paths; iteration order must be defined.
//! 4. `no-panic-hot-path` — no `unwrap`/`expect`/`panic!` in proto
//!    shard/worker/pool code, nor in any workspace helper such code
//!    reaches within bounded call depth; errors are returned and
//!    counted.
//! 5. `wire-exhaustiveness` — every wire frame tag has an encoder arm,
//!    a decoder arm, and proptest coverage.
//! 6. `stats-registry` — every `NodeStats` field is backed by a
//!    registered obs metric, and the chaos dump iterates the registry.
//! 7. `no-hot-alloc` — no `.to_vec()` / `Vec::new()` / `BytesMut::new()`
//!    in the wire-speed data-path hot set or the helpers it reaches;
//!    reuse scratch buffers and refcounted `Bytes` slices instead.
//! 8. `fixed-width-records` — on-disk `*Record` structs in the durable
//!    hint-log crate hold only fixed-width primitives/arrays, and
//!    snapshot/compaction functions visibly maintain the sorted-records
//!    invariant.
//! 9. `lock-order` — the global "lock A held while acquiring B" graph
//!    must be acyclic, must respect the canonical lock ranking declared
//!    in `LINTS.md`, and hot-path code must not hold a lock across
//!    blocking I/O.
//! 10. `cross-crate-inline` — every non-test function with a body in
//!     the vendored `bytes` stand-in carries `#[inline]`: the workspace
//!     builds without LTO, so its accessors are otherwise a call from
//!     every other crate.
//!
//! The analyzer is layered (see DESIGN.md "analyzer architecture"):
//! `lexer` flattens each file to tokens, `model` lifts the tokens into
//! a workspace symbol table with call sites and lock-acquisition sites,
//! `graph` provides the deterministic digraph machinery, and `rules`
//! runs both the per-file token scans and the interprocedural passes
//! over the model.
//!
//! Findings can be waived per line with
//! `// bh-lint: allow(<rule>, reason = "...")`, which covers its own
//! line and the next. Interprocedural findings can be waived at the
//! offending site itself or at any call site along the reported chain.
//! A reason is mandatory; unused, reason-less, unknown-rule, or
//! malformed directives are themselves diagnostics (rule
//! `allow-hygiene`) and cannot be allowed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graph;
pub mod lexer;
pub mod model;
pub mod rules;

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;

/// The shared scope table: every path-scoped rule keys on one of these
/// lists, so adding a file to a scope is a one-line change covered by
/// every rule that cares about it.
pub mod scope {
    /// Modules allowed to read the wall clock: the real-I/O edge of the
    /// system (epoll shards, live-mesh drivers) and, in the node, the one
    /// file that keeps time — the frame (spawn, trace stamps and the
    /// `now_micros` clock its shards step `Get` runs, the flush and
    /// heartbeat deadlines and every outbound exchange with). Everything
    /// else must take time as a parameter or use the simulated clock — the
    /// connection pool, the `Get` service, membership and propagation among
    /// them: their steps are timed by what their I/O shells pass in, the
    /// pool's from one reasoned allow.
    pub const WALL_CLOCK_IO: [&str; 7] = [
        "crates/netpoll/src/",
        "crates/proto/src/node/mod.rs",
        "crates/proto/src/origin.rs",
        "crates/proto/src/client.rs",
        "crates/proto/src/replay.rs",
        "crates/proto/src/bin/",
        "crates/proto/tests/",
    ];

    /// Artifact-writing paths where iteration order reaches JSON files,
    /// stdout tables, or event logs.
    pub const ARTIFACT_PATHS: [&str; 5] = [
        "crates/bench/src/",
        "crates/proto/src/chaos.rs",
        "crates/proto/src/mesh.rs",
        "crates/proto/src/replay.rs",
        "crates/trace/src/scenario.rs",
    ];

    /// Hot-path files where a panic wedges a shard/worker thread the
    /// chaos layer cannot deterministically recover. Entry points for
    /// the interprocedural `no-panic-hot-path` pass.
    pub const PANIC_HOT: [&str; 10] = [
        "crates/proto/src/node/config.rs",
        "crates/proto/src/node/engine.rs",
        "crates/proto/src/node/hints.rs",
        "crates/proto/src/node/membership.rs",
        "crates/proto/src/node/metrics.rs",
        "crates/proto/src/node/mod.rs",
        "crates/proto/src/node/outq.rs",
        "crates/proto/src/node/propagation.rs",
        "crates/proto/src/node/service.rs",
        "crates/proto/src/pool.rs",
    ];

    /// The wire-speed data-path hot set: files whose per-request
    /// allocations show up directly in the req/s ceiling. Entry points
    /// for the interprocedural `no-hot-alloc` pass. Kept in lockstep
    /// with the DESIGN.md data-path section.
    pub const ALLOC_HOT: [&str; 9] = [
        "crates/proto/src/node/config.rs",
        "crates/proto/src/node/engine.rs",
        "crates/proto/src/node/hints.rs",
        "crates/proto/src/node/membership.rs",
        "crates/proto/src/node/mod.rs",
        "crates/proto/src/node/outq.rs",
        "crates/proto/src/node/propagation.rs",
        "crates/proto/src/node/service.rs",
        "crates/proto/src/wire.rs",
    ];

    /// Union of the panic and alloc hot sets: the request path. The
    /// `lock-order` held-across-I/O check applies here.
    pub const HOT_PATH: [&str; 11] = [
        "crates/proto/src/node/config.rs",
        "crates/proto/src/node/engine.rs",
        "crates/proto/src/node/hints.rs",
        "crates/proto/src/node/membership.rs",
        "crates/proto/src/node/metrics.rs",
        "crates/proto/src/node/mod.rs",
        "crates/proto/src/node/outq.rs",
        "crates/proto/src/node/propagation.rs",
        "crates/proto/src/node/service.rs",
        "crates/proto/src/pool.rs",
        "crates/proto/src/wire.rs",
    ];

    /// The durable-storage crate: everything that writes bytes the next
    /// process must be able to replay.
    pub const DURABLE_STORE: &str = "crates/hintlog/src/";

    /// Files whose every function is called from other crates on the
    /// request path and must stay inlinable there. They sit under
    /// `vendor/`, which the tree walk skips, so the engine reads them by
    /// name and runs only `cross-crate-inline` over them.
    pub const INLINE_ACROSS_CRATES: [&str; 1] = ["vendor/bytes/src/lib.rs"];
}

/// One finding, rendered as `{file}:{line}: [{rule}] {message}`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Repo-relative path with forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Rule name (one of [`rules::RULES`], or `allow-hygiene`).
    pub rule: String,
    /// Human-readable description.
    pub message: String,
    /// Whether an allow directive may waive this finding. Hygiene
    /// diagnostics set this false.
    pub allowable: bool,
    /// Alternate waive sites for interprocedural findings: the call
    /// sites of the reported chain (or the other edges of a lock
    /// cycle). An allow at any of them waives the finding too.
    pub also: Vec<(String, u32)>,
}

impl Diagnostic {
    /// Renders the diagnostic in the stable one-line format used by
    /// both the CLI and the fixture goldens.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Result of checking a tree.
#[derive(Debug)]
pub struct Report {
    /// Unallowed findings, sorted by (file, line, rule, message).
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of findings waived by a well-formed allow directive.
    pub allows_honored: usize,
}

impl Report {
    /// True when the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Directories never scanned, by name, at any depth.
const SKIP_DIRS: [&str; 3] = ["target", ".git", "vendor"];

/// Repo-relative paths never scanned (the lint fixtures are violation
/// corpora by design).
const SKIP_PREFIXES: [&str; 1] = ["crates/lint/fixtures"];

fn collect_files(root: &Path, rel: &str, out: &mut Vec<String>) -> io::Result<()> {
    let dir = if rel.is_empty() {
        root.to_path_buf()
    } else {
        root.join(rel)
    };
    let mut entries: Vec<(String, bool)> = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        entries.push((name, entry.file_type()?.is_dir()));
    }
    entries.sort();
    for (name, is_dir) in entries {
        let child = if rel.is_empty() {
            name.clone()
        } else {
            format!("{rel}/{name}")
        };
        if is_dir {
            if SKIP_DIRS.contains(&name.as_str()) || SKIP_PREFIXES.contains(&child.as_str()) {
                continue;
            }
            collect_files(root, &child, out)?;
        } else if name.ends_with(".rs") {
            out.push(child);
        }
    }
    Ok(())
}

fn lex_tree(root: &Path) -> io::Result<BTreeMap<String, lexer::Lexed>> {
    let mut files = Vec::new();
    collect_files(root, "", &mut files)?;
    let mut lexed = BTreeMap::new();
    for rel in files {
        let src = fs::read_to_string(root.join(&rel))?;
        lexed.insert(rel, lexer::lex(&src));
    }
    Ok(lexed)
}

/// Parses the canonical lock ranking out of the tree's `LINTS.md`: the
/// backtick-quoted lock ids (containing `/`) between the
/// `<!-- lock-ranking:begin -->` and `<!-- lock-ranking:end -->`
/// markers, in declaration order. `None` when the tree has no ranking
/// (fixture trees usually don't), which skips the inversion check.
pub fn load_ranking(root: &Path) -> Option<Vec<String>> {
    let text = fs::read_to_string(root.join("LINTS.md")).ok()?;
    let mut inside = false;
    let mut ranking = Vec::new();
    for line in text.lines() {
        if line.contains("lock-ranking:begin") {
            inside = true;
            continue;
        }
        if line.contains("lock-ranking:end") {
            break;
        }
        if !inside {
            continue;
        }
        let mut rest = line;
        while let Some(a) = rest.find('`') {
            let tail = &rest[a + 1..];
            let Some(b) = tail.find('`') else { break };
            let id = &tail[..b];
            if id.contains('/') && !id.contains(char::is_whitespace) {
                ranking.push(id.to_string());
            }
            rest = &tail[b + 1..];
        }
    }
    if ranking.is_empty() {
        None
    } else {
        Some(ranking)
    }
}

/// Runs every rule over the `.rs` files under `root`, resolves allow
/// directives, and returns the surviving diagnostics sorted.
pub fn check_root(root: &Path) -> io::Result<Report> {
    let mut lexed = lex_tree(root)?;

    let mut raw: Vec<Diagnostic> = Vec::new();
    for (rel, lx) in &lexed {
        rules::no_wall_clock(rel, lx, &mut raw);
        rules::no_ambient_rng(rel, lx, &mut raw);
        rules::ordered_iteration(rel, lx, &mut raw);
        rules::no_panic_hot_path(rel, lx, &mut raw);
        rules::no_hot_alloc(rel, lx, &mut raw);
        rules::fixed_width_records(rel, lx, &mut raw);
    }
    rules::wire_exhaustiveness(&lexed, &mut raw);
    rules::stats_registry(&lexed, &mut raw);

    // The interprocedural passes run over the symbol-table model.
    let model = model::Model::build(&lexed);
    let ranking = load_ranking(root);
    rules::no_panic_reachable(&model, &mut raw);
    rules::no_alloc_reachable(&model, &mut raw);
    rules::lock_order(&model, ranking.as_deref(), &mut raw);

    // Vendored files in the inline scope join the tree after the model
    // is built: no other rule and no call graph sees them, but their
    // allow directives resolve like any other file's.
    for rel in scope::INLINE_ACROSS_CRATES {
        if let Ok(src) = fs::read_to_string(root.join(rel)) {
            let lx = lexer::lex(&src);
            rules::cross_crate_inline(rel, &lx, &mut raw);
            lexed.insert(rel.to_string(), lx);
        }
    }
    let files_scanned = lexed.len();

    // Allow resolution: a well-formed directive (known rule, nonempty
    // reason) waives matching findings on its own line and the next.
    // Interprocedural findings carry alternate sites (`also`) — the
    // chain's call sites — and an allow at any of them counts.
    let mut survivors: Vec<Diagnostic> = Vec::new();
    let mut allows_honored = 0usize;
    let mut used: BTreeMap<(String, u32), bool> = BTreeMap::new();
    for d in raw {
        let mut sites = vec![(d.file.clone(), d.line)];
        sites.extend(d.also.iter().cloned());
        let waived = d.allowable
            && sites.iter().any(|(file, line)| {
                let Some(lx) = lexed.get(file) else {
                    return false;
                };
                lx.allows.iter().any(|a| {
                    let eligible = a.rule == d.rule
                        && rules::RULES.contains(&a.rule.as_str())
                        && a.reason.as_deref().is_some_and(|r| !r.trim().is_empty())
                        && (*line == a.line || *line == a.line + 1);
                    if eligible {
                        used.insert((file.clone(), a.line), true);
                    }
                    eligible
                })
            });
        if waived {
            allows_honored += 1;
        } else {
            survivors.push(d);
        }
    }

    // Hygiene diagnostics: malformed, unknown-rule, reason-less, and
    // unused directives. These cannot themselves be allowed.
    for (rel, lx) in &lexed {
        for m in &lx.malformed {
            survivors.push(Diagnostic {
                file: rel.clone(),
                line: m.line,
                rule: "allow-hygiene".into(),
                message: format!("malformed bh-lint directive: {}", m.detail),
                allowable: false,
                also: Vec::new(),
            });
        }
        for a in &lx.allows {
            if !rules::RULES.contains(&a.rule.as_str()) {
                survivors.push(Diagnostic {
                    file: rel.clone(),
                    line: a.line,
                    rule: "allow-hygiene".into(),
                    message: format!("allow names unknown rule `{}`", a.rule),
                    allowable: false,
                    also: Vec::new(),
                });
            } else if a.reason.as_deref().is_none_or(|r| r.trim().is_empty()) {
                survivors.push(Diagnostic {
                    file: rel.clone(),
                    line: a.line,
                    rule: "allow-hygiene".into(),
                    message: format!("allow({}) must carry a reason = \"...\"", a.rule),
                    allowable: false,
                    also: Vec::new(),
                });
            } else if !used.contains_key(&(rel.clone(), a.line)) {
                survivors.push(Diagnostic {
                    file: rel.clone(),
                    line: a.line,
                    rule: "allow-hygiene".into(),
                    message: format!(
                        "unused allow({}); nothing fires on this or the next line",
                        a.rule
                    ),
                    allowable: false,
                    also: Vec::new(),
                });
            }
        }
    }

    survivors.sort();
    Ok(Report {
        diagnostics: survivors,
        files_scanned,
        allows_honored,
    })
}

/// The two graphs the `graph` CLI subcommand dumps for operators.
#[derive(Debug)]
pub struct Graphs {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of functions in the symbol table.
    pub fns: usize,
    /// Approximate call graph; node ids are `{file}::{fn}`.
    pub call_graph: graph::DiGraph,
    /// Global lock-order graph; node ids are `{crate}/{receiver}`.
    pub lock_graph: graph::DiGraph,
}

/// Builds the call graph and lock-order graph for the tree under
/// `root`, without running the rules.
pub fn graph_root(root: &Path) -> io::Result<Graphs> {
    let lexed = lex_tree(root)?;
    let model = model::Model::build(&lexed);
    let mut call_graph = graph::DiGraph::default();
    for f in model.fns.iter().filter(|f| !f.in_test) {
        let from = format!("{}::{}", f.file, f.name);
        for c in &f.calls {
            for &t in model.resolve(&c.name) {
                let tf = &model.fns[t];
                call_graph.add_edge(
                    &from,
                    &format!("{}::{}", tf.file, tf.name),
                    graph::EdgeInfo {
                        file: f.file.clone(),
                        line: c.line,
                        detail: format!("`{}` calls `{}`", f.name, tf.name),
                    },
                );
            }
        }
    }
    let lock_graph = rules::lock_graph(&model);
    Ok(Graphs {
        files_scanned: lexed.len(),
        fns: model.fns.len(),
        call_graph,
        lock_graph,
    })
}
