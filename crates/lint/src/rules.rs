//! The nine bh-lint rules. Each rule pushes [`Diagnostic`]s; allow
//! resolution and rendering happen in the engine (`lib.rs`).
//!
//! Rules 1–4, 6, 7 and 9 are per-file token scans gated on the shared
//! scope table (`crate::scope`). Rule 5 is a cross-file consistency
//! check over specific files. The interprocedural passes
//! ([`no_panic_reachable`], [`no_alloc_reachable`], [`lock_order`])
//! run over the [`Model`] symbol table and report full call chains.

use crate::graph::{DiGraph, EdgeInfo};
use crate::lexer::{brace_match, item_body, test_mod_spans, Lexed, Tok, Token};
use crate::model::{FnInfo, HeldLock, Model, PANIC_IDENTS};
use crate::{scope, Diagnostic};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Rule names, in the order they are documented in LINTS.md.
pub const RULES: [&str; 9] = [
    "no-wall-clock",
    "no-ambient-rng",
    "ordered-iteration",
    "no-panic-hot-path",
    "wire-exhaustiveness",
    "no-hot-alloc",
    "fixed-width-records",
    "lock-order",
    "cross-crate-inline",
];

/// Identifiers that construct or feed an RNG from ambient state rather
/// than an explicit seed.
const AMBIENT_RNG: [&str; 6] = [
    "thread_rng",
    "ThreadRng",
    "from_entropy",
    "OsRng",
    "getrandom",
    "RandomState",
];

fn push(out: &mut Vec<Diagnostic>, file: &str, line: u32, rule: &'static str, message: String) {
    out.push(Diagnostic {
        file: file.to_string(),
        line,
        rule: rule.to_string(),
        message,
        allowable: true,
        also: Vec::new(),
    });
}

/// True when `tokens[i..]` is `<first> :: <last>` (e.g. `Instant::now`).
fn path_seq(tokens: &[Token], i: usize, first: &str, last: &str) -> bool {
    matches!(&tokens[i].tok, Tok::Ident(s) if s == first)
        && tokens.get(i + 1).map(|t| &t.tok) == Some(&Tok::Punct(':'))
        && tokens.get(i + 2).map(|t| &t.tok) == Some(&Tok::Punct(':'))
        && matches!(tokens.get(i + 3).map(|t| &t.tok), Some(Tok::Ident(s)) if s == last)
}

/// Rule 1: `Instant::now` / `SystemTime::now` outside the I/O allowlist.
pub fn no_wall_clock(rel: &str, lx: &Lexed, out: &mut Vec<Diagnostic>) {
    if scope::WALL_CLOCK_IO.iter().any(|p| rel.starts_with(p)) {
        return;
    }
    for i in 0..lx.tokens.len() {
        for src in ["Instant", "SystemTime"] {
            if path_seq(&lx.tokens, i, src, "now") {
                push(
                    out,
                    rel,
                    lx.tokens[i].line,
                    "no-wall-clock",
                    format!(
                        "`{src}::now()` outside the I/O allowlist; use the simulated \
                         clock or take time as a parameter"
                    ),
                );
            }
        }
    }
}

/// Rule 2: RNG construction from ambient state instead of an explicit
/// seed. Applies everywhere, tests included — seeded tests are what
/// keep the goldens replayable.
pub fn no_ambient_rng(rel: &str, lx: &Lexed, out: &mut Vec<Diagnostic>) {
    for t in &lx.tokens {
        if let Tok::Ident(s) = &t.tok {
            if AMBIENT_RNG.contains(&s.as_str()) {
                push(
                    out,
                    rel,
                    t.line,
                    "no-ambient-rng",
                    format!("`{s}` draws ambient entropy; construct RNGs from an explicit seed"),
                );
            }
        }
    }
}

/// Rule 3: `HashMap`/`HashSet` in artifact-writing paths. Anything that
/// can reach a JSON artifact, stdout table, or event log must iterate
/// in a defined order.
pub fn ordered_iteration(rel: &str, lx: &Lexed, out: &mut Vec<Diagnostic>) {
    if !scope::ARTIFACT_PATHS
        .iter()
        .any(|p| rel.starts_with(p) || rel == *p)
    {
        return;
    }
    for t in &lx.tokens {
        if let Tok::Ident(s) = &t.tok {
            if s == "HashMap" || s == "HashSet" {
                push(
                    out,
                    rel,
                    t.line,
                    "ordered-iteration",
                    format!(
                        "`{s}` in an artifact-writing path; use BTreeMap/BTreeSet or \
                         sort before emitting"
                    ),
                );
            }
        }
    }
}

/// Rule 4: `unwrap`/`expect`/`panic!`-family idents in shard and pool
/// code. `#[cfg(test)] mod` blocks are exempt.
pub fn no_panic_hot_path(rel: &str, lx: &Lexed, out: &mut Vec<Diagnostic>) {
    if !scope::PANIC_HOT.contains(&rel) {
        return;
    }
    let spans = test_mod_spans(&lx.tokens);
    for t in &lx.tokens {
        if let Tok::Ident(s) = &t.tok {
            if PANIC_IDENTS.contains(&s.as_str())
                && !spans.iter().any(|&(a, b)| t.line >= a && t.line <= b)
            {
                push(
                    out,
                    rel,
                    t.line,
                    "no-panic-hot-path",
                    format!(
                        "`{s}` in a proto hot path; return an error and account it in \
                         NodeStats instead of panicking a shard thread"
                    ),
                );
            }
        }
    }
}

/// Rule 6: per-request allocation idioms in the proto hot set.
/// `.to_vec()` copies a buffer the zero-copy frame path already
/// refcounts; `Vec::new`/`BytesMut::new` start at capacity zero and
/// grow inside the request loop. `#[cfg(test)] mod` blocks are exempt;
/// the `vec![...]` macro and `with_capacity` are deliberately legal.
pub fn no_hot_alloc(rel: &str, lx: &Lexed, out: &mut Vec<Diagnostic>) {
    if !scope::ALLOC_HOT.contains(&rel) {
        return;
    }
    let spans = test_mod_spans(&lx.tokens);
    for i in 0..lx.tokens.len() {
        let t = &lx.tokens[i];
        if spans.iter().any(|&(a, b)| t.line >= a && t.line <= b) {
            continue;
        }
        if matches!(&t.tok, Tok::Ident(s) if s == "to_vec") {
            push(
                out,
                rel,
                t.line,
                "no-hot-alloc",
                "`to_vec()` copies a buffer in the proto hot set; slice a refcounted \
                 `Bytes` or reuse a scratch buffer"
                    .to_string(),
            );
        }
        for ty in ["Vec", "BytesMut"] {
            if path_seq(&lx.tokens, i, ty, "new") {
                push(
                    out,
                    rel,
                    t.line,
                    "no-hot-alloc",
                    format!(
                        "`{ty}::new()` in the proto hot set grows from capacity zero; \
                         preallocate with `with_capacity` or reuse a scratch buffer"
                    ),
                );
            }
        }
    }
}

/// Whether the attribute group ending just before token `end` (`#[...]`
/// blocks, then the `pub`/`const`/... qualifiers of the item) holds
/// `#[inline]` or `#[inline(always)]`.
fn has_inline_attr(tokens: &[Token], end: usize) -> bool {
    let mut j = end;
    // Qualifiers between the attributes and `fn`: `pub(crate) const`.
    while j > 0 {
        match &tokens[j - 1].tok {
            Tok::Ident(s)
                if ["pub", "crate", "super", "const", "unsafe", "async"].contains(&s.as_str()) =>
            {
                j -= 1
            }
            Tok::Punct('(') | Tok::Punct(')') => j -= 1,
            _ => break,
        }
    }
    while j >= 3 && tokens[j - 1].tok == Tok::Punct(']') {
        let mut open = j - 1;
        while open > 0 && tokens[open].tok != Tok::Punct('[') {
            open -= 1;
        }
        if open == 0 || tokens[open - 1].tok != Tok::Punct('#') {
            return false;
        }
        let attr: Vec<&Tok> = tokens[open + 1..j - 1].iter().map(|t| &t.tok).collect();
        let inline = matches!(attr.first(), Some(Tok::Ident(s)) if s == "inline");
        let never = attr
            .iter()
            .any(|t| matches!(t, Tok::Ident(s) if s == "never"));
        if inline && !never {
            return true;
        }
        j = open - 1;
    }
    false
}

/// Rule 9: a function with a body but no `#[inline]` in a file whose
/// functions are called across crates on the request path. The
/// workspace builds without LTO, so such a function, unless generic, is
/// a call from every other crate however small it is. `#[cfg(test)] mod`
/// blocks are exempt; a bodyless trait method declares nothing to inline.
pub fn cross_crate_inline(rel: &str, lx: &Lexed, out: &mut Vec<Diagnostic>) {
    if !scope::INLINE_ACROSS_CRATES.contains(&rel) {
        return;
    }
    let tokens = &lx.tokens;
    let spans = test_mod_spans(tokens);
    for i in 0..tokens.len() {
        let t = &tokens[i];
        let Some(Tok::Ident(name)) = tokens.get(i + 1).map(|n| &n.tok) else {
            continue;
        };
        if !matches!(&t.tok, Tok::Ident(s) if s == "fn")
            || spans.iter().any(|&(a, b)| t.line >= a && t.line <= b)
        {
            continue;
        }
        // The signature ends at the body's `{` or a declaration's `;`,
        // whichever comes first outside brackets (`[u8; N]`).
        let mut depth = 0i32;
        let mut has_body = false;
        for n in &tokens[i + 2..] {
            match n.tok {
                Tok::Punct('(') | Tok::Punct('[') => depth += 1,
                Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
                Tok::Punct('{') if depth == 0 => {
                    has_body = true;
                    break;
                }
                Tok::Punct(';') if depth == 0 => break,
                _ => {}
            }
        }
        if has_body && !has_inline_attr(tokens, i) {
            push(
                out,
                rel,
                t.line,
                "cross-crate-inline",
                format!(
                    "`fn {name}` lacks `#[inline]`; without LTO a non-generic function \
                     here is never inlined into the crates that call it"
                ),
            );
        }
    }
}

/// Primitive types with a platform-independent byte width. `usize` /
/// `isize` are deliberately absent: their width follows the platform,
/// so a record containing one deserializes differently across hosts.
const FIXED_WIDTH: [&str; 13] = [
    "u8", "u16", "u32", "u64", "u128", "i8", "i16", "i32", "i64", "i128", "f32", "f64", "bool",
];

/// Fields of `struct <name>` with the token span of each field's type
/// (`start..end`, exclusive of the separating comma).
fn struct_field_types(tokens: &[Token], name: &str) -> Vec<(String, u32, (usize, usize))> {
    let Some((start, end)) = item_body(tokens, "struct", name) else {
        return Vec::new();
    };
    let mut fields = Vec::new();
    let mut i = start + 1;
    while i < end {
        match &tokens[i].tok {
            Tok::Punct('#') => {
                // Skip field attributes.
                i += 1;
                if i < end && tokens[i].tok == Tok::Punct('[') {
                    let mut depth = 1i64;
                    i += 1;
                    while i < end && depth > 0 {
                        match tokens[i].tok {
                            Tok::Punct('[') => depth += 1,
                            Tok::Punct(']') => depth -= 1,
                            _ => {}
                        }
                        i += 1;
                    }
                }
            }
            Tok::Ident(s) if s == "pub" => i += 1,
            Tok::Ident(s)
                if tokens.get(i + 1).map(|t| &t.tok) == Some(&Tok::Punct(':'))
                    && tokens.get(i + 2).map(|t| &t.tok) != Some(&Tok::Punct(':')) =>
            {
                let (fname, fline) = (s.clone(), tokens[i].line);
                let ty_start = i + 2;
                let mut depth = 0i64;
                i = ty_start;
                while i < end {
                    match tokens[i].tok {
                        Tok::Punct('{') | Tok::Punct('(') | Tok::Punct('[') => depth += 1,
                        Tok::Punct('}') | Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
                        Tok::Punct('<') => depth += 1,
                        Tok::Punct('>') => depth -= 1,
                        Tok::Punct(',') if depth == 0 => break,
                        _ => {}
                    }
                    i += 1;
                }
                fields.push((fname, fline, (ty_start, i)));
                i += 1;
            }
            _ => i += 1,
        }
    }
    fields
}

/// True when the type at `tokens[span]` is a fixed-width primitive or a
/// `[primitive; N]` array of one.
fn type_is_fixed_width(tokens: &[Token], span: (usize, usize)) -> bool {
    let ty = &tokens[span.0..span.1];
    match ty.first().map(|t| &t.tok) {
        Some(Tok::Ident(s)) => ty.len() == 1 && FIXED_WIDTH.contains(&s.as_str()),
        Some(Tok::Punct('[')) => {
            matches!(ty.get(1).map(|t| &t.tok), Some(Tok::Ident(s)) if FIXED_WIDTH.contains(&s.as_str()))
        }
        _ => false,
    }
}

/// Rule 7: durable-storage invariants in the hint-log crate. Structs
/// named `*Record` are on-disk layouts and may hold only fixed-width
/// primitives or arrays of them (no `usize`, no pointers, no growable
/// containers — the byte layout is the compatibility contract), and any
/// function on the snapshot/compaction path (name contains `snapshot`
/// or `compact`) must visibly maintain the sorted-records invariant by
/// mentioning a `sort` identifier. `#[cfg(test)] mod` blocks are
/// exempt.
pub fn fixed_width_records(rel: &str, lx: &Lexed, out: &mut Vec<Diagnostic>) {
    if !rel.starts_with(scope::DURABLE_STORE) {
        return;
    }
    let tokens = &lx.tokens;
    let spans = test_mod_spans(tokens);
    let in_tests = |line: u32| spans.iter().any(|&(a, b)| line >= a && line <= b);
    for i in 0..tokens.len().saturating_sub(1) {
        let (Tok::Ident(kw), Tok::Ident(name)) = (&tokens[i].tok, &tokens[i + 1].tok) else {
            continue;
        };
        if in_tests(tokens[i].line) {
            continue;
        }
        if kw == "struct" && name.ends_with("Record") {
            for (field, fline, ty_span) in struct_field_types(tokens, name) {
                if !type_is_fixed_width(tokens, ty_span) {
                    push(
                        out,
                        rel,
                        fline,
                        "fixed-width-records",
                        format!(
                            "`{name}` field `{field}` is not a fixed-width primitive or \
                             array; on-disk record layouts must be stable across hosts \
                             and versions"
                        ),
                    );
                }
            }
        }
        if kw == "fn" && (name.contains("snapshot") || name.contains("compact")) {
            // Find the body: the first `{` after the signature (a `;`
            // first means a bodyless declaration — nothing to check).
            let mut k = i + 2;
            while k < tokens.len()
                && tokens[k].tok != Tok::Punct('{')
                && tokens[k].tok != Tok::Punct(';')
            {
                k += 1;
            }
            let Some(close) = brace_match(tokens, k) else {
                continue;
            };
            let sorts = tokens[k..=close]
                .iter()
                .any(|t| matches!(&t.tok, Tok::Ident(s) if s.contains("sort")));
            if !sorts {
                push(
                    out,
                    rel,
                    tokens[i + 1].line,
                    "fixed-width-records",
                    format!(
                        "`{name}` is on the snapshot/compaction path but never sorts; \
                         snapshots must keep records sorted by key for replay to \
                         verify them"
                    ),
                );
            }
        }
    }
}

/// Converts a CamelCase variant name to the SCREAMING_SNAKE suffix of
/// its tag const (`GetReply` → `GET_REPLY`).
fn camel_to_screaming(name: &str) -> String {
    let mut s = String::new();
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_uppercase() && i > 0 {
            s.push('_');
        }
        s.push(c.to_ascii_uppercase());
    }
    s
}

/// Variant names (with lines) of `enum <name>`, skipping attributes.
fn enum_variants(tokens: &[Token], name: &str) -> Vec<(String, u32)> {
    let Some((start, end)) = item_body(tokens, "enum", name) else {
        return Vec::new();
    };
    let mut vars = Vec::new();
    let mut i = start + 1;
    while i < end {
        // Skip `#[...]` attributes on the variant.
        while i < end && tokens[i].tok == Tok::Punct('#') {
            i += 1;
            if i < end && tokens[i].tok == Tok::Punct('[') {
                let mut depth = 1i64;
                i += 1;
                while i < end && depth > 0 {
                    match tokens[i].tok {
                        Tok::Punct('[') => depth += 1,
                        Tok::Punct(']') => depth -= 1,
                        _ => {}
                    }
                    i += 1;
                }
            }
        }
        if i >= end {
            break;
        }
        if let Tok::Ident(s) = &tokens[i].tok {
            vars.push((s.clone(), tokens[i].line));
        }
        // Advance to the comma that ends this variant (payload braces,
        // parens, and brackets may nest).
        let mut depth = 0i64;
        while i < end {
            match tokens[i].tok {
                Tok::Punct('{') | Tok::Punct('(') | Tok::Punct('[') => depth += 1,
                Tok::Punct('}') | Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
                Tok::Punct(',') if depth == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
    }
    vars
}

/// `const T_*` names (with lines) declared in a file.
fn tag_consts(tokens: &[Token]) -> BTreeMap<String, u32> {
    let mut consts = BTreeMap::new();
    for i in 0..tokens.len().saturating_sub(1) {
        if let (Tok::Ident(a), Tok::Ident(b)) = (&tokens[i].tok, &tokens[i + 1].tok) {
            if a == "const" && b.starts_with("T_") {
                consts.insert(b.clone(), tokens[i + 1].line);
            }
        }
    }
    consts
}

/// True when `ident` appears anywhere in `tokens[range]`.
fn span_contains(tokens: &[Token], range: (usize, usize), ident: &str) -> bool {
    tokens[range.0..=range.1]
        .iter()
        .any(|t| matches!(&t.tok, Tok::Ident(s) if s == ident))
}

/// Rule 5: every `Message` variant needs a `T_*` tag const, an encoder
/// arm, a decoder arm, and coverage in `wire_proptests.rs`; orphan tag
/// consts are flagged too.
pub fn wire_exhaustiveness(files: &BTreeMap<String, Lexed>, out: &mut Vec<Diagnostic>) {
    const WIRE: &str = "crates/proto/src/wire.rs";
    const PROPS: &str = "crates/proto/tests/wire_proptests.rs";
    let Some(wire) = files.get(WIRE) else {
        return;
    };
    let variants = enum_variants(&wire.tokens, "Message");
    if variants.is_empty() {
        return;
    }
    let consts = tag_consts(&wire.tokens);
    // Scope the codec search to `impl Message` — other types in the
    // file have their own `encode`/`decode`. The tag arms live in the
    // innermost form there is: `encode_head` (what `encode_into` and
    // `encode_split` both finish), else the appending `encode_into`
    // (`encode` is then only `clear` + `encode_into`), else `encode`.
    let (scope, base) = match item_body(&wire.tokens, "impl", "Message") {
        Some((s, e)) => (&wire.tokens[s..=e], s),
        None => (&wire.tokens[..], 0),
    };
    let body = |name: &str| item_body(scope, "fn", name).map(|(a, b)| (a + base, b + base));
    let (encode, decode) = (
        body("encode_head")
            .or_else(|| body("encode_into"))
            .or_else(|| body("encode")),
        body("decode"),
    );
    let mut claimed: BTreeSet<String> = BTreeSet::new();
    for (v, vline) in &variants {
        let tag = format!("T_{}", camel_to_screaming(v));
        claimed.insert(tag.clone());
        if !consts.contains_key(&tag) {
            push(
                out,
                WIRE,
                *vline,
                "wire-exhaustiveness",
                format!("variant `{v}` has no tag const `{tag}`"),
            );
            continue;
        }
        if let Some(span) = encode {
            if !span_contains(&wire.tokens, span, &tag) {
                push(
                    out,
                    WIRE,
                    *vline,
                    "wire-exhaustiveness",
                    format!("variant `{v}`: tag `{tag}` never written by `encode`"),
                );
            }
        }
        if let Some(span) = decode {
            if !span_contains(&wire.tokens, span, &tag) {
                push(
                    out,
                    WIRE,
                    *vline,
                    "wire-exhaustiveness",
                    format!("variant `{v}`: tag `{tag}` never matched by `decode`"),
                );
            }
        }
        if let Some(props) = files.get(PROPS) {
            let covered = (0..props.tokens.len()).any(|i| path_seq(&props.tokens, i, "Message", v));
            if !covered {
                push(
                    out,
                    WIRE,
                    *vline,
                    "wire-exhaustiveness",
                    format!("variant `{v}` is never constructed in {PROPS}"),
                );
            }
        }
    }
    for (name, line) in &consts {
        if !claimed.contains(name) {
            push(
                out,
                WIRE,
                *line,
                "wire-exhaustiveness",
                format!("tag const `{name}` has no matching `Message` variant"),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Interprocedural passes over the symbol-table model.
// ---------------------------------------------------------------------------

/// Bounded call depth for the interprocedural `no-panic-hot-path`
/// pass: a panic more than this many calls away from a hot entry point
/// is out of scope (and out of the approximate graph's precision).
const PANIC_CALL_DEPTH: usize = 4;

/// Bounded call depth for the interprocedural `no-hot-alloc` pass.
/// Shallower than the panic pass: allocation helpers deliberately live
/// close to the request loop.
const ALLOC_CALL_DEPTH: usize = 3;

/// How deep `lock-order` summarizes the locks a callee acquires when a
/// caller invokes it with locks held.
const LOCK_SUMMARY_DEPTH: usize = 3;

/// How deep `lock-order` chases a call before deciding whether it
/// reaches blocking I/O.
const IO_CALL_DEPTH: usize = 3;

/// Method/function names that block on the network or disk. Holding a
/// lock across any of these in the hot set serializes unrelated
/// requests behind I/O latency.
const IO_CALLS: [&str; 14] = [
    "connect",
    "connect_timeout",
    "flush",
    "read_exact",
    "read_message",
    "read_to_end",
    "recv_from",
    "send_to",
    "sync_all",
    "sync_data",
    "write",
    "write_all",
    "write_message",
    "write_vectored",
];

/// Breadth-first reachability from `entry` through the call graph, up
/// to `depth_cap` edges. Returns fn index → (parent fn, call line,
/// depth); the BFS order (source order of calls, index order of
/// candidates) makes the recorded chain for each fn deterministic and
/// shortest-first.
fn reach(model: &Model, entry: usize, depth_cap: usize) -> BTreeMap<usize, (usize, u32, usize)> {
    let mut parents: BTreeMap<usize, (usize, u32, usize)> = BTreeMap::new();
    let mut seen: BTreeSet<usize> = BTreeSet::new();
    seen.insert(entry);
    let mut queue: VecDeque<(usize, usize)> = VecDeque::new();
    queue.push_back((entry, 0));
    while let Some((at, d)) = queue.pop_front() {
        if d == depth_cap {
            continue;
        }
        for c in &model.fns[at].calls {
            for &t in model.resolve(&c.name) {
                if seen.insert(t) {
                    parents.insert(t, (at, c.line, d + 1));
                    queue.push_back((t, d + 1));
                }
            }
        }
    }
    parents
}

/// Shared shape of the two reachability rules: for every non-test entry
/// fn whose file is in `hot`, find every workspace fn reachable within
/// `depth_cap` calls whose file is *outside* `hot` (the depth-0 token
/// rule already covers in-set files) and which contains sites of
/// interest. Each offending site keeps its single best chain (shortest,
/// then lexicographically first) and is reported at the site itself,
/// with the chain's call sites as alternate allow locations.
fn reachability_rule(
    model: &Model,
    hot: &[&str],
    depth_cap: usize,
    rule: &'static str,
    sites: impl Fn(&FnInfo) -> Vec<(String, u32)>,
    message: impl Fn(&FnInfo, &FnInfo, &str, &str) -> String,
    out: &mut Vec<Diagnostic>,
) {
    // (leaf file, line, ident) → (depth, chain, entry idx, leaf idx,
    // chain call sites).
    type Best = (usize, String, usize, usize, Vec<(String, u32)>);
    let mut best: BTreeMap<(String, u32, String), Best> = BTreeMap::new();
    for (ei, ef) in model.fns.iter().enumerate() {
        if ef.in_test || !hot.contains(&ef.file.as_str()) {
            continue;
        }
        let parents = reach(model, ei, depth_cap);
        for (&li, &(_, _, d)) in &parents {
            let lf = &model.fns[li];
            if hot.contains(&lf.file.as_str()) {
                continue;
            }
            let leaf_sites = sites(lf);
            if leaf_sites.is_empty() {
                continue;
            }
            // Reconstruct the entry → leaf chain.
            let mut names = vec![lf.name.clone()];
            let mut call_sites: Vec<(String, u32)> = Vec::new();
            let mut cur = li;
            while cur != ei {
                let (p, line, _) = parents[&cur];
                call_sites.push((model.fns[p].file.clone(), line));
                names.push(model.fns[p].name.clone());
                cur = p;
            }
            names.reverse();
            call_sites.reverse();
            let chain = names.join("` -> `");
            for (ident, line) in leaf_sites {
                let key = (lf.file.clone(), line, ident);
                let better = match best.get(&key) {
                    Some((bd, bc, ..)) => (d, &chain) < (*bd, bc),
                    None => true,
                };
                if better {
                    best.insert(key, (d, chain.clone(), ei, li, call_sites.clone()));
                }
            }
        }
    }
    for ((file, line, ident), (_, chain, ei, li, call_sites)) in best {
        out.push(Diagnostic {
            file,
            line,
            rule: rule.to_string(),
            message: message(&model.fns[ei], &model.fns[li], &ident, &chain),
            allowable: true,
            also: call_sites,
        });
    }
}

/// Interprocedural half of rule 4: a hot-path entry point must not
/// reach a panic-family ident through any workspace helper within
/// `PANIC_CALL_DEPTH` calls.
pub fn no_panic_reachable(model: &Model, out: &mut Vec<Diagnostic>) {
    reachability_rule(
        model,
        &scope::PANIC_HOT,
        PANIC_CALL_DEPTH,
        "no-panic-hot-path",
        |f| f.panics.clone(),
        |entry, leaf, ident, chain| {
            format!(
                "`{ident}` in `{}` is reachable from hot-path `{}` ({}) via `{chain}`; \
                 return an error along the chain instead of panicking a shard thread",
                leaf.name, entry.name, entry.file
            )
        },
        out,
    );
}

/// Interprocedural half of rule 6: a hot-path entry point must not
/// reach a per-request allocation idiom through any workspace helper
/// within `ALLOC_CALL_DEPTH` calls.
pub fn no_alloc_reachable(model: &Model, out: &mut Vec<Diagnostic>) {
    reachability_rule(
        model,
        &scope::ALLOC_HOT,
        ALLOC_CALL_DEPTH,
        "no-hot-alloc",
        |f| f.allocs.clone(),
        |entry, leaf, what, chain| {
            format!(
                "`{what}` in `{}` allocates per-request, reachable from hot-path `{}` \
                 ({}) via `{chain}`; preallocate, reuse a scratch buffer, or slice a \
                 refcounted `Bytes`",
                leaf.name, entry.name, entry.file
            )
        },
        out,
    );
}

/// Resolves the `call:` pseudo-locks the model records for let-bound
/// calls: when every candidate for the callee name is a guard-returning
/// fn, the binding holds the callee's own locks; otherwise (plain value
/// result, or unresolvable name) the pseudo-entry is dropped. Real lock
/// ids pass through. Deduplicated and sorted.
fn real_held(model: &Model, held: &[HeldLock]) -> Vec<HeldLock> {
    let mut out: Vec<HeldLock> = Vec::new();
    for h in held {
        if let Some(name) = h.lock.strip_prefix("call:") {
            let targets = model.resolve(name);
            if !targets.is_empty() && targets.iter().all(|&t| model.fns[t].returns_guard) {
                for &t in targets {
                    for a in &model.fns[t].acquires {
                        out.push(HeldLock {
                            lock: a.lock.clone(),
                            line: h.line,
                        });
                    }
                }
            }
        } else {
            out.push(h.clone());
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Locks `start` (and everything it calls, to `depth_cap`) acquires,
/// each with the call chain (starting at `start`) that first reaches
/// it. Used to summarize a callee for a caller that invokes it with
/// locks held.
///
/// `caller` is the fn making the call. Calls are resolved by name, so
/// below a delegating wrapper (`HintTable::purge_location` →
/// `HintCache::purge_location`) the shared name resolves back to the
/// wrapper itself; following it would charge the caller's own locks to
/// its callee.
fn transitive_acquires(
    model: &Model,
    caller: usize,
    start: usize,
    depth_cap: usize,
) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = Vec::new();
    let mut seen_locks: BTreeSet<String> = BTreeSet::new();
    let mut seen_fns: BTreeSet<usize> = BTreeSet::new();
    seen_fns.insert(start);
    let mut queue: VecDeque<(usize, usize, String)> = VecDeque::new();
    queue.push_back((start, 0, format!("`{}`", model.fns[start].name)));
    while let Some((at, d, chain)) = queue.pop_front() {
        for a in &model.fns[at].acquires {
            if seen_locks.insert(a.lock.clone()) {
                out.push((a.lock.clone(), chain.clone()));
            }
        }
        if d == depth_cap {
            continue;
        }
        for c in &model.fns[at].calls {
            for &t in model.resolve(&c.name) {
                if t == caller && c.name == model.fns[caller].name {
                    continue;
                }
                if seen_fns.insert(t) {
                    queue.push_back((t, d + 1, format!("{chain} -> `{}`", model.fns[t].name)));
                }
            }
        }
    }
    out
}

/// The global lock-order graph: an edge `A -> B` whenever some fn
/// acquires `B` with `A` held — directly, or through a call whose
/// callee (summarized to `LOCK_SUMMARY_DEPTH`) acquires `B`.
pub fn lock_graph(model: &Model) -> DiGraph {
    let mut g = DiGraph::default();
    for (fi, f) in model.fns.iter().enumerate().filter(|(_, f)| !f.in_test) {
        for a in &f.acquires {
            for h in real_held(model, &a.held) {
                g.add_edge(
                    &h.lock,
                    &a.lock,
                    EdgeInfo {
                        file: f.file.clone(),
                        line: a.line,
                        detail: format!("in `{}`", f.name),
                    },
                );
            }
        }
        for c in &f.calls {
            let held = real_held(model, &c.held);
            if held.is_empty() {
                continue;
            }
            for &t in model.resolve(&c.name) {
                // A fn invoking its own name on another receiver is a
                // delegating wrapper (`HintTable::purge_location` →
                // `HintCache::purge_location`), not recursion; counting
                // it would forge a self-edge for every such wrapper.
                if t == fi {
                    continue;
                }
                for (lock, chain) in transitive_acquires(model, fi, t, LOCK_SUMMARY_DEPTH) {
                    for h in &held {
                        g.add_edge(
                            &h.lock,
                            &lock,
                            EdgeInfo {
                                file: f.file.clone(),
                                line: c.line,
                                detail: format!("via `{}` -> {chain}", f.name),
                            },
                        );
                    }
                }
            }
        }
    }
    g
}

/// For each fn, the first blocking-I/O callee name it reaches within
/// [`IO_CALL_DEPTH`] calls (directly or through workspace helpers).
fn io_reach(model: &Model) -> BTreeMap<usize, String> {
    let mut out = BTreeMap::new();
    for i in 0..model.fns.len() {
        let mut seen: BTreeSet<usize> = BTreeSet::new();
        seen.insert(i);
        let mut queue: VecDeque<(usize, usize)> = VecDeque::new();
        queue.push_back((i, 0));
        'bfs: while let Some((at, d)) = queue.pop_front() {
            for c in &model.fns[at].calls {
                if IO_CALLS.contains(&c.name.as_str()) {
                    out.insert(i, c.name.clone());
                    break 'bfs;
                }
                if d == IO_CALL_DEPTH {
                    continue;
                }
                for &t in model.resolve(&c.name) {
                    if seen.insert(t) {
                        queue.push_back((t, d + 1));
                    }
                }
            }
        }
    }
    out
}

/// Rule 8, `lock-order`: builds the global lock-order graph, flags
/// every cycle (a potential deadlock) with a representative acquisition
/// chain, flags edges that invert the canonical ranking declared in
/// LINTS.md, and flags hot-path code holding a lock across blocking
/// I/O.
pub fn lock_order(model: &Model, ranking: Option<&[String]>, out: &mut Vec<Diagnostic>) {
    let g = lock_graph(model);

    // Potential deadlocks: cycles in the lock-order graph. Each gets
    // one diagnostic, anchored at the cycle's first acquisition site,
    // with the other edges' sites as alternate allow locations.
    for comp in g.cycles() {
        let edges = g.cycle_edges(&comp);
        let sites: Vec<(String, u32, String)> = edges
            .iter()
            .map(|(a, b)| {
                let info = &g.edges[&(a.clone(), b.clone())];
                (
                    info.file.clone(),
                    info.line,
                    format!(
                        "`{a}` -> `{b}` at {}:{} ({})",
                        info.file, info.line, info.detail
                    ),
                )
            })
            .collect();
        let anchor = sites
            .iter()
            .enumerate()
            .min_by_key(|(_, s)| (s.0.clone(), s.1))
            .map(|(i, _)| i)
            .unwrap_or(0);
        let mut path: Vec<String> = edges.iter().map(|(a, _)| format!("`{a}`")).collect();
        if let Some((_, last)) = edges.last() {
            path.push(format!("`{last}`"));
        }
        let segments: Vec<String> = sites.iter().map(|s| s.2.clone()).collect();
        out.push(Diagnostic {
            file: sites[anchor].0.clone(),
            line: sites[anchor].1,
            rule: "lock-order".to_string(),
            message: format!(
                "lock-order cycle {}: {}; establish one global acquisition order",
                path.join(" -> "),
                segments.join(", ")
            ),
            allowable: true,
            also: sites
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != anchor)
                .map(|(_, s)| (s.0.clone(), s.1))
                .collect(),
        });
    }

    // Ranking inversions: an edge A -> B where LINTS.md ranks B before
    // A. Cycle-free trees can still violate the declared order.
    if let Some(ranking) = ranking {
        let rank: BTreeMap<&str, usize> = ranking
            .iter()
            .enumerate()
            .map(|(i, n)| (n.as_str(), i))
            .collect();
        for ((a, b), info) in &g.edges {
            if a == b {
                continue;
            }
            let (Some(&ra), Some(&rb)) = (rank.get(a.as_str()), rank.get(b.as_str())) else {
                continue;
            };
            if ra > rb {
                push(
                    out,
                    &info.file,
                    info.line,
                    "lock-order",
                    format!(
                        "`{b}` acquired while `{a}` is held inverts the canonical lock \
                         ranking in LINTS.md (`{b}` ranks before `{a}`); acquire in \
                         ranking order or narrow the held scope"
                    ),
                );
            }
        }
    }

    // Locks held across blocking I/O in the hot set: every request on
    // the same lock waits out the disk/network behind it.
    let io = io_reach(model);
    let mut seen: BTreeSet<(String, u32, String)> = BTreeSet::new();
    for f in model.fns.iter().filter(|f| !f.in_test) {
        if !scope::HOT_PATH.contains(&f.file.as_str()) {
            continue;
        }
        for c in &f.calls {
            let held = real_held(model, &c.held);
            if held.is_empty() {
                continue;
            }
            if IO_CALLS.contains(&c.name.as_str()) {
                for h in &held {
                    if seen.insert((f.file.clone(), c.line, h.lock.clone())) {
                        out.push(Diagnostic {
                            file: f.file.clone(),
                            line: c.line,
                            rule: "lock-order".to_string(),
                            message: format!(
                                "blocking I/O `{}` called while `{}` is held (acquired \
                                 line {}); shrink the lock scope so requests never wait \
                                 on I/O behind a lock",
                                c.name, h.lock, h.line
                            ),
                            allowable: true,
                            also: vec![(f.file.clone(), h.line)],
                        });
                    }
                }
                continue;
            }
            for &t in model.resolve(&c.name) {
                let Some(io_name) = io.get(&t) else { continue };
                for h in &held {
                    if seen.insert((f.file.clone(), c.line, h.lock.clone())) {
                        out.push(Diagnostic {
                            file: f.file.clone(),
                            line: c.line,
                            rule: "lock-order".to_string(),
                            message: format!(
                                "`{}` reaches blocking I/O (`{io_name}`) while `{}` is \
                                 held (acquired line {}); shrink the lock scope so \
                                 requests never wait on I/O behind a lock",
                                c.name, h.lock, h.line
                            ),
                            allowable: true,
                            also: vec![(f.file.clone(), h.line)],
                        });
                    }
                }
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn model_of(files: &[(&str, &str)]) -> Model {
        let lexed: BTreeMap<String, crate::lexer::Lexed> = files
            .iter()
            .map(|(rel, src)| (rel.to_string(), lex(src)))
            .collect();
        Model::build(&lexed)
    }

    #[test]
    fn delegating_wrapper_is_not_a_lock_cycle() {
        // `Shards::purge_location` holds the shard guard while calling
        // `Cache::purge_location`; name-based resolution offers the
        // wrapper itself as a candidate, which must be skipped or every
        // such wrapper forges a `shards -> shards` deadlock cycle.
        let m = model_of(&[
            (
                "crates/proto/src/node/mod.rs",
                "impl Shards {\n  fn purge_location(&self, loc: u64) -> usize {\n    self.shards.iter().map(|s| s.lock().purge_location(loc)).sum()\n  }\n}\n",
            ),
            (
                "crates/proto/src/node/cache.rs",
                "impl Cache {\n  pub fn purge_location(&mut self, loc: u64) -> usize { 0 }\n}\n",
            ),
        ]);
        let g = lock_graph(&m);
        assert!(
            !g.edges
                .contains_key(&("proto/shards".to_string(), "proto/shards".to_string())),
            "self-call through a delegating wrapper must not become a self-edge"
        );
        assert!(g.cycles().is_empty());
    }

    #[test]
    fn camel_to_screaming_handles_runs() {
        assert_eq!(camel_to_screaming("Get"), "GET");
        assert_eq!(camel_to_screaming("GetReply"), "GET_REPLY");
        assert_eq!(camel_to_screaming("FindNearestReply"), "FIND_NEAREST_REPLY");
    }

    #[test]
    fn enum_variants_skip_attributes_and_payloads() {
        let src = "enum Message {\n  Get { url: String },\n  #[allow(dead_code)]\n  Ping,\n  Reply(Vec<u8>),\n}\n";
        let vars = enum_variants(&lex(src).tokens, "Message");
        let names: Vec<&str> = vars.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["Get", "Ping", "Reply"]);
    }

    #[test]
    fn field_types_classify_fixed_width() {
        let src = "struct LogRecord {\n  pub key: u64,\n  pub digest: [u8; 16],\n  pub url: String,\n  pub slots: Vec<u64>,\n  pub off: usize,\n}\n";
        let lx = lex(src);
        let fields = struct_field_types(&lx.tokens, "LogRecord");
        let verdicts: Vec<(&str, bool)> = fields
            .iter()
            .map(|(n, _, span)| (n.as_str(), type_is_fixed_width(&lx.tokens, *span)))
            .collect();
        assert_eq!(
            verdicts,
            [
                ("key", true),
                ("digest", true),
                ("url", false),
                ("slots", false),
                ("off", false),
            ]
        );
    }
}
