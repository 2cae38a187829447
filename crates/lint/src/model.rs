//! The item-parser layer: lifts the lexer's flat token stream into a
//! per-workspace symbol table — function items (with impl owners),
//! call sites, lock-acquisition sites, panic idents, and allocation
//! idioms — plus an approximate, name-based call graph.
//!
//! This is deliberately not name resolution. The precision contract
//! (documented in LINTS.md and DESIGN.md) is:
//!
//! * **Calls resolve by bare name.** A call site `foo(..)` or
//!   `x.foo(..)` resolves to every non-test workspace `fn foo` — unless
//!   the name is on `CALL_IGNORE` (ubiquitous std method names whose
//!   edges would be overwhelmingly false) or has more than
//!   `AMBIGUITY_CAP` candidates. False negatives are preferred over
//!   false edges: a lint that cries wolf gets allowed into silence.
//! * **Lock identity is `{crate}/{receiver}`.** `inner.store.lock()`
//!   and `self.store.lock()` are the same lock; two fields named
//!   `store` in different crates are not. Receivers are canonicalized
//!   through index expressions (`shards[i].lock()`), pass-through
//!   adapters (`.as_ref().unwrap().lock()`), closure parameters
//!   (`.map(|s| s.lock())` resolves through the `.iter()` chain), and
//!   `for`-loop bindings. An unresolvable one-letter receiver gets a
//!   function-local id so unrelated temporaries never unify.
//! * **Guard scope follows Rust drop rules, approximately.** A
//!   let-bound guard (`let g = x.lock();`) is held to the end of its
//!   block or an explicit `drop(g)`; a guard consumed in a larger
//!   expression is a temporary that dies at the statement's `;`, except
//!   in `if let`/`while let`/`match` scrutinees and `for` heads, where
//!   it extends over the attached block (the 2021-edition footgun the
//!   lock-order rule exists to see).

use crate::lexer::{brace_match, test_mod_spans, Lexed, Tok, Token};
use std::collections::BTreeMap;

/// Panic-family idents recorded as panic sites (exact matches, so
/// `unwrap_or_else` stays invisible). Shared with the depth-0 rule.
pub const PANIC_IDENTS: [&str; 6] = [
    "unwrap",
    "expect",
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
];

/// Ubiquitous method names never used as call-graph edges: they name
/// std-library methods far more often than the workspace functions that
/// happen to share the name, and each false edge risks a false finding
/// someone then "fixes" with a bogus allow.
const CALL_IGNORE: [&str; 62] = [
    "as_mut",
    "as_ref",
    "build",
    "clear",
    "clone",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "default",
    "drain",
    "eq",
    "extend",
    "fmt",
    "from",
    "get",
    "get_mut",
    "hash",
    "index",
    "insert",
    "into",
    "is_empty",
    "iter",
    "iter_mut",
    "keys",
    "len",
    "lookup",
    "map",
    "max",
    "min",
    "new",
    "next",
    "open",
    "partial_cmp",
    "pop",
    "push",
    "push_back",
    "push_front",
    "record",
    "recv",
    "register",
    "remove",
    "reserve",
    "resize",
    "run",
    "send",
    "shutdown",
    "snapshot",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "spawn",
    "swap",
    "take",
    "to_owned",
    "to_string",
    "try_from",
    "try_into",
    "values",
    "values_mut",
    "with_capacity",
];

/// A call name with more candidates than this is treated as ambiguous
/// and dropped from the graph rather than fanned out to everything.
const AMBIGUITY_CAP: usize = 4;

/// Adapter methods the receiver walk looks through: `x.field.as_ref()
/// .unwrap().lock()` locks `field`, not the adapter's result.
const RECEIVER_PASSTHROUGH: [&str; 7] = [
    "as_deref",
    "as_mut",
    "as_ref",
    "borrow",
    "borrow_mut",
    "expect",
    "unwrap",
];

/// A lock known to be held at some site, with the line it was acquired.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct HeldLock {
    /// Canonical lock id, `{crate}/{receiver}`.
    pub lock: String,
    /// 1-based line of the acquisition.
    pub line: u32,
}

/// One `.lock()` / `.read()` / `.write()` acquisition.
#[derive(Debug, Clone)]
pub struct AcquireSite {
    /// Canonical lock id being acquired.
    pub lock: String,
    /// 1-based line of the acquisition.
    pub line: u32,
    /// Locks already held when this one is taken.
    pub held: Vec<HeldLock>,
}

/// One call site, `name(..)` or `recv.name(..)`.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Bare callee name.
    pub name: String,
    /// 1-based line of the call.
    pub line: u32,
    /// Locks held at the call.
    pub held: Vec<HeldLock>,
    /// True when the call's result is let-bound and ends the
    /// initializer (`let g = x.locked();`) — the shape that keeps
    /// a returned guard alive.
    pub bound: bool,
}

/// One function item and everything the rules need to know about it.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Repo-relative file.
    pub file: String,
    /// Bare function name.
    pub name: String,
    /// Crate the file belongs to (second path component).
    pub krate: String,
    /// Surrounding `impl` type, if any.
    pub owner: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// True inside a `#[cfg(test)] mod` span.
    pub in_test: bool,
    /// True when the signature mentions a `*Guard` type — callers that
    /// let-bind the result keep the callee's locks alive.
    pub returns_guard: bool,
    /// Lock acquisitions, in source order.
    pub acquires: Vec<AcquireSite>,
    /// Call sites, in source order.
    pub calls: Vec<CallSite>,
    /// Panic-family idents `(ident, line)`, in source order.
    pub panics: Vec<(String, u32)>,
    /// Allocation idioms `(idiom, line)`, in source order.
    pub allocs: Vec<(String, u32)>,
}

/// The workspace symbol table and call graph.
#[derive(Debug, Default)]
pub struct Model {
    /// Every parsed function, in (file, source) order.
    pub fns: Vec<FnInfo>,
    /// Name → indices of non-test functions, for call resolution.
    pub by_name: BTreeMap<String, Vec<usize>>,
}

/// Only library sources participate in the symbol table: test and
/// bench binaries cannot sit on a data-path call chain.
fn is_model_file(rel: &str) -> bool {
    rel.starts_with("crates/") && rel.contains("/src/")
}

fn crate_of(rel: &str) -> String {
    rel.split('/').nth(1).unwrap_or("ws").to_string()
}

impl Model {
    /// Parses every in-scope file into the symbol table.
    pub fn build(files: &BTreeMap<String, Lexed>) -> Model {
        let mut model = Model::default();
        for (rel, lx) in files {
            if is_model_file(rel) {
                parse_file(rel, lx, &mut model.fns);
            }
        }
        for (i, f) in model.fns.iter().enumerate() {
            if !f.in_test {
                model.by_name.entry(f.name.clone()).or_default().push(i);
            }
        }
        model
    }

    /// Call-graph targets for a callee name; empty for ignored or
    /// ambiguous names (see module docs for the precision contract).
    pub fn resolve(&self, name: &str) -> &[usize] {
        if CALL_IGNORE.contains(&name) {
            return &[];
        }
        match self.by_name.get(name) {
            Some(v) if v.len() <= AMBIGUITY_CAP => v,
            _ => &[],
        }
    }
}

/// Keywords that read like calls when followed by `(`.
fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "while"
            | "for"
            | "match"
            | "loop"
            | "return"
            | "break"
            | "continue"
            | "move"
            | "in"
            | "as"
            | "else"
            | "let"
            | "fn"
            | "ref"
            | "mut"
            | "unsafe"
            | "where"
            | "use"
            | "impl"
            | "dyn"
            | "box"
            | "await"
    )
}

fn tok_ident(tokens: &[Token], i: usize) -> Option<&str> {
    match tokens.get(i).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn tok_punct(tokens: &[Token], i: usize, c: char) -> bool {
    tokens.get(i).map(|t| &t.tok) == Some(&Tok::Punct(c))
}

/// Scans one file for `impl` owners and `fn` items, parsing each body.
fn parse_file(rel: &str, lx: &Lexed, out: &mut Vec<FnInfo>) {
    let tokens = &lx.tokens;
    let tests = test_mod_spans(tokens);
    let krate = crate_of(rel);
    // (owner, body-close index) for enclosing impl blocks.
    let mut impls: Vec<(String, usize)> = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        impls.retain(|&(_, close)| close > i);
        match tok_ident(tokens, i) {
            Some("impl") => {
                if let Some((owner, open)) = impl_owner(tokens, i) {
                    if let Some(close) = brace_match(tokens, open) {
                        impls.push((owner, close));
                        i = open + 1;
                        continue;
                    }
                }
                i += 1;
            }
            Some("fn") => {
                let Some(name) = tok_ident(tokens, i + 1) else {
                    i += 1;
                    continue;
                };
                // The body opens at the first `{` after the signature;
                // a `;` first means a bodyless trait declaration.
                let mut k = i + 2;
                while k < tokens.len() && !tok_punct(tokens, k, '{') && !tok_punct(tokens, k, ';') {
                    k += 1;
                }
                if !tok_punct(tokens, k, '{') {
                    i = k + 1;
                    continue;
                }
                let Some(close) = brace_match(tokens, k) else {
                    i = k + 1;
                    continue;
                };
                let line = tokens[i].line;
                let returns_guard = tokens[i + 2..k]
                    .iter()
                    .any(|t| matches!(&t.tok, Tok::Ident(s) if s.ends_with("Guard")));
                let in_test = tests.iter().any(|&(a, b)| line >= a && line <= b);
                let mut info = FnInfo {
                    file: rel.to_string(),
                    name: name.to_string(),
                    krate: krate.clone(),
                    owner: impls.last().map(|(o, _)| o.clone()),
                    line,
                    in_test,
                    returns_guard,
                    acquires: Vec::new(),
                    calls: Vec::new(),
                    panics: Vec::new(),
                    allocs: Vec::new(),
                };
                parse_body(tokens, k, close, &mut info);
                out.push(info);
                i = close + 1;
            }
            _ => i += 1,
        }
    }
}

/// Owner type of an `impl` header starting at `tokens[at] == impl`,
/// with the index of the body's `{`. For `impl<G> Trait for Type`, the
/// owner is the first type ident after the (last) `for`.
fn impl_owner(tokens: &[Token], at: usize) -> Option<(String, usize)> {
    let mut angle = 0i64;
    let mut owner: Option<String> = None;
    let mut after_for = false;
    let mut j = at + 1;
    while j < tokens.len() {
        match &tokens[j].tok {
            Tok::Punct('<') => angle += 1,
            Tok::Punct('>') => angle -= 1,
            Tok::Punct('{') if angle <= 0 => {
                return owner.map(|o| (o, j));
            }
            Tok::Punct(';') => return None,
            Tok::Ident(s) if angle <= 0 => {
                if s == "for" {
                    after_for = true;
                    owner = None;
                } else if owner.is_none() || (after_for && owner.is_none()) {
                    owner = Some(s.clone());
                }
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// A lock (or synthesized guard) bound in some scope.
#[derive(Debug, Clone)]
struct Bound {
    lock: String,
    line: u32,
    binding: Option<String>,
}

fn held_snapshot(frames: &[Vec<Bound>], temps: &[Bound]) -> Vec<HeldLock> {
    frames
        .iter()
        .flatten()
        .chain(temps.iter())
        .map(|b| HeldLock {
            lock: b.lock.clone(),
            line: b.line,
        })
        .collect()
}

/// Walks a fn body `tokens[open..=close]`, tracking lexical lock scope.
fn parse_body(tokens: &[Token], open: usize, close: usize, info: &mut FnInfo) {
    let mut frames: Vec<Vec<Bound>> = vec![Vec::new()];
    let mut temps: Vec<Bound> = Vec::new();
    // Parens + brackets; `;` only ends a statement at depth 0.
    let mut depth = 0i64;
    // Current-statement shape, for guard-lifetime decisions.
    let mut let_binding: Option<String> = None;
    let mut await_binding = false;
    let mut seen_if = false;
    let mut seen_let = false;
    let mut seen_match = false;
    let mut seen_for = false;

    let mut i = open + 1;
    while i < close {
        let line = tokens[i].line;
        match &tokens[i].tok {
            Tok::Punct('(') | Tok::Punct('[') => {
                // `.lock()` / `.read()` / `.write()` were consumed by
                // the acquisition arm below; this is ordinary grouping.
                depth += 1;
                i += 1;
            }
            Tok::Punct(')') | Tok::Punct(']') => {
                depth -= 1;
                i += 1;
            }
            Tok::Punct('{') => {
                frames.push(Vec::new());
                // Scrutinee/head temporaries of `if let`, `while let`,
                // `match`, and `for` live for the attached block; plain
                // condition temporaries die here.
                let extend = (seen_let && seen_if) || seen_match || seen_for;
                let migrated = std::mem::take(&mut temps);
                if extend {
                    if let Some(frame) = frames.last_mut() {
                        frame.extend(migrated);
                    }
                }
                (seen_if, seen_let, seen_match, seen_for) = (false, false, false, false);
                let_binding = None;
                await_binding = false;
                i += 1;
            }
            Tok::Punct('}') => {
                frames.pop();
                temps.clear();
                (seen_if, seen_let, seen_match, seen_for) = (false, false, false, false);
                let_binding = None;
                await_binding = false;
                i += 1;
            }
            Tok::Punct(';') if depth == 0 => {
                temps.clear();
                (seen_if, seen_let, seen_match, seen_for) = (false, false, false, false);
                let_binding = None;
                await_binding = false;
                i += 1;
            }
            // Acquisition: `. lock ( )` with empty parens, which is
            // what tells a `RwLock::{read,write}` apart from the
            // argument-taking `io::{Read,Write}` methods.
            Tok::Punct('.')
                if matches!(tok_ident(tokens, i + 1), Some("lock" | "read" | "write"))
                    && tok_punct(tokens, i + 2, '(')
                    && tok_punct(tokens, i + 3, ')') =>
            {
                let lock = receiver_lock_id(tokens, i, open, info);
                info.acquires.push(AcquireSite {
                    lock: lock.clone(),
                    line,
                    held: held_snapshot(&frames, &temps),
                });
                let ends_initializer = tok_punct(tokens, i + 4, ';');
                let bound = Bound {
                    lock,
                    line,
                    binding: let_binding.clone(),
                };
                if let_binding.is_some() && ends_initializer {
                    if let Some(frame) = frames.last_mut() {
                        frame.push(bound);
                    }
                } else {
                    temps.push(bound);
                }
                i += 4;
            }
            Tok::Ident(s) => {
                if await_binding && s != "mut" {
                    let_binding = Some(s.clone());
                    await_binding = false;
                }
                match s.as_str() {
                    "let" => {
                        seen_let = true;
                        await_binding = true;
                    }
                    "if" | "while" => seen_if = true,
                    "match" => seen_match = true,
                    "for" => seen_for = true,
                    "drop" if tok_punct(tokens, i + 1, '(') => {
                        if let (Some(victim), true) =
                            (tok_ident(tokens, i + 2), tok_punct(tokens, i + 3, ')'))
                        {
                            let victim = victim.to_string();
                            for frame in &mut frames {
                                frame.retain(|b| b.binding.as_deref() != Some(&victim));
                            }
                            temps.retain(|b| b.binding.as_deref() != Some(&victim));
                            i += 4;
                            continue;
                        }
                    }
                    _ => {}
                }
                if PANIC_IDENTS.contains(&s.as_str()) {
                    info.panics.push((s.clone(), line));
                    i += 1;
                    continue;
                }
                if s == "to_vec" && tok_punct(tokens, i.wrapping_sub(1), '.') {
                    info.allocs.push(("to_vec()".to_string(), line));
                }
                if (s == "Vec" || s == "BytesMut")
                    && tok_punct(tokens, i + 1, ':')
                    && tok_punct(tokens, i + 2, ':')
                    && tok_ident(tokens, i + 3) == Some("new")
                {
                    info.allocs.push((format!("{s}::new()"), line));
                }
                // Call site: lowercase ident directly before `(`.
                if tok_punct(tokens, i + 1, '(')
                    && !is_keyword(s)
                    && s != "drop"
                    && !s.starts_with(|c: char| c.is_ascii_uppercase())
                {
                    let bound =
                        let_binding.is_some() && call_ends_initializer(tokens, i + 1, close);
                    info.calls.push(CallSite {
                        name: s.clone(),
                        line,
                        held: held_snapshot(&frames, &temps),
                        bound,
                    });
                    if bound && !CALL_IGNORE.contains(&s.as_str()) {
                        // The let-bound result may be a guard returned
                        // by a workspace helper. Track a
                        // `call:` pseudo-lock in proper lexical scope —
                        // including `drop(binding)` — so the rules can
                        // substitute the callee's own locks whenever
                        // every candidate returns a guard.
                        if let Some(frame) = frames.last_mut() {
                            frame.push(Bound {
                                lock: format!("call:{s}"),
                                line,
                                binding: let_binding.clone(),
                            });
                        }
                    }
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
}

/// True when the call whose argument list opens at `tokens[open]` is
/// immediately followed by the statement's `;` — the let-initializer
/// shape that keeps a returned guard alive.
fn call_ends_initializer(tokens: &[Token], open: usize, close: usize) -> bool {
    let mut depth = 0i64;
    let mut j = open;
    while j < close {
        match tokens[j].tok {
            Tok::Punct('(') => depth += 1,
            Tok::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return tok_punct(tokens, j + 1, ';');
                }
            }
            _ => {}
        }
        j += 1;
    }
    false
}

/// Finds the `(`/`[` matching the `)`/`]` at `at`, walking backwards.
fn matching_open(tokens: &[Token], at: usize) -> Option<usize> {
    let (open, shut) = match tokens.get(at).map(|t| &t.tok) {
        Some(Tok::Punct(')')) => ('(', ')'),
        Some(Tok::Punct(']')) => ('[', ']'),
        _ => return None,
    };
    let mut depth = 0i64;
    let mut j = at;
    loop {
        match tokens[j].tok {
            Tok::Punct(c) if c == shut => depth += 1,
            Tok::Punct(c) if c == open => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
        if j == 0 {
            return None;
        }
        j -= 1;
    }
}

/// Canonical lock id for the receiver of the acquisition whose `.` sits
/// at `tokens[dot]`. See the module docs for the canonicalization
/// contract.
fn receiver_lock_id(tokens: &[Token], dot: usize, fn_open: usize, info: &FnInfo) -> String {
    let mut j = dot.checked_sub(1);
    let name = loop {
        let Some(k) = j else { break None };
        match &tokens[k].tok {
            Tok::Punct(')') | Tok::Punct(']') => {
                let Some(open) = matching_open(tokens, k) else {
                    break None;
                };
                j = open.checked_sub(1);
            }
            Tok::Ident(s) => {
                if RECEIVER_PASSTHROUGH.contains(&s.as_str())
                    && tok_punct(tokens, k.wrapping_sub(1), '.')
                {
                    j = k.checked_sub(2);
                    continue;
                }
                break Some((s.clone(), k));
            }
            Tok::Punct('.') => j = k.checked_sub(1),
            _ => break None,
        }
    };
    let Some((name, at)) = name else {
        return format!("{}/{}::?", info.krate, info.name);
    };
    // Field access (`x.store.lock()`): the field names the lock.
    if tok_punct(tokens, at.wrapping_sub(1), '.') {
        return format!("{}/{}", info.krate, name);
    }
    // SCREAMING receiver: a static.
    if name
        .chars()
        .all(|c| c.is_ascii_uppercase() || c == '_' || c.is_ascii_digit())
    {
        return format!("{}/{}", info.krate, name);
    }
    // Short local receivers are usually closure or loop bindings over a
    // collection of locks; resolve through the introducing chain.
    if name.len() <= 2 {
        if let Some(alias) = alias_of(tokens, fn_open, at, &name) {
            return format!("{}/{}", info.krate, alias);
        }
        return format!("{}/{}::{}", info.krate, info.name, name);
    }
    format!("{}/{}", info.krate, name)
}

/// Resolves a short local receiver introduced by `|r|` or `for r in`
/// back to the collection field it iterates (`shards.iter().map(|s|
/// s.lock())` → `shards`).
fn alias_of(tokens: &[Token], fn_open: usize, use_at: usize, name: &str) -> Option<String> {
    let mut k = use_at;
    while k > fn_open {
        k -= 1;
        // `for <name> in <chain> {` — last chain ident names the lock
        // collection.
        if tok_ident(tokens, k) == Some("for")
            && tok_ident(tokens, k + 1) == Some(name)
            && tok_ident(tokens, k + 2) == Some("in")
        {
            let mut last = None;
            let mut j = k + 3;
            while j < use_at && !tok_punct(tokens, j, '{') {
                if let Some(id) = tok_ident(tokens, j) {
                    if id != "self" && id != "mut" {
                        last = Some(id.to_string());
                    }
                }
                j += 1;
            }
            return last;
        }
        // `|<name>|` closure parameter — walk back to the nearest
        // `<field> . iter`-shaped chain head.
        if tok_punct(tokens, k, '|')
            && tok_ident(tokens, k + 1) == Some(name)
            && tok_punct(tokens, k + 2, '|')
        {
            let floor = k.saturating_sub(16).max(fn_open);
            let mut j = k;
            while j > floor {
                j -= 1;
                if matches!(
                    tok_ident(tokens, j),
                    Some("iter" | "iter_mut" | "into_iter" | "values" | "values_mut")
                ) && tok_punct(tokens, j.wrapping_sub(1), '.')
                {
                    if let Some(field) = tok_ident(tokens, j.wrapping_sub(2)) {
                        return Some(field.to_string());
                    }
                }
            }
            return None;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn model_of(files: &[(&str, &str)]) -> Model {
        let lexed: BTreeMap<String, Lexed> = files
            .iter()
            .map(|(rel, src)| (rel.to_string(), lex(src)))
            .collect();
        Model::build(&lexed)
    }

    fn fn_named<'m>(m: &'m Model, name: &str) -> &'m FnInfo {
        m.fns.iter().find(|f| f.name == name).expect("fn in model")
    }

    #[test]
    fn fns_and_impl_owners_are_extracted() {
        let m = model_of(&[(
            "crates/proto/src/node/mod.rs",
            "pub struct Node;\nimpl Node {\n  pub fn serve(&self) { helper(); }\n}\nimpl std::fmt::Display for Node {\n  fn fmt(&self) {}\n}\nfn helper() {}\n",
        )]);
        assert_eq!(m.fns.len(), 3);
        assert_eq!(fn_named(&m, "serve").owner.as_deref(), Some("Node"));
        assert_eq!(fn_named(&m, "fmt").owner.as_deref(), Some("Node"));
        assert_eq!(fn_named(&m, "helper").owner, None);
        assert_eq!(fn_named(&m, "serve").calls[0].name, "helper");
    }

    #[test]
    fn calls_resolve_by_name_but_not_ignored_or_ambiguous() {
        let m = model_of(&[
            (
                "crates/proto/src/a.rs",
                "pub fn entry() { helper(); x.insert(1); }\npub fn helper() {}\n",
            ),
            ("crates/cache/src/b.rs", "pub fn insert() {}\n"),
        ]);
        assert_eq!(m.resolve("helper").len(), 1);
        assert!(m.resolve("insert").is_empty(), "`insert` is on CALL_IGNORE");
        assert!(m.resolve("missing").is_empty());
    }

    #[test]
    fn test_mod_fns_are_excluded_from_resolution() {
        let m = model_of(&[(
            "crates/proto/src/a.rs",
            "pub fn live() {}\n#[cfg(test)]\nmod tests {\n  fn live() {}\n  fn t() {}\n}\n",
        )]);
        assert_eq!(m.resolve("live").len(), 1);
        assert!(m.resolve("t").is_empty());
    }

    #[test]
    fn receiver_shapes_canonicalize() {
        let src = r#"
pub struct S;
impl S {
    fn a(&self) { self.store.lock().put(1); }
    fn b(&self) { self.shards[self.idx(k)].lock().touch(); }
    fn c(&self) { GLOBAL_TABLE.lock().bump(); }
    fn d(&self) { self.hintlog.as_ref().unwrap().lock().sync_marker(); }
    fn e(&self) { let n: usize = self.shards.iter().map(|s| s.lock().len2()).sum(); }
    fn f(&self) { for s in &self.shards { s.lock().purge(); } }
}
"#;
        let m = model_of(&[("crates/proto/src/node/mod.rs", src)]);
        let lock_of = |f: &str| fn_named(&m, f).acquires[0].lock.clone();
        assert_eq!(lock_of("a"), "proto/store");
        assert_eq!(lock_of("b"), "proto/shards");
        assert_eq!(lock_of("c"), "proto/GLOBAL_TABLE");
        assert_eq!(lock_of("d"), "proto/hintlog");
        assert_eq!(lock_of("e"), "proto/shards");
        assert_eq!(lock_of("f"), "proto/shards");
    }

    #[test]
    fn guard_scopes_follow_let_temp_and_drop() {
        let src = r#"
fn bound_then_nested(inner: &Inner) {
    let store = inner.store.lock();
    inner.pending.lock().push(1);
}
fn temp_dies_at_semi(inner: &Inner) {
    let batch = std::mem::take(&mut *inner.pending.lock()).into();
    let store = inner.store.lock();
}
fn dropped_before(inner: &Inner) {
    let store = inner.store.lock();
    drop(store);
    inner.pending.lock().push(1);
}
fn plain_if_condition_releases(inner: &Inner) {
    if inner.liveness.lock().ok() {
        inner.parent.lock().take();
    }
}
fn if_let_scrutinee_extends(inner: &Inner) {
    if let Some(p) = inner.parent.lock().peek() {
        inner.children.lock().push(p);
    }
}
"#;
        let m = model_of(&[("crates/proto/src/node/mod.rs", src)]);
        let held = |f: &str, i: usize| {
            fn_named(&m, f).acquires[i]
                .held
                .iter()
                .map(|h| h.lock.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(held("bound_then_nested", 1), ["proto/store"]);
        assert!(held("temp_dies_at_semi", 1).is_empty());
        assert!(held("dropped_before", 1).is_empty());
        assert!(held("plain_if_condition_releases", 1).is_empty());
        assert_eq!(held("if_let_scrutinee_extends", 1), ["proto/parent"]);
    }

    #[test]
    fn held_locks_reach_call_sites() {
        let src = "fn f(inner: &Inner) {\n  let store = inner.store.lock();\n  stage(inner);\n}\nfn stage(inner: &Inner) {}\n";
        let m = model_of(&[("crates/proto/src/node/mod.rs", src)]);
        let call = &fn_named(&m, "f").calls[0];
        assert_eq!(call.name, "stage");
        assert_eq!(call.held.len(), 1);
        assert_eq!(call.held[0].lock, "proto/store");
    }

    #[test]
    fn guard_returning_signature_and_bound_calls() {
        let src = "impl Store {\n  pub fn locked(&self) -> MutexGuard<'_, Table> {\n    self.table.lock()\n  }\n}\nfn user(st: &Store) {\n  let g = st.locked();\n  let n = st.locked().len2();\n}\n";
        let m = model_of(&[("crates/proto/src/node/mod.rs", src)]);
        assert!(fn_named(&m, "locked").returns_guard);
        let user = fn_named(&m, "user");
        let bound: Vec<bool> = user
            .calls
            .iter()
            .filter(|c| c.name == "locked")
            .map(|c| c.bound)
            .collect();
        assert_eq!(bound, [true, false]);
    }

    #[test]
    fn bound_guard_returning_calls_become_pseudo_locks() {
        let src = "fn user(st: &Store, inner: &Inner) {\n  let g = st.locked();\n  inner.pending.lock().push(1);\n  drop(g);\n  inner.store.lock().put(1);\n}\n";
        let m = model_of(&[("crates/proto/src/node/mod.rs", src)]);
        let user = fn_named(&m, "user");
        let held = |i: usize| {
            user.acquires[i]
                .held
                .iter()
                .map(|h| h.lock.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(held(0), ["call:locked"]);
        assert!(held(1).is_empty(), "drop(g) releases the pseudo-guard");
    }

    #[test]
    fn panic_and_alloc_sites_are_recorded() {
        let src = "fn f(x: Option<u8>) -> Vec<u8> {\n  let v = Vec::new();\n  let b = data.to_vec();\n  x.unwrap();\n  v\n}\n";
        let m = model_of(&[("crates/proto/src/a.rs", src)]);
        let f = fn_named(&m, "f");
        assert_eq!(f.panics, [("unwrap".to_string(), 4)]);
        let what: Vec<&str> = f.allocs.iter().map(|(w, _)| w.as_str()).collect();
        assert_eq!(what, ["Vec::new()", "to_vec()"]);
    }

    #[test]
    fn non_src_files_stay_out_of_the_model() {
        let m = model_of(&[
            ("crates/proto/tests/integration.rs", "fn t() {}\n"),
            ("tests/differential.rs", "fn d() {}\n"),
        ]);
        assert!(m.fns.is_empty());
    }
}
