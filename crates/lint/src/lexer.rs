//! A minimal Rust lexer: just enough to produce an ident/punct/literal
//! token stream with 1-based line numbers, plus `bh-lint:` allow
//! directives harvested from line comments.
//!
//! This is deliberately not a full parser. The rules in this crate only
//! need to see identifiers (with their lines), a handful of punctuation
//! shapes (`::`, `#[...]`, braces), and to *not* be fooled by comments,
//! strings, raw strings, char literals, or lifetimes. Everything else
//! is consumed loosely.

/// Kind of a lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// An identifier or keyword.
    Ident(String),
    /// A single punctuation character.
    Punct(char),
    /// A plain `"..."` string literal, with its source contents (escape
    /// sequences kept verbatim).
    Str(String),
    /// Any other literal (raw/byte string, char, number); contents are
    /// not inspected by any rule.
    Lit,
}

/// One token with the 1-based source line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token itself.
    pub tok: Tok,
    /// 1-based line number where the token starts.
    pub line: u32,
}

/// A parsed `// bh-lint: allow(<rule>, reason = "...")` directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// Line the directive comment sits on. The directive covers this
    /// line and the one immediately after it.
    pub line: u32,
    /// Rule name inside `allow(...)`.
    pub rule: String,
    /// The quoted reason, if one was written.
    pub reason: Option<String>,
}

/// A comment that started with `bh-lint:` but did not parse as a
/// well-formed allow directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Malformed {
    /// Line of the broken directive.
    pub line: u32,
    /// Human-readable description of what failed to parse.
    pub detail: String,
}

/// The full output of lexing one file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Token stream in source order.
    pub tokens: Vec<Token>,
    /// Well-formed allow directives, in source order.
    pub allows: Vec<Allow>,
    /// Broken `bh-lint:` directives, in source order.
    pub malformed: Vec<Malformed>,
}

/// Lexes `src` into tokens and allow directives.
pub fn lex(src: &str) -> Lexed {
    let chars: Vec<char> = src.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comment (including doc comments): harvest directives.
        if c == '/' && chars.get(i + 1) == Some(&'/') {
            let start = i + 2;
            let mut j = start;
            while j < chars.len() && chars[j] != '\n' {
                j += 1;
            }
            let text: String = chars[start..j].iter().collect();
            harvest_directive(&text, line, &mut out);
            i = j;
            continue;
        }
        // Block comment, nested per Rust rules.
        if c == '/' && chars.get(i + 1) == Some(&'*') {
            let mut depth = 1u32;
            let mut j = i + 2;
            while j < chars.len() && depth > 0 {
                if chars[j] == '\n' {
                    line += 1;
                    j += 1;
                } else if chars[j] == '/' && chars.get(j + 1) == Some(&'*') {
                    depth += 1;
                    j += 2;
                } else if chars[j] == '*' && chars.get(j + 1) == Some(&'/') {
                    depth -= 1;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            i = j;
            continue;
        }
        // Raw strings (r"..", r#".."#), byte strings (b"..", br".."),
        // and byte chars (b'x'). Plain idents starting with r/b fall
        // through to the ident arm below.
        if c == 'r' || c == 'b' {
            let mut j = i + 1;
            let mut raw = c == 'r';
            if c == 'b' && chars.get(j) == Some(&'r') {
                raw = true;
                j += 1;
            }
            let mut hashes = 0usize;
            let mut k = j;
            while chars.get(k) == Some(&'#') {
                hashes += 1;
                k += 1;
            }
            if raw && chars.get(k) == Some(&'"') {
                let tline = line;
                let mut m = k + 1;
                while m < chars.len() {
                    if chars[m] == '\n' {
                        line += 1;
                        m += 1;
                        continue;
                    }
                    if chars[m] == '"' {
                        let mut h = 0usize;
                        while h < hashes && chars.get(m + 1 + h) == Some(&'#') {
                            h += 1;
                        }
                        if h == hashes {
                            m += 1 + h;
                            break;
                        }
                    }
                    m += 1;
                }
                out.tokens.push(Token {
                    tok: Tok::Lit,
                    line: tline,
                });
                i = m;
                continue;
            }
            if c == 'b' && hashes == 0 && j == i + 1 {
                if let Some(&q) = chars.get(j) {
                    if q == '"' || q == '\'' {
                        let tline = line;
                        let mut m = j + 1;
                        while m < chars.len() {
                            if chars[m] == '\\' {
                                m += 2;
                                continue;
                            }
                            if chars[m] == '\n' {
                                line += 1;
                                m += 1;
                                continue;
                            }
                            if chars[m] == q {
                                m += 1;
                                break;
                            }
                            m += 1;
                        }
                        out.tokens.push(Token {
                            tok: Tok::Lit,
                            line: tline,
                        });
                        i = m;
                        continue;
                    }
                }
            }
            // Not a string prefix after all: fall through to ident.
        }
        // Lifetime vs char literal: after `'`, an alphabetic/underscore
        // char whose successor is not another `'` is a lifetime.
        if c == '\'' {
            let next = chars.get(i + 1).copied();
            let after = chars.get(i + 2).copied();
            let is_lifetime =
                matches!(next, Some(ch) if ch.is_alphabetic() || ch == '_') && after != Some('\'');
            if is_lifetime {
                let mut j = i + 1;
                while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
                    j += 1;
                }
                i = j;
                continue;
            }
            let tline = line;
            let mut j = i + 1;
            while j < chars.len() {
                if chars[j] == '\\' {
                    j += 2;
                    continue;
                }
                if chars[j] == '\n' {
                    line += 1;
                }
                if chars[j] == '\'' {
                    j += 1;
                    break;
                }
                j += 1;
            }
            out.tokens.push(Token {
                tok: Tok::Lit,
                line: tline,
            });
            i = j;
            continue;
        }
        // Plain string literal: captured with contents so rules can
        // match registered metric names.
        if c == '"' {
            let tline = line;
            let mut s = String::new();
            let mut j = i + 1;
            while j < chars.len() {
                if chars[j] == '\\' {
                    s.push(chars[j]);
                    if let Some(&esc) = chars.get(j + 1) {
                        s.push(esc);
                    }
                    j += 2;
                    continue;
                }
                if chars[j] == '\n' {
                    line += 1;
                    s.push('\n');
                    j += 1;
                    continue;
                }
                if chars[j] == '"' {
                    j += 1;
                    break;
                }
                s.push(chars[j]);
                j += 1;
            }
            out.tokens.push(Token {
                tok: Tok::Str(s),
                line: tline,
            });
            i = j;
            continue;
        }
        // Numbers, consumed loosely (swallowing `1.0e3`, `0xFF`, and
        // harmlessly the dots of `0..n`).
        if c.is_ascii_digit() {
            let tline = line;
            let mut j = i + 1;
            while j < chars.len()
                && (chars[j].is_ascii_alphanumeric() || chars[j] == '_' || chars[j] == '.')
            {
                j += 1;
            }
            out.tokens.push(Token {
                tok: Tok::Lit,
                line: tline,
            });
            i = j;
            continue;
        }
        // Identifier / keyword.
        if c.is_alphabetic() || c == '_' {
            let tline = line;
            let mut s = String::new();
            let mut j = i;
            while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
                s.push(chars[j]);
                j += 1;
            }
            out.tokens.push(Token {
                tok: Tok::Ident(s),
                line: tline,
            });
            i = j;
            continue;
        }
        out.tokens.push(Token {
            tok: Tok::Punct(c),
            line,
        });
        i += 1;
    }
    out
}

/// Parses a line-comment body for a `bh-lint:` directive.
fn harvest_directive(text: &str, line: u32, out: &mut Lexed) {
    // Doc comments arrive as `/ ...` or `! ...`; strip the markers.
    let t = text.trim_start_matches(['/', '!']).trim();
    let Some(rest) = t.strip_prefix("bh-lint:") else {
        return;
    };
    match parse_allow(rest.trim()) {
        Ok((rule, reason)) => out.allows.push(Allow { line, rule, reason }),
        Err(detail) => out.malformed.push(Malformed { line, detail }),
    }
}

/// Parses `allow(<rule>, reason = "...")`, returning the rule name and
/// optional reason.
fn parse_allow(s: &str) -> Result<(String, Option<String>), String> {
    let Some(rest) = s.strip_prefix("allow(") else {
        return Err("expected `allow(<rule>, reason = \"...\")`".into());
    };
    let Some(body) = rest.strip_suffix(')') else {
        return Err("missing closing `)`".into());
    };
    let (rule, reason_part) = match body.split_once(',') {
        Some((r, rest)) => (r.trim(), Some(rest.trim())),
        None => (body.trim(), None),
    };
    if rule.is_empty()
        || !rule
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
    {
        return Err(format!("bad rule name `{rule}`"));
    }
    let reason = match reason_part {
        None => None,
        Some(r) => {
            let Some(r) = r.strip_prefix("reason") else {
                return Err("expected `reason = \"...\"` after the rule name".into());
            };
            let r = r.trim_start();
            let Some(r) = r.strip_prefix('=') else {
                return Err("expected `=` after `reason`".into());
            };
            let r = r.trim();
            let Some(r) = r.strip_prefix('"').and_then(|r| r.strip_suffix('"')) else {
                return Err("reason must be a double-quoted string".into());
            };
            Some(r.to_string())
        }
    };
    Ok((rule.to_string(), reason))
}

/// Finds the token index of the `}` matching the `{` at `open`, if any.
pub fn brace_match(tokens: &[Token], open: usize) -> Option<usize> {
    if tokens.get(open)?.tok != Tok::Punct('{') {
        return None;
    }
    let mut depth = 0i64;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        match t.tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
    }
    None
}

/// True when `tokens[i..]` starts with the `#[cfg(test)]` attribute.
fn is_cfg_test(tokens: &[Token], i: usize) -> bool {
    let want: [Tok; 7] = [
        Tok::Punct('#'),
        Tok::Punct('['),
        Tok::Ident("cfg".into()),
        Tok::Punct('('),
        Tok::Ident("test".into()),
        Tok::Punct(')'),
        Tok::Punct(']'),
    ];
    tokens.len() >= i + want.len()
        && want
            .iter()
            .enumerate()
            .all(|(k, w)| &tokens[i + k].tok == w)
}

/// Inclusive line spans of `#[cfg(test)] mod ... { ... }` blocks, used
/// by rules that only apply to non-test code.
pub fn test_mod_spans(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if is_cfg_test(tokens, i) {
            // Look for a `mod` keyword shortly after the attribute
            // (other attributes may sit between).
            let mut j = i + 7;
            let mut found = None;
            while j < tokens.len() && j < i + 24 {
                if let Tok::Ident(s) = &tokens[j].tok {
                    if s == "mod" {
                        found = Some(j);
                        break;
                    }
                }
                j += 1;
            }
            if let Some(m) = found {
                let mut k = m;
                while k < tokens.len() && tokens[k].tok != Tok::Punct('{') {
                    k += 1;
                }
                if let Some(end) = brace_match(tokens, k) {
                    spans.push((tokens[i].line, tokens[end].line));
                    i = end + 1;
                    continue;
                }
            }
        }
        i += 1;
    }
    spans
}

/// Token index range `(open_brace, close_brace)` of the body of
/// `<kw> <name> { ... }` (e.g. `enum Message`, `struct NodeStats`,
/// `fn encode`).
pub fn item_body(tokens: &[Token], kw: &str, name: &str) -> Option<(usize, usize)> {
    for i in 0..tokens.len().saturating_sub(1) {
        if let (Tok::Ident(a), Tok::Ident(b)) = (&tokens[i].tok, &tokens[i + 1].tok) {
            if a == kw && b == name {
                let mut k = i + 2;
                while k < tokens.len() && tokens[k].tok != Tok::Punct('{') {
                    if tokens[k].tok == Tok::Punct(';') {
                        return None;
                    }
                    k += 1;
                }
                let end = brace_match(tokens, k)?;
                return Some((k, end));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn comments_strings_and_lifetimes_hide_idents() {
        let src = r##"
// Instant::now in a comment
/* HashMap in /* nested */ block */
fn f<'a>(x: &'a str) -> char {
    let _s = "Instant::now inside a string";
    let _r = r#"HashMap "quoted" raw"#;
    let _b = b"bytes";
    let _c = 'x';
    let _e = '\'';
    unwrap_me
}
"##;
        let ids = idents(src);
        assert!(ids.contains(&"unwrap_me".to_string()));
        assert!(!ids.contains(&"Instant".to_string()));
        assert!(!ids.contains(&"HashMap".to_string()));
        assert!(!ids.contains(&"a".to_string()), "lifetime leaked: {ids:?}");
    }

    #[test]
    fn plain_strings_capture_contents_raw_strings_do_not() {
        let src =
            "let a = \"local_hits\";\nlet b = r#\"raw stays opaque\"#;\nlet c = \"esc\\\"aped\";\n";
        let out = lex(src);
        let strs: Vec<&str> = out
            .tokens
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Str(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(strs, ["local_hits", "esc\\\"aped"]);
        assert!(
            out.tokens.iter().any(|t| t.tok == Tok::Lit),
            "raw string should be Lit"
        );
    }

    #[test]
    fn allow_directives_parse_with_and_without_reason() {
        let src = "\n// bh-lint: allow(no-wall-clock, reason = \"throughput timing\")\n// bh-lint: allow(no-ambient-rng)\n// bh-lint: allow(broken\n";
        let out = lex(src);
        assert_eq!(out.allows.len(), 2);
        assert_eq!(out.allows[0].line, 2);
        assert_eq!(out.allows[0].rule, "no-wall-clock");
        assert_eq!(out.allows[0].reason.as_deref(), Some("throughput timing"));
        assert_eq!(out.allows[1].reason, None);
        assert_eq!(out.malformed.len(), 1);
        assert_eq!(out.malformed[0].line, 4);
    }

    #[test]
    fn test_mod_spans_cover_cfg_test_blocks() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\nfn c() {}\n";
        let out = lex(src);
        assert_eq!(test_mod_spans(&out.tokens), vec![(2, 5)]);
    }

    #[test]
    fn item_body_finds_enum_span() {
        let src = "enum E {\n  A,\n  B { x: u8 },\n}\nfn f() {}\n";
        let out = lex(src);
        let (open, close) = item_body(&out.tokens, "enum", "E").expect("span");
        assert_eq!(out.tokens[open].line, 1);
        assert_eq!(out.tokens[close].line, 4);
    }
}
