//! Comment- and string-aware token scanner for Rust sources.
//!
//! This is deliberately *not* a full lexer. The rules in [`crate::rules`]
//! only need four things a `grep` cannot give them reliably:
//!
//! 1. identifiers and punctuation with **no false matches inside string
//!    literals or comments** (`"thread_rng"` in a diagnostic message is
//!    not a violation; `// Instant::now` in prose is not a violation),
//! 2. accurate 1-based line numbers for diagnostics,
//! 3. the text of comments, so `lint:allow(...)` directives can be read,
//! 4. which tokens sit inside a `#[cfg(test)] mod` block (test code is
//!    exempt from every rule, mirroring clippy's `allow-unwrap-in-tests`).
//!
//! The scanner therefore understands line/block comments (nested), plain
//! and raw string literals (`r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`), char
//! literals vs. lifetimes (which get their own token kind), and numeric
//! literals — just enough to never mis-tokenize real Rust from this
//! workspace.

/// The coarse token classes the rule engine distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`unwrap`, `HashMap`, `mod`, …).
    Ident,
    /// A single punctuation character (`.`, `[`, `!`, …).
    Punct,
    /// String / char / numeric literal (content never inspected by rules).
    Literal,
    /// Lifetime or loop label, quote included (`'a`, `'static`,
    /// `'outer`). Its own kind so that `&'a [T]` never reads as an
    /// identifier followed by an index expression.
    Lifetime,
    /// `// …` comment, text preserved for `lint:allow` parsing.
    LineComment,
    /// `/* … */` comment (possibly nested), text preserved.
    BlockComment,
}

/// One scanned token.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
}

impl Tok {
    /// `true` for tokens the rule engine matches on (non-comments).
    pub fn is_code(&self) -> bool {
        !matches!(self.kind, TokKind::LineComment | TokKind::BlockComment)
    }

    /// `true` when this is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }

    /// `true` when this is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokKind::Ident && self.text == name
    }
}

/// Scans `src` into tokens. Never fails: unrecognized bytes become
/// single-character punctuation, which at worst makes a rule miss — the
/// auditor must not crash on any input file.
pub fn scan(src: &str) -> Vec<Tok> {
    let chars: Vec<char> = src.chars().collect();
    let n = chars.len();
    let mut toks = Vec::new();
    let mut line: u32 = 1;
    let mut i = 0usize;

    while i < n {
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
        // Line comment.
        if c == '/' && i + 1 < n && chars[i + 1] == '/' {
            let start = i;
            while i < n && chars[i] != '\n' {
                i += 1;
            }
            toks.push(Tok {
                kind: TokKind::LineComment,
                text: chars[start..i].iter().collect(),
                line,
            });
            continue;
        }
        // Block comment (Rust block comments nest).
        if c == '/' && i + 1 < n && chars[i + 1] == '*' {
            let start = i;
            let start_line = line;
            let mut depth = 1usize;
            i += 2;
            while i < n && depth > 0 {
                if chars[i] == '\n' {
                    line += 1;
                    i += 1;
                } else if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                    depth += 1;
                    i += 2;
                } else if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            toks.push(Tok {
                kind: TokKind::BlockComment,
                text: chars[start..i].iter().collect(),
                line: start_line,
            });
            continue;
        }
        // Plain (or byte, via the stray `b` ident) string literal.
        if c == '"' {
            let start_line = line;
            i = consume_string(&chars, i, &mut line);
            toks.push(Tok {
                kind: TokKind::Literal,
                text: "\"…\"".into(),
                line: start_line,
            });
            continue;
        }
        // Char literal or lifetime.
        if c == '\'' {
            if is_char_literal(&chars, i) {
                i = consume_char_literal(&chars, i);
                toks.push(Tok {
                    kind: TokKind::Literal,
                    text: "'…'".into(),
                    line,
                });
            } else {
                let start = i;
                i += 1;
                while i < n && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Lifetime,
                    text: chars[start..i].iter().collect(),
                    line,
                });
            }
            continue;
        }
        // Numeric literal.
        if c.is_ascii_digit() {
            let start = i;
            i = consume_number(&chars, i);
            toks.push(Tok {
                kind: TokKind::Literal,
                text: chars[start..i].iter().collect(),
                line,
            });
            continue;
        }
        // Identifier — with raw-string lookahead for `r"…"` / `br#"…"#`.
        if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < n && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            let ident: String = chars[start..i].iter().collect();
            if (ident == "r" || ident == "br") && i < n && (chars[i] == '"' || chars[i] == '#') {
                // Capture the line *before* consuming: a multi-line raw
                // string must report its opening line, like plain strings.
                let start_line = line;
                if let Some(end) = raw_string_end(&chars, i, &mut line) {
                    toks.push(Tok {
                        kind: TokKind::Literal,
                        text: "r\"…\"".into(),
                        line: start_line,
                    });
                    i = end;
                    continue;
                }
            }
            toks.push(Tok {
                kind: TokKind::Ident,
                text: ident,
                line,
            });
            continue;
        }
        // Anything else: single-character punctuation.
        toks.push(Tok {
            kind: TokKind::Punct,
            text: c.to_string(),
            line,
        });
        i += 1;
    }
    toks
}

/// Consumes a `"…"` literal starting at the opening quote; returns the
/// index past the closing quote and advances `line` over embedded newlines.
fn consume_string(chars: &[char], open: usize, line: &mut u32) -> usize {
    let n = chars.len();
    let mut i = open + 1;
    while i < n {
        match chars[i] {
            '\\' => i += 2,
            '"' => return i + 1,
            '\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    n
}

/// `'` at `i` starts a char literal (vs. a lifetime) when the quoted
/// content is an escape, or a single char closed by another `'`.
fn is_char_literal(chars: &[char], i: usize) -> bool {
    match chars.get(i + 1) {
        Some('\\') => true,
        Some(c) if c.is_alphanumeric() || *c == '_' => chars.get(i + 2) == Some(&'\''),
        Some(_) => true, // punctuation chars like '(' are always literals
        None => false,
    }
}

/// Consumes a char literal starting at the opening quote.
fn consume_char_literal(chars: &[char], open: usize) -> usize {
    let n = chars.len();
    let mut i = open + 1;
    while i < n {
        match chars[i] {
            '\\' => i += 2,
            '\'' => return i + 1,
            _ => i += 1,
        }
    }
    n
}

/// Consumes a numeric literal (`0x1f`, `1_000`, `1.5e-3`, `2.0f64`) but
/// stops before `.method` so `0.unwrap()`-style token streams still
/// surface the method identifier.
fn consume_number(chars: &[char], start: usize) -> usize {
    let n = chars.len();
    let mut i = start;
    while i < n {
        let c = chars[i];
        let continues_number = c.is_ascii_alphanumeric()
            || c == '_'
            || (c == '.' && chars.get(i + 1).is_some_and(|d| d.is_ascii_digit()))
            || ((c == '+' || c == '-')
                && i > start
                && matches!(chars[i - 1], 'e' | 'E')
                && chars.get(i + 1).is_some_and(|d| d.is_ascii_digit()));
        if continues_number {
            i += 1;
        } else {
            break;
        }
    }
    i
}

/// From `i` at `"` or `#` after an `r`/`br` prefix: if a raw string starts
/// here, consume it (advancing `line`) and return the end index.
fn raw_string_end(chars: &[char], i: usize, line: &mut u32) -> Option<usize> {
    let n = chars.len();
    let mut hashes = 0usize;
    let mut j = i;
    while j < n && chars[j] == '#' {
        hashes += 1;
        j += 1;
    }
    if j >= n || chars[j] != '"' {
        return None; // raw identifier (`r#try`) or stray `#`
    }
    j += 1;
    while j < n {
        if chars[j] == '\n' {
            *line += 1;
            j += 1;
            continue;
        }
        if chars[j] == '"' {
            let tail = &chars[j + 1..];
            if tail.len() >= hashes && tail[..hashes].iter().all(|&c| c == '#') {
                return Some(j + 1 + hashes);
            }
        }
        j += 1;
    }
    Some(n)
}

/// Marks every token inside a `#[cfg(test)] mod … { … }` block.
///
/// Test code is exempt from all rules: determinism and panic-surface
/// invariants protect *shipped* results, and tests legitimately use
/// `unwrap`, `HashMap` hashability checks, etc. The recognized shape is
/// the workspace idiom — `#[cfg(test)]`, optional further attributes,
/// optional `pub`, then `mod name { … }`.
pub fn test_block_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let code: Vec<usize> = (0..toks.len()).filter(|&k| toks[k].is_code()).collect();
    let t = |ci: usize| -> &Tok { &toks[code[ci]] };

    let mut ci = 0usize;
    while ci + 6 < code.len() {
        let is_cfg_test = t(ci).is_punct('#')
            && t(ci + 1).is_punct('[')
            && t(ci + 2).is_ident("cfg")
            && t(ci + 3).is_punct('(')
            && t(ci + 4).is_ident("test")
            && t(ci + 5).is_punct(')')
            && t(ci + 6).is_punct(']');
        if !is_cfg_test {
            ci += 1;
            continue;
        }
        let attr_start = code[ci];
        let mut cj = ci + 7;
        // Skip any further attributes between the cfg and the item.
        while cj + 1 < code.len() && t(cj).is_punct('#') && t(cj + 1).is_punct('[') {
            let mut depth = 0usize;
            cj += 1;
            while cj < code.len() {
                if t(cj).is_punct('[') {
                    depth += 1;
                } else if t(cj).is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        cj += 1;
                        break;
                    }
                }
                cj += 1;
            }
        }
        if cj < code.len() && t(cj).is_ident("pub") {
            cj += 1;
            if cj < code.len() && t(cj).is_punct('(') {
                // `pub(crate)` and friends.
                while cj < code.len() && !t(cj).is_punct(')') {
                    cj += 1;
                }
                cj += 1;
            }
        }
        if !(cj + 2 < code.len() && t(cj).is_ident("mod") && t(cj + 2).is_punct('{')) {
            ci += 1; // cfg(test) on something other than an inline mod
            continue;
        }
        // Mask from the `#` through the matching close brace.
        let mut depth = 0usize;
        let mut ck = cj + 2;
        while ck < code.len() {
            if t(ck).is_punct('{') {
                depth += 1;
            } else if t(ck).is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            ck += 1;
        }
        let end = if ck < code.len() {
            code[ck]
        } else {
            toks.len() - 1
        };
        for slot in mask.iter_mut().take(end + 1).skip(attr_start) {
            *slot = true;
        }
        ci = ck.min(code.len());
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        scan(src)
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_identifiers() {
        let src = r##"
            // thread_rng in prose
            /* Instant::now in a block */
            let s = "thread_rng";
            let r = r#"SystemTime::now"#;
            let real = thread_rng();
        "##;
        let ids = idents(src);
        assert_eq!(
            ids.iter().filter(|s| *s == "thread_rng").count(),
            1,
            "only the code mention survives: {ids:?}"
        );
        assert!(!ids.contains(&"SystemTime".to_string()));
        assert!(!ids.contains(&"Instant".to_string()));
    }

    #[test]
    fn line_numbers_survive_multiline_strings() {
        let src = "let a = \"x\ny\nz\";\nlet b = 1;\n";
        let toks = scan(src);
        let b = toks.iter().find(|t| t.is_ident("b")).unwrap();
        assert_eq!(b.line, 4);
    }

    #[test]
    fn nested_raw_strings_mask_content_and_keep_lines() {
        // `r##"…"##` may contain `"#` without terminating; everything
        // inside is literal, and tokens after it land on the right line.
        let src = "let a = r##\"\nthread_rng() \"# not the end\n\"##;\nlet after = thread_rng();\n";
        let toks = scan(src);
        let raw: Vec<&Tok> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Literal && t.text == "r\"…\"")
            .collect();
        assert_eq!(raw.len(), 1, "{toks:?}");
        assert_eq!(raw[0].line, 1, "raw string reports its opening line");
        let rng: Vec<u32> = toks
            .iter()
            .filter(|t| t.is_ident("thread_rng"))
            .map(|t| t.line)
            .collect();
        assert_eq!(rng, vec![4], "only the code mention, on the right line");
    }

    #[test]
    fn raw_identifiers_are_not_raw_strings() {
        let toks = scan("let r#type = 1; let x = r#\"lit\"#;");
        assert!(toks.iter().any(|t| t.is_ident("type")));
        assert_eq!(
            toks.iter()
                .filter(|t| t.kind == TokKind::Literal && t.text == "r\"…\"")
                .count(),
            1
        );
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> char { 'x' }";
        let toks = scan(src);
        assert_eq!(
            toks.iter()
                .filter(|t| t.kind == TokKind::Literal && t.text == "'…'")
                .count(),
            1
        );
        assert!(toks.iter().any(|t| t.is_ident("str")));
        let lifetimes: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lifetimes, vec!["'a", "'a"]);
        assert!(!toks.iter().any(|t| t.is_ident("a")));
    }

    #[test]
    fn labels_and_static_are_lifetimes() {
        let toks = scan("'outer: loop { break 'outer; } let s: &'static str = \"\";");
        let lifetimes: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lifetimes, vec!["'outer", "'outer", "'static"]);
        assert!(!toks.iter().any(|t| t.is_ident("static")));
    }

    #[test]
    fn escaped_char_literals() {
        let toks = scan(r"let c = '\''; let d = '\n'; let done = 1;");
        assert!(toks.iter().any(|t| t.is_ident("done")));
    }

    #[test]
    fn nested_block_comments() {
        let toks = scan("/* outer /* inner */ still comment */ real");
        assert_eq!(toks.iter().filter(|t| t.is_code()).count(), 1);
        assert!(toks[1].is_ident("real"));
    }

    #[test]
    fn tuple_field_then_method_is_tokenized() {
        let toks = scan("x.0.unwrap()");
        assert!(toks.iter().any(|t| t.is_ident("unwrap")));
    }

    #[test]
    fn cfg_test_mod_is_masked() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n  fn t() { v.unwrap(); }\n}\nfn tail() { x.unwrap(); }\n";
        let toks = scan(src);
        let mask = test_block_mask(&toks);
        let unwraps: Vec<bool> = toks
            .iter()
            .zip(&mask)
            .filter(|(t, _)| t.is_ident("unwrap"))
            .map(|(_, &m)| m)
            .collect();
        assert_eq!(unwraps, vec![true, false]);
    }

    #[test]
    fn cfg_test_with_extra_attr_and_pub() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\npub mod tests { fn t() { p.unwrap(); } }\nfn f() {}";
        let toks = scan(src);
        let mask = test_block_mask(&toks);
        let uw = toks.iter().position(|t| t.is_ident("unwrap")).unwrap();
        assert!(mask[uw]);
        let f = toks.iter().position(|t| t.is_ident("f")).unwrap();
        assert!(!mask[f]);
    }
}
