//! The ten repo-specific rules clippy cannot express.
//!
//! | id | invariant it protects |
//! |----|----------------------|
//! | D1 | no entropy-seeded RNG construction — every random stream must be seed-reproducible |
//! | D2 | no wall-clock reads in crates whose artifacts are hashed by the chaos gate |
//! | D3 | no `HashMap`/`HashSet` in result-producing modules — hash-order must never reach output |
//! | D4 | no `unwrap`/`expect`/`panic!`-family/slice-indexing in quarantine-protected ingest code |
//! | D5 | no `println!`/`eprintln!`/`dbg!` in library crates |
//! | D6 | no direct `File::create`/`fs::write` in artifact-producing crates — artifacts go through epc-journal's atomic writers |
//! | D7 | no *transitive* panic reachability from the ingest entry points (call-graph closure of D4) |
//! | D8 | no *transitive* wall-clock reach from chaos-hashed artifact code (call-graph closure of D2) |
//! | D9 | no *transitive* OS-entropy RNG reach from result-producing code (call-graph closure of D1) |
//! | D10 | no `unsafe` outside the one module `lint.toml` exempts (the SHA-NI hasher) |
//!
//! D1–D6 and D10 are *line rules*: they run over a single file's token
//! stream here; for D1–D6, tokens inside `#[cfg(test)] mod` blocks are
//! exempt (see [`crate::scanner::test_block_mask`]). D7–D9 are *graph rules*: they
//! share this module's primitive matchers ([`entropy_sites`],
//! [`clock_sites`], [`panic_sites`]) as taint sources but propagate them
//! over the whole-workspace call graph built in [`crate::graph`]. *Where*
//! each rule applies is not decided here — `lint.toml` scopes each rule to
//! path globs (see [`crate::config`]).

use crate::scanner::{Tok, TokKind};

/// Every rule id, in severity-neutral display order.
pub const RULE_IDS: [&str; 10] = ["D1", "D2", "D3", "D4", "D5", "D6", "D7", "D8", "D9", "D10"];

/// The per-file line rules (phase 1).
pub const LINE_RULE_IDS: [&str; 7] = ["D1", "D2", "D3", "D4", "D5", "D6", "D10"];

/// The whole-workspace call-graph rules (phase 2, see [`crate::graph`]).
pub const GRAPH_RULE_IDS: [&str; 3] = ["D7", "D8", "D9"];

/// One rule hit inside a single file (path attached by the driver).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule id (`"D1"`…`"D10"`, or `"allow"` for malformed directives).
    pub rule: String,
    /// 1-based line.
    pub line: u32,
    pub message: String,
}

/// Entropy-seeded RNG constructors (D1).
const ENTROPY_IDENTS: [&str; 4] = ["thread_rng", "from_entropy", "OsRng", "getrandom"];
/// Wall-clock path heads checked for `::now` (D2).
const CLOCK_TYPES: [&str; 4] = ["SystemTime", "Instant", "Utc", "Local"];
/// Hash-ordered collections (D3).
const HASH_COLLECTIONS: [&str; 2] = ["HashMap", "HashSet"];
/// Panicking macros (D4).
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];
/// Printing macros (D5).
const PRINT_MACROS: [&str; 5] = ["println", "print", "eprintln", "eprint", "dbg"];

/// Keywords that may directly precede `[` without it being an index
/// expression (`return [a, b]`, `where [T]: Sized`, …).
pub(crate) fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "as" | "async"
            | "await"
            | "box"
            | "break"
            | "const"
            | "continue"
            | "dyn"
            | "else"
            | "enum"
            | "fn"
            | "for"
            | "if"
            | "impl"
            | "in"
            | "let"
            | "loop"
            | "match"
            | "mod"
            | "move"
            | "mut"
            | "pub"
            | "ref"
            | "return"
            | "static"
            | "struct"
            | "trait"
            | "type"
            | "unsafe"
            | "use"
            | "where"
            | "while"
            | "yield"
    )
}

/// One primitive-source site inside a file: the anchor token index, its
/// line, and a short label (`unwrap()`, `Instant::now`, `thread_rng`) used
/// both in line-rule messages and as the tail of a D7–D9 witness chain.
#[derive(Debug, Clone)]
pub struct Site {
    /// Index of the anchor token in the scanned stream.
    pub tok: usize,
    /// 1-based line.
    pub line: u32,
    /// Short display label for the primitive.
    pub label: String,
}

/// Code-token indices outside test modules, in order.
fn code_indices(toks: &[Tok], test_mask: &[bool]) -> Vec<usize> {
    (0..toks.len())
        .filter(|&k| toks[k].is_code() && !test_mask[k])
        .collect()
}

/// Entropy-seeded RNG construction sites (the D1 primitive matcher).
pub fn entropy_sites(toks: &[Tok], test_mask: &[bool]) -> Vec<Site> {
    let code = code_indices(toks, test_mask);
    let mut out = Vec::new();
    for &k in &code {
        let tok = &toks[k];
        if tok.kind == TokKind::Ident && ENTROPY_IDENTS.contains(&tok.text.as_str()) {
            out.push(Site {
                tok: k,
                line: tok.line,
                label: tok.text.clone(),
            });
        }
    }
    out
}

/// Wall-clock read sites — `<ClockType>::now` (the D2 primitive matcher).
pub fn clock_sites(toks: &[Tok], test_mask: &[bool]) -> Vec<Site> {
    let code = code_indices(toks, test_mask);
    let t = |ci: usize| -> &Tok { &toks[code[ci]] };
    let mut out = Vec::new();
    for (ci, &k) in code.iter().enumerate().take(code.len().saturating_sub(3)) {
        let tok = &toks[k];
        if tok.kind == TokKind::Ident
            && CLOCK_TYPES.contains(&tok.text.as_str())
            && t(ci + 1).is_punct(':')
            && t(ci + 2).is_punct(':')
            && t(ci + 3).is_ident("now")
        {
            out.push(Site {
                tok: code[ci],
                line: tok.line,
                label: format!("{}::now", tok.text),
            });
        }
    }
    out
}

/// May-panic sites — `.unwrap()`/`.expect(`, `panic!`-family macros, and
/// index expressions (the D4 primitive matcher). `expr[..]` full-range
/// slices never panic and are skipped.
pub fn panic_sites(toks: &[Tok], test_mask: &[bool]) -> Vec<Site> {
    let code = code_indices(toks, test_mask);
    let t = |ci: usize| -> &Tok { &toks[code[ci]] };
    let mut out = Vec::new();
    for ci in 0..code.len() {
        let tok = t(ci);
        // `.unwrap()` / `.expect(` — exact method names only.
        if tok.kind == TokKind::Ident
            && (tok.text == "unwrap" || tok.text == "expect")
            && ci > 0
            && t(ci - 1).is_punct('.')
            && ci + 1 < code.len()
            && t(ci + 1).is_punct('(')
        {
            out.push(Site {
                tok: code[ci],
                line: tok.line,
                label: format!("{}()", tok.text),
            });
        }
        // panic!-family macros.
        if tok.kind == TokKind::Ident
            && PANIC_MACROS.contains(&tok.text.as_str())
            && ci + 1 < code.len()
            && t(ci + 1).is_punct('!')
        {
            out.push(Site {
                tok: code[ci],
                line: tok.line,
                label: format!("{}!", tok.text),
            });
        }
        // Index expressions: `expr[…]` can panic out-of-bounds.
        if tok.is_punct('[') && ci > 0 {
            let prev = t(ci - 1);
            let is_index_base = (prev.kind == TokKind::Ident && !is_keyword(&prev.text))
                || prev.is_punct(')')
                || prev.is_punct(']');
            if is_index_base && !is_full_range_slice(&code, toks, ci) {
                out.push(Site {
                    tok: code[ci],
                    line: tok.line,
                    label: "index expression".to_string(),
                });
            }
        }
    }
    out
}

/// Runs line rule `rule_id` over a file's tokens. `test_mask[i]` exempts
/// token `i` (inside a `#[cfg(test)]` module) from D1–D6. Graph rules
/// (D7–D9) never reach here — they need the whole workspace, see
/// [`crate::graph`].
pub fn check(rule_id: &str, toks: &[Tok], test_mask: &[bool]) -> Vec<Violation> {
    // Indices of code tokens outside test modules, in order.
    let code: Vec<usize> = code_indices(toks, test_mask);
    let t = |ci: usize| -> &Tok { &toks[code[ci]] };
    let mut out = Vec::new();
    let mut push = |line: u32, message: String| {
        out.push(Violation {
            rule: rule_id.to_string(),
            line,
            message,
        });
    };

    match rule_id {
        "D1" => {
            for site in entropy_sites(toks, test_mask) {
                push(
                    site.line,
                    format!(
                        "entropy-seeded RNG (`{}`): runs must reproduce — construct RNGs \
                         with seed_from_u64/from_seed from a recorded seed",
                        site.label
                    ),
                );
            }
        }
        "D2" => {
            for site in clock_sites(toks, test_mask) {
                push(
                    site.line,
                    format!(
                        "wall-clock read (`{}`) in a chaos-hashed crate: timestamps \
                         make artifacts differ run-to-run — timing belongs in \
                         epc-runtime::report or the bench crate",
                        site.label
                    ),
                );
            }
        }
        "D3" => {
            for ci in 0..code.len() {
                let tok = t(ci);
                if tok.kind == TokKind::Ident && HASH_COLLECTIONS.contains(&tok.text.as_str()) {
                    push(
                        tok.line,
                        format!(
                            "`{}` in a result-producing module: hash iteration order is \
                             nondeterministic — use BTreeMap/BTreeSet, or sort before any \
                             value escapes and justify with lint:allow(D3)",
                            tok.text
                        ),
                    );
                }
            }
        }
        "D4" => {
            for site in panic_sites(toks, test_mask) {
                let message = if site.label == "index expression" {
                    "index expression (`…[…]`) in quarantine-protected ingest code \
                     can panic out-of-bounds — use .get()/.get_mut() or a slice \
                     pattern"
                        .to_string()
                } else {
                    let spelled = if site.label.ends_with('!') {
                        format!("`{}`", site.label)
                    } else {
                        format!("`.{}`", site.label)
                    };
                    format!(
                        "{spelled} in quarantine-protected ingest code: malformed input \
                         must become a RecordFault, not a panic"
                    )
                };
                push(site.line, message);
            }
        }
        "D5" => {
            for ci in 0..code.len() {
                let tok = t(ci);
                if tok.kind == TokKind::Ident
                    && PRINT_MACROS.contains(&tok.text.as_str())
                    && ci + 1 < code.len()
                    && t(ci + 1).is_punct('!')
                {
                    push(
                        tok.line,
                        format!(
                            "`{}!` in a library crate: libraries return data, the CLI owns \
                             the terminal",
                            tok.text
                        ),
                    );
                }
            }
        }
        "D6" => {
            // `<head> :: <tail>` where head/tail name a torn-write-prone
            // file creation: `File::create` or `fs::write` (also catching
            // the `std::fs::write` spelling via its `fs::write` suffix).
            for ci in 0..code.len().saturating_sub(3) {
                let tok = t(ci);
                let tail = t(ci + 3);
                let is_direct_write = tok.kind == TokKind::Ident
                    && t(ci + 1).is_punct(':')
                    && t(ci + 2).is_punct(':')
                    && ((tok.text == "File" && tail.is_ident("create"))
                        || (tok.text == "fs" && tail.is_ident("write")));
                if is_direct_write {
                    push(
                        tok.line,
                        format!(
                            "direct artifact write (`{}::{}`) in an artifact-producing crate: \
                             a crash mid-write leaves a torn file — route writes through \
                             epc_journal::write_atomic / write_atomic_path",
                            tok.text, tail.text
                        ),
                    );
                }
            }
        }
        "D10" => {
            // Test modules included: `unsafe` in a test is unsafe code too.
            for tok in toks.iter().filter(|t| t.is_ident("unsafe")) {
                push(
                    tok.line,
                    "`unsafe` outside the module lint.toml exempts from D10: the \
                     workspace keeps its unsafe code in one reviewed place, the \
                     SHA-NI compression function — write this in safe Rust"
                        .to_string(),
                );
            }
        }
        other => {
            // Config validation rejects unknown ids, and the driver routes
            // graph rules (D7–D9) to `crate::graph` instead of here.
            debug_assert!(false, "rule id {other} is not a line rule");
        }
    }
    out
}

/// `expr[..]` (full-range slice) never panics — exempt it from D4.
/// `ci` points at the `[` in the code-index list.
fn is_full_range_slice(code: &[usize], toks: &[Tok], ci: usize) -> bool {
    let t = |k: usize| -> &Tok { &toks[code[k]] };
    let mut depth = 0usize;
    let mut interior: Vec<&Tok> = Vec::new();
    for k in ci..code.len() {
        if t(k).is_punct('[') {
            depth += 1;
            if depth == 1 {
                continue;
            }
        } else if t(k).is_punct(']') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        interior.push(t(k));
    }
    interior.len() == 2 && interior[0].is_punct('.') && interior[1].is_punct('.')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::{scan, test_block_mask};

    fn run(rule: &str, src: &str) -> Vec<Violation> {
        let toks = scan(src);
        let mask = test_block_mask(&toks);
        check(rule, &toks, &mask)
    }

    #[test]
    fn d1_flags_entropy_rng() {
        let hits = run(
            "D1",
            "let mut r = rand::thread_rng();\nlet s = StdRng::from_entropy();",
        );
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].line, 1);
        assert_eq!(hits[1].line, 2);
    }

    #[test]
    fn d1_ignores_seeded_construction() {
        assert!(run("D1", "let r = StdRng::seed_from_u64(7);").is_empty());
    }

    #[test]
    fn d2_flags_clock_reads() {
        let hits = run(
            "D2",
            "let t0 = Instant::now();\nlet wall = SystemTime::now();",
        );
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn d2_needs_the_now_call() {
        assert!(run("D2", "fn takes(i: Instant) {}").is_empty());
    }

    #[test]
    fn d3_flags_hash_collections() {
        let hits = run("D3", "use std::collections::HashMap;\nlet s: HashSet<u32>;");
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn d4_flags_unwrap_expect_panics_and_indexing() {
        let src = "fn f(v: &[u32], i: usize) -> u32 {\n\
                   let a = v.first().unwrap();\n\
                   let b = v.last().expect(\"x\");\n\
                   if i > 9 { panic!(\"no\"); }\n\
                   v[i]\n}";
        let hits = run("D4", src);
        let lines: Vec<u32> = hits.iter().map(|h| h.line).collect();
        assert_eq!(lines, vec![2, 3, 4, 5]);
    }

    #[test]
    fn d4_skips_safe_bracket_forms() {
        let src = "fn f(v: &[u32]) {\n\
                   let w = &v[..];\n\
                   let a = vec![1, 2];\n\
                   let t: [u8; 2] = [0, 1];\n\
                   #[derive(Debug)]\nstruct S;\n\
                   match v { [x, y] => {}, _ => {} }\n\
                   return [1, 2];\n}";
        let hits = run("D4", src);
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn d4_exact_method_names_only() {
        assert!(run(
            "D4",
            "let x = o.unwrap_or(3); let y = o.unwrap_or_default();"
        )
        .is_empty());
    }

    #[test]
    fn d5_flags_prints() {
        let hits = run("D5", "println!(\"x\");\ndbg!(v);\neprintln!(\"e\");");
        assert_eq!(hits.len(), 3);
    }

    #[test]
    fn d6_flags_direct_artifact_writes() {
        let src = "fn save(p: &Path) -> io::Result<()> {\n\
                   fs::write(p, \"x\")?;\n\
                   std::fs::write(p, \"x\")?;\n\
                   let f = File::create(p)?;\n\
                   let g = std::fs::File::create(p)?;\n\
                   Ok(())\n}";
        let hits = run("D6", src);
        let lines: Vec<u32> = hits.iter().map(|h| h.line).collect();
        assert_eq!(lines, vec![2, 3, 4, 5]);
        assert!(hits[0].message.contains("write_atomic"), "{hits:?}");
    }

    #[test]
    fn d6_ignores_reads_imports_and_journal_writers() {
        let src = "use std::fs;\n\
                   use std::fs::File;\n\
                   fn load(p: &Path) -> io::Result<String> {\n\
                   let _rec = epc_journal::write_atomic_path(p, b\"x\")?;\n\
                   let _f = File::open(p)?;\n\
                   fs::create_dir_all(p)?;\n\
                   fs::read_to_string(p)\n}";
        assert!(run("D6", src).is_empty(), "{:?}", run("D6", src));
    }

    #[test]
    fn d10_flags_unsafe_blocks_functions_and_impls() {
        let src = "fn f(p: *const u8) -> u8 {\n\
                   unsafe { *p }\n}\n\
                   unsafe fn g() {}\n\
                   unsafe impl Send for S {}\n\
                   #[cfg(test)]\nmod tests {\n fn t() { unsafe { g() } }\n}";
        let lines: Vec<u32> = run("D10", src).iter().map(|h| h.line).collect();
        assert_eq!(lines, vec![2, 4, 5, 8]);
    }

    #[test]
    fn d10_ignores_comments_strings_and_longer_identifiers() {
        let src = "#![forbid(unsafe_code)]\n\
                   // unsafe { in a comment }\n\
                   /* unsafe fn in a block comment */\n\
                   let s = \"unsafe { }\";\n\
                   let r = r#\"unsafe\"#;\n\
                   let unsafe_code = 1;\n\
                   fn not_unsafe() {}";
        assert!(run("D10", src).is_empty(), "{:?}", run("D10", src));
    }

    #[test]
    fn test_modules_are_exempt_everywhere() {
        let src = "#[cfg(test)]\nmod tests {\n use std::collections::HashMap;\n\
                   fn t() { v.unwrap(); println!(\"ok\"); }\n}";
        for rule in LINE_RULE_IDS {
            assert!(run(rule, src).is_empty(), "{rule} leaked into tests");
        }
    }

    #[test]
    fn primitive_sites_carry_witness_labels() {
        let toks = scan("fn f() { let t = Instant::now(); let r = thread_rng(); v.unwrap(); }");
        let mask = test_block_mask(&toks);
        assert_eq!(clock_sites(&toks, &mask)[0].label, "Instant::now");
        assert_eq!(entropy_sites(&toks, &mask)[0].label, "thread_rng");
        assert_eq!(panic_sites(&toks, &mask)[0].label, "unwrap()");
    }
}
