//! Phase 2 of the audit: workspace-wide call-graph taint analysis behind
//! rules D7–D9.
//!
//! The line rules (phase 1) judge each file in isolation; this layer
//! judges the *reachability closure*. Pipeline: [`parse`] lifts each
//! file's token stream into function items with attributed call sites,
//! [`callgraph`] resolves names into a conservative workspace graph,
//! [`taint`] propagates may-panic / reads-wall-clock / draws-entropy
//! facts backwards from the primitive sites, and [`witness`] renders the
//! shortest offending chain for each diagnostic.
//!
//! Scoping semantics (per `[rules.D7..D9]` in `lint.toml`):
//!
//! * `scope` globs name the **root files** — every function defined there
//!   is an entry point that must not reach the rule's primitives;
//! * `exempt` globs name **trusted files** — their functions neither
//!   originate taint nor transmit it (reviewed numeric kernels, the
//!   deliberate clock shim);
//! * every other included file is transit: its functions carry taint but
//!   are not themselves audited as roots.
//!
//! Each diagnostic anchors at the **primitive site** (file and line of
//! the `unwrap()`/`Instant::now()`/`thread_rng()`), so a `lint:allow` at
//! the source line suppresses every chain that ends there — the reviewed
//! fact is "this primitive is safe", independent of who calls it. One
//! diagnostic is emitted per (rule, primitive site), carrying the
//! shortest witness chain from the nearest root.

pub mod callgraph;
pub mod parse;
pub mod taint;
pub mod witness;

use crate::config::Config;
use crate::rules::{Violation, GRAPH_RULE_IDS};
use crate::scanner::Tok;
use callgraph::FnNode;
use taint::{Source, TaintKind};

/// One scanned file, as phase 1 already prepared it.
pub struct FileTokens<'a> {
    /// Repo-relative `/`-separated path.
    pub path: &'a str,
    pub toks: &'a [Tok],
    pub test_mask: &'a [bool],
}

/// What the graph pass found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Function items in the workspace graph.
    pub functions: usize,
    /// Resolved call edges.
    pub call_edges: usize,
    /// Violations grouped by input-file index (the file of the primitive
    /// site, where the diagnostic anchors).
    pub per_file: Vec<Vec<Violation>>,
}

/// What each graph rule forbids the roots from reaching.
struct GraphRule {
    id: &'static str,
    kind: TaintKind,
    headline: &'static str,
}

const GRAPH_RULES: [GraphRule; 3] = [
    GraphRule {
        id: "D7",
        kind: TaintKind::Panic,
        headline: "may-panic call path reachable from ingest entry point",
    },
    GraphRule {
        id: "D8",
        kind: TaintKind::Clock,
        headline: "wall-clock read reachable from hash-gated artifact code",
    },
    GraphRule {
        id: "D9",
        kind: TaintKind::Entropy,
        headline: "OS-entropy RNG reachable from result-producing code",
    },
];

/// Runs rules D7–D9 over the whole file set.
pub fn analyze(files: &[FileTokens], cfg: &Config) -> Outcome {
    debug_assert_eq!(GRAPH_RULES.len(), GRAPH_RULE_IDS.len());

    // Parse every file once; number functions globally in file order.
    let mut fns: Vec<FnNode> = Vec::new();
    let mut owners: Vec<Vec<Option<usize>>> = Vec::new(); // global ids
    let mut crates = Vec::new();
    let mut stems = Vec::new();
    for (idx, f) in files.iter().enumerate() {
        let base = fns.len();
        let parsed = parse::parse_file(f.toks, f.test_mask);
        owners.push(
            parsed
                .owner
                .iter()
                .map(|o| o.map(|local| base + local))
                .collect(),
        );
        fns.extend(parsed.fns.into_iter().map(|def| FnNode { file: idx, def }));
        crates.push(callgraph::crate_of_path(f.path));
        stems.push(callgraph::stem_of_path(f.path));
    }

    let graph = callgraph::build(&fns, &crates, &stems);
    let rev = taint::reverse(&graph.edges);
    let mut out = Outcome {
        functions: fns.len(),
        call_edges: graph.edges.iter().map(Vec::len).sum(),
        per_file: vec![Vec::new(); files.len()],
    };
    let paths: Vec<String> = files.iter().map(|f| f.path.to_string()).collect();

    for rule in &GRAPH_RULES {
        let Some(scope) = cfg.rule(rule.id) else {
            continue;
        };
        // Per-file classification, then per-function flags.
        let file_root: Vec<bool> = paths.iter().map(|p| scope.applies_to(p)).collect();
        let file_trusted: Vec<bool> = paths
            .iter()
            .map(|p| scope.exempt.iter().any(|g| crate::config::glob_match(g, p)))
            .collect();
        let is_root: Vec<bool> = fns.iter().map(|f| file_root[f.file]).collect();
        let trusted: Vec<bool> = fns.iter().map(|f| file_trusted[f.file]).collect();
        if !is_root.contains(&true) {
            continue;
        }

        // Sources: this kind's primitives, attributed to their owning
        // function; trusted files contribute none. Top-level primitives
        // (const initialisers) have no owning function and cannot be
        // called, so they are line-rule territory only.
        let mut sources: Vec<Source> = Vec::new();
        for (idx, f) in files.iter().enumerate() {
            if file_trusted[idx] {
                continue;
            }
            for site in rule.kind.sites(f.toks, f.test_mask) {
                if let Some(fn_id) = owners[idx][site.tok] {
                    sources.push(Source {
                        fn_id,
                        file: idx,
                        line: site.line,
                        label: site.label,
                    });
                }
            }
        }

        for source in &sources {
            let reach = taint::reach_to(source.fn_id, &rev, &trusted);
            // Nearest root wins; ties break on global fn order so the
            // witness is stable across runs.
            let root = (0..fns.len())
                .filter(|&f| is_root[f] && reach.dist[f] != u32::MAX)
                .min_by_key(|&f| (reach.dist[f], f));
            if let Some(root) = root {
                let chain = witness::chain(root, source, &reach, &fns, &paths);
                out.per_file[source.file].push(Violation {
                    rule: rule.id.into(),
                    line: source.line,
                    message: format!("{}: {}", rule.headline, chain),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::{scan, test_block_mask};

    fn run(cfg_text: &str, files: &[(&str, &str)]) -> Outcome {
        let cfg = Config::parse(cfg_text).unwrap();
        let scanned: Vec<(Vec<Tok>, Vec<bool>)> = files
            .iter()
            .map(|(_, src)| {
                let toks = scan(src);
                let mask = test_block_mask(&toks);
                (toks, mask)
            })
            .collect();
        let inputs: Vec<FileTokens> = files
            .iter()
            .zip(&scanned)
            .map(|((path, _), (toks, mask))| FileTokens {
                path,
                toks,
                test_mask: mask,
            })
            .collect();
        analyze(&inputs, &cfg)
    }

    fn cfg_d7(scope: &str, exempt: &str) -> String {
        let empty = |id: &str| format!("[rules.{id}]\nscope = []\n");
        format!(
            "[files]\ninclude = [\"**/*.rs\"]\n\
             {}{}{}{}{}{}\
             [rules.D7]\nscope = [\"{scope}\"]\nexempt = [{exempt}]\n\
             [rules.D8]\nscope = []\n[rules.D9]\nscope = []\n[rules.D10]\nscope = []\n",
            empty("D1"),
            empty("D2"),
            empty("D3"),
            empty("D4"),
            empty("D5"),
            empty("D6"),
        )
    }

    #[test]
    fn two_hop_panic_chain_is_reported_at_the_primitive() {
        let out = run(
            &cfg_d7("entry.rs", ""),
            &[
                (
                    "entry.rs",
                    "pub fn ingest_row(s: &str) -> u32 { normalize(s) }\n",
                ),
                ("mid.rs", "pub fn normalize(s: &str) -> u32 { finish(s) }\n"),
                (
                    "deep.rs",
                    "pub fn finish(s: &str) -> u32 { s.parse().unwrap() }\n",
                ),
            ],
        );
        assert!(out.per_file[0].is_empty() && out.per_file[1].is_empty());
        let v = &out.per_file[2][0];
        assert_eq!(v.rule, "D7");
        assert_eq!(v.line, 1);
        assert!(
            v.message.ends_with(
                "entry.rs:1 ingest_row → mid.rs:1 normalize → deep.rs:1 finish → deep.rs:1 unwrap()"
            ),
            "{}",
            v.message
        );
    }

    #[test]
    fn trusted_files_break_the_chain() {
        let out = run(
            &cfg_d7("entry.rs", "\"deep.rs\""),
            &[
                (
                    "entry.rs",
                    "pub fn ingest_row(s: &str) -> u32 { finish(s) }\n",
                ),
                (
                    "deep.rs",
                    "pub fn finish(s: &str) -> u32 { s.parse().unwrap() }\n",
                ),
            ],
        );
        assert!(
            out.per_file.iter().all(Vec::is_empty),
            "trusted file is neither source nor transit"
        );
    }

    #[test]
    fn one_diagnostic_per_primitive_site() {
        let out = run(
            &cfg_d7("entry.rs", ""),
            &[
                (
                    "entry.rs",
                    "pub fn a(s: &str) -> u32 { boom(s) }\npub fn b(s: &str) -> u32 { boom(s) }\n",
                ),
                (
                    "deep.rs",
                    "pub fn boom(s: &str) -> u32 { s.parse().unwrap() }\n",
                ),
            ],
        );
        assert_eq!(
            out.per_file[1].len(),
            1,
            "two roots, one primitive, one diagnostic"
        );
    }

    #[test]
    fn counts_cover_the_whole_workspace() {
        let out = run(
            &cfg_d7("entry.rs", ""),
            &[
                ("entry.rs", "pub fn a() { b(); }\npub fn b() {}\n"),
                ("other.rs", "pub fn c() { b(); }\n"),
            ],
        );
        assert_eq!(out.functions, 3);
        assert_eq!(out.call_edges, 2);
    }
}
