//! `epc-lint` — the in-repo determinism & panic-surface auditor.
//!
//! The INDICE reproduction guarantee rests on invariants no generic
//! linter knows about: bitwise-identical pipeline artifacts at any thread
//! count, seed-reproducible fault injection, and a panic-free
//! quarantine-protected ingest path. This crate walks the workspace
//! sources with a comment/string-aware scanner and enforces the eleven
//! repo-specific rules described in [`rules`] in two phases — per-line
//! matchers (D1–D6, D10, D11), then workspace-wide call-graph taint analysis
//! (D7–D9, [`graph`]) — scoped by the checked-in `lint.toml`
//! ([`config`]), with a counted, reasoned escape hatch ([`allowlist`]).
//! `cargo run -p epc-lint` is a CI stage; a non-zero exit means the gate
//! failed.

pub mod allowlist;
pub mod config;
pub mod diagnostics;
pub mod graph;
pub mod rules;
pub mod scanner;

use config::Config;
use diagnostics::{AllowRecord, Diagnostic, Report};
use std::path::Path;

/// Audits every file under `root` selected by `cfg.include`, returning
/// the sorted report. `root` is the repository root; all paths in the
/// report are repo-relative with `/` separators.
pub fn lint_root(root: &Path, cfg: &Config) -> Result<Report, String> {
    let mut paths = Vec::new();
    walk(root, Path::new(""), &cfg.include, &mut paths)
        .map_err(|e| format!("walking {}: {e}", root.display()))?;
    paths.sort();

    let mut files = Vec::with_capacity(paths.len());
    for rel in paths {
        let src =
            std::fs::read_to_string(root.join(&rel)).map_err(|e| format!("reading {rel}: {e}"))?;
        files.push((rel, src));
    }
    Ok(lint_files(&files, cfg))
}

/// Audits an already-loaded file set (`(repo-relative path, source)`
/// pairs) in both phases. This is the whole pipeline behind [`lint_root`]
/// and the fixture tests: the line rules see each file alone, the graph
/// rules see the set as one workspace, and `lint:allow` directives apply
/// uniformly because every diagnostic — including a transitive one — is
/// anchored to a concrete line in a concrete file.
pub fn lint_files(files: &[(String, String)], cfg: &Config) -> Report {
    let mut report = Report {
        files_scanned: files.len(),
        ..Report::default()
    };

    // Scan once; both phases and the allowlist share the token streams.
    let scanned: Vec<(Vec<scanner::Tok>, Vec<bool>)> = files
        .iter()
        .map(|(_, src)| {
            let toks = scanner::scan(src);
            let mask = scanner::test_block_mask(&toks);
            (toks, mask)
        })
        .collect();

    // Phase 1: per-line rules, one file at a time.
    let mut hits_per_file: Vec<Vec<rules::Violation>> = Vec::with_capacity(files.len());
    for ((rel, _), (toks, mask)) in files.iter().zip(&scanned) {
        // Malformed directives are violations regardless of rule scoping —
        // a broken escape hatch must never silently grant an exemption.
        let (_, malformed) = allowlist::collect(toks);
        let mut hits = malformed;
        for rule_id in rules::LINE_RULE_IDS {
            let Some(scope) = cfg.rule(rule_id) else {
                continue;
            };
            if scope.applies_to(rel) {
                hits.extend(rules::check(rule_id, toks, mask));
            }
        }
        hits_per_file.push(hits);
    }

    // Phase 2: the call-graph taint rules, over the whole set at once.
    let inputs: Vec<graph::FileTokens> = files
        .iter()
        .zip(&scanned)
        .map(|((rel, _), (toks, mask))| graph::FileTokens {
            path: rel,
            toks,
            test_mask: mask,
        })
        .collect();
    let outcome = graph::analyze(&inputs, cfg);
    report.functions = outcome.functions;
    report.call_edges = outcome.call_edges;
    for (hits, extra) in hits_per_file.iter_mut().zip(outcome.per_file) {
        hits.extend(extra);
    }

    // Allowlist application is per-file: a directive suppresses any
    // diagnostic anchored on its window, whichever phase produced it.
    for (((rel, _), (toks, _)), hits) in files.iter().zip(&scanned).zip(hits_per_file) {
        let (mut directives, _) = allowlist::collect(toks);
        let (kept, suppressed) = allowlist::apply(&mut directives, hits);
        report.suppressed += suppressed;
        for v in kept {
            report.diagnostics.push(Diagnostic {
                path: rel.clone(),
                line: v.line,
                rule: v.rule,
                message: v.message,
            });
        }
        for d in directives {
            report.allows.push(AllowRecord {
                path: rel.clone(),
                line: d.line,
                rules: d.rules,
                reason: d.reason,
                used: d.used,
            });
        }
    }
    report.sort();
    report
}

/// Recursive walk collecting `/`-separated relative paths matching any
/// include glob. Entries are read in sorted order for determinism;
/// build/VCS directories are pruned.
fn walk(
    root: &Path,
    rel: &Path,
    include: &[String],
    out: &mut Vec<String>,
) -> Result<(), std::io::Error> {
    let mut entries: Vec<_> = std::fs::read_dir(root.join(rel))?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let rel_child = rel.join(name);
        let rel_str = rel_child
            .to_string_lossy()
            .replace(std::path::MAIN_SEPARATOR, "/");
        if path.is_dir() {
            if matches!(name, ".git" | "target" | "node_modules") {
                continue;
            }
            walk(root, &rel_child, include, out)?;
        } else if include.iter().any(|g| config::glob_match(g, &rel_str)) {
            out.push(rel_str);
        }
    }
    Ok(())
}
