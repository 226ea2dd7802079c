//! Fixture suite: exact `rule → (file, line)` diagnostics on the known-bad
//! tree, a clean exit on the good tree, and scope-glob resolution per the
//! documented semantics.

use epc_lint::config::Config;
use epc_lint::lint_root;
use std::path::PathBuf;

fn fixtures() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn config(name: &str) -> Config {
    let text = std::fs::read_to_string(fixtures().join(name)).unwrap();
    Config::parse(&text).unwrap()
}

#[test]
fn bad_fixtures_produce_exact_diagnostics() {
    let report = lint_root(&fixtures().join("bad"), &config("lint_all.toml")).unwrap();
    let got: Vec<(String, u32, String)> = report
        .diagnostics
        .iter()
        .map(|d| (d.path.clone(), d.line, d.rule.clone()))
        .collect();
    let expect = |p: &str, l: u32, r: &str| (p.to_string(), l, r.to_string());
    assert_eq!(
        got,
        vec![
            expect("artifact_write.rs", 6, "D6"),
            expect("artifact_write.rs", 7, "D6"),
            expect("artifact_write.rs", 8, "D6"),
            expect("bad_allow.rs", 2, "allow"),
            expect("bad_allow.rs", 4, "allow"),
            expect("clock.rs", 5, "D2"),
            expect("clock.rs", 6, "D2"),
            expect("hash_iter.rs", 2, "D3"),
            expect("hash_iter.rs", 5, "D3"),
            expect("hash_iter.rs", 5, "D3"),
            expect("ingest.rs", 3, "D4"),
            expect("ingest.rs", 4, "D4"),
            expect("ingest.rs", 6, "D4"),
            expect("ingest.rs", 8, "D4"),
            expect("ingest.rs", 14, "D4"),
            expect("ingest.rs", 14, "D4"),
            expect("ingest.rs", 18, "D4"),
            expect("printy.rs", 3, "D5"),
            expect("printy.rs", 4, "D5"),
            expect("printy.rs", 5, "D5"),
            expect("rng.rs", 5, "D1"),
            expect("rng.rs", 6, "D1"),
            expect("rng.rs", 7, "D1"),
            expect("threads.rs", 3, "D11"),
            expect("threads.rs", 5, "D11"),
            expect("threads.rs", 6, "D11"),
            expect("unsafe_code.rs", 3, "D10"),
            expect("unsafe_code.rs", 5, "D10"),
        ],
    );
    assert!(!report.clean());
    assert_eq!(report.files_scanned, 9);
}

#[test]
fn diagnostics_render_as_path_line_rule() {
    let report = lint_root(&fixtures().join("bad"), &config("lint_all.toml")).unwrap();
    let rendered: Vec<String> = report.diagnostics.iter().map(|d| d.to_string()).collect();
    assert!(
        rendered.iter().any(|l| l.starts_with("rng.rs:5: [D1] ")),
        "{rendered:?}"
    );
    assert!(
        rendered.iter().any(|l| l.starts_with("ingest.rs:8: [D4] ")),
        "{rendered:?}"
    );
}

#[test]
fn good_fixtures_are_clean_and_allows_are_counted() {
    let report = lint_root(&fixtures().join("good"), &config("lint_all.toml")).unwrap();
    assert!(report.clean(), "unexpected: {:?}", report.diagnostics);
    assert_eq!(report.files_scanned, 5);
    // Both directives in allowed.rs carry a reason and fired once each.
    assert_eq!(report.allows.len(), 2);
    assert_eq!(report.suppressed, 2);
    for a in &report.allows {
        assert_eq!(a.path, "allowed.rs");
        assert!(!a.reason.is_empty());
        assert_eq!(a.used, 1);
    }
    assert_eq!(report.allows[0].rules, vec!["D3"]);
    assert_eq!(report.allows[1].rules, vec!["D4"]);
}

#[test]
fn scope_globs_resolve_as_documented() {
    // Root is the fixture dir itself: paths are `bad/<file>.rs`, so the
    // scoped config's globs exercise exact-path, `*`, `**`, and exempt.
    let report = lint_root(&fixtures(), &config("lint_scoped.toml")).unwrap();
    let count = |rule: &str| report.diagnostics.iter().filter(|d| d.rule == rule).count();
    // D1 scoped to bad/rng.rs alone: its three hits survive.
    assert_eq!(count("D1"), 3);
    assert!(report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "D1")
        .all(|d| d.path == "bad/rng.rs"));
    // D2 scoped `**` but exempted from bad/clock.rs — the only file that
    // would hit — so nothing fires.
    assert_eq!(count("D2"), 0);
    // D3's scope matches nothing under bad/.
    assert_eq!(count("D3"), 0);
    // D4 scoped to bad/ingest.rs: all seven hits.
    assert_eq!(count("D4"), 7);
    // D5 scoped `bad/*.rs` minus its only offender.
    assert_eq!(count("D5"), 0);
    // D6's scope matches nothing under bad/.
    assert_eq!(count("D6"), 0);
    // D10 scoped to bad/unsafe_code.rs and exempted from it again.
    assert_eq!(count("D10"), 0);
    // D11 scoped to bad/threads.rs: all three hits.
    assert_eq!(count("D11"), 3);
    // Malformed allow directives fire regardless of rule scoping.
    assert_eq!(count("allow"), 2);
    assert_eq!(report.diagnostics.len(), 15);
}

#[test]
fn the_repo_itself_is_clean() {
    // The CI gate in miniature: the workspace this crate ships in must
    // pass its own auditor. Walk up from the manifest dir to the repo
    // root and run the checked-in lint.toml.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .unwrap()
        .to_path_buf();
    let text = std::fs::read_to_string(root.join("lint.toml")).unwrap();
    let cfg = Config::parse(&text).unwrap();
    let report = lint_root(&root, &cfg).unwrap();
    let rendered: Vec<String> = report.diagnostics.iter().map(|d| d.to_string()).collect();
    assert!(
        report.clean(),
        "repo violates its own lint gate:\n{}",
        rendered.join("\n")
    );
    // Every in-tree allow carries a reason (parse() enforces it; assert
    // the reports surface them).
    assert!(report.allows.iter().all(|a| !a.reason.is_empty()));
}
