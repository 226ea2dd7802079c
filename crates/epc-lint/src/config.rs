//! `lint.toml` — where each rule applies.
//!
//! The checked-in config is the single source of truth for rule scoping:
//! adding a crate to the ingest surface, or exempting a module from the
//! wall-clock ban, is a reviewed one-line diff here rather than an edit
//! to the auditor. The file is a small TOML subset (tables, string keys,
//! string arrays) parsed with std only — the auditor must not depend on
//! the crates it audits, nor pull a TOML stack into the offline image.
//!
//! ```toml
//! [files]
//! include = ["crates/*/src/**/*.rs"]
//!
//! [rules.D3]
//! scope = ["crates/epc-mining/src/**"]
//! exempt = []
//! ```
//!
//! Glob language (documented behaviour, covered by tests below):
//! patterns match `/`-separated paths segment by segment; `*` and `?`
//! match within one segment; `**` matches zero or more whole segments.

use crate::rules::RULE_IDS;
use std::collections::BTreeMap;

/// Path scoping for one rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleScope {
    pub id: String,
    /// A file is considered only when it matches one of these globs…
    pub scope: Vec<String>,
    /// …and none of these.
    pub exempt: Vec<String>,
}

impl RuleScope {
    /// `true` when `path` (repo-relative, `/`-separated) is audited by
    /// this rule.
    pub fn applies_to(&self, path: &str) -> bool {
        self.scope.iter().any(|g| glob_match(g, path))
            && !self.exempt.iter().any(|g| glob_match(g, path))
    }
}

/// The parsed `lint.toml`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    /// Which files the auditor walks at all.
    pub include: Vec<String>,
    /// One scope per rule; parsing fails unless all of D1–D11 are present,
    /// so a rule cannot be disabled by silently dropping its table.
    /// For the graph rules D7–D9, `scope` names the *root* files (entry
    /// points audited for reachability) and `exempt` names *trusted*
    /// files whose functions neither originate nor transmit taint.
    pub rules: Vec<RuleScope>,
}

impl Config {
    /// The scope table for `id`.
    pub fn rule(&self, id: &str) -> Option<&RuleScope> {
        self.rules.iter().find(|r| r.id == id)
    }

    /// Parses the TOML subset described in the module docs.
    pub fn parse(text: &str) -> Result<Config, String> {
        let raw = parse_toml_subset(text)?;
        let mut include = Vec::new();
        let mut rules = Vec::new();
        for (section, entries) in &raw {
            if section == "files" {
                include = take_array(entries, section, "include")?;
                if include.is_empty() {
                    return Err("lint.toml: [files] include must not be empty".into());
                }
            } else if let Some(id) = section.strip_prefix("rules.") {
                if !RULE_IDS.contains(&id) {
                    return Err(format!(
                        "lint.toml: unknown rule [{section}] (known: {})",
                        RULE_IDS.join(", ")
                    ));
                }
                rules.push(RuleScope {
                    id: id.to_string(),
                    scope: take_array(entries, section, "scope")?,
                    exempt: entries
                        .get("exempt")
                        .map(|v| as_array(v, section, "exempt"))
                        .transpose()?
                        .unwrap_or_default(),
                });
            } else {
                return Err(format!("lint.toml: unknown section [{section}]"));
            }
        }
        if include.is_empty() {
            return Err("lint.toml: missing [files] include".into());
        }
        for id in RULE_IDS {
            if !rules.iter().any(|r| r.id == id) {
                return Err(format!("lint.toml: missing [rules.{id}] table"));
            }
        }
        Ok(Config { include, rules })
    }
}

/// A parsed TOML value — the subset only has strings and string arrays.
#[derive(Debug, Clone)]
enum Value {
    Str(String),
    Array(Vec<String>),
}

fn take_array(
    entries: &BTreeMap<String, Value>,
    section: &str,
    key: &str,
) -> Result<Vec<String>, String> {
    let v = entries
        .get(key)
        .ok_or_else(|| format!("lint.toml: [{section}] is missing `{key}`"))?;
    as_array(v, section, key)
}

fn as_array(v: &Value, section: &str, key: &str) -> Result<Vec<String>, String> {
    match v {
        Value::Array(a) => Ok(a.clone()),
        Value::Str(s) => Err(format!(
            "lint.toml: [{section}] `{key}` must be an array of strings, got \"{s}\""
        )),
    }
}

/// Parses sections of `key = value` pairs. Arrays may span lines; `#`
/// starts a comment outside quotes.
fn parse_toml_subset(text: &str) -> Result<BTreeMap<String, BTreeMap<String, Value>>, String> {
    let mut out: BTreeMap<String, BTreeMap<String, Value>> = BTreeMap::new();
    let mut section = String::new();
    let mut lines = text.lines().enumerate().peekable();
    while let Some((ln, raw)) = lines.next() {
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            section = name.trim().to_string();
            out.entry(section.clone()).or_default();
            continue;
        }
        let (key, mut value) = line
            .split_once('=')
            .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
            .ok_or_else(|| format!("lint.toml line {}: expected `key = value`", ln + 1))?;
        if section.is_empty() {
            return Err(format!(
                "lint.toml line {}: `{key}` outside any [section]",
                ln + 1
            ));
        }
        // Multiline arrays: keep consuming until brackets balance.
        while value.starts_with('[') && !brackets_balance(&value) {
            let (_, next) = lines
                .next()
                .ok_or_else(|| format!("lint.toml line {}: unterminated array", ln + 1))?;
            value.push(' ');
            value.push_str(strip_comment(next).trim());
        }
        let parsed =
            parse_value(&value).map_err(|e| format!("lint.toml line {}: `{key}`: {e}", ln + 1))?;
        out.entry(section.clone()).or_default().insert(key, parsed);
    }
    Ok(out)
}

/// Removes a `#` comment that is not inside a quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn brackets_balance(s: &str) -> bool {
    let mut in_str = false;
    let mut depth = 0i32;
    for c in s.chars() {
        match c {
            '"' => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => {}
        }
    }
    depth == 0
}

fn parse_value(s: &str) -> Result<Value, String> {
    let s = s.trim();
    if let Some(body) = s.strip_prefix('[').and_then(|t| t.strip_suffix(']')) {
        let mut items = Vec::new();
        for item in split_top_level(body) {
            let item = item.trim();
            if item.is_empty() {
                continue; // trailing comma
            }
            items.push(parse_string(item)?);
        }
        return Ok(Value::Array(items));
    }
    Ok(Value::Str(parse_string(s)?))
}

fn split_top_level(s: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    for c in s.chars() {
        match c {
            '"' => {
                in_str = !in_str;
                cur.push(c);
            }
            ',' if !in_str => {
                parts.push(std::mem::take(&mut cur));
            }
            _ => cur.push(c),
        }
    }
    parts.push(cur);
    parts
}

fn parse_string(s: &str) -> Result<String, String> {
    s.strip_prefix('"')
        .and_then(|t| t.strip_suffix('"'))
        .map(str::to_string)
        .ok_or_else(|| format!("expected a quoted string, got `{s}`"))
}

/// Matches `path` against `pattern` per the module-doc glob language.
pub fn glob_match(pattern: &str, path: &str) -> bool {
    let psegs: Vec<&str> = pattern.split('/').collect();
    let ssegs: Vec<&str> = path.split('/').collect();
    match_segments(&psegs, &ssegs)
}

fn match_segments(pat: &[&str], segs: &[&str]) -> bool {
    match pat.first() {
        None => segs.is_empty(),
        Some(&"**") => (0..=segs.len()).any(|k| match_segments(&pat[1..], &segs[k..])),
        Some(p) => {
            !segs.is_empty() && segment_match(p, segs[0]) && match_segments(&pat[1..], &segs[1..])
        }
    }
}

fn segment_match(pat: &str, seg: &str) -> bool {
    let p: Vec<char> = pat.chars().collect();
    let s: Vec<char> = seg.chars().collect();
    seg_match_rec(&p, &s)
}

fn seg_match_rec(p: &[char], s: &[char]) -> bool {
    match p.first() {
        None => s.is_empty(),
        Some('*') => (0..=s.len()).any(|k| seg_match_rec(&p[1..], &s[k..])),
        Some('?') => !s.is_empty() && seg_match_rec(&p[1..], &s[1..]),
        Some(&c) => !s.is_empty() && s[0] == c && seg_match_rec(&p[1..], &s[1..]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn globs_resolve_as_documented() {
        // `*` stays within a segment.
        assert!(glob_match(
            "crates/*/src/lib.rs",
            "crates/epc-geo/src/lib.rs"
        ));
        assert!(!glob_match("crates/*/lib.rs", "crates/epc-geo/src/lib.rs"));
        // `**` spans zero segments…
        assert!(glob_match(
            "crates/*/src/**/*.rs",
            "crates/indice/src/lib.rs"
        ));
        // …or several.
        assert!(glob_match("crates/**", "crates/indice/src/a/b/c.rs"));
        assert!(glob_match(
            "crates/*/src/**/*.rs",
            "crates/indice/src/sub/deep/mod.rs"
        ));
        // Prefix globs do not match sibling directories.
        assert!(!glob_match(
            "crates/indice/**",
            "crates/indice-cli/src/main.rs"
        ));
        assert!(glob_match(
            "crates/epc-*/**",
            "crates/epc-runtime/src/report.rs"
        ));
        assert!(!glob_match("crates/epc-*/**", "crates/indice/src/lib.rs"));
        // `?` is exactly one character.
        assert!(glob_match(
            "crates/epc-lin?/**",
            "crates/epc-lint/src/main.rs"
        ));
        assert!(!glob_match(
            "crates/epc-lin?/**",
            "crates/epc-lin/src/main.rs"
        ));
    }

    #[test]
    fn parses_a_full_config() {
        let cfg = Config::parse(
            r#"
            # comment
            [files]
            include = ["crates/*/src/**/*.rs"]

            [rules.D1]
            scope = ["crates/**"]

            [rules.D2]
            scope = [
                "crates/epc-*/**",   # hash-gated
                "crates/indice/**",
            ]
            exempt = ["crates/epc-runtime/src/report.rs"]

            [rules.D3]
            scope = ["crates/epc-mining/src/**"]
            exempt = []

            [rules.D4]
            scope = ["crates/epc-model/src/csv.rs"]

            [rules.D5]
            scope = ["crates/*/src/**"]
            exempt = ["crates/indice-cli/**"]

            [rules.D6]
            scope = ["crates/indice/src/**", "crates/indice-cli/src/**"]

            [rules.D7]
            scope = ["crates/epc-model/src/csv.rs"]

            [rules.D8]
            scope = ["crates/epc-*/**"]
            exempt = ["crates/epc-runtime/src/report.rs"]

            [rules.D9]
            scope = ["crates/indice/src/**"]

            [rules.D10]
            scope = ["crates/**"]
            exempt = ["crates/epc-journal/src/sha256/ni.rs"]

            [rules.D11]
            scope = ["crates/**"]
            exempt = ["crates/epc-runtime/src/**"]
            "#,
        )
        .unwrap();
        assert_eq!(cfg.include, vec!["crates/*/src/**/*.rs"]);
        let d2 = cfg.rule("D2").unwrap();
        assert_eq!(d2.scope.len(), 2);
        assert!(d2.applies_to("crates/epc-geo/src/geocode.rs"));
        assert!(!d2.applies_to("crates/epc-runtime/src/report.rs"));
        assert!(!d2.applies_to("crates/bench/src/lib.rs"));
        let d5 = cfg.rule("D5").unwrap();
        assert!(!d5.applies_to("crates/indice-cli/src/main.rs"));
        let d10 = cfg.rule("D10").unwrap();
        assert!(d10.applies_to("crates/epc-journal/src/sha256.rs"));
        assert!(!d10.applies_to("crates/epc-journal/src/sha256/ni.rs"));
        let d11 = cfg.rule("D11").unwrap();
        assert!(d11.applies_to("crates/indice/src/durable.rs"));
        assert!(!d11.applies_to("crates/epc-runtime/src/lib.rs"));
    }

    #[test]
    fn missing_rule_table_is_an_error() {
        let err = Config::parse("[files]\ninclude = [\"a\"]\n[rules.D1]\nscope = [\"**\"]\n")
            .unwrap_err();
        assert!(err.contains("missing [rules.D2]"), "{err}");
    }

    #[test]
    fn unknown_rule_is_an_error() {
        let err = Config::parse("[files]\ninclude = [\"a\"]\n[rules.D12]\nscope = [\"**\"]\n")
            .unwrap_err();
        assert!(err.contains("unknown rule"), "{err}");
    }

    #[test]
    fn scalar_where_array_expected_is_an_error() {
        let err = Config::parse("[files]\ninclude = \"crates\"\n").unwrap_err();
        assert!(err.contains("must be an array"), "{err}");
    }
}
