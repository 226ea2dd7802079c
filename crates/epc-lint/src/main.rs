//! CLI driver: `cargo run -p epc-lint [-- --root <dir>] [--config <file>] [--format text|json]`.
//!
//! Exit codes: 0 clean, 1 violations found, 2 usage/config/IO error.
//! `--format json` prints the `epc-lint-report/1` document instead of the
//! human lines; the exit code is the same either way, so CI can both
//! gate on it and diff the report against a checked-in expectation.

use epc_lint::config::Config;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    match run() {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(msg) => {
            eprintln!("epc-lint: error: {msg}");
            ExitCode::from(2)
        }
    }
}

enum Format {
    Text,
    Json,
}

fn run() -> Result<bool, String> {
    let mut root = PathBuf::from(".");
    let mut config_path: Option<PathBuf> = None;
    let mut format = Format::Text;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                root = PathBuf::from(args.next().ok_or("--root needs a directory argument")?)
            }
            "--config" => {
                config_path = Some(PathBuf::from(
                    args.next().ok_or("--config needs a file argument")?,
                ))
            }
            "--format" => {
                format = match args.next().as_deref() {
                    Some("text") => Format::Text,
                    Some("json") => Format::Json,
                    other => {
                        return Err(format!(
                            "--format expects `text` or `json`, got `{}`",
                            other.unwrap_or("nothing")
                        ))
                    }
                }
            }
            "--help" | "-h" => {
                println!(
                    "usage: epc-lint [--root <repo-root>] [--config <lint.toml>] [--format text|json]\n\n\
                     Audits the workspace sources in two phases: per-line rules\n\
                     D1-D6 and D10, then call-graph taint rules D7-D9 (transitive panic,\n\
                     wall-clock, and entropy reachability with witness chains),\n\
                     scoped by lint.toml. Exit 0 when clean, 1 on violations,\n\
                     2 on configuration errors."
                );
                return Ok(true);
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    let config_path = config_path.unwrap_or_else(|| root.join("lint.toml"));
    let text = std::fs::read_to_string(&config_path)
        .map_err(|e| format!("reading {}: {e}", config_path.display()))?;
    let cfg = Config::parse(&text)?;

    let report = epc_lint::lint_root(&root, &cfg)?;
    match format {
        Format::Json => print!("{}", report.to_json()),
        Format::Text => {
            for d in &report.diagnostics {
                println!("{d}");
            }
            for a in &report.allows {
                println!(
                    "lint:allow {}:{} [{}] — {} ({} suppressed)",
                    a.path,
                    a.line,
                    a.rules.join(", "),
                    a.reason,
                    a.used
                );
            }
            println!("{}", report.summary());
        }
    }
    Ok(report.clean())
}
