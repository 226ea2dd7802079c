//! Black-box integration tests of the `indice` binary: the full
//! generate → describe → clean → run loop through real process invocations.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_indice")
}

fn run_cli(args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .output()
        .expect("binary launches")
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("indice-cli-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

#[test]
fn help_prints_usage_and_succeeds() {
    let o = run_cli(&["help"]);
    assert!(o.status.success());
    assert!(stdout(&o).contains("USAGE"));
    // No args is help too.
    let o = run_cli(&[]);
    assert!(o.status.success());
}

#[test]
fn unknown_command_fails_with_usage() {
    let o = run_cli(&["frobnicate"]);
    assert!(!o.status.success());
    let err = stderr(&o);
    assert!(err.contains("unknown command"));
    assert!(err.contains("USAGE"));
}

#[test]
fn missing_input_file_is_a_clean_error() {
    let o = run_cli(&["describe", "--data", "/nonexistent/path.csv"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("reading /nonexistent/path.csv"));
}

#[test]
fn generate_describe_clean_run_round_trip() {
    let data_dir = tmp_dir("data");
    let out_dir = tmp_dir("out");

    // generate
    let o = run_cli(&[
        "generate",
        "--records",
        "800",
        "--seed",
        "5",
        "--out-dir",
        data_dir.to_str().unwrap(),
    ]);
    assert!(o.status.success(), "generate failed: {}", stderr(&o));
    assert!(stdout(&o).contains("800 certificates"));
    for f in ["epcs.csv", "street_map.txt", "regions.json"] {
        assert!(data_dir.join(f).exists(), "missing {f}");
    }

    // describe
    let csv = data_dir.join("epcs.csv");
    let o = run_cli(&["describe", "--data", csv.to_str().unwrap()]);
    assert!(o.status.success(), "{}", stderr(&o));
    let text = stdout(&o);
    assert!(text.contains("800 rows x 132 attributes"));
    assert!(text.contains("u_windows"));

    // clean
    let cleaned = out_dir.join("cleaned.csv");
    let o = run_cli(&[
        "clean",
        "--data",
        csv.to_str().unwrap(),
        "--streets",
        data_dir.join("street_map.txt").to_str().unwrap(),
        "--out",
        cleaned.to_str().unwrap(),
    ]);
    assert!(o.status.success(), "clean failed: {}", stderr(&o));
    assert!(stdout(&o).contains("cleaned 800 records"));
    assert!(cleaned.exists());

    // suggest-config
    let o = run_cli(&["suggest-config", "--data", csv.to_str().unwrap()]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("auto-configuration advice"));

    // run (citizen profile is the fastest)
    let o = run_cli(&[
        "run",
        "--data",
        csv.to_str().unwrap(),
        "--streets",
        data_dir.join("street_map.txt").to_str().unwrap(),
        "--regions",
        data_dir.join("regions.json").to_str().unwrap(),
        "--stakeholder",
        "citizen",
        "--out-dir",
        out_dir.to_str().unwrap(),
    ]);
    assert!(o.status.success(), "run failed: {}", stderr(&o));
    assert_eq!(o.status.code(), Some(0), "clean run exits 0");
    let text = stdout(&o);
    assert!(text.contains("pipeline done"));
    assert!(text.contains("quarantine: empty"));
    assert!(text.contains("outcome: complete"));
    let dashboard = out_dir.join("dashboard.html");
    assert!(dashboard.exists());
    let html = std::fs::read_to_string(dashboard).unwrap();
    assert!(html.contains("INDICE"));
    assert!(html.contains("</html>"));

    cleanup(&data_dir);
    cleanup(&out_dir);
}

#[test]
fn fault_injected_run_exits_degraded_with_partial_output() {
    let data_dir = tmp_dir("chaos-data");
    let out_dir = tmp_dir("chaos-out");
    let o = run_cli(&[
        "generate",
        "--records",
        "600",
        "--seed",
        "5",
        "--out-dir",
        data_dir.to_str().unwrap(),
    ]);
    assert!(o.status.success(), "generate failed: {}", stderr(&o));

    let o = run_cli(&[
        "run",
        "--data",
        data_dir.join("epcs.csv").to_str().unwrap(),
        "--streets",
        data_dir.join("street_map.txt").to_str().unwrap(),
        "--regions",
        data_dir.join("regions.json").to_str().unwrap(),
        "--stakeholder",
        "citizen",
        "--out-dir",
        out_dir.to_str().unwrap(),
        "--fault-seed",
        "7",
        "--fault-rate",
        "0.2",
        "--geocode-fail-rate",
        "0.1",
    ]);
    assert_eq!(
        o.status.code(),
        Some(3),
        "fault-injected run must exit degraded; stderr: {}",
        stderr(&o)
    );
    let text = stdout(&o);
    assert!(text.contains("quarantined"), "report shows quarantine");
    assert!(text.contains("outcome: degraded"));
    // Partial output is still written.
    assert!(out_dir.join("dashboard.html").exists());

    // Same seed + rates reproduce the same summary.
    let again = run_cli(&[
        "run",
        "--data",
        data_dir.join("epcs.csv").to_str().unwrap(),
        "--streets",
        data_dir.join("street_map.txt").to_str().unwrap(),
        "--regions",
        data_dir.join("regions.json").to_str().unwrap(),
        "--stakeholder",
        "citizen",
        "--out-dir",
        out_dir.to_str().unwrap(),
        "--fault-seed",
        "7",
        "--fault-rate",
        "0.2",
        "--geocode-fail-rate",
        "0.1",
    ]);
    assert_eq!(again.status.code(), Some(3));
    // The fault summary (not the wall times) is reproducible.
    let summary = |s: &str| -> Vec<String> {
        s.lines()
            .filter(|l| {
                l.starts_with("quarantine:")
                    || l.starts_with("degraded")
                    || l.starts_with("outcome:")
            })
            .map(str::to_owned)
            .collect()
    };
    assert_eq!(
        summary(&text),
        summary(&stdout(&again)),
        "chaos runs are reproducible"
    );

    cleanup(&data_dir);
    cleanup(&out_dir);
}

#[test]
fn misspelled_flag_fails_before_the_run_starts() {
    let data_dir = tmp_dir("typo-data");
    let o = run_cli(&[
        "generate",
        "--records",
        "600",
        "--out-dir",
        data_dir.to_str().unwrap(),
    ]);
    assert!(o.status.success(), "generate failed: {}", stderr(&o));

    // With the breaker spelled right this run exits 1 (about a quarter of
    // the records are quarantined). Misspelled, it must not run at all.
    let out_dir = data_dir.join("run");
    let o = run_cli(&[
        "run",
        "--data",
        data_dir.join("epcs.csv").to_str().unwrap(),
        "--streets",
        data_dir.join("street_map.txt").to_str().unwrap(),
        "--regions",
        data_dir.join("regions.json").to_str().unwrap(),
        "--out-dir",
        out_dir.to_str().unwrap(),
        "--fault-rate",
        "0.3",
        "--max-quarantine-fraction",
        "0.0001",
    ]);
    assert_eq!(o.status.code(), Some(1), "stderr: {}", stderr(&o));
    let err = stderr(&o);
    assert!(
        err.contains("unknown flag --max-quarantine-fraction for `indice run`"),
        "{err}"
    );
    assert!(err.contains("USAGE"), "{err}");
    assert!(!out_dir.exists(), "no run directory may be created");
    cleanup(&data_dir);
}

#[test]
fn corrupt_street_map_is_rejected() {
    let dir = tmp_dir("corrupt");
    let csv = dir.join("epcs.csv");
    // Minimal valid generate first.
    let o = run_cli(&[
        "generate",
        "--records",
        "50",
        "--out-dir",
        dir.to_str().unwrap(),
    ]);
    assert!(o.status.success());
    std::fs::write(dir.join("bad_streets.txt"), "not a street map\n").unwrap();
    let o = run_cli(&[
        "clean",
        "--data",
        csv.to_str().unwrap(),
        "--streets",
        dir.join("bad_streets.txt").to_str().unwrap(),
        "--out",
        dir.join("c.csv").to_str().unwrap(),
    ]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("unexpected header"));
    cleanup(&dir);
}

#[test]
fn clean_quarantines_non_finite_records_like_run() {
    let dir = tmp_dir("clean-nan");
    let o = run_cli(&[
        "generate",
        "--records",
        "800",
        "--seed",
        "3",
        "--out-dir",
        dir.to_str().unwrap(),
    ]);
    assert!(o.status.success(), "generate failed: {}", stderr(&o));

    // Plant one non-finite value: EPC-000004's heated volume.
    let csv = dir.join("epcs.csv");
    let text = std::fs::read_to_string(&csv).unwrap();
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    let col = lines[0]
        .split(',')
        .position(|h| h == "heated_volume")
        .expect("heated_volume column");
    let row = lines
        .iter()
        .position(|l| l.starts_with("EPC-000004,"))
        .expect("EPC-000004 row");
    let mut fields: Vec<&str> = lines[row].split(',').collect();
    fields[col] = "NaN";
    lines[row] = fields.join(",");
    std::fs::write(&csv, lines.join("\n") + "\n").unwrap();

    let cleaned = dir.join("cleaned.csv");
    let o = run_cli(&[
        "clean",
        "--data",
        csv.to_str().unwrap(),
        "--streets",
        dir.join("street_map.txt").to_str().unwrap(),
        "--out",
        cleaned.to_str().unwrap(),
    ]);
    assert!(o.status.success(), "clean failed: {}", stderr(&o));
    let out = std::fs::read_to_string(&cleaned).unwrap();
    assert!(!out.contains("NaN"), "the non-finite record leaked");
    assert!(!out.contains("EPC-000004,"), "EPC-000004 was kept");
    assert!(
        stdout(&o).contains("quarantine: 1 records (non_finite: 1)"),
        "{}",
        stdout(&o)
    );
    cleanup(&dir);
}

fn cleanup(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}
