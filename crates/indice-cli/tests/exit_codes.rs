//! Exit-code matrix of the `indice run` supervisor (ISSUE 5): one table
//! driving the binary through every outcome class — 0 complete, 3
//! degraded, 1 failed (data-quality circuit breaker), 70 injected crash.

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
    let dir = std::env::temp_dir().join(format!("indice-exit-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

/// Generates the shared 600-record seed-5 collection used by every row.
fn generate_data(dir: &Path) {
    let o = run_cli(&[
        "generate",
        "--records",
        "600",
        "--seed",
        "5",
        "--out-dir",
        dir.to_str().unwrap(),
    ]);
    assert!(o.status.success(), "generate failed: {}", stderr(&o));
}

#[test]
fn run_exit_code_matrix() {
    let data_dir = tmp_dir("data");
    generate_data(&data_dir);

    // (case name, extra flags, expected exit code, expected stream text)
    let matrix: &[(&str, &[&str], i32, &str)] = &[
        ("complete", &[], 0, "outcome: complete"),
        (
            "degraded",
            &[
                "--fault-seed",
                "7",
                "--fault-rate",
                "0.2",
                "--geocode-fail-rate",
                "0.1",
            ],
            3,
            "outcome: degraded",
        ),
        (
            "failed-circuit-breaker",
            &[
                "--fault-seed",
                "7",
                "--fault-rate",
                "0.2",
                "--max-quarantine-frac",
                "0.0",
            ],
            1,
            "exceeds --max-quarantine-frac",
        ),
        (
            "crashed",
            &["--crash-at", "preprocess:after"],
            70,
            "injected crash fired at stage 'preprocess'",
        ),
    ];

    for (name, extra, expected_code, expected_text) in matrix {
        let out_dir = tmp_dir(&format!("out-{name}"));
        let mut args = vec![
            "run".to_owned(),
            "--data".to_owned(),
            data_dir.join("epcs.csv").to_str().unwrap().to_owned(),
            "--streets".to_owned(),
            data_dir.join("street_map.txt").to_str().unwrap().to_owned(),
            "--regions".to_owned(),
            data_dir.join("regions.json").to_str().unwrap().to_owned(),
            "--stakeholder".to_owned(),
            "citizen".to_owned(),
            "--out-dir".to_owned(),
            out_dir.to_str().unwrap().to_owned(),
        ];
        args.extend(extra.iter().map(|s| s.to_string()));
        let arg_refs: Vec<&str> = args.iter().map(String::as_str).collect();
        let o = run_cli(&arg_refs);
        assert_eq!(
            o.status.code(),
            Some(*expected_code),
            "case {name}: expected exit {expected_code}; stderr: {}",
            stderr(&o)
        );
        let combined = format!(
            "{}{}",
            String::from_utf8_lossy(&o.stdout),
            String::from_utf8_lossy(&o.stderr)
        );
        assert!(
            combined.contains(expected_text),
            "case {name}: missing {expected_text:?} in output:\n{combined}"
        );
        let _ = std::fs::remove_dir_all(&out_dir);
    }

    let _ = std::fs::remove_dir_all(&data_dir);
}

#[test]
fn run_writes_metrics_and_trace_snapshots() {
    let data_dir = tmp_dir("obs-data");
    generate_data(&data_dir);
    let out_dir = tmp_dir("obs-out");
    let metrics_json = out_dir.join("metrics.json");
    let metrics_prom = out_dir.join("metrics.prom");
    let trace = out_dir.join("trace.jsonl");

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
        out_dir.join("run1").to_str().unwrap(),
        "--metrics-out",
        metrics_json.to_str().unwrap(),
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    assert_eq!(o.status.code(), Some(0), "{}", stderr(&o));

    let metrics = std::fs::read_to_string(&metrics_json).unwrap();
    assert!(metrics.starts_with('{'), "JSON codec for .json paths");
    assert!(metrics.contains("\"stage_preprocess_records_in\""));
    assert!(metrics.contains("\"checkpoint_files_total\""));

    let trace_text = std::fs::read_to_string(&trace).unwrap();
    assert!(trace_text.contains("\"name\": \"stage:preprocess\""));
    assert!(trace_text.contains("\"name\": \"journal:commit\""));
    assert!(trace_text.contains("\"wall_ms\""));
    // Dense logical sequence numbers from zero.
    for (i, line) in trace_text.lines().enumerate() {
        assert!(
            line.starts_with(&format!("{{\"seq\": {i}, ")),
            "line {i} out of sequence: {line}"
        );
    }

    // Any non-.json extension selects the Prometheus-style exposition.
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
        out_dir.join("run2").to_str().unwrap(),
        "--metrics-out",
        metrics_prom.to_str().unwrap(),
    ]);
    assert_eq!(o.status.code(), Some(0), "{}", stderr(&o));
    let prom = std::fs::read_to_string(&metrics_prom).unwrap();
    assert!(prom.contains("# TYPE"), "text exposition has TYPE comments");
    assert!(prom.contains("stage_preprocess_records_in"));

    let _ = std::fs::remove_dir_all(&data_dir);
    let _ = std::fs::remove_dir_all(&out_dir);
}

#[test]
fn bench_emits_snapshot_and_exits_by_outcome() {
    let dir = tmp_dir("bench");
    let out = dir.join("BENCH_5.json");
    let o = run_cli(&[
        "bench",
        "--records",
        "500",
        "--seed",
        "5",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert_eq!(o.status.code(), Some(0), "{}", stderr(&o));
    let snap = std::fs::read_to_string(&out).unwrap();
    for key in [
        "\"schema\": \"indice-bench/4\"",
        "\"records\": 500",
        "\"load\": {\"csv_bytes\": ",
        "\"load_ms\": ",
        "\"input_hash_ms\": ",
        "\"stages\": [",
        "\"name\": \"preprocess\"",
        "\"name\": \"analytics\"",
        "\"name\": \"dashboard\"",
        "\"total_wall_ms\":",
        "\"records_per_sec\":",
        "\"peak_shard_imbalance\":",
        "\"durable_wall_ms\":",
        "\"kept_records\":",
        "\"outcome\": \"complete\"",
    ] {
        assert!(snap.contains(key), "missing {key} in snapshot:\n{snap}");
    }
    // One run per size, carried by the size block itself.
    let parsed: serde_json::Value = serde_json::from_str(&snap).unwrap();
    let run = &parsed["runs"][0];
    assert_eq!(run["records"], 500);
    assert_eq!(run["stages"].as_array().map(Vec::len), Some(3));
    assert_eq!(run["deterministic"]["outcome"], "complete");
    assert!(!snap.contains("engine"), "{snap}");
    let _ = std::fs::remove_dir_all(&dir);
}
