//! Smoke test: every workload at 1/50 size through the perfbench binary,
//! untraced and traced. Every metric BENCHMARK.json defines must be
//! emitted, for every workload, with its unit, and every check must pass.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// The workloads and metrics the benchmark defines.
const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

/// `name` of every entry of the list `key` in BENCHMARK.json, with its
/// `unit` when the entries have one.
fn defined(key: &str) -> Vec<(String, String)> {
    let v: serde_json::Value = serde_json::from_str(BENCHMARK).expect("BENCHMARK.json parses");
    v.get(key)
        .and_then(|l| l.as_array())
        .expect("a list")
        .iter()
        .map(|e| {
            let field = |k: &str| e.get(k).and_then(|x| x.as_str()).unwrap_or("").to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs perfbench in `dir` and returns its last line, parsed.
fn drive(dir: &Path, trace: &str) -> serde_json::Value {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "all",
            "--scale",
            "0.02",
            "--seconds",
            "0",
            "--trace",
            trace,
        ])
        .current_dir(dir)
        .output()
        .expect("perfbench starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "perfbench failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    serde_json::from_str(stdout.lines().last().expect("a result line")).expect("a JSON result")
}

fn assert_metrics(result: &serde_json::Value, expected: &[(String, String)]) {
    assert_eq!(
        result.get("correct").and_then(|v| v.as_bool()),
        Some(true),
        "{result}"
    );
    assert_eq!(
        result.get("failed").and_then(|v| v.as_u64()),
        Some(0),
        "{result}"
    );
    assert!(
        result
            .get("attempted")
            .and_then(|v| v.as_u64())
            .unwrap_or(0)
            >= 1
    );
    let metrics = result
        .get("metrics")
        .and_then(|v| v.as_object())
        .expect("a metrics object");
    let mut want = BTreeMap::new();
    for (w, _) in defined("workloads") {
        for (name, unit) in expected {
            want.insert(format!("{w}.{name}"), unit.as_str());
        }
    }
    let got: BTreeMap<String, &str> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(|v| v.as_f64()).is_some(),
                "{name} has no value"
            );
            (
                name.clone(),
                m.get("unit").and_then(|u| u.as_str()).unwrap_or(""),
            )
        })
        .collect();
    assert_eq!(got, want);
}

#[test]
fn every_workload_emits_every_metric_and_passes_its_checks() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    std::fs::create_dir_all(&dir).expect("a scratch directory");
    assert_metrics(&drive(&dir, "0"), &defined("end_to_end"));
    assert_metrics(&drive(&dir, "1"), &defined("per_layer"));
}
