//! `perfbench` — the INDICE benchmark.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     [--workload NAME|all] [--seed N] [--seconds N] [--trace 0|1] [--runs N] [--scale F]
//! ```
//!
//! For each workload perfbench generates the inputs from the seed
//! (untimed), then launches measured child processes, one at a time, until
//! `--seconds` have passed (at least three). Each child loads the input
//! files and makes the call `indice run` or `indice ingest --resume` makes.
//! It checks every run's outputs and prints each metric by name
//! and unit; the last line of standard output is one JSON object. With
//! `--trace 1` one more child runs the traced decomposition and the JSON
//! object carries the per-layer metrics instead. See README.md.

mod child;
mod stats;
mod trace;
mod tree;
mod workload;

use stats::Summary;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workload::{Workload, WORKLOADS};

/// Fewest measured runs per workload, however long they take.
const MIN_RUNS: usize = 3;

/// Seed of the committed golden tree hashes.
const GOLDEN_SEED: u64 = 2024;

/// `workload name → tree hash` of the run directory at seed 2024, scale 1.
const GOLDEN: &str = include_str!("../golden.json");

/// Where inputs and run directories live while perfbench runs (removed
/// at exit) and where traces are kept, relative to the working directory.
const WORK_DIR: &str = ".perfbench";

/// The benchmark's definition; its `end_to_end` list names the metrics,
/// units and regression bounds perfbench reports.
const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

/// An end-to-end metric: name, unit, and the regression bound (share of
/// the baseline median).
struct Metric {
    name: String,
    unit: String,
    bound: f64,
}

/// Metrics a measured run reports.
const RUN_METRICS: &[&str] = &["setup_s", "run_s", "peak_rss_mb", "resolved_frac"];

fn end_to_end() -> Result<Vec<Metric>, String> {
    let v: serde_json::Value =
        serde_json::from_str(BENCHMARK).map_err(|e| format!("parsing BENCHMARK.json: {e}"))?;
    let list = v
        .get("end_to_end")
        .and_then(serde_json::Value::as_array)
        .ok_or("BENCHMARK.json lacks end_to_end")?;
    list.iter()
        .map(|m| {
            let text = |key: &str| {
                m.get(key)
                    .and_then(serde_json::Value::as_str)
                    .map(str::to_owned)
                    .ok_or_else(|| format!("BENCHMARK.json end_to_end entry lacks {key}"))
            };
            let name = text("name")?;
            if !RUN_METRICS.contains(&name.as_str()) {
                return Err(format!("BENCHMARK.json names unknown metric {name:?}"));
            }
            Ok(Metric {
                unit: text("unit")?,
                bound: m
                    .get("bound")
                    .and_then(serde_json::Value::as_f64)
                    .ok_or_else(|| format!("{name} has no bound"))?,
                name,
            })
        })
        .collect()
}

struct Args {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    runs: usize,
    scale: f64,
}

const USAGE: &str = "usage: perfbench [--workload NAME|all] [--seed N] [--seconds N] \
[--trace 0|1] [--runs N] [--scale F]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: WORKLOADS.iter().collect(),
        seed: GOLDEN_SEED,
        seconds: 30,
        trace: false,
        runs: 1,
        scale: 1.0,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                args.workloads = if name == "all" {
                    WORKLOADS.iter().collect()
                } else {
                    vec![workload::find(&name)?]
                };
            }
            "--seed" => args.seed = parse_num(&value("--seed")?, "--seed")?,
            "--seconds" => args.seconds = parse_num(&value("--seconds")?, "--seconds")?,
            "--runs" => args.runs = parse_num::<usize>(&value("--runs")?, "--runs")?.max(1),
            "--scale" => {
                args.scale = parse_num(&value("--scale")?, "--scale")?;
                if !(args.scale > 0.0 && args.scale <= 1.0) {
                    return Err("--scale must be in (0, 1]".into());
                }
            }
            "--trace" => {
                // Bare `--trace` turns tracing on; `--trace 0|1` sets it.
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "-h" | "--help" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(args)
}

fn parse_num<T: std::str::FromStr>(raw: &str, flag: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("{flag}: {raw:?} is not a valid number"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(CHILD_FLAG) {
        return match child_main(&argv[1..]) {
            Ok(line) => {
                println!("{line}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench child: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match drive(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// First argument of a measured child process.
const CHILD_FLAG: &str = "--child";

/// `--child WORKLOAD INPUTS RUN_DIR SEALED_UNRESOLVED [TRACE_FILE]`
fn child_main(argv: &[String]) -> Result<String, String> {
    let [name, inputs, run_dir, sealed, rest @ ..] = argv else {
        return Err(format!("bad child arguments {argv:?}"));
    };
    let w = workload::find(name)?;
    let sealed_unresolved = parse_num(sealed, "sealed unresolved")?;
    match rest {
        [] => child::measure(w, Path::new(inputs), Path::new(run_dir), sealed_unresolved)
            .map(|s| s.to_json()),
        [trace_file] => trace::run(
            w,
            Path::new(inputs),
            Path::new(run_dir),
            Path::new(trace_file),
        ),
        _ => Err(format!("bad child arguments {argv:?}")),
    }
}

/// Everything measured for one workload at one seed.
struct Measurement {
    workload: &'static Workload,
    seed: u64,
    samples: Vec<child::RunSample>,
    /// Runs attempted and runs that errored or failed a check.
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
    tree_hash: Option<String>,
    /// Per-layer metrics of the traced run: name → (value, unit).
    layers: BTreeMap<String, (f64, String)>,
}

impl Measurement {
    fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && !self.samples.is_empty()
    }

    /// Per-run values of an end-to-end metric. A run that errored or
    /// failed a check resolved no certificate.
    fn values(&self, metric: &str) -> Vec<f64> {
        if metric == "resolved_frac" {
            let passed = self.attempted - self.failed;
            let mut v: Vec<f64> = self
                .samples
                .iter()
                .take(passed)
                .map(|s| 1.0 - s.failed_records as f64 / s.records_in.max(1) as f64)
                .collect();
            v.resize(self.attempted, 0.0);
            return v;
        }
        self.samples
            .iter()
            .map(|s| match metric {
                "setup_s" => s.setup_s,
                "run_s" => s.run_s,
                _ => s.peak_rss_mb,
            })
            .collect()
    }
}

fn drive(args: &Args) -> Result<bool, String> {
    let work_root = Path::new(WORK_DIR)
        .join("work")
        .join(std::process::id().to_string());
    let result = drive_in(args, &work_root);
    let cleanup = tree::remove_tree(&work_root);
    let ok = result?;
    cleanup?;
    Ok(ok)
}

fn drive_in(args: &Args, work_root: &Path) -> Result<bool, String> {
    let goldens: BTreeMap<String, String> =
        serde_json::from_str(GOLDEN).map_err(|e| format!("parsing golden.json: {e}"))?;
    let metrics = end_to_end()?;
    let mut all: Vec<Measurement> = Vec::new();
    for round in 0..args.runs {
        // Alternate the workload order so no workload always runs first.
        let mut order = args.workloads.clone();
        if round % 2 == 1 {
            order.reverse();
        }
        let seed = args.seed + round as u64;
        for w in order {
            let m = measure_workload(w, seed, args, work_root, &goldens);
            print_measurement(&m, &metrics, args.trace);
            all.push(m);
        }
    }
    if args.runs > 1 {
        print_runs_summary(&all, &metrics, args);
    }
    let correct = all.iter().all(Measurement::correct);
    println!("{}", result_json(&all, &metrics, args));
    Ok(correct)
}

fn measure_workload(
    w: &'static Workload,
    seed: u64,
    args: &Args,
    work_root: &Path,
    goldens: &BTreeMap<String, String>,
) -> Measurement {
    let mut m = Measurement {
        workload: w,
        seed,
        samples: Vec::new(),
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        tree_hash: None,
        layers: BTreeMap::new(),
    };
    let dir = work_root.join(w.name);
    if let Err(e) = measure_into(&mut m, args, &dir, goldens) {
        m.problems.push(e);
    }
    if let Err(e) = tree::remove_tree(&dir) {
        m.problems.push(e);
    }
    m
}

fn measure_into(
    m: &mut Measurement,
    args: &Args,
    dir: &Path,
    goldens: &BTreeMap<String, String>,
) -> Result<(), String> {
    let w = m.workload;
    tree::remove_tree(dir)?;
    let inputs = dir.join("inputs");
    workload::generate(w, m.seed, args.scale, &inputs)?;
    let sealed = dir.join("sealed");
    let sealed_unresolved = if w.is_append() {
        workload::seal_prefix(w, &inputs, &sealed)?
    } else {
        0
    };
    let run_dir = dir.join("run");
    let fresh_run_dir = || -> Result<(), String> {
        tree::remove_tree(&run_dir)?;
        if w.is_append() {
            tree::copy_tree(&sealed, &run_dir)?;
        }
        Ok(())
    };

    let window = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut hashes: BTreeSet<String> = BTreeSet::new();
    while m.attempted < MIN_RUNS || start.elapsed() < window {
        fresh_run_dir()?;
        m.attempted += 1;
        let outcome = spawn_child(
            &[
                w.name,
                &path_arg(&inputs),
                &path_arg(&run_dir),
                &sealed_unresolved.to_string(),
            ],
            None,
        )
        .and_then(|line| child::RunSample::from_json(&line))
        .and_then(|s| tree::tree_hash(&run_dir).map(|h| (s, h)));
        match outcome {
            Ok((sample, hash)) => {
                m.samples.push(sample);
                hashes.insert(hash);
            }
            Err(e) => {
                m.failed += 1;
                m.problems.push(e);
            }
        }
    }
    tree::remove_tree(&run_dir)?;

    // Every run of one seed must commit the same bytes, and at the golden
    // seed those bytes are pinned.
    if hashes.len() > 1 {
        m.failed = m.attempted;
        m.problems.push(format!(
            "runs of one seed committed {} different trees",
            hashes.len()
        ));
    }
    m.tree_hash = hashes.into_iter().next();
    if m.seed == GOLDEN_SEED && args.scale == 1.0 {
        let golden = goldens.get(w.name);
        if golden != m.tree_hash.as_ref() {
            m.failed = m.attempted;
            m.problems.push(format!(
                "tree hash {:?} differs from the golden {:?} in golden.json",
                m.tree_hash, golden
            ));
        }
    }

    if args.trace {
        fresh_run_dir()?;
        let trace_dir = Path::new(WORK_DIR).join("traces");
        std::fs::create_dir_all(&trace_dir)
            .map_err(|e| format!("creating {}: {e}", trace_dir.display()))?;
        let trace_file = trace_dir.join(format!("{}-seed{}.jsonl", w.name, m.seed));
        let line = spawn_child(
            &[
                w.name,
                &path_arg(&inputs),
                &path_arg(&run_dir),
                &sealed_unresolved.to_string(),
            ],
            Some(&trace_file),
        )?;
        let traced = trace::parse(&line)?;
        if Some(&traced.tree) != m.tree_hash.as_ref() {
            m.problems.push(format!(
                "the traced run committed tree {}, the measured runs {:?}",
                traced.tree, m.tree_hash
            ));
        }
        m.layers = traced.layers;
        tree::remove_tree(&run_dir)?;
    }
    Ok(())
}

fn path_arg(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

/// Runs one child to completion and returns the last line of its standard
/// output. The child inherits no `INDICE_*` variable.
fn spawn_child(args: &[&str], trace_file: Option<&PathBuf>) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the perfbench binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg(CHILD_FLAG).args(args);
    if let Some(t) = trace_file {
        cmd.arg(t);
    }
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("INDICE_") {
            cmd.env_remove(key);
        }
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("launching a measured run: {e}"))?;
    if !out.status.success() {
        return Err(format!("{} run failed ({})", args[0], out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .map(str::to_owned)
        .ok_or_else(|| format!("{} run printed nothing", args[0]))
}

fn print_measurement(m: &Measurement, metrics: &[Metric], traced: bool) {
    let status = if m.correct() {
        "checks pass"
    } else {
        "CHECKS FAIL"
    };
    println!(
        "{} seed {}: {} runs, {} failed; {status}; tree {}",
        m.workload.name,
        m.seed,
        m.attempted,
        m.failed,
        m.tree_hash.as_deref().unwrap_or("-")
    );
    for p in &m.problems {
        println!("  problem: {p}");
    }
    let runs: Vec<String> = m
        .samples
        .iter()
        .map(|s| format!("{:.3}", s.run_s))
        .collect();
    println!("  run_s per run: {}", runs.join(" "));
    for metric in metrics {
        if let Some(s) = Summary::of(&m.values(&metric.name)) {
            println!(
                "  {:<14} {:>12.6} {:<5}  q1 {:.6}  q3 {:.6}  n {}",
                metric.name, s.median, metric.unit, s.q1, s.q3, s.n
            );
        }
    }
    if traced {
        for (name, (value, unit)) in &m.layers {
            println!("  {name:<34} {value:>14.6} {unit}");
        }
    }
}

/// With `--runs N`: per workload, the median over runs of each metric, its
/// quartiles, and the spread as a share of the metric's bound.
fn print_runs_summary(all: &[Measurement], metrics: &[Metric], args: &Args) {
    println!(
        "summary over {} runs (seeds {}..{}):",
        args.runs,
        args.seed,
        args.seed + args.runs as u64 - 1
    );
    for w in &args.workloads {
        let ms: Vec<&Measurement> = all.iter().filter(|m| m.workload.name == w.name).collect();
        println!("  {}", w.name);
        for metric in metrics {
            let medians: Vec<f64> = ms
                .iter()
                .filter_map(|m| Summary::of(&m.values(&metric.name)))
                .map(|s| s.median)
                .collect();
            if let Some(s) = Summary::of(&medians) {
                println!(
                    "    {:<14} median {:.6} {}  q1 {:.6}  q3 {:.6}  spread {:.4} = {:.2} of bound {}",
                    metric.name,
                    s.median,
                    metric.unit,
                    s.q1,
                    s.q3,
                    s.spread(),
                    s.spread() / metric.bound,
                    metric.bound
                );
            }
        }
    }
}

/// The last line of standard output. One workload run once: the metrics
/// under their own names. Otherwise each name is prefixed with the
/// workload and the value is the median over runs.
fn result_json(all: &[Measurement], end_to_end: &[Metric], args: &Args) -> String {
    let single = all.len() == 1;
    let mut metrics = serde_json::Map::new();
    for w in &args.workloads {
        let ms: Vec<&Measurement> = all.iter().filter(|m| m.workload.name == w.name).collect();
        let mut put = |name: &str, unit: &str, values: Vec<f64>| {
            if let Some(s) = Summary::of(&values) {
                let key = if single {
                    name.to_owned()
                } else {
                    format!("{}.{name}", w.name)
                };
                metrics.insert(key, serde_json::json!({"value": s.median, "unit": unit}));
            }
        };
        if args.trace {
            let names: BTreeSet<&String> = ms.iter().flat_map(|m| m.layers.keys()).collect();
            for name in names {
                let unit = ms
                    .iter()
                    .find_map(|m| m.layers.get(name).map(|(_, u)| u.as_str()))
                    .unwrap_or("");
                let values = ms
                    .iter()
                    .filter_map(|m| m.layers.get(name).map(|(v, _)| *v))
                    .collect();
                put(name, unit, values);
            }
        } else {
            for metric in end_to_end {
                let values = ms
                    .iter()
                    .filter_map(|m| Summary::of(&m.values(&metric.name)))
                    .map(|s| s.median)
                    .collect();
                put(&metric.name, &metric.unit, values);
            }
        }
    }
    serde_json::json!({
        "correct": all.iter().all(Measurement::correct),
        "attempted": all.iter().map(|m| m.attempted).sum::<usize>().max(1),
        "failed": all.iter().map(|m| m.failed).sum::<usize>(),
        "metrics": serde_json::Value::Object(metrics),
    })
    .to_string()
}
