//! Dependency-free command-line argument parsing for the `indice` binary.

use epc_faults::{BatchScope, CrashSpec, IngestCrash};
use epc_query::Stakeholder;
use indice::generations::RecomputeMode;
use indice::pipeline::Stage;
use std::collections::HashMap;

/// Environment variable holding the per-stage deadline budget (ms).
pub const STAGE_DEADLINE_ENV_VAR: &str = "INDICE_STAGE_DEADLINE_MS";

/// Noise presets for `generate`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoisePreset {
    /// No corruption (clean collection).
    None,
    /// The default corruption mix.
    Default,
    /// Typo-heavy corruption for cleaning experiments.
    Heavy,
}

/// A parsed CLI command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Generate a synthetic collection to disk.
    Generate {
        /// Number of certificates.
        records: usize,
        /// RNG seed.
        seed: u64,
        /// Corruption preset.
        noise: NoisePreset,
        /// Output directory.
        out_dir: String,
    },
    /// Print per-attribute summary statistics of a CSV collection.
    Describe {
        /// Path to the EPC CSV.
        data: String,
    },
    /// Run the full pipeline and write the dashboards.
    Run {
        /// Path to the EPC CSV.
        data: String,
        /// Path to the referenced street map.
        streets: String,
        /// Path to the region-hierarchy JSON.
        regions: String,
        /// Target stakeholder.
        stakeholder: Stakeholder,
        /// The run directory (journal, checkpoints, and artifacts).
        out_dir: String,
        /// Resume from the run directory's journal instead of starting
        /// over (`--resume DIR` instead of `--out-dir DIR`).
        resume: bool,
        /// Seed of the deterministic fault injector (chaos testing).
        fault_seed: u64,
        /// Fraction of records the injector corrupts (0 disables).
        fault_rate: f64,
        /// Fraction of geocoder calls the injector fails transiently.
        geocode_fail_rate: f64,
        /// Abort (exit 1) when more than this fraction of input records
        /// ends up quarantined.
        max_quarantine_frac: Option<f64>,
        /// Injected crash point for durability testing (`stage:point`).
        crash_at: Option<CrashSpec>,
        /// Write a metrics snapshot here after the run (`.json` selects
        /// the JSON codec, anything else the Prometheus-style text).
        metrics_out: Option<String>,
        /// Write the structured span/point trace here (JSON Lines).
        trace_out: Option<String>,
    },
    /// Run an in-memory synthetic pipeline and emit a benchmark snapshot.
    Bench {
        /// Collection sizes to benchmark (from `--records N[,M...]`).
        records: Vec<usize>,
        /// RNG seed for the synthetic collection.
        seed: u64,
        /// Engines to run at each size (from `--engines row[,columnar]`).
        /// With more than one, the snapshot carries a side-by-side
        /// comparison and the run fails if their outputs diverge.
        engines: Vec<epc_runtime::Engine>,
        /// Output path for the indice-bench/2 snapshot.
        out: String,
    },
    /// Print the auto-configuration advice for a collection.
    SuggestConfig {
        /// Path to the EPC CSV.
        data: String,
    },
    /// Run only the pre-processing stage and write the cleaned CSV.
    Clean {
        /// Path to the EPC CSV.
        data: String,
        /// Path to the referenced street map.
        streets: String,
        /// Output CSV path.
        out: String,
    },
    /// Fold micro-batches into a generation-journaled run directory.
    Ingest {
        /// Batch CSV paths in ingest order (from `--append a.csv,b.csv`).
        append: Vec<String>,
        /// Path to the referenced street map.
        streets: String,
        /// Path to the region-hierarchy JSON.
        regions: String,
        /// Target stakeholder.
        stakeholder: Stakeholder,
        /// The ingest run directory (`gens/`, manifest, and `current/`).
        run_dir: String,
        /// Fold into a directory that already holds sealed generations
        /// (`--resume DIR` instead of `--into DIR`).
        resume: bool,
        /// Analytics recompute mode across generations.
        recompute: RecomputeMode,
        /// Injected crash at a batch boundary (`N:before|after|torn`).
        crash_at_batch: Option<IngestCrash>,
        /// Seed of the deterministic fault injector (chaos testing).
        fault_seed: u64,
        /// Fraction of records the injector corrupts (0 disables).
        fault_rate: f64,
        /// Restrict the injector to these batch indices (`all` or
        /// `0,2-4`); `None` corrupts every batch when a rate is set.
        corrupt_batches: Option<BatchScope>,
    },
    /// Run a multi-city fleet under the shard coordinator.
    Fleet {
        /// Number of cities in the fleet plan.
        cities: usize,
        /// Base records per city (scaled by each city's size class).
        records: usize,
        /// Fleet seed (city plans and synthesis derive from it).
        seed: u64,
        /// The fleet directory (fleet journal, per-city run dirs, merged
        /// artifacts).
        out_dir: String,
        /// Resume from the fleet journal instead of starting fresh.
        resume: bool,
        /// Target stakeholder for every shard.
        stakeholder: Stakeholder,
        /// Tolerate at most this many abandoned cities before the fleet
        /// fails outright (exit 1 instead of 3).
        max_failed_cities: Option<usize>,
        /// Shard attempts per city (>= 1).
        retry_budget: u32,
        /// Kill a stage of this city's shard (chaos testing).
        kill_city: Option<usize>,
        /// Stage to kill (`preprocess`/`analytics`/`dashboard`).
        kill_stage: String,
        /// Kill only on this attempt; `None` kills every attempt.
        kill_attempt: Option<u32>,
        /// Corrupt only this city's records (chaos testing).
        corrupt_city: Option<usize>,
        /// Record-corruption rate for the corrupted city.
        fault_rate: f64,
        /// Fault-plan seed.
        fault_seed: u64,
        /// Crash the coordinator at a city boundary
        /// (`IDX:before` / `IDX:after`; durability testing, exit 70).
        crash_at_city: Option<(usize, String)>,
    },
    /// Print usage.
    Help,
}

/// Usage text.
pub const USAGE: &str = "\
indice — INformative DynamiC dashboard Engine (EPC analysis)

USAGE:
  indice generate --records N [--seed S] [--noise none|default|heavy] --out-dir DIR
  indice describe --data epcs.csv
  indice run --data epcs.csv --streets street_map.txt --regions regions.json \\
             [--stakeholder pa|citizen|scientist] (--out-dir DIR | --resume DIR) \\
             [--max-quarantine-frac F] [--fault-seed S] [--fault-rate R] \\
             [--geocode-fail-rate R] [--crash-at STAGE:POINT] \\
             [--metrics-out FILE] [--trace-out FILE]
  indice ingest --append a.csv,b.csv,... --streets street_map.txt \\
             --regions regions.json (--into DIR | --resume DIR) \\
             [--stakeholder pa|citizen|scientist] [--recompute exact|warm] \\
             [--crash-at-batch N:before|after|torn] \\
             [--fault-seed S] [--fault-rate R] [--corrupt-batches all|0,2-4]
  indice fleet run --cities N [--records N] [--seed S] \\
             (--out-dir DIR | --resume DIR) [--stakeholder pa|citizen|scientist] \\
             [--max-failed-cities K] [--retry-budget N] \\
             [--kill-city IDX [--kill-stage STAGE] [--kill-attempt N|all]] \\
             [--corrupt-city IDX [--fault-rate R]] [--fault-seed S] \\
             [--crash-at-city IDX:before|after]
  indice bench --records N[,M...] [--seed S] \\
             [--engines row[,columnar]] --out bench.json
  indice suggest-config --data epcs.csv
  indice clean --data epcs.csv --streets street_map.txt --out cleaned.csv
  indice help

`run` executes under a stage supervisor: malformed records are diverted
into a quarantine, transient geocoder failures are retried with
deterministic backoff (district-centroid fallback once the budget is
exhausted), and an analytics failure degrades the dashboard instead of
aborting. Exit codes: 0 complete, 3 degraded (partial output written),
1 failed, 70 injected crash.

`run` is durable: every completed stage is checkpointed into the run
directory with atomic writes and journaled in run.manifest.jsonl. After
an interruption, `--resume DIR` validates the journal, skips every stage
whose checkpoints verify, replays the rest, and finishes with artifacts
byte-identical to an uninterrupted run.

`--max-quarantine-frac F` aborts the run (exit 1) when more than the
given fraction of input records ends up quarantined — a data-quality
circuit breaker for unattended pipelines.

`--metrics-out FILE` writes a metrics snapshot after the run: counters,
gauges, and histograms from every stage (quarantine rules, geocoder
retries, K-means rounds, Apriori levels, dashboard markers, checkpoint
bytes). A `.json` extension selects the JSON codec; any other extension
the Prometheus-style text exposition. `--trace-out FILE` writes the
structured span/point trace as JSON Lines; every event carries a logical
sequence number, so the stream (minus wall-clock fields) is bitwise
identical at any thread count.

`ingest` folds micro-batches into a crash-safe incremental run: each
batch becomes a sealed *generation*, committed by an append-fsync'd line
in generations.manifest.jsonl only after its cleaning delta and
the regenerated `current/` artifacts are durably checkpointed. Killing
an ingest at any batch boundary and re-running with `--resume DIR`
finishes byte-identical to an uninterrupted ingest, and the final
`current/` directory is byte-identical to a one-shot `indice run` over
the concatenated input (`--recompute warm` relaxes only the K-means
seeding to a bounded-drift warm start; everything else stays exact).
A batch whose records cannot be selected or cleaned is *abandoned*:
recorded in the manifest, skipped, and the sealed generations before it
stay untouched.

  exit code  meaning
  ---------  -------------------------------------------------------
  0          complete — every batch sealed cleanly
  3          degraded — all batches sealed, some with degraded
             cleaning or analytics
  1          failed — at least one batch abandoned or a required
             stage failed
  70         injected crash at a batch boundary (resume with
             --resume DIR)

`fleet run` expands a seeded multi-city plan and runs every city's full
durable pipeline as a supervised shard: a panicking or failing shard is
retried within `--retry-budget` attempts (deterministic backoff), a city
that exhausts its budget degrades the fleet to a partial result instead
of sinking it, and shard lifecycle events are journaled so a crashed
fleet resumes replaying only unfinished cities — byte-identical to an
uninterrupted run. Merged cross-city metrics land in fleet.metrics.json
and the comparison dashboard in fleet_dashboard.html (failed cities as
explicit \"unavailable\" panels).

  exit code  meaning
  ---------  -------------------------------------------------------
  0          complete — every city committed
  3          degraded — some cities unavailable, partial fleet output
  1          failed — all cities failed, or more than
             --max-failed-cities were abandoned
  70         injected coordinator crash (resume with --resume DIR)

`bench` generates a synthetic collection in memory, runs the full
observed pipeline at each `--records` size, and writes a benchmark
snapshot (per-stage wall milliseconds and records/sec, peak shard
imbalance) to `--out`. With `--engines row,columnar` every size runs
once per engine; the snapshot carries the side-by-side numbers and the
command fails if the engines' outputs are not identical.

`--fault-seed` / `--fault-rate` / `--geocode-fail-rate` attach a
deterministic fault injector for chaos testing: the same seed and rates
reproduce the same faults, quarantine, and outputs at any thread count.
`--crash-at <stage>:<before|after|torn>` kills the run at the named
commit point (durability testing; exit 70).

ENVIRONMENT:
  INDICE_THREADS           thread budget for run/clean (default: all
                           hardware threads); outputs are identical for
                           any value
  INDICE_ENGINE            execution engine, `row` (default) or
                           `columnar`; outputs are byte-identical for
                           either — the columnar engine only changes how
                           scans, group-bys, cleaning, and clustering
                           gather their data
  INDICE_GEOCODE_RETRIES   retry budget for transient geocoder failures
                           (default: 3)
  INDICE_STAGE_DEADLINE_MS per-stage wall-clock budget in milliseconds;
                           an overrunning stage degrades the run
                           (default: unlimited)
";

/// Parses `argv[1..]` into a [`Command`].
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let Some(cmd) = args.first() else {
        return Ok(Command::Help);
    };
    // `fleet` takes a sub-command word before its flags.
    if cmd == "fleet" {
        return parse_fleet(&args[1..]);
    }
    let flags = parse_flags(&args[1..])?;
    let get = |name: &str| -> Result<&String, String> {
        flags
            .get(name)
            .ok_or_else(|| format!("missing required flag --{name}"))
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "generate" => {
            let records: usize = get("records")?
                .parse()
                .map_err(|e| format!("--records: {e}"))?;
            if records == 0 {
                return Err("--records must be positive".into());
            }
            let seed: u64 = flags
                .get("seed")
                .map(|s| s.parse().map_err(|e| format!("--seed: {e}")))
                .transpose()?
                .unwrap_or(2024);
            let noise = match flags.get("noise").map(String::as_str) {
                None | Some("default") => NoisePreset::Default,
                Some("none") => NoisePreset::None,
                Some("heavy") => NoisePreset::Heavy,
                Some(other) => return Err(format!("unknown --noise preset {other:?}")),
            };
            Ok(Command::Generate {
                records,
                seed,
                noise,
                out_dir: get("out-dir")?.clone(),
            })
        }
        "describe" => Ok(Command::Describe {
            data: get("data")?.clone(),
        }),
        "run" => {
            let stakeholder = match flags.get("stakeholder").map(String::as_str) {
                None | Some("pa") | Some("public-administration") => {
                    Stakeholder::PublicAdministration
                }
                Some("citizen") => Stakeholder::Citizen,
                Some("scientist") | Some("energy-scientist") => Stakeholder::EnergyScientist,
                Some(other) => return Err(format!("unknown --stakeholder {other:?}")),
            };
            let fault_seed: u64 = flags
                .get("fault-seed")
                .map(|s| s.parse().map_err(|e| format!("--fault-seed: {e}")))
                .transpose()?
                .unwrap_or(2024);
            let fault_rate = parse_rate(&flags, "fault-rate")?;
            let geocode_fail_rate = parse_rate(&flags, "geocode-fail-rate")?;
            let (out_dir, resume) = match (flags.get("out-dir"), flags.get("resume")) {
                (Some(_), Some(_)) => {
                    return Err(
                        "--out-dir and --resume are mutually exclusive (both name the run \
                         directory; --resume continues from its journal)"
                            .into(),
                    )
                }
                (Some(dir), None) => (dir.clone(), false),
                (None, Some(dir)) => (dir.clone(), true),
                (None, None) => {
                    return Err("missing required flag --out-dir (or --resume DIR)".into())
                }
            };
            let max_quarantine_frac = match flags.get("max-quarantine-frac") {
                Some(_) => Some(parse_rate(&flags, "max-quarantine-frac")?),
                None => None,
            };
            let crash_at = flags
                .get("crash-at")
                .map(|raw| CrashSpec::parse(raw).map_err(|e| format!("--crash-at: {e}")))
                .transpose()?;
            if let Some(spec) = &crash_at {
                check_stage("--crash-at", spec.stage())?;
            }
            Ok(Command::Run {
                data: get("data")?.clone(),
                streets: get("streets")?.clone(),
                regions: get("regions")?.clone(),
                stakeholder,
                out_dir,
                resume,
                fault_seed,
                fault_rate,
                geocode_fail_rate,
                max_quarantine_frac,
                crash_at,
                metrics_out: flags.get("metrics-out").cloned(),
                trace_out: flags.get("trace-out").cloned(),
            })
        }
        "bench" => {
            let records: Vec<usize> = get("records")?
                .split(',')
                .map(|s| s.trim().parse().map_err(|e| format!("--records: {e}")))
                .collect::<Result<_, _>>()?;
            if records.is_empty() || records.contains(&0) {
                return Err("--records must be a comma list of positive sizes".into());
            }
            let seed: u64 = flags
                .get("seed")
                .map(|s| s.parse().map_err(|e| format!("--seed: {e}")))
                .transpose()?
                .unwrap_or(2024);
            let engines: Vec<epc_runtime::Engine> = match flags.get("engines") {
                None => vec![epc_runtime::Engine::Row],
                Some(raw) => {
                    let engines: Vec<epc_runtime::Engine> = raw
                        .split(',')
                        .map(|s| {
                            epc_runtime::Engine::parse(Some(s.trim()))
                                .map_err(|e| format!("--engines: {e}"))
                        })
                        .collect::<Result<_, _>>()?;
                    if engines.is_empty() {
                        return Err("--engines must name at least one engine".into());
                    }
                    engines
                }
            };
            Ok(Command::Bench {
                records,
                seed,
                engines,
                out: get("out")?.clone(),
            })
        }
        "ingest" => {
            let append: Vec<String> = get("append")?
                .split(',')
                .map(|s| s.trim().to_owned())
                .filter(|s| !s.is_empty())
                .collect();
            if append.is_empty() {
                return Err("--append needs at least one batch CSV path".into());
            }
            let stakeholder = match flags.get("stakeholder").map(String::as_str) {
                None | Some("pa") | Some("public-administration") => {
                    Stakeholder::PublicAdministration
                }
                Some("citizen") => Stakeholder::Citizen,
                Some("scientist") | Some("energy-scientist") => Stakeholder::EnergyScientist,
                Some(other) => return Err(format!("unknown --stakeholder {other:?}")),
            };
            let (run_dir, resume) = match (flags.get("into"), flags.get("resume")) {
                (Some(_), Some(_)) => {
                    return Err(
                        "--into and --resume are mutually exclusive (both name the ingest \
                         directory; --resume folds onto its sealed generations)"
                            .into(),
                    )
                }
                (Some(dir), None) => (dir.clone(), false),
                (None, Some(dir)) => (dir.clone(), true),
                (None, None) => return Err("missing required flag --into (or --resume DIR)".into()),
            };
            let recompute = match flags.get("recompute") {
                None => RecomputeMode::Exact,
                Some(raw) => RecomputeMode::parse(raw).map_err(|e| format!("--recompute: {e}"))?,
            };
            let crash_at_batch = flags
                .get("crash-at-batch")
                .map(|raw| IngestCrash::parse(raw).map_err(|e| format!("--crash-at-batch: {e}")))
                .transpose()?;
            let fault_seed: u64 = flags
                .get("fault-seed")
                .map(|s| s.parse().map_err(|e| format!("--fault-seed: {e}")))
                .transpose()?
                .unwrap_or(2024);
            let corrupt_batches = flags
                .get("corrupt-batches")
                .map(|raw| BatchScope::parse(raw).map_err(|e| format!("--corrupt-batches: {e}")))
                .transpose()?;
            // `--corrupt-batches` alone turns a default rate on, mirroring
            // the fleet's `--corrupt-city`.
            let fault_rate = if flags.contains_key("fault-rate") {
                parse_rate(&flags, "fault-rate")?
            } else if corrupt_batches.is_some() {
                0.2
            } else {
                0.0
            };
            Ok(Command::Ingest {
                append,
                streets: get("streets")?.clone(),
                regions: get("regions")?.clone(),
                stakeholder,
                run_dir,
                resume,
                recompute,
                crash_at_batch,
                fault_seed,
                fault_rate,
                corrupt_batches,
            })
        }
        "suggest-config" => Ok(Command::SuggestConfig {
            data: get("data")?.clone(),
        }),
        "clean" => Ok(Command::Clean {
            data: get("data")?.clone(),
            streets: get("streets")?.clone(),
            out: get("out")?.clone(),
        }),
        other => Err(format!("unknown command {other:?}; try `indice help`")),
    }
}

/// Parses the `fleet` sub-commands (`args` starts at the sub-command
/// word).
fn parse_fleet(args: &[String]) -> Result<Command, String> {
    match args.first().map(String::as_str) {
        Some("run") => {}
        Some(other) => {
            return Err(format!(
                "unknown fleet sub-command {other:?}; try `indice fleet run`"
            ))
        }
        None => return Err("fleet needs a sub-command: `indice fleet run ...`".into()),
    }
    let flags = parse_flags(&args[1..])?;
    let cities: usize = flags
        .get("cities")
        .ok_or("missing required flag --cities")?
        .parse()
        .map_err(|e| format!("--cities: {e}"))?;
    if cities == 0 {
        return Err("--cities must be positive".into());
    }
    let records: usize = flags
        .get("records")
        .map(|s| s.parse().map_err(|e| format!("--records: {e}")))
        .transpose()?
        .unwrap_or(1200);
    if records == 0 {
        return Err("--records must be positive".into());
    }
    let seed: u64 = flags
        .get("seed")
        .map(|s| s.parse().map_err(|e| format!("--seed: {e}")))
        .transpose()?
        .unwrap_or(2024);
    let stakeholder = match flags.get("stakeholder").map(String::as_str) {
        None | Some("pa") | Some("public-administration") => Stakeholder::PublicAdministration,
        Some("citizen") => Stakeholder::Citizen,
        Some("scientist") | Some("energy-scientist") => Stakeholder::EnergyScientist,
        Some(other) => return Err(format!("unknown --stakeholder {other:?}")),
    };
    let (out_dir, resume) = match (flags.get("out-dir"), flags.get("resume")) {
        (Some(_), Some(_)) => {
            return Err(
                "--out-dir and --resume are mutually exclusive (both name the fleet \
                 directory; --resume continues from its journal)"
                    .into(),
            )
        }
        (Some(dir), None) => (dir.clone(), false),
        (None, Some(dir)) => (dir.clone(), true),
        (None, None) => return Err("missing required flag --out-dir (or --resume DIR)".into()),
    };
    let max_failed_cities = flags
        .get("max-failed-cities")
        .map(|s| s.parse().map_err(|e| format!("--max-failed-cities: {e}")))
        .transpose()?;
    let retry_budget: u32 = flags
        .get("retry-budget")
        .map(|s| s.parse().map_err(|e| format!("--retry-budget: {e}")))
        .transpose()?
        .unwrap_or(2);
    if retry_budget == 0 {
        return Err("--retry-budget must be at least 1".into());
    }
    let kill_city: Option<usize> = flags
        .get("kill-city")
        .map(|s| s.parse().map_err(|e| format!("--kill-city: {e}")))
        .transpose()?;
    let kill_stage = flags
        .get("kill-stage")
        .cloned()
        .unwrap_or_else(|| "preprocess".to_owned());
    check_stage("--kill-stage", &kill_stage)?;
    let kill_attempt = match flags.get("kill-attempt").map(String::as_str) {
        None | Some("all") => None,
        Some(raw) => Some(raw.parse().map_err(|e| format!("--kill-attempt: {e}"))?),
    };
    if kill_city.is_none()
        && (flags.contains_key("kill-stage") || flags.contains_key("kill-attempt"))
    {
        return Err("--kill-stage/--kill-attempt need --kill-city".into());
    }
    let corrupt_city: Option<usize> = flags
        .get("corrupt-city")
        .map(|s| s.parse().map_err(|e| format!("--corrupt-city: {e}")))
        .transpose()?;
    let fault_rate = if flags.contains_key("fault-rate") {
        if corrupt_city.is_none() {
            return Err("--fault-rate needs --corrupt-city".into());
        }
        parse_rate(&flags, "fault-rate")?
    } else if corrupt_city.is_some() {
        0.2
    } else {
        0.0
    };
    let fault_seed: u64 = flags
        .get("fault-seed")
        .map(|s| s.parse().map_err(|e| format!("--fault-seed: {e}")))
        .transpose()?
        .unwrap_or(2024);
    let crash_at_city = flags
        .get("crash-at-city")
        .map(|raw| -> Result<(usize, String), String> {
            let (idx, point) = raw.split_once(':').ok_or_else(|| {
                format!("--crash-at-city: expected IDX:before|after, got {raw:?}")
            })?;
            let idx: usize = idx
                .parse()
                .map_err(|e| format!("--crash-at-city index: {e}"))?;
            if !matches!(point, "before" | "after") {
                return Err(format!(
                    "--crash-at-city point must be before or after, got {point:?}"
                ));
            }
            Ok((idx, point.to_owned()))
        })
        .transpose()?;
    for (flag, idx) in [
        ("kill-city", kill_city),
        ("corrupt-city", corrupt_city),
        ("crash-at-city", crash_at_city.as_ref().map(|(i, _)| *i)),
    ] {
        if idx.is_some_and(|i| i >= cities) {
            return Err(format!(
                "--{flag} index out of range (fleet has {cities} cities, indices 0..{})",
                cities - 1
            ));
        }
    }
    Ok(Command::Fleet {
        cities,
        records,
        seed,
        out_dir,
        resume,
        stakeholder,
        max_failed_cities,
        retry_budget,
        kill_city,
        kill_stage,
        kill_attempt,
        corrupt_city,
        fault_rate,
        fault_seed,
        crash_at_city,
    })
}

/// Strictly validates an `INDICE_STAGE_DEADLINE_MS` value: `None` (unset)
/// means no deadline, anything set must parse as a positive integer —
/// a typo must fail loudly, not silently disable the watchdog.
pub fn parse_stage_deadline_ms(raw: Option<&str>) -> Result<Option<u64>, String> {
    let Some(raw) = raw else {
        return Ok(None);
    };
    match raw.trim().parse::<u64>() {
        Ok(ms) if ms >= 1 => Ok(Some(ms)),
        Ok(_) => Err(format!(
            "{STAGE_DEADLINE_ENV_VAR} must be a positive integer (milliseconds), got 0"
        )),
        Err(_) => Err(format!(
            "{STAGE_DEADLINE_ENV_VAR} must be a positive integer (milliseconds), got {raw:?}"
        )),
    }
}

/// Checks a stage name given to `flag` against the pipeline's stage
/// table; an unknown name is rejected with the list of valid ones.
fn check_stage(flag: &str, stage: &str) -> Result<(), String> {
    if Stage::from_name(stage).is_some() {
        return Ok(());
    }
    let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
    Err(format!(
        "{flag}: unknown stage {stage:?} (expected one of: {})",
        names.join(", ")
    ))
}

/// Parses an optional `[0, 1]` rate flag, defaulting to `0.0`.
fn parse_rate(flags: &HashMap<String, String>, name: &str) -> Result<f64, String> {
    let Some(raw) = flags.get(name) else {
        return Ok(0.0);
    };
    let rate: f64 = raw.parse().map_err(|e| format!("--{name}: {e}"))?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("--{name} must be in [0, 1], got {rate}"));
    }
    Ok(rate)
}

/// Parses `--flag value` pairs.
fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let Some(name) = arg.strip_prefix("--") else {
            return Err(format!("expected a --flag, got {arg:?}"));
        };
        let value = it
            .next()
            .ok_or_else(|| format!("flag --{name} needs a value"))?;
        if flags.insert(name.to_owned(), value.clone()).is_some() {
            return Err(format!("duplicate flag --{name}"));
        }
    }
    Ok(flags)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn no_args_is_help() {
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert_eq!(parse_args(&v(&["help"])).unwrap(), Command::Help);
        assert_eq!(parse_args(&v(&["--help"])).unwrap(), Command::Help);
    }

    #[test]
    fn generate_with_defaults() {
        let cmd = parse_args(&v(&["generate", "--records", "500", "--out-dir", "out"])).unwrap();
        assert_eq!(
            cmd,
            Command::Generate {
                records: 500,
                seed: 2024,
                noise: NoisePreset::Default,
                out_dir: "out".into(),
            }
        );
    }

    #[test]
    fn generate_with_all_flags() {
        let cmd = parse_args(&v(&[
            "generate",
            "--records",
            "100",
            "--seed",
            "7",
            "--noise",
            "heavy",
            "--out-dir",
            "d",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Generate {
                records: 100,
                seed: 7,
                noise: NoisePreset::Heavy,
                out_dir: "d".into(),
            }
        );
    }

    #[test]
    fn generate_rejects_bad_values() {
        assert!(parse_args(&v(&["generate", "--out-dir", "d"])).is_err());
        assert!(parse_args(&v(&["generate", "--records", "abc", "--out-dir", "d"])).is_err());
        assert!(parse_args(&v(&["generate", "--records", "0", "--out-dir", "d"])).is_err());
        assert!(parse_args(&v(&[
            "generate",
            "--records",
            "5",
            "--noise",
            "nope",
            "--out-dir",
            "d"
        ]))
        .is_err());
    }

    #[test]
    fn run_parses_stakeholders() {
        for (flag, expected) in [
            ("pa", Stakeholder::PublicAdministration),
            ("citizen", Stakeholder::Citizen),
            ("scientist", Stakeholder::EnergyScientist),
        ] {
            let cmd = parse_args(&v(&[
                "run",
                "--data",
                "e.csv",
                "--streets",
                "s.txt",
                "--regions",
                "r.json",
                "--stakeholder",
                flag,
                "--out-dir",
                "o",
            ]))
            .unwrap();
            match cmd {
                Command::Run { stakeholder, .. } => assert_eq!(stakeholder, expected),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn run_default_stakeholder_is_pa() {
        let cmd = parse_args(&v(&[
            "run",
            "--data",
            "e.csv",
            "--streets",
            "s.txt",
            "--regions",
            "r.json",
            "--out-dir",
            "o",
        ]))
        .unwrap();
        assert!(matches!(
            cmd,
            Command::Run {
                stakeholder: Stakeholder::PublicAdministration,
                ..
            }
        ));
    }

    #[test]
    fn run_parses_fault_flags() {
        let cmd = parse_args(&v(&[
            "run",
            "--data",
            "e.csv",
            "--streets",
            "s.txt",
            "--regions",
            "r.json",
            "--out-dir",
            "o",
            "--fault-seed",
            "99",
            "--fault-rate",
            "0.2",
            "--geocode-fail-rate",
            "0.1",
        ]))
        .unwrap();
        match cmd {
            Command::Run {
                fault_seed,
                fault_rate,
                geocode_fail_rate,
                ..
            } => {
                assert_eq!(fault_seed, 99);
                assert_eq!(fault_rate, 0.2);
                assert_eq!(geocode_fail_rate, 0.1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn run_fault_flags_default_to_off() {
        let cmd = parse_args(&v(&[
            "run",
            "--data",
            "e.csv",
            "--streets",
            "s.txt",
            "--regions",
            "r.json",
            "--out-dir",
            "o",
        ]))
        .unwrap();
        match cmd {
            Command::Run {
                fault_rate,
                geocode_fail_rate,
                ..
            } => {
                assert_eq!(fault_rate, 0.0);
                assert_eq!(geocode_fail_rate, 0.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rates_outside_unit_interval_are_rejected() {
        for bad in ["1.5", "-0.1", "abc"] {
            assert!(parse_args(&v(&[
                "run",
                "--data",
                "e.csv",
                "--streets",
                "s.txt",
                "--regions",
                "r.json",
                "--out-dir",
                "o",
                "--fault-rate",
                bad,
            ]))
            .is_err());
        }
    }

    #[test]
    fn flag_errors() {
        assert!(parse_args(&v(&["describe"])).is_err(), "missing --data");
        assert!(parse_args(&v(&["describe", "positional"])).is_err());
        assert!(
            parse_args(&v(&["describe", "--data"])).is_err(),
            "dangling flag"
        );
        assert!(
            parse_args(&v(&["describe", "--data", "a", "--data", "b"])).is_err(),
            "duplicate flag"
        );
        assert!(parse_args(&v(&["frobnicate"])).is_err());
    }

    #[test]
    fn clean_parses() {
        let cmd = parse_args(&v(&[
            "clean",
            "--data",
            "e.csv",
            "--streets",
            "s.txt",
            "--out",
            "c.csv",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Clean {
                data: "e.csv".into(),
                streets: "s.txt".into(),
                out: "c.csv".into(),
            }
        );
        assert!(parse_args(&v(&["clean", "--data", "e.csv"])).is_err());
    }

    fn run_args(extra: &[&str]) -> Vec<String> {
        let mut base = v(&[
            "run",
            "--data",
            "e.csv",
            "--streets",
            "s.txt",
            "--regions",
            "r.json",
        ]);
        base.extend(extra.iter().map(|s| s.to_string()));
        base
    }

    #[test]
    fn run_resume_and_out_dir_are_exclusive() {
        let err = parse_args(&run_args(&["--out-dir", "o", "--resume", "o"])).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
        let err = parse_args(&run_args(&[])).unwrap_err();
        assert!(err.contains("--out-dir"), "{err}");
    }

    #[test]
    fn run_resume_sets_the_run_dir() {
        match parse_args(&run_args(&["--resume", "runs/x"])).unwrap() {
            Command::Run {
                out_dir, resume, ..
            } => {
                assert_eq!(out_dir, "runs/x");
                assert!(resume);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse_args(&run_args(&["--out-dir", "runs/y"])).unwrap() {
            Command::Run {
                out_dir, resume, ..
            } => {
                assert_eq!(out_dir, "runs/y");
                assert!(!resume);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn run_parses_max_quarantine_frac() {
        match parse_args(&run_args(&[
            "--out-dir",
            "o",
            "--max-quarantine-frac",
            "0.25",
        ]))
        .unwrap()
        {
            Command::Run {
                max_quarantine_frac,
                ..
            } => assert_eq!(max_quarantine_frac, Some(0.25)),
            other => panic!("unexpected {other:?}"),
        }
        match parse_args(&run_args(&["--out-dir", "o"])).unwrap() {
            Command::Run {
                max_quarantine_frac,
                ..
            } => assert_eq!(max_quarantine_frac, None),
            other => panic!("unexpected {other:?}"),
        }
        for bad in ["1.5", "-0.1", "abc"] {
            assert!(
                parse_args(&run_args(&["--out-dir", "o", "--max-quarantine-frac", bad])).is_err(),
                "{bad} should be rejected"
            );
        }
    }

    #[test]
    fn run_parses_crash_at() {
        match parse_args(&run_args(&[
            "--out-dir",
            "o",
            "--crash-at",
            "analytics:torn",
        ]))
        .unwrap()
        {
            Command::Run { crash_at, .. } => {
                assert_eq!(
                    crash_at,
                    Some(CrashSpec::Torn {
                        stage: "analytics".into()
                    })
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        let err = parse_args(&run_args(&[
            "--out-dir",
            "o",
            "--crash-at",
            "analytics:during",
        ]))
        .unwrap_err();
        assert!(err.contains("--crash-at"), "{err}");
        assert!(err.contains("invalid crash spec"), "{err}");
    }

    #[test]
    fn crash_at_rejects_a_stage_outside_the_stage_table() {
        // A misspelled stage would otherwise never fire, and a crash loop
        // built on it would test nothing.
        let err = parse_args(&run_args(&[
            "--out-dir",
            "o",
            "--crash-at",
            "analytcs:before",
        ]))
        .unwrap_err();
        assert!(err.contains("--crash-at"), "{err}");
        assert!(err.contains("\"analytcs\""), "{err}");
        assert!(
            err.contains("preprocess, analytics, dashboard"),
            "the error lists the valid stages: {err}"
        );
        for stage in ["preprocess", "analytics", "dashboard"] {
            let spec = format!("{stage}:before");
            assert!(
                parse_args(&run_args(&["--out-dir", "o", "--crash-at", &spec])).is_ok(),
                "{spec}"
            );
        }
    }

    #[test]
    fn stage_deadline_env_is_strictly_validated() {
        assert_eq!(parse_stage_deadline_ms(None).unwrap(), None);
        assert_eq!(parse_stage_deadline_ms(Some("250")).unwrap(), Some(250));
        assert_eq!(
            parse_stage_deadline_ms(Some(" 90000 ")).unwrap(),
            Some(90_000)
        );
        for bad in ["0", "-5", "fast", "1.5", ""] {
            let err = parse_stage_deadline_ms(Some(bad)).unwrap_err();
            assert!(err.contains(STAGE_DEADLINE_ENV_VAR), "{bad:?}: {err}");
        }
    }

    #[test]
    fn run_parses_observability_outputs() {
        match parse_args(&run_args(&[
            "--out-dir",
            "o",
            "--metrics-out",
            "m.prom",
            "--trace-out",
            "t.jsonl",
        ]))
        .unwrap()
        {
            Command::Run {
                metrics_out,
                trace_out,
                ..
            } => {
                assert_eq!(metrics_out.as_deref(), Some("m.prom"));
                assert_eq!(trace_out.as_deref(), Some("t.jsonl"));
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse_args(&run_args(&["--out-dir", "o"])).unwrap() {
            Command::Run {
                metrics_out,
                trace_out,
                ..
            } => {
                assert_eq!(metrics_out, None);
                assert_eq!(trace_out, None);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bench_parses() {
        let cmd = parse_args(&v(&["bench", "--records", "800", "--out", "b.json"])).unwrap();
        assert_eq!(
            cmd,
            Command::Bench {
                records: vec![800],
                seed: 2024,
                engines: vec![epc_runtime::Engine::Row],
                out: "b.json".into(),
            }
        );
        let cmd = parse_args(&v(&[
            "bench",
            "--records",
            "100,2500",
            "--seed",
            "9",
            "--engines",
            "row,columnar",
            "--out",
            "b.json",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Bench {
                records: vec![100, 2500],
                seed: 9,
                engines: vec![epc_runtime::Engine::Row, epc_runtime::Engine::Columnar],
                out: "b.json".into(),
            }
        );
        assert!(parse_args(&v(&["bench", "--out", "b.json"])).is_err());
        assert!(parse_args(&v(&["bench", "--records", "0", "--out", "b.json"])).is_err());
        assert!(parse_args(&v(&["bench", "--records", "10,0", "--out", "b.json"])).is_err());
        assert!(parse_args(&v(&["bench", "--records", "10"])).is_err());
        assert!(parse_args(&v(&[
            "bench",
            "--records",
            "10",
            "--engines",
            "vector",
            "--out",
            "b.json"
        ]))
        .is_err());
    }

    #[test]
    fn fleet_run_parses_with_defaults() {
        let cmd = parse_args(&v(&["fleet", "run", "--cities", "3", "--out-dir", "f"])).unwrap();
        assert_eq!(
            cmd,
            Command::Fleet {
                cities: 3,
                records: 1200,
                seed: 2024,
                out_dir: "f".into(),
                resume: false,
                stakeholder: Stakeholder::PublicAdministration,
                max_failed_cities: None,
                retry_budget: 2,
                kill_city: None,
                kill_stage: "preprocess".into(),
                kill_attempt: None,
                corrupt_city: None,
                fault_rate: 0.0,
                fault_seed: 2024,
                crash_at_city: None,
            }
        );
    }

    #[test]
    fn fleet_run_parses_chaos_flags() {
        let cmd = parse_args(&v(&[
            "fleet",
            "run",
            "--cities",
            "4",
            "--resume",
            "f",
            "--retry-budget",
            "3",
            "--max-failed-cities",
            "1",
            "--kill-city",
            "2",
            "--kill-stage",
            "analytics",
            "--kill-attempt",
            "1",
            "--corrupt-city",
            "3",
            "--crash-at-city",
            "1:after",
        ]))
        .unwrap();
        match cmd {
            Command::Fleet {
                resume,
                retry_budget,
                max_failed_cities,
                kill_city,
                kill_stage,
                kill_attempt,
                corrupt_city,
                fault_rate,
                crash_at_city,
                ..
            } => {
                assert!(resume);
                assert_eq!(retry_budget, 3);
                assert_eq!(max_failed_cities, Some(1));
                assert_eq!(kill_city, Some(2));
                assert_eq!(kill_stage, "analytics");
                assert_eq!(kill_attempt, Some(1));
                assert_eq!(corrupt_city, Some(3));
                assert_eq!(fault_rate, 0.2, "corrupt-city defaults the rate on");
                assert_eq!(crash_at_city, Some((1, "after".into())));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fleet_run_rejects_bad_flags() {
        let f = |extra: &[&str]| {
            let mut base = v(&["fleet", "run", "--cities", "3", "--out-dir", "f"]);
            base.extend(extra.iter().map(|s| s.to_string()));
            parse_args(&base)
        };
        assert!(parse_args(&v(&["fleet"])).is_err(), "missing sub-command");
        assert!(parse_args(&v(&["fleet", "stop"])).is_err());
        assert!(parse_args(&v(&["fleet", "run", "--out-dir", "f"])).is_err());
        assert!(parse_args(&v(&["fleet", "run", "--cities", "0", "--out-dir", "f"])).is_err());
        assert!(f(&["--resume", "f"]).is_err(), "out-dir xor resume");
        assert!(f(&["--retry-budget", "0"]).is_err());
        assert!(
            f(&["--kill-stage", "analytics"]).is_err(),
            "needs kill-city"
        );
        assert!(f(&["--kill-city", "1", "--kill-stage", "geocode"]).is_err());
        assert!(f(&["--fault-rate", "0.5"]).is_err(), "needs corrupt-city");
        assert!(f(&["--kill-city", "7"]).is_err(), "index out of range");
        assert!(f(&["--crash-at-city", "1"]).is_err());
        assert!(f(&["--crash-at-city", "1:during"]).is_err());
        assert!(f(&["--crash-at-city", "9:after"]).is_err());
    }

    fn ingest_args(extra: &[&str]) -> Vec<String> {
        let mut base = v(&[
            "ingest",
            "--append",
            "a.csv,b.csv",
            "--streets",
            "s.txt",
            "--regions",
            "r.json",
        ]);
        base.extend(extra.iter().map(|s| s.to_string()));
        base
    }

    #[test]
    fn ingest_parses_with_defaults() {
        let cmd = parse_args(&ingest_args(&["--into", "runs/x"])).unwrap();
        assert_eq!(
            cmd,
            Command::Ingest {
                append: vec!["a.csv".into(), "b.csv".into()],
                streets: "s.txt".into(),
                regions: "r.json".into(),
                stakeholder: Stakeholder::PublicAdministration,
                run_dir: "runs/x".into(),
                resume: false,
                recompute: RecomputeMode::Exact,
                crash_at_batch: None,
                fault_seed: 2024,
                fault_rate: 0.0,
                corrupt_batches: None,
            }
        );
    }

    #[test]
    fn ingest_parses_chaos_and_resume_flags() {
        match parse_args(&ingest_args(&[
            "--resume",
            "runs/x",
            "--recompute",
            "warm",
            "--crash-at-batch",
            "2:torn",
            "--corrupt-batches",
            "1-2",
        ]))
        .unwrap()
        {
            Command::Ingest {
                resume,
                recompute,
                crash_at_batch,
                fault_rate,
                corrupt_batches,
                ..
            } => {
                assert!(resume);
                assert_eq!(recompute, RecomputeMode::Warm);
                assert_eq!(crash_at_batch, Some(IngestCrash::TornBatch { batch: 2 }));
                assert_eq!(fault_rate, 0.2, "corrupt-batches defaults the rate on");
                assert_eq!(corrupt_batches, Some(BatchScope::Only(vec![1, 2])));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ingest_rejects_bad_flags() {
        assert!(parse_args(&ingest_args(&[])).is_err(), "needs --into");
        assert!(
            parse_args(&ingest_args(&["--into", "x", "--resume", "x"])).is_err(),
            "into xor resume"
        );
        assert!(
            parse_args(&ingest_args(&["--into", "x", "--recompute", "lazy"])).is_err(),
            "bad recompute mode"
        );
        assert!(
            parse_args(&ingest_args(&[
                "--into",
                "x",
                "--crash-at-batch",
                "1:during"
            ]))
            .is_err(),
            "bad crash point"
        );
        assert!(
            parse_args(&ingest_args(&["--into", "x", "--corrupt-batches", "4-1"])).is_err(),
            "bad scope"
        );
        let mut empty = v(&[
            "ingest",
            "--append",
            " , ",
            "--streets",
            "s",
            "--regions",
            "r",
        ]);
        empty.extend(v(&["--into", "x"]));
        assert!(parse_args(&empty).is_err(), "empty append list");
    }

    #[test]
    fn suggest_config_parses() {
        let cmd = parse_args(&v(&["suggest-config", "--data", "e.csv"])).unwrap();
        assert_eq!(
            cmd,
            Command::SuggestConfig {
                data: "e.csv".into()
            }
        );
    }
}
