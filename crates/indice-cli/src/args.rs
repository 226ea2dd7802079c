//! Dependency-free command-line argument parsing for the `indice` binary.

use epc_faults::BatchScope;
use epc_journal::CrashPoint;
use epc_query::Stakeholder;
use indice::pipeline::Stage;
use std::collections::HashMap;
use std::fmt::Display;
use std::str::FromStr;

/// Environment variable holding the per-stage deadline budget (ms).
pub const STAGE_DEADLINE_ENV_VAR: &str = "INDICE_STAGE_DEADLINE_MS";

/// Default of every `--seed` and `--fault-seed` flag.
const DEFAULT_SEED: u64 = 2024;

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
    Run(RunArgs),
    /// Run an in-memory synthetic pipeline and emit a benchmark snapshot.
    Bench {
        /// Collection sizes to benchmark (from `--records N[,M...]`).
        records: Vec<usize>,
        /// RNG seed for the synthetic collection.
        seed: u64,
        /// Output path for the indice-bench/4 snapshot.
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
    Ingest(IngestArgs),
    /// Run a multi-city fleet under the shard coordinator.
    Fleet(FleetArgs),
    /// Print usage.
    Help,
}

/// `indice run` options.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Path to the EPC CSV.
    pub data: String,
    /// Path to the referenced street map.
    pub streets: String,
    /// Path to the region-hierarchy JSON.
    pub regions: String,
    /// Target stakeholder.
    pub stakeholder: Stakeholder,
    /// The run directory (journal, checkpoints, and artifacts).
    pub out_dir: String,
    /// Resume from the run directory's journal instead of starting
    /// over (`--resume DIR` instead of `--out-dir DIR`).
    pub resume: bool,
    /// Seed of the deterministic fault injector (chaos testing).
    pub fault_seed: u64,
    /// Fraction of records the injector corrupts (0 disables).
    pub fault_rate: f64,
    /// Fraction of geocoder calls the injector fails transiently.
    pub geocode_fail_rate: f64,
    /// Abort (exit 1) when more than this fraction of input records
    /// ends up quarantined.
    pub max_quarantine_frac: Option<f64>,
    /// Injected crash point for durability testing (`stage:point`).
    pub crash_at: Option<CrashPoint<Stage>>,
    /// Write a metrics snapshot here after the run (`.json` selects
    /// the JSON codec, anything else the Prometheus-style text).
    pub metrics_out: Option<String>,
    /// Write the structured span/point trace here (JSON Lines).
    pub trace_out: Option<String>,
}

/// `indice ingest` options.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestArgs {
    /// Batch CSV paths in ingest order (from `--append a.csv,b.csv`).
    pub append: Vec<String>,
    /// Path to the referenced street map.
    pub streets: String,
    /// Path to the region-hierarchy JSON.
    pub regions: String,
    /// Target stakeholder.
    pub stakeholder: Stakeholder,
    /// The ingest run directory (`gens/`, manifest, and `current/`).
    pub run_dir: String,
    /// Fold into a directory that already holds sealed generations
    /// (`--resume DIR` instead of `--into DIR`).
    pub resume: bool,
    /// Injected crash at a batch boundary (`N:before|after|torn`, `N` an
    /// index into `append`).
    pub crash_at_batch: Option<CrashPoint<usize>>,
    /// Seed of the deterministic fault injector (chaos testing).
    pub fault_seed: u64,
    /// Fraction of records the injector corrupts (0 disables).
    pub fault_rate: f64,
    /// Restrict the injector to these indices into `append` (`all` or
    /// `0,2-4`); `None` corrupts every batch when a rate is set.
    pub corrupt_batches: Option<BatchScope>,
}

/// `indice fleet run` options.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetArgs {
    /// Number of cities in the fleet plan.
    pub cities: usize,
    /// Base records per city (scaled by each city's size class).
    pub records: usize,
    /// Fleet seed (city plans and synthesis derive from it).
    pub seed: u64,
    /// The fleet directory (fleet journal, per-city run dirs, merged
    /// artifacts).
    pub out_dir: String,
    /// Resume from the fleet journal instead of starting fresh.
    pub resume: bool,
    /// Target stakeholder for every shard.
    pub stakeholder: Stakeholder,
    /// Tolerate at most this many abandoned cities before the fleet
    /// fails outright (exit 1 instead of 3).
    pub max_failed_cities: Option<usize>,
    /// Shard attempts per city (>= 1).
    pub retry_budget: u32,
    /// Kill a stage of this city's shard (chaos testing).
    pub kill_city: Option<usize>,
    /// Stage to kill.
    pub kill_stage: Stage,
    /// Kill only on this attempt (`1..=retry_budget`); `None` kills every
    /// attempt.
    pub kill_attempt: Option<u32>,
    /// Corrupt only this city's records (chaos testing).
    pub corrupt_city: Option<usize>,
    /// Record-corruption rate for the corrupted city.
    pub fault_rate: f64,
    /// Fault-plan seed.
    pub fault_seed: u64,
    /// Crash the coordinator at a city's commit
    /// (`IDX:before|after|torn`; durability testing, exit 70).
    pub crash_at_city: Option<CrashPoint<usize>>,
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
             [--stakeholder pa|citizen|scientist] \\
             [--crash-at-batch N:before|after|torn] \\
             [--fault-seed S] [--fault-rate R] [--corrupt-batches all|0,2-4]
  indice fleet run --cities N [--records N] [--seed S] \\
             (--out-dir DIR | --resume DIR) [--stakeholder pa|citizen|scientist] \\
             [--max-failed-cities K] [--retry-budget N] \\
             [--kill-city IDX [--kill-stage STAGE] [--kill-attempt N|all]] \\
             [--corrupt-city IDX [--fault-rate R]] [--fault-seed S] \\
             [--crash-at-city IDX:before|after|torn]
  indice bench --records N[,M...] [--seed S] --out bench.json
  indice suggest-config --data epcs.csv
  indice clean --data epcs.csv --streets street_map.txt --out cleaned.csv
  indice help

Every command rejects a flag it does not list above (exit 1).

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
the concatenated input. A batch whose records cannot be selected or
cleaned is *abandoned*: recorded in the manifest, skipped, and the
sealed generations before it stay untouched.

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
imbalance) to `--out`. Before each size's runs it renders the collection
to CSV and times reading it back and hashing it as a durable run does
(`csv_bytes`, `load_ms`, `input_hash_ms`); the command fails unless the
text reads back to the same bytes. After them it times one durable run
of the collection into a temporary directory (`durable_wall_ms`), which
must complete.

`--fault-seed` / `--fault-rate` / `--geocode-fail-rate` attach a
deterministic fault injector for chaos testing: the same seed and rates
reproduce the same faults, quarantine, and outputs at any thread count.
`--crash-at <stage>:<before|after|torn>` kills the run at the named
commit point (durability testing; exit 70).

ENVIRONMENT:
  INDICE_THREADS           thread budget for run/clean (default: all
                           hardware threads); outputs are identical for
                           any value
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
    let rest = &args[1..];
    match cmd.as_str() {
        "help" | "--help" | "-h" => {
            Flags::parse(cmd, &[], rest)?;
            Ok(Command::Help)
        }
        "generate" => {
            let flags = Flags::parse(cmd, &["records", "seed", "noise", "out-dir"], rest)?;
            let records: usize = flags.required_parsed("records")?;
            if records == 0 {
                return Err("--records must be positive".into());
            }
            let seed = flags.parsed_or("seed", DEFAULT_SEED)?;
            let noise = match flags.get("noise") {
                None | Some("default") => NoisePreset::Default,
                Some("none") => NoisePreset::None,
                Some("heavy") => NoisePreset::Heavy,
                Some(other) => return Err(format!("unknown --noise preset {other:?}")),
            };
            Ok(Command::Generate {
                records,
                seed,
                noise,
                out_dir: flags.required("out-dir")?,
            })
        }
        "describe" => {
            let flags = Flags::parse(cmd, &["data"], rest)?;
            Ok(Command::Describe {
                data: flags.required("data")?,
            })
        }
        "run" => {
            let flags = Flags::parse(
                cmd,
                &[
                    "data",
                    "streets",
                    "regions",
                    "stakeholder",
                    "out-dir",
                    "resume",
                    "fault-seed",
                    "fault-rate",
                    "geocode-fail-rate",
                    "max-quarantine-frac",
                    "crash-at",
                    "metrics-out",
                    "trace-out",
                ],
                rest,
            )?;
            let stakeholder = flags.stakeholder()?;
            let fault_seed = flags.parsed_or("fault-seed", DEFAULT_SEED)?;
            let fault_rate = flags.rate("fault-rate")?.unwrap_or(0.0);
            let geocode_fail_rate = flags.rate("geocode-fail-rate")?.unwrap_or(0.0);
            let (out_dir, resume) = flags.dir_or_resume(
                "out-dir",
                "run directory; --resume continues from its journal",
            )?;
            let max_quarantine_frac = flags.rate("max-quarantine-frac")?;
            let crash_at = flags.parsed("crash-at")?;
            Ok(Command::Run(RunArgs {
                data: flags.required("data")?,
                streets: flags.required("streets")?,
                regions: flags.required("regions")?,
                stakeholder,
                out_dir,
                resume,
                fault_seed,
                fault_rate,
                geocode_fail_rate,
                max_quarantine_frac,
                crash_at,
                metrics_out: flags.get("metrics-out").map(str::to_owned),
                trace_out: flags.get("trace-out").map(str::to_owned),
            }))
        }
        "bench" => {
            let flags = Flags::parse(cmd, &["records", "seed", "out"], rest)?;
            let records: Vec<usize> = flags
                .required("records")?
                .split(',')
                .map(|s| s.trim().parse().map_err(|e| format!("--records: {e}")))
                .collect::<Result<_, _>>()?;
            if records.is_empty() || records.contains(&0) {
                return Err("--records must be a comma list of positive sizes".into());
            }
            let seed = flags.parsed_or("seed", DEFAULT_SEED)?;
            Ok(Command::Bench {
                records,
                seed,
                out: flags.required("out")?,
            })
        }
        "ingest" => {
            let flags = Flags::parse(
                cmd,
                &[
                    "append",
                    "streets",
                    "regions",
                    "into",
                    "resume",
                    "stakeholder",
                    "crash-at-batch",
                    "fault-seed",
                    "fault-rate",
                    "corrupt-batches",
                ],
                rest,
            )?;
            let append: Vec<String> = flags
                .required("append")?
                .split(',')
                .map(|s| s.trim().to_owned())
                .filter(|s| !s.is_empty())
                .collect();
            if append.is_empty() {
                return Err("--append needs at least one batch CSV path".into());
            }
            let stakeholder = flags.stakeholder()?;
            let (run_dir, resume) = flags.dir_or_resume(
                "into",
                "ingest directory; --resume folds onto its sealed generations",
            )?;
            let crash_at_batch = flags.parsed("crash-at-batch")?;
            let fault_seed = flags.parsed_or("fault-seed", DEFAULT_SEED)?;
            let corrupt_batches = flags
                .get("corrupt-batches")
                .map(|raw| BatchScope::parse(raw).map_err(|e| format!("--corrupt-batches: {e}")))
                .transpose()?;
            // `--corrupt-batches` alone turns a default rate on, mirroring
            // the fleet's `--corrupt-city`.
            let default_rate = if corrupt_batches.is_some() { 0.2 } else { 0.0 };
            let fault_rate = flags.rate("fault-rate")?.unwrap_or(default_rate);
            let args = IngestArgs {
                append,
                streets: flags.required("streets")?,
                regions: flags.required("regions")?,
                stakeholder,
                run_dir,
                resume,
                crash_at_batch,
                fault_seed,
                fault_rate,
                corrupt_batches,
            };
            let batches = args.append.len();
            if let Some(crash) = &args.crash_at_batch {
                check_index("crash-at-batch", crash.at, "ingest", batches, "batches")?;
            }
            if let Some(max) = args
                .corrupt_batches
                .as_ref()
                .and_then(BatchScope::max_index)
            {
                check_index("corrupt-batches", max, "ingest", batches, "batches")?;
            }
            Ok(Command::Ingest(args))
        }
        "suggest-config" => {
            let flags = Flags::parse(cmd, &["data"], rest)?;
            Ok(Command::SuggestConfig {
                data: flags.required("data")?,
            })
        }
        "clean" => {
            let flags = Flags::parse(cmd, &["data", "streets", "out"], rest)?;
            Ok(Command::Clean {
                data: flags.required("data")?,
                streets: flags.required("streets")?,
                out: flags.required("out")?,
            })
        }
        // `fleet` takes a sub-command word before its flags.
        "fleet" => parse_fleet(rest),
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
    let flags = Flags::parse(
        "fleet run",
        &[
            "cities",
            "records",
            "seed",
            "out-dir",
            "resume",
            "stakeholder",
            "max-failed-cities",
            "retry-budget",
            "kill-city",
            "kill-stage",
            "kill-attempt",
            "corrupt-city",
            "fault-rate",
            "fault-seed",
            "crash-at-city",
        ],
        &args[1..],
    )?;
    let cities: usize = flags.required_parsed("cities")?;
    if cities == 0 {
        return Err("--cities must be positive".into());
    }
    let records: usize = flags.parsed_or("records", 1200)?;
    if records == 0 {
        return Err("--records must be positive".into());
    }
    let seed = flags.parsed_or("seed", DEFAULT_SEED)?;
    let stakeholder = flags.stakeholder()?;
    let (out_dir, resume) = flags.dir_or_resume(
        "out-dir",
        "fleet directory; --resume continues from its journal",
    )?;
    let max_failed_cities = flags.parsed("max-failed-cities")?;
    let retry_budget: u32 = flags.parsed_or("retry-budget", 2)?;
    if retry_budget == 0 {
        return Err("--retry-budget must be at least 1".into());
    }
    let kill_city: Option<usize> = flags.parsed("kill-city")?;
    let kill_stage = flags.parsed_or("kill-stage", Stage::Preprocess)?;
    let kill_attempt = match flags.get("kill-attempt") {
        None | Some("all") => None,
        Some(_) => flags.parsed("kill-attempt")?,
    };
    if kill_city.is_none()
        && (flags.get("kill-stage").is_some() || flags.get("kill-attempt").is_some())
    {
        return Err("--kill-stage/--kill-attempt need --kill-city".into());
    }
    let corrupt_city: Option<usize> = flags.parsed("corrupt-city")?;
    if flags.get("fault-rate").is_some() && corrupt_city.is_none() {
        return Err("--fault-rate needs --corrupt-city".into());
    }
    let default_rate = if corrupt_city.is_some() { 0.2 } else { 0.0 };
    let fault_rate = flags.rate("fault-rate")?.unwrap_or(default_rate);
    let fault_seed = flags.parsed_or("fault-seed", DEFAULT_SEED)?;
    let crash_at_city: Option<CrashPoint<usize>> = flags.parsed("crash-at-city")?;
    for (flag, idx) in [
        ("kill-city", kill_city),
        ("corrupt-city", corrupt_city),
        ("crash-at-city", crash_at_city.map(|c| c.at)),
    ] {
        if let Some(i) = idx {
            check_index(flag, i, "fleet", cities, "cities")?;
        }
    }
    // Attempts are 1-based and capped by the budget: any other value
    // would never fire.
    if kill_attempt.is_some_and(|a| a == 0 || a > retry_budget) {
        return Err(format!(
            "--kill-attempt out of range (--retry-budget allows {retry_budget} attempts, \
             attempts 1..{retry_budget})"
        ));
    }
    Ok(Command::Fleet(FleetArgs {
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
    }))
}

/// Rejects a chaos `--{flag}` index that names none of the `n` items of
/// the `owner` (`n >= 1`): such a fault would silently never fire.
fn check_index(flag: &str, index: usize, owner: &str, n: usize, items: &str) -> Result<(), String> {
    if index < n {
        return Ok(());
    }
    Err(format!(
        "--{flag} index out of range ({owner} has {n} {items}, indices 0..{})",
        n - 1
    ))
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

/// One command's `--flag value` pairs.
struct Flags(HashMap<String, String>);

impl Flags {
    /// Parses `--flag value` pairs in argv order. A flag `command` does not
    /// accept is an error naming both, so a misspelled option fails the
    /// parse instead of being silently ignored.
    fn parse(command: &str, accepted: &[&str], args: &[String]) -> Result<Self, String> {
        let mut flags = HashMap::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!("expected a --flag, got {arg:?}"));
            };
            if !accepted.contains(&name) {
                return Err(format!("unknown flag --{name} for `indice {command}`"));
            }
            let value = it
                .next()
                .ok_or_else(|| format!("flag --{name} needs a value"))?;
            if flags.insert(name.to_owned(), value.clone()).is_some() {
                return Err(format!("duplicate flag --{name}"));
            }
        }
        Ok(Flags(flags))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0.get(name).map(String::as_str)
    }

    /// The value of a flag the command cannot run without.
    fn required(&self, name: &str) -> Result<String, String> {
        self.get(name)
            .map(str::to_owned)
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    /// Flag `name` parsed as a `T`, if it was given.
    fn parsed<T: FromStr>(&self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        self.get(name)
            .map(|raw| raw.parse().map_err(|e| format!("--{name}: {e}")))
            .transpose()
    }

    /// [`Flags::parsed`], with `default` when the flag is absent.
    fn parsed_or<T: FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: Display,
    {
        Ok(self.parsed(name)?.unwrap_or(default))
    }

    /// [`Flags::parsed`] for a flag the command cannot run without.
    fn required_parsed<T: FromStr>(&self, name: &str) -> Result<T, String>
    where
        T::Err: Display,
    {
        self.parsed(name)?
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    /// A `[0, 1]` rate flag, if it was given.
    fn rate(&self, name: &str) -> Result<Option<f64>, String> {
        let Some(rate) = self.parsed::<f64>(name)? else {
            return Ok(None);
        };
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!("--{name} must be in [0, 1], got {rate}"));
        }
        Ok(Some(rate))
    }

    /// `--stakeholder`, defaulting to the public administration.
    fn stakeholder(&self) -> Result<Stakeholder, String> {
        match self.get("stakeholder") {
            None | Some("pa") | Some("public-administration") => {
                Ok(Stakeholder::PublicAdministration)
            }
            Some("citizen") => Ok(Stakeholder::Citizen),
            Some("scientist") | Some("energy-scientist") => Ok(Stakeholder::EnergyScientist),
            Some(other) => Err(format!("unknown --stakeholder {other:?}")),
        }
    }

    /// The directory named by exactly one of `--{dir_flag}` (start fresh)
    /// and `--resume` (continue), and whether it was `--resume`. `what`
    /// completes the error for both: "both name the {what}".
    fn dir_or_resume(&self, dir_flag: &str, what: &str) -> Result<(String, bool), String> {
        match (self.get(dir_flag), self.get("resume")) {
            (Some(_), Some(_)) => Err(format!(
                "--{dir_flag} and --resume are mutually exclusive (both name the {what})"
            )),
            (Some(dir), None) => Ok((dir.to_owned(), false)),
            (None, Some(dir)) => Ok((dir.to_owned(), true)),
            (None, None) => Err(format!(
                "missing required flag --{dir_flag} (or --resume DIR)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epc_journal::CommitPoint;

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
                Command::Run(RunArgs { stakeholder, .. }) => assert_eq!(stakeholder, expected),
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
            Command::Run(RunArgs {
                stakeholder: Stakeholder::PublicAdministration,
                ..
            })
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
            Command::Run(RunArgs {
                fault_seed,
                fault_rate,
                geocode_fail_rate,
                ..
            }) => {
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
            Command::Run(RunArgs {
                fault_rate,
                geocode_fail_rate,
                ..
            }) => {
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
    fn unknown_flags_are_rejected_naming_flag_and_command() {
        // A misspelled circuit breaker must fail the parse, not switch the
        // breaker off.
        let err = parse_args(&run_args(&[
            "--out-dir",
            "o",
            "--max-quarantine-fraction",
            "0.01",
        ]))
        .unwrap_err();
        assert_eq!(
            err,
            "unknown flag --max-quarantine-fraction for `indice run`"
        );
        // Flags are checked in argv order, before any other validation:
        // the first unknown one is named even though --records is missing.
        let err = parse_args(&v(&["generate", "--nois", "heavy", "--recrods", "5"])).unwrap_err();
        assert_eq!(err, "unknown flag --nois for `indice generate`");
        // Every command, with a flag another command accepts.
        for (argv, command) in [
            (v(&["help", "--out", "x"]), "help"),
            (v(&["generate", "--records", "5", "--out", "x"]), "generate"),
            (
                v(&["describe", "--data", "e.csv", "--out", "x"]),
                "describe",
            ),
            (run_args(&["--out-dir", "o", "--into", "x"]), "run"),
            (v(&["bench", "--records", "5", "--out-dir", "x"]), "bench"),
            (ingest_args(&["--into", "x", "--out-dir", "x"]), "ingest"),
            (
                ingest_args(&["--into", "x", "--recompute-mode", "warm"]),
                "ingest",
            ),
            (
                v(&["fleet", "run", "--cities", "2", "--data", "x"]),
                "fleet run",
            ),
            (
                v(&["suggest-config", "--data", "e.csv", "--out", "x"]),
                "suggest-config",
            ),
            (
                v(&["clean", "--data", "e.csv", "--regions", "r.json"]),
                "clean",
            ),
        ] {
            let err = parse_args(&argv).unwrap_err();
            let flag = argv.iter().rev().nth(1).unwrap();
            assert_eq!(
                err,
                format!("unknown flag {flag} for `indice {command}`"),
                "{argv:?}"
            );
        }
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
            Command::Run(RunArgs {
                out_dir, resume, ..
            }) => {
                assert_eq!(out_dir, "runs/x");
                assert!(resume);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse_args(&run_args(&["--out-dir", "runs/y"])).unwrap() {
            Command::Run(RunArgs {
                out_dir, resume, ..
            }) => {
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
            Command::Run(RunArgs {
                max_quarantine_frac,
                ..
            }) => assert_eq!(max_quarantine_frac, Some(0.25)),
            other => panic!("unexpected {other:?}"),
        }
        match parse_args(&run_args(&["--out-dir", "o"])).unwrap() {
            Command::Run(RunArgs {
                max_quarantine_frac,
                ..
            }) => assert_eq!(max_quarantine_frac, None),
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
            Command::Run(RunArgs { crash_at, .. }) => {
                assert_eq!(
                    crash_at,
                    Some(CrashPoint {
                        at: Stage::Analytics,
                        point: CommitPoint::Torn
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
        assert!(err.contains("invalid crash point"), "{err}");
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
    fn every_crash_flag_shares_one_grammar_and_names_itself() {
        let fleet = v(&["fleet", "run", "--cities", "3", "--out-dir", "f"]);
        for (flag, base, valid) in [
            ("crash-at", run_args(&["--out-dir", "o"]), "analytics:torn"),
            ("crash-at-batch", ingest_args(&["--into", "x"]), "1:torn"),
            ("crash-at-city", fleet, "1:torn"),
        ] {
            let with = |value: &str| {
                let mut args = base.clone();
                args.extend(v(&[&format!("--{flag}"), value]));
                parse_args(&args)
            };
            assert!(with(valid).is_ok(), "--{flag} {valid}");
            for bad in [
                "", "1", ":before", "x:before", "1:during", "-1:torn", "1:torn:x",
            ] {
                let err = with(bad).unwrap_err();
                let expected = format!("--{flag}: invalid crash point {bad:?}: ");
                assert!(err.starts_with(&expected), "--{flag} {bad:?}: {err}");
            }
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
            Command::Run(RunArgs {
                metrics_out,
                trace_out,
                ..
            }) => {
                assert_eq!(metrics_out.as_deref(), Some("m.prom"));
                assert_eq!(trace_out.as_deref(), Some("t.jsonl"));
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse_args(&run_args(&["--out-dir", "o"])).unwrap() {
            Command::Run(RunArgs {
                metrics_out,
                trace_out,
                ..
            }) => {
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
                out: "b.json".into(),
            }
        );
        let cmd = parse_args(&v(&[
            "bench",
            "--records",
            "100,2500",
            "--seed",
            "9",
            "--out",
            "b.json",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Bench {
                records: vec![100, 2500],
                seed: 9,
                out: "b.json".into(),
            }
        );
        assert!(parse_args(&v(&["bench", "--out", "b.json"])).is_err());
        assert!(parse_args(&v(&["bench", "--records", "0", "--out", "b.json"])).is_err());
        assert!(parse_args(&v(&["bench", "--records", "10,0", "--out", "b.json"])).is_err());
        assert!(parse_args(&v(&["bench", "--records", "10"])).is_err());
        // The pipeline has one engine: `--engines` is an unknown flag.
        let err = parse_args(&v(&[
            "bench",
            "--records",
            "10",
            "--engines",
            "row",
            "--out",
            "b.json",
        ]))
        .unwrap_err();
        assert!(err.contains("unknown flag --engines"), "{err}");
    }

    #[test]
    fn fleet_run_parses_with_defaults() {
        let cmd = parse_args(&v(&["fleet", "run", "--cities", "3", "--out-dir", "f"])).unwrap();
        assert_eq!(
            cmd,
            Command::Fleet(FleetArgs {
                cities: 3,
                records: 1200,
                seed: 2024,
                out_dir: "f".into(),
                resume: false,
                stakeholder: Stakeholder::PublicAdministration,
                max_failed_cities: None,
                retry_budget: 2,
                kill_city: None,
                kill_stage: Stage::Preprocess,
                kill_attempt: None,
                corrupt_city: None,
                fault_rate: 0.0,
                fault_seed: 2024,
                crash_at_city: None,
            })
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
            Command::Fleet(FleetArgs {
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
            }) => {
                assert!(resume);
                assert_eq!(retry_budget, 3);
                assert_eq!(max_failed_cities, Some(1));
                assert_eq!(kill_city, Some(2));
                assert_eq!(kill_stage, Stage::Analytics);
                assert_eq!(kill_attempt, Some(1));
                assert_eq!(corrupt_city, Some(3));
                assert_eq!(fault_rate, 0.2, "corrupt-city defaults the rate on");
                assert_eq!(crash_at_city, Some("1:after".parse().unwrap()));
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
        for bad in ["1", "1:during", "x:after"] {
            let err = f(&["--crash-at-city", bad]).unwrap_err();
            let expected = format!("--crash-at-city: invalid crash point {bad:?}: ");
            assert!(err.starts_with(&expected), "{err}");
        }
        assert_eq!(
            f(&["--crash-at-city", "9:after"]).unwrap_err(),
            "--crash-at-city index out of range (fleet has 3 cities, indices 0..2)"
        );
        assert!(f(&["--crash-at-city", "2:torn"]).is_ok());
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
            Command::Ingest(IngestArgs {
                append: vec!["a.csv".into(), "b.csv".into()],
                streets: "s.txt".into(),
                regions: "r.json".into(),
                stakeholder: Stakeholder::PublicAdministration,
                run_dir: "runs/x".into(),
                resume: false,
                crash_at_batch: None,
                fault_seed: 2024,
                fault_rate: 0.0,
                corrupt_batches: None,
            })
        );
    }

    #[test]
    fn ingest_parses_chaos_and_resume_flags() {
        match parse_args(&ingest_args(&[
            "--resume",
            "runs/x",
            "--crash-at-batch",
            "1:torn",
            "--corrupt-batches",
            "0-1",
        ]))
        .unwrap()
        {
            Command::Ingest(IngestArgs {
                resume,
                crash_at_batch,
                fault_rate,
                corrupt_batches,
                ..
            }) => {
                assert!(resume);
                assert_eq!(
                    crash_at_batch,
                    Some(CrashPoint {
                        at: 1,
                        point: CommitPoint::Torn
                    })
                );
                assert_eq!(fault_rate, 0.2, "corrupt-batches defaults the rate on");
                assert_eq!(corrupt_batches, Some(BatchScope::Only(vec![0..=1])));
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
        let err = parse_args(&ingest_args(&["--into", "x", "--recompute", "lazy"])).unwrap_err();
        assert_eq!(err, "unknown flag --recompute for `indice ingest`");
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
    fn ingest_rejects_a_crash_batch_outside_the_append_list() {
        // A crash aimed past the last batch would never fire, and a
        // kill/resume loop built on it would test nothing.
        for spec in ["5:before", "2:after"] {
            let err =
                parse_args(&ingest_args(&["--into", "x", "--crash-at-batch", spec])).unwrap_err();
            assert_eq!(
                err,
                "--crash-at-batch index out of range (ingest has 2 batches, indices 0..1)"
            );
        }
        assert!(parse_args(&ingest_args(&["--into", "x", "--crash-at-batch", "1:torn"])).is_ok());
    }

    #[test]
    fn ingest_rejects_corrupt_batches_outside_the_append_list() {
        for scope in ["7", "0,2", "1-3"] {
            let err =
                parse_args(&ingest_args(&["--into", "x", "--corrupt-batches", scope])).unwrap_err();
            assert_eq!(
                err, "--corrupt-batches index out of range (ingest has 2 batches, indices 0..1)",
                "{scope}"
            );
        }
        for scope in ["all", "0-1", "1"] {
            assert!(
                parse_args(&ingest_args(&["--into", "x", "--corrupt-batches", scope])).is_ok(),
                "{scope}"
            );
        }
    }

    #[test]
    fn ingest_rejects_a_huge_corrupt_batches_range_without_expanding_it() {
        // The range is checked by its ends: a scope eleven digits wide
        // must fail like `7` does, not allocate one slot per index.
        let err = parse_args(&ingest_args(&[
            "--into",
            "x",
            "--corrupt-batches",
            "0-99999999999",
        ]))
        .unwrap_err();
        assert_eq!(
            err,
            "--corrupt-batches index out of range (ingest has 2 batches, indices 0..1)"
        );
    }

    #[test]
    fn fleet_rejects_a_kill_attempt_outside_the_retry_budget() {
        let f = |extra: &[&str]| {
            let mut base = v(&["fleet", "run", "--cities", "2", "--out-dir", "f"]);
            base.extend(v(&["--kill-city", "0"]));
            base.extend(v(extra));
            parse_args(&base)
        };
        // Attempts are 1-based and the default budget is 2.
        for attempt in ["0", "3"] {
            assert_eq!(
                f(&["--kill-attempt", attempt]).unwrap_err(),
                "--kill-attempt out of range (--retry-budget allows 2 attempts, attempts 1..2)"
            );
        }
        assert!(f(&["--kill-attempt", "2"]).is_ok());
        assert!(f(&["--kill-attempt", "all"]).is_ok());
        assert!(f(&["--retry-budget", "3", "--kill-attempt", "3"]).is_ok());
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
