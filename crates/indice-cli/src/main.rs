//! `indice` — the command-line interface of the INDICE reproduction.
//!
//! ```sh
//! indice generate --records 25000 --out-dir data/
//! indice describe --data data/epcs.csv
//! indice run --data data/epcs.csv --streets data/street_map.txt \
//!            --regions data/regions.json --stakeholder pa --out-dir out/
//! indice suggest-config --data data/epcs.csv
//! ```

mod args;

use args::{
    parse_args, parse_stage_deadline_ms, Command, FleetArgs, IngestArgs, NoisePreset, RunArgs,
    STAGE_DEADLINE_ENV_VAR, USAGE,
};
use epc_coord::{CoordCrash, RetryPolicy, ShardStatus};
use epc_faults::{CityFaultSpec, Corruption, DeterministicInjector, FleetFaults, StageKillSpec};
use epc_geo::region::RegionHierarchy;
use epc_geo::streetmap::StreetMap;
use epc_journal::write_atomic_path;
use epc_model::{Dataset, Quarantine};
use epc_synth::noise::{apply_noise, NoiseConfig};
use epc_synth::{EpcGenerator, FleetConfig, SynthConfig};
use indice::autoconfig::suggest_config;
use indice::config::IndiceConfig;
use indice::durable::DurableOptions;
use indice::engine::Indice;
use indice::pipeline::{RunOutcome, StageDeadline};
use indice::IndiceError;
use std::fs;
use std::path::Path;
use std::process::ExitCode;

/// Exit code of a run killed by an injected crash point (`--crash-at`).
const CRASH_EXIT_CODE: u8 = 70;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&argv) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match execute(command) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn execute(command: Command) -> Result<ExitCode, String> {
    match command {
        Command::Help => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        Command::Generate {
            records,
            seed,
            noise,
            out_dir,
        } => generate(records, seed, noise, &out_dir).map(|()| ExitCode::SUCCESS),
        Command::Describe { data } => {
            let dataset = load_dataset(&data)?;
            print_out(&epc_query::report::describe_text(&dataset));
            Ok(ExitCode::SUCCESS)
        }
        Command::Run(args) => run(&args),
        Command::Ingest(args) => ingest(&args),
        Command::Fleet(args) => fleet(&args),
        Command::Bench { records, seed, out } => bench(&records, seed, &out),
        Command::Clean { data, streets, out } => {
            let runtime = epc_runtime::RuntimeConfig::try_from_env()?;
            let dataset = load_dataset(&data)?;
            let street_text =
                fs::read_to_string(&streets).map_err(|e| format!("reading {streets}: {e}"))?;
            let street_map = StreetMap::from_text(&street_text)?;
            let config = IndiceConfig::default();
            let (result, quarantine) = indice::preprocess::clean_phase(
                dataset,
                &street_map,
                &config,
                &runtime,
                None,
                None,
                config.geocoder_quota,
            )
            .and_then(|clean| indice::preprocess::outlier_phase(clean, &config, &runtime, None))
            .map_err(|e| format!("cleaning failed: {e}"))?;
            write_atomic_path(
                Path::new(&out),
                epc_model::csv::to_csv(&result.dataset).as_bytes(),
            )
            .map_err(|e| format!("writing {out}: {e}"))?;
            println!(
                "cleaned {} records ({} resolved by reference, {} by geocoder, {} unresolved); \
removed {} outliers; wrote {} rows to {out}",
                result.cleaning.total,
                result.cleaning.by_reference,
                result.cleaning.by_geocoder,
                result.cleaning.unresolved,
                result.removed_rows.len(),
                result.dataset.n_rows(),
            );
            println!("{quarantine}");
            Ok(ExitCode::SUCCESS)
        }
        Command::SuggestConfig { data } => {
            let dataset = load_dataset(&data)?;
            let advice = suggest_config(&dataset, &IndiceConfig::default());
            println!("auto-configuration advice ({} records):", dataset.n_rows());
            for a in &advice.attribute_advice {
                println!(
                    "  {:<18} -> {:<8} ({})",
                    a.attribute,
                    a.method.name(),
                    a.rationale
                );
            }
            println!(
                "  K sweep: {:?}; min rule support: {}; geocoder quota: {}",
                advice.config.analytics.k,
                advice.config.rule_stage.rules.min_support,
                advice.config.geocoder_quota
            );
            Ok(ExitCode::SUCCESS)
        }
    }
}

fn generate(records: usize, seed: u64, noise: NoisePreset, out_dir: &str) -> Result<(), String> {
    let mut collection = EpcGenerator::new(SynthConfig {
        n_records: records,
        seed,
        ..SynthConfig::default()
    })
    .generate();
    match noise {
        NoisePreset::None => {}
        NoisePreset::Default => apply_noise(&mut collection, &NoiseConfig::default()),
        NoisePreset::Heavy => apply_noise(
            &mut collection,
            &NoiseConfig {
                typo_rate: 0.35,
                abbreviation_rate: 0.2,
                zip_missing_rate: 0.12,
                coord_missing_rate: 0.1,
                coord_wrong_rate: 0.06,
                ..NoiseConfig::default()
            },
        ),
    }
    let dir = Path::new(out_dir);
    write_atomic_path(
        &dir.join("epcs.csv"),
        epc_model::csv::to_csv(&collection.dataset).as_bytes(),
    )
    .map_err(|e| format!("writing epcs.csv: {e}"))?;
    write_atomic_path(
        &dir.join("street_map.txt"),
        collection.city.street_map.to_text()?.as_bytes(),
    )
    .map_err(|e| format!("writing street_map.txt: {e}"))?;
    let regions = serde_json::to_string_pretty(&collection.city.hierarchy)
        .map_err(|e| format!("serializing regions: {e}"))?;
    write_atomic_path(&dir.join("regions.json"), regions.as_bytes())
        .map_err(|e| format!("writing regions.json: {e}"))?;
    println!(
        "wrote {} certificates, {} street entries, {} regions to {out_dir}/",
        collection.dataset.n_rows(),
        collection.city.street_map.len(),
        collection.city.hierarchy.districts.len() + collection.city.hierarchy.neighbourhoods.len()
    );
    Ok(())
}

fn run(args: &RunArgs) -> Result<ExitCode, String> {
    let out_dir = &args.out_dir;
    // Strict environment validation: a typo in a tuning knob must fail
    // loudly up front, not silently fall back to a default.
    let runtime = epc_runtime::RuntimeConfig::try_from_env()?;
    let geocode_retries = epc_geo::geocode::try_geocode_retries_from_env()?;
    let deadline_ms =
        parse_stage_deadline_ms(std::env::var(STAGE_DEADLINE_ENV_VAR).ok().as_deref())?;

    // Lenient load: unparsable CSV rows are quarantined, not fatal.
    let (dataset, mut quarantine) = load_dataset_lenient(&args.data)?;
    let input_rows = dataset.n_rows() + quarantine.len();
    let (street_map, hierarchy, config) = load_city(&args.streets, &args.regions, geocode_retries)?;

    // Thread budget comes from INDICE_THREADS (default: all hardware
    // threads); outputs are identical either way, only wall time changes.
    let engine = Indice::new(dataset, street_map, hierarchy, config).with_runtime(runtime);

    let injector = if args.fault_rate > 0.0 || args.geocode_fail_rate > 0.0 {
        Some(
            DeterministicInjector::new(args.fault_seed)
                .with_record_rate(args.fault_rate)
                .with_corruption(Corruption::NonFinite {
                    attribute: epc_model::wellknown::ASPECT_RATIO.to_owned(),
                })
                .with_geocode_rate(args.geocode_fail_rate),
        )
    } else {
        None
    };

    // Every `run` is durable: stages are checkpointed into the run
    // directory and journaled, so an interrupted run resumes with
    // `--resume` and finishes byte-identical to an uninterrupted one.
    let clock = epc_runtime::WallClock::new();
    let obs = epc_obs::Obs::new(&clock);
    let mut opts = DurableOptions::new(out_dir).with_obs(&obs);
    if args.resume {
        opts = opts.resuming();
    }
    if let Some(budget_ms) = deadline_ms {
        opts = opts.with_deadline(StageDeadline {
            budget_ms,
            clock: &clock,
        });
    }
    if let Some(spec) = &args.crash_at {
        opts = opts.with_crash(spec);
    }
    if let Some(inj) = &injector {
        opts = opts.with_injector(inj);
    }
    let output = match engine.run_durable(args.stakeholder, &opts) {
        Ok(output) => output,
        Err(IndiceError::CrashInjected { stage, point }) => {
            eprintln!(
                "injected crash fired at stage '{stage}' ({point} commit); \
                 resume with `indice run --resume {out_dir} ...`"
            );
            return Ok(ExitCode::from(CRASH_EXIT_CODE));
        }
        Err(e) => return Err(format!("durable run failed: {e}")),
    };
    // Observability snapshots are written for every non-crashed run,
    // including failed ones — that is when they matter most.
    if let Some(path) = &args.metrics_out {
        write_metrics(path, &obs)?;
    }
    if let Some(path) = &args.trace_out {
        write_atomic_path(Path::new(path), obs.tracer().to_jsonl().as_bytes())
            .map_err(|e| format!("writing {path}: {e}"))?;
    }
    quarantine.merge(output.quarantine.clone());

    if output.recovered_torn_tail {
        eprintln!(
            "warning: run journal in {out_dir}/ had a torn trailing line (crash during \
             append); it was discarded and the affected stage replayed"
        );
    }

    if let RunOutcome::Failed(e) = &output.outcome {
        print!("{}", output.report);
        eprintln!("pipeline failed: {e}");
        return Ok(ExitCode::FAILURE);
    }

    // Data-quality circuit breaker: refuse to bless a run that diverted
    // more than the allowed fraction of its input.
    if let Some(max) = args.max_quarantine_frac {
        let frac = if input_rows == 0 {
            0.0
        } else {
            quarantine.len() as f64 / input_rows as f64
        };
        if frac > max {
            print!("{}", output.report);
            eprintln!(
                "quarantine fraction {frac:.4} ({} of {input_rows} input records) exceeds \
                 --max-quarantine-frac {max}; failing the run",
                quarantine.len()
            );
            return Ok(ExitCode::FAILURE);
        }
    }

    if !output.journal_hits.is_empty() {
        println!(
            "resumed from journal: {} stage(s) validated and skipped ({}), {} replayed",
            output.journal_hits.len(),
            output.journal_hits.join(", "),
            output.replayed.len()
        );
    }
    print!("{}", output.report);
    let kept = output
        .preprocess
        .as_ref()
        .map(|p| p.dataset.n_rows())
        .unwrap_or(0);
    match &output.analytics {
        Some(analytics) => println!(
            "pipeline done: {kept} records kept, K = {}, {} rules; dashboard + {} artifacts in {out_dir}/",
            analytics.chosen_k,
            analytics.rules.len(),
            output.artifacts.len()
        ),
        None => println!(
            "pipeline done: {kept} records kept, analytics unavailable; dashboard + {} artifacts in {out_dir}/",
            output.artifacts.len()
        ),
    }
    // Fault-tolerance summary: what was diverted, degraded, or skipped.
    println!("{quarantine}");
    if let Some(p) = &output.preprocess {
        if p.cleaning.degraded > 0 {
            println!(
                "degraded records: {} geocoded to district centroids after {} retries",
                p.cleaning.degraded,
                engine.config().fault_tolerance.geocode_retries
            );
        }
    }
    if !output.degraded_stages.is_empty() {
        println!("degraded stages: {}", output.degraded_stages.join(", "));
    }
    println!("outcome: {}", output.outcome);
    Ok(ExitCode::from(output.outcome.exit_code()))
}

/// Folds micro-batches into a generation-journaled ingest directory.
fn ingest(args: &IngestArgs) -> Result<ExitCode, String> {
    let run_dir = &args.run_dir;
    let runtime = epc_runtime::RuntimeConfig::try_from_env()?;
    let geocode_retries = epc_geo::geocode::try_geocode_retries_from_env()?;

    // Lenient batch loads: unparsable CSV rows are quarantined per batch,
    // not fatal — the batch still ingests whatever survives.
    let mut parse_quarantine = Quarantine::new();
    let mut batches = Vec::with_capacity(args.append.len());
    for path in &args.append {
        let (dataset, q) = load_dataset_lenient(path)?;
        parse_quarantine.merge(q);
        batches.push(indice::IngestBatch::new(path.clone(), dataset));
    }
    let (street_map, hierarchy, config) = load_city(&args.streets, &args.regions, geocode_retries)?;

    let injector = (args.fault_rate > 0.0).then(|| {
        DeterministicInjector::new(args.fault_seed)
            .with_record_rate(args.fault_rate)
            .with_corruption(Corruption::NonFinite {
                attribute: epc_model::wellknown::ASPECT_RATIO.to_owned(),
            })
    });

    let clock = epc_runtime::WallClock::new();
    let obs = epc_obs::Obs::new(&clock);
    let mut opts = indice::IngestOptions::new(run_dir).with_obs(&obs);
    if args.resume {
        opts = opts.resuming();
    }
    if let Some(spec) = &args.crash_at_batch {
        opts = opts.with_crash(spec);
    }
    if let Some(inj) = &injector {
        opts = opts.with_injector(inj);
    }
    if let Some(scope) = &args.corrupt_batches {
        opts = opts.scoped_to(scope);
    }

    let inputs = indice::IngestInputs {
        street_map: &street_map,
        hierarchy: &hierarchy,
        config,
        runtime,
    };
    let output = match indice::ingest(&batches, inputs, args.stakeholder, &opts) {
        Ok(output) => output,
        Err(IndiceError::CrashInjected { stage, point }) => {
            eprintln!(
                "injected crash fired at '{stage}' ({point} commit); \
                 resume with `indice ingest --resume {run_dir} ...`"
            );
            return Ok(ExitCode::from(CRASH_EXIT_CODE));
        }
        Err(e) => return Err(format!("ingest failed: {e}")),
    };

    if output.recovered_torn_tail {
        eprintln!(
            "warning: generation manifest in {run_dir}/ had a torn trailing line (crash \
             during append); it was discarded and the affected batch re-ingested"
        );
    }
    if let Some(why) = &output.resume_rejection {
        eprintln!("resume: {why}");
    }
    if !output.sealed_skipped.is_empty() {
        println!(
            "resumed from generation manifest: {} batch(es) sealed and skipped ({}), {} folded",
            output.sealed_skipped.len(),
            output.sealed_skipped.join(", "),
            output.processed.len()
        );
    }
    for entry in &output.entries {
        let outcome = match entry.outcome {
            epc_ingest::GenerationOutcome::Complete => "complete",
            epc_ingest::GenerationOutcome::Degraded => "degraded",
            epc_ingest::GenerationOutcome::Abandoned => "ABANDONED",
        };
        println!(
            "  gen {:>3} {}: {outcome} — {} in, {} kept, {} quarantined; \
             {} artifact(s) written, {} carried",
            entry.seq,
            entry.batch,
            entry.records_in,
            entry.records_kept,
            entry.quarantined,
            entry.artifacts_written,
            entry.artifacts_carried
        );
        for reason in &entry.reasons {
            println!("        {reason}");
        }
    }
    if !parse_quarantine.is_empty() {
        println!("{parse_quarantine}");
    }
    match &output.outcome {
        indice::IngestOutcome::Complete => println!(
            "ingest complete: {} generation(s) sealed; cumulative artifacts in {run_dir}/current/",
            output.entries.len()
        ),
        indice::IngestOutcome::Degraded(reasons) => println!(
            "ingest degraded: {}; partial analytics in {run_dir}/current/",
            reasons.join("; ")
        ),
        indice::IngestOutcome::Failed(reasons) => {
            eprintln!("ingest failed: {}", reasons.join("; "))
        }
    }
    Ok(ExitCode::from(output.outcome.exit_code()))
}

/// Runs a multi-city fleet under the shard coordinator.
fn fleet(args: &FleetArgs) -> Result<ExitCode, String> {
    let (cities, out_dir) = (args.cities, &args.out_dir);
    let runtime = epc_runtime::RuntimeConfig::try_from_env()?;
    let plan = FleetConfig {
        n_cities: cities,
        records_per_city: args.records,
        seed: args.seed,
    };

    // Chaos flags build a per-city fault plan; kill and corrupt specs
    // aimed at the same city compose into one spec.
    let mut specs: std::collections::BTreeMap<usize, CityFaultSpec> =
        std::collections::BTreeMap::new();
    if let Some(idx) = args.kill_city {
        specs.entry(idx).or_default().kill = Some(StageKillSpec {
            stage: args.kill_stage.clone(),
            attempt: args.kill_attempt,
        });
    }
    if let Some(idx) = args.corrupt_city {
        specs.entry(idx).or_default().record_rate = args.fault_rate;
    }
    let faults = if specs.is_empty() {
        None
    } else {
        let mut plan_faults = FleetFaults::new(args.fault_seed);
        for (idx, spec) in specs {
            plan_faults = plan_faults.with_city(&plan.city(idx).id, spec);
        }
        Some(plan_faults)
    };

    let crash = args.crash_at_city.as_ref().map(|(idx, point)| {
        if point == "before" {
            CoordCrash::BeforeCity(*idx)
        } else {
            CoordCrash::AfterCommit(*idx)
        }
    });

    let clock = epc_runtime::WallClock::new();
    let mut opts = indice::FleetRunOptions::new(out_dir, plan, &clock);
    opts.resume = args.resume;
    opts.stakeholder = args.stakeholder;
    opts.policy = RetryPolicy {
        max_attempts: args.retry_budget,
        ..RetryPolicy::default()
    };
    opts.max_failed = args.max_failed_cities;
    opts.faults = faults.as_ref();
    opts.crash = crash;
    opts.runtime = runtime;

    let output = match indice::run_fleet(&opts) {
        Ok(output) => output,
        Err(IndiceError::CrashInjected { point, .. }) => {
            eprintln!(
                "injected coordinator crash fired ({point}); resume with \
                 `indice fleet run --cities {cities} --resume {out_dir}`"
            );
            return Ok(ExitCode::from(CRASH_EXIT_CODE));
        }
        Err(e) => return Err(format!("fleet run failed: {e}")),
    };

    let result = &output.result;
    if result.recovered_torn_tail {
        eprintln!(
            "warning: fleet journal in {out_dir}/ had a torn trailing line (crash during \
             append); it was discarded and the affected city replayed"
        );
    }
    if !result.journal_hits.is_empty() {
        println!(
            "resumed from fleet journal: {} city(ies) validated and skipped ({}), {} replayed",
            result.journal_hits.len(),
            result.journal_hits.join(", "),
            result.replayed.len()
        );
    }
    for shard in &result.shards {
        match &shard.status {
            ShardStatus::Committed => {
                let dash = "-".to_owned();
                let kept = shard.summary.get("kept").unwrap_or(&dash);
                let k = shard.summary.get("chosen_k").unwrap_or(&dash);
                let degraded = if shard.degraded { ", degraded" } else { "" };
                println!(
                    "  {}: committed after {} attempt(s){degraded} — {kept} records kept, K = {k}",
                    shard.city, shard.attempts
                );
            }
            ShardStatus::Abandoned { reason } => println!(
                "  {}: UNAVAILABLE after {} attempt(s) — {reason}",
                shard.city, shard.attempts
            ),
        }
    }
    match &result.outcome {
        epc_coord::FleetOutcome::Complete => println!(
            "fleet complete: {} cities committed; merged metrics + dashboard in {out_dir}/",
            result.shards.len()
        ),
        epc_coord::FleetOutcome::Degraded { failed_cities, .. } => println!(
            "fleet degraded: {} of {} cities unavailable ({}); partial merge in {out_dir}/",
            failed_cities.len(),
            result.shards.len(),
            failed_cities.join(", ")
        ),
        epc_coord::FleetOutcome::Failed(reason) => eprintln!("fleet failed: {reason}"),
    }
    Ok(ExitCode::from(result.outcome.exit_code()))
}

/// Loads the city `run` and `ingest` clean against — the referenced street
/// map and the region hierarchy — and the pipeline configuration carrying
/// the `INDICE_GEOCODE_RETRIES` budget.
fn load_city(
    streets: &str,
    regions: &str,
    geocode_retries: u32,
) -> Result<(StreetMap, RegionHierarchy, IndiceConfig), String> {
    let street_text = fs::read_to_string(streets).map_err(|e| format!("reading {streets}: {e}"))?;
    let street_map = StreetMap::from_text(&street_text)?;
    let regions_text =
        fs::read_to_string(regions).map_err(|e| format!("reading {regions}: {e}"))?;
    let hierarchy: RegionHierarchy =
        serde_json::from_str(&regions_text).map_err(|e| format!("parsing {regions}: {e}"))?;
    let mut config = IndiceConfig::default();
    config.fault_tolerance.geocode_retries = geocode_retries;
    Ok((street_map, hierarchy, config))
}

/// Writes the metrics snapshot: `.json` selects the JSON codec, anything
/// else the Prometheus-style text exposition.
fn write_metrics(path: &str, obs: &epc_obs::Obs<'_>) -> Result<(), String> {
    let body = if path.ends_with(".json") {
        obs.metrics().to_json()
    } else {
        obs.metrics().expose_text()
    };
    write_atomic_path(Path::new(path), body.as_bytes())
        .map(|_| ())
        .map_err(|e| format!("writing {path}: {e}"))
}

/// The pipeline's measured numbers at one collection size.
struct BenchRun {
    json: String,
    exit_code: u8,
    threads: usize,
    total_ms: u64,
    records_per_sec: f64,
    durable_ms: u64,
}

/// The synthetic collection `bench` measures at `records`.
fn bench_collection(records: usize, seed: u64) -> epc_synth::SyntheticCollection {
    let mut collection = EpcGenerator::new(SynthConfig {
        n_records: records,
        seed,
        ..SynthConfig::default()
    })
    .generate();
    apply_noise(&mut collection, &NoiseConfig::default());
    collection
}

/// What loading and identifying one size's input costs.
struct LoadRun {
    csv_bytes: usize,
    load_ms: u64,
    input_hash_ms: u64,
}

/// Renders the collection at `records` to CSV (untimed), then times the
/// lenient reader `indice run` loads it with and the streamed SHA-256 a
/// durable run identifies its input by. Fails unless every row parses and
/// the parsed dataset re-renders to the same bytes (equal digests). The
/// text and the dataset are dropped before it returns.
fn bench_load(records: usize, seed: u64) -> Result<LoadRun, String> {
    use epc_runtime::Clock;
    let text = epc_model::csv::to_csv(&bench_collection(records, seed).dataset);
    let clock = epc_runtime::WallClock::new();
    let mut quarantine = Quarantine::new();
    let start = clock.now_ms();
    let dataset = epc_model::csv::from_csv_lenient(
        epc_model::schema::standard_epc_schema(),
        &text,
        &mut quarantine,
    )
    .map_err(|e| format!("bench: reading back the {records}-record CSV: {e}"))?;
    let loaded = clock.now_ms();
    let mut hasher = epc_journal::Sha256::new();
    epc_model::csv::write_csv(&dataset, &mut hasher)
        .map_err(|e| format!("bench: hashing the {records}-record input: {e}"))?;
    let input_hash = hasher.finish_hex();
    let hashed = clock.now_ms();
    if !quarantine.is_empty() || input_hash != epc_journal::hash_hex(text.as_bytes()) {
        return Err(format!(
            "bench: the {records}-record CSV does not read back to the same bytes \
             ({} rows quarantined)",
            quarantine.len()
        ));
    }
    Ok(LoadRun {
        csv_bytes: text.len(),
        load_ms: loaded - start,
        input_hash_ms: hashed - loaded,
    })
}

/// Times one durable run of `indice` — the input identified, every stage
/// checkpointed and journaled — into a fresh directory under the system
/// temp dir, which it removes afterwards. Fails unless the run completes.
fn bench_durable(indice: &Indice, records: usize) -> Result<u64, String> {
    use epc_runtime::Clock;
    let dir = std::env::temp_dir().join(format!("indice-bench-{}-{records}", std::process::id()));
    let fresh = |dir: &Path| match fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("bench: removing {}: {e}", dir.display()))
        }
        _ => Ok(()),
    };
    fresh(&dir)?;
    let clock = epc_runtime::WallClock::new();
    let start = clock.now_ms();
    let output = indice.run_durable(
        epc_query::Stakeholder::PublicAdministration,
        &DurableOptions::new(&dir),
    );
    let wall_ms = clock.now_ms() - start;
    fresh(&dir)?;
    let outcome = output
        .map_err(|e| format!("bench: the durable run at {records} records: {e}"))?
        .outcome;
    if !matches!(outcome, RunOutcome::Complete) {
        return Err(format!(
            "bench: the durable run at {records} records ended {outcome}"
        ));
    }
    Ok(wall_ms)
}

/// Runs the observed pipeline once at `records` and formats its
/// per-stage fields of the size block, then times one durable run of the
/// same collection ([`bench_durable`]).
fn bench_one(records: usize, seed: u64) -> Result<BenchRun, String> {
    let runtime = epc_runtime::RuntimeConfig::try_from_env()?;
    let collection = bench_collection(records, seed);
    let indice = Indice::from_collection(collection, IndiceConfig::default()).with_runtime(runtime);
    let clock = epc_runtime::WallClock::new();
    let obs = epc_obs::Obs::new(&clock);
    let output = indice.run_supervised(
        epc_query::Stakeholder::PublicAdministration,
        None,
        Some(&obs),
    );

    let total_ms = output.report.total_wall().as_millis() as u64;
    let per_sec = |n: usize, ms: u64| {
        if ms == 0 {
            0.0
        } else {
            n as f64 * 1000.0 / ms as f64
        }
    };
    let records_per_sec = per_sec(records, total_ms);
    // Peak shard imbalance of the deterministic chunking: largest shard
    // over the mean shard (1.0 = perfectly even split).
    let shards = epc_runtime::shard_sizes(&runtime, records);
    let peak_shard_imbalance = if shards.is_empty() {
        1.0
    } else {
        let mean = shards.iter().sum::<usize>() as f64 / shards.len() as f64;
        shards.iter().copied().max().unwrap_or(0) as f64 / mean
    };

    let mut stages = String::new();
    for (i, s) in output.report.stages.iter().enumerate() {
        if i > 0 {
            stages.push_str(",\n");
        }
        let wall_ms = s.wall.as_millis() as u64;
        stages.push_str(&format!(
            "        {{\"name\": \"{}\", \"records_in\": {}, \"records_out\": {}, \
             \"wall_ms\": {wall_ms}, \"records_per_sec\": {:.1}}}",
            s.name,
            s.records_in,
            s.records_out,
            per_sec(s.records_in, wall_ms),
        ));
    }
    let kept = output
        .preprocess
        .as_ref()
        .map(|p| p.dataset.n_rows())
        .unwrap_or(0);
    let chosen_k = output.analytics.as_ref().map(|a| a.chosen_k).unwrap_or(0);
    let rules = output
        .analytics
        .as_ref()
        .map(|a| a.rules.len())
        .unwrap_or(0);
    // Everything in this block reproduces exactly across runs; wall
    // times do not.
    let deterministic = format!(
        "{{\n\
         \x20       \"artifacts\": {artifacts},\n\
         \x20       \"chosen_k\": {chosen_k},\n\
         \x20       \"kept_records\": {kept},\n\
         \x20       \"outcome\": \"{outcome}\",\n\
         \x20       \"quarantined\": {quarantined},\n\
         \x20       \"rules\": {rules}\n\
         \x20     }}",
        artifacts = output.artifacts.len(),
        outcome = output.outcome,
        quarantined = output.quarantine.len(),
    );
    let exit_code = output.outcome.exit_code();
    let threads = output.report.threads;
    // The supervised run's products go before the durable run starts.
    drop(output);
    let durable_ms = bench_durable(&indice, records)?;
    let json = format!(
        "      \"stages\": [\n{stages}\n      ],\n\
         \x20     \"total_wall_ms\": {total_ms},\n\
         \x20     \"records_per_sec\": {records_per_sec:.1},\n\
         \x20     \"peak_shard_imbalance\": {peak_shard_imbalance:.4},\n\
         \x20     \"durable_wall_ms\": {durable_ms},\n\
         \x20     \"deterministic\": {deterministic}",
    );
    Ok(BenchRun {
        json,
        exit_code,
        threads,
        total_ms,
        records_per_sec,
        durable_ms,
    })
}

/// Runs the full observed pipeline over in-memory synthetic collections —
/// once per size, after timing the load of that size's CSV
/// ([`bench_load`]), and then once more as a durable run — and writes an
/// indice-bench/4 snapshot.
fn bench(records_list: &[usize], seed: u64, out: &str) -> Result<ExitCode, String> {
    let mut worst_exit = 0u8;
    let mut threads = 0usize;
    let mut runs = String::new();
    for (ri, &records) in records_list.iter().enumerate() {
        if ri > 0 {
            runs.push_str(",\n");
        }
        let load = bench_load(records, seed)?;
        println!(
            "bench: {records} records, {} CSV bytes, load {} ms, input hash {} ms",
            load.csv_bytes, load.load_ms, load.input_hash_ms
        );
        let run = bench_one(records, seed)?;
        threads = run.threads;
        worst_exit = worst_exit.max(run.exit_code);
        println!(
            "bench: {records} records, {} threads, {} ms total ({:.1} records/sec), \
             durable run {} ms",
            run.threads, run.total_ms, run.records_per_sec, run.durable_ms
        );
        runs.push_str(&format!(
            "    {{\n      \"records\": {records},\n      \"load\": {{\"csv_bytes\": {}, \
             \"load_ms\": {}, \"input_hash_ms\": {}}},\n{}\n    }}",
            load.csv_bytes, load.load_ms, load.input_hash_ms, run.json
        ));
    }
    let snapshot = format!(
        "{{\n\
         \x20 \"schema\": \"indice-bench/4\",\n\
         \x20 \"seed\": {seed},\n\
         \x20 \"threads\": {threads},\n\
         \x20 \"runs\": [\n{runs}\n  ]\n\
         }}\n"
    );
    write_atomic_path(Path::new(out), snapshot.as_bytes())
        .map_err(|e| format!("writing {out}: {e}"))?;
    println!("bench: snapshot written to {out}");
    Ok(ExitCode::from(worst_exit))
}

/// Writes to stdout ignoring broken pipes (`indice describe | head` must
/// not panic).
fn print_out(s: &str) {
    use std::io::Write;
    let _ = std::io::stdout().write_all(s.as_bytes());
}

fn load_dataset(path: &str) -> Result<Dataset, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let schema = epc_model::schema::standard_epc_schema();
    epc_model::csv::from_csv(schema, &text).map_err(|e| format!("parsing {path}: {e}"))
}

/// Like [`load_dataset`], but unparsable rows are quarantined instead of
/// failing the whole load.
fn load_dataset_lenient(path: &str) -> Result<(Dataset, Quarantine), String> {
    let text = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let schema = epc_model::schema::standard_epc_schema();
    let mut quarantine = Quarantine::new();
    let dataset = epc_model::csv::from_csv_lenient(schema, &text, &mut quarantine)
        .map_err(|e| format!("parsing {path}: {e}"))?;
    Ok((dataset, quarantine))
}
