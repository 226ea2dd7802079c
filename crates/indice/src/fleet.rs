//! Multi-city fleet runs: the EPC pipeline behind an [`epc_coord`]
//! shard coordinator.
//!
//! One fleet run expands an [`epc_synth::FleetConfig`] into N per-city
//! collections and runs each city's full durable pipeline as a supervised
//! shard under `<fleet dir>/cities/<city id>/`. Shard attempts always
//! start *fresh* (the city directory is wiped first): per-city resume
//! would leave resume counters in the shard metrics and break the
//! byte-equality between interrupted and uninterrupted fleets — fleet
//! crash safety comes from the fleet journal, not from per-city resume.
//!
//! After the coordinator returns, the per-city `epc-obs` metric
//! registries are merged from disk with the conservation-tested
//! [`MetricsRegistry::merge`] into `fleet.metrics.json`, and a cross-city
//! comparison dashboard is rendered to `fleet_dashboard.html` — abandoned
//! cities appear as explicit "unavailable" panels, mirroring the
//! analytics degradation pattern of single-city dashboards.

use crate::config::IndiceConfig;
use crate::durable::DurableOptions;
use crate::engine::Indice;
use crate::error::{dur, IndiceError};
use crate::pipeline::RunOutcome;
use epc_coord::{
    CoordError, FleetOptions, FleetResult, RetryPolicy, ShardAttempt, ShardReport, ShardRunner,
    ShardStatus,
};
use epc_faults::FleetFaults;
use epc_journal::{hash_hex, write_atomic, ArtifactRecord, CrashPoint};
use epc_obs::{Histogram, MetricsRegistry, MetricsSnapshot, Obs};
use epc_query::stakeholder::Stakeholder;
use epc_runtime::{Clock, RuntimeConfig};
use epc_synth::noise::{apply_noise, NoiseConfig};
use epc_synth::{CitySpec, EpcGenerator, FleetConfig};
use serde::Deserialize;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// Subdirectory of the fleet directory holding per-city run directories.
pub const CITIES_DIR: &str = "cities";

/// Merged cross-city metrics artifact at the fleet-directory root.
pub const FLEET_METRICS_FILE: &str = "fleet.metrics.json";

/// Cross-city comparison dashboard at the fleet-directory root.
pub const FLEET_DASHBOARD_FILE: &str = "fleet_dashboard.html";

/// Per-city metrics snapshot inside each committed city directory.
pub const CITY_METRICS_FILE: &str = "metrics.json";

/// How a fleet run executes.
pub struct FleetRunOptions<'a> {
    /// Fleet run directory (fleet journal, merged artifacts, and the
    /// per-city subdirectories live here).
    pub dir: PathBuf,
    /// Resume from the fleet journal instead of starting fresh.
    pub resume: bool,
    /// The fleet plan (cities, sizes, seeds).
    pub fleet: FleetConfig,
    /// Stakeholder every shard runs for.
    pub stakeholder: Stakeholder,
    /// Retry budget and deterministic backoff schedule.
    pub policy: RetryPolicy,
    /// Abandoned-city tolerance before the fleet fails outright.
    pub max_failed: Option<usize>,
    /// Per-city fault plan (chaos testing).
    pub faults: Option<&'a FleetFaults>,
    /// Injected crash at a city's commit, by plan index (durability
    /// testing).
    pub crash: Option<CrashPoint<usize>>,
    /// Clock for shard observability (tests pass a manual clock).
    pub clock: &'a dyn Clock,
    /// Intra-shard thread budget; fleet outputs are bitwise invariant to
    /// it.
    pub runtime: RuntimeConfig,
}

impl<'a> FleetRunOptions<'a> {
    /// Fresh-run options with default policy, no faults, no tolerance
    /// limit.
    pub fn new(dir: impl Into<PathBuf>, fleet: FleetConfig, clock: &'a dyn Clock) -> Self {
        FleetRunOptions {
            dir: dir.into(),
            resume: false,
            fleet,
            stakeholder: Stakeholder::PublicAdministration,
            policy: RetryPolicy::default(),
            max_failed: None,
            faults: None,
            crash: None,
            clock,
            runtime: RuntimeConfig::default(),
        }
    }
}

/// The result of a fleet run.
#[derive(Debug)]
pub struct FleetRunOutput {
    /// Coordinator result: outcome ladder, per-city reports, journal
    /// hit/replay sets.
    pub result: FleetResult,
    /// The merged cross-city metrics (also written to
    /// [`FLEET_METRICS_FILE`]).
    pub metrics: MetricsSnapshot,
}

/// Fingerprint of the effective fleet computation: plan, stakeholder,
/// retry policy, and fault plan — anything that changes shard outputs.
/// Deliberately excludes the thread budget and the abandoned-city
/// tolerance (neither changes a committed shard's bytes).
fn fleet_fingerprint(opts: &FleetRunOptions<'_>) -> String {
    let faults = opts
        .faults
        .map(|f| format!("{f:?}"))
        .unwrap_or_else(|| "none".to_owned());
    let text = format!(
        "{:?}|{:?}|{:?}|{faults}",
        opts.stakeholder, opts.fleet, opts.policy
    );
    hash_hex(text.as_bytes())
}

/// Hashes an existing file under the fleet directory into an
/// [`ArtifactRecord`] (path kept relative to the fleet directory).
/// Missing files yield `None` — a degraded shard may not have rendered a
/// dashboard.
fn record_existing(fleet_dir: &Path, rel: &str) -> Result<Option<ArtifactRecord>, CoordError> {
    match fs::read(fleet_dir.join(rel)) {
        Ok(bytes) => Ok(Some(ArtifactRecord {
            file: rel.to_owned(),
            sha256: hash_hex(&bytes),
            bytes: bytes.len() as u64,
        })),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(CoordError::Io(format!("hashing shard artifact {rel}: {e}"))),
    }
}

/// Runs one city's full pipeline as a coordinator shard.
struct PipelineShardRunner<'a> {
    opts: &'a FleetRunOptions<'a>,
    specs: BTreeMap<String, CitySpec>,
}

impl ShardRunner for PipelineShardRunner<'_> {
    fn run_attempt(&self, city: &str, attempt: u32) -> Result<ShardAttempt, CoordError> {
        let Some(spec) = self.specs.get(city) else {
            return Err(CoordError::Io(format!("no spec for city '{city}'")));
        };
        let city_rel = format!("{CITIES_DIR}/{city}");
        let city_dir = self.opts.dir.join(&city_rel);
        // Always start fresh: a half-written attempt must not leak state
        // (or resume counters) into this one.
        if city_dir.exists() {
            fs::remove_dir_all(&city_dir).map_err(|e| {
                CoordError::Io(format!(
                    "wiping shard directory {}: {e}",
                    city_dir.display()
                ))
            })?;
        }

        let mut collection = EpcGenerator::new(spec.synth.clone()).generate();
        apply_noise(&mut collection, &NoiseConfig::default());
        let n_input = collection.dataset.n_rows();
        let engine = Indice::from_collection(collection, IndiceConfig::default())
            .with_runtime(self.opts.runtime);

        let obs = Obs::new(self.opts.clock);
        let injector = self
            .opts
            .faults
            .map(|faults| faults.injector_for(city, attempt));
        let mut dopts = DurableOptions::new(&city_dir).with_obs(&obs);
        if let Some(injector) = &injector {
            dopts = dopts.with_injector(injector);
        }
        let output = match engine.run_durable(self.opts.stakeholder, &dopts) {
            Ok(output) => output,
            // Shard-level durability errors are retriable failures, not
            // coordinator crashes.
            Err(e) => {
                return Ok(ShardAttempt::Failed {
                    reason: e.to_string(),
                })
            }
        };

        let (degraded, reasons) = match &output.outcome {
            RunOutcome::Complete => (false, Vec::new()),
            RunOutcome::Degraded(reasons) => (true, reasons.clone()),
            RunOutcome::Failed(e) => {
                return Ok(ShardAttempt::Failed {
                    reason: e.to_string(),
                })
            }
        };

        let mut summary = BTreeMap::new();
        summary.insert("city".to_owned(), spec.synth.city.name.clone());
        summary.insert("records".to_owned(), n_input.to_string());
        let kept = output
            .preprocess
            .as_ref()
            .map(|p| p.dataset.n_rows())
            .unwrap_or(0);
        summary.insert("kept".to_owned(), kept.to_string());
        summary.insert(
            "chosen_k".to_owned(),
            output
                .analytics
                .as_ref()
                .map(|a| a.chosen_k.to_string())
                .unwrap_or_else(|| "-".to_owned()),
        );
        summary.insert(
            "rules".to_owned(),
            output
                .analytics
                .as_ref()
                .map(|a| a.rules.len().to_string())
                .unwrap_or_else(|| "-".to_owned()),
        );
        summary.insert(
            "quarantined".to_owned(),
            output.quarantine.len().to_string(),
        );
        summary.insert("outcome".to_owned(), output.outcome.to_string());

        // Commit artifacts the fleet journal will verify on resume: the
        // shard's metrics snapshot, its run journal, and its dashboard.
        let metrics_rec = write_atomic(
            &city_dir,
            CITY_METRICS_FILE,
            obs.metrics().to_json().as_bytes(),
        )
        .map_err(|e| CoordError::Io(format!("writing shard metrics for {city}: {e}")))?;
        let mut checkpoints = vec![ArtifactRecord {
            file: format!("{city_rel}/{CITY_METRICS_FILE}"),
            ..metrics_rec
        }];
        for rel in [
            format!("{city_rel}/{}", epc_journal::MANIFEST_FILE),
            format!("{city_rel}/{}", crate::durable::DASHBOARD_FILE),
        ] {
            if let Some(rec) = record_existing(&self.opts.dir, &rel)? {
                checkpoints.push(rec);
            }
        }

        Ok(ShardAttempt::Committed {
            degraded,
            reasons,
            summary,
            checkpoints,
        })
    }
}

/// JSON shape of [`MetricsRegistry::to_json`], for reading shard
/// snapshots back off disk.
#[derive(Deserialize)]
struct MetricsJson {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, HistogramJson>,
}

#[derive(Deserialize)]
struct HistogramJson {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    sum: u64,
    count: u64,
}

fn parse_metrics(text: &str, what: &str) -> Result<MetricsSnapshot, IndiceError> {
    let raw: MetricsJson = serde_json::from_str(text)
        .map_err(|e| IndiceError::Durability(format!("parsing {what}: {e}")))?;
    let mut histograms = BTreeMap::new();
    for (name, h) in raw.histograms {
        let hist = Histogram::from_parts(h.bounds, h.counts, h.sum, h.count).ok_or_else(|| {
            IndiceError::Durability(format!("inconsistent histogram '{name}' in {what}"))
        })?;
        histograms.insert(name, hist);
    }
    Ok(MetricsSnapshot {
        counters: raw.counters,
        gauges: raw.gauges,
        histograms,
    })
}

/// Merges every committed shard's on-disk metrics (journal hits and
/// replays read the same bytes, so resumed fleets merge identically) and
/// layers the fleet-level counters derived from the final reports on top.
fn merge_fleet_metrics(
    fleet_dir: &Path,
    shards: &[ShardReport],
) -> Result<MetricsSnapshot, IndiceError> {
    let registry = MetricsRegistry::new();
    let mut committed = 0u64;
    let mut abandoned = 0u64;
    let mut retries = 0u64;
    for shard in shards {
        retries += u64::from(shard.attempts.saturating_sub(1));
        match &shard.status {
            ShardStatus::Committed => {
                committed += 1;
                let rel = format!("{CITIES_DIR}/{}/{CITY_METRICS_FILE}", shard.city);
                let text = dur(
                    fs::read_to_string(fleet_dir.join(&rel)),
                    &format!("reading shard metrics {rel}"),
                )?;
                registry.merge(&parse_metrics(&text, &rel)?);
            }
            ShardStatus::Abandoned { .. } => abandoned += 1,
        }
    }
    registry.inc("fleet_cities_total", shards.len() as u64);
    registry.inc("fleet_cities_committed", committed);
    registry.inc("fleet_cities_abandoned", abandoned);
    registry.inc("fleet_retries_total", retries);
    Ok(registry.snapshot())
}

fn html_escape(raw: &str) -> String {
    raw.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Renders the cross-city comparison dashboard as a pure function of the
/// shard reports — committed cities get a summary panel, abandoned cities
/// an explicit "unavailable" panel with the final failure reason.
fn render_fleet_dashboard(shards: &[ShardReport], outcome_line: &str) -> String {
    let mut panels = String::new();
    for shard in shards {
        let title = shard
            .summary
            .get("city")
            .cloned()
            .unwrap_or_else(|| shard.city.clone());
        match &shard.status {
            ShardStatus::Committed => {
                let mut rows = String::new();
                for (key, value) in &shard.summary {
                    if key == "city" {
                        continue;
                    }
                    rows.push_str(&format!(
                        "<tr><th>{}</th><td>{}</td></tr>",
                        html_escape(key),
                        html_escape(value)
                    ));
                }
                rows.push_str(&format!(
                    "<tr><th>attempts</th><td>{}</td></tr>",
                    shard.attempts
                ));
                let badge = if shard.degraded {
                    " <span class=\"badge degraded\">degraded</span>"
                } else {
                    ""
                };
                panels.push_str(&format!(
                    "<section class=\"city\" id=\"{id}\"><h2>{title}{badge}</h2>\
                     <table>{rows}</table></section>\n",
                    id = html_escape(&shard.city),
                    title = html_escape(&title),
                ));
            }
            ShardStatus::Abandoned { reason } => {
                panels.push_str(&format!(
                    "<section class=\"city unavailable\" id=\"{id}\"><h2>{title}</h2>\
                     <p class=\"reason\">city unavailable after {attempts} attempt(s): {reason}</p>\
                     </section>\n",
                    id = html_escape(&shard.city),
                    title = html_escape(&title),
                    attempts = shard.attempts,
                    reason = html_escape(reason),
                ));
            }
        }
    }
    format!(
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\
         <title>INDICE fleet dashboard</title>\n<style>\n\
         body {{ font-family: sans-serif; margin: 2rem; }}\n\
         section.city {{ border: 1px solid #ccc; border-radius: 6px; \
         padding: 1rem; margin-bottom: 1rem; }}\n\
         section.unavailable {{ border-color: #c00; background: #fff4f4; }}\n\
         .badge.degraded {{ color: #a60; font-size: 0.8em; }}\n\
         th {{ text-align: left; padding-right: 1rem; }}\n\
         </style></head><body>\n<h1>INDICE fleet dashboard</h1>\n\
         <p class=\"outcome\">{outcome}</p>\n{panels}</body></html>\n",
        outcome = html_escape(outcome_line),
        panels = panels,
    )
}

/// Runs a multi-city fleet: expands the plan, shards each city through
/// the supervised durable pipeline under the [`epc_coord`] coordinator,
/// merges metrics, and renders the cross-city dashboard. `Err` is
/// reserved for fleet-level I/O failures and injected coordinator crash
/// points; per-city failures degrade the [`epc_coord::FleetOutcome`]
/// inside the output.
pub fn run_fleet(opts: &FleetRunOptions<'_>) -> Result<FleetRunOutput, IndiceError> {
    let specs = opts.fleet.cities();
    let cities: Vec<String> = specs.iter().map(|s| s.id.clone()).collect();
    let specs: BTreeMap<String, CitySpec> = specs.into_iter().map(|s| (s.id.clone(), s)).collect();

    let coord_opts = FleetOptions {
        dir: opts.dir.clone(),
        resume: opts.resume,
        policy: opts.policy.clone(),
        fingerprint: fleet_fingerprint(opts),
        max_failed: opts.max_failed,
        crash: opts.crash,
    };
    let runner = PipelineShardRunner { opts, specs };
    let result = epc_coord::run_fleet(&cities, &coord_opts, &runner).map_err(|e| match e {
        CoordError::Io(msg) => IndiceError::Durability(msg),
        CoordError::CrashInjected(c) => IndiceError::crash(format_args!("city {}", c.at), c.point),
    })?;

    let metrics = merge_fleet_metrics(&opts.dir, &result.shards)?;
    let registry = MetricsRegistry::new();
    registry.merge(&metrics);
    dur(
        write_atomic(&opts.dir, FLEET_METRICS_FILE, registry.to_json().as_bytes()),
        &format!("writing {FLEET_METRICS_FILE}"),
    )?;

    let outcome_line = match &result.outcome {
        epc_coord::FleetOutcome::Complete => {
            format!("complete: all {} cities committed", result.shards.len())
        }
        epc_coord::FleetOutcome::Degraded { failed_cities, .. } => format!(
            "degraded: {} of {} cities unavailable ({})",
            failed_cities.len(),
            result.shards.len(),
            failed_cities.join(", ")
        ),
        epc_coord::FleetOutcome::Failed(reason) => format!("failed: {reason}"),
    };
    let html = render_fleet_dashboard(&result.shards, &outcome_line);
    dur(
        write_atomic(&opts.dir, FLEET_DASHBOARD_FILE, html.as_bytes()),
        &format!("writing {FLEET_DASHBOARD_FILE}"),
    )?;

    Ok(FleetRunOutput { result, metrics })
}
