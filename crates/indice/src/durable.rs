//! Durable pipeline execution: journaled checkpoint/resume.
//!
//! A durable run owns a *run directory*. After each stage completes, its
//! product is serialized ([`crate::checkpoint`]) and committed with the
//! atomic write-fsync-rename protocol of [`epc_journal`]; the stage's
//! journal line (appended to `run.manifest.jsonl` *after* the checkpoints
//! are durable) is the commit point. An interrupted run — crash, kill,
//! power loss, torn write — resumes with [`DurableOptions::resume`]: every
//! journal entry is validated (sequence position, stage name, config
//! fingerprint, input hash, and a byte-level hash check of every
//! checkpoint file) and the pipeline replays from the first entry that
//! fails validation. Because the pipeline is bitwise-deterministic and the
//! journal carries no timestamps, a resumed run's directory — artifacts,
//! checkpoints, and the journal itself — is byte-identical to an
//! uninterrupted run's.
//!
//! The runner also hosts the stage deadline watchdog
//! ([`crate::pipeline::StageDeadline`]) and honours an injected crash
//! point ([`epc_journal::CrashPoint`] over [`Stage`]) for durability
//! testing.

use crate::analytics::AnalyticsOutput;
use crate::checkpoint;
use crate::config::IndiceConfig;
use crate::error::{dur, IndiceError};
use crate::pipeline::{
    execute_stage_supervised, finish_outcome, PipelineContext, RunOutcome, Stage, StageDeadline,
    StageExec,
};
use crate::preprocess::PreprocessOutput;
use epc_faults::FaultInjector;
use epc_geo::region::RegionHierarchy;
use epc_geo::streetmap::StreetMap;
use epc_journal::{
    write_atomic_path, ArtifactRecord, CommitPoint, CrashPoint, Journal, Sha256, StageEntry,
};
use epc_model::{csv::write_csv, Dataset, Quarantine};
use epc_query::stakeholder::Stakeholder;
use epc_runtime::{PipelineReport, StageReport};
use epc_viz::dashboard::Dashboard;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Subdirectory of the run directory holding stage checkpoints.
pub const CHECKPOINT_DIR: &str = "checkpoints";

/// Name of the rendered dashboard artifact at the run-directory root.
pub const DASHBOARD_FILE: &str = "dashboard.html";

/// How a durable run executes.
pub struct DurableOptions<'a> {
    /// The run directory (journal, checkpoints, and artifacts live here).
    pub run_dir: PathBuf,
    /// Resume from the directory's journal instead of starting over.
    pub resume: bool,
    /// Optional per-stage deadline watchdog.
    pub deadline: Option<StageDeadline<'a>>,
    /// Optional injected crash point (durability testing).
    pub crash: Option<&'a CrashPoint<Stage>>,
    /// Optional fault injector (chaos testing).
    pub injector: Option<&'a dyn FaultInjector>,
    /// Optional observability bundle: stage spans, journal hit/commit
    /// points, and checkpoint byte counters land here.
    pub obs: Option<&'a epc_obs::Obs<'a>>,
}

impl<'a> DurableOptions<'a> {
    /// Fresh (non-resuming) options for a run directory.
    pub fn new(run_dir: impl Into<PathBuf>) -> Self {
        DurableOptions {
            run_dir: run_dir.into(),
            resume: false,
            deadline: None,
            crash: None,
            injector: None,
            obs: None,
        }
    }

    /// Resume from the directory's journal (builder style).
    pub fn resuming(mut self) -> Self {
        self.resume = true;
        self
    }

    /// Attaches a deadline watchdog (builder style).
    pub fn with_deadline(mut self, deadline: StageDeadline<'a>) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches an injected crash point (builder style).
    pub fn with_crash(mut self, crash: &'a CrashPoint<Stage>) -> Self {
        self.crash = Some(crash);
        self
    }

    /// Attaches a fault injector (builder style).
    pub fn with_injector(mut self, injector: &'a dyn FaultInjector) -> Self {
        self.injector = Some(injector);
        self
    }

    /// Attaches an observability bundle (builder style).
    pub fn with_obs(mut self, obs: &'a epc_obs::Obs<'a>) -> Self {
        self.obs = Some(obs);
        self
    }
}

/// The result of a durable run.
#[derive(Debug)]
pub struct DurableOutput {
    /// How the run ended (identical to an uninterrupted supervised run).
    pub outcome: RunOutcome,
    /// Per-stage instrumentation. Stages satisfied from the journal appear
    /// with zero wall time and their journaled counts.
    pub report: PipelineReport,
    /// Stage-1 product (run or rehydrated).
    pub preprocess: Option<PreprocessOutput>,
    /// Stage-2 product (run or rehydrated).
    pub analytics: Option<AnalyticsOutput>,
    /// Stage-3 dashboard — only when the stage ran in this process (a
    /// journal-hit dashboard stage leaves its artifacts on disk instead).
    pub dashboard: Option<Dashboard>,
    /// Standalone artifacts, file name → content.
    pub artifacts: BTreeMap<String, String>,
    /// Records diverted out of the run, with their faults.
    pub quarantine: Quarantine,
    /// Stages the supervisor degraded.
    pub degraded_stages: Vec<String>,
    /// Stages satisfied from the journal without re-running.
    pub journal_hits: Vec<String>,
    /// Stages actually executed by this process.
    pub replayed: Vec<String>,
    /// Why resume validation dropped a journal suffix, when it did — the
    /// message names the run directory and the offending seq.
    pub resume_rejection: Option<String>,
    /// `true` when loading the journal discarded a torn trailing line (a
    /// crash-during-append artifact). The recovery is sound — the run
    /// replays from the last committed stage — but it is surfaced here so
    /// the CLI can warn instead of swallowing it.
    pub recovered_torn_tail: bool,
}

/// Fingerprint of the effective computation: configuration, stakeholder,
/// and the reference inputs (street map, hierarchy). Deliberately excludes
/// the runtime thread budget — outputs are bitwise thread-count-invariant,
/// so a run may be resumed at a different parallelism.
///
/// The digest is SHA-256 over `{config:?}|{stakeholder:?}|`, the street
/// map's text, `|`, and the hierarchy's JSON, streamed into the hasher
/// piece by piece instead of formatted into one string.
pub(crate) fn config_fingerprint(
    config: &IndiceConfig,
    stakeholder: Stakeholder,
    street_map: &StreetMap,
    hierarchy: &RegionHierarchy,
) -> Result<String, IndiceError> {
    Fingerprint::prepare(config, stakeholder, street_map, hierarchy)?.finish()
}

fn street_map_not_serializable(e: std::io::Error) -> IndiceError {
    IndiceError::Durability(format!("street map not serializable: {e}"))
}

/// A [`config_fingerprint`] whose every failure is behind it: the street
/// map's separator check and the hierarchy's JSON are done, the street
/// map's text is still to be hashed.
struct Fingerprint<'a> {
    /// `{config:?}|{stakeholder:?}|`.
    head: String,
    street_map: &'a StreetMap,
    regions: String,
}

impl<'a> Fingerprint<'a> {
    fn prepare(
        config: &IndiceConfig,
        stakeholder: Stakeholder,
        street_map: &'a StreetMap,
        hierarchy: &RegionHierarchy,
    ) -> Result<Self, IndiceError> {
        street_map
            .check_text()
            .map_err(street_map_not_serializable)?;
        let regions = serde_json::to_string(hierarchy)
            .map_err(|e| IndiceError::Durability(format!("hierarchy not serializable: {e}")))?;
        Ok(Fingerprint {
            head: format!("{config:?}|{stakeholder:?}|"),
            street_map,
            regions,
        })
    }

    /// The digest. Writing into a hasher does not fail and the separator
    /// check passed, so the error arm is never taken in practice.
    fn finish(&self) -> Result<String, IndiceError> {
        let mut hasher = Sha256::new();
        hasher.update(self.head.as_bytes());
        self.street_map
            .write_text(&mut hasher)
            .map_err(street_map_not_serializable)?;
        hasher.update(b"|");
        hasher.update(self.regions.as_bytes());
        Ok(hasher.finish_hex())
    }
}

/// SHA-256 of a dataset's CSV text ([`epc_model::csv::to_csv`]), streamed
/// into the hasher instead of rendered: the input hash journals and
/// generation manifests record.
pub(crate) fn csv_hash(dataset: &Dataset) -> Result<String, IndiceError> {
    let mut hasher = Sha256::new();
    dur(write_csv(dataset, &mut hasher), "hashing the input")?;
    Ok(hasher.finish_hex())
}

/// Validates journal entries against the expected stage sequence and the
/// current inputs; returns the length of the longest trustworthy prefix
/// plus, when a suffix is dropped, a rejection message naming the run
/// directory and the offending seq — multi-directory fleet runs are
/// undebuggable when the message only says *why*, not *where*.
fn validate_prefix(
    entries: &[StageEntry],
    config_fp: &str,
    input_hash: &str,
    run_dir: &Path,
) -> (usize, Option<String>) {
    let reject = |i: usize, entry: &StageEntry, why: String| {
        (
            i,
            Some(format!(
                "run {}: journal entry seq {} ({}) rejected: {why}",
                run_dir.display(),
                entry.seq,
                entry.stage
            )),
        )
    };
    for (i, entry) in entries.iter().enumerate() {
        let Some(expected) = Stage::ALL.get(i).filter(|_| entry.seq == i) else {
            return reject(
                i,
                entry,
                format!("expected seq {i} of {} stages", Stage::ALL.len()),
            );
        };
        if entry.stage != expected.name() {
            return reject(i, entry, format!("expected stage '{}'", expected.name()));
        }
        if entry.config_fingerprint != config_fp {
            return reject(i, entry, "stale config fingerprint".to_owned());
        }
        if entry.input_hash != input_hash {
            return reject(i, entry, "stale input hash".to_owned());
        }
        for rec in &entry.checkpoints {
            if let Err(e) = rec.read_verified(run_dir) {
                return reject(i, entry, e.to_string());
            }
        }
    }
    (entries.len(), None)
}

/// The files a stage's product occupies in a run directory — path
/// relative to the run directory and content, in journal order — or
/// `None` when the context holds no product for the stage (a degraded
/// stage commits no files). The durable runner writes this list; ingest
/// carries or writes the same list into `current/`. Artifact contents are
/// borrowed from the context, not copied.
pub(crate) fn stage_files<'c>(
    stage: Stage,
    ctx: &'c PipelineContext<'_>,
) -> Option<Vec<(String, Cow<'c, str>)>> {
    let in_ckpt_dir =
        |name: &str, text: String| vec![(format!("{CHECKPOINT_DIR}/{name}"), text.into())];
    match stage {
        Stage::Preprocess => ctx.preprocess.as_ref().map(|p| {
            in_ckpt_dir(
                "preprocess.ckpt.json",
                checkpoint::encode_preprocess(p, &ctx.quarantine),
            )
        }),
        Stage::Analytics => ctx
            .analytics
            .as_ref()
            .map(|a| in_ckpt_dir("analytics.ckpt.json", checkpoint::encode_analytics(a))),
        Stage::Dashboard => ctx.dashboard.as_ref().map(|d| {
            let mut files = Vec::with_capacity(ctx.artifacts.len() + 1);
            files.push((DASHBOARD_FILE.to_owned(), d.render_html().into()));
            files.extend(
                ctx.artifacts
                    .iter()
                    .map(|(file, content)| (file.clone(), content.as_str().into())),
            );
            files
        }),
    }
}

/// The journal entry committing stage `seq` of a run: its report counts,
/// the reasons it degraded the run, and the records of the files holding
/// its product (`None`: no product — the entry is marked degraded).
pub(crate) fn stage_entry(
    seq: usize,
    stage: Stage,
    config_fp: &str,
    input_hash: &str,
    reasons: Vec<String>,
    report: &PipelineReport,
    checkpoints: Option<Vec<ArtifactRecord>>,
) -> Result<StageEntry, IndiceError> {
    let sr = report
        .stages
        .get(seq)
        .ok_or_else(|| IndiceError::Internal("stage executed without a report entry".into()))?;
    Ok(StageEntry {
        seq,
        stage: stage.name().to_owned(),
        config_fingerprint: config_fp.to_owned(),
        input_hash: input_hash.to_owned(),
        degraded: checkpoints.is_none(),
        reasons,
        records_in: sr.records_in,
        records_out: sr.records_out,
        quarantined: sr.quarantined,
        faults: sr.faults.clone(),
        checkpoints: checkpoints.unwrap_or_default(),
    })
}

/// Rehydrates a journal-hit stage's product into the context.
fn rehydrate(
    stage: Stage,
    entry: &StageEntry,
    ctx: &mut PipelineContext<'_>,
    run_dir: &Path,
) -> Result<(), IndiceError> {
    let where_ = format!("seq {} of run {}", entry.seq, run_dir.display());
    let read = |rec: &ArtifactRecord| -> Result<String, IndiceError> {
        let bytes = dur(
            rec.read_verified(run_dir),
            &format!("re-reading checkpoint for {where_}"),
        )?;
        String::from_utf8(bytes)
            .map_err(|e| IndiceError::Durability(format!("checkpoint for {where_} not UTF-8: {e}")))
    };
    let first = || {
        entry.checkpoints.first().ok_or_else(|| {
            IndiceError::Durability(format!("{} journal entry has no checkpoint", entry.stage))
        })
    };
    let decode_err = |e: serde::Error| {
        IndiceError::Durability(format!(
            "decoding {} checkpoint at {where_}: {e}",
            entry.stage
        ))
    };
    match stage {
        Stage::Preprocess => {
            let (out, quarantine) =
                checkpoint::decode_preprocess(&read(first()?)?).map_err(decode_err)?;
            ctx.preprocess = Some(out);
            ctx.quarantine = quarantine;
        }
        Stage::Analytics => {
            ctx.analytics =
                Some(checkpoint::decode_analytics(&read(first()?)?).map_err(decode_err)?);
        }
        Stage::Dashboard => {
            for rec in &entry.checkpoints {
                if rec.file != DASHBOARD_FILE {
                    ctx.artifacts.insert(rec.file.clone(), read(rec)?);
                }
            }
        }
    }
    Ok(())
}

/// Atomically writes one file of a run directory (`rel` is relative to
/// `run_dir`) and records it under that relative path.
fn write_run_file(run_dir: &Path, rel: &str, content: &str) -> Result<ArtifactRecord, IndiceError> {
    let rec = dur(
        write_atomic_path(&run_dir.join(rel), content.as_bytes()),
        &format!("writing {rel}"),
    )?;
    Ok(ArtifactRecord {
        file: rel.to_owned(),
        ..rec
    })
}

/// How a stage ended before its journal line.
enum Executed {
    /// The stage succeeded or degraded, and the files holding its product
    /// are written (`None`: no product); its journal line comes next.
    Written {
        reasons: Vec<String>,
        checkpoints: Option<Vec<ArtifactRecord>>,
    },
    /// A required stage failed; nothing of it is committed.
    Failed(IndiceError),
}

/// Runs `stage` under the supervisor and writes its files: the stage's
/// commit up to its journal line, which is the first thing that needs the
/// run's identity. An injected `before` crash stops it first.
fn execute_and_write(
    stage: Stage,
    ctx: &mut PipelineContext<'_>,
    report: &mut PipelineReport,
    opts: &DurableOptions<'_>,
    replayed: &mut Vec<String>,
) -> Result<Executed, IndiceError> {
    let name = stage.name();
    if opts
        .crash
        .is_some_and(|c| c.is_at(&stage, CommitPoint::Before))
    {
        return Err(IndiceError::crash(name, CommitPoint::Before));
    }
    let exec = execute_stage_supervised(stage, stage.policy(), ctx, report, opts.deadline.as_ref());
    replayed.push(name.to_owned());
    if let Some(obs) = ctx.obs {
        obs.metrics().inc("resume_replayed", 1);
    }
    let reasons = match exec {
        StageExec::Succeeded => Vec::new(),
        StageExec::Degraded(reason) => vec![reason],
        // A failed required stage commits nothing; the journal keeps the
        // prefix so a rerun replays from here.
        StageExec::Failed(e) => return Ok(Executed::Failed(e)),
    };
    let checkpoints = stage_files(stage, ctx)
        .map(|files| {
            files
                .iter()
                .map(|(rel, content)| write_run_file(&opts.run_dir, rel, content))
                .collect::<Result<Vec<_>, _>>()
        })
        .transpose()?;
    Ok(Executed::Written {
        reasons,
        checkpoints,
    })
}

/// Runs the stages over `ctx` durably into `opts.run_dir` (see the module
/// docs); `ctx` carries the engine's inputs and effective configuration.
///
/// The run's identity — the config fingerprint and the input hash — is
/// computed by one task beside the stages ([`epc_runtime::overlap`]) and
/// joined where it is first needed: before resume validation, or on a
/// fresh run before stage 1's journal line, so a fresh run's stage 1 and
/// its checkpoint write run alongside it on the rest of the thread
/// budget. Everything in the identity that can fail is checked before the
/// task starts.
pub(crate) fn run_durable_inner<'a>(
    mut ctx: PipelineContext<'a>,
    opts: &DurableOptions<'a>,
) -> Result<DurableOutput, IndiceError> {
    let run_dir = opts.run_dir.as_path();
    dur(
        fs::create_dir_all(run_dir.join(CHECKPOINT_DIR)),
        "creating run directory",
    )?;

    let fingerprint =
        Fingerprint::prepare(&ctx.config, ctx.stakeholder, ctx.street_map, ctx.hierarchy)?;
    let dataset = ctx.dataset;
    let identify = move || Ok::<_, IndiceError>((fingerprint.finish()?, csv_hash(dataset)?));

    let journal = Journal::at(run_dir);
    let loaded = dur(
        journal.load(),
        &format!("loading journal of run {}", run_dir.display()),
    )?;
    let entries = loaded.entries;
    let recovered_torn_tail = loaded.recovered_torn_tail;
    if recovered_torn_tail {
        if let Some(obs) = opts.obs {
            obs.metrics().inc("journal_torn_tail_recovered", 1);
        }
    }
    let keep_journal_prefix = |valid: usize| {
        if valid < entries.len() {
            dur(
                journal.rewrite(&entries[..valid]),
                &format!(
                    "rewriting journal of run {} to drop entries from seq {valid}",
                    run_dir.display()
                ),
            )?;
        }
        Ok::<_, IndiceError>(())
    };

    ctx.injector = opts.injector;
    if let Some(obs) = opts.obs {
        ctx = ctx.with_obs(obs);
    }
    // The report records the configured budget, whatever stage 1 ran on.
    let mut report = PipelineReport::new(ctx.runtime.threads);
    let mut reasons: Vec<String> = Vec::new();
    let mut journal_hits = Vec::new();
    let mut replayed = Vec::new();
    let mut failure = None;

    let mut first = None;
    let ((config_fp, input_hash), valid, resume_rejection) = if opts.resume {
        let (config_fp, input_hash) = identify()?;
        let (valid, rejection) = validate_prefix(&entries, &config_fp, &input_hash, run_dir);
        keep_journal_prefix(valid)?;
        ((config_fp, input_hash), valid, rejection)
    } else {
        keep_journal_prefix(0)?;
        let budget = ctx.runtime;
        let (identity, executed) = epc_runtime::overlap(&budget, identify, |rest| {
            ctx.runtime = *rest;
            let executed = execute_and_write(
                Stage::Preprocess,
                &mut ctx,
                &mut report,
                opts,
                &mut replayed,
            );
            ctx.runtime = budget;
            executed
        });
        first = Some(executed?);
        (identity?, 0, None)
    };

    for (i, stage) in Stage::ALL.into_iter().enumerate() {
        let name = stage.name();
        if let Some(entry) = entries[..valid].get(i) {
            // Journal hit: the stage's commit is on disk and validated.
            if entry.degraded {
                ctx.degraded_stages.push(name.to_owned());
            } else {
                rehydrate(stage, entry, &mut ctx, run_dir)?;
            }
            reasons.extend(entry.reasons.iter().cloned());
            if let Some(obs) = ctx.obs {
                let bytes: u64 = entry.checkpoints.iter().map(|r| r.bytes).sum();
                obs.point(
                    "journal:hit",
                    &[("bytes", bytes.into()), ("stage", name.into())],
                );
                let m = obs.metrics();
                m.inc("resume_journal_hits", 1);
                m.inc("resume_rehydrated_bytes", bytes);
            }
            report.push(StageReport {
                name: name.to_owned(),
                wall: Duration::ZERO,
                records_in: entry.records_in,
                records_out: entry.records_out,
                quarantined: entry.quarantined,
                faults: entry.faults.clone(),
            });
            journal_hits.push(name.to_owned());
            continue;
        }

        // A fresh run's stage 1 ran beside the identity task.
        let executed = match first.take() {
            Some(executed) => executed,
            None => execute_and_write(stage, &mut ctx, &mut report, opts, &mut replayed)?,
        };
        let (stage_reasons, checkpoints) = match executed {
            Executed::Written {
                reasons,
                checkpoints,
            } => (reasons, checkpoints),
            Executed::Failed(e) => {
                failure = Some(e);
                break;
            }
        };
        reasons.extend(stage_reasons.iter().cloned());

        // Commit: checkpoint files first (written above), then the
        // journal line.
        let entry = stage_entry(
            i,
            stage,
            &config_fp,
            &input_hash,
            stage_reasons,
            &report,
            checkpoints,
        )?;
        if let Some(obs) = ctx.obs {
            let bytes: u64 = entry.checkpoints.iter().map(|r| r.bytes).sum();
            obs.point(
                "journal:commit",
                &[
                    ("bytes", bytes.into()),
                    ("files", entry.checkpoints.len().into()),
                    ("stage", name.into()),
                ],
            );
            let m = obs.metrics();
            m.inc("checkpoint_files_total", entry.checkpoints.len() as u64);
            m.inc("checkpoint_bytes_total", bytes);
        }
        let fired = journal.commit(&entry, &stage, opts.crash);
        if let Some(point) = dur(fired, "appending journal entry")? {
            return Err(IndiceError::crash(name, point));
        }
    }

    let outcome = match failure {
        Some(e) => RunOutcome::Failed(e),
        None => finish_outcome(&ctx, reasons),
    };
    Ok(DurableOutput {
        outcome,
        report,
        preprocess: ctx.preprocess,
        analytics: ctx.analytics,
        dashboard: ctx.dashboard,
        artifacts: ctx.artifacts,
        quarantine: ctx.quarantine,
        degraded_stages: ctx.degraded_stages,
        journal_hits,
        replayed,
        resume_rejection,
        recovered_torn_tail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use epc_journal::hash_hex;
    use epc_synth::city::{CityConfig, CityPlan};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The streamed fingerprint hashes the bytes the one-string
        /// `format!` version hashed.
        #[test]
        fn streamed_fingerprint_equals_the_formatted_one(
            seed in 0u64..1000,
            streets in 1usize..4,
            houses in 1usize..6,
            who in 0usize..3,
            phi in 0.5f64..1.0,
        ) {
            let city = CityPlan::generate(CityConfig {
                n_districts: 2,
                neighbourhoods_per_district: 2,
                streets_per_neighbourhood: streets,
                houses_per_street: houses,
                seed,
                ..CityConfig::default()
            });
            let mut config = IndiceConfig::default();
            config.cleaning.phi = phi;
            let stakeholder = [
                Stakeholder::PublicAdministration,
                Stakeholder::Citizen,
                Stakeholder::EnergyScientist,
            ][who];
            let streets = city.street_map.to_text().unwrap();
            let regions = serde_json::to_string(&city.hierarchy).unwrap();
            let expected =
                hash_hex(format!("{config:?}|{stakeholder:?}|{streets}|{regions}").as_bytes());
            prop_assert_eq!(
                config_fingerprint(&config, stakeholder, &city.street_map, &city.hierarchy)
                    .unwrap(),
                expected
            );
        }
    }

    /// The input hash is blind to the sign of zero: `write_csv` prints
    /// `-0.0` and `0.0` alike as `0`, so two inputs that differ only there
    /// share one hash. Making input identity see the sign changes every
    /// journal's `input_hash` — a declared format change (DESIGN.md,
    /// "Loading and identity").
    #[test]
    fn input_hash_cannot_see_the_sign_of_zero() {
        use epc_model::{AttrId, AttributeDef, Schema, Value};
        let schema = std::sync::Arc::new(
            Schema::new(vec![
                AttributeDef::numeric("x", "", ""),
                AttributeDef::categorical("name", ""),
            ])
            .unwrap(),
        );
        let with_zero = |zero: f64| {
            let mut ds = Dataset::new(schema.clone());
            let mut record = ds.empty_record();
            record.set(AttrId(0), Value::num(zero)).unwrap();
            record.set(AttrId(1), Value::cat("a")).unwrap();
            ds.push_record(record).unwrap();
            ds
        };
        let (negative, positive) = (with_zero(-0.0), with_zero(0.0));
        let bits = |ds: &Dataset| ds.num(0, AttrId(0)).map(f64::to_bits);
        assert_ne!(bits(&negative), bits(&positive));
        assert_eq!(epc_model::csv::to_csv(&negative), "x,name\n0,a\n");
        assert_eq!(csv_hash(&negative).unwrap(), csv_hash(&positive).unwrap());
    }
}
