//! Incremental ingest: the pipeline-aware generations runner.
//!
//! [`ingest`] folds an ordered list of micro-batches into a run directory
//! that is, at every commit point, *byte-identical* to what a one-shot
//! [`crate::durable`] run over the concatenation of the folded batches
//! would have produced. The `epc-ingest` crate owns the bookkeeping
//! (generation grammar, manifest, hash chain); this module owns
//! everything pipeline-shaped:
//!
//! - the **clean phase** runs per batch with the geocoder-quota balance
//!   carried across generations, and its output is sealed as a delta
//!   under `gens/gen-%05d/` so resume never re-cleans a sealed batch;
//! - **outlier removal and analytics are global**: each generation
//!   re-runs them from scratch over the merged cumulative data;
//! - `current/` is rebuilt as a full durable run directory (checkpoints,
//!   `dashboard.html`, artifacts, `run.manifest.jsonl`), writing only the
//!   files whose bytes changed and carrying the rest;
//! - the generation's manifest line is appended **last** — it is the
//!   commit point, mirroring `epc-journal`'s discipline.
//!
//! Crash points ([`epc_journal::CrashPoint`] over the batch index) fire
//! at every batch boundary; a killed ingest resumed with
//! [`IngestOptions::resume`] finishes with a manifest and a `current/`
//! tree byte-identical to an uninterrupted ingest.

use crate::checkpoint;
use crate::config::IndiceConfig;
use crate::durable::{config_fingerprint, csv_hash, stage_entry, stage_files, CHECKPOINT_DIR};
use crate::error::{dur, IndiceError};
use crate::pipeline::{
    execute_stage_supervised, finish_outcome, select_category, PipelineContext, RunOutcome, Stage,
    StageExec,
};
use crate::preprocess::{clean_phase, merge_clean_phases, outlier_phase, CleanPhase};
use epc_faults::{BatchScope, FaultInjector};
use epc_geo::region::RegionHierarchy;
use epc_geo::streetmap::StreetMap;
use epc_ingest::{
    gen_dir_name, write_delta, GenerationEntry, GenerationManifest, GenerationOutcome, CURRENT_DIR,
    GENESIS, GENS_DIR,
};
use epc_journal::{
    encode_lines, hash_hex, ArtifactRecord, CommitPoint, CrashPoint, Sha256, MANIFEST_FILE,
};
use epc_model::csv::{write_csv, write_csv_rows};
use epc_model::Dataset;
use epc_query::stakeholder::Stakeholder;
use epc_runtime::{PipelineReport, RuntimeConfig, StageReport};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// The raw input of the batches folded so far, concatenated, with a
/// running SHA-256 of its CSV text. Rows are hashed when a hash is asked
/// for, each row once: a resume that folds the sealed prefix and then
/// processes nothing hashes nothing.
struct CumulativeInput {
    data: Dataset,
    hasher: Sha256,
    /// How many rows of `data` the hasher has seen; `None` until it has
    /// seen the header.
    hashed_rows: Option<usize>,
}

impl CumulativeInput {
    /// Appends `batch` to `slot`, starting it with the first batch.
    fn fold(slot: &mut Option<CumulativeInput>, batch: &Dataset) -> Result<(), IndiceError> {
        match slot {
            Some(cum) => cum.data.append(batch)?,
            None => {
                *slot = Some(CumulativeInput {
                    data: batch.clone(),
                    hasher: Sha256::new(),
                    hashed_rows: None,
                })
            }
        }
        Ok(())
    }

    /// [`crate::durable::csv_hash`] of the folded input, or the hash of
    /// no bytes before any batch was folded. Feeds the hasher the rows it
    /// has not seen yet (the header too, the first time), then snapshots
    /// it.
    fn hash(slot: &mut Option<CumulativeInput>) -> Result<String, IndiceError> {
        let Some(cum) = slot else {
            return Ok(hash_hex(b""));
        };
        let hashed = match cum.hashed_rows {
            None => write_csv(&cum.data, &mut cum.hasher),
            Some(from) => write_csv_rows(&cum.data, from, &mut cum.hasher),
        };
        dur(hashed, "hashing the input")?;
        cum.hashed_rows = Some(cum.data.n_rows());
        Ok(cum.hasher.clone().finish_hex())
    }
}

/// File name of a generation's sealed clean-phase delta.
pub const CLEAN_DELTA_FILE: &str = "clean.delta.json";

/// One micro-batch of raw (uncleaned) EPC records.
#[derive(Debug, Clone)]
pub struct IngestBatch {
    /// Batch label recorded in the manifest (typically the file name).
    pub name: String,
    /// The batch's raw records, schema-compatible with its siblings.
    pub dataset: Dataset,
}

impl IngestBatch {
    /// A named batch.
    pub fn new(name: impl Into<String>, dataset: Dataset) -> Self {
        IngestBatch {
            name: name.into(),
            dataset,
        }
    }
}

/// How analytics state is recomputed when a generation folds in. Exact
/// is the only mode: every generation recomputes analytics from scratch,
/// so `current/` is byte-identical to a one-shot run over the folded
/// batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecomputeMode {
    /// Recompute outliers and analytics over the whole cumulative input.
    Exact,
}

impl RecomputeMode {
    /// Stable lowercase label recorded in every manifest entry. A sealed
    /// entry recording any other label fails resume validation.
    pub fn as_str(&self) -> &'static str {
        match self {
            RecomputeMode::Exact => "exact",
        }
    }
}

/// The reference inputs shared by every generation of an ingest run.
pub struct IngestInputs<'a> {
    /// The referenced street map used by the cleaning pass.
    pub street_map: &'a StreetMap,
    /// The region hierarchy of the city under analysis.
    pub hierarchy: &'a RegionHierarchy,
    /// The *effective* configuration (expert suggestions already applied —
    /// [`crate::engine::Indice::config_with_suggestions`]).
    pub config: IndiceConfig,
    /// The execution runtime. Outputs are bitwise thread-count-invariant,
    /// so a run may be resumed at a different parallelism.
    pub runtime: RuntimeConfig,
}

/// How an ingest run executes.
pub struct IngestOptions<'a> {
    /// The ingest run directory (`generations.manifest.jsonl`, `gens/`,
    /// `current/`).
    pub run_dir: PathBuf,
    /// Fold the sealed generations already in `run_dir` instead of
    /// requiring it to be fresh.
    pub resume: bool,
    /// Injected crash point, honoured at the matching batch boundary.
    pub crash: Option<&'a CrashPoint<usize>>,
    /// Fault injector consulted while processing batches [`BatchScope`]
    /// selects (`None`: production run).
    pub injector: Option<&'a dyn FaultInjector>,
    /// Which batches the injector applies to (`None`: all of them).
    pub batch_scope: Option<&'a BatchScope>,
    /// Observability bundle (`None`: no recording).
    pub obs: Option<&'a epc_obs::Obs<'a>>,
}

impl<'a> IngestOptions<'a> {
    /// Options for a fresh ingest into `run_dir`.
    pub fn new(run_dir: impl Into<PathBuf>) -> Self {
        IngestOptions {
            run_dir: run_dir.into(),
            resume: false,
            crash: None,
            injector: None,
            batch_scope: None,
            obs: None,
        }
    }

    /// Allows folding a run directory that already holds sealed
    /// generations.
    pub fn resuming(mut self) -> Self {
        self.resume = true;
        self
    }

    /// Injects a crash at a batch boundary.
    pub fn with_crash(mut self, crash: &'a CrashPoint<usize>) -> Self {
        self.crash = Some(crash);
        self
    }

    /// Attaches a fault injector, active for batches in `scope` (all
    /// batches when no scope is set via [`IngestOptions::scoped_to`]).
    pub fn with_injector(mut self, injector: &'a dyn FaultInjector) -> Self {
        self.injector = Some(injector);
        self
    }

    /// Restricts the injector to a subset of batch indices.
    pub fn scoped_to(mut self, scope: &'a BatchScope) -> Self {
        self.batch_scope = Some(scope);
        self
    }

    /// Attaches an observability bundle.
    pub fn with_obs(mut self, obs: &'a epc_obs::Obs<'a>) -> Self {
        self.obs = Some(obs);
        self
    }
}

/// Overall outcome of an ingest run, the worst over its generations.
#[derive(Debug, Clone, PartialEq)]
pub enum IngestOutcome {
    /// Every generation folded completely.
    Complete,
    /// At least one generation degraded; each reason says why.
    Degraded(Vec<String>),
    /// At least one batch was abandoned or a required stage failed.
    Failed(Vec<String>),
}

impl IngestOutcome {
    /// Process exit code: 0 complete, 3 degraded, 1 failed. (Injected
    /// crashes surface as `Err(IndiceError::CrashInjected)` and map
    /// to 70.)
    pub fn exit_code(&self) -> u8 {
        match self {
            IngestOutcome::Complete => 0,
            IngestOutcome::Degraded(_) => 3,
            IngestOutcome::Failed(_) => 1,
        }
    }
}

/// What an ingest run did.
#[derive(Debug)]
pub struct IngestOutput {
    /// The full generation manifest after the run (sealed prefix + newly
    /// sealed generations).
    pub entries: Vec<GenerationEntry>,
    /// The worst outcome over all generations.
    pub outcome: IngestOutcome,
    /// Batch names skipped because their sealed generation validated.
    pub sealed_skipped: Vec<String>,
    /// Batch names processed (sealed or abandoned) by this run.
    pub processed: Vec<String>,
    /// `true` when loading the generation manifest discarded a torn tail.
    pub recovered_torn_tail: bool,
    /// Why resume validation truncated the sealed prefix, if it did.
    pub resume_rejection: Option<String>,
    /// Records quarantined across all folded generations.
    pub quarantined_total: usize,
    /// `current/` files rewritten by this run.
    pub artifacts_written: usize,
    /// `current/` files carried byte-identical without rewriting.
    pub artifacts_carried: usize,
}

/// The outcome of removing the leftover `path`. Already absent is fine;
/// any other failure would leave a file the manifest no longer lists, so
/// it is an error naming the path.
fn leftover_removed(result: std::io::Result<()>, path: &Path) -> Result<(), IndiceError> {
    match result {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(IndiceError::Durability(
            format!("removing leftover {}: {e}", path.display()),
        )),
        _ => Ok(()),
    }
}

/// The relative path of generation `seq`'s clean delta.
fn delta_rel(seq: usize) -> String {
    format!("{GENS_DIR}/{}/{CLEAN_DELTA_FILE}", gen_dir_name(seq))
}

/// An [`ArtifactRecord`] for `contents` at relative path `file`, equal to
/// what `write_atomic` would return for the same bytes.
fn record_for(file: &str, contents: &str) -> ArtifactRecord {
    ArtifactRecord {
        file: file.to_owned(),
        sha256: hash_hex(contents.as_bytes()),
        bytes: contents.len() as u64,
    }
}

/// Validates the sealed prefix against the provided batches and the
/// on-disk deltas. Returns the number of trustworthy entries plus a
/// rejection message when a suffix is dropped. An entry sealed under any
/// recompute mode but exact (a run directory from a `warm` ingest) is
/// rejected like a stale one, so it and its successors are folded again.
fn validate_sealed_prefix(
    entries: &[GenerationEntry],
    batches: &[IngestBatch],
    batch_hashes: &[String],
    config_fp: &str,
    run_dir: &Path,
) -> (usize, Option<String>) {
    let reject = |i: usize, why: String| {
        (
            i,
            Some(format!(
                "ingest {}: sealed generation {i} rejected: {why}",
                run_dir.display()
            )),
        )
    };
    for (i, entry) in entries.iter().enumerate() {
        if i >= batches.len() {
            return reject(i, "no matching input batch".to_owned());
        }
        if entry.batch != batches[i].name {
            return reject(
                i,
                format!(
                    "batch name {:?} != provided {:?}",
                    entry.batch, batches[i].name
                ),
            );
        }
        if entry.batch_hash != batch_hashes[i] {
            return reject(i, "stale batch hash".to_owned());
        }
        if entry.config_fingerprint != config_fp {
            return reject(i, "stale config fingerprint".to_owned());
        }
        let exact = RecomputeMode::Exact.as_str();
        if entry.recompute != exact {
            return reject(
                i,
                format!(
                    "sealed in recompute mode {:?}, not {exact:?}",
                    entry.recompute
                ),
            );
        }
        for rec in &entry.checkpoints {
            if let Err(e) = rec.read_verified(run_dir) {
                return reject(i, e.to_string());
            }
        }
    }
    (entries.len(), None)
}

/// Folds `batches` into `opts.run_dir` as sealed generations. See the
/// module docs for the layout and the commit-point discipline. `Err` is
/// reserved for durability I/O failures and injected crash points;
/// pipeline-level trouble (degraded stages, abandoned batches, required
/// stage failures) surfaces in the returned [`IngestOutcome`].
pub fn ingest(
    batches: &[IngestBatch],
    inputs: IngestInputs<'_>,
    stakeholder: Stakeholder,
    opts: &IngestOptions<'_>,
) -> Result<IngestOutput, IndiceError> {
    if batches.is_empty() {
        return Err(IndiceError::EmptyCollection("ingest batches"));
    }
    let run_dir = opts.run_dir.as_path();
    let current_dir = run_dir.join(CURRENT_DIR);
    dur(
        fs::create_dir_all(run_dir.join(GENS_DIR)),
        "creating ingest run directory",
    )?;
    dur(
        fs::create_dir_all(current_dir.join(CHECKPOINT_DIR)),
        "creating cumulative run directory",
    )?;

    let config_fp = config_fingerprint(
        &inputs.config,
        stakeholder,
        inputs.street_map,
        inputs.hierarchy,
    )?;
    let batch_hashes: Vec<String> = batches
        .iter()
        .map(|b| csv_hash(&b.dataset))
        .collect::<Result<_, _>>()?;

    // Load the sealed prefix; the hash chain must be intact before any
    // delta is folded.
    let manifest = GenerationManifest::at(run_dir);
    let (loaded, _tip) = manifest
        .load_validated()
        .map_err(|e| IndiceError::Durability(format!("loading generation manifest: {e}")))?;
    let recovered_torn_tail = loaded.recovered_torn_tail;
    if recovered_torn_tail {
        if let Some(obs) = opts.obs {
            obs.metrics().inc("generations_torn_tail_recovered", 1);
        }
    }
    let mut entries = loaded.entries;
    if !opts.resume && !entries.is_empty() {
        return Err(IndiceError::Durability(format!(
            "ingest run directory {} already holds {} sealed generation(s); \
             pass resume to fold them or choose a fresh directory",
            run_dir.display(),
            entries.len()
        )));
    }

    let (mut valid, mut resume_rejection) = if opts.resume {
        validate_sealed_prefix(&entries, batches, &batch_hashes, &config_fp, run_dir)
    } else {
        (0, None)
    };
    // When nothing is left to reprocess, the cumulative artifacts must
    // themselves verify — otherwise re-seal the last generation so the
    // rebuild heals `current/`.
    if valid == entries.len() && valid == batches.len() && valid > 0 {
        let last = &entries[valid - 1];
        if let Some(bad) = last
            .current
            .iter()
            .find(|rec| rec.read_verified(&current_dir).is_err())
        {
            valid -= 1;
            resume_rejection = Some(format!(
                "ingest {}: sealed generation {} rejected: cumulative artifact {} failed \
                 verification",
                run_dir.display(),
                valid,
                bad.file
            ));
        }
    }
    if valid < entries.len() {
        dur(
            manifest.rewrite(&entries[..valid]),
            "truncating generation manifest",
        )?;
        for entry in &entries[valid..] {
            // Dropped generations' delta dirs are rewritten on reprocess
            // (same file names); remove any that will not be.
            if entry.seq >= batches.len() {
                let dir = run_dir.join(GENS_DIR).join(gen_dir_name(entry.seq));
                leftover_removed(fs::remove_dir_all(&dir), &dir)?;
            }
        }
        entries.truncate(valid);
    }

    // Fold the sealed prefix: decode each generation's clean delta, carry
    // the geocoder-quota balance, and rebuild the cumulative raw input.
    let mut phases: Vec<CleanPhase> = Vec::new();
    let mut cumulative_raw: Option<CumulativeInput> = None;
    let mut quota_used: usize = 0;
    let mut sealed_skipped: Vec<String> = Vec::new();
    let mut parent = GENESIS.to_owned();
    let mut prev_current: Vec<ArtifactRecord> = Vec::new();
    for entry in &entries {
        sealed_skipped.push(entry.batch.clone());
        parent = entry.chain_hash();
        prev_current = entry.current.clone();
        if let Some(obs) = opts.obs {
            obs.metrics().inc("ingest_generations_skipped", 1);
        }
        if entry.outcome == GenerationOutcome::Abandoned {
            continue;
        }
        let rec = entry.checkpoints.first().ok_or_else(|| {
            IndiceError::Durability(format!(
                "sealed generation {} has no clean delta checkpoint",
                entry.seq
            ))
        })?;
        let bytes = dur(
            rec.read_verified(run_dir),
            &format!("re-reading clean delta of generation {}", entry.seq),
        )?;
        let text = String::from_utf8(bytes).map_err(|e| {
            IndiceError::Durability(format!(
                "clean delta of generation {} not UTF-8: {e}",
                entry.seq
            ))
        })?;
        let phase = checkpoint::decode_clean_phase(&text).map_err(|e| {
            IndiceError::Durability(format!(
                "decoding clean delta of generation {}: {e}",
                entry.seq
            ))
        })?;
        quota_used += phase.cleaning.geocoder_requests;
        CumulativeInput::fold(&mut cumulative_raw, &batches[entry.seq].dataset)?;
        phases.push(phase);
    }

    let mut processed: Vec<String> = Vec::new();
    let mut failure: Option<String> = None;
    let mut written_total = 0usize;
    let mut carried_total = 0usize;

    for (i, batch) in batches.iter().enumerate().skip(valid) {
        if opts.crash.is_some_and(|c| c.is_at(&i, CommitPoint::Before)) {
            return Err(IndiceError::crash(
                format_args!("ingest batch {i}"),
                CommitPoint::Before,
            ));
        }

        let injector: Option<&dyn FaultInjector> = opts
            .injector
            .filter(|_| opts.batch_scope.is_none_or(|s| s.applies_to(i)));

        // Per-batch clean phase. A batch nothing survives is abandoned:
        // its generation records the reason, and neither the cumulative
        // state nor `current/` changes.
        let selected = select_category(&batch.dataset, &inputs.config)?;
        let quota = inputs.config.geocoder_quota.saturating_sub(quota_used);
        let cleaned = if selected.is_empty() {
            Err(format!(
                "batch {:?} abandoned: no record matches the configured building category",
                batch.name
            ))
        } else {
            match clean_phase(
                selected,
                inputs.street_map,
                &inputs.config,
                &inputs.runtime,
                injector,
                opts.obs,
                quota,
            ) {
                Ok(phase) => Ok(phase),
                Err(IndiceError::EmptyCollection(what)) => Err(format!(
                    "batch {:?} abandoned: nothing survived {what}",
                    batch.name
                )),
                Err(e) => return Err(e),
            }
        };

        let entry = match cleaned {
            Err(reason) => {
                if let Some(obs) = opts.obs {
                    obs.metrics().inc("ingest_batches_abandoned", 1);
                }
                GenerationEntry {
                    seq: i,
                    batch: batch.name.clone(),
                    batch_hash: batch_hashes[i].clone(),
                    config_fingerprint: config_fp.clone(),
                    cumulative_input_hash: CumulativeInput::hash(&mut cumulative_raw)?,
                    parent: parent.clone(),
                    outcome: GenerationOutcome::Abandoned,
                    reasons: vec![reason],
                    recompute: RecomputeMode::Exact.as_str().to_owned(),
                    records_in: batch.dataset.n_rows(),
                    records_kept: 0,
                    quarantined: 0,
                    faults: BTreeMap::new(),
                    artifacts_written: 0,
                    artifacts_carried: prev_current.len(),
                    checkpoints: Vec::new(),
                    current: prev_current.clone(),
                }
            }
            Ok(phase) => {
                let batch_input_rows = phase.input_rows;
                let batch_quarantined = phase.quarantine.len();
                let batch_faults = phase.quarantine.histogram();
                quota_used += phase.cleaning.geocoder_requests;

                // Seal the clean delta before touching cumulative state.
                let delta_text = checkpoint::encode_clean_phase(&phase);
                let rel = delta_rel(i);
                let written = dur(
                    write_delta(&run_dir.join(&rel), delta_text.as_bytes()),
                    "writing clean delta",
                )?;
                let delta_rec = ArtifactRecord {
                    file: rel,
                    sha256: written.sha256,
                    bytes: written.bytes,
                };

                // Fold the batch into the cumulative state.
                let batch_offset: usize = phases.iter().map(|p| p.input_rows).sum();
                CumulativeInput::fold(&mut cumulative_raw, &batch.dataset)?;
                phases.push(phase);

                // Rebuild the cumulative pipeline products — outliers and
                // analytics are global, so they run over the merged data.
                // The cumulative input hash, first needed by the journal
                // after analytics, is computed beside the merge and the
                // outlier phase on one worker of the budget.
                let (hashed, outliers) = epc_runtime::overlap(
                    &inputs.runtime,
                    || CumulativeInput::hash(&mut cumulative_raw),
                    |rest| {
                        let merged = merge_clean_phases(phases.clone())?;
                        let merged_input_rows = merged.input_rows;
                        let (pre, quarantine) =
                            outlier_phase(merged, &inputs.config, rest, opts.obs)?;
                        Ok::<_, IndiceError>((merged_input_rows, pre, quarantine))
                    },
                );
                let (merged_input_rows, pre, quarantine) = outliers?;
                let cumulative_input_hash = hashed?;
                let cum = cumulative_raw
                    .as_ref()
                    .map(|c| &c.data)
                    .ok_or_else(|| IndiceError::Internal("cumulative input missing".into()))?;
                let records_kept = pre
                    .kept_rows
                    .iter()
                    .filter(|&&r| r >= batch_offset && r < batch_offset + batch_input_rows)
                    .count();

                let mut ctx = PipelineContext::new(
                    cum,
                    inputs.street_map,
                    inputs.hierarchy,
                    inputs.config.clone(),
                    stakeholder,
                    inputs.runtime,
                );
                ctx.injector = injector;
                if let Some(obs) = opts.obs {
                    ctx = ctx.with_obs(obs);
                }
                ctx.preprocess = Some(pre);
                ctx.quarantine = quarantine;

                // Synthesized preprocess stage report: identical to what a
                // one-shot run over the concatenated input records.
                let mut report = PipelineReport::new(inputs.runtime.threads);
                report.push(StageReport {
                    name: Stage::Preprocess.name().to_owned(),
                    wall: Duration::ZERO,
                    records_in: merged_input_rows,
                    records_out: ctx
                        .preprocess
                        .as_ref()
                        .map(|p| p.dataset.n_rows())
                        .unwrap_or(0),
                    quarantined: ctx.quarantine.len(),
                    faults: ctx.quarantine.histogram(),
                });

                // Analytics + dashboard over the cumulative data, under
                // the same supervisor policies as a one-shot run.
                let mut stage_reasons: Vec<Vec<String>> = vec![Vec::new()];
                let mut stage_failed = None;
                for stage in [Stage::Analytics, Stage::Dashboard] {
                    match execute_stage_supervised(
                        stage,
                        stage.policy(),
                        &mut ctx,
                        &mut report,
                        None,
                    ) {
                        StageExec::Succeeded => stage_reasons.push(Vec::new()),
                        StageExec::Degraded(reason) => stage_reasons.push(vec![reason]),
                        StageExec::Failed(e) => {
                            stage_failed = Some(format!(
                                "batch {:?}: required stage failed: {e}",
                                batch.name
                            ));
                            break;
                        }
                    }
                }
                if let Some(why) = stage_failed {
                    // Mirror the durable runner: a failed required stage
                    // commits nothing; the sealed prefix stays intact and
                    // a rerun replays this batch.
                    failure = Some(why);
                    break;
                }

                // The full `current/` file set of a one-shot run directory
                // (content-first so unchanged files can be carried without
                // rewriting), plus the cumulative journal: byte-identical
                // to the one a one-shot durable run would have appended.
                let mut files = Vec::new();
                let mut journal = Vec::with_capacity(Stage::ALL.len());
                for ((seq, stage), reasons) in
                    Stage::ALL.into_iter().enumerate().zip(stage_reasons.iter())
                {
                    let product = stage_files(stage, &ctx);
                    let checkpoints = product.as_ref().map(|fs| {
                        fs.iter()
                            .map(|(file, content)| record_for(file, content))
                            .collect()
                    });
                    journal.push(stage_entry(
                        seq,
                        stage,
                        &config_fp,
                        &cumulative_input_hash,
                        reasons.clone(),
                        &report,
                        checkpoints,
                    )?);
                    files.extend(product.into_iter().flatten());
                }
                let journal_text = encode_lines(&journal).map_err(|e| {
                    IndiceError::Durability(format!("serializing journal entries: {e}"))
                })?;
                files.push((MANIFEST_FILE.to_owned(), journal_text.into()));

                // Write changed files, carry the rest; drop leftovers so
                // `current/` stays tree-identical to a one-shot run dir.
                let prev_map: BTreeMap<&str, &ArtifactRecord> =
                    prev_current.iter().map(|r| (r.file.as_str(), r)).collect();
                let new_names: BTreeSet<&str> = files.iter().map(|(f, _)| f.as_str()).collect();
                for rec in &prev_current {
                    if !new_names.contains(rec.file.as_str()) {
                        let path = current_dir.join(&rec.file);
                        leftover_removed(fs::remove_file(&path), &path)?;
                    }
                }
                let mut current_records = Vec::with_capacity(files.len());
                let mut written = 0usize;
                let mut carried = 0usize;
                for (file, content) in &files {
                    let rec = record_for(file, content);
                    let unchanged = prev_map.get(file.as_str()) == Some(&&rec)
                        && rec.read_verified(&current_dir).is_ok();
                    if unchanged {
                        carried += 1;
                    } else {
                        dur(
                            write_delta(&current_dir.join(file), content.as_bytes()),
                            "writing cumulative artifact",
                        )?;
                        written += 1;
                    }
                    current_records.push(rec);
                }
                written_total += written;
                carried_total += carried;
                if let Some(obs) = opts.obs {
                    let m = obs.metrics();
                    m.inc("ingest_current_written", written as u64);
                    m.inc("ingest_current_carried", carried as u64);
                }

                let gen_reasons = match finish_outcome(&ctx, stage_reasons.concat()) {
                    RunOutcome::Complete => Vec::new(),
                    RunOutcome::Degraded(rs) => rs,
                    RunOutcome::Failed(e) => {
                        return Err(IndiceError::Internal(format!(
                            "finish_outcome reported failure for a committed generation: {e}"
                        )))
                    }
                };
                let outcome = if gen_reasons.is_empty() {
                    GenerationOutcome::Complete
                } else {
                    GenerationOutcome::Degraded
                };
                GenerationEntry {
                    seq: i,
                    batch: batch.name.clone(),
                    batch_hash: batch_hashes[i].clone(),
                    config_fingerprint: config_fp.clone(),
                    cumulative_input_hash,
                    parent: parent.clone(),
                    outcome,
                    reasons: gen_reasons,
                    recompute: RecomputeMode::Exact.as_str().to_owned(),
                    records_in: batch_input_rows,
                    records_kept,
                    quarantined: batch_quarantined,
                    faults: batch_faults,
                    artifacts_written: written,
                    artifacts_carried: carried,
                    checkpoints: vec![delta_rec],
                    current: current_records,
                }
            }
        };

        // Commit point: everything the entry references is durable; the
        // manifest line seals the generation.
        let fired = manifest.commit(&entry, &i, opts.crash);
        if let Some(point) = dur(fired, "appending generation entry")? {
            return Err(IndiceError::crash(format_args!("ingest batch {i}"), point));
        }
        if let Some(obs) = opts.obs {
            obs.metrics().inc("ingest_generations_sealed", 1);
        }
        processed.push(batch.name.clone());
        parent = entry.chain_hash();
        prev_current = entry.current.clone();
        entries.push(entry);
    }

    // The worst outcome across generations, with reasons in sequence
    // order (exact duplicates collapsed — cumulative reasons repeat).
    let mut degraded_reasons: Vec<String> = Vec::new();
    let mut failed_reasons: Vec<String> = Vec::new();
    for entry in &entries {
        let sink = match entry.outcome {
            GenerationOutcome::Abandoned => &mut failed_reasons,
            GenerationOutcome::Degraded => &mut degraded_reasons,
            GenerationOutcome::Complete => continue,
        };
        for reason in &entry.reasons {
            if !sink.contains(reason) {
                sink.push(reason.clone());
            }
        }
    }
    if let Some(why) = failure {
        failed_reasons.push(why);
    }
    let outcome = if !failed_reasons.is_empty() {
        IngestOutcome::Failed(failed_reasons)
    } else if !degraded_reasons.is_empty() {
        IngestOutcome::Degraded(degraded_reasons)
    } else {
        IngestOutcome::Complete
    };

    let quarantined_total = entries.iter().map(|e| e.quarantined).sum();
    Ok(IngestOutput {
        entries,
        outcome,
        sealed_skipped,
        processed,
        recovered_torn_tail,
        resume_rejection,
        quarantined_total,
        artifacts_written: written_total,
        artifacts_carried: carried_total,
    })
}
