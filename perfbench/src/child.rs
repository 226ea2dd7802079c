//! One measured run, executed in its own process so that its peak memory
//! is its own: load the inputs (`setup_s`), make the call `indice run` or
//! `indice ingest --resume` makes (`run_s`), check the outcome, and print
//! the numbers as one JSON line.

use crate::workload::{self, Loaded, Workload, THREADS};
use epc_journal::Journal;
use epc_query::Stakeholder;
use indice::pipeline::RunOutcome;
use indice::{DurableOptions, Indice, IndiceConfig, IngestOptions, IngestOutcome};
use std::path::Path;
use std::time::Instant;

/// What one measured run reports to the parent process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSample {
    pub setup_s: f64,
    pub run_s: f64,
    pub peak_rss_mb: f64,
    pub records_in: usize,
    /// Certificates left unresolved or quarantined.
    pub failed_records: usize,
}

impl RunSample {
    pub fn to_json(self) -> String {
        serde_json::json!({
            "setup_s": self.setup_s,
            "run_s": self.run_s,
            "peak_rss_mb": self.peak_rss_mb,
            "records_in": self.records_in,
            "failed_records": self.failed_records,
        })
        .to_string()
    }

    pub fn from_json(line: &str) -> Result<RunSample, String> {
        let v: serde_json::Value =
            serde_json::from_str(line).map_err(|e| format!("bad child output {line:?}: {e}"))?;
        let num = |key: &str| {
            v.get(key)
                .and_then(serde_json::Value::as_f64)
                .ok_or_else(|| format!("child output lacks {key}: {line:?}"))
        };
        Ok(RunSample {
            setup_s: num("setup_s")?,
            run_s: num("run_s")?,
            peak_rss_mb: num("peak_rss_mb")?,
            records_in: num("records_in")? as usize,
            failed_records: num("failed_records")? as usize,
        })
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// Loads the inputs and times the run. `sealed_unresolved` is the number
/// of addresses the untimed sealing of an append workload left unresolved.
pub fn measure(
    w: &Workload,
    inputs: &Path,
    run_dir: &Path,
    sealed_unresolved: usize,
) -> Result<RunSample, String> {
    let start = Instant::now();
    let loaded = workload::load(w, inputs)?;
    let setup_s = start.elapsed().as_secs_f64();
    let records_in = loaded.records_in();
    let parse_quarantined = loaded.parse_quarantine.len();

    let (run_s, unresolved_and_quarantined) = if w.is_append() {
        fold_last_batch(w, &loaded, run_dir, sealed_unresolved)?
    } else {
        one_shot(loaded, run_dir)?
    };
    Ok(RunSample {
        setup_s,
        run_s,
        peak_rss_mb: peak_rss_mb()?,
        records_in,
        failed_records: unresolved_and_quarantined + parse_quarantined,
    })
}

/// `indice run`: one durable run over the whole CSV. Returns `run_s` and
/// the certificates left unresolved or quarantined.
pub fn one_shot(loaded: Loaded, run_dir: &Path) -> Result<(f64, usize), String> {
    let start = Instant::now();
    let Loaded {
        mut batches,
        street_map,
        hierarchy,
        ..
    } = loaded;
    let dataset = batches.pop().ok_or("no input batch")?.dataset;
    let engine = Indice::new(dataset, street_map, hierarchy, IndiceConfig::default())
        .with_runtime(epc_runtime::RuntimeConfig::new(THREADS));
    let clock = epc_runtime::WallClock::new();
    let obs = epc_obs::Obs::new(&clock);
    let out = engine
        .run_durable(
            Stakeholder::PublicAdministration,
            &DurableOptions::new(run_dir).with_obs(&obs),
        )
        .map_err(|e| format!("durable run failed: {e}"))?;
    let run_s = start.elapsed().as_secs_f64();

    if !matches!(out.outcome, RunOutcome::Complete) {
        return Err(format!("run outcome {}, expected complete", out.outcome));
    }
    let pre = out
        .preprocess
        .as_ref()
        .ok_or("run produced no preprocess output")?;
    let selected = out
        .report
        .stage("preprocess")
        .ok_or("report lacks the preprocess stage")?
        .records_in;
    let (kept, removed, quarantined) = (
        pre.kept_rows.len(),
        pre.removed_rows.len(),
        out.quarantine.len(),
    );
    if kept + removed + quarantined != selected || pre.dataset.n_rows() != kept {
        return Err(format!(
            "record accounting: {kept} kept + {removed} removed + {quarantined} quarantined \
             != {selected} selected"
        ));
    }
    Ok((run_s, pre.cleaning.unresolved + quarantined))
}

/// `indice ingest --resume`: fold the last batch into the sealed prefix.
/// Returns `run_s` and the certificates left unresolved or quarantined.
pub fn fold_last_batch(
    w: &Workload,
    loaded: &Loaded,
    run_dir: &Path,
    sealed_unresolved: usize,
) -> Result<(f64, usize), String> {
    let start = Instant::now();
    let clock = epc_runtime::WallClock::new();
    let obs = epc_obs::Obs::new(&clock);
    let opts = IngestOptions::new(run_dir).resuming().with_obs(&obs);
    let out = indice::ingest(
        &loaded.batches,
        workload::ingest_inputs(loaded),
        Stakeholder::PublicAdministration,
        &opts,
    )
    .map_err(|e| format!("ingest failed: {e}"))?;
    let run_s = start.elapsed().as_secs_f64();

    if out.outcome != IngestOutcome::Complete {
        return Err(format!(
            "ingest outcome {:?}, expected complete",
            out.outcome
        ));
    }
    let last = workload::batch_file(w.batches - 1);
    if out.sealed_skipped.len() != w.batches - 1 || out.processed != [last] {
        return Err(format!(
            "expected {} sealed batches skipped and the last folded; skipped {:?}, folded {:?}",
            w.batches - 1,
            out.sealed_skipped,
            out.processed
        ));
    }
    // The generations and the cumulative preprocess stage committed in
    // `current/` must both account for every selected row:
    // kept + removed + quarantined = selected.
    let current = run_dir.join(epc_ingest::CURRENT_DIR);
    let journal = Journal::at(&current)
        .load()
        .map_err(|e| format!("loading {}: {e}", current.display()))?;
    let stage = journal
        .entries
        .iter()
        .find(|e| e.stage == "preprocess")
        .ok_or("current/ journal lacks the preprocess stage")?;
    let quarantined: usize = out.entries.iter().map(|e| e.quarantined).sum();
    let entry_rows: usize = out.entries.iter().map(|e| e.records_in).sum();
    let selected = selected_rows(loaded)?;
    if entry_rows != selected
        || stage.records_in != selected
        || quarantined != stage.quarantined
        || stage.records_out + quarantined > selected
    {
        return Err(format!(
            "record accounting: generations hold {entry_rows} rows and quarantine \
             {quarantined}; current/ preprocess keeps {} and quarantines {} of {} \
             ({selected} selected)",
            stage.records_out, stage.quarantined, stage.records_in
        ));
    }
    let unresolved = sealed_unresolved + obs.metrics().counter("geocode_unresolved") as usize;
    Ok((run_s, unresolved + quarantined))
}

/// Loaded rows in the configured building category (what the pipeline's
/// category selection passes on).
fn selected_rows(loaded: &Loaded) -> Result<usize, String> {
    let Some(category) = IndiceConfig::default().building_category else {
        return Ok(loaded.batches.iter().map(|b| b.dataset.n_rows()).sum());
    };
    let mut n = 0;
    for b in &loaded.batches {
        let id = b
            .dataset
            .schema()
            .require(epc_model::wellknown::BUILDING_CATEGORY)
            .map_err(|e| e.to_string())?;
        n += (0..b.dataset.n_rows())
            .filter(|&r| b.dataset.cat(r, id) == Some(category.as_str()))
            .count();
    }
    Ok(n)
}
