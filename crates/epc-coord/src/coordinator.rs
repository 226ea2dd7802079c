//! The supervising fleet coordinator.
//!
//! `run_fleet` drives one shard per city through a bounded, deterministic
//! retry loop, journaling every lifecycle transition. Cities run in plan
//! order — parallelism lives *inside* each shard (the pipeline's
//! deterministic runtime), so the fleet result is invariant to thread
//! count by construction and the journal needs no interleaving rules.
//!
//! Crash safety: a city's `committed` journal line is its commit point.
//! On resume, a city is a *journal hit* only if its event group is
//! grammar-valid, ends in `committed`, carries the current fleet
//! fingerprint, and every recorded checkpoint hash-verifies on disk;
//! anything else — abandoned, unfinished, torn, stale — replays from
//! scratch. After the fleet completes, the journal is rewritten in
//! canonical plan order so a resumed run's journal is byte-identical to
//! an uninterrupted run's.

use crate::journal::{FleetEvent, FleetJournal};
use epc_journal::{ArtifactRecord, CommitPoint, CrashPoint};
use epc_runtime::{fnv1a, Backoff};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// One attempt's verdict, as reported by the [`ShardRunner`].
#[derive(Debug, Clone, PartialEq)]
pub enum ShardAttempt {
    /// The shard ran to a committed product. `checkpoints` (paths
    /// relative to the fleet directory) must already be durable on disk —
    /// the coordinator journals them as the city's commit point.
    Committed {
        /// The shard's own supervisor degraded one or more stages.
        degraded: bool,
        /// Per-stage degradation reasons, if any.
        reasons: Vec<String>,
        /// Provenance surfaced into the fleet report and dashboard.
        summary: BTreeMap<String, String>,
        /// Hash-recorded artifacts a resume must verify.
        checkpoints: Vec<ArtifactRecord>,
    },
    /// The shard failed cleanly (stage error, corrupt inputs, …).
    Failed {
        /// Human-readable failure reason, journaled with the retry.
        reason: String,
    },
}

/// Runs one deterministic attempt of one city's shard. Implementations
/// must be attempt-idempotent: the coordinator may call `run_attempt` for
/// the same city again (fresh attempt number) after a failure, and a
/// resumed coordinator will re-call it for cities that never committed.
pub trait ShardRunner {
    /// Execute attempt `attempt` (1-based) of `city`'s pipeline. Panics
    /// are contained by the coordinator and count as failed attempts.
    fn run_attempt(&self, city: &str, attempt: u32) -> Result<ShardAttempt, CoordError>;
}

/// Terminal status of one city's shard.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardStatus {
    /// The shard committed (possibly with internal stage degradation).
    Committed,
    /// The shard exhausted its retry budget.
    Abandoned {
        /// Reason of the final failed attempt.
        reason: String,
    },
}

/// Per-city provenance in the fleet result.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReport {
    /// City id.
    pub city: String,
    /// Attempts consumed (1 = first try succeeded).
    pub attempts: u32,
    /// Terminal status.
    pub status: ShardStatus,
    /// `true` when the city was rehydrated from the journal instead of
    /// re-run (resume hit).
    pub from_journal: bool,
    /// Journaled backoff schedule actually consumed (one delay per retry).
    pub backoff_ms: Vec<u64>,
    /// Whether the committed shard degraded internally.
    pub degraded: bool,
    /// Degradation (committed) or failure (abandoned) reasons.
    pub reasons: Vec<String>,
    /// Shard summary provenance (committed shards only).
    pub summary: BTreeMap<String, String>,
    /// Committed checkpoints, relative to the fleet directory.
    pub checkpoints: Vec<ArtifactRecord>,
}

/// Fleet-level outcome ladder, mirroring the per-run
/// `RunOutcome {Complete | Degraded | Failed}`.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetOutcome {
    /// Every city committed.
    Complete,
    /// Some cities were abandoned but the fleet still produced a partial
    /// result (within the `max_failed` tolerance, and at least one city
    /// committed).
    Degraded {
        /// Cities that exhausted their retry budget, in plan order.
        failed_cities: Vec<String>,
        /// One reason per failed city.
        reasons: Vec<String>,
    },
    /// The fleet produced no usable result (every city abandoned, or the
    /// abandonment count exceeded the configured tolerance).
    Failed(String),
}

impl FleetOutcome {
    /// Process exit code, matching the per-run matrix: 0 complete,
    /// 3 degraded, 1 failed.
    pub fn exit_code(&self) -> u8 {
        match self {
            FleetOutcome::Complete => 0,
            FleetOutcome::Degraded { .. } => 3,
            FleetOutcome::Failed(_) => 1,
        }
    }
}

/// Retry budget and backoff schedule for shard supervision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum attempts per shard (1 = no retry). Must be ≥ 1.
    pub max_attempts: u32,
    /// Backoff schedule between failed attempts, keyed by the FNV-1a
    /// hash of the city id.
    pub backoff: Backoff,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 2,
            backoff: Backoff::default(),
        }
    }
}

/// Coordinator-level error.
#[derive(Debug, Clone, PartialEq)]
pub enum CoordError {
    /// Journal or filesystem failure (message names the path involved).
    Io(String),
    /// An injected crash fired at the commit of the city with this plan
    /// index — the process should exit with the crash exit code; the
    /// journal is positioned for resume.
    CrashInjected(CrashPoint<usize>),
}

impl std::fmt::Display for CoordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoordError::Io(msg) => write!(f, "fleet i/o error: {msg}"),
            CoordError::CrashInjected(at) => write!(f, "injected coordinator crash at city {at}"),
        }
    }
}

impl std::error::Error for CoordError {}

/// Options governing one `run_fleet` call.
#[derive(Debug, Clone)]
pub struct FleetOptions {
    /// Fleet run directory (created if absent); the fleet journal and all
    /// per-city artifacts live under it.
    pub dir: PathBuf,
    /// Replay the existing fleet journal instead of starting fresh.
    pub resume: bool,
    /// Retry budget and backoff schedule.
    pub policy: RetryPolicy,
    /// Fleet config fingerprint; journal groups with a different
    /// fingerprint are invalidated on resume.
    pub fingerprint: String,
    /// Maximum abandoned cities tolerated before the fleet fails
    /// outright. `None` tolerates any number as long as at least one
    /// city commits.
    pub max_failed: Option<usize>,
    /// Injected crash at a city's commit, by plan index (durability
    /// testing only); its terminal journal line is the commit.
    pub crash: Option<CrashPoint<usize>>,
}

impl FleetOptions {
    /// Fresh-run options with the default retry policy and no tolerance
    /// limit.
    pub fn new(dir: &Path, fingerprint: &str) -> Self {
        FleetOptions {
            dir: dir.to_path_buf(),
            resume: false,
            policy: RetryPolicy::default(),
            fingerprint: fingerprint.to_owned(),
            max_failed: None,
            crash: None,
        }
    }
}

/// What `run_fleet` returns on a non-crashed run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetResult {
    /// Fleet-level outcome ladder.
    pub outcome: FleetOutcome,
    /// One report per city, in plan order.
    pub shards: Vec<ShardReport>,
    /// Cities rehydrated from the journal (resume hits), plan order.
    pub journal_hits: Vec<String>,
    /// Cities executed (or re-executed) by this call, plan order.
    pub replayed: Vec<String>,
    /// `true` when the resumed fleet journal ended in a torn line (a
    /// crash during an append) that was dropped.
    pub recovered_torn_tail: bool,
}

fn io_err(e: std::io::Error) -> CoordError {
    CoordError::Io(e.to_string())
}

/// A validated, committed journal group for one city.
struct JournalHit {
    events: Vec<FleetEvent>,
    report: ShardReport,
}

/// Walks one city's event group against the lifecycle grammar; returns a
/// rehydrated report only for a valid, committed, checkpoint-verified
/// group.
fn validate_group(
    city: &str,
    events: &[FleetEvent],
    fingerprint: &str,
    fleet_dir: &Path,
) -> Option<ShardReport> {
    let (first, rest) = events.split_first()?;
    if first.kind != "scheduled" || first.fingerprint != fingerprint {
        return None;
    }
    let mut expected_attempt = 1u32;
    let mut awaiting = "started";
    let mut backoff_ms = Vec::new();
    let mut terminal: Option<&FleetEvent> = None;
    for event in rest {
        if terminal.is_some() || event.fingerprint != fingerprint {
            return None;
        }
        match (awaiting, event.kind.as_str()) {
            ("started", "started") if event.attempt == expected_attempt => {
                awaiting = "outcome";
            }
            ("outcome", "retried") if event.attempt == expected_attempt => {
                backoff_ms.push(event.backoff_ms);
                expected_attempt += 1;
                awaiting = "started";
            }
            ("outcome", "committed") | ("outcome", "abandoned")
                if event.attempt == expected_attempt =>
            {
                terminal = Some(event);
            }
            _ => return None,
        }
    }
    let terminal = terminal?;
    if terminal.kind != "committed" {
        return None; // abandoned groups replay on resume
    }
    for checkpoint in &terminal.checkpoints {
        if checkpoint.read_verified(fleet_dir).is_err() {
            return None;
        }
    }
    Some(shard_report(city, terminal, backoff_ms, true))
}

/// The report of a city whose group ends in `terminal` (`committed` or
/// `abandoned`) after the retries that drew `backoff_ms`.
fn shard_report(
    city: &str,
    terminal: &FleetEvent,
    backoff_ms: Vec<u64>,
    from_journal: bool,
) -> ShardReport {
    let committed = terminal.kind == "committed";
    ShardReport {
        city: city.to_owned(),
        attempts: terminal.attempt,
        status: if committed {
            ShardStatus::Committed
        } else {
            ShardStatus::Abandoned {
                reason: terminal.reasons.concat(),
            }
        },
        from_journal,
        backoff_ms,
        degraded: terminal.degraded,
        reasons: if committed {
            terminal.reasons.clone()
        } else {
            Vec::new()
        },
        summary: terminal.summary.clone(),
        checkpoints: terminal.checkpoints.clone(),
    }
}

/// Partitions a loaded journal into per-city groups (order of first
/// appearance is irrelevant — lookups are by city id).
fn group_events(events: Vec<FleetEvent>) -> BTreeMap<String, Vec<FleetEvent>> {
    let mut groups: BTreeMap<String, Vec<FleetEvent>> = BTreeMap::new();
    for event in events {
        groups.entry(event.city.clone()).or_default().push(event);
    }
    groups
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "shard panicked".to_owned()
    }
}

/// Runs the fleet: one supervised, journaled retry loop per city in plan
/// order. Returns `Err(CoordError::CrashInjected)` only for injected
/// crash points; every shard-level failure (including panics) is
/// contained and folded into the [`FleetOutcome`].
pub fn run_fleet(
    cities: &[String],
    opts: &FleetOptions,
    runner: &dyn ShardRunner,
) -> Result<FleetResult, CoordError> {
    std::fs::create_dir_all(&opts.dir).map_err(|e| {
        CoordError::Io(format!(
            "creating fleet directory {}: {e}",
            opts.dir.display()
        ))
    })?;
    let journal = FleetJournal::at(&opts.dir);

    // Resume: validate committed groups, drop everything else.
    let mut hits: BTreeMap<String, JournalHit> = BTreeMap::new();
    let mut recovered_torn_tail = false;
    if opts.resume {
        let loaded = journal.load().map_err(io_err)?;
        recovered_torn_tail = loaded.recovered_torn_tail;
        let mut groups = group_events(loaded.entries);
        for city in cities {
            if let Some(events) = groups.remove(city) {
                if let Some(report) = validate_group(city, &events, &opts.fingerprint, &opts.dir) {
                    hits.insert(city.clone(), JournalHit { events, report });
                }
            }
        }
        // Rewrite the journal down to the surviving groups (plan order)
        // before replaying, so a crash during replay resumes from a clean
        // prefix.
        let mut surviving = Vec::new();
        for city in cities {
            if let Some(hit) = hits.get(city) {
                surviving.extend(hit.events.iter().cloned());
            }
        }
        journal.rewrite(&surviving).map_err(io_err)?;
    } else {
        journal.rewrite(&[]).map_err(io_err)?;
    }

    let mut shards: Vec<ShardReport> = Vec::new();
    let mut journal_hits = Vec::new();
    let mut replayed = Vec::new();
    // Events appended by this call, kept for the final canonicalization.
    let mut fresh_events: BTreeMap<String, Vec<FleetEvent>> = BTreeMap::new();

    for (index, city) in cities.iter().enumerate() {
        if let Some(hit) = hits.get(city) {
            journal_hits.push(city.clone());
            shards.push(hit.report.clone());
            continue;
        }
        if let Some(crash) = opts.crash.filter(|c| c.is_at(&index, CommitPoint::Before)) {
            return Err(CoordError::CrashInjected(crash));
        }
        replayed.push(city.clone());
        let fp = opts.fingerprint.as_str();
        let mut events = Vec::new();
        let mut push = |event: FleetEvent| -> Result<(), CoordError> {
            journal.append(&event).map_err(io_err)?;
            events.push(event);
            Ok(())
        };
        push(FleetEvent::scheduled(city, fp))?;

        let mut backoff_ms = Vec::new();
        let max_attempts = opts.policy.max_attempts.max(1);
        let mut attempt = 1;
        let terminal = loop {
            push(FleetEvent::started(city, fp, attempt))?;
            let outcome = catch_unwind(AssertUnwindSafe(|| runner.run_attempt(city, attempt)));
            let failure_reason = match outcome {
                Ok(Ok(ShardAttempt::Committed {
                    degraded,
                    reasons,
                    summary,
                    checkpoints,
                })) => {
                    break FleetEvent::committed(
                        city,
                        fp,
                        attempt,
                        degraded,
                        reasons,
                        summary,
                        checkpoints,
                    )
                }
                Ok(Ok(ShardAttempt::Failed { reason })) => reason,
                Ok(Err(crash @ CoordError::CrashInjected(_))) => return Err(crash),
                Ok(Err(CoordError::Io(msg))) => msg,
                Err(payload) => format!("shard panicked: {}", panic_message(payload)),
            };
            if attempt == max_attempts {
                break FleetEvent::abandoned(city, fp, attempt, &failure_reason);
            }
            let delay = opts.policy.backoff.delay_ms(fnv1a(city.bytes()), attempt);
            backoff_ms.push(delay);
            push(FleetEvent::retried(
                city,
                fp,
                attempt,
                delay,
                &failure_reason,
            ))?;
            attempt += 1;
        };
        // The terminal line is the city's commit.
        let fired = journal
            .commit(&terminal, &index, opts.crash.as_ref())
            .map_err(io_err)?;
        if let Some(point) = fired {
            return Err(CoordError::CrashInjected(CrashPoint { at: index, point }));
        }
        shards.push(shard_report(city, &terminal, backoff_ms, false));
        events.push(terminal);
        fresh_events.insert(city.clone(), events);
    }

    // Canonicalize: rewrite the journal grouped per city in plan order,
    // so resumed and uninterrupted fleets end with identical bytes.
    let mut canonical = Vec::new();
    for city in cities {
        if let Some(hit) = hits.get(city) {
            canonical.extend(hit.events.iter().cloned());
        } else if let Some(events) = fresh_events.get(city) {
            canonical.extend(events.iter().cloned());
        }
    }
    journal.rewrite(&canonical).map_err(io_err)?;

    let failed: Vec<&ShardReport> = shards
        .iter()
        .filter(|s| matches!(s.status, ShardStatus::Abandoned { .. }))
        .collect();
    let outcome = if failed.is_empty() {
        FleetOutcome::Complete
    } else if failed.len() == shards.len() {
        FleetOutcome::Failed(format!(
            "all {} cities exhausted their retry budget",
            failed.len()
        ))
    } else if opts.max_failed.is_some_and(|k| failed.len() > k) {
        FleetOutcome::Failed(format!(
            "{} cities abandoned, exceeding the tolerance of {}",
            failed.len(),
            opts.max_failed.unwrap_or(0)
        ))
    } else {
        FleetOutcome::Degraded {
            failed_cities: failed.iter().map(|s| s.city.clone()).collect(),
            reasons: failed
                .iter()
                .map(|s| match &s.status {
                    ShardStatus::Abandoned { reason } => format!("{}: {reason}", s.city),
                    ShardStatus::Committed => String::new(),
                })
                .collect(),
        }
    };

    Ok(FleetResult {
        outcome,
        shards,
        journal_hits,
        replayed,
        recovered_torn_tail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use epc_journal::write_atomic_path;
    use std::fs;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

    fn temp_dir() -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "epc-coord-test-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::SeqCst)
        ));
        fs::create_dir_all(&d).unwrap();
        d
    }

    /// Deterministic mock: city behaviour is a pure function of
    /// `(city, attempt)`, like the real pipeline under injected faults.
    struct MockRunner {
        fleet_dir: PathBuf,
        /// City → number of leading attempts that fail.
        fail_first: BTreeMap<String, u32>,
        /// Cities whose failing attempts panic instead of erroring.
        panics: Vec<String>,
    }

    impl MockRunner {
        fn new(fleet_dir: &Path) -> Self {
            MockRunner {
                fleet_dir: fleet_dir.to_path_buf(),
                fail_first: BTreeMap::new(),
                panics: Vec::new(),
            }
        }
    }

    impl ShardRunner for MockRunner {
        fn run_attempt(&self, city: &str, attempt: u32) -> Result<ShardAttempt, CoordError> {
            let failures = self.fail_first.get(city).copied().unwrap_or(0);
            if attempt <= failures {
                if self.panics.iter().any(|c| c == city) {
                    panic!("injected panic in {city}");
                }
                return Ok(ShardAttempt::Failed {
                    reason: format!("injected failure on attempt {attempt}"),
                });
            }
            let rel = format!("cities/{city}/out.json");
            let content = format!("{{\"city\":\"{city}\"}}");
            let mut rec = write_atomic_path(&self.fleet_dir.join(&rel), content.as_bytes())
                .map_err(|e| CoordError::Io(e.to_string()))?;
            rec.file = rel;
            Ok(ShardAttempt::Committed {
                degraded: false,
                reasons: Vec::new(),
                summary: BTreeMap::from([("records".to_owned(), "9".to_owned())]),
                checkpoints: vec![rec],
            })
        }
    }

    fn cities(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn clean_fleet_completes() {
        let dir = temp_dir();
        let plan = cities(&["a", "b", "c"]);
        let result = run_fleet(
            &plan,
            &FleetOptions::new(&dir, "fp"),
            &MockRunner::new(&dir),
        )
        .unwrap();
        assert_eq!(result.outcome, FleetOutcome::Complete);
        assert_eq!(result.outcome.exit_code(), 0);
        assert_eq!(result.shards.len(), 3);
        assert!(result.journal_hits.is_empty());
        assert_eq!(result.replayed, plan);
        assert!(result.shards.iter().all(|s| s.attempts == 1));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_attempt_is_retried_within_budget() {
        let dir = temp_dir();
        let mut runner = MockRunner::new(&dir);
        runner.fail_first.insert("b".to_owned(), 1);
        let result = run_fleet(
            &cities(&["a", "b"]),
            &FleetOptions::new(&dir, "fp"),
            &runner,
        )
        .unwrap();
        assert_eq!(result.outcome, FleetOutcome::Complete);
        let b = &result.shards[1];
        assert_eq!(b.attempts, 2);
        assert_eq!(b.backoff_ms.len(), 1);
        let events = FleetJournal::at(&dir).load().unwrap().entries;
        assert!(events.iter().any(|e| e.city == "b" && e.kind == "retried"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn panicking_shard_is_contained_and_degrades_fleet() {
        let dir = temp_dir();
        let mut runner = MockRunner::new(&dir);
        runner.fail_first.insert("b".to_owned(), u32::MAX);
        runner.panics.push("b".to_owned());
        let result = run_fleet(
            &cities(&["a", "b", "c"]),
            &FleetOptions::new(&dir, "fp"),
            &runner,
        )
        .unwrap();
        match &result.outcome {
            FleetOutcome::Degraded {
                failed_cities,
                reasons,
            } => {
                assert_eq!(failed_cities, &["b"]);
                assert!(reasons[0].contains("injected panic in b"), "{reasons:?}");
            }
            other => panic!("expected Degraded, got {other:?}"),
        }
        assert_eq!(result.outcome.exit_code(), 3);
        // Surviving cities are committed and their artifacts exist.
        assert!(dir.join("cities/a/out.json").exists());
        assert!(dir.join("cities/c/out.json").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_city_failing_fails_the_fleet() {
        let dir = temp_dir();
        let mut runner = MockRunner::new(&dir);
        runner.fail_first.insert("a".to_owned(), u32::MAX);
        runner.fail_first.insert("b".to_owned(), u32::MAX);
        let result = run_fleet(
            &cities(&["a", "b"]),
            &FleetOptions::new(&dir, "fp"),
            &runner,
        )
        .unwrap();
        assert!(matches!(result.outcome, FleetOutcome::Failed(_)));
        assert_eq!(result.outcome.exit_code(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn max_failed_tolerance_turns_degraded_into_failed() {
        let dir = temp_dir();
        let mut runner = MockRunner::new(&dir);
        runner.fail_first.insert("b".to_owned(), u32::MAX);
        runner.fail_first.insert("c".to_owned(), u32::MAX);
        let mut opts = FleetOptions::new(&dir, "fp");
        opts.max_failed = Some(1);
        let result = run_fleet(&cities(&["a", "b", "c", "d"]), &opts, &runner).unwrap();
        assert!(matches!(result.outcome, FleetOutcome::Failed(_)));
        opts.max_failed = Some(2);
        let result = run_fleet(&cities(&["a", "b", "c", "d"]), &opts, &runner).unwrap();
        assert!(matches!(result.outcome, FleetOutcome::Degraded { .. }));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_after_commit_resumes_byte_identically() {
        let baseline_dir = temp_dir();
        let crashed_dir = temp_dir();
        let plan = cities(&["a", "b", "c"]);

        let baseline = run_fleet(
            &plan,
            &FleetOptions::new(&baseline_dir, "fp"),
            &MockRunner::new(&baseline_dir),
        )
        .unwrap();
        assert_eq!(baseline.outcome, FleetOutcome::Complete);

        let mut opts = FleetOptions::new(&crashed_dir, "fp");
        opts.crash = Some("0:after".parse().unwrap());
        let err = run_fleet(&plan, &opts, &MockRunner::new(&crashed_dir)).unwrap_err();
        assert!(matches!(err, CoordError::CrashInjected(_)));

        let mut resume_opts = FleetOptions::new(&crashed_dir, "fp");
        resume_opts.resume = true;
        let resumed = run_fleet(&plan, &resume_opts, &MockRunner::new(&crashed_dir)).unwrap();
        assert_eq!(resumed.outcome, FleetOutcome::Complete);
        assert_eq!(resumed.journal_hits, vec!["a".to_owned()]);
        assert_eq!(resumed.replayed, vec!["b".to_owned(), "c".to_owned()]);
        assert!(resumed.shards[0].from_journal);

        let a = fs::read(FleetJournal::at(&baseline_dir).path()).unwrap();
        let b = fs::read(FleetJournal::at(&crashed_dir).path()).unwrap();
        assert_eq!(a, b, "resumed fleet journal must match uninterrupted");
        fs::remove_dir_all(&baseline_dir).unwrap();
        fs::remove_dir_all(&crashed_dir).unwrap();
    }

    #[test]
    fn crash_before_city_replays_that_city_on_resume() {
        let dir = temp_dir();
        let plan = cities(&["a", "b"]);
        let mut opts = FleetOptions::new(&dir, "fp");
        opts.crash = Some("1:before".parse().unwrap());
        let err = run_fleet(&plan, &opts, &MockRunner::new(&dir)).unwrap_err();
        assert_eq!(
            err.to_string(),
            "injected coordinator crash at city 1:before"
        );
        let mut resume_opts = FleetOptions::new(&dir, "fp");
        resume_opts.resume = true;
        let resumed = run_fleet(&plan, &resume_opts, &MockRunner::new(&dir)).unwrap();
        assert_eq!(resumed.journal_hits, vec!["a".to_owned()]);
        assert_eq!(resumed.replayed, vec!["b".to_owned()]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn abandoned_cities_replay_on_resume() {
        let dir = temp_dir();
        let plan = cities(&["a", "b"]);
        let mut runner = MockRunner::new(&dir);
        runner.fail_first.insert("b".to_owned(), u32::MAX);
        let first = run_fleet(&plan, &FleetOptions::new(&dir, "fp"), &runner).unwrap();
        assert!(matches!(first.outcome, FleetOutcome::Degraded { .. }));

        // The fault clears (fresh runner without the failure): resume
        // gives the abandoned city another budget.
        let mut resume_opts = FleetOptions::new(&dir, "fp");
        resume_opts.resume = true;
        let resumed = run_fleet(&plan, &resume_opts, &MockRunner::new(&dir)).unwrap();
        assert_eq!(resumed.outcome, FleetOutcome::Complete);
        assert_eq!(resumed.journal_hits, vec!["a".to_owned()]);
        assert_eq!(resumed.replayed, vec!["b".to_owned()]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_fingerprint_invalidates_journal_hits() {
        let dir = temp_dir();
        let plan = cities(&["a"]);
        run_fleet(
            &plan,
            &FleetOptions::new(&dir, "fp-1"),
            &MockRunner::new(&dir),
        )
        .unwrap();
        let mut opts = FleetOptions::new(&dir, "fp-2");
        opts.resume = true;
        let resumed = run_fleet(&plan, &opts, &MockRunner::new(&dir)).unwrap();
        assert!(resumed.journal_hits.is_empty());
        assert_eq!(resumed.replayed, vec!["a".to_owned()]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tampered_checkpoint_forces_replay() {
        let dir = temp_dir();
        let plan = cities(&["a"]);
        run_fleet(
            &plan,
            &FleetOptions::new(&dir, "fp"),
            &MockRunner::new(&dir),
        )
        .unwrap();
        fs::write(dir.join("cities/a/out.json"), b"{\"city\":\"X\"}").unwrap();
        let mut opts = FleetOptions::new(&dir, "fp");
        opts.resume = true;
        let resumed = run_fleet(&plan, &opts, &MockRunner::new(&dir)).unwrap();
        assert!(resumed.journal_hits.is_empty());
        assert_eq!(resumed.replayed, vec!["a".to_owned()]);
        // The replay restores the checkpoint.
        assert_eq!(
            fs::read(dir.join("cities/a/out.json")).unwrap(),
            b"{\"city\":\"a\"}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}
