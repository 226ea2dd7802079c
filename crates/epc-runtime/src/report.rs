//! Per-stage instrumentation: wall time, record counts, and quarantine
//! accounting — plus the clock abstraction behind the stage deadline
//! watchdog.
//!
//! This module is the one deliberate exemption from lint rule D2 (no
//! wall-clock reads in chaos-hashed crates): timing here is
//! instrumentation only and never reaches a hashed artifact. The
//! [`Clock`] trait lets deadline enforcement stay deterministic under
//! test — production uses [`WallClock`], tests script a [`ManualClock`].

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// A monotonic millisecond clock. The pipeline's deadline watchdog only
/// ever *samples* the clock at stage boundaries, so any monotone source
/// works — including a scripted one.
pub trait Clock: Sync {
    /// Milliseconds elapsed since an arbitrary (fixed) origin.
    fn now_ms(&self) -> u64;
}

/// The production clock: monotonic time since construction.
#[derive(Debug)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// A clock whose origin is now.
    pub fn new() -> Self {
        WallClock {
            origin: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now_ms(&self) -> u64 {
        self.origin.elapsed().as_millis() as u64
    }
}

/// The process-wide shared [`WallClock`] (origin fixed at first use).
///
/// Default time source of a pipeline context — having one shared
/// instance keeps every uninjected sample on a single origin, so readings
/// from different call sites are mutually comparable.
pub fn wall_clock() -> &'static WallClock {
    static WALL: OnceLock<WallClock> = OnceLock::new();
    WALL.get_or_init(WallClock::new)
}

/// A deterministic scripted clock: every [`Clock::now_ms`] call returns
/// the current reading, then advances it by a fixed step. Two samples
/// around a stage therefore always observe exactly `step_ms` of elapsed
/// time — which makes deadline overruns reproducible in tests.
#[derive(Debug)]
pub struct ManualClock {
    now: AtomicU64,
    step_ms: u64,
}

impl ManualClock {
    /// A clock starting at 0 that advances `step_ms` per sample.
    pub fn advancing(step_ms: u64) -> Self {
        ManualClock {
            now: AtomicU64::new(0),
            step_ms,
        }
    }

    /// A frozen clock (never advances) — stages appear instantaneous.
    pub fn frozen() -> Self {
        ManualClock::advancing(0)
    }

    /// Jumps the clock to an absolute reading.
    pub fn set(&self, now_ms: u64) {
        self.now.store(now_ms, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now_ms(&self) -> u64 {
        self.now.fetch_add(self.step_ms, Ordering::SeqCst)
    }
}

/// Timing and throughput of one pipeline stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageReport {
    /// Stage name (e.g. `preprocess`).
    pub name: String,
    /// Wall-clock duration of the stage.
    pub wall: Duration,
    /// Records entering the stage.
    pub records_in: usize,
    /// Records leaving the stage (after filtering/aggregation).
    pub records_out: usize,
    /// Records diverted to the quarantine by this stage.
    pub quarantined: usize,
    /// Fault histogram of the quarantined records: fault kind → count.
    pub faults: BTreeMap<String, usize>,
}

/// Running stopwatch for one stage; finish it into a [`StageReport`].
///
/// Time is sampled exclusively through the [`Clock`] trait — once at
/// start, once at finish. [`StageTimer::start_with`] takes the clock
/// (the process-wide [`wall_clock`] in production), so stage timing, the
/// deadline watchdog, and trace events can share one scripted
/// [`ManualClock`] in determinism tests.
pub struct StageTimer<'a> {
    name: String,
    clock: &'a dyn Clock,
    started_ms: u64,
}

impl fmt::Debug for StageTimer<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StageTimer")
            .field("name", &self.name)
            .field("started_ms", &self.started_ms)
            .finish_non_exhaustive()
    }
}

impl<'a> StageTimer<'a> {
    /// Starts timing a stage against an injected clock.
    pub fn start_with(name: impl Into<String>, clock: &'a dyn Clock) -> Self {
        StageTimer {
            name: name.into(),
            clock,
            started_ms: clock.now_ms(),
        }
    }

    /// Stops the clock and records throughput and quarantine accounting.
    pub fn finish_detailed(
        self,
        records_in: usize,
        records_out: usize,
        quarantined: usize,
        faults: BTreeMap<String, usize>,
    ) -> StageReport {
        let wall = Duration::from_millis(self.clock.now_ms().saturating_sub(self.started_ms));
        StageReport {
            name: self.name,
            wall,
            records_in,
            records_out,
            quarantined,
            faults,
        }
    }
}

/// Ordered collection of stage reports for one pipeline run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PipelineReport {
    /// Thread budget the run executed with.
    pub threads: usize,
    /// Stage reports in execution order.
    pub stages: Vec<StageReport>,
}

impl PipelineReport {
    /// Empty report for a run at the given thread budget.
    pub fn new(threads: usize) -> Self {
        PipelineReport {
            threads,
            stages: Vec::new(),
        }
    }

    /// Appends a finished stage.
    pub fn push(&mut self, stage: StageReport) {
        self.stages.push(stage);
    }

    /// Sum of stage wall times.
    pub fn total_wall(&self) -> Duration {
        self.stages.iter().map(|s| s.wall).sum()
    }

    /// Looks up a stage by name.
    pub fn stage(&self, name: &str) -> Option<&StageReport> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// Total records quarantined across all stages.
    pub fn total_quarantined(&self) -> usize {
        self.stages.iter().map(|s| s.quarantined).sum()
    }
}

impl fmt::Display for PipelineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "pipeline report (threads = {}, total = {:.1?}):",
            self.threads,
            self.total_wall()
        )?;
        for s in &self.stages {
            write!(
                f,
                "  {:<12} {:>10.1?}   {:>7} in → {:>7} out",
                s.name, s.wall, s.records_in, s.records_out
            )?;
            if s.quarantined > 0 {
                let kinds: Vec<String> =
                    s.faults.iter().map(|(k, n)| format!("{k}: {n}")).collect();
                write!(
                    f,
                    "   [{} quarantined — {}]",
                    s.quarantined,
                    kinds.join(", ")
                )?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_produces_report() {
        let t = StageTimer::start_with("preprocess", wall_clock());
        std::thread::sleep(Duration::from_millis(2));
        let r = t.finish_detailed(100, 90, 0, BTreeMap::new());
        assert_eq!(r.name, "preprocess");
        assert!(r.wall >= Duration::from_millis(2));
        assert_eq!((r.records_in, r.records_out), (100, 90));
    }

    #[test]
    fn report_accumulates_and_displays() {
        let mut rep = PipelineReport::new(4);
        rep.push(StageReport {
            name: "a".into(),
            wall: Duration::from_millis(5),
            records_in: 10,
            records_out: 8,
            quarantined: 0,
            faults: BTreeMap::new(),
        });
        rep.push(StageReport {
            name: "b".into(),
            wall: Duration::from_millis(7),
            records_in: 8,
            records_out: 8,
            quarantined: 0,
            faults: BTreeMap::new(),
        });
        assert_eq!(rep.total_wall(), Duration::from_millis(12));
        assert_eq!(rep.stage("b").unwrap().records_in, 8);
        let text = rep.to_string();
        assert!(text.contains("threads = 4"));
        assert!(text.contains('a') && text.contains('b'));
        assert!(
            !text.contains("quarantined"),
            "zero quarantine stays silent"
        );
    }

    #[test]
    fn quarantine_accounting_shows_in_display_and_totals() {
        let t = StageTimer::start_with("preprocess", wall_clock());
        let mut faults = BTreeMap::new();
        faults.insert("non_finite".to_owned(), 3usize);
        faults.insert("csv_parse".to_owned(), 1usize);
        let mut rep = PipelineReport::new(2);
        rep.push(t.finish_detailed(100, 96, 4, faults));
        assert_eq!(rep.total_quarantined(), 4);
        assert_eq!(rep.stage("preprocess").unwrap().faults["non_finite"], 3);
        let text = rep.to_string();
        assert!(text.contains("4 quarantined"), "{text}");
        assert!(text.contains("non_finite: 3"), "{text}");
    }

    #[test]
    fn manual_clock_advances_per_sample() {
        let c = ManualClock::advancing(250);
        assert_eq!(c.now_ms(), 0);
        assert_eq!(c.now_ms(), 250);
        assert_eq!(c.now_ms(), 500);
        c.set(10_000);
        assert_eq!(c.now_ms(), 10_000);
        let frozen = ManualClock::frozen();
        assert_eq!(frozen.now_ms(), frozen.now_ms());
    }

    #[test]
    fn timer_reads_through_injected_clock() {
        let clock = ManualClock::advancing(125);
        let r =
            StageTimer::start_with("analytics", &clock).finish_detailed(10, 10, 0, BTreeMap::new());
        // advancing(125): start samples 0, finish samples 125.
        assert_eq!(r.wall, Duration::from_millis(125));
    }

    #[test]
    fn shared_wall_clock_is_single_origin_and_monotone() {
        let a = wall_clock().now_ms();
        let b = wall_clock().now_ms();
        assert!(b >= a);
    }

    #[test]
    fn wall_clock_is_monotone() {
        let c = WallClock::new();
        let a = c.now_ms();
        let b = c.now_ms();
        assert!(b >= a);
    }
}
