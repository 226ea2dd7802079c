//! Crash-point injection for durability testing.
//!
//! A [`CrashSpec`] names one point in a durable run at which the process
//! should "die": before a stage's checkpoint commit, after it, or —
//! nastiest — mid-commit, leaving a torn (truncated) checkpoint file on
//! disk whose journal entry promises the full content. The durable runner
//! honours the spec by aborting the run with a crash error at exactly that
//! point, so tests and `ci.sh crash` can exercise resume-after-crash
//! without actually killing the process.
//!
//! Like everything in this crate, crash points are deterministic: the spec
//! is parsed from a `stage:point` string (CLI `--crash-at`) and fires on
//! the stage's first commit, independent of thread count or timing.

use std::fmt;
use std::ops::RangeInclusive;

/// Where in a durable run an injected crash fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CrashSpec {
    /// Die before the stage commits anything: no checkpoint files, no
    /// journal entry. Resume must replay the stage from scratch.
    Before {
        /// Stage name (e.g. `preprocess`).
        stage: String,
    },
    /// Die immediately after the stage's journal entry is durable. Resume
    /// must skip the stage entirely.
    After {
        /// Stage name (e.g. `preprocess`).
        stage: String,
    },
    /// Die mid-commit: the stage's first checkpoint file is truncated to
    /// half its length, but the journal entry records the full content
    /// hash. Resume must detect the mismatch and replay the stage.
    Torn {
        /// Stage name (e.g. `preprocess`).
        stage: String,
    },
}

impl CrashSpec {
    /// Parses a `stage:point` spec, where point is `before`, `after`, or
    /// `torn` (e.g. `analytics:before`).
    pub fn parse(raw: &str) -> Result<Self, String> {
        let err = || {
            format!(
                "invalid crash spec {raw:?}: expected <stage>:<before|after|torn>, \
                 e.g. \"analytics:before\""
            )
        };
        let (stage, point) = raw.split_once(':').ok_or_else(err)?;
        let stage = stage.trim();
        if stage.is_empty() {
            return Err(err());
        }
        match point.trim() {
            "before" => Ok(CrashSpec::Before {
                stage: stage.to_owned(),
            }),
            "after" => Ok(CrashSpec::After {
                stage: stage.to_owned(),
            }),
            "torn" => Ok(CrashSpec::Torn {
                stage: stage.to_owned(),
            }),
            _ => Err(err()),
        }
    }

    /// The stage this spec targets.
    pub fn stage(&self) -> &str {
        match self {
            CrashSpec::Before { stage }
            | CrashSpec::After { stage }
            | CrashSpec::Torn { stage } => stage,
        }
    }

    /// Short label for the crash point (`before`, `after`, `torn`).
    pub fn point(&self) -> &'static str {
        match self {
            CrashSpec::Before { .. } => "before",
            CrashSpec::After { .. } => "after",
            CrashSpec::Torn { .. } => "torn",
        }
    }
}

impl fmt::Display for CrashSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.stage(), self.point())
    }
}

/// Where in an incremental-ingest run an injected crash fires.
///
/// Incremental ingest processes an ordered list of batches; each batch
/// boundary is a first-class crash point, mirroring [`CrashSpec`]'s
/// before/after/torn grammar but keyed by 0-based batch index instead of
/// stage name (CLI `--crash-at-batch`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestCrash {
    /// Die before the batch's generation commits anything: no checkpoint
    /// deltas, no manifest line. Resume must re-ingest the batch.
    BeforeBatch {
        /// 0-based index into the ordered batch list.
        batch: usize,
    },
    /// Die immediately after the batch's generation manifest line is
    /// durable. Resume must recognize the sealed generation and skip it.
    AfterCommit {
        /// 0-based index into the ordered batch list.
        batch: usize,
    },
    /// Die mid-seal: the generation's first checkpoint file is truncated
    /// to half its length, but the manifest line records the full content
    /// hash. Resume must detect the mismatch and re-ingest the batch.
    TornBatch {
        /// 0-based index into the ordered batch list.
        batch: usize,
    },
}

impl IngestCrash {
    /// Parses a `batch:point` spec, where batch is a 0-based index and
    /// point is `before`, `after`, or `torn` (e.g. `1:after`).
    pub fn parse(raw: &str) -> Result<Self, String> {
        let err = || {
            format!(
                "invalid ingest crash spec {raw:?}: expected <batch>:<before|after|torn>, \
                 e.g. \"1:after\""
            )
        };
        let (batch, point) = raw.split_once(':').ok_or_else(err)?;
        let batch: usize = batch.trim().parse().map_err(|_| err())?;
        match point.trim() {
            "before" => Ok(IngestCrash::BeforeBatch { batch }),
            "after" => Ok(IngestCrash::AfterCommit { batch }),
            "torn" => Ok(IngestCrash::TornBatch { batch }),
            _ => Err(err()),
        }
    }

    /// The 0-based batch index this spec targets.
    pub fn batch(&self) -> usize {
        match self {
            IngestCrash::BeforeBatch { batch }
            | IngestCrash::AfterCommit { batch }
            | IngestCrash::TornBatch { batch } => *batch,
        }
    }

    /// Short label for the crash point (`before`, `after`, `torn`).
    pub fn point(&self) -> &'static str {
        match self {
            IngestCrash::BeforeBatch { .. } => "before",
            IngestCrash::AfterCommit { .. } => "after",
            IngestCrash::TornBatch { .. } => "torn",
        }
    }
}

impl fmt::Display for IngestCrash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.batch(), self.point())
    }
}

/// Which batches of an incremental-ingest run receive injected record
/// corruption — the batch-scoped analogue of running the whole pipeline
/// under a [`crate::FaultInjector`].
///
/// Parsed from a comma-separated list of 0-based indices and inclusive
/// ranges (`"0,2-4"`), or `"all"`. The chaos suite uses this to poison
/// exactly one batch and prove the damage stays inside that generation.
/// A range is kept as its two ends, so its width costs nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchScope {
    /// Corrupt every batch.
    All,
    /// Corrupt only the batches in these inclusive index ranges: sorted,
    /// with overlapping and adjacent ranges merged.
    Only(Vec<RangeInclusive<usize>>),
}

impl BatchScope {
    /// Parses `"all"` or a list like `"0,2-4,7"`.
    pub fn parse(raw: &str) -> Result<Self, String> {
        let raw = raw.trim();
        if raw.eq_ignore_ascii_case("all") {
            return Ok(BatchScope::All);
        }
        let err = |part: &str| {
            format!(
                "invalid batch scope {raw:?}: part {part:?} is not an index or \
                 inclusive range (expected e.g. \"all\" or \"0,2-4\")"
            )
        };
        let mut ranges = Vec::new();
        for part in raw.split(',') {
            let part = part.trim();
            let (lo, hi) = match part.split_once('-') {
                Some((lo, hi)) => (lo.trim(), hi.trim()),
                None => (part, part),
            };
            let lo: usize = lo.parse().map_err(|_| err(part))?;
            let hi: usize = hi.parse().map_err(|_| err(part))?;
            if lo > hi {
                return Err(err(part));
            }
            ranges.push(lo..=hi);
        }
        ranges.sort_unstable_by_key(|r| *r.start());
        let mut merged: Vec<RangeInclusive<usize>> = Vec::with_capacity(ranges.len());
        for range in ranges {
            match merged.last_mut() {
                Some(last) if *range.start() <= last.end().saturating_add(1) => {
                    *last = *last.start()..=(*last.end()).max(*range.end());
                }
                _ => merged.push(range),
            }
        }
        Ok(BatchScope::Only(merged))
    }

    /// `true` when batch `index` should receive injected corruption.
    pub fn applies_to(&self, index: usize) -> bool {
        match self {
            BatchScope::All => true,
            BatchScope::Only(ranges) => {
                let first_not_below = ranges.partition_point(|r| *r.end() < index);
                ranges
                    .get(first_not_below)
                    .is_some_and(|r| r.contains(&index))
            }
        }
    }

    /// The largest listed batch index (`None` for [`BatchScope::All`]).
    pub fn max_index(&self) -> Option<usize> {
        match self {
            BatchScope::All => None,
            BatchScope::Only(ranges) => ranges.last().map(|r| *r.end()),
        }
    }
}

impl fmt::Display for BatchScope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchScope::All => write!(f, "all"),
            BatchScope::Only(ranges) => {
                for (i, r) in ranges.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    if r.start() == r.end() {
                        write!(f, "{}", r.start())?;
                    } else {
                        write!(f, "{}-{}", r.start(), r.end())?;
                    }
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_three_points() {
        assert_eq!(
            CrashSpec::parse("preprocess:before").unwrap(),
            CrashSpec::Before {
                stage: "preprocess".into()
            }
        );
        assert_eq!(
            CrashSpec::parse("analytics:after").unwrap(),
            CrashSpec::After {
                stage: "analytics".into()
            }
        );
        assert_eq!(
            CrashSpec::parse(" dashboard : torn ").unwrap(),
            CrashSpec::Torn {
                stage: "dashboard".into()
            }
        );
    }

    #[test]
    fn accessors_and_display_round_trip() {
        let spec = CrashSpec::parse("analytics:torn").unwrap();
        assert_eq!(spec.stage(), "analytics");
        assert_eq!(spec.point(), "torn");
        assert_eq!(spec.to_string(), "analytics:torn");
        assert_eq!(CrashSpec::parse(&spec.to_string()).unwrap(), spec);
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "",
            "preprocess",
            ":before",
            "preprocess:",
            "a:during",
            "a:b:c",
        ] {
            let err = CrashSpec::parse(bad).unwrap_err();
            assert!(err.contains("invalid crash spec"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn ingest_crash_parses_all_three_points() {
        assert_eq!(
            IngestCrash::parse("0:before").unwrap(),
            IngestCrash::BeforeBatch { batch: 0 }
        );
        assert_eq!(
            IngestCrash::parse("3:after").unwrap(),
            IngestCrash::AfterCommit { batch: 3 }
        );
        assert_eq!(
            IngestCrash::parse(" 12 : torn ").unwrap(),
            IngestCrash::TornBatch { batch: 12 }
        );
    }

    #[test]
    fn ingest_crash_accessors_and_display_round_trip() {
        let spec = IngestCrash::parse("2:torn").unwrap();
        assert_eq!(spec.batch(), 2);
        assert_eq!(spec.point(), "torn");
        assert_eq!(spec.to_string(), "2:torn");
        assert_eq!(IngestCrash::parse(&spec.to_string()).unwrap(), spec);
    }

    #[test]
    fn ingest_crash_rejects_malformed_specs() {
        for bad in ["", "1", ":before", "x:before", "1:", "1:during", "-1:torn"] {
            let err = IngestCrash::parse(bad).unwrap_err();
            assert!(err.contains("invalid ingest crash spec"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn batch_scope_parses_lists_ranges_and_all() {
        assert_eq!(BatchScope::parse("all").unwrap(), BatchScope::All);
        assert_eq!(BatchScope::parse("ALL").unwrap(), BatchScope::All);
        let scope = BatchScope::parse("0,2-4,7,2,5,9-10,10").unwrap();
        assert_eq!(scope, BatchScope::Only(vec![0..=0, 2..=5, 7..=7, 9..=10]));
        assert_eq!(scope.to_string(), "0,2-5,7,9-10");
        assert_eq!(scope.max_index(), Some(10));
        let hits: Vec<usize> = (0..12).filter(|&i| scope.applies_to(i)).collect();
        assert_eq!(hits, [0, 2, 3, 4, 5, 7, 9, 10]);
        let scope = BatchScope::parse("1-2").unwrap();
        assert!(!scope.applies_to(0));
        assert!(scope.applies_to(1));
        assert!(scope.applies_to(2));
        assert!(!scope.applies_to(3));
        assert!(BatchScope::All.applies_to(usize::MAX));
        assert_eq!(BatchScope::All.max_index(), None);
        assert_eq!(scope.to_string(), "1-2");
        assert_eq!(BatchScope::All.to_string(), "all");
    }

    #[test]
    fn batch_scope_keeps_a_huge_range_as_its_two_ends() {
        let scope = BatchScope::parse("0-99999999999").unwrap();
        assert_eq!(scope, BatchScope::Only(vec![0..=99_999_999_999]));
        assert!(scope.applies_to(0));
        assert!(scope.applies_to(99_999_999_999));
        assert!(!scope.applies_to(100_000_000_000));
        assert_eq!(scope.max_index(), Some(99_999_999_999));
        let scope = BatchScope::parse(&format!("{}-{}", usize::MAX - 1, usize::MAX)).unwrap();
        assert!(!scope.applies_to(0));
        assert!(scope.applies_to(usize::MAX));
    }

    #[test]
    fn batch_scope_rejects_malformed() {
        for bad in ["", "x", "1,", "3-1", "1-x", ","] {
            assert!(BatchScope::parse(bad).is_err(), "{bad:?} should fail");
        }
    }
}
