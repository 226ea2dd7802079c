//! Which batches of an incremental ingest a chaos run corrupts.
//!
//! Crash points themselves — `--crash-at`, `--crash-at-batch` and
//! `--crash-at-city` — are `epc_journal::CrashPoint`s, next to the
//! commit step that plays them out.

use std::fmt;
use std::ops::RangeInclusive;

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
