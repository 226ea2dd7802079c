//! Injected crash points for durability testing, shared by every run
//! mode: a [`CrashPoint`] names one unit's commit — a stage of `run`, a
//! batch of `ingest`, a city of `fleet` — and the [`CommitPoint`] in it
//! where the process "dies". [`crate::Log::commit`] plays a crash out;
//! `Before` is checked by each runner where its unit starts.
//!
//! Crash points are deterministic: they fire on the unit's first commit,
//! whatever the thread count or timing, and never reach a journal,
//! checkpoint or fingerprint.

use std::fmt;
use std::str::FromStr;

/// Where an injected crash cuts a unit's commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitPoint {
    /// Before the unit writes anything: resume redoes the unit.
    Before,
    /// Just after the unit's journal line is durable: resume skips it.
    After,
    /// Mid-commit: the unit's first file is cut to half its length but
    /// its journal line records the full content, so resume must catch
    /// the mismatch and redo the unit.
    Torn,
}

impl fmt::Display for CommitPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CommitPoint::Before => "before",
            CommitPoint::After => "after",
            CommitPoint::Torn => "torn",
        })
    }
}

/// An injected crash at `point` of unit `at`'s commit, written
/// `<unit>:<before|after|torn>` (e.g. `analytics:torn`, `1:after`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint<K> {
    /// The unit whose commit the crash cuts.
    pub at: K,
    /// Where in that commit it fires.
    pub point: CommitPoint,
}

impl<K: PartialEq> CrashPoint<K> {
    /// `true` when this crash fires at `point` of `unit`.
    pub fn is_at(&self, unit: &K, point: CommitPoint) -> bool {
        self.at == *unit && self.point == point
    }
}

impl<K: FromStr> FromStr for CrashPoint<K>
where
    K::Err: fmt::Display,
{
    type Err = String;

    /// Parses `<unit>:<before|after|torn>`; the unit's own parser judges
    /// the part before the colon.
    fn from_str(raw: &str) -> Result<Self, String> {
        let invalid = |why: &dyn fmt::Display| format!("invalid crash point {raw:?}: {why}");
        let grammar = || invalid(&"expected <unit>:<before|after|torn>");
        let (unit, point) = raw.split_once(':').ok_or_else(grammar)?;
        let point = match point.trim() {
            "before" => CommitPoint::Before,
            "after" => CommitPoint::After,
            "torn" => CommitPoint::Torn,
            _ => return Err(grammar()),
        };
        let unit = unit.trim();
        if unit.is_empty() {
            return Err(grammar());
        }
        let at = unit.parse().map_err(|e| invalid(&e))?;
        Ok(CrashPoint { at, point })
    }
}

impl<K: fmt::Display> fmt::Display for CrashPoint<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.at, self.point)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(at: &str, point: CommitPoint) -> CrashPoint<String> {
        CrashPoint {
            at: at.to_owned(),
            point,
        }
    }

    #[test]
    fn parses_all_three_points() {
        let parse = |raw: &str| raw.parse::<CrashPoint<String>>().unwrap();
        assert_eq!(
            parse("preprocess:before"),
            point("preprocess", CommitPoint::Before)
        );
        assert_eq!(
            parse("analytics:after"),
            point("analytics", CommitPoint::After)
        );
        assert_eq!(
            parse(" dashboard : torn "),
            point("dashboard", CommitPoint::Torn)
        );
    }

    #[test]
    fn accessors_and_display_round_trip() {
        let spec: CrashPoint<String> = "analytics:torn".parse().unwrap();
        assert!(spec.is_at(&"analytics".to_owned(), CommitPoint::Torn));
        assert!(!spec.is_at(&"analytics".to_owned(), CommitPoint::After));
        assert!(!spec.is_at(&"dashboard".to_owned(), CommitPoint::Torn));
        assert_eq!(spec.to_string(), "analytics:torn");
        assert_eq!(
            spec.to_string().parse::<CrashPoint<String>>().unwrap(),
            spec
        );
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
            let err = bad.parse::<CrashPoint<String>>().unwrap_err();
            assert!(err.contains("invalid crash point"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn ingest_crash_parses_all_three_points() {
        let parse = |raw: &str| raw.parse::<CrashPoint<usize>>().unwrap();
        let at = |at, point| CrashPoint { at, point };
        assert_eq!(parse("0:before"), at(0, CommitPoint::Before));
        assert_eq!(parse("3:after"), at(3, CommitPoint::After));
        assert_eq!(parse(" 12 : torn "), at(12, CommitPoint::Torn));
    }

    #[test]
    fn ingest_crash_accessors_and_display_round_trip() {
        let spec: CrashPoint<usize> = "2:torn".parse().unwrap();
        assert_eq!((spec.at, spec.point), (2, CommitPoint::Torn));
        assert_eq!(spec.to_string(), "2:torn");
        assert_eq!(spec.to_string().parse::<CrashPoint<usize>>().unwrap(), spec);
    }

    #[test]
    fn ingest_crash_rejects_malformed_specs() {
        for bad in ["", "1", ":before", "x:before", "1:", "1:during", "-1:torn"] {
            let err = bad.parse::<CrashPoint<usize>>().unwrap_err();
            assert!(err.contains("invalid crash point"), "{bad:?}: {err}");
        }
    }
}
