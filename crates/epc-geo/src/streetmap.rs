//! The referenced street map of §2.1.1.
//!
//! "The referenced street map should contain all the detailed information on
//! streets, including street names, house numbers, ZIP Code and geolocation."
//! INDICE matches each noisy EPC address against this map with Levenshtein
//! similarity, and uses the matched entry to repair ZIP code, house number,
//! latitude and longitude.

use crate::address::{normalize_house_number, normalize_street};
use crate::levenshtein::{levenshtein_bounded, similarity, BitPattern};
use crate::point::GeoPoint;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io;

/// One civic-number entry of the referenced street map.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreetEntry {
    /// Canonical street name (already clean).
    pub street: String,
    /// Canonical house number (`"12"`, `"12/B"`, …).
    pub house_number: String,
    /// ZIP code of the entry.
    pub zip: String,
    /// Geolocation of the entrance.
    pub point: GeoPoint,
    /// District the entry belongs to.
    pub district: String,
    /// Neighbourhood the entry belongs to.
    pub neighbourhood: String,
}

/// The referenced street map: entries indexed by normalized street name.
#[derive(Debug, Clone, Default)]
pub struct StreetMap {
    entries: Vec<StreetEntry>,
    /// normalized street name → indices into `entries`
    by_street: HashMap<String, Vec<usize>>,
    /// distinct normalized street names with their char counts, in
    /// insertion order (the order fuzzy scans visit them in)
    street_names: Vec<(String, usize)>,
    /// the largest char count in `street_names`
    longest_name: usize,
}

/// A fuzzy street-name match.
#[derive(Debug, Clone, PartialEq)]
pub struct StreetMatch {
    /// The normalized street name matched.
    pub street_key: String,
    /// The Levenshtein similarity achieved, in `[0, 1]`.
    pub similarity: f64,
}

impl StreetMap {
    /// An empty map.
    pub fn new() -> Self {
        StreetMap::default()
    }

    /// Builds a map from entries.
    pub fn from_entries(entries: Vec<StreetEntry>) -> Self {
        let mut map = StreetMap::new();
        for e in entries {
            map.insert(e);
        }
        map
    }

    /// Adds one entry.
    pub fn insert(&mut self, entry: StreetEntry) {
        let key = normalize_street(&entry.street);
        self.insert_keyed(&key, entry);
    }

    /// Adds one entry whose street normalises to `key`.
    fn insert_keyed(&mut self, key: &str, entry: StreetEntry) {
        let idx = self.entries.len();
        self.entries.push(entry);
        match self.by_street.get_mut(key) {
            Some(v) => v.push(idx),
            None => {
                self.by_street.insert(key.to_owned(), vec![idx]);
                let n_len = key.chars().count();
                self.longest_name = self.longest_name.max(n_len);
                self.street_names.push((key.to_owned(), n_len));
            }
        }
    }

    /// Total number of civic-number entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of distinct streets.
    pub fn n_streets(&self) -> usize {
        self.street_names.len()
    }

    /// All entries (for iteration / serialization).
    pub fn entries(&self) -> &[StreetEntry] {
        &self.entries
    }

    /// `true` when the normalized street name exists verbatim.
    pub fn contains_street(&self, street: &str) -> bool {
        self.by_street.contains_key(&normalize_street(street))
    }

    /// The best fuzzy match for a (raw) street name, or `None` when no
    /// street reaches `min_similarity`.
    ///
    /// An exact normalized match short-circuits. Otherwise the distinct
    /// street names are visited in map order and the first one with the
    /// highest similarity wins. A name is skipped when its length gap alone
    /// puts it out of reach of the current acceptance test; once a hit
    /// exists, that test becomes "strictly better than the hit". The
    /// survivors go to a bounded bit-parallel Levenshtein
    /// ([`BitPattern`]) for queries of at most 64 chars, and to
    /// [`levenshtein_bounded`] for longer ones. The result equals a full
    /// scan with the plain distance (see DESIGN.md, "Street matching").
    pub fn best_match(&self, raw_street: &str, min_similarity: f64) -> Option<StreetMatch> {
        let query = normalize_street(raw_street);
        if query.is_empty() {
            return None;
        }
        if self.by_street.contains_key(&query) {
            return Some(StreetMatch {
                street_key: query,
                similarity: 1.0,
            });
        }
        let q_len = query.chars().count();
        let pattern = BitPattern::new(&query);
        let mut threshold = Threshold::AtLeast(min_similarity);
        let mut bounds = DistanceBounds::new(q_len, self.longest_name, threshold);
        let mut best: Option<(&str, f64)> = None;
        for (name, n_len) in &self.street_names {
            let Some(bound) = bounds.bound(*n_len) else {
                continue;
            };
            let distance = match &pattern {
                Some(p) => p.distance_within(name, *n_len, bound),
                None => levenshtein_bounded(&query, name, bound),
            };
            let Some(d) = distance else {
                continue;
            };
            let sim = 1.0 - d as f64 / q_len.max(*n_len) as f64;
            if threshold.passes(sim) {
                best = Some((name, sim));
                threshold = Threshold::Above(sim);
                bounds = DistanceBounds::new(q_len, self.longest_name, threshold);
            }
        }
        best.map(|(name, sim)| StreetMatch {
            street_key: name.to_owned(),
            similarity: sim,
        })
    }

    /// Looks up the entry for `(street_key, house_number)`; when the exact
    /// civic number is absent, falls back to the numerically closest civic
    /// number on the street (how geocoders interpolate unknown numbers).
    /// `street_key` must be a normalized street name (e.g. from
    /// [`StreetMap::best_match`]).
    pub fn lookup(&self, street_key: &str, house_number: Option<&str>) -> Option<&StreetEntry> {
        let idxs = self.by_street.get(street_key)?;
        let street_entries = || idxs.iter().filter_map(|&i| self.entries.get(i));
        let hn = house_number.map(normalize_house_number);
        if let Some(hn) = &hn {
            // Exact civic match first.
            if let Some(e) =
                street_entries().find(|e| normalize_house_number(&e.house_number) == *hn)
            {
                return Some(e);
            }
            // Closest numeric civic number.
            if let Some(target) = leading_number(hn) {
                let best = street_entries().min_by_key(|e| {
                    leading_number(&e.house_number)
                        .map(|n| n.abs_diff(target))
                        .unwrap_or(u64::MAX)
                });
                if let Some(e) = best {
                    return Some(e);
                }
            }
        }
        // No (usable) house number: return the first entry of the street.
        idxs.first().and_then(|&i| self.entries.get(i))
    }

    /// The exact-similarity scan used by diagnostics: similarity of `raw`
    /// against every distinct street, sorted descending. Expensive; only
    /// for tests and reports.
    pub fn similarity_profile(&self, raw_street: &str) -> Vec<(String, f64)> {
        let query = normalize_street(raw_street);
        let mut v: Vec<(String, f64)> = self
            .street_names
            .iter()
            .map(|(n, _)| (n.clone(), similarity(&query, n)))
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1));
        v
    }
}

impl StreetMap {
    /// Serializes the map to a semicolon-separated text format (one entry
    /// per line: `street;house;zip;lat;lon;district;neighbourhood`).
    ///
    /// Fields containing `;` or newlines are rejected with an error — real
    /// odonyms never contain either.
    pub fn to_text(&self) -> Result<String, String> {
        let mut out = Vec::new();
        self.write_text(&mut out).map_err(|e| e.to_string())?;
        String::from_utf8(out).map_err(|e| e.to_string())
    }

    /// Streams [`StreetMap::to_text`]'s text into `out`, one entry at a
    /// time. A field containing a separator fails with
    /// [`io::ErrorKind::InvalidData`] after the entries before it were
    /// written.
    pub fn write_text(&self, out: &mut impl io::Write) -> io::Result<()> {
        out.write_all(b"street;house_number;zip;lat;lon;district;neighbourhood\n")?;
        for e in &self.entries {
            for field in [
                &e.street,
                &e.house_number,
                &e.zip,
                &e.district,
                &e.neighbourhood,
            ] {
                if field.contains(';') || field.contains('\n') {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("field {field:?} contains a separator"),
                    ));
                }
            }
            writeln!(
                out,
                "{};{};{};{};{};{};{}",
                e.street,
                e.house_number,
                e.zip,
                e.point.lat,
                e.point.lon,
                e.district,
                e.neighbourhood
            )?;
        }
        Ok(())
    }

    /// Parses the [`StreetMap::to_text`] format.
    ///
    /// A map lists a street's civic numbers on consecutive lines, so the
    /// street name is normalised once per run of equal raw names.
    /// [`normalize_street`] is a pure function, so reusing its result for
    /// an equal name gives the map [`StreetMap::insert`] builds entry by
    /// entry.
    pub fn from_text(text: &str) -> Result<StreetMap, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty street map file")?;
        if !header.starts_with("street;") {
            return Err(format!("unexpected header {header:?}"));
        }
        let mut map = StreetMap::new();
        // The raw street name of the previous entry and its normal form.
        let mut run: Option<(&str, String)> = None;
        for (i, line) in lines.enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let parts: Vec<&str> = line.split(';').collect();
            let [street, house_number, zip, lat_s, lon_s, district, neighbourhood] =
                parts.as_slice()
            else {
                return Err(format!(
                    "line {}: expected 7 fields, got {}",
                    i + 2,
                    parts.len()
                ));
            };
            let lat: f64 = lat_s
                .parse()
                .map_err(|e| format!("line {}: bad latitude: {e}", i + 2))?;
            let lon: f64 = lon_s
                .parse()
                .map_err(|e| format!("line {}: bad longitude: {e}", i + 2))?;
            if !((-90.0..=90.0).contains(&lat) && (-180.0..=180.0).contains(&lon)) {
                return Err(format!(
                    "line {}: coordinates ({lat}, {lon}) out of range",
                    i + 2
                ));
            }
            let key = match run.take() {
                Some((raw, key)) if raw == *street => key,
                _ => normalize_street(street),
            };
            map.insert_keyed(
                &key,
                StreetEntry {
                    street: (*street).to_owned(),
                    house_number: (*house_number).to_owned(),
                    zip: (*zip).to_owned(),
                    point: GeoPoint::new(lat, lon),
                    district: (*district).to_owned(),
                    neighbourhood: (*neighbourhood).to_owned(),
                },
            );
            run = Some((street, key));
        }
        Ok(map)
    }
}

/// The similarity test a name must pass to become the new best match.
#[derive(Debug, Clone, Copy)]
enum Threshold {
    /// No hit yet: similarity must reach φ.
    AtLeast(f64),
    /// A hit exists: only a strictly higher similarity replaces it, so the
    /// first of several equal maxima in map order wins. The hit reached φ,
    /// so anything above it does too.
    Above(f64),
}

impl Threshold {
    fn passes(self, sim: f64) -> bool {
        match self {
            Threshold::AtLeast(phi) => sim >= phi,
            Threshold::Above(hit) => sim > hit,
        }
    }

    /// The largest distance `d ≤ max_len` whose similarity
    /// `1 − d/max_len` passes, or `None` when not even `d = 0` does. It
    /// runs the same f64 operations as the acceptance check, so the bound
    /// is exact; both operations are monotone, so the passing distances are
    /// a prefix of `0..=max_len` and a binary search finds its end.
    fn max_distance(self, max_len: usize) -> Option<usize> {
        let passes = |d: usize| self.passes(1.0 - d as f64 / max_len as f64);
        if !passes(0) {
            return None;
        }
        let (mut lo, mut hi) = (0, max_len);
        while lo < hi {
            let mid = hi - (hi - lo) / 2;
            if passes(mid) {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        Some(lo)
    }
}

/// The per-query length filter of [`StreetMap::best_match`]: for every
/// name length still in reach, the largest distance that can pass the
/// current [`Threshold`].
struct DistanceBounds {
    q_len: usize,
    /// `by_max_len[i]` is the bound for names whose longer side
    /// (`max(q_len, n_len)`) is `q_len + i`; longer names are out of reach.
    by_max_len: Vec<usize>,
}

impl DistanceBounds {
    fn new(q_len: usize, longest_name: usize, threshold: Threshold) -> Self {
        let mut by_max_len = Vec::new();
        for max_len in q_len..=longest_name.max(q_len) {
            match threshold.max_distance(max_len) {
                // The length gap grows by one per char while the bound grows
                // by at most one, so the first length out of reach ends it.
                Some(bound) if max_len - q_len <= bound => by_max_len.push(bound),
                _ => break,
            }
        }
        DistanceBounds { q_len, by_max_len }
    }

    /// The distance bound for a name of `n_len` chars, or `None` when the
    /// length gap alone exceeds it.
    fn bound(&self, n_len: usize) -> Option<usize> {
        let bound = *self.by_max_len.get(n_len.saturating_sub(self.q_len))?;
        (self.q_len.abs_diff(n_len) <= bound).then_some(bound)
    }
}

/// Extracts the leading integer of a house number (`"12/B"` → 12).
fn leading_number(s: &str) -> Option<u64> {
    let digits: String = s.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(street: &str, hn: &str, zip: &str, lat: f64, lon: f64) -> StreetEntry {
        StreetEntry {
            street: street.to_owned(),
            house_number: hn.to_owned(),
            zip: zip.to_owned(),
            point: GeoPoint::new(lat, lon),
            district: "D1".into(),
            neighbourhood: "N1".into(),
        }
    }

    fn sample_map() -> StreetMap {
        StreetMap::from_entries(vec![
            entry("Via Roma", "1", "10121", 45.07, 7.68),
            entry("Via Roma", "3", "10121", 45.0701, 7.6801),
            entry("Via Roma", "25", "10121", 45.0710, 7.6810),
            entry("Corso Francia", "10", "10143", 45.075, 7.65),
            entry("Corso Vittorio Emanuele II", "76", "10128", 45.062, 7.67),
            entry("Piazza Castello", "5", "10122", 45.0708, 7.6863),
        ])
    }

    #[test]
    fn sizes() {
        let m = sample_map();
        assert_eq!(m.len(), 6);
        assert_eq!(m.n_streets(), 4);
        assert!(!m.is_empty());
        assert!(StreetMap::new().is_empty());
    }

    #[test]
    fn exact_match_short_circuits() {
        let m = sample_map();
        let hit = m.best_match("VIA ROMA", 0.8).unwrap();
        assert_eq!(hit.street_key, "via roma");
        assert_eq!(hit.similarity, 1.0);
    }

    #[test]
    fn abbreviation_matches_exactly() {
        let m = sample_map();
        let hit = m.best_match("C.so Vittorio Emanuele II", 0.8).unwrap();
        assert_eq!(hit.street_key, "corso vittorio emanuele ii");
        assert_eq!(hit.similarity, 1.0);
    }

    #[test]
    fn typo_matches_fuzzily() {
        let m = sample_map();
        let hit = m.best_match("corso vitorio emanuele ii", 0.85).unwrap();
        assert_eq!(hit.street_key, "corso vittorio emanuele ii");
        assert!(hit.similarity >= 0.85 && hit.similarity < 1.0);
    }

    #[test]
    fn below_threshold_is_none() {
        let m = sample_map();
        assert!(m.best_match("via garibaldi", 0.8).is_none());
        assert!(m.best_match("", 0.5).is_none());
    }

    #[test]
    fn best_match_picks_the_closest_street() {
        let mut m = sample_map();
        m.insert(entry("Via Romita", "2", "10121", 45.08, 7.69));
        // "via romaa" (1 edit from "via roma", 2 from "via romita")
        let hit = m.best_match("via romaa", 0.7).unwrap();
        assert_eq!(hit.street_key, "via roma");
    }

    #[test]
    fn similarity_exactly_phi_is_accepted() {
        // 1 − 1/10 is 0.9 in f64, but (1 − 0.9)·10 is 0.999…98, so a bound
        // computed as floor((1 − φ)·max_len) would be 0 and miss the hit.
        let m = StreetMap::from_entries(vec![entry("Via Romana", "1", "10121", 45.0, 7.6)]);
        let hit = m.best_match("via romanx", 0.9).unwrap();
        assert_eq!(hit.street_key, "via romana");
        assert_eq!(hit.similarity, 0.9);
        // φ = 0.8: two edits in ten chars.
        let hit = m.best_match("via romaxx", 0.8).unwrap();
        assert_eq!(hit.similarity, 1.0 - 2.0 / 10.0);
        assert!(m.best_match("via romxxx", 0.8).is_none());
    }

    #[test]
    fn equal_similarities_keep_the_first_name_in_map_order() {
        let m = StreetMap::from_entries(vec![
            entry("Via Rosa", "1", "1", 45.0, 7.6),
            entry("Via Roma", "1", "1", 45.0, 7.6),
            entry("Via Rota", "1", "1", 45.0, 7.6),
        ]);
        let hit = m.best_match("via rona", 0.8).unwrap();
        assert_eq!(hit.street_key, "via rosa");
        assert_eq!(hit.similarity, 1.0 - 1.0 / 8.0);
    }

    #[test]
    fn lookup_exact_civic() {
        let m = sample_map();
        let e = m.lookup("via roma", Some("3")).unwrap();
        assert_eq!(e.house_number, "3");
        assert_eq!(e.zip, "10121");
    }

    #[test]
    fn lookup_nearest_civic_fallback() {
        let m = sample_map();
        // 4 is closest to 3 (|4-3| = 1 < |4-1| = 3 < |4-25|).
        let e = m.lookup("via roma", Some("4")).unwrap();
        assert_eq!(e.house_number, "3");
        // 100 is closest to 25.
        let e = m.lookup("via roma", Some("100")).unwrap();
        assert_eq!(e.house_number, "25");
    }

    #[test]
    fn lookup_without_house_number() {
        let m = sample_map();
        let e = m.lookup("corso francia", None).unwrap();
        assert_eq!(e.street, "Corso Francia");
        assert!(m.lookup("via inesistente", None).is_none());
    }

    #[test]
    fn lookup_suffix_civic_normalization() {
        let mut m = sample_map();
        m.insert(entry("Via Po", "12/B", "10124", 45.068, 7.695));
        let e = m.lookup("via po", Some("12 /b")).unwrap();
        assert_eq!(e.house_number, "12/B");
    }

    #[test]
    fn similarity_profile_is_sorted() {
        let m = sample_map();
        let profile = m.similarity_profile("via roma");
        assert_eq!(profile[0].0, "via roma");
        for w in profile.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn text_round_trip() {
        let m = sample_map();
        let text = m.to_text().unwrap();
        let back = StreetMap::from_text(&text).unwrap();
        assert_eq!(back.entries(), m.entries());
        assert_eq!(back.n_streets(), m.n_streets());
        // Fuzzy matching still works on the round-tripped map.
        assert!(back.best_match("via roma", 0.8).is_some());
    }

    #[test]
    fn text_rejects_separator_in_fields() {
        let mut m = StreetMap::new();
        m.insert(entry("Via; Evil", "1", "10121", 45.0, 7.6));
        assert_eq!(
            m.to_text().unwrap_err(),
            "field \"Via; Evil\" contains a separator"
        );
        let err = m.write_text(&mut Vec::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn from_text_rejects_malformed_input() {
        assert!(StreetMap::from_text("").is_err());
        assert!(StreetMap::from_text("wrong header\n").is_err());
        assert!(StreetMap::from_text(
            "street;house_number;zip;lat;lon;district;neighbourhood\nonly;three;fields\n"
        )
        .is_err());
        assert!(StreetMap::from_text(
            "street;house_number;zip;lat;lon;district;neighbourhood\nVia Roma;1;10121;abc;7.6;D;N\n"
        )
        .is_err());
        let out_of_range = StreetMap::from_text(
            "street;house_number;zip;lat;lon;district;neighbourhood\nVia Roma;1;10121;945.0;7.6;D;N\n",
        );
        assert!(out_of_range.unwrap_err().contains("line 2"));
    }

    /// `StreetMap::from_text` as it was before the run memo: every entry
    /// goes through `insert`, which normalises its street name.
    fn oracle_from_text(text: &str) -> Result<StreetMap, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty street map file")?;
        if !header.starts_with("street;") {
            return Err(format!("unexpected header {header:?}"));
        }
        let mut map = StreetMap::new();
        for (i, line) in lines.enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let parts: Vec<&str> = line.split(';').collect();
            let [street, house_number, zip, lat_s, lon_s, district, neighbourhood] =
                parts.as_slice()
            else {
                return Err(format!(
                    "line {}: expected 7 fields, got {}",
                    i + 2,
                    parts.len()
                ));
            };
            let lat: f64 = lat_s
                .parse()
                .map_err(|e| format!("line {}: bad latitude: {e}", i + 2))?;
            let lon: f64 = lon_s
                .parse()
                .map_err(|e| format!("line {}: bad longitude: {e}", i + 2))?;
            if !((-90.0..=90.0).contains(&lat) && (-180.0..=180.0).contains(&lon)) {
                return Err(format!(
                    "line {}: coordinates ({lat}, {lon}) out of range",
                    i + 2
                ));
            }
            map.insert(StreetEntry {
                street: (*street).to_owned(),
                house_number: (*house_number).to_owned(),
                zip: (*zip).to_owned(),
                point: GeoPoint::new(lat, lon),
                district: (*district).to_owned(),
                neighbourhood: (*neighbourhood).to_owned(),
            });
        }
        Ok(map)
    }

    /// Raw spellings: several normalise equal (`Via Roma`, `V. Roma`,
    /// `VIA  ROMA`), one normalises to nothing, one is an accented twin.
    const STREETS: [&str; 10] = [
        "Via Roma",
        "V. Roma",
        "VIA  ROMA",
        "Corso Francia",
        "C.so Francia",
        "Piazza Castello",
        "P.za Castello",
        "Via Pò",
        "Via Po",
        "...",
    ];

    /// What follows a street name on its line: four good entries, then
    /// the faults `from_text` reports — too few fields (`\r\n` ends the
    /// line, so the last leaves the street alone), a bad and an
    /// out-of-range coordinate.
    const TAILS: [&str; 8] = [
        ";1;10121;45.07;7.68;D1;N1",
        ";3;10121;45.0701;7.6801;D1;N2",
        ";12/B;10124;-0;7.6;D2;N1",
        ";5;10122;45.07;7.68;D1;N1",
        ";5;10122;45.07;7.68",
        ";5;10122;abc;7.68;D1;N1",
        ";5;10122;45.07;190;D1;N1",
        "\r",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(1024))]

        #[test]
        fn from_text_equals_the_per_entry_insert_loop(
            runs in proptest::collection::vec((0usize..STREETS.len(), 1usize..4), 0..10),
            tails in proptest::collection::vec(0usize..TAILS.len() + 60, 30),
            blank in 0usize..40,
        ) {
            // Runs of one raw street, interleaved with others; most lines
            // are good, a few carry a fault, and one blank line may follow
            // any of them.
            let mut text = String::from("street;house_number;zip;lat;lon;district;neighbourhood\n");
            let mut tails = tails.iter().cycle();
            let mut line = 0;
            for &(street, len) in &runs {
                for _ in 0..len {
                    let tail = tails.next().copied().unwrap_or(0);
                    text.push_str(STREETS[street]);
                    text.push_str(TAILS.get(tail).unwrap_or(&TAILS[tail % 4]));
                    text.push('\n');
                    line += 1;
                    if line == blank {
                        text.push_str("  \n");
                    }
                }
            }
            match (StreetMap::from_text(&text), oracle_from_text(&text)) {
                (Ok(map), Ok(oracle)) => {
                    proptest::prop_assert_eq!(&map.entries, &oracle.entries);
                    proptest::prop_assert_eq!(&map.by_street, &oracle.by_street);
                    proptest::prop_assert_eq!(&map.street_names, &oracle.street_names);
                    proptest::prop_assert_eq!(map.longest_name, oracle.longest_name);
                }
                (Err(e), Err(oracle)) => proptest::prop_assert_eq!(e, oracle),
                (map, oracle) => proptest::prop_assert!(
                    false,
                    "text {:?}: from_text {:?}, oracle {:?}",
                    text,
                    map.map(|m| m.len()),
                    oracle.map(|m| m.len())
                ),
            }
        }
    }

    #[test]
    fn from_text_keeps_its_error_messages() {
        let header = "street;house_number;zip;lat;lon;district;neighbourhood\n";
        for (body, expected) in [
            ("Via Roma;1\n", "line 2: expected 7 fields, got 2"),
            (
                "Via Roma;1;1;45;7;D;N\nVia Roma;1;1;x;7;D;N\n",
                "line 3: bad latitude: invalid float literal",
            ),
            (
                "Via Roma;1;1;45;7;D;N\n\nV. Roma;1;1;45;y;D;N\n",
                "line 4: bad longitude: invalid float literal",
            ),
            (
                "Via Roma;1;1;45;-181;D;N\n",
                "line 2: coordinates (45, -181) out of range",
            ),
        ] {
            let text = format!("{header}{body}");
            assert_eq!(StreetMap::from_text(&text).unwrap_err(), expected);
            assert_eq!(oracle_from_text(&text).unwrap_err(), expected);
        }
        assert_eq!(
            StreetMap::from_text("").unwrap_err(),
            "empty street map file"
        );
        assert_eq!(
            StreetMap::from_text("wrong header\n").unwrap_err(),
            "unexpected header \"wrong header\""
        );
    }

    #[test]
    fn contains_street_normalizes() {
        let m = sample_map();
        assert!(m.contains_street("VIA ROMA"));
        assert!(m.contains_street("P.za Castello"));
        assert!(!m.contains_street("via milano"));
    }
}
