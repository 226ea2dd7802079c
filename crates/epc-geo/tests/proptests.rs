//! Property-based tests of the geospatial substrate: Levenshtein metric
//! axioms, the bit-parallel kernel and street matching against brute-force
//! oracles, normalization idempotence, and projection invariants.

use epc_geo::address::{normalize_house_number, normalize_street};
use epc_geo::bbox::BoundingBox;
use epc_geo::levenshtein::{levenshtein, levenshtein_bounded, similarity, BitPattern};
use epc_geo::point::GeoPoint;
use epc_geo::streetmap::{StreetEntry, StreetMap};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn word() -> impl Strategy<Value = String> {
    "[a-z ]{0,24}"
}

fn geo_point() -> impl Strategy<Value = GeoPoint> {
    (44.9f64..45.3, 7.5f64..7.9).prop_map(|(lat, lon)| GeoPoint::new(lat, lon))
}

/// The thresholds of the paper's φ sweep, the geocoder's 0.55, and 1.
const PHIS: [f64; 7] = [0.55, 0.7, 0.8, 0.85, 0.9, 0.95, 1.0];

/// Letters for generated street names: a few ASCII ones (so equal
/// distances and ties are common) plus non-ASCII chars that survive
/// normalization (Cyrillic `о`, `ñ`, `ß`).
const LETTERS: [char; 9] = ['a', 'i', 'o', 'r', 'm', 'о', 'ñ', 'ß', ' '];

/// The specification of `StreetMap::best_match`, in two steps: the
/// similarity `1 − d/max_len` of the normalized query to every distinct
/// normalized name in map order, with `d` the plain Levenshtein distance
/// (`None` for an empty query, which matches nothing) ...
fn oracle_similarities(names: &[String], raw: &str) -> Option<Vec<f64>> {
    let query = normalize_street(raw);
    if query.is_empty() {
        return None;
    }
    let q_len = query.chars().count();
    let sims = names
        .iter()
        .map(|name| {
            let max_len = q_len.max(name.chars().count());
            1.0 - levenshtein(&query, name) as f64 / max_len as f64
        })
        .collect();
    Some(sims)
}

/// ... then the first strict maximum among the names reaching φ.
fn oracle_pick(names: &[String], sims: &[f64], phi: f64) -> Option<(String, f64)> {
    let mut best: Option<(&String, f64)> = None;
    for (name, &sim) in names.iter().zip(sims) {
        let beats_best = match best {
            Some((_, b)) => sim > b,
            None => true,
        };
        if sim >= phi && beats_best {
            best = Some((name, sim));
        }
    }
    best.map(|(name, sim)| (name.clone(), sim))
}

fn random_word(rng: &mut StdRng, max_len: usize) -> String {
    let len = rng.gen_range(0..=max_len);
    (0..len)
        .map(|_| LETTERS[rng.gen_range(0..LETTERS.len())])
        .collect()
}

/// One street name: short words from a tiny alphabet, Italian-style names,
/// an empty one, or one longer than a 64-bit pattern word.
fn random_street(rng: &mut StdRng) -> String {
    match rng.gen_range(0..10) {
        0 => String::new(),
        1 => format!("via città {}", random_word(rng, 6)),
        2 => format!("corso {} {}", random_word(rng, 40), random_word(rng, 40)),
        3 => format!("piazza {}", random_word(rng, 12)),
        _ => random_word(rng, 14),
    }
}

/// Applies up to `edits` random insertions, deletions and substitutions.
fn mutate(rng: &mut StdRng, s: &str, edits: usize) -> String {
    let mut chars: Vec<char> = s.chars().collect();
    for _ in 0..rng.gen_range(0..=edits) {
        let c = LETTERS[rng.gen_range(0..LETTERS.len())];
        let at = rng.gen_range(0..=chars.len());
        match rng.gen_range(0..3) {
            0 => chars.insert(at, c),
            1 if at < chars.len() => {
                chars.remove(at);
            }
            _ if at < chars.len() => chars[at] = c,
            _ => chars.push(c),
        }
    }
    chars.into_iter().collect()
}

fn street_map(streets: &[String]) -> StreetMap {
    StreetMap::from_entries(
        streets
            .iter()
            .map(|s| StreetEntry {
                street: s.clone(),
                house_number: "1".into(),
                zip: "10100".into(),
                point: GeoPoint::new(45.0, 7.6),
                district: "D".into(),
                neighbourhood: "N".into(),
            })
            .collect(),
    )
}

/// The map's distinct normalized names in insertion order.
fn distinct_names(streets: &[String]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for s in streets {
        let key = normalize_street(s);
        if !names.contains(&key) {
            names.push(key);
        }
    }
    names
}

proptest! {
    #[test]
    fn levenshtein_identity(a in word()) {
        prop_assert_eq!(levenshtein(&a, &a), 0);
        prop_assert_eq!(similarity(&a, &a), 1.0);
    }

    #[test]
    fn levenshtein_symmetry(a in word(), b in word()) {
        prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
    }

    #[test]
    fn levenshtein_triangle(a in word(), b in word(), c in word()) {
        prop_assert!(levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c));
    }

    #[test]
    fn levenshtein_length_bounds(a in word(), b in word()) {
        let d = levenshtein(&a, &b);
        let (la, lb) = (a.chars().count(), b.chars().count());
        prop_assert!(d >= la.abs_diff(lb));
        prop_assert!(d <= la.max(lb));
    }

    #[test]
    fn bounded_agrees_with_unbounded(a in word(), b in word(), bound in 0usize..30) {
        let d = levenshtein(&a, &b);
        match levenshtein_bounded(&a, &b, bound) {
            Some(bd) => {
                prop_assert_eq!(bd, d);
                prop_assert!(d <= bound);
            }
            None => prop_assert!(d > bound),
        }
    }

    #[test]
    fn bit_pattern_agrees_with_levenshtein(
        a in "[abè о]{0,80}",
        b in "[abè о]{0,80}",
        bound in 0usize..31,
    ) {
        let d = levenshtein(&a, &b);
        match BitPattern::new(&a) {
            Some(p) => {
                let got = p.distance_within(&b, b.chars().count(), bound);
                prop_assert_eq!(got, (d <= bound).then_some(d), "{:?} vs {:?}", a, b);
            }
            None => prop_assert!(a.chars().count() > 64),
        }
    }

    #[test]
    fn bit_pattern_agrees_with_levenshtein_on_near_strings(
        seed in 0u64..u64::MAX,
        bound in 0usize..31,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_word(&mut rng, 80);
        let b = mutate(&mut rng, &a, 12);
        let d = levenshtein(&a, &b);
        if let Some(p) = BitPattern::new(&a) {
            let got = p.distance_within(&b, b.chars().count(), bound);
            prop_assert_eq!(got, (d <= bound).then_some(d), "{:?} vs {:?}", a, b);
        }
        if let Some(p) = BitPattern::new(&b) {
            let got = p.distance_within(&a, a.chars().count(), bound);
            prop_assert_eq!(got, (d <= bound).then_some(d), "{:?} vs {:?}", b, a);
        }
    }

    #[test]
    fn best_match_agrees_with_the_oracle(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_streets = rng.gen_range(0..=300);
        let streets: Vec<String> = (0..n_streets).map(|_| random_street(&mut rng)).collect();
        let map = street_map(&streets);
        let names = distinct_names(&streets);
        prop_assert_eq!(map.n_streets(), names.len());
        for _ in 0..12 {
            let query = if streets.is_empty() || rng.gen_bool(0.25) {
                random_street(&mut rng)
            } else {
                let base = &streets[rng.gen_range(0..streets.len())];
                mutate(&mut rng, base, 4)
            };
            let oracle = oracle_similarities(&names, &query);
            for phi in PHIS {
                let got = map
                    .best_match(&query, phi)
                    .map(|m| (m.street_key, m.similarity.to_bits()));
                let want = oracle
                    .as_ref()
                    .and_then(|sims| oracle_pick(&names, sims, phi))
                    .map(|(key, sim)| (key, sim.to_bits()));
                prop_assert_eq!(got, want, "query {:?} at phi {}", query, phi);
            }
        }
    }

    #[test]
    fn similarity_in_unit_interval(a in word(), b in word()) {
        let s = similarity(&a, &b);
        prop_assert!((0.0..=1.0).contains(&s));
    }

    #[test]
    fn street_normalization_is_idempotent(a in "[a-zA-Z.,' ]{0,30}") {
        let once = normalize_street(&a);
        prop_assert_eq!(normalize_street(&once), once.clone());
        // Normalized output is lowercase alphanumeric + single spaces.
        prop_assert!(!once.contains("  "));
        prop_assert!(once.chars().all(|c| c.is_alphanumeric() || c == ' '));
    }

    #[test]
    fn house_number_normalization_is_idempotent(a in "[0-9a-zA-Z/ ]{0,8}") {
        let once = normalize_house_number(&a);
        prop_assert_eq!(normalize_house_number(&once), once);
    }

    #[test]
    fn haversine_metric_axioms(a in geo_point(), b in geo_point()) {
        prop_assert!((a.haversine_m(&b) - b.haversine_m(&a)).abs() < 1e-6);
        prop_assert!(a.haversine_m(&b) >= 0.0);
        prop_assert_eq!(a.haversine_m(&a), 0.0);
    }

    #[test]
    fn bbox_from_points_contains_all(pts in prop::collection::vec(geo_point(), 1..50)) {
        let b = BoundingBox::from_points(&pts).unwrap();
        for p in &pts {
            prop_assert!(b.contains(p));
        }
    }

    #[test]
    fn offset_round_trip(p in geo_point(), dn in -2000.0f64..2000.0, de in -2000.0f64..2000.0) {
        let q = p.offset_m(dn, de);
        let expected = (dn * dn + de * de).sqrt();
        let actual = p.haversine_m(&q);
        // Flat-earth approximation at city scale: within 1%.
        prop_assert!((actual - expected).abs() <= 0.01 * expected + 0.5);
    }
}

/// `StreetMap::to_text` as it was before it streamed: one `format!` per
/// entry, appended to one `String`.
fn oracle_to_text(map: &StreetMap) -> Result<String, String> {
    let mut out = String::from("street;house_number;zip;lat;lon;district;neighbourhood\n");
    for e in map.entries() {
        for field in [
            &e.street,
            &e.house_number,
            &e.zip,
            &e.district,
            &e.neighbourhood,
        ] {
            if field.contains(';') || field.contains('\n') {
                return Err(format!("field {field:?} contains a separator"));
            }
        }
        out.push_str(&format!(
            "{};{};{};{};{};{};{}\n",
            e.street, e.house_number, e.zip, e.point.lat, e.point.lon, e.district, e.neighbourhood
        ));
    }
    Ok(out)
}

proptest! {
    #[test]
    fn write_text_streams_the_old_text(
        entries in prop::collection::vec(
            ("[a-zé ;]{0,12}", "[0-9/B]{1,4}", "[0-9]{5}", geo_point(), "[A-Dè]{1,3}", "[a-d\n]{1,3}"),
            0..12,
        ),
    ) {
        let map = StreetMap::from_entries(
            entries
                .into_iter()
                .map(|(street, house_number, zip, point, district, neighbourhood)| StreetEntry {
                    street,
                    house_number,
                    zip,
                    point,
                    district,
                    neighbourhood,
                })
                .collect(),
        );
        let expected = oracle_to_text(&map);
        prop_assert_eq!(map.to_text(), expected.clone());
        let mut streamed = Vec::new();
        let written = map.write_text(&mut streamed);
        match expected {
            Ok(text) => {
                prop_assert!(written.is_ok());
                prop_assert_eq!(String::from_utf8(streamed).unwrap(), text);
            }
            Err(msg) => prop_assert_eq!(written.unwrap_err().to_string(), msg),
        }
    }
}
