//! Levenshtein edit distance and the normalized similarity of §2.1.1.
//!
//! "For each couple of addresses Levenshtein distance is computed … The
//! similarity computed from Levenshtein distance takes values in the range
//! [0, 1], where 0 indicates total dissimilarity and 1 equality of the
//! compared strings." The cleaning algorithm accepts a referenced address
//! when `similarity ≥ φ` for a user-defined threshold φ.

/// Levenshtein edit distance (unit costs) between two strings, computed on
/// Unicode scalar values with the classic two-row dynamic program —
/// `O(|a|·|b|)` time, `O(min(|a|,|b|))` space.
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a_chars: Vec<char> = a.chars().collect();
    let b_chars: Vec<char> = b.chars().collect();
    // Iterate over the longer string, keep rows sized by the shorter one.
    let (outer, inner) = if a_chars.len() >= b_chars.len() {
        (&a_chars, &b_chars)
    } else {
        (&b_chars, &a_chars)
    };
    if inner.is_empty() {
        return outer.len();
    }
    let mut prev: Vec<usize> = (0..=inner.len()).collect();
    let mut curr: Vec<usize> = vec![0; inner.len() + 1];
    for (i, &oc) in outer.iter().enumerate() {
        curr[0] = i + 1;
        for (j, &ic) in inner.iter().enumerate() {
            let cost = usize::from(oc != ic);
            curr[j + 1] = (prev[j + 1] + 1) // deletion
                .min(curr[j] + 1) // insertion
                .min(prev[j] + cost); // substitution
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[inner.len()]
}

/// Normalized Levenshtein similarity in `[0, 1]`:
/// `1 − distance / max(|a|, |b|)`; two empty strings are fully similar.
pub fn similarity(a: &str, b: &str) -> f64 {
    let max_len = a.chars().count().max(b.chars().count());
    if max_len == 0 {
        return 1.0;
    }
    1.0 - levenshtein(a, b) as f64 / max_len as f64
}

/// Distance with an early-exit upper bound: returns `None` as soon as the
/// distance provably exceeds `bound`. Useful when scanning a large
/// referenced street map for a best match.
pub fn levenshtein_bounded(a: &str, b: &str, bound: usize) -> Option<usize> {
    let a_chars: Vec<char> = a.chars().collect();
    let b_chars: Vec<char> = b.chars().collect();
    if a_chars.len().abs_diff(b_chars.len()) > bound {
        return None;
    }
    let (outer, inner) = if a_chars.len() >= b_chars.len() {
        (&a_chars, &b_chars)
    } else {
        (&b_chars, &a_chars)
    };
    if inner.is_empty() {
        return (outer.len() <= bound).then_some(outer.len());
    }
    let mut prev: Vec<usize> = (0..=inner.len()).collect();
    let mut curr: Vec<usize> = vec![0; inner.len() + 1];
    for (i, &oc) in outer.iter().enumerate() {
        curr[0] = i + 1;
        let mut row_min = curr[0];
        for (j, &ic) in inner.iter().enumerate() {
            let cost = usize::from(oc != ic);
            curr[j + 1] = (prev[j + 1] + 1).min(curr[j] + 1).min(prev[j] + cost);
            row_min = row_min.min(curr[j + 1]);
        }
        if row_min > bound {
            return None;
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    let d = prev[inner.len()];
    (d <= bound).then_some(d)
}

/// A pattern of at most 64 chars compiled for Myers' bit-parallel edit
/// distance (J. ACM 1999), in Hyyrö's global-distance form (2001): the DP
/// column of the pattern is one machine word, updated with a few word
/// operations per text char.
///
/// Compile the query once, then run [`BitPattern::distance_within`] against
/// many texts. The text side is streamed char by char, so nothing is
/// allocated per pair.
#[derive(Debug, Clone)]
pub struct BitPattern {
    /// Pattern length in chars, at most 64.
    len: usize,
    /// `ascii[c]` has bit `i` set iff the pattern's `i`-th char is `c`.
    ascii: [u64; 128],
    /// The same masks for the pattern's non-ASCII chars, sorted by char.
    other: Vec<(char, u64)>,
}

impl BitPattern {
    /// Compiles `pattern`, or `None` when it is longer than 64 chars (use
    /// [`levenshtein_bounded`] for those).
    pub fn new(pattern: &str) -> Option<BitPattern> {
        let mut ascii = [0u64; 128];
        let mut other: Vec<(char, u64)> = Vec::new();
        let mut len = 0;
        for c in pattern.chars() {
            if len == 64 {
                return None;
            }
            let bit = 1u64 << len;
            if c.is_ascii() {
                ascii[c as usize] |= bit;
            } else {
                match other.binary_search_by_key(&c, |&(k, _)| k) {
                    Ok(i) => other[i].1 |= bit,
                    Err(i) => other.insert(i, (c, bit)),
                }
            }
            len += 1;
        }
        Some(BitPattern { len, ascii, other })
    }

    /// The positions of `c` in the pattern, as a bit mask.
    fn mask(&self, c: char) -> u64 {
        if c.is_ascii() {
            self.ascii[c as usize]
        } else {
            self.other
                .binary_search_by_key(&c, |&(k, _)| k)
                .map_or(0, |i| self.other[i].1)
        }
    }

    /// The Levenshtein distance between the pattern and `text` when it is at
    /// most `bound`, else `None` — the same answer as
    /// [`levenshtein_bounded`]. `text_len` must be `text.chars().count()`;
    /// callers that scan the same texts repeatedly keep it alongside them.
    ///
    /// The scan stops early once the distance provably exceeds `bound`:
    /// after `j` of `n` text chars the last DP cell is `D[m][j]`, and each
    /// remaining char can lower it by at most one.
    pub fn distance_within(&self, text: &str, text_len: usize, bound: usize) -> Option<usize> {
        debug_assert_eq!(text.chars().count(), text_len);
        if self.len.abs_diff(text_len) > bound {
            return None;
        }
        if self.len == 0 {
            return Some(text_len);
        }
        let last = 1u64 << (self.len - 1);
        // Vertical deltas of the current column: D[i][j] − D[i−1][j] is
        // +1 where `vp` is set, −1 where `vn` is, 0 elsewhere.
        let mut vp = !0u64;
        let mut vn = 0u64;
        let mut score = self.len;
        // The largest `score` that can still end at or below `bound`.
        let mut slack = bound.saturating_add(text_len);
        for c in text.chars() {
            let x = self.mask(c) | vn;
            let d0 = ((x & vp).wrapping_add(vp) ^ vp) | x;
            let hp = vn | !(d0 | vp);
            let hn = vp & d0;
            if hp & last != 0 {
                score += 1;
            } else if hn & last != 0 {
                score -= 1;
            }
            // Global distance: row 0 is D[0][j] = j, so a +1 horizontal
            // delta enters at the top of every column.
            let hp = (hp << 1) | 1;
            let hn = hn << 1;
            vp = hn | !(d0 | hp);
            vn = hp & d0;
            slack = slack.saturating_sub(1);
            if score > slack {
                return None;
            }
        }
        (score <= bound).then_some(score)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn textbook_cases() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("same", "same"), 0);
    }

    #[test]
    fn unicode_is_per_scalar() {
        // Accented characters count as single edits.
        assert_eq!(levenshtein("città", "citta"), 1);
        assert_eq!(levenshtein("über", "uber"), 1);
    }

    #[test]
    fn symmetry() {
        let pairs = [("via roma", "via torino"), ("abc", "ya"), ("", "x")];
        for (a, b) in pairs {
            assert_eq!(levenshtein(a, b), levenshtein(b, a));
            assert!((similarity(a, b) - similarity(b, a)).abs() < 1e-15);
        }
    }

    #[test]
    fn similarity_bounds_and_anchors() {
        assert_eq!(similarity("", ""), 1.0);
        assert_eq!(similarity("abc", "abc"), 1.0);
        assert_eq!(similarity("abc", "xyz"), 0.0);
        let s = similarity("via garibaldi", "via garibaldo");
        assert!(s > 0.9 && s < 1.0);
    }

    #[test]
    fn typo_keeps_similarity_high() {
        // The address-cleaning use case: one or two typos in a street name.
        let clean = "corso vittorio emanuele ii";
        let noisy = "corso vitorio emanuele ii";
        assert!(similarity(clean, noisy) >= 0.9);
    }

    #[test]
    fn bounded_matches_unbounded_when_within() {
        let pairs = [
            ("kitten", "sitting"),
            ("via po", "via pio"),
            ("", ""),
            ("abcdef", "abcdef"),
        ];
        for (a, b) in pairs {
            let d = levenshtein(a, b);
            assert_eq!(levenshtein_bounded(a, b, d), Some(d));
            assert_eq!(levenshtein_bounded(a, b, d + 5), Some(d));
            if d > 0 {
                assert_eq!(levenshtein_bounded(a, b, d - 1), None);
            }
        }
    }

    #[test]
    fn bounded_early_exit_on_length_gap() {
        assert_eq!(levenshtein_bounded("ab", "abcdefghij", 3), None);
        assert_eq!(levenshtein_bounded("abc", "", 2), None);
        assert_eq!(levenshtein_bounded("abc", "", 3), Some(3));
    }

    #[test]
    fn bit_pattern_matches_the_dp() {
        let words = [
            "",
            "a",
            "kitten",
            "sitting",
            "via roma",
            "via rома",
            "città",
            "citta",
            "corso vittorio emanuele ii",
            "via madonna di campagna",
        ];
        for a in words {
            let p = BitPattern::new(a).unwrap();
            for b in words {
                let n = b.chars().count();
                let d = levenshtein(a, b);
                assert_eq!(p.distance_within(b, n, d), Some(d), "{a:?} {b:?}");
                assert_eq!(p.distance_within(b, n, usize::MAX), Some(d));
                if d > 0 {
                    assert_eq!(p.distance_within(b, n, d - 1), None, "{a:?} {b:?}");
                }
            }
        }
    }

    #[test]
    fn bit_pattern_spans_a_full_word() {
        let a = "ab".repeat(32);
        let b = "ba".repeat(40);
        let p = BitPattern::new(&a).unwrap();
        assert_eq!(p.distance_within(&b, 80, 80), Some(levenshtein(&a, &b)));
        assert!(BitPattern::new(&"x".repeat(65)).is_none());
    }

    #[test]
    fn triangle_inequality_holds_on_samples() {
        let words = ["via roma", "via rома", "corso francia", "c.so francia", ""];
        for a in words {
            for b in words {
                for c in words {
                    let ab = levenshtein(a, b);
                    let bc = levenshtein(b, c);
                    let ac = levenshtein(a, c);
                    assert!(ac <= ab + bc, "{a:?} {b:?} {c:?}");
                }
            }
        }
    }
}
