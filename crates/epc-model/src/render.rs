//! Exact decimal rendering of numbers without `core::fmt`.
//!
//! Every byte the CSV writer and the checkpoint JSON writer emit for a
//! number is pinned: input hashes, checkpoints and manifests record them.
//! Both writers print integral values as `i64` below a limit and every
//! other value with `{}`, Rust's shortest round-trip `Display`. This
//! module prints the same text with a digit loop, and prints `{}`'s text
//! for fractional values through an exact fast path (DESIGN.md,
//! "Rendering numbers", has the proof). Values the fast path cannot
//! decide still go through `{}`.

use std::fmt::Write as _;

/// `10^p` for p = 0..=19: every one fits a `u64` and is an exact double.
const POW10: [u64; 20] = [
    1,
    10,
    100,
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
    100_000_000_000,
    1_000_000_000_000,
    10_000_000_000_000,
    100_000_000_000_000,
    1_000_000_000_000_000,
    10_000_000_000_000_000,
    100_000_000_000_000_000,
    1_000_000_000_000_000_000,
    10_000_000_000_000_000_000,
];

/// Appends `x` as `write!(out, "{}", x as i64)` when `x` is integral with
/// `|x| < int_below` (so `-0.0` prints `0`), and as `write!(out, "{x}")`
/// otherwise.
pub fn push_f64(out: &mut String, x: f64, int_below: f64) {
    if x.fract() == 0.0 && x.abs() < int_below {
        push_i64(out, x as i64);
    } else if !push_fraction(out, x) {
        let _ = write!(out, "{x}");
    }
}

/// Appends `n` in decimal, as `{}` prints it.
pub fn push_i64(out: &mut String, n: i64) {
    if n < 0 {
        out.push('-');
    }
    push_digits(out, n.unsigned_abs(), 1);
}

/// Appends `n` in decimal, zero-padded on the left to `width` digits
/// (at most 20, the length of `u64::MAX`).
fn push_digits(out: &mut String, mut n: u64, width: usize) {
    let mut buf = [b'0'; 20];
    let mut len = 0;
    for slot in buf.iter_mut().rev() {
        if n == 0 && len >= width {
            break;
        }
        *slot = b'0' + (n % 10) as u8;
        n /= 10;
        len += 1;
    }
    let start = buf.len() - len;
    if let Some(Ok(digits)) = buf.get(start..).map(std::str::from_utf8) {
        out.push_str(digits);
    }
}

/// Appends `{}`'s text for a finite, non-integral `x` whose shortest
/// round-trip decimal has at most 19 fractional digits, and returns
/// `true`; appends nothing and returns `false` for any other `x`.
///
/// For p = 1, 2, … it takes m = round(|x|·10^p) and accepts the first p
/// where the double nearest m/10^p is |x|. While ulp(|x|)·10^p < ½, m is
/// the only p-digit decimal that can read back as |x|, so the first
/// match is the shortest round-trip decimal, which is what `{}` prints.
fn push_fraction(out: &mut String, x: f64) -> bool {
    let ax = x.abs();
    if !ax.is_finite() || ax.fract() == 0.0 {
        return false;
    }
    // The gap to the next double up: ulp(|x|), or its larger side at a
    // power of two. Exact (Sterbenz), and +∞ only past f64::MAX.
    let ulp = f64::from_bits(ax.to_bits() + 1) - ax;
    for (p, &pow) in POW10.iter().enumerate().skip(1) {
        let scale = pow as f64;
        if ulp * scale >= 0.5 {
            return false;
        }
        let m = (ax * scale).round();
        if m / scale == ax {
            // m < 2^52 here, so the cast is exact.
            let m = m as u64;
            if x < 0.0 {
                out.push('-');
            }
            push_digits(out, m / pow, 1);
            out.push('.');
            push_digits(out, m % pow, p);
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The writers' rule through `core::fmt`: the oracle.
    fn oracle(x: f64, int_below: f64) -> String {
        if x.fract() == 0.0 && x.abs() < int_below {
            format!("{}", x as i64)
        } else {
            format!("{x}")
        }
    }

    fn check(x: f64) {
        for int_below in [1e15, 9_007_199_254_740_992.0] {
            let mut out = String::from("|");
            push_f64(&mut out, x, int_below);
            assert_eq!(
                out,
                format!("|{}", oracle(x, int_below)),
                "{x:e} ({:#x})",
                x.to_bits()
            );
        }
        let mut fast = String::new();
        if push_fraction(&mut fast, x) {
            assert_eq!(fast, format!("{x}"), "fast path on {x:e}");
        } else {
            assert!(fast.is_empty());
        }
    }

    /// `x` and its four neighbours on each side.
    fn check_around(x: f64) {
        let bits = x.to_bits();
        for delta in 0..=4u64 {
            check(f64::from_bits(bits.wrapping_add(delta)));
            check(f64::from_bits(bits.wrapping_sub(delta)));
            check(-f64::from_bits(bits.wrapping_add(delta)));
        }
    }

    #[test]
    fn edges_match_display() {
        for x in [
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.1 + 0.2,
            0.1 + 0.7,
            1.0 / 3.0,
            2.0 / 3.0,
            1e-5,
            1.5e-5,
            1e15,
            1e15 + 0.5,
            4_503_599_627_370_496.0, // 2^52
            4_503_599_627_370_495.5,
            9_007_199_254_740_992.0, // 2^53
            f64::MIN_POSITIVE,
            5e-324,
            f64::MAX,
            f64::EPSILON,
            0.5,
            45.071_234_5,
            7.68,
            2016.25,
            -123.456,
        ] {
            check_around(x);
        }
        for e in -30..=30 {
            check_around(10f64.powi(e));
            check_around(2f64.powi(e));
            check_around(5f64.powi(e) / 7.0);
        }
    }

    #[test]
    fn integers_render_with_a_digit_loop() {
        for n in [0, 1, -1, 9, 10, 99, 100, -1_000_007, i64::MAX, i64::MIN] {
            let mut out = String::new();
            push_i64(&mut out, n);
            assert_eq!(out, n.to_string());
        }
        let mut padded = String::new();
        push_digits(&mut padded, 42, 5);
        push_digits(&mut padded, 0, 3);
        push_digits(&mut padded, u64::MAX, 20);
        assert_eq!(padded, format!("00042000{}", u64::MAX));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        #[test]
        fn any_bit_pattern_matches_display(bits in 0u64..u64::MAX) {
            check(f64::from_bits(bits));
        }

        #[test]
        fn short_decimals_match_display(m in 0u64..10_000_000_000, p in 0i32..20, sign in 0u8..2) {
            // The values data files hold: a few significant digits.
            let x = m as f64 / 10f64.powi(p);
            check(if sign == 1 { -x } else { x });
        }

        #[test]
        fn values_of_every_magnitude_match_display(mantissa in 1.0f64..10.0, e in -320i32..310) {
            let x = mantissa * 10f64.powi(e);
            check(x);
            check_around(x);
        }
    }
}
