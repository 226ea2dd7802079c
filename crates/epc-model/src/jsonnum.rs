//! Exact JSON codec for `f64` checkpoint fields.
//!
//! The offline serde shim renders non-finite numbers as `null` and drops
//! the sign of `-0.0` — acceptable for human-facing artifacts, fatal for
//! checkpoints that must rehydrate bit-identical pipeline state. Durable
//! checkpoints therefore encode the four lossy cases as tagged strings
//! and everything else as a plain JSON number (the shim's `Num` writer is
//! shortest-round-trip, hence exact for finite non-negative-zero values).
//!
//! Policy:
//!
//! | value                | encoding       |
//! |----------------------|----------------|
//! | finite, not `-0.0`   | `Value::Num`   |
//! | `-0.0`               | `"-0"`         |
//! | `NaN`                | `"NaN"`        |
//! | `+∞`                 | `"inf"`        |
//! | `-∞`                 | `"-inf"`       |

use serde::{Error, Value};

/// Encodes an `f64` exactly (bit-identity up to NaN payload).
pub fn encode_f64(x: f64) -> Value {
    if x.is_nan() {
        Value::Str("NaN".to_owned())
    } else if x == f64::INFINITY {
        Value::Str("inf".to_owned())
    } else if x == f64::NEG_INFINITY {
        Value::Str("-inf".to_owned())
    } else if x == 0.0 && x.is_sign_negative() {
        Value::Str("-0".to_owned())
    } else {
        Value::Num(x)
    }
}

/// Decodes a value written by [`encode_f64`].
pub fn decode_f64(v: &Value) -> Result<f64, Error> {
    match v {
        Value::Num(x) => Ok(*x),
        Value::Str(s) => match s.as_str() {
            "NaN" => Ok(f64::NAN),
            "inf" => Ok(f64::INFINITY),
            "-inf" => Ok(f64::NEG_INFINITY),
            "-0" => Ok(-0.0),
            other => Err(Error::custom(format!(
                "expected exact f64 encoding, found string {other:?}"
            ))),
        },
        other => Err(Error::mismatch("exact f64 encoding", other)),
    }
}

/// Encodes an optional `f64`: `None` maps to `null`, which is unambiguous
/// because [`encode_f64`] never emits `null`.
pub fn encode_opt_f64(x: Option<f64>) -> Value {
    match x {
        Some(x) => encode_f64(x),
        None => Value::Null,
    }
}

/// Appends the compact JSON text of [`encode_opt_f64`]`(x)` to `out`
/// without building the value: numbers follow the serde shim's `Num`
/// writer (integral values below 2^53 as integers, the rest as `{}`
/// prints them), the four lossy cases their string tags.
pub fn write_opt_f64(out: &mut String, x: Option<f64>) {
    match x {
        None => out.push_str("null"),
        Some(x) if x.is_nan() => out.push_str("\"NaN\""),
        Some(f64::INFINITY) => out.push_str("\"inf\""),
        Some(f64::NEG_INFINITY) => out.push_str("\"-inf\""),
        Some(x) if x == 0.0 && x.is_sign_negative() => out.push_str("\"-0\""),
        Some(x) => crate::render::push_f64(out, x, 9_007_199_254_740_992.0),
    }
}

/// Decodes a value written by [`encode_opt_f64`].
pub fn decode_opt_f64(v: &Value) -> Result<Option<f64>, Error> {
    match v {
        Value::Null => Ok(None),
        other => decode_f64(other).map(Some),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(x: f64) -> f64 {
        let text = serde_json::to_string(&encode_f64(x)).unwrap();
        let v = serde_json::from_str::<Value>(&text).unwrap();
        decode_f64(&v).unwrap()
    }

    #[test]
    fn finite_values_round_trip_exactly() {
        for x in [
            0.0,
            1.0,
            -1.5,
            0.1,
            1.0 / 3.0,
            f64::MIN,
            f64::MAX,
            f64::MIN_POSITIVE,
            5e-324,
            9_007_199_254_740_993.0,
        ] {
            let back = round_trip(x);
            assert_eq!(back.to_bits(), x.to_bits(), "{x:?} -> {back:?}");
        }
    }

    #[test]
    fn lossy_shim_cases_are_string_tagged() {
        assert_eq!(round_trip(f64::INFINITY), f64::INFINITY);
        assert_eq!(round_trip(f64::NEG_INFINITY), f64::NEG_INFINITY);
        assert!(round_trip(f64::NAN).is_nan());
        let neg_zero = round_trip(-0.0);
        assert_eq!(neg_zero, 0.0);
        assert!(neg_zero.is_sign_negative(), "-0.0 must keep its sign");
        assert_eq!(encode_f64(f64::NAN), Value::Str("NaN".to_owned()));
        assert_eq!(encode_f64(-0.0), Value::Str("-0".to_owned()));
        assert_eq!(encode_f64(0.0), Value::Num(0.0));
    }

    #[test]
    fn options_use_null_for_none() {
        assert_eq!(encode_opt_f64(None), Value::Null);
        assert_eq!(decode_opt_f64(&Value::Null).unwrap(), None);
        assert_eq!(
            decode_opt_f64(&encode_opt_f64(Some(2.5))).unwrap(),
            Some(2.5)
        );
    }

    #[test]
    fn written_text_equals_the_encoded_tree() {
        let mut cases = vec![
            None,
            Some(f64::NAN),
            Some(f64::INFINITY),
            Some(f64::NEG_INFINITY),
            Some(-0.0),
            Some(0.0),
            Some(0.1 + 0.2),
            Some(-2.5),
            Some(1e15),
            Some(9_007_199_254_740_991.0),
            Some(9_007_199_254_740_992.0),
            Some(1e300),
            Some(5e-324),
        ];
        cases.extend(
            (0..2000).map(|i| Some(f64::from_bits(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i)))),
        );
        for x in cases {
            let mut out = String::new();
            write_opt_f64(&mut out, x);
            assert_eq!(out, encode_opt_f64(x).to_compact_string(), "{x:?}");
        }
    }

    #[test]
    fn malformed_encodings_are_rejected() {
        assert!(decode_f64(&Value::Str("fast".to_owned())).is_err());
        assert!(decode_f64(&Value::Null).is_err());
        assert!(decode_f64(&Value::Bool(true)).is_err());
    }
}
