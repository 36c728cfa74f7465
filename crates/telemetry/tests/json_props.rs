//! Property tests for the strict JSON layer: full-range integers,
//! finite floats, and strings with any content must survive
//! serialize → parse → equal, with floats NaN-free and type-stable.

use ocelot_telemetry::json::{parse, Json};
use proptest::prelude::*;

/// Any finite `f64`, via raw bits (non-finite bit patterns fall back to
/// a fraction so every case stays serializable).
fn arb_finite_f64() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(|bits| {
        let v = f64::from_bits(bits);
        if v.is_finite() {
            v
        } else {
            // Map NaN/Inf bit patterns onto an ordinary finite value
            // derived from the same bits.
            (bits % 1_000_003) as f64 / 97.0
        }
    })
}

/// Strings over printable characters plus escapes-relevant ones.
fn arb_string() -> impl Strategy<Value = String> {
    "\\PC{0,40}".prop_map(|mut s| {
        // Sprinkle the characters that exercise the escaper.
        s.push_str("\"\\\n\t\u{0001}é😀");
        s
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Full-range integers round-trip exactly (the artifact format
    /// carries u64 counters, which f64-based JSON readers would corrupt
    /// above 2^53).
    #[test]
    fn integers_round_trip(v in any::<u64>()) {
        let j = Json::u64(v);
        let parsed = parse(&j.render().unwrap()).unwrap();
        prop_assert_eq!(parsed.as_u64(), Some(v));
    }

    /// Finite floats round-trip to the same bits and never serialize as
    /// NaN/Infinity or bare integers.
    #[test]
    fn floats_round_trip_nan_free(v in arb_finite_f64()) {
        let text = Json::Float(v).render().unwrap();
        prop_assert!(!text.contains("NaN") && !text.contains("inf"), "{}", text);
        let parsed = parse(&text).unwrap();
        match parsed {
            Json::Float(w) => prop_assert_eq!(v.to_bits(), w.to_bits(), "{}", text),
            other => return Err(TestCaseError::fail(format!(
                "float parsed back as {other:?} from {text}"
            ))),
        }
    }

    /// Strings with quotes, backslashes, control characters, and
    /// non-ASCII round-trip exactly.
    #[test]
    fn strings_round_trip(s in arb_string()) {
        let j = Json::Str(s.clone());
        let parsed = parse(&j.render().unwrap()).unwrap();
        prop_assert_eq!(parsed.as_str(), Some(s.as_str()));
    }

    /// Arrays of mixed scalars round-trip structurally.
    #[test]
    fn arrays_round_trip(ints in proptest::collection::vec(any::<u64>(), 0..12),
                         f in arb_finite_f64(),
                         s in arb_string()) {
        let mut items: Vec<Json> = ints.into_iter().map(Json::u64).collect();
        items.push(Json::Float(f));
        items.push(Json::Str(s));
        items.push(Json::Null);
        items.push(Json::Bool(true));
        let j = Json::Arr(items);
        prop_assert_eq!(parse(&j.render().unwrap()).unwrap(), j);
    }
}
