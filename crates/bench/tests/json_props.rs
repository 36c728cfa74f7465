//! Property tests for the `Stats` artifact encoding: whole `Stats`
//! records across the full `u64` counter range must survive serialize
//! → parse → equal, and rendering must be a pure function.

use ocelot_bench::artifact::stats_from_json;
use ocelot_runtime::stats::{stats_to_json, Stats};
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

/// A `Stats` with every counter (including the breakdown) drawn from
/// the full `u64` range, built through the serialization surface so the
/// generator can never miss a field.
fn arb_stats() -> impl Strategy<Value = Stats> {
    proptest::collection::vec(any::<u64>(), 26..=26).prop_map(|vals| {
        let mut s = Stats::default();
        let mut it = vals.into_iter();
        let names: Vec<&'static str> = s.counters().iter().map(|(n, _)| *n).collect();
        for name in names {
            s.set_counter(name, it.next().unwrap());
        }
        let bnames: Vec<&'static str> = s.breakdown.counters().iter().map(|(n, _)| *n).collect();
        for name in bnames {
            s.breakdown.set_counter(name, it.next().unwrap());
        }
        s
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The headline property: arbitrary `Stats` values serialize to an
    /// artifact cell and parse back equal, across the full u64 counter
    /// range.
    #[test]
    fn stats_round_trip(s in arb_stats()) {
        let cell = stats_to_json(&s);
        let text = cell.render().unwrap();
        let back = stats_from_json(&parse(&text).unwrap()).unwrap();
        prop_assert_eq!(back, s);
    }

    /// Serialization is a pure function: same value, same bytes.
    #[test]
    fn rendering_is_deterministic(s in arb_stats(), f in arb_finite_f64()) {
        let v = Json::Obj(vec![
            ("stats".to_string(), stats_to_json(&s)),
            ("x".to_string(), Json::Float(f)),
        ]);
        prop_assert_eq!(v.render().unwrap(), v.render().unwrap());
    }
}
