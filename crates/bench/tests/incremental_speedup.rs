//! The incremental re-verification acceptance criterion: after a
//! one-line single-function edit to the standard edit-trace workload,
//! which changes one constant, the incremental re-verify must
//! re-analyze no function and yield verdicts byte-identical to a
//! from-scratch verify, with its p50 at least 10x faster than the
//! from-scratch one.
//!
//! The speedup is a wall-clock ratio a loaded machine can miss, so it
//! lives in an `#[ignore]`d test run on its own in release:
//! `cargo test --release -p ocelot-bench --test incremental_speedup -- --ignored`.
//! The `serve` driver records the full-length version as an artifact.

use ocelot_bench::drivers::serve::{replay_trace, EditMeasurement, DEFAULT_TRACE};
use ocelot_serve::verify::{edited_source, full_verify, EditTrace};
use ocelot_telemetry::percentile;

/// A short replay of the standard edit trace.
fn short_replay() -> (EditTrace, Vec<EditMeasurement>) {
    let trace = EditTrace {
        funcs: DEFAULT_TRACE.funcs,
        edits: 2,
        seed: DEFAULT_TRACE.seed,
    };
    let measurements = replay_trace(&trace);
    assert_eq!(measurements.len(), trace.edits);
    (trace, measurements)
}

#[test]
fn one_line_edit_reverifies_with_byte_identical_verdicts() {
    let (trace, measurements) = short_replay();
    for m in &measurements {
        assert!(m.verdict.passes, "edit {} verdict failed", m.edit);
        // Each edit changes one constant, which the flow cache's key
        // masks: nothing is re-analyzed.
        assert_eq!(
            m.stats.analyzed, 0,
            "edit {} re-analyzed {} of {} functions",
            m.edit, m.stats.analyzed, m.stats.funcs
        );
        assert_eq!(m.stats.reused, m.stats.funcs);
    }

    // Byte-identity against a from-scratch verify of the same source
    // (replay_trace asserts structural equality per edit; this pins the
    // rendered JSON bytes the serve protocol ships to clients).
    let m = &measurements[0];
    let (_, from_scratch) = full_verify(&edited_source(&trace, m.edit)).expect("full verify");
    assert_eq!(
        m.verdict.to_json().render().unwrap(),
        from_scratch.to_json().render().unwrap(),
        "incremental verdict bytes differ from from-scratch verdict"
    );
}

#[test]
#[ignore = "wall-clock ratio; run alone in release with --ignored"]
fn one_line_edit_speedup_is_at_least_10x() {
    let (_, measurements) = short_replay();
    let mut incr: Vec<u64> = measurements.iter().map(|m| m.incr_ns).collect();
    let mut full: Vec<u64> = measurements.iter().map(|m| m.full_ns).collect();
    incr.sort_unstable();
    full.sort_unstable();
    let p50_incr = percentile(&incr, 50.0).max(1);
    let p50_full = percentile(&full, 50.0);
    let speedup = p50_full as f64 / p50_incr as f64;
    assert!(
        speedup >= 10.0,
        "p50 incremental {p50_incr} ns vs full {p50_full} ns: {speedup:.1}x < 10x"
    );
}
