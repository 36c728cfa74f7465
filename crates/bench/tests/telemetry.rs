//! Telemetry-inertness suites: enabling the tracing and metrics pillars
//! must not change a single artifact byte, and (in an ignored,
//! wall-clock test that CI runs) both pillars together must stay within
//! the documented ≤5% throughput overhead budget.
//!
//! Telemetry state is process-global, so every test here serializes on
//! one mutex and restores the off-state before releasing it.

use ocelot_bench::drivers::{self, DriverOpts};
use ocelot_bench::fleet::{fleet_artifact, run_fleet, FleetOpts, FleetSpec};
use ocelot_runtime::model::ExecModel;
use ocelot_runtime::{ExecBackend, OptLevel};
use ocelot_telemetry::{chrome, json};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// One-at-a-time guard for tests that flip the global telemetry mode.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Both pillars on, both pillars off.
fn telemetry(on: bool) {
    ocelot_telemetry::set_tracing(on);
    ocelot_telemetry::set_metrics(on);
}

fn small_fleet() -> FleetSpec {
    FleetSpec {
        bench: "tire".into(),
        model: ExecModel::Ocelot,
        scenarios: vec!["rf-lab".into(), "office-day".into()],
        devices: 12,
        seed0: 1,
        runs: 2,
        backend: ExecBackend::Compiled,
        opt: OptLevel::O2,
    }
}

#[test]
fn artifacts_are_byte_identical_with_telemetry_enabled() {
    let _guard = serial();
    let opts = DriverOpts {
        jobs: 2,
        runs: Some(1),
        seed: None,
        backend: ExecBackend::Interp,
    };
    let d = drivers::by_name("table2a").expect("driver exists");
    let spec = small_fleet();
    let fleet_opts = || FleetOpts {
        jobs: 2,
        share_core: true,
    };

    telemetry(false);
    let driver_off = (d.collect)(&opts).render().unwrap();
    let fleet_off = fleet_artifact(&spec, &run_fleet(&spec, fleet_opts()))
        .render()
        .unwrap();

    telemetry(true);
    let driver_on = (d.collect)(&opts).render().unwrap();
    let fleet_on = fleet_artifact(&spec, &run_fleet(&spec, fleet_opts()))
        .render()
        .unwrap();
    telemetry(false);
    ocelot_telemetry::drain_spans();
    ocelot_telemetry::metrics::reset_metrics();

    assert_eq!(driver_off, driver_on, "table2a artifact changed");
    assert_eq!(fleet_off, fleet_on, "fleet artifact changed");
}

#[test]
fn fleet_trace_round_trips_with_the_expected_span_names() {
    let _guard = serial();
    telemetry(false);
    ocelot_telemetry::drain_spans();
    ocelot_telemetry::set_tracing(true);
    let spec = small_fleet();
    run_fleet(
        &spec,
        FleetOpts {
            jobs: 2,
            share_core: true,
        },
    );
    ocelot_telemetry::set_tracing(false);

    // Render exactly what `--trace-out` writes, then round-trip it
    // through the strict reader.
    let doc = chrome::chrome_trace(&ocelot_telemetry::drain_spans());
    let text = doc.render().unwrap();
    let back = json::parse(&text).expect("strict reader accepts the trace");
    let names = chrome::span_names(&back).expect("a trace_event document");
    for expected in [
        "parse",
        "analysis",
        "chains",
        "infer",
        "transform",
        "opt",
        "compile",
        "execute",
        "fleet.chunk",
        "fleet.reduce",
        "pool.task",
    ] {
        assert!(
            names.iter().any(|n| n == expected),
            "no `{expected}` span in {names:?}"
        );
    }
}

/// The ≤5% telemetry overhead budget. This test is its only
/// enforcement: CI runs it alone, in release, with `--ignored`.
///
/// A fleet sweep over the whole scenario registry with both pillars hot
/// may not be more than 5% slower than the same sweep with telemetry
/// off, and every sweep must produce the telemetry-off aggregates.
/// Wall-clock comparisons are noisy, so the workload is first grown
/// until one sweep takes at least 80 ms, both sides take the minimum of
/// three sweeps, and the whole comparison gets five attempts before it
/// fails. A genuine regression (a probe on a hot path that stopped
/// being one relaxed load) fails every attempt; a scheduler hiccup does
/// not. A loaded machine can still miss the ratio, so the test stays
/// out of the default test run.
#[test]
#[ignore = "wall-clock ratio; run alone in release with --ignored"]
fn metrics_overhead_within_five_percent_on_a_quiet_machine() {
    let _guard = serial();
    telemetry(false);
    let mut spec = FleetSpec {
        scenarios: ocelot_scenario::all()
            .iter()
            .map(|s| s.name.to_string())
            .collect(),
        ..small_fleet()
    };
    let sweep = |spec: &FleetSpec| {
        run_fleet(
            spec,
            FleetOpts {
                jobs: 2,
                share_core: true,
            },
        )
    };
    // Calibrate the workload up until one sweep is long enough that
    // millisecond jitter cannot fake a 5% delta.
    let expected = loop {
        let t0 = Instant::now();
        let aggs = sweep(&spec);
        if t0.elapsed().as_millis() >= 80 || spec.devices >= 3000 {
            break aggs;
        }
        spec.devices *= 4;
    };
    let min_of = |n: usize, spec: &FleetSpec| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..n {
            let t0 = Instant::now();
            let aggs = sweep(spec);
            best = best.min(t0.elapsed().as_secs_f64());
            assert!(aggs == expected, "telemetry changed the fleet aggregates");
        }
        best
    };
    let mut last_pct = f64::INFINITY;
    for _ in 0..5 {
        telemetry(false);
        let off = min_of(3, &spec);
        telemetry(true);
        let on = min_of(3, &spec);
        telemetry(false);
        ocelot_telemetry::drain_spans();
        ocelot_telemetry::metrics::reset_metrics();
        last_pct = (on / off - 1.0) * 100.0;
        if last_pct <= 5.0 {
            return;
        }
    }
    panic!("telemetry overhead {last_pct:+.2}% exceeds the 5% budget on every attempt");
}
