//! Extension — the fleet-scale device sweep: one Table-1 app deployed
//! across the whole scenario registry as a fleet of devices on one
//! shared compiled program, aggregated per scenario.
//!
//! The simulation engine lives in [`crate::fleet`]; this driver wraps
//! it in the standard collect/render registry shape so `ocelotc bench
//! fleet` and `--replay` work like every other artifact. The driver
//! default is a smoke-scale fleet; the acceptance-scale million-device
//! sweep is `ocelotc fleet` (same engine, same artifact schema).

use super::{Driver, DriverOpts};
use crate::artifact::{Artifact, ArtifactError};
use crate::fleet::{run_fleet, FleetOpts, FleetSpec};
use ocelot_runtime::model::ExecModel;

/// Devices per scenario-distribution pass when `--runs` is not given.
const DEFAULT_DEVICES: u64 = 1_800;

/// The fleet sweep driver.
pub(crate) static FLEET: Driver = Driver {
    name: "fleet",
    about: "extension: fleet-scale device sweep on one shared compiled program",
    collect,
    render,
    collect_traced: None,
};

/// The fleet this driver runs: the `tire` Table-1 app spread across the
/// whole scenario registry. `--runs` scales the device count, `--seed`
/// moves the seed range.
fn plan(opts: &DriverOpts) -> FleetSpec {
    FleetSpec {
        bench: "tire".into(),
        model: ExecModel::Ocelot,
        scenarios: ocelot_scenario::all()
            .iter()
            .map(|s| s.name.to_string())
            .collect(),
        devices: opts.runs_or(DEFAULT_DEVICES),
        seed0: opts.seed_or(1),
        runs: crate::fleet::DEFAULT_FLEET_RUNS,
        backend: opts.backend,
        opt: ocelot_runtime::OptLevel::O2,
    }
}

fn collect(opts: &DriverOpts) -> Artifact {
    let spec = plan(opts);
    let aggs = run_fleet(
        &spec,
        FleetOpts {
            jobs: opts.jobs,
            share_core: true,
        },
    );
    crate::fleet::fleet_artifact(&spec, &aggs)
}

fn render(a: &Artifact) -> Result<String, ArtifactError> {
    crate::fleet::render_aggregates(a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::stats_from_json;
    use crate::fleet::FleetAggregate;
    use ocelot_runtime::ExecBackend;
    use ocelot_telemetry::json::Json;

    fn small_opts() -> DriverOpts {
        DriverOpts {
            jobs: 2,
            runs: Some(18),
            seed: Some(5),
            backend: ExecBackend::Compiled,
        }
    }

    #[test]
    fn collect_covers_every_scenario_and_replays() {
        let a = collect(&small_opts());
        assert_eq!(a.driver, "fleet");
        let n_scenarios = ocelot_scenario::all().len();
        assert_eq!(a.cells.len(), n_scenarios);
        // 18 devices round-robin across 9 scenarios: 2 each.
        let mut total_devices = 0;
        for cell in &a.cells {
            let agg = FleetAggregate::from_cell(cell).unwrap();
            assert_eq!(agg.devices, 2);
            assert_eq!(agg.reboots_hist.total(), 2);
            total_devices += agg.devices;
        }
        assert_eq!(total_devices, 18);
        // Render works from a round-tripped artifact (the --replay path)
        // and mentions every scenario.
        let reloaded = Artifact::from_text(&a.render().unwrap()).unwrap();
        let text = render(&reloaded).unwrap();
        for s in ocelot_scenario::all() {
            assert!(text.contains(s.name), "{} missing from render", s.name);
        }
    }

    #[test]
    fn config_records_the_fleet_shape() {
        let a = collect(&small_opts());
        assert_eq!(a.config_get("bench").and_then(Json::as_str), Some("tire"));
        assert_eq!(a.config_u64("devices").unwrap(), 18);
        assert_eq!(a.config_u64("seed").unwrap(), 5);
        assert_eq!(
            a.config_u64("runs_per_device").unwrap(),
            crate::fleet::DEFAULT_FLEET_RUNS
        );
        assert_eq!(
            a.config_get("backend").and_then(Json::as_str),
            Some("compiled")
        );
        let listed = a.config_get("scenarios").and_then(Json::as_arr).unwrap();
        assert_eq!(listed.len(), ocelot_scenario::all().len());
    }

    #[test]
    fn cells_hold_strict_stats() {
        let a = collect(&DriverOpts {
            jobs: 1,
            runs: Some(9),
            seed: Some(1),
            backend: ExecBackend::Interp,
        });
        for cell in &a.cells {
            // Each scenario got exactly one device, whose stats must
            // round-trip through the strict reader.
            let s = stats_from_json(cell.get("stats").unwrap()).unwrap();
            assert!(s.on_cycles > 0, "device simulated nothing");
        }
    }
}
