//! The scenario sweep: every extension app crossed with every scenario
//! in the `ocelot-scenario` registry, under JIT and Ocelot, at several
//! seeds — the "how does the guarantee hold up across regimes" grid
//! the paper's fixed testbed cannot show.
//!
//! Cells use [`Workload::Harvested`] (no completion assertions: a
//! harsh regime may legitimately starve runs) with the scenario's own
//! supply and sensed world. The rendered table aggregates seeds per
//! (app, scenario) row and contrasts JIT violations against Ocelot's.

use super::{cell_stats, collect_sim, collect_sim_traced, Driver, DriverOpts};
use crate::artifact::{Artifact, ArtifactError};
use crate::harness::{CellSpec, Workload};
use crate::report::Table;
use ocelot_runtime::model::ExecModel;
use ocelot_runtime::stats::Stats;
use ocelot_telemetry::json::Json;

/// The sweep contrasts the unprotected and protected models.
const MODELS: [ExecModel; 2] = [ExecModel::Jit, ExecModel::Ocelot];

/// Seeds per (app, scenario, model) cell.
const SEEDS_PER_CELL: u64 = 2;

/// Extension: the app × scenario × seed grid.
pub static SCENARIO_SWEEP: Driver = Driver {
    name: "scenario_sweep",
    about: "extension: app × scenario × seed sweep across the scenario library",
    collect: collect_sweep,
    render: render_sweep,
    collect_traced: Some(collect_sweep_traced),
};

fn plan_sweep(opts: &DriverOpts) -> (Vec<(String, Json)>, Vec<CellSpec>) {
    let runs = opts.runs_or(3);
    let seed0 = opts.seed_or(23);
    let apps: Vec<&'static str> = ocelot_apps::extended().iter().map(|b| b.name).collect();
    let scenarios = ocelot_scenario::all();
    let mut specs = Vec::new();
    for app in &apps {
        for sc in &scenarios {
            for s in 0..SEEDS_PER_CELL {
                for model in MODELS {
                    specs.push(
                        CellSpec::new(app, model, seed0 + s, Workload::Harvested { runs })
                            .with_scenario(sc.name),
                    );
                }
            }
        }
    }
    let config = vec![
        ("runs".into(), Json::u64(runs)),
        ("seed".into(), Json::u64(seed0)),
        ("seeds_per_cell".into(), Json::u64(SEEDS_PER_CELL)),
        (
            "apps".into(),
            Json::Arr(apps.iter().map(|a| Json::str(a)).collect()),
        ),
        (
            "scenarios".into(),
            Json::Arr(scenarios.iter().map(|s| Json::str(s.name)).collect()),
        ),
    ];
    (config, specs)
}

fn collect_sweep(opts: &DriverOpts) -> Artifact {
    let (config, specs) = plan_sweep(opts);
    collect_sim("scenario_sweep", config, &specs, opts)
}

fn collect_sweep_traced(opts: &DriverOpts) -> (Artifact, Artifact) {
    let (config, specs) = plan_sweep(opts);
    collect_sim_traced("scenario_sweep", config, &specs, opts)
}

/// Sums the stats of every cell matching (bench, scenario, model),
/// across seeds. Counters are zipped in their fixed declaration order.
fn aggregate(a: &Artifact, bench: &str, scenario: &str, model: ExecModel) -> (Stats, u64) {
    let mut total = Stats::default();
    let mut cells = 0;
    for c in &a.cells {
        let matches = c.get("bench").and_then(Json::as_str) == Some(bench)
            && c.get("scenario").and_then(Json::as_str) == Some(scenario)
            && c.get("model").and_then(Json::as_str) == Some(model.name());
        if !matches {
            continue;
        }
        if let Ok(s) = cell_stats(c) {
            for ((name, cur), (_, add)) in total.clone().counters().into_iter().zip(s.counters()) {
                total.set_counter(name, cur + add);
            }
            cells += 1;
        }
    }
    (total, cells)
}

/// Distinct (bench, scenario) pairs in first-seen cell order.
fn rows(a: &Artifact) -> Vec<(String, String)> {
    let mut seen = Vec::new();
    for c in &a.cells {
        let (Some(b), Some(s)) = (
            c.get("bench").and_then(Json::as_str),
            c.get("scenario").and_then(Json::as_str),
        ) else {
            continue;
        };
        let pair = (b.to_string(), s.to_string());
        if !seen.contains(&pair) {
            seen.push(pair);
        }
    }
    seen
}

fn render_sweep(a: &Artifact) -> Result<String, ArtifactError> {
    let runs = a.config_u64("runs")?;
    let seeds = a.config_u64("seeds_per_cell")?;
    let mut t = Table::new(&[
        "App / Scenario",
        "JIT viol",
        "Ocelot viol",
        "Ocelot reboots",
        "Ocelot re-exec",
        "charge ms",
        "runs",
    ]);
    let mut jit_total = 0u64;
    let mut ocelot_total = 0u64;
    for (bench, scenario) in rows(a) {
        // A row's cells must exist for both models (a malformed
        // artifact would silently render zeros otherwise).
        let (jit, jit_cells) = aggregate(a, &bench, &scenario, ExecModel::Jit);
        let (oce, oce_cells) = aggregate(a, &bench, &scenario, ExecModel::Ocelot);
        for (model, n) in [(ExecModel::Jit, jit_cells), (ExecModel::Ocelot, oce_cells)] {
            if n == 0 {
                return Err(ArtifactError::Schema(format!(
                    "no {} cells for {bench}/{scenario}",
                    model.name()
                )));
            }
        }
        jit_total += jit.violations;
        ocelot_total += oce.violations;
        t.row(vec![
            format!("{bench} / {scenario}"),
            jit.violations.to_string(),
            oce.violations.to_string(),
            oce.reboots.to_string(),
            oce.region_reexecs.to_string(),
            format!("{:.1}", oce.off_time_us as f64 / 1000.0),
            oce.runs_completed.to_string(),
        ]);
    }
    Ok(format!(
        "Scenario sweep: extension apps × scenario library ({runs} runs × {seeds} seeds per cell)\n{}\
         Reading guide: Ocelot's inferred regions re-execute across failures, so its\n\
         violation column stays 0 in every regime (total: JIT {jit_total}, Ocelot {ocelot_total});\n\
         the charging-time column shows how hostile each scenario's supply is\n\
         (brownout/cold-start starve the bank; highway-blowout barely stalls it).\n",
        t.render()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drivers::cell_str;
    use ocelot_runtime::ExecBackend;

    fn tiny_opts() -> DriverOpts {
        DriverOpts {
            jobs: 2,
            runs: Some(1),
            seed: None,
            backend: ExecBackend::Interp,
            opt: ocelot_runtime::OptLevel::default(),
        }
    }

    #[test]
    fn sweep_covers_the_full_grid() {
        let (config, specs) = plan_sweep(&tiny_opts());
        let apps = ocelot_apps::extended().len() as u64;
        let scenarios = ocelot_scenario::all().len() as u64;
        assert_eq!(
            specs.len() as u64,
            apps * scenarios * SEEDS_PER_CELL * MODELS.len() as u64
        );
        assert!(config.iter().any(|(k, _)| k == "scenarios"));
        for spec in &specs {
            assert!(spec.scenario.is_some());
        }
    }

    #[test]
    fn ocelot_stays_clean_across_every_scenario() {
        // The acceptance headline: the sweep runs all three extension
        // apps under the whole registry, and Ocelot's regions hold the
        // guarantee in every regime.
        let a = collect_sweep(&tiny_opts());
        let mut ocelot_cells = 0u64;
        for c in &a.cells {
            if c.get("model").and_then(Json::as_str) == Some("Ocelot") {
                let s = cell_stats(c).unwrap();
                assert_eq!(
                    s.violations,
                    0,
                    "Ocelot must not violate in {}/{}",
                    cell_str(c, "bench").unwrap(),
                    cell_str(c, "scenario").unwrap()
                );
                ocelot_cells += 1;
            }
        }
        assert_eq!(
            ocelot_cells,
            (ocelot_apps::extended().len() * ocelot_scenario::all().len()) as u64 * SEEDS_PER_CELL,
            "one Ocelot cell per (app, scenario, seed)"
        );
        let rendered = (SCENARIO_SWEEP.render)(&a).unwrap();
        assert!(rendered.contains("fusion / rf-lab"), "{rendered}");
        assert!(rendered.contains("mlinfer / cold-start"), "{rendered}");
    }
}
