//! The violation tables: Table 2(a) — pathological failure points —
//! and Table 2(b) — harvested intermittent power for a fixed simulated
//! wall-clock budget.

use super::{bench_names, collect_sim, collect_sim_traced, find_stats, Driver, DriverOpts};
use crate::artifact::{Artifact, ArtifactError};
use crate::harness::{CellSpec, Workload};
use crate::report::{pct, Table};
use ocelot_runtime::model::ExecModel;
use ocelot_telemetry::json::Json;

/// Row order of both tables: Ocelot first, then JIT.
const MODELS: [ExecModel; 2] = [ExecModel::Ocelot, ExecModel::Jit];

/// Column order of both tables.
const COLUMNS: [(&str, &str); 6] = [
    ("activity", "Activity"),
    ("cem", "CEM"),
    ("greenhouse", "Greenhouse"),
    ("photo", "Photo"),
    ("send_photo", "Send Photo"),
    ("tire", "Tire"),
];

fn header() -> Vec<&'static str> {
    let mut h = vec!["Exec. Model"];
    h.extend(COLUMNS.iter().map(|(_, label)| *label));
    h
}

/// Table 2(a) — violations under pathological power-failure points.
pub static TABLE2A: Driver = Driver {
    name: "table2a",
    about: "Table 2(a): violating % with pathological power-failure points",
    collect: collect_table2a,
    render: render_table2a,
    collect_traced: Some(collect_table2a_traced),
};

fn plan_table2a(opts: &DriverOpts) -> (Vec<(String, Json)>, Vec<CellSpec>) {
    let runs = opts.runs_or(20);
    let seed = opts.seed_or(11);
    let mut specs = Vec::new();
    for model in MODELS {
        for bench in bench_names() {
            specs.push(CellSpec::new(
                bench,
                model,
                seed,
                Workload::Pathological { runs },
            ));
        }
    }
    (
        vec![
            ("runs".into(), Json::u64(runs)),
            ("seed".into(), Json::u64(seed)),
        ],
        specs,
    )
}

fn collect_table2a(opts: &DriverOpts) -> Artifact {
    let (config, specs) = plan_table2a(opts);
    collect_sim("table2a", config, &specs, opts)
}

fn collect_table2a_traced(opts: &DriverOpts) -> (Artifact, Artifact) {
    let (config, specs) = plan_table2a(opts);
    collect_sim_traced("table2a", config, &specs, opts)
}

fn render_table2a(a: &Artifact) -> Result<String, ArtifactError> {
    let runs = a.config_u64("runs")?;
    let mut t = Table::new(&header());
    for model in MODELS {
        let mut cells = vec![model.name().to_string()];
        for (bench, _) in COLUMNS {
            let s = find_stats(a, &[("bench", bench), ("model", model.name())])?;
            cells.push(pct(s.violating_fraction()));
        }
        t.row(cells);
    }
    Ok(format!(
        "Table 2(a): Violating % with pathological power-failure points ({runs} runs each)\n{}\
         Paper: Ocelot 0% everywhere; JIT 100% everywhere.\n",
        t.render()
    ))
}

/// Table 2(b) — violations on simulated harvested power.
pub static TABLE2B: Driver = Driver {
    name: "table2b",
    about: "Table 2(b): violating % on intermittent power (fixed simulated budget)",
    collect: collect_table2b,
    render: render_table2b,
    collect_traced: Some(collect_table2b_traced),
};

fn plan_table2b(opts: &DriverOpts) -> (Vec<(String, Json)>, Vec<CellSpec>) {
    // Scale override is in *seconds* here (the paper used 100 s/cell).
    let sim_s = opts.runs_or(100);
    let sim_us = sim_s * 1_000_000;
    let seed = opts.seed_or(17);
    let mut specs = Vec::new();
    for model in MODELS {
        for bench in bench_names() {
            specs.push(CellSpec::new(
                bench,
                model,
                seed,
                Workload::Duration { sim_us },
            ));
        }
    }
    (
        vec![
            ("sim_us".into(), Json::u64(sim_us)),
            ("seed".into(), Json::u64(seed)),
        ],
        specs,
    )
}

fn collect_table2b(opts: &DriverOpts) -> Artifact {
    let (config, specs) = plan_table2b(opts);
    collect_sim("table2b", config, &specs, opts)
}

fn collect_table2b_traced(opts: &DriverOpts) -> (Artifact, Artifact) {
    let (config, specs) = plan_table2b(opts);
    collect_sim_traced("table2b", config, &specs, opts)
}

fn render_table2b(a: &Artifact) -> Result<String, ArtifactError> {
    let sim_us = a.config_u64("sim_us")?;
    let mut t = Table::new(&header());
    let mut completions = Vec::new();
    for model in MODELS {
        let mut cells = vec![model.name().to_string()];
        for (bench, _) in COLUMNS {
            let s = find_stats(a, &[("bench", bench), ("model", model.name())])?;
            cells.push(pct(s.violating_fraction()));
            if model == ExecModel::Jit {
                completions.push((bench, s.runs_completed));
            }
        }
        t.row(cells);
    }
    let mut out = format!(
        "Table 2(b): Violating % on intermittent power ({}s simulated per cell)\n{}",
        sim_us / 1_000_000,
        t.render()
    );
    out.push_str("Completed runs (JIT): ");
    for (name, runs) in completions {
        out.push_str(&format!("{name}={runs} "));
    }
    out.push('\n');
    out.push_str(
        "Paper: Ocelot 0% everywhere; JIT Activity 50, CEM 0, Greenhouse 24, Photo 77,\n\
         SendPhoto 50, Tire 3 (percent).\n",
    );
    Ok(out)
}
