//! The static tables — no simulation, but the same artifact discipline:
//! Table 1 (benchmark characteristics), Table 3 (strategy/constructs
//! comparison), and Table 4 (LoC effort model). Their `collect` runs in
//! microseconds, yet persisting the rows keeps `--replay` uniform and
//! pins the published numbers under the golden/determinism tests.

use super::{cell_str, cell_u64, Driver, DriverOpts};
use crate::artifact::{Artifact, ArtifactError};
use crate::effort::table4;
use crate::report::Table;
use ocelot_telemetry::json::Json;

/// Table 1 — benchmark characteristics.
pub static TABLE1: Driver = Driver {
    name: "table1",
    about: "Table 1: benchmark characteristics (origin, LoC, sensors, constraints)",
    collect: collect_table1,
    render: render_table1,
    collect_traced: None,
};

fn collect_table1(_opts: &DriverOpts) -> Artifact {
    let mut a = Artifact::new("table1", vec![]);
    for b in ocelot_apps::all() {
        a.cells.push(Json::obj(vec![
            ("bench", Json::str(b.name)),
            ("origin", Json::str(b.origin)),
            ("loc", Json::u64(b.loc() as u64)),
            (
                "sensors",
                Json::Arr(b.sensors.iter().map(|s| Json::str(s)).collect()),
            ),
            ("constraints", Json::str(b.constraints)),
        ]));
    }
    a
}

fn render_table1(a: &Artifact) -> Result<String, ArtifactError> {
    let mut t = Table::new(&["Origin", "App", "LoC", "Sensors", "Constraints"]);
    for cell in &a.cells {
        let sensors: Vec<&str> = cell
            .get("sensors")
            .and_then(Json::as_arr)
            .ok_or_else(|| ArtifactError::Schema("sensors missing".into()))?
            .iter()
            .filter_map(Json::as_str)
            .collect();
        t.row(vec![
            cell_str(cell, "origin")?.to_string(),
            cell_str(cell, "bench")?.to_string(),
            cell_u64(cell, "loc")?.to_string(),
            sensors.join(", "),
            cell_str(cell, "constraints")?.to_string(),
        ]);
    }
    Ok(format!(
        "Table 1: Benchmark Characteristics (`*` = simulated sensor)\n{}",
        t.render()
    ))
}

/// Table 3 — strategy/constructs comparison.
pub static TABLE3: Driver = Driver {
    name: "table3",
    about: "Table 3: what each system asks of the programmer (LoC formulas)",
    collect: collect_table3,
    render: render_table3,
    collect_traced: None,
};

/// The comparison rows: (system, constructs, strategy, upholds).
const TABLE3_ROWS: [(&str, &str, &str, &str); 5] = [
    (
        "Ocelot",
        "Time-constraint types",
        "annotate inputs + constrained data: 1*(inputs) + 1*(constrained)",
        "Correct by construction",
    ),
    ("JIT", "None", "do nothing: 0", "Incorrect"),
    (
        "Atomics",
        "Atomic regions",
        "annotate inputs + place regions: 1*(inputs) + 2*(regions)",
        "Programmer-dependent",
    ),
    (
        "TICS",
        "Expiry, alignment, timely branches",
        "3*(fresh) + 5-line handler each; 2*(consistent) + check+handler per set",
        "Real-time freshness only; no temporal consistency",
    ),
    (
        "Samoyed",
        "Atomic functions",
        "(3 + params) per atomic fn; +3 scaling +5 fallback per loop",
        "Programmer-dependent",
    ),
];

fn collect_table3(_opts: &DriverOpts) -> Artifact {
    let mut a = Artifact::new("table3", vec![]);
    for (system, constructs, strategy, upholds) in TABLE3_ROWS {
        a.cells.push(Json::obj(vec![
            ("system", Json::str(system)),
            ("constructs", Json::str(constructs)),
            ("strategy", Json::str(strategy)),
            ("upholds", Json::str(upholds)),
        ]));
    }
    a
}

fn render_table3(a: &Artifact) -> Result<String, ArtifactError> {
    let mut t = Table::new(&[
        "System",
        "Constructs",
        "Strategy (LoC model)",
        "Upholds Fresh+Con?",
    ]);
    for cell in &a.cells {
        t.row(vec![
            cell_str(cell, "system")?.to_string(),
            cell_str(cell, "constructs")?.to_string(),
            cell_str(cell, "strategy")?.to_string(),
            cell_str(cell, "upholds")?.to_string(),
        ]);
    }
    Ok(format!(
        "Table 3: Strategy comparison (LoC formulas instantiated in Table 4)\n{}",
        t.render()
    ))
}

/// Table 4 — LoC changes per benchmark per system.
pub static TABLE4: Driver = Driver {
    name: "table4",
    about: "Table 4: LoC changes to enable correct execution per system",
    collect: collect_table4,
    render: render_table4,
    collect_traced: None,
};

fn collect_table4(_opts: &DriverOpts) -> Artifact {
    let mut a = Artifact::new("table4", vec![]);
    for r in table4() {
        a.cells.push(Json::obj(vec![
            ("bench", Json::str(r.bench)),
            ("ocelot", Json::u64(r.ocelot as u64)),
            ("tics", Json::u64(r.tics as u64)),
            ("samoyed", Json::u64(r.samoyed as u64)),
        ]));
    }
    a
}

fn render_table4(a: &Artifact) -> Result<String, ArtifactError> {
    let mut t = Table::new(&["Sys", "Act", "CEM", "G-house", "Photo", "S-Photo", "Tire"]);
    for (label, key) in [
        ("Ocelot", "ocelot"),
        ("TICS", "tics"),
        ("Samoyed", "samoyed"),
    ] {
        let mut row = vec![label.to_string()];
        for bench in [
            "activity",
            "cem",
            "greenhouse",
            "photo",
            "send_photo",
            "tire",
        ] {
            let cell = super::find_cell(a, &[("bench", bench)])?;
            row.push(cell_u64(cell, key)?.to_string());
        }
        t.row(row);
    }
    Ok(format!(
        "Table 4: LoC changes to enable correct execution\n{}\
         Reasoning burden: Ocelot none; TICS real-time reasoning; Samoyed data-flow reasoning.\n",
        t.render()
    ))
}
