//! The TICS comparisons (§2.3, Table 3): the static expiry-window
//! replay scored against the freshness definition, and the live
//! expiry-window model run head-to-head against JIT and Ocelot.

use super::{cell_str, cell_u64, find_cell, sim_cell, Driver, DriverOpts};
use crate::artifact::{Artifact, ArtifactError};
use crate::harness::{bench_supply, build_for, calibrated_costs, run_cells, CellSpec, Workload};
use crate::report::Table;
use ocelot_runtime::expiry::evaluate_expiry;
use ocelot_runtime::machine::Machine;
use ocelot_runtime::model::ExecModel;
use ocelot_telemetry::json::Json;

// ---------------------------------------------------------------------
// tics_expiry — static window replay
// ---------------------------------------------------------------------

/// §2.3 extension: expiry windows scored against the freshness
/// definition on recorded traces.
pub(crate) static TICS_EXPIRY: Driver = Driver {
    name: "tics_expiry",
    about: "extension: TICS-style expiry windows vs the freshness definition (§2.3)",
    collect: collect_expiry,
    render: render_expiry,
    collect_traced: None,
};

/// The window sweep (µs, label).
const WINDOWS_US: [(u64, &str); 4] = [
    (500, "0.5ms"),
    (5_000, "5ms"),
    (50_000, "50ms"),
    (500_000, "500ms"),
];

fn collect_expiry(opts: &DriverOpts) -> Artifact {
    // Scale override is in *seconds* of simulated JIT execution per app.
    let sim_s = opts.runs_or(20);
    let sim_us = sim_s * 1_000_000;
    let seed = opts.seed_or(29);
    let cells = super::per_bench_cells(opts.jobs, |b| {
        let built = build_for(b, ExecModel::Jit);
        let mut m = Machine::new(
            &built.program,
            &built.regions,
            built.policies.clone(),
            b.environment(seed),
            calibrated_costs(b),
            Box::new(bench_supply(seed)),
        );
        m.run_for(sim_us, ocelot_runtime::MAX_STEPS);
        let trace = m.take_trace();
        let base = evaluate_expiry(m.policies(), &trace, u64::MAX / 2);
        let windows: Vec<Json> = WINDOWS_US
            .iter()
            .map(|(w, label)| {
                let r = evaluate_expiry(m.policies(), &trace, *w);
                Json::obj(vec![
                    ("window_us", Json::u64(*w)),
                    ("label", Json::str(label)),
                    ("missed", Json::u64(r.missed as u64)),
                    ("spurious", Json::u64(r.spurious as u64)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("bench", Json::str(b.name)),
            (
                "true_fresh_violations",
                Json::u64(base.true_freshness_violations as u64),
            ),
            (
                "consistency_unexpressible",
                Json::u64(base.consistency_violations_unexpressible as u64),
            ),
            ("windows", Json::Arr(windows)),
        ])
    });
    let mut a = Artifact::new(
        "tics_expiry",
        vec![
            ("sim_us".into(), Json::u64(sim_us)),
            ("seed".into(), Json::u64(seed)),
        ],
    );
    a.cells = cells;
    a
}

fn render_expiry(a: &Artifact) -> Result<String, ArtifactError> {
    let sim_us = a.config_u64("sim_us")?;
    let mut header = vec![
        "App".to_string(),
        "true fresh viol.".to_string(),
        "cons. (unexpressible)".to_string(),
    ];
    for (_, label) in WINDOWS_US {
        header.push(format!("{label} miss/spur"));
    }
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new(&header_refs);
    for cell in &a.cells {
        let mut row = vec![
            cell_str(cell, "bench")?.to_string(),
            cell_u64(cell, "true_fresh_violations")?.to_string(),
            cell_u64(cell, "consistency_unexpressible")?.to_string(),
        ];
        let windows = cell
            .get("windows")
            .and_then(Json::as_arr)
            .ok_or_else(|| ArtifactError::Schema("windows missing".into()))?;
        for w in windows {
            row.push(format!(
                "{}/{}",
                cell_u64(w, "missed")?,
                cell_u64(w, "spurious")?
            ));
        }
        t.row(row);
    }
    Ok(format!(
        "Extension: TICS-style expiry windows vs the freshness definition\n\
         (JIT on harvested power, {} s per app; miss = real violation under the\n\
         window, spur = handler trip on fresh data)\n{}\
         No window column is clean across apps: short windows burn handler runs on\n\
         fresh data, long windows let stale data through, and consistency is\n\
         unexpressible at any width — the paper's §2.3 argument, quantified.\n",
        sim_us / 1_000_000,
        t.render()
    ))
}

// ---------------------------------------------------------------------
// tics_dynamic — live expiry model
// ---------------------------------------------------------------------

/// §2.3 dynamic comparison: live expiry windows with restart mitigation
/// vs JIT and Ocelot on harvested power.
pub(crate) static TICS_DYNAMIC: Driver = Driver {
    name: "tics_dynamic",
    about: "dynamic TICS expiry windows vs JIT and Ocelot on harvested power (§2.3)",
    collect: collect_dynamic,
    render: render_dynamic,
    collect_traced: None,
};

/// Comparison rows: (label, model, expiry window).
const DYNAMIC_ROWS: [(&str, ExecModel, Option<u64>); 4] = [
    ("JIT", ExecModel::Jit, None),
    ("TICS 10ms", ExecModel::Jit, Some(10_000)),
    ("TICS 100ms", ExecModel::Jit, Some(100_000)),
    ("Ocelot", ExecModel::Ocelot, None),
];

fn collect_dynamic(opts: &DriverOpts) -> Artifact {
    let runs = opts.runs_or(60);
    let seed = opts.seed_or(11);
    let mut specs = Vec::new();
    let mut labels = Vec::new();
    for bench in super::bench_names() {
        for (label, model, window) in DYNAMIC_ROWS {
            let mut spec = CellSpec::new(bench, model, seed, Workload::Harvested { runs })
                .with_backend(opts.backend);
            spec.expiry_window_us = window;
            specs.push(spec);
            labels.push(label);
        }
    }
    let stats = run_cells(&specs, opts.jobs);
    let mut a = Artifact::new(
        "tics_dynamic",
        vec![
            ("runs".into(), Json::u64(runs)),
            ("seed".into(), Json::u64(seed)),
            ("backend".into(), Json::str(opts.backend.name())),
        ],
    );
    for ((spec, label), s) in specs.iter().zip(&labels).zip(&stats) {
        let Json::Obj(mut pairs) = sim_cell(&spec.bench, spec.model, spec.seed, spec.workload, s)
        else {
            unreachable!("sim_cell builds objects")
        };
        // Row label + window distinguish the two TICS rows that share a
        // model.
        pairs.insert(2, ("row".to_string(), Json::str(label)));
        pairs.insert(
            3,
            (
                "window_us".to_string(),
                spec.expiry_window_us.map_or(Json::Null, Json::u64),
            ),
        );
        a.cells.push(Json::Obj(pairs));
    }
    a
}

fn render_dynamic(a: &Artifact) -> Result<String, ArtifactError> {
    let runs = a.config_u64("runs")?;
    let mut t = Table::new(&[
        "App",
        "model",
        "fresh viol",
        "cons viol",
        "trips",
        "restarts",
        "on-time vs JIT",
    ]);
    for bench in super::cell_benches(a) {
        let base = super::cell_stats(find_cell(a, &[("bench", &bench), ("row", "JIT")])?)?;
        for (label, _, _) in DYNAMIC_ROWS {
            let s = super::cell_stats(find_cell(a, &[("bench", &bench), ("row", label)])?)?;
            t.row(vec![
                bench.clone(),
                label.to_string(),
                s.fresh_violations.to_string(),
                s.consistency_violations.to_string(),
                s.expiry_trips.to_string(),
                s.expiry_restarts.to_string(),
                format!("{:.2}x", s.on_time_us as f64 / base.on_time_us as f64),
            ]);
        }
    }
    Ok(format!(
        "Dynamic TICS-style expiry vs Ocelot ({runs} harvested runs per cell, §2.3)\n{}\
         Windows trade freshness misses against handler thrash, pay their\n\
         mitigation in re-executed work, and leave every temporal-consistency\n\
         violation in place; Ocelot's regions eliminate both classes at a\n\
         single-digit runtime premium.\n",
        t.render()
    ))
}
