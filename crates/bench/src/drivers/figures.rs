//! The runtime figures: Figure 7 (continuous-power runtimes), Figure 8
//! (intermittent runtimes with charging time), and the extension
//! cycle-breakdown behind both.

use super::{
    bench_names, cell_benches, collect_sim, collect_sim_traced, find_stats, Driver, DriverOpts,
};
use crate::artifact::{Artifact, ArtifactError};
use crate::harness::{CellSpec, Workload};
use crate::report::{gmean, ratio, Table};
use ocelot_runtime::model::ExecModel;
use ocelot_telemetry::json::Json;

/// Figure 7 — continuous-power runtimes normalized to JIT.
pub(crate) static FIG7: Driver = Driver {
    name: "fig7",
    about: "Figure 7: continuous-power runtimes (JIT / Atomics-only / Ocelot)",
    collect: collect_fig7,
    render: render_fig7,
    collect_traced: Some(collect_fig7_traced),
};

fn plan_fig7(opts: &DriverOpts) -> (Vec<(String, Json)>, Vec<CellSpec>) {
    let runs = opts.runs_or(25);
    let seed = opts.seed_or(42);
    let mut specs = Vec::new();
    for bench in bench_names() {
        for model in ExecModel::all() {
            specs.push(CellSpec::new(
                bench,
                model,
                seed,
                Workload::Continuous { runs },
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

fn collect_fig7(opts: &DriverOpts) -> Artifact {
    let (config, specs) = plan_fig7(opts);
    collect_sim("fig7", config, &specs, opts)
}

fn collect_fig7_traced(opts: &DriverOpts) -> (Artifact, Artifact) {
    let (config, specs) = plan_fig7(opts);
    collect_sim_traced("fig7", config, &specs, opts)
}

fn render_fig7(a: &Artifact) -> Result<String, ArtifactError> {
    let runs = a.config_u64("runs")?;
    let mut t = Table::new(&["App", "JIT", "Atomics-only", "Ocelot"]);
    let mut atomics_ratios = Vec::new();
    let mut ocelot_ratios = Vec::new();
    for bench in cell_benches(a) {
        let cycles = |model: ExecModel| -> Result<f64, ArtifactError> {
            Ok(find_stats(a, &[("bench", &bench), ("model", model.name())])?.on_cycles as f64)
        };
        let base = cycles(ExecModel::Jit)?;
        let ra = cycles(ExecModel::AtomicsOnly)? / base;
        let ro = cycles(ExecModel::Ocelot)? / base;
        atomics_ratios.push(ra);
        ocelot_ratios.push(ro);
        t.row(vec![bench, ratio(1.0), ratio(ra), ratio(ro)]);
    }
    t.row(vec![
        "gmean".to_string(),
        ratio(1.0),
        ratio(gmean(&atomics_ratios)),
        ratio(gmean(&ocelot_ratios)),
    ]);
    Ok(format!(
        "Figure 7: Continuous runtimes normalized to JIT ({runs} runs each)\n{}\
         Paper shape: Ocelot gmean ~1.07x; Atomics-only ~= Ocelot except cem (~2.5x);\n\
         tire slightly faster under Atomics-only than Ocelot.\n",
        t.render()
    ))
}

/// Figure 8 — intermittent runtimes normalized to continuous JIT.
pub(crate) static FIG8: Driver = Driver {
    name: "fig8",
    about: "Figure 8: intermittent runtimes with charging time, vs continuous JIT",
    collect: collect_fig8,
    render: render_fig8,
    collect_traced: Some(collect_fig8_traced),
};

fn plan_fig8(opts: &DriverOpts) -> (Vec<(String, Json)>, Vec<CellSpec>) {
    let runs = opts.runs_or(25);
    let seed = opts.seed_or(42);
    let mut specs = Vec::new();
    for bench in bench_names() {
        // Baseline: continuous JIT on-time for the same number of runs.
        specs.push(CellSpec::new(
            bench,
            ExecModel::Jit,
            seed,
            Workload::Continuous { runs },
        ));
        for model in ExecModel::all() {
            specs.push(CellSpec::new(
                bench,
                model,
                seed,
                Workload::Intermittent { runs },
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

fn collect_fig8(opts: &DriverOpts) -> Artifact {
    let (config, specs) = plan_fig8(opts);
    collect_sim("fig8", config, &specs, opts)
}

fn collect_fig8_traced(opts: &DriverOpts) -> (Artifact, Artifact) {
    let (config, specs) = plan_fig8(opts);
    collect_sim_traced("fig8", config, &specs, opts)
}

fn render_fig8(a: &Artifact) -> Result<String, ArtifactError> {
    let runs = a.config_u64("runs")?;
    let mut t = Table::new(&[
        "App",
        "JIT run",
        "JIT total",
        "Atomics run",
        "Atomics total",
        "Ocelot run",
        "Ocelot total",
    ]);
    let mut run_ratios: [Vec<f64>; 3] = Default::default();
    let mut tot_ratios: [Vec<f64>; 3] = Default::default();
    for bench in cell_benches(a) {
        let base = find_stats(
            a,
            &[
                ("bench", &bench),
                ("model", ExecModel::Jit.name()),
                ("workload", "continuous"),
            ],
        )?
        .on_time_us as f64;
        let mut cells = vec![bench.clone()];
        for (i, model) in ExecModel::all().into_iter().enumerate() {
            let s = find_stats(
                a,
                &[
                    ("bench", &bench),
                    ("model", model.name()),
                    ("workload", "intermittent"),
                ],
            )?;
            let run_ratio = s.on_time_us as f64 / base;
            let tot_ratio = s.total_time_us() as f64 / base;
            run_ratios[i].push(run_ratio);
            tot_ratios[i].push(tot_ratio);
            cells.push(ratio(run_ratio));
            cells.push(ratio(tot_ratio));
        }
        t.row(cells);
    }
    let mut g = vec!["gmean".to_string()];
    for i in 0..3 {
        g.push(ratio(gmean(&run_ratios[i])));
        g.push(ratio(gmean(&tot_ratios[i])));
    }
    t.row(g);
    Ok(format!(
        "Figure 8: Intermittent runtimes normalized to continuous JIT on-time\n\
         ({runs} runs each; 'run' = on-time, 'total' = on + off/charging)\n{}\
         Paper shape: same proportions as Figure 7 between models; charging time\n\
         dominates total runtime.\n",
        t.render()
    ))
}

/// Extension: per-category active-cycle breakdown on harvested power.
pub(crate) static ENERGY_BREAKDOWN: Driver = Driver {
    name: "energy_breakdown",
    about: "extension: per-category active-cycle breakdown behind Figures 7/8",
    collect: collect_energy,
    render: render_energy,
    collect_traced: Some(collect_energy_traced),
};

/// Row order of the original binary: JIT, Ocelot, Atomics-only.
const ENERGY_MODELS: [ExecModel; 3] = [ExecModel::Jit, ExecModel::Ocelot, ExecModel::AtomicsOnly];

fn plan_energy(opts: &DriverOpts) -> (Vec<(String, Json)>, Vec<CellSpec>) {
    let runs = opts.runs_or(25);
    let seed = opts.seed_or(31);
    let mut specs = Vec::new();
    for bench in bench_names() {
        for model in ENERGY_MODELS {
            specs.push(CellSpec::new(
                bench,
                model,
                seed,
                Workload::Harvested { runs },
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

fn collect_energy(opts: &DriverOpts) -> Artifact {
    let (config, specs) = plan_energy(opts);
    collect_sim("energy_breakdown", config, &specs, opts)
}

fn collect_energy_traced(opts: &DriverOpts) -> (Artifact, Artifact) {
    let (config, specs) = plan_energy(opts);
    collect_sim_traced("energy_breakdown", config, &specs, opts)
}

fn render_energy(a: &Artifact) -> Result<String, ArtifactError> {
    let runs = a.config_u64("runs")?;
    let mut t = Table::new(&[
        "App / Model",
        "compute%",
        "input%",
        "output%",
        "checkpoint%",
        "undo-log%",
        "restore%",
    ]);
    for bench in cell_benches(a) {
        for model in ENERGY_MODELS {
            let s = find_stats(a, &[("bench", &bench), ("model", model.name())])?;
            let bd = &s.breakdown;
            let total = bd.total().max(1) as f64;
            let pct = |v: u64| format!("{:.1}", v as f64 * 100.0 / total);
            t.row(vec![
                format!("{} / {}", bench, model.name()),
                pct(bd.compute),
                pct(bd.input),
                pct(bd.output),
                pct(bd.checkpoint),
                pct(bd.undo_log),
                pct(bd.restore),
            ]);
        }
    }
    Ok(format!(
        "Extension: active-cycle breakdown on harvested power ({runs} runs each)\n{}\
         Reading guide: sampling dominates sensing-bound apps; Atomics-only\n\
         inflates the checkpoint column (every region entry snapshots volatile\n\
         state), most dramatically on cem.\n",
        t.render()
    ))
}
