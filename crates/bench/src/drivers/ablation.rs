//! The region-placement studies: smallest-region inference vs
//! whole-`main` wrapping (§5.3/§8), the forward-progress report
//! (§5.3/§10), and the Samoyed scaling/fallback sweep (§7.4/§9).
//!
//! These drivers do not fit the uniform (benchmark, model, seed) cell
//! shape — each benchmark (or capacitor size) needs several builds and
//! custom machines — so their `collect` functions shard whole-row jobs
//! (one per benchmark / capacity) across the pool directly.

use super::{cell_bool, cell_f64, cell_str, cell_u64, per_bench_cells, Driver, DriverOpts};
use crate::artifact::{Artifact, ArtifactError};
use crate::harness::{bench_supply, build_for, calibrated_costs, whole_main_variant};
use crate::report::{ratio, Table};
use ocelot_core::collect_regions;
use ocelot_hw::energy::CostModel;
use ocelot_hw::power::{ContinuousPower, HarvestedPower, PowerSupply};
use ocelot_hw::sensors::{Environment, Signal};
use ocelot_hw::{Capacitor, Harvester};
use ocelot_progress::ProgressReport;
use ocelot_runtime::machine::{Machine, RunOutcome};
use ocelot_runtime::model::{build, Built, ExecModel};
use ocelot_runtime::pool::{self, Job};
use ocelot_runtime::samoyed::{run_scaled, ScaledApp};
use ocelot_runtime::MAX_STEPS;
use ocelot_telemetry::json::Json;

// ---------------------------------------------------------------------
// ablation_region_size
// ---------------------------------------------------------------------

/// §5.3/§8 ablation: inferred vs whole-`main` regions.
pub static ABLATION_REGION_SIZE: Driver = Driver {
    name: "ablation_region_size",
    about: "ablation: smallest-region inference vs whole-main regions (§5.3, §8)",
    collect: collect_ablation,
    render: render_ablation,
    collect_traced: None,
};

fn collect_ablation(opts: &DriverOpts) -> Artifact {
    let runs = opts.runs_or(25);
    let seed = opts.seed_or(3);
    let cells = per_bench_cells(opts.jobs, |b| {
        let inferred = build_for(b, ExecModel::Ocelot);
        let inferred_omega = inferred
            .regions
            .iter()
            .map(|r| r.omega_words)
            .max()
            .unwrap_or(0);

        let whole = build(whole_main_variant(b.annotated_src), ExecModel::AtomicsOnly)
            .expect("whole-main builds");
        let whole_omega = collect_regions(&whole.program)
            .unwrap()
            .iter()
            .map(|r| r.omega_words)
            .max()
            .unwrap_or(0);

        // Intermittent runtime comparison: a whole-main region
        // re-executes the entire program after every in-region failure,
        // so its cost shows under harvested power.
        let run = |built: &Built| {
            let mut m = Machine::new(
                &built.program,
                &built.regions,
                built.policies.clone(),
                b.environment(seed),
                calibrated_costs(b),
                Box::new(bench_supply(seed)),
            );
            for _ in 0..runs {
                m.run_once(MAX_STEPS);
            }
            m.stats().on_cycles
        };
        let whole_cycles = run(&whole);
        let inferred_cycles = run(&inferred);

        // Forward progress on a buffer sized just under one run's worth
        // of energy: the whole-main region cannot fit, the inferred
        // regions can (§5.3).
        let run_nj = {
            let mut m = Machine::new(
                &inferred.program,
                &inferred.regions,
                inferred.policies.clone(),
                b.environment(seed),
                calibrated_costs(b),
                Box::new(ContinuousPower),
            );
            m.run_once(MAX_STEPS);
            m.stats().on_cycles as f64
        };
        let tiny = || {
            HarvestedPower::new(
                Capacitor::new(run_nj * 0.97, run_nj * 0.03),
                Harvester::powercast_noisy(5),
            )
        };
        let completes = |built: &Built| {
            let mut m = Machine::new(
                &built.program,
                &built.regions,
                built.policies.clone(),
                b.environment(seed),
                calibrated_costs(b),
                Box::new(tiny()),
            );
            matches!(m.run_once(400_000), RunOutcome::Completed { .. })
        };
        Json::obj(vec![
            ("bench", Json::str(b.name)),
            ("inferred_omega", Json::u64(inferred_omega as u64)),
            ("whole_omega", Json::u64(whole_omega as u64)),
            ("inferred_cycles", Json::u64(inferred_cycles)),
            ("whole_cycles", Json::u64(whole_cycles)),
            ("inferred_completes", Json::Bool(completes(&inferred))),
            ("whole_completes", Json::Bool(completes(&whole))),
        ])
    });
    let mut a = Artifact::new(
        "ablation_region_size",
        vec![
            ("runs".into(), Json::u64(runs)),
            ("seed".into(), Json::u64(seed)),
        ],
    );
    a.cells = cells;
    a
}

fn render_ablation(a: &Artifact) -> Result<String, ArtifactError> {
    let mut t = Table::new(&[
        "App",
        "inferred ω(words)",
        "whole-main ω(words)",
        "runtime vs inferred",
        "completes on small buffer?",
    ]);
    for cell in &a.cells {
        let r = cell_u64(cell, "whole_cycles")? as f64 / cell_u64(cell, "inferred_cycles")? as f64;
        t.row(vec![
            cell_str(cell, "bench")?.to_string(),
            cell_u64(cell, "inferred_omega")?.to_string(),
            cell_u64(cell, "whole_omega")?.to_string(),
            ratio(r),
            format!(
                "inferred: {} / whole-main: {}",
                if cell_bool(cell, "inferred_completes")? {
                    "yes"
                } else {
                    "NO"
                },
                if cell_bool(cell, "whole_completes")? {
                    "yes"
                } else {
                    "NO"
                }
            ),
        ]);
    }
    Ok(format!(
        "Ablation: smallest-region inference vs whole-main regions (§5.3, §8)\n{}\
         A whole-main region snapshots more state and re-executes more work per\n\
         failure; on a small buffer it may never complete — the inferred region\n\
         is the difference between progress and livelock.\n",
        t.render()
    ))
}

// ---------------------------------------------------------------------
// progress_report
// ---------------------------------------------------------------------

/// §5.3/§10 forward-progress report for all six benchmarks.
pub static PROGRESS_REPORT: Driver = Driver {
    name: "progress_report",
    about: "forward-progress report: worst-case region energy vs buffer (§5.3, §10)",
    collect: collect_progress,
    render: render_progress,
    collect_traced: None,
};

fn collect_progress(opts: &DriverOpts) -> Artifact {
    let seed = opts.seed_or(3);
    let bench_cap = Capacitor::new(26_000.0, 2_600.0);
    let cells = per_bench_cells(opts.jobs, |b| {
        let costs = calibrated_costs(b);
        let inferred = build_for(b, ExecModel::Ocelot);
        let ri = ProgressReport::analyze(&inferred.program, &inferred.regions, &costs)
            .expect("benchmarks are bounded");
        let whole = build(whole_main_variant(b.annotated_src), ExecModel::AtomicsOnly)
            .expect("whole-main builds");
        let rw = ProgressReport::analyze(&whole.program, &whole.regions, &costs)
            .expect("benchmarks are bounded");

        let min = ri.min_capacitor(0.10);
        // Cross-validate: the app must actually complete on its own
        // minimum buffer.
        let supply = HarvestedPower::new(
            Capacitor::new(min.capacity_nj(), min.trigger_nj()),
            Harvester::Constant { power_nw: 1.0 },
        );
        let mut m = Machine::new(
            &inferred.program,
            &inferred.regions,
            inferred.policies.clone(),
            b.environment(seed),
            costs.clone(),
            Box::new(supply),
        )
        .with_reexec_limit(50);
        let dynamic = match m.run_once(MAX_STEPS) {
            RunOutcome::Completed { .. } => "yes",
            RunOutcome::Livelock { .. } => "NO (livelock)",
            RunOutcome::StepLimit => "NO (step limit)",
        };

        Json::obj(vec![
            ("bench", Json::str(b.name)),
            ("regions", Json::u64(ri.regions.len() as u64)),
            ("peak_inferred_nj", Json::Float(ri.peak_demand_nj())),
            ("peak_whole_nj", Json::Float(rw.peak_demand_nj())),
            ("min_capacity_nj", Json::Float(min.capacity_nj())),
            ("feasible_on_bank", Json::Bool(ri.feasible_on(&bench_cap))),
            ("runs_on_min_buffer", Json::str(dynamic)),
        ])
    });
    let mut a = Artifact::new(
        "progress_report",
        vec![
            ("seed".into(), Json::u64(seed)),
            ("bank_capacity_nj".into(), Json::Float(26_000.0)),
        ],
    );
    a.cells = cells;
    a
}

fn render_progress(a: &Artifact) -> Result<String, ArtifactError> {
    let mut t = Table::new(&[
        "App",
        "regions",
        "peak µJ (inferred)",
        "peak µJ (whole-main)",
        "min buffer µJ",
        "on 26 µJ bank",
        "runs on min buffer?",
    ]);
    for cell in &a.cells {
        t.row(vec![
            cell_str(cell, "bench")?.to_string(),
            cell_u64(cell, "regions")?.to_string(),
            format!("{:.2}", cell_f64(cell, "peak_inferred_nj")? / 1000.0),
            format!("{:.2}", cell_f64(cell, "peak_whole_nj")? / 1000.0),
            format!("{:.2}", cell_f64(cell, "min_capacity_nj")? / 1000.0),
            if cell_bool(cell, "feasible_on_bank")? {
                "feasible"
            } else {
                "INFEASIBLE"
            }
            .to_string(),
            cell_str(cell, "runs_on_min_buffer")?.to_string(),
        ]);
    }
    Ok(format!(
        "Forward-progress report (§5.3, §10): worst-case region energy vs buffer\n{}\
         Every app is feasible on the evaluation bank, and each completes on the\n\
         buffer the analysis sizes for it. Whole-main wrapping always demands at\n\
         least as much buffer as the inferred regions — most dramatically on cem,\n\
         whose ω would back the whole compression table.\n",
        t.render()
    ))
}

// ---------------------------------------------------------------------
// samoyed_scaling
// ---------------------------------------------------------------------

/// §7.4/§9 Samoyed scaling/fallback sweep on the photo kernel.
pub static SAMOYED_SCALING: Driver = Driver {
    name: "samoyed_scaling",
    about: "Samoyed scaling rules and fallbacks vs Ocelot fixed regions (§7.4, §9)",
    collect: collect_samoyed,
    render: render_samoyed,
    collect_traced: None,
};

/// Capacitor sweep of the original binary, in nanojoules.
const CAPACITIES_NJ: [f64; 5] = [60_000.0, 30_000.0, 18_000.0, 11_000.0, 7_800.0];

fn photo_src(n: u64) -> String {
    format!(
        r#"
        sensor photo;
        fn sample_avg() {{
            let sum = 0;
            repeat {n} {{
                let v = in(photo);
                consistent(v, 1);
                sum = sum + v;
            }}
            let avg = sum / {n};
            out(uart, avg);
            return avg;
        }}
        fn main() {{
            let avg = sample_avg();
            out(log, avg);
        }}
        "#
    )
}

fn supply_for(capacity_nj: f64) -> Box<dyn PowerSupply> {
    Box::new(HarvestedPower::new(
        Capacitor::new(capacity_nj, 3_000.0),
        Harvester::Constant { power_nw: 1.0 },
    ))
}

fn collect_samoyed(opts: &DriverOpts) -> Artifact {
    let env = Environment::new().with("photo", Signal::Constant(40));
    let costs = CostModel::default();
    let env = &env;
    let costs = &costs;
    let work: Vec<Job<'_, Json>> = CAPACITIES_NJ
        .iter()
        .map(|&capacity| {
            Box::new(move || {
                // Ocelot: the constraint pins all five readings in one
                // region.
                let ocelot = build(
                    ocelot_ir::compile(&photo_src(5)).unwrap(),
                    ExecModel::Ocelot,
                )
                .unwrap();
                let mut m = Machine::new(
                    &ocelot.program,
                    &ocelot.regions,
                    ocelot.policies.clone(),
                    env.clone(),
                    costs.clone(),
                    supply_for(capacity),
                )
                .with_reexec_limit(12);
                let ocelot_outcome = match m.run_once(4_000_000) {
                    RunOutcome::Completed { violated: false } => "completes, consistent",
                    RunOutcome::Completed { violated: true } => "completes, VIOLATED",
                    RunOutcome::Livelock { .. } => "LIVELOCK (unsatisfiable)",
                    RunOutcome::StepLimit => "step limit",
                };

                // Samoyed: same kernel as an atomic function with a
                // scaling rule and fallback.
                let app = ScaledApp {
                    source_for: &photo_src,
                    initial: 5,
                    min: 1,
                    atomic_fns: vec!["sample_avg".into()],
                };
                let out = run_scaled(&app, env, costs, &|| supply_for(capacity), 12, 4_000_000)
                    .expect("samoyed build");
                Json::obj(vec![
                    ("capacity_nj", Json::Float(capacity)),
                    ("ocelot_outcome", Json::str(ocelot_outcome)),
                    ("samoyed_completed", Json::Bool(out.completed)),
                    ("samoyed_final_param", Json::u64(out.final_param)),
                    ("samoyed_scalings", Json::u64(out.scalings as u64)),
                    ("samoyed_fell_back", Json::Bool(out.fell_back)),
                    ("samoyed_violations", Json::u64(out.violations)),
                ])
            }) as Job<'_, Json>
        })
        .collect();
    let cells = pool::run_jobs(work, opts.jobs);
    // No run/seed dimension (one deterministic run per capacity, constant
    // signal and harvester); the capacity sweep is the whole config.
    let mut a = Artifact::new(
        "samoyed_scaling",
        vec![(
            "capacities_nj".into(),
            Json::Arr(CAPACITIES_NJ.iter().map(|&c| Json::Float(c)).collect()),
        )],
    );
    a.cells = cells;
    a
}

fn render_samoyed(a: &Artifact) -> Result<String, ArtifactError> {
    let mut t = Table::new(&[
        "buffer µJ",
        "Ocelot (fixed N=5)",
        "Samoyed outcome",
        "N used",
        "scalings",
        "fallback",
    ]);
    for cell in &a.cells {
        let fell_back = cell_bool(cell, "samoyed_fell_back")?;
        let outcome = if fell_back {
            if cell_u64(cell, "samoyed_violations")? > 0 {
                "fallback, VIOLATED".to_string()
            } else {
                "fallback, lucky".to_string()
            }
        } else if cell_bool(cell, "samoyed_completed")? {
            "completes, consistent".to_string()
        } else {
            "step limit".to_string()
        };
        t.row(vec![
            format!("{:.0}", cell_f64(cell, "capacity_nj")? / 1000.0),
            cell_str(cell, "ocelot_outcome")?.to_string(),
            outcome,
            cell_u64(cell, "samoyed_final_param")?.to_string(),
            cell_u64(cell, "samoyed_scalings")?.to_string(),
            if fell_back { "yes" } else { "no" }.to_string(),
        ]);
    }
    Ok(format!(
        "Samoyed scaling/fallback vs Ocelot fixed regions (photo kernel, §7.4/§9)\n{}\
         Ample buffers: both complete atomically. As the buffer shrinks, Samoyed\n\
         degrades the workload (fewer readings averaged) to keep committing\n\
         atomically; Ocelot refuses to weaken the constraint and livelocks —\n\
         signalling that the annotation is unsatisfiable on that hardware. At\n\
         the smallest buffer Samoyed's fallback abandons atomicity entirely and\n\
         the consistency constraint with it.\n",
        t.render()
    ))
}
