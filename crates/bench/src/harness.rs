//! Shared benchmark harness: calibrated cost models and power supplies,
//! plus runners for the three measurement modes of §7 — continuous
//! power, harvested intermittent power, and pathological failure
//! injection.
//!
//! The sweep surface is the **cell**: one (benchmark, model, seed,
//! workload) combination. Drivers enumerate their cells up front as a
//! [`CellSpec`] job list and hand it to [`run_cells`], which shards the
//! list across the [`ocelot_runtime::pool`] work-stealing pool; results come
//! back in job-list order, so the persisted artifact is byte-identical
//! at every `--jobs` width.

use ocelot_apps::Benchmark;
use ocelot_hw::energy::CostModel;
use ocelot_hw::power::{ContinuousPower, HarvestedPower, PowerSupply};
use ocelot_hw::{Capacitor, Harvester};
use ocelot_runtime::machine::{pathological_targets, Machine, RunOutcome};
use ocelot_runtime::model::{build, Built, ExecModel};
use ocelot_runtime::obs::Obs;
use ocelot_runtime::pool::{self, Job};
use ocelot_runtime::stats::Stats;
use ocelot_runtime::ExecBackend;

// The old home of the step budget, still imported by `perfbench/`.
pub use ocelot_runtime::MAX_STEPS;

/// Per-benchmark cost model: sampling costs differ per sensor class
/// (photoresistor integration is slow, a TPMS pressure cell is fast),
/// which shapes both the runtime mix and the violation windows.
pub fn calibrated_costs(bench: &Benchmark) -> CostModel {
    let c = CostModel::default();
    match bench.name {
        "activity" => c.with_input_cost("accel", 5_000),
        "greenhouse" => c
            .with_input_cost("temp", 1_400)
            .with_input_cost("hum", 1_400),
        "cem" => c.with_input_cost("temp", 4_000),
        "photo" => c.with_input_cost("photo", 3_500),
        "send_photo" => c
            .with_input_cost("photo", 3_500)
            .with_input_cost("rssi", 7_000)
            .with_input_cost("vcap", 7_000),
        "tire" => c
            .with_input_cost("tirepres", 200)
            .with_input_cost("tiretemp", 200)
            .with_input_cost("wheelacc", 200),
        "fusion" => c
            .with_input_cost("accel", 3_000)
            .with_input_cost("gyro", 3_000)
            .with_input_cost("mag", 4_500),
        "radiolog" => c
            .with_input_cost("rssi", 7_000)
            .with_input_cost("vcap", 7_000),
        "mlinfer" => c.with_input_cost("mic", 2_500),
        _ => c,
    }
}

/// The evaluation's harvested supply: a small Capybara-style bank
/// (≈26 µJ usable, ≈2.6 µJ checkpoint reserve) charged by a noisy
/// PowerCast-at-10-inches RF source, with boot-voltage jitter so failure
/// points drift across the program like they do on real hardware.
pub fn bench_supply(seed: u64) -> HarvestedPower {
    HarvestedPower::new(
        Capacitor::new(26_000.0, 2_600.0),
        Harvester::powercast_noisy(seed),
    )
    .with_boot_jitter(seed ^ 0x9E37, 0.4)
}

/// Builds `bench` for `model`, choosing the annotated or atomics-only
/// source as appropriate.
///
/// # Panics
///
/// Panics if the benchmark fails to build — covered by `ocelot-apps`
/// tests.
pub fn build_for(bench: &Benchmark, model: ExecModel) -> Built {
    let program = match model {
        ExecModel::AtomicsOnly => bench.atomics_only(),
        _ => bench.annotated(),
    };
    build(program, model).unwrap_or_else(|e| panic!("{} ({:?}): {e}", bench.name, model))
}

/// Wraps every statement of `main` in one region by rewriting the
/// source — §5.3's trivially-correct placement
/// (`startatom; FD(main); endatom`), used as the naive-programmer
/// baseline in the region-size and forward-progress ablations.
///
/// # Panics
///
/// Panics if `src` has no `fn main()` or fails to compile after
/// wrapping (the apps' uniform formatting guarantees both).
pub(crate) fn whole_main_variant(src: &str) -> ocelot_ir::Program {
    let marker = "fn main() {";
    let start = src.rfind(marker).expect("main exists") + marker.len();
    let end = src.trim_end().rfind('}').expect("closing brace");
    let mut out = String::new();
    out.push_str(&src[..start]);
    out.push_str("\natomic {\n");
    out.push_str(&src[start..end]);
    out.push_str("}\n");
    out.push_str(&src[end..]);
    ocelot_ir::compile(&out).expect("wrapped source compiles")
}

/// How one cell exercises its machine — the four measurement modes the
/// paper's evaluation sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `runs` back-to-back executions on continuous power (Figure 7);
    /// asserts every run completes.
    Continuous {
        /// Number of program runs.
        runs: u64,
    },
    /// `runs` executions on the harvested bench supply (Figure 8);
    /// asserts every run completes.
    Intermittent {
        /// Number of program runs.
        runs: u64,
    },
    /// `runs` executions on the harvested bench supply without
    /// completion assertions — for comparison models (TICS expiry
    /// restarts) that may legitimately give up mid-run.
    Harvested {
        /// Number of program runs.
        runs: u64,
    },
    /// Run repeatedly for a simulated wall-clock budget (Table 2(b)).
    Duration {
        /// Simulated wall-clock budget in µs.
        sim_us: u64,
    },
    /// `runs` executions with pathological failures injected at the
    /// policy-critical points (Table 2(a)); asserts completion.
    Pathological {
        /// Number of program runs.
        runs: u64,
    },
}

/// One evaluation cell: everything needed to reproduce one measurement
/// independently of every other cell (each cell builds its own program
/// and machine, so cells share no mutable state across workers).
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Benchmark name (resolved via [`ocelot_apps::by_name`]).
    pub(crate) bench: String,
    /// Execution model to build.
    pub(crate) model: ExecModel,
    /// Environment/harvester seed.
    pub(crate) seed: u64,
    /// Measurement mode.
    pub(crate) workload: Workload,
    /// When set, attach a TICS-style expiry window of this many µs
    /// (with restart mitigation) to the machine.
    pub(crate) expiry_window_us: Option<u64>,
    /// Execution engine the cell's machine runs on. Backends are
    /// observationally identical (the differential suite holds them to
    /// the same stats), so this only changes how fast the cell
    /// simulates — but artifacts record it for provenance.
    pub(crate) backend: ExecBackend,
    /// When set, the cell's environment and power supply come from this
    /// scenario (an [`ocelot_scenario::parse`] spec, reseeded with the
    /// cell seed) instead of the benchmark's default world and the
    /// standard bench supply. Scenario cells never assert completion —
    /// a harsh regime legitimately starves runs — and
    /// [`Workload::Pathological`] keeps continuous power so the
    /// injector's targeted failures stay the only failures.
    pub(crate) scenario: Option<String>,
}

impl CellSpec {
    /// A cell with no expiry window, on the interpreter backend.
    pub fn new(bench: &str, model: ExecModel, seed: u64, workload: Workload) -> Self {
        CellSpec {
            bench: bench.to_string(),
            model,
            seed,
            workload,
            expiry_window_us: None,
            backend: ExecBackend::Interp,
            scenario: None,
        }
    }

    /// Selects the execution backend (builder-style).
    pub(crate) fn with_backend(mut self, backend: ExecBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Binds the cell to a named scenario (builder-style).
    pub(crate) fn with_scenario(mut self, scenario: &str) -> Self {
        self.scenario = Some(scenario.to_string());
        self
    }
}

/// Everything one cell produced: the accumulated [`Stats`] and the
/// committed observation trace (for `--traces` artifacts and the
/// backend-differential suites).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CellRun {
    /// Accumulated statistics, as [`run_cell`] returns.
    pub(crate) stats: Stats,
    /// The committed [`Obs`] trace of every run of the cell.
    pub(crate) trace: Vec<Obs>,
}

/// Runs one cell to completion and returns its stats *and* committed
/// observation trace.
///
/// # Panics
///
/// Panics if the benchmark or scenario name is unknown, the build
/// fails, or an asserting workload fails to complete.
pub(crate) fn run_cell_full(spec: &CellSpec) -> CellRun {
    let b = ocelot_apps::by_name(&spec.bench)
        .unwrap_or_else(|| panic!("unknown benchmark `{}`", spec.bench));
    let built = build_for(&b, spec.model);
    let scenario = spec.scenario.as_deref().map(|s| {
        ocelot_scenario::parse(s)
            .unwrap_or_else(|e| panic!("cell scenario: {e}"))
            .reseeded(spec.seed)
    });
    let env = match &scenario {
        Some(sc) => sc.environment(),
        None => b.environment(spec.seed),
    };
    let pathological = matches!(spec.workload, Workload::Pathological { .. });
    let supply: Box<dyn PowerSupply> = if pathological
        || (scenario.is_none() && matches!(spec.workload, Workload::Continuous { .. }))
    {
        Box::new(ContinuousPower)
    } else {
        match &scenario {
            Some(sc) => sc.supply(),
            None => Box::new(bench_supply(spec.seed)),
        }
    };
    // Harvested never asserts; neither do expiry-window comparisons
    // (TICS may give up mid-run) nor scenario cells (a harsh regime may
    // starve runs).
    let assert_complete = spec.expiry_window_us.is_none()
        && scenario.is_none()
        && !matches!(spec.workload, Workload::Harvested { .. });
    let mut m = Machine::new(
        &built.program,
        &built.regions,
        built.policies.clone(),
        env,
        calibrated_costs(&b),
        supply,
    )
    .with_backend(spec.backend);
    if pathological {
        m = m.with_injector(pathological_targets(&built.policies));
    }
    if let Some(w) = spec.expiry_window_us {
        m = m.with_expiry_window(w);
    }
    match spec.workload {
        Workload::Duration { sim_us } => {
            m.run_for(sim_us, MAX_STEPS);
        }
        Workload::Continuous { runs }
        | Workload::Intermittent { runs }
        | Workload::Harvested { runs }
        | Workload::Pathological { runs } => {
            for _ in 0..runs {
                let out = m.run_once(MAX_STEPS);
                if assert_complete {
                    assert!(
                        matches!(out, RunOutcome::Completed { .. }),
                        "{} did not complete under {:?}",
                        spec.bench,
                        spec.workload
                    );
                }
            }
        }
    }
    CellRun {
        stats: m.stats().clone(),
        trace: m.take_trace(),
    }
}

/// Runs one cell to completion and returns its accumulated stats.
///
/// # Panics
///
/// As for `run_cell_full`.
pub fn run_cell(spec: &CellSpec) -> Stats {
    run_cell_full(spec).stats
}

/// Runs every cell through the work-stealing pool with `jobs` workers
/// and returns the stats in input order (deterministic at any width).
pub fn run_cells(specs: &[CellSpec], jobs: usize) -> Vec<Stats> {
    let work: Vec<Job<'_, Stats>> = specs
        .iter()
        .map(|spec| Box::new(move || run_cell(spec)) as Job<'_, Stats>)
        .collect();
    pool::run_jobs(work, jobs)
}

/// As [`run_cells`], but keeping each cell's observation trace — the
/// `--traces` collection path.
pub(crate) fn run_cells_full(specs: &[CellSpec], jobs: usize) -> Vec<CellRun> {
    let work: Vec<Job<'_, CellRun>> = specs
        .iter()
        .map(|spec| Box::new(move || run_cell_full(spec)) as Job<'_, CellRun>)
        .collect();
    pool::run_jobs(work, jobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(bench: &str, model: ExecModel, seed: u64, workload: Workload) -> Stats {
        run_cell(&CellSpec::new(bench, model, seed, workload))
    }

    #[test]
    fn continuous_runs_complete_for_all_models() {
        for b in ocelot_apps::all() {
            for model in [ExecModel::Jit, ExecModel::Ocelot, ExecModel::AtomicsOnly] {
                let s = cell(b.name, model, 7, Workload::Continuous { runs: 2 });
                assert_eq!(s.runs_completed, 2, "{} {:?}", b.name, model);
                assert_eq!(s.reboots, 0, "continuous power never fails");
            }
        }
    }

    #[test]
    fn ocelot_overhead_is_small_but_nonzero() {
        let runs = Workload::Continuous { runs: 10 };
        let jit = cell("greenhouse", ExecModel::Jit, 7, runs);
        let oce = cell("greenhouse", ExecModel::Ocelot, 7, runs);
        let ratio = oce.on_cycles as f64 / jit.on_cycles as f64;
        assert!(ratio > 1.0, "regions cost something: {ratio}");
        assert!(ratio < 1.3, "but not much: {ratio}");
    }

    #[test]
    fn pathological_violates_jit_not_ocelot() {
        for b in ocelot_apps::all() {
            let runs = Workload::Pathological { runs: 3 };
            let s = cell(b.name, ExecModel::Jit, 9, runs);
            assert!(
                s.runs_with_violation > 0,
                "{}: JIT must violate under targeted failures",
                b.name
            );
            let s = cell(b.name, ExecModel::Ocelot, 9, runs);
            assert_eq!(
                s.runs_with_violation, 0,
                "{}: Ocelot must survive targeted failures",
                b.name
            );
        }
    }

    #[test]
    fn parallel_sweep_matches_serial_sweep() {
        let mut specs = Vec::new();
        for bench in ["greenhouse", "photo"] {
            for model in ExecModel::all() {
                specs.push(CellSpec::new(
                    bench,
                    model,
                    5,
                    Workload::Continuous { runs: 2 },
                ));
            }
        }
        let serial = run_cells(&specs, 1);
        let parallel = run_cells(&specs, 4);
        assert_eq!(serial, parallel, "worker count must not leak into stats");
    }

    #[test]
    fn compiled_backend_cells_match_interpreter_cells() {
        for workload in [
            Workload::Continuous { runs: 2 },
            Workload::Intermittent { runs: 2 },
            Workload::Pathological { runs: 2 },
        ] {
            let spec = CellSpec::new("greenhouse", ExecModel::Ocelot, 7, workload);
            let interp = run_cell(&spec);
            let compiled = run_cell(&spec.clone().with_backend(ExecBackend::Compiled));
            assert_eq!(interp, compiled, "{workload:?}");
        }
    }

    #[test]
    fn extended_apps_pathological_violates_jit_not_ocelot() {
        // The paper's Table 2(a) property must extend to the new
        // workloads: targeted failures at policy-critical points break
        // JIT and never break Ocelot.
        for b in ocelot_apps::extended() {
            let runs = Workload::Pathological { runs: 3 };
            let s = cell(b.name, ExecModel::Jit, 9, runs);
            assert!(
                s.runs_with_violation > 0,
                "{}: JIT must violate under targeted failures",
                b.name
            );
            let s = cell(b.name, ExecModel::Ocelot, 9, runs);
            assert_eq!(
                s.runs_with_violation, 0,
                "{}: Ocelot must survive targeted failures",
                b.name
            );
        }
    }

    #[test]
    fn scenario_cells_resolve_env_and_supply_from_the_registry() {
        // A scenario cell must differ from the default-world cell (the
        // whole point of binding one), and re-running it must reproduce
        // stats *and* trace exactly.
        let spec = CellSpec::new(
            "radiolog",
            ExecModel::Ocelot,
            7,
            Workload::Harvested { runs: 2 },
        )
        .with_scenario("brownout");
        let a = run_cell_full(&spec);
        let b = run_cell_full(&spec);
        assert_eq!(a, b, "scenario cells are deterministic");
        let default = run_cell_full(&CellSpec::new(
            "radiolog",
            ExecModel::Ocelot,
            7,
            Workload::Harvested { runs: 2 },
        ));
        assert_ne!(
            a.stats, default.stats,
            "the scenario supply/world must actually be in effect"
        );
        // Seed goes through the scenario: a seeded spec string behaves
        // like the cell seed 9 (spec seed wins over the string's).
        let seeded = run_cell_full(&spec.clone()).stats;
        let via_string = CellSpec {
            scenario: Some("brownout@999".into()),
            ..spec
        };
        assert_eq!(
            run_cell_full(&via_string).stats,
            seeded,
            "cell seed overrides any seed in the scenario spec"
        );
    }

    #[test]
    fn scenario_cells_match_across_backends_in_stats_and_obs() {
        // The acceptance criterion: identical Stats *and* Obs across
        // interp vs compiled, for every extension app under a scenario.
        for bench in ["fusion", "radiolog", "mlinfer"] {
            for scenario in ["rf-noisy", "cold-start"] {
                let spec =
                    CellSpec::new(bench, ExecModel::Ocelot, 5, Workload::Harvested { runs: 2 })
                        .with_scenario(scenario);
                let interp = run_cell_full(&spec);
                let compiled = run_cell_full(&spec.clone().with_backend(ExecBackend::Compiled));
                assert_eq!(
                    interp.stats, compiled.stats,
                    "{bench}/{scenario}: stats diverged across backends"
                );
                assert_eq!(
                    interp.trace, compiled.trace,
                    "{bench}/{scenario}: traces diverged across backends"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "unknown scenario")]
    fn unknown_scenario_cells_fail_loudly() {
        run_cell(
            &CellSpec::new(
                "fusion",
                ExecModel::Ocelot,
                1,
                Workload::Harvested { runs: 1 },
            )
            .with_scenario("no-such-regime"),
        );
    }

    #[test]
    fn intermittent_power_charges_most_of_the_time() {
        let s = cell(
            "photo",
            ExecModel::Ocelot,
            3,
            Workload::Intermittent { runs: 5 },
        );
        assert!(s.reboots > 0, "harvested power must fail");
        assert!(
            s.off_time_us > s.on_time_us,
            "charging dominates: on={} off={}",
            s.on_time_us,
            s.off_time_us
        );
    }
}
