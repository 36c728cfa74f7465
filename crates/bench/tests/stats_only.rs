//! Stats-only machines against traced ones.
//!
//! [`MachineCore::build`] makes a stats-only core: its machines build
//! no observation trace, and the compiled engine evaluates every store,
//! argument, return and output by value only. [`MachineCore::traced`]
//! turns recording and dependency tracking back on. Nothing a caller
//! reads from a stats-only machine may differ: the serialized [`Stats`]
//! bytes, every run's [`RunOutcome`], the probed-check count and the
//! non-volatile scalar write count must equal the traced machine's, on
//! both engines, for the nine apps under continuous power, the
//! evaluation's harvested bank and every registry scenario, with the
//! pathological injector (whose machines compile privately) and with a
//! TICS expiry window, and for generated programs.

use ocelot_bench::genprog::SourceGen;
use ocelot_bench::harness::{bench_supply, build_for, calibrated_costs};
use ocelot_core::{PolicySet, RegionInfo};
use ocelot_hw::energy::CostModel;
use ocelot_hw::power::{ContinuousPower, HarvestedPower, PowerSupply, ScriptedPower};
use ocelot_hw::sensors::{Environment, Signal};
use ocelot_hw::{Capacitor, Harvester};
use ocelot_ir::Program;
use ocelot_runtime::machine::{
    pathological_targets, DeviceState, Machine, MachineCore, RunOutcome,
};
use ocelot_runtime::model::ExecModel;
use ocelot_runtime::stats::stats_to_json;
use ocelot_runtime::{ExecBackend, Stats};
use std::sync::Arc;

/// Step budget per run, the differential suite's. Every app run and
/// most generated programs finish far below it; it bounds the generated
/// loops that never exit.
const MAX_STEPS: u64 = 200_000;

/// Runs per app cell: enough for the harvested supplies to drain.
const APP_RUNS: u64 = 12;

/// TICS expiry window, in µs, of the cells that enable one.
const WINDOW_US: u64 = 10_000;

/// Builds a fresh supply for each machine of a cell.
type MakeSupply<'a> = &'a dyn Fn() -> Box<dyn PowerSupply>;

/// Everything a stats-only caller can read from a machine.
#[derive(Debug, PartialEq)]
struct Observed {
    outcomes: Vec<RunOutcome>,
    stats_json: String,
    checks_probed: u64,
    nv_scalar_writes: u64,
}

/// How one cell's machines are armed.
#[derive(Debug, Clone, Copy)]
struct Mode {
    inject: bool,
    window: bool,
}

const PLAIN: Mode = Mode {
    inject: false,
    window: false,
};
const INJECT: Mode = Mode {
    inject: true,
    window: false,
};
const WINDOW: Mode = Mode {
    inject: false,
    window: true,
};

fn observe(
    core: &Arc<MachineCore<'_>>,
    env: Environment,
    supply: Box<dyn PowerSupply>,
    backend: ExecBackend,
    runs: u64,
    mode: Mode,
) -> (Observed, Stats) {
    let mut m = Machine::from_core(Arc::clone(core), DeviceState::default(), env, supply)
        .with_backend(backend);
    if mode.inject {
        let targets = pathological_targets(m.policies());
        m = m.with_injector(targets);
    }
    if mode.window {
        m = m.with_expiry_window(WINDOW_US);
    }
    let outcomes = (0..runs).map(|_| m.run_once(MAX_STEPS)).collect();
    let observed = Observed {
        outcomes,
        stats_json: stats_to_json(m.stats()).render().expect("stats render"),
        checks_probed: m.checks_probed(),
        nv_scalar_writes: m.nv_scalar_writes(),
    };
    (observed, m.stats().clone())
}

/// Runs one cell on a stats-only and a traced core, on both engines,
/// and requires all four machines to agree. Returns the traced
/// interpreter's counters, so callers can check the cells reached the
/// paths they exercise.
#[allow(clippy::too_many_arguments)]
fn agree(
    at: &str,
    p: &Program,
    regions: &[RegionInfo],
    policies: &PolicySet,
    env: &Environment,
    costs: &CostModel,
    supply: MakeSupply<'_>,
    runs: u64,
    mode: Mode,
) -> Stats {
    let build = || MachineCore::build(p, regions, policies.clone(), env, costs.clone());
    let stats_only = Arc::new(build());
    let traced = Arc::new(build().traced());
    assert!(!stats_only.is_traced() && traced.is_traced());
    let run = |core, backend| observe(core, env.clone(), supply(), backend, runs, mode);
    let (oracle, stats) = run(&traced, ExecBackend::Interp);
    for (kind, core, backend) in [
        ("traced", &traced, ExecBackend::Compiled),
        ("stats-only", &stats_only, ExecBackend::Interp),
        ("stats-only", &stats_only, ExecBackend::Compiled),
    ] {
        assert_eq!(
            run(core, backend).0,
            oracle,
            "{at} {mode:?}: {kind} {} diverged from the traced interpreter",
            backend.name()
        );
    }
    stats
}

/// Sums the counters that show which paths a sweep reached.
#[derive(Debug, Default)]
struct Reached {
    reboots: u64,
    region_reexecs: u64,
    violations: u64,
    expiry_restarts: u64,
}

impl Reached {
    fn add(&mut self, s: &Stats) {
        self.reboots += s.reboots;
        self.region_reexecs += s.region_reexecs;
        self.violations += s.violations;
        self.expiry_restarts += s.expiry_restarts;
    }

    fn assert_all(&self) {
        assert!(
            self.reboots > 0
                && self.region_reexecs > 0
                && self.violations > 0
                && self.expiry_restarts > 0,
            "the sweep reached reboots, rollbacks, violations and TICS restarts: {self:?}"
        );
    }
}

// ---------------------------------------------------------------------
// Apps
// ---------------------------------------------------------------------

#[test]
fn apps_agree_on_continuous_power_and_the_bank() {
    let mut reached = Reached::default();
    for b in ocelot_apps::all_with_extensions() {
        for model in [ExecModel::Jit, ExecModel::Ocelot] {
            let built = build_for(&b, model);
            let env = b.environment(7);
            let costs = calibrated_costs(&b);
            let continuous = || Box::new(ContinuousPower) as Box<dyn PowerSupply>;
            let bank = || Box::new(bench_supply(7)) as Box<dyn PowerSupply>;
            let supplies: [(&str, MakeSupply<'_>); 2] =
                [("continuous", &continuous), ("bank", &bank)];
            for (name, supply) in supplies {
                for mode in [PLAIN, INJECT, WINDOW] {
                    let stats = agree(
                        &format!("{} {} on {name}", b.name, model.name()),
                        &built.program,
                        &built.regions,
                        &built.policies,
                        &env,
                        &costs,
                        supply,
                        APP_RUNS,
                        mode,
                    );
                    reached.add(&stats);
                }
            }
        }
    }
    reached.assert_all();
}

#[test]
fn apps_agree_on_every_registry_scenario() {
    let mut reached = Reached::default();
    for b in ocelot_apps::all_with_extensions() {
        let built = build_for(&b, ExecModel::Ocelot);
        for (i, sc) in ocelot_scenario::all().into_iter().enumerate() {
            let sc = sc.reseeded(40 + i as u64);
            let stats = agree(
                &format!("{} on {}", b.name, sc.name),
                &built.program,
                &built.regions,
                &built.policies,
                &sc.environment(),
                &CostModel::default(),
                &|| sc.supply(),
                APP_RUNS,
                PLAIN,
            );
            reached.add(&stats);
        }
    }
    assert!(
        reached.reboots > 100 && reached.region_reexecs > 0,
        "the registry failed often enough to matter: {reached:?}"
    );
}

// ---------------------------------------------------------------------
// Generated programs
// ---------------------------------------------------------------------

/// Generated program `seed` on three supplies, one mode each — plain,
/// with the injector (when the policies give it targets) or with a
/// TICS window — rotating with the seed, so consecutive seeds run
/// every mode on every supply.
fn generated_program_agrees(seed: u64, reached: &mut Reached) {
    let src = SourceGen::generate(seed);
    let p = ocelot_ir::compile(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
    let regions =
        ocelot_core::collect_regions(&p).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
    let taint = ocelot_analysis::taint::TaintAnalysis::run(&p);
    let policies = ocelot_core::build_policies(&p, &taint);
    let env = Environment::new()
        .with(
            "s0",
            Signal::Noisy {
                base: Box::new(Signal::Constant(15)),
                amplitude: 6,
                seed,
            },
        )
        .with("s1", Signal::Constant(4));
    let budgets: Vec<f64> = (0..4)
        .map(|i| (100 + (seed.rotate_left(i * 7) % 90) * (1 + seed % 40)) as f64)
        .collect();
    let continuous = || Box::new(ContinuousPower) as Box<dyn PowerSupply>;
    let scripted = || Box::new(ScriptedPower::new(budgets.clone(), 700)) as Box<dyn PowerSupply>;
    let reseeded = || {
        Box::new(
            HarvestedPower::new(
                Capacitor::new(26_000.0, 2_600.0),
                Harvester::powercast_noisy(0xDEAD).reseeded(seed),
            )
            .with_boot_jitter(seed ^ 0x9E37, 0.4),
        ) as Box<dyn PowerSupply>
    };
    let supplies: [(&str, MakeSupply<'_>); 3] = [
        ("continuous", &continuous),
        ("scripted", &scripted),
        ("reseeded", &reseeded),
    ];
    let modes = [PLAIN, INJECT, WINDOW];
    let can_inject = !pathological_targets(&policies).is_empty();
    for (k, (name, supply)) in supplies.into_iter().enumerate() {
        let mode = modes[(seed as usize + k) % modes.len()];
        if mode.inject && !can_inject {
            continue;
        }
        let stats = agree(
            &format!("seed {seed} on {name}\n{src}\n"),
            &p,
            &regions,
            &policies,
            &env,
            &CostModel::default(),
            supply,
            2,
            mode,
        );
        reached.add(&stats);
    }
}

fn generated_programs_agree_over(seeds: std::ops::Range<u64>) {
    let mut reached = Reached::default();
    for seed in seeds {
        generated_program_agrees(seed, &mut reached);
    }
    reached.assert_all();
}

#[test]
fn generated_programs_agree() {
    generated_programs_agree_over(0..200);
}

/// The long sweep; run it in release:
/// `cargo test --release -p ocelot-bench --test stats_only -- --ignored`.
#[test]
#[ignore = "3,000-seed sweep; run in release"]
fn generated_programs_agree_long_sweep() {
    generated_programs_agree_over(0..3000);
}

// ---------------------------------------------------------------------
// The trace is opt-in
// ---------------------------------------------------------------------

#[test]
#[should_panic(expected = "MachineCore::traced")]
fn take_trace_panics_on_a_stats_only_machine() {
    let p = ocelot_ir::compile("sensor s; fn main() { let x = in(s); out(log, x); }").unwrap();
    let env = Environment::new().with("s", Signal::Constant(3));
    let core = MachineCore::build(&p, &[], PolicySet::default(), &env, CostModel::default());
    let mut m = Machine::from_core(
        Arc::new(core),
        DeviceState::default(),
        env,
        Box::new(ContinuousPower),
    );
    m.run_once(MAX_STEPS);
    m.take_trace();
}
