//! DeviceState recycling under fleet reuse: a pooled [`DeviceState`]
//! carried from one device to the next must leave **no residue** — the
//! recycled machine's stats must equal a fresh machine's bit for bit,
//! even when the previous occupant ran a harvester schedule, a trace
//! harvester, a reseeded world, or thrashed through hundreds of
//! TICS-style mitigation restarts (extending the 200-restart regression
//! in `ocelot-runtime`'s machine tests to the pooled-reuse path).

use ocelot_bench::harness::{build_for, calibrated_costs};
use ocelot_hw::energy::CostModel;
use ocelot_hw::power::{ContinuousPower, ScriptedPower};
use ocelot_hw::sensors::{Environment, Signal};
use ocelot_runtime::model::ExecModel;
use ocelot_runtime::stats::Stats;
use ocelot_runtime::{DeviceState, ExecBackend, Machine, MachineCore, MAX_STEPS};
use std::sync::Arc;

/// Runs `runs` harvested program attempts of `scenario_spec` (an
/// `ocelot_scenario::parse` string) at `seed` on `core`, starting from
/// `dev`, and returns the final stats plus the recyclable state.
fn run_device(
    core: &Arc<MachineCore<'_>>,
    dev: DeviceState,
    scenario_spec: &str,
    seed: u64,
    runs: u64,
    backend: ExecBackend,
) -> (Stats, DeviceState) {
    let sc = ocelot_scenario::parse(scenario_spec)
        .unwrap()
        .reseeded(seed);
    let mut m = Machine::from_core(Arc::clone(core), dev, sc.environment(), sc.supply())
        .with_backend(backend);
    for _ in 0..runs {
        m.run_once(MAX_STEPS);
    }
    let stats = m.stats().clone();
    (stats, m.into_device())
}

/// The built `tire` app plus its benchmark record (the caller keeps
/// the Built alive for the cores that borrow it).
fn tire_parts() -> (ocelot_runtime::Built, ocelot_apps::Benchmark) {
    let b = ocelot_apps::by_name("tire").unwrap();
    let built = build_for(&b, ExecModel::Ocelot);
    (built, b)
}

/// The scenarios exercising every harvester shape the registry has that
/// PR 5's per-cell tests did not pool: a piecewise `Schedule`
/// (brownout), a repeating `Trace` (solar-flicker), and an RF world for
/// contrast.
const REUSE_SCENARIOS: &[&str] = &["brownout", "solar-flicker", "rf-lab"];

#[test]
fn recycled_state_is_invisible_under_schedule_and_trace_harvesters() {
    let (built, b) = tire_parts();
    for backend in [ExecBackend::Interp, ExecBackend::Compiled] {
        for &scenario in REUSE_SCENARIOS {
            let sc = ocelot_scenario::parse(scenario).unwrap();
            let core = Arc::new(MachineCore::build(
                &built.program,
                &built.regions,
                built.policies.clone(),
                &sc.environment(),
                calibrated_costs(&b),
            ));
            // Fresh baseline for device seed 21.
            let (fresh, _) = run_device(&core, DeviceState::default(), scenario, 21, 2, backend);
            // Pollute a DeviceState with two other devices first — a
            // different seed of the same scenario, then a different
            // reseeding again — then recycle it into seed 21.
            let (_, dev) = run_device(&core, DeviceState::default(), scenario, 99, 2, backend);
            let (_, dev) = run_device(&core, dev, scenario, 1_234, 1, backend);
            let (recycled, _) = run_device(&core, dev, scenario, 21, 2, backend);
            assert_eq!(
                fresh, recycled,
                "state bled across devices under {scenario} on {backend:?}"
            );
        }
    }
}

#[test]
fn reseeded_devices_on_one_core_match_their_fresh_machines() {
    // One shared core, one recycled DeviceState walking a seed range —
    // the fleet loop in miniature. Every step must equal the
    // fresh-machine result for that seed.
    let (built, b) = tire_parts();
    let sc = ocelot_scenario::parse("solar-flicker").unwrap();
    let core = Arc::new(MachineCore::build(
        &built.program,
        &built.regions,
        built.policies.clone(),
        &sc.environment(),
        calibrated_costs(&b),
    ));
    let mut dev = DeviceState::default();
    for seed in 40..46 {
        let (fresh, _) = run_device(
            &core,
            DeviceState::default(),
            "solar-flicker",
            seed,
            1,
            ExecBackend::Compiled,
        );
        let (walked, next) =
            run_device(&core, dev, "solar-flicker", seed, 1, ExecBackend::Compiled);
        assert_eq!(fresh, walked, "seed {seed} differs on the recycled walk");
        dev = next;
    }
}

/// The mitigation-restart thrash program from the runtime's 200-restart
/// regression: every power cycle affords the sample but never the use,
/// so a TICS expiry window restarts the run until the per-run cap.
fn thrash_parts() -> (ocelot_ir::Program, ocelot_core::PolicySet) {
    let p = ocelot_ir::compile("sensor s; fn main() { let x = in(s); fresh(x); out(alarm, x); }")
        .unwrap();
    let taint = ocelot_analysis::taint::TaintAnalysis::run(&p);
    let policies = ocelot_core::build_policies(&p, &taint);
    (p, policies)
}

#[test]
fn thrashed_device_state_recycles_clean() {
    let (p, policies) = thrash_parts();
    let env = || Environment::new().with("s", Signal::Constant(5));
    let core = Arc::new(MachineCore::build(
        &p,
        &[],
        policies,
        &env(),
        CostModel::default(),
    ));

    // Fresh baseline: one clean run on continuous power, no window.
    let mut baseline = Machine::from_core(
        Arc::clone(&core),
        DeviceState::default(),
        env(),
        Box::new(ContinuousPower),
    );
    baseline.run_once(1_000_000);
    let fresh = baseline.stats().clone();
    assert_eq!(fresh.runs_completed, 1);
    assert_eq!(fresh.expiry_restarts, 0);

    // Thrash occupant: the PR 5 regression's supply shape, doubled —
    // two consecutive expiry-window machines share the DeviceState,
    // each restarting until its cap, piling hundreds of mitigation
    // restarts and reboots into the pooled allocations.
    let mut dev = DeviceState::default();
    for _ in 0..2 {
        let mut thrasher = Machine::from_core(
            Arc::clone(&core),
            dev,
            env(),
            Box::new(ScriptedPower::new(vec![4_500.0; 200], 100_000)),
        )
        .with_expiry_window(10_000);
        thrasher.run_once(10_000_000);
        assert!(
            thrasher.stats().expiry_restarts >= 25,
            "the occupant really thrashed"
        );
        assert_eq!(thrasher.stats().expiry_giveups, 1);
        dev = thrasher.into_device();
    }

    // Recycle the thrashed state into a clean device: stats must equal
    // the fresh baseline exactly — no leftover restarts, reboots,
    // timestamps, or expiry counters.
    let mut recycled = Machine::from_core(Arc::clone(&core), dev, env(), Box::new(ContinuousPower));
    recycled.run_once(1_000_000);
    assert_eq!(recycled.stats(), &fresh, "thrash residue leaked");
}

#[test]
fn thrash_behaviour_itself_survives_recycling() {
    // The converse direction: a recycled DeviceState must also
    // reproduce the *thrashing* run exactly — mitigation restarts,
    // giveups, and violation counts are per-device, not pool-lifetime.
    let (p, policies) = thrash_parts();
    let env = || Environment::new().with("s", Signal::Constant(5));
    let core = Arc::new(MachineCore::build(
        &p,
        &[],
        policies,
        &env(),
        CostModel::default(),
    ));
    let thrash_once = |dev: DeviceState| {
        let mut m = Machine::from_core(
            Arc::clone(&core),
            dev,
            env(),
            Box::new(ScriptedPower::new(vec![4_500.0; 2_000], 100_000)),
        )
        .with_expiry_window(10_000);
        for _ in 0..8 {
            m.run_once(10_000_000);
        }
        (m.stats().clone(), m.into_device())
    };
    let (fresh, dev) = thrash_once(DeviceState::default());
    assert!(fresh.expiry_restarts >= 100, "the regression shape held");
    let (again, _) = thrash_once(dev);
    assert_eq!(fresh, again, "recycled thrash run diverged");
}
