//! Oracle-equivalence and determinism suite for the fleet engine.
//!
//! The per-cell harness ([`ocelot_bench::harness::run_cells`]) is the
//! oracle: each fleet device `i` is, by construction, the cell
//! [`FleetSpec::device_spec`] describes, so folding the oracle's
//! per-cell stats into per-scenario aggregates must equal the fleet
//! path **exactly** — same summed counters, same reboot and freshness
//! histograms — on both execution backends, at any worker count,
//! whether the read-only machine core is shared across workers or
//! rebuilt inside each one.
//!
//! The fleet's cores are stats-only (`MachineCore::build`) while the
//! harness runs each cell on a traced machine (`Machine::new`), so this
//! suite also holds a stats-only sweep to traced per-cell runs — the
//! same property `stats_only.rs` checks machine by machine.

use ocelot_bench::fleet::{fleet_artifact, run_fleet, FleetAggregate, FleetOpts, FleetSpec};
use ocelot_bench::harness::{build_for, calibrated_costs, run_cells, MAX_STEPS};
use ocelot_hw::sensors::{Environment, Signal};
use ocelot_runtime::machine::{DeviceState, Machine, MachineCore, RunOutcome};
use ocelot_runtime::model::ExecModel;
use ocelot_runtime::stats::stats_to_json;
use ocelot_runtime::ExecBackend;
use proptest::prelude::*;
use std::sync::Arc;

/// All registry scenario names, for strategy indexing.
fn scenario_names() -> Vec<String> {
    ocelot_scenario::all()
        .iter()
        .map(|s| s.name.to_string())
        .collect()
}

/// The oracle: run every device as an independent harness cell and fold
/// the per-cell stats into per-scenario aggregates the same way the
/// fleet path does.
fn oracle_fold(spec: &FleetSpec, jobs: usize) -> Vec<FleetAggregate> {
    let cells: Vec<_> = (0..spec.devices).map(|i| spec.device_spec(i)).collect();
    let stats = run_cells(&cells, jobs);
    let mut aggs: Vec<FleetAggregate> = spec
        .scenarios
        .iter()
        .map(|s| FleetAggregate::new(s))
        .collect();
    for (i, s) in stats.iter().enumerate() {
        aggs[i % spec.scenarios.len()].record(s);
    }
    aggs
}

fn spec_with(backend: ExecBackend, scenarios: Vec<String>, devices: u64, seed0: u64) -> FleetSpec {
    FleetSpec {
        bench: "tire".into(),
        model: ExecModel::Ocelot,
        scenarios,
        devices,
        seed0,
        runs: 1,
        backend,
        opt: ocelot_runtime::OptLevel::O2,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For random small fleets, the fleet aggregates exactly equal the
    /// fold of per-cell harness results — on both backends — and the
    /// two backends agree with each other.
    #[test]
    fn fleet_aggregates_equal_the_per_cell_oracle(
        picks in proptest::collection::vec(0usize..9, 1..=3),
        devices in 1u64..=10,
        seed0 in 0u64..1_000,
        runs in 1u64..=2,
    ) {
        let names = scenario_names();
        let scenarios: Vec<String> = picks.iter().map(|&i| names[i].clone()).collect();
        let mut per_backend = Vec::new();
        for backend in [ExecBackend::Interp, ExecBackend::Compiled] {
            let mut spec = spec_with(backend, scenarios.clone(), devices, seed0);
            spec.runs = runs;
            let fleet = run_fleet(&spec, FleetOpts { jobs: 2, share_core: true });
            let oracle = oracle_fold(&spec, 2);
            prop_assert_eq!(&fleet, &oracle, "fleet != oracle on {:?}", backend);
            per_backend.push(fleet);
        }
        // Backend parity: the compiled engine's aggregates are the
        // interpreter's, bit for bit.
        prop_assert_eq!(&per_backend[0], &per_backend[1]);
    }
}

/// A fixed mid-size fleet across the whole registry for the
/// determinism checks: enough devices that every scenario gets several,
/// with chunking actually splitting the index range.
fn determinism_spec(backend: ExecBackend) -> FleetSpec {
    spec_with(backend, scenario_names(), 45, 7)
}

#[test]
fn fleet_artifacts_are_byte_identical_across_jobs() {
    let spec = determinism_spec(ExecBackend::Compiled);
    let mut texts = Vec::new();
    for jobs in [1usize, 2, 8] {
        let aggs = run_fleet(
            &spec,
            FleetOpts {
                jobs,
                share_core: true,
            },
        );
        texts.push(fleet_artifact(&spec, &aggs).render().unwrap());
    }
    assert_eq!(texts[0], texts[1], "--jobs 1 vs 2 changed the artifact");
    assert_eq!(texts[0], texts[2], "--jobs 1 vs 8 changed the artifact");
}

#[test]
fn shared_and_per_worker_cores_give_byte_identical_artifacts() {
    let spec = determinism_spec(ExecBackend::Compiled);
    let shared = run_fleet(
        &spec,
        FleetOpts {
            jobs: 4,
            share_core: true,
        },
    );
    let rebuilt = run_fleet(
        &spec,
        FleetOpts {
            jobs: 4,
            share_core: false,
        },
    );
    assert_eq!(
        fleet_artifact(&spec, &shared).render().unwrap(),
        fleet_artifact(&spec, &rebuilt).render().unwrap(),
        "sharing the read-only core across workers changed results"
    );
}

#[test]
fn backends_agree_on_a_full_registry_fleet() {
    let interp = run_fleet(
        &determinism_spec(ExecBackend::Interp),
        FleetOpts {
            jobs: 4,
            share_core: true,
        },
    );
    let compiled = run_fleet(
        &determinism_spec(ExecBackend::Compiled),
        FleetOpts {
            jobs: 4,
            share_core: true,
        },
    );
    // Aggregates match except for the recorded backend, which lives in
    // the artifact config, not the aggregates — so exact equality.
    assert_eq!(interp, compiled);
    // And the fleet did real work: devices distributed round-robin,
    // every scenario's histogram populated.
    assert_eq!(interp.len(), 9);
    let total: u64 = interp.iter().map(|a| a.devices).sum();
    assert_eq!(total, 45);
    for agg in &interp {
        assert_eq!(agg.reboots_hist.total(), agg.devices);
        assert_eq!(agg.fresh_hist.total(), agg.devices);
        assert!(
            agg.stats.on_cycles > 0,
            "{} simulated nothing",
            agg.scenario
        );
    }
}

#[test]
fn fleet_artifact_round_trips_through_the_schema() {
    let spec = determinism_spec(ExecBackend::Compiled);
    let aggs = run_fleet(
        &spec,
        FleetOpts {
            jobs: 2,
            share_core: true,
        },
    );
    let a = fleet_artifact(&spec, &aggs);
    let reloaded = ocelot_bench::artifact::Artifact::from_text(&a.render().unwrap()).unwrap();
    let back: Vec<FleetAggregate> = reloaded
        .cells
        .iter()
        .map(|c| FleetAggregate::from_cell(c).unwrap())
        .collect();
    assert_eq!(back, aggs);
}

/// Stats bytes and run outcomes of `runs` runs of one device in `env`,
/// powered by `sc`'s supply, on `core`.
fn device_on(
    core: &Arc<MachineCore<'_>>,
    env: &Environment,
    sc: &ocelot_scenario::Scenario,
    backend: ExecBackend,
    runs: u64,
) -> (String, Vec<RunOutcome>) {
    let mut m = Machine::from_core(
        Arc::clone(core),
        DeviceState::default(),
        env.clone(),
        sc.supply(),
    )
    .with_backend(backend);
    let outcomes = (0..runs).map(|_| m.run_once(MAX_STEPS)).collect();
    (stats_to_json(m.stats()).render().unwrap(), outcomes)
}

/// A sweep builds its first scenario's core and derives the others with
/// `MachineCore::for_environment`. Each derived core must run every
/// device exactly as a core built from scratch against that environment
/// does: the nine apps on every registry scenario, on both engines. The
/// cores derive from one built against the first scenario's channels
/// declared in reverse order, so a channel index carried over from the
/// first core reads the wrong sensor. A traced core's derivations stay
/// traced.
#[test]
fn cores_derived_per_scenario_equal_fresh_builds() {
    let scenarios = ocelot_scenario::all();
    for b in ocelot_apps::all_with_extensions() {
        let built = build_for(&b, ExecModel::Ocelot);
        let build = |env: &Environment| {
            MachineCore::build(
                &built.program,
                &built.regions,
                built.policies.clone(),
                env,
                calibrated_costs(&b),
            )
        };
        let reversed = scenarios[0]
            .environment()
            .channels()
            .into_iter()
            .rev()
            .fold(Environment::new(), |env, ch| {
                env.with(ch, Signal::Constant(0))
            });
        let first = build(&reversed);
        for sc in &scenarios {
            let env = sc.environment();
            let derived = Arc::new(first.for_environment(&env));
            let fresh = Arc::new(build(&env));
            assert!(!derived.is_traced());
            for backend in [ExecBackend::Interp, ExecBackend::Compiled] {
                assert_eq!(
                    device_on(&derived, &env, sc, backend, 3),
                    device_on(&fresh, &env, sc, backend, 3),
                    "{} on {} ({backend:?})",
                    b.name,
                    sc.name
                );
            }
        }
        let traced = build(&scenarios[0].environment()).traced();
        assert!(traced
            .for_environment(&scenarios[1].environment())
            .is_traced());
    }
}
