//! Differential testing of the execution backends: the compiled engine
//! must be observationally indistinguishable from the interpreter —
//! identical [`Stats`] counters, identical committed observation
//! traces, identical [`RunOutcome`] sequences — on the six paper apps
//! and on randomly generated programs, across continuous, scripted, and
//! reseeded-harvester power traces.
//!
//! The random-program generator emits scope-correct `.oc` source from
//! the full statement grammar (locals, globals, arrays, sensors,
//! helpers with by-ref parameters, `repeat`/`while`/`if`, manual
//! `atomic` blocks, `fresh`/`consistent` annotations), so the sweep
//! reaches corners the hand-written apps never hit — empty loops,
//! division by zero, clamped array indices, annotation-free regions.

use ocelot_bench::genprog::SourceGen;
use ocelot_bench::harness::{build_for, calibrated_costs};
use ocelot_hw::energy::CostModel;
use ocelot_hw::power::{ContinuousPower, HarvestedPower, PowerSupply, ScriptedPower};
use ocelot_hw::{Capacitor, Harvester};
use ocelot_runtime::machine::{pathological_targets, Machine, RunOutcome};
use ocelot_runtime::model::ExecModel;
use ocelot_runtime::obs::Obs;
use ocelot_runtime::{ExecBackend, Stats};
use proptest::prelude::*;

const MAX_STEPS: u64 = 200_000;

/// Everything one backend produced for a cell.
#[derive(Debug, PartialEq)]
struct Observed {
    outcomes: Vec<RunOutcome>,
    stats: Stats,
    trace: Vec<Obs>,
}

#[allow(clippy::too_many_arguments)]
fn observe(
    program: &ocelot_ir::Program,
    regions: &[ocelot_core::RegionInfo],
    policies: &ocelot_core::PolicySet,
    env: ocelot_hw::sensors::Environment,
    costs: CostModel,
    supply: Box<dyn PowerSupply>,
    backend: ExecBackend,
    runs: u64,
    inject: bool,
) -> Observed {
    let mut m =
        Machine::new(program, regions, policies.clone(), env, costs, supply).with_backend(backend);
    if inject {
        m = m.with_injector(pathological_targets(policies));
    }
    let outcomes = (0..runs).map(|_| m.run_once(MAX_STEPS)).collect();
    Observed {
        outcomes,
        stats: m.stats().clone(),
        trace: m.take_trace(),
    }
}

/// One supply configuration, reproducible per backend.
#[derive(Debug, Clone)]
enum Supply {
    Continuous,
    Scripted(Vec<f64>),
    /// A reseeded noisy harvester on a Capybara-class bank: both
    /// backends receive `Harvester::reseeded(seed)` of the same base,
    /// so they see one identical harvest trace.
    Reseeded(u64),
}

impl Supply {
    fn build(&self) -> Box<dyn PowerSupply> {
        match self {
            Supply::Continuous => Box::new(ContinuousPower),
            Supply::Scripted(budgets) => Box::new(ScriptedPower::new(budgets.clone(), 700)),
            Supply::Reseeded(seed) => {
                let base = Harvester::powercast_noisy(0xDEAD);
                Box::new(
                    HarvestedPower::new(Capacitor::new(26_000.0, 2_600.0), base.reseeded(*seed))
                        .with_boot_jitter(seed ^ 0x9E37, 0.4),
                )
            }
        }
    }
}

// ---------------------------------------------------------------------
// Paper apps
// ---------------------------------------------------------------------

#[test]
fn backends_agree_on_all_six_paper_apps() {
    for b in ocelot_apps::all() {
        for model in ExecModel::all() {
            let built = build_for(&b, model);
            for (supply, runs, inject) in [
                (Supply::Continuous, 2, false),
                (Supply::Continuous, 2, true),
                (Supply::Reseeded(7), 2, false),
            ] {
                let mk = |backend| {
                    observe(
                        &built.program,
                        &built.regions,
                        &built.policies,
                        b.environment(7),
                        calibrated_costs(&b),
                        supply.build(),
                        backend,
                        runs,
                        inject,
                    )
                };
                let interp = mk(ExecBackend::Interp);
                let compiled = mk(ExecBackend::Compiled);
                assert_eq!(
                    interp, compiled,
                    "{} {:?} diverged under {supply:?} (inject={inject})",
                    b.name, model
                );
                assert!(
                    interp.stats.instructions > 0,
                    "{}: the cell actually simulated",
                    b.name
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Generated programs
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The acceptance property: for random programs and random power
    /// traces, the two backends produce identical counters, traces, and
    /// outcome sequences — with and without pathological injection.
    #[test]
    fn backends_agree_on_generated_programs(
        seed in any::<u64>(),
        budget_count in 0usize..5,
        budget_scale in 1u64..80,
        inject in 0u32..2,
    ) {
        let src = SourceGen::generate(seed);
        let program = match ocelot_ir::compile(&src) {
            Ok(p) => p,
            Err(e) => return Err(TestCaseError::fail(format!("generator bug: {e}\n{src}"))),
        };
        let regions = match ocelot_core::collect_regions(&program) {
            Ok(r) => r,
            Err(e) => return Err(TestCaseError::fail(format!("generator bug: {e}\n{src}"))),
        };
        let taint = ocelot_analysis::taint::TaintAnalysis::run(&program);
        let policies = ocelot_core::build_policies(&program, &taint);
        let inject = inject == 1 && !pathological_targets(&policies).is_empty();

        let budgets: Vec<f64> = (0..budget_count)
            .map(|i| (100 + (seed.rotate_left(i as u32 * 7) % 90) * budget_scale) as f64)
            .collect();
        let env = ocelot_hw::sensors::Environment::new()
            .with("s0", ocelot_hw::sensors::Signal::Noisy {
                base: Box::new(ocelot_hw::sensors::Signal::Constant(15)),
                amplitude: 6,
                seed,
            })
            .with("s1", ocelot_hw::sensors::Signal::Constant(4));

        for supply in [
            Supply::Continuous,
            Supply::Scripted(budgets.clone()),
            Supply::Reseeded(seed),
        ] {
            let mk = |backend| observe(
                &program, &regions, &policies,
                env.clone(), CostModel::default(), supply.build(),
                backend, 2, inject,
            );
            let interp = mk(ExecBackend::Interp);
            let compiled = mk(ExecBackend::Compiled);
            prop_assert_eq!(
                &interp, &compiled,
                "diverged under {:?} (inject={}) for program:\n{}",
                supply, inject, src
            );
        }
    }
}

/// The generator itself stays honest: everything it emits compiles and
/// yields runnable programs (a generator that silently failed to
/// compile would turn the differential property into a no-op).
#[test]
fn generated_sources_always_compile() {
    for seed in 0..200u64 {
        let src = SourceGen::generate(seed);
        let p = ocelot_ir::compile(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
        ocelot_core::collect_regions(&p).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
    }
}

/// The generator really reaches deep stacks: some seeds emit `deep()`
/// calls, and at least one emits it twice (the dynamic-chain fallback
/// configuration).
#[test]
fn generator_emits_deep_and_repeated_deep_calls() {
    let mut any_deep = 0usize;
    let mut multi_deep = 0usize;
    for seed in 0..200u64 {
        let src = SourceGen::generate(seed);
        let n = src.matches("= deep();").count();
        any_deep += (n >= 1) as usize;
        multi_deep += (n >= 2) as usize;
    }
    assert!(any_deep >= 40, "deep-call weight is real: {any_deep}/200");
    assert!(
        multi_deep >= 10,
        "repeated deep calls (dynamic fallback) occur: {multi_deep}/200"
    );
}

// ---------------------------------------------------------------------
// Optimizing middle-end
// ---------------------------------------------------------------------

fn build_src(
    src: &str,
) -> (
    ocelot_ir::Program,
    Vec<ocelot_core::RegionInfo>,
    ocelot_core::PolicySet,
) {
    let program = ocelot_ir::compile(src).unwrap();
    let regions = ocelot_core::collect_regions(&program).unwrap();
    let taint = ocelot_analysis::taint::TaintAnalysis::run(&program);
    let policies = ocelot_core::build_policies(&program, &taint);
    (program, regions, policies)
}

/// The compiled engine skips no dynamic check: on continuous power,
/// where every required input of a dominated use is already collected
/// and no probe can fire, it still probes exactly as often as the
/// interpreter oracle, with the same `Stats`, committed trace and
/// outcome sequence.
#[test]
fn compiled_engine_probes_every_check_the_interpreter_probes() {
    for name in ["fusion", "radiolog", "activity", "send_photo"] {
        let b = ocelot_apps::by_name(name).unwrap();
        let built = build_for(&b, ExecModel::Ocelot);
        let mk = |backend| {
            let mut m = Machine::new(
                &built.program,
                &built.regions,
                built.policies.clone(),
                b.environment(7),
                calibrated_costs(&b),
                Box::new(ContinuousPower) as Box<dyn PowerSupply>,
            )
            .with_backend(backend);
            let outcomes: Vec<RunOutcome> = (0..3).map(|_| m.run_once(MAX_STEPS)).collect();
            let probes = m.checks_probed();
            (
                Observed {
                    outcomes,
                    stats: m.stats().clone(),
                    trace: m.take_trace(),
                },
                probes,
            )
        };
        let (oracle, oracle_probes) = mk(ExecBackend::Interp);
        let (compiled, compiled_probes) = mk(ExecBackend::Compiled);
        assert_eq!(oracle, compiled, "{name}: compiled engine diverged");
        assert!(oracle_probes > 0, "{name}: the app actually probes checks");
        assert_eq!(
            compiled_probes, oracle_probes,
            "{name}: the compiled engine must probe exactly like the interpreter"
        );
    }
}

/// The store-reclassification fix, differentially: a local that is in
/// scope but unbound on some path (its `let` sits on another branch)
/// used to fall back to a non-volatile write on assignment. SSA
/// liveness proves no read observes the unbound value, so both engines
/// now bind the volatile slot — byte-identical `Stats`/`Obs` across
/// backends, and zero scalar writes reaching NV. A control
/// program whose join read *can* observe the unbound value must keep
/// the NV fallback.
#[test]
fn reclassified_unbound_local_stores_agree_and_never_reach_nv() {
    // `a = 2` runs while `a` is unbound whenever `g` is falsy, but
    // every read of `a` is dominated by a write: reclassifiable.
    let reclassifiable =
        "nv g = 0; fn main() { if g { let a = 1; out(log, a); } a = 2; out(log, a); }";
    // Here `a + 2` reads `a` while possibly unbound: the value is
    // observable, so the store must keep the non-volatile fallback.
    let observable = "nv g = 0; fn main() { if g { let a = 1; } a = a + 2; out(log, a); }";
    let run = |src: &str, backend| {
        let (program, regions, policies) = build_src(src);
        let mut m = Machine::new(
            &program,
            &regions,
            policies,
            ocelot_hw::sensors::Environment::new(),
            CostModel::default(),
            Box::new(ContinuousPower) as Box<dyn PowerSupply>,
        )
        .with_backend(backend);
        let outcomes: Vec<RunOutcome> = (0..3).map(|_| m.run_once(MAX_STEPS)).collect();
        let nv = m.nv_scalar_writes();
        (
            Observed {
                outcomes,
                stats: m.stats().clone(),
                trace: m.take_trace(),
            },
            nv,
        )
    };
    let (interp, nv_i) = run(reclassifiable, ExecBackend::Interp);
    let (compiled, nv_c) = run(reclassifiable, ExecBackend::Compiled);
    assert_eq!(interp, compiled, "reclassified program diverged");
    assert_eq!(nv_i, 0, "interpreter: no unbound-local store leaks to NV");
    assert_eq!(nv_c, 0, "compiled: no unbound-local store leaks to NV");

    let (interp, nv_i) = run(observable, ExecBackend::Interp);
    let (compiled, nv_c) = run(observable, ExecBackend::Compiled);
    assert_eq!(interp, compiled, "control program diverged");
    assert!(nv_i > 0, "control program's unbound store still reaches NV");
    assert_eq!(
        nv_i, nv_c,
        "both engines count the control's NV writes alike"
    );
}

/// Hand-written nested-call app: collections at the bottom of a
/// three-deep fixed call chain (pre-resolved interned chain), through a
/// helper invoked from two sites (dynamic-chain fallback), and a
/// consistent set spanning both resolution paths — under continuous,
/// scripted, and reseeded-harvester power, with and without
/// pathological injection.
#[test]
fn nested_call_app_agrees_across_backends() {
    let src = r#"
        sensor s0; sensor s1;
        nv total = 0;
        fn leaf() { let v = in(s0); return v; }
        fn mid() { let v = leaf(); return v + 1; }
        fn deep() { let v = mid(); return v + 1; }
        fn shared() { let v = in(s1); return v; }
        fn main() {
            let a = deep();
            fresh(a);
            let b = shared();
            consistent(b, 2);
            let c = shared();
            consistent(c, 2);
            atomic {
                total = total + a + b + c;
            }
            out(log, total);
        }
    "#;
    let program = ocelot_ir::compile(src).unwrap();
    let regions = ocelot_core::collect_regions(&program).unwrap();
    let taint = ocelot_analysis::taint::TaintAnalysis::run(&program);
    let policies = ocelot_core::build_policies(&program, &taint);
    let env = ocelot_hw::sensors::Environment::new()
        .with("s0", ocelot_hw::sensors::Signal::Constant(7))
        .with("s1", ocelot_hw::sensors::Signal::Constant(2));
    for inject in [false, true] {
        for supply in [
            Supply::Continuous,
            Supply::Scripted(vec![4_800.0; 40]),
            Supply::Reseeded(11),
        ] {
            let mk = |backend| {
                observe(
                    &program,
                    &regions,
                    &policies,
                    env.clone(),
                    CostModel::default(),
                    supply.build(),
                    backend,
                    3,
                    inject,
                )
            };
            let interp = mk(ExecBackend::Interp);
            let compiled = mk(ExecBackend::Compiled);
            assert_eq!(
                interp, compiled,
                "nested-call app diverged under {supply:?} (inject={inject})"
            );
            assert!(interp.stats.instructions > 0);
        }
    }
}
