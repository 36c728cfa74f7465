//! The static WCET bound against the cycles the machine charges.
//!
//! For every program whose `main` has a bound, one continuous-power run
//! must complete within `WcetAnalysis::func_wcet(main)` cycles. The
//! inputs are `genprog` seeds, each built for the Ocelot model and run
//! under two constant environments, and hand-written programs whose
//! stores to a possibly-unbound local reach non-volatile memory, once
//! outside any region and once inside an inferred one, where the store
//! is also undo-logged. `genprog` reaches such stores because it never
//! pops a block's locals. An `#[ignore]`d sweep covers seeds `0..3000`:
//!
//! ```text
//! cargo test --release -p ocelot-bench --test wcet_domination -- --ignored
//! ```

use ocelot_analysis::{StoreClass, StoreClasses};
use ocelot_bench::genprog::SourceGen;
use ocelot_hw::energy::CostModel;
use ocelot_hw::power::ContinuousPower;
use ocelot_hw::sensors::{Environment, Signal};
use ocelot_ir::InstrRef;
use ocelot_progress::WcetAnalysis;
use ocelot_runtime::machine::{DeviceState, Machine, MachineCore, RunOutcome};
use ocelot_runtime::model::{build, Built, ExecModel};
use ocelot_runtime::{ExecBackend, MAX_STEPS};
use std::sync::Arc;

/// The constant `(s0, s1)` values each generated program runs under.
const ENVS: [(i64, i64); 2] = [(3, 8), (11, 2)];

/// What one program contributed.
#[derive(Default)]
struct Tally {
    /// Runs held to a bound.
    checked: usize,
    /// Of those, runs of a program with a `MaybeNv` store.
    maybe_nv: usize,
}

fn env(s0: i64, s1: i64) -> Environment {
    Environment::new()
        .with("s0", Signal::Constant(s0))
        .with("s1", Signal::Constant(s1))
}

fn has_maybe_nv_store(built: &Built) -> bool {
    let classes = StoreClasses::analyze(&built.program);
    built.program.funcs.iter().any(|f| {
        f.iter_insts().any(|(_, i)| {
            let at = InstrRef {
                func: f.id,
                label: i.label,
            };
            classes.class(at) == Some(StoreClass::MaybeNv)
        })
    })
}

/// Runs `src`'s Ocelot build once in each of `envs` and checks the
/// charged cycles against the bound of `main`, if it has one.
fn check(name: &str, src: &str, envs: &[Environment], tally: &mut Tally) {
    let program = ocelot_ir::compile(src).unwrap_or_else(|e| panic!("{name}: {e}"));
    let built = build(program, ExecModel::Ocelot).unwrap_or_else(|e| panic!("{name}: {e}"));
    let costs = CostModel::default();
    let wcet = WcetAnalysis::new(&built.program, &costs, &built.regions);
    let Ok(bound) = wcet.func_wcet(built.program.main) else {
        return;
    };
    let maybe_nv = has_maybe_nv_store(&built);
    for env in envs {
        let core = MachineCore::build(
            &built.program,
            &built.regions,
            built.policies.clone(),
            env,
            costs.clone(),
        );
        let mut m = Machine::from_core(
            Arc::new(core),
            DeviceState::default(),
            env.clone(),
            Box::new(ContinuousPower),
        )
        .with_backend(ExecBackend::Compiled);
        let out = m.run_once(MAX_STEPS);
        assert!(
            matches!(out, RunOutcome::Completed { .. }),
            "{name}: a bounded program must complete, got {out:?}"
        );
        let charged = m.stats().on_cycles;
        assert!(
            charged <= bound,
            "{name}: charged {charged} cycles against a bound of {bound}:\n{src}"
        );
        tally.checked += 1;
        tally.maybe_nv += usize::from(maybe_nv);
    }
}

fn sweep(seeds: std::ops::Range<u64>) -> Tally {
    let envs: Vec<Environment> = ENVS.iter().map(|&(a, b)| env(a, b)).collect();
    let mut tally = Tally::default();
    for seed in seeds {
        check(
            &format!("genprog seed {seed}"),
            &SourceGen::generate(seed),
            &envs,
            &mut tally,
        );
    }
    tally
}

#[test]
fn generated_programs_stay_within_their_wcet() {
    let tally = sweep(0..500);
    assert!(
        tally.checked >= 500,
        "only {} runs had a bound",
        tally.checked
    );
    assert!(
        tally.maybe_nv >= 10,
        "only {} runs had a possibly-unbound store",
        tally.maybe_nv
    );
}

#[test]
fn stores_to_possibly_unbound_locals_stay_within_the_wcet() {
    // With `s` = 3, `t` is never bound, so each of the 50 stores writes
    // `t`'s non-volatile cell.
    let plain = "sensor s; fn main() { let v = in(s); if v > 7 { let t = v; } \
                 repeat 50 { t = t + 1; } }";
    // Four such stores, each to a different cell, in a function called
    // inside the region `fresh(v)` infers: each also pays an undo-log
    // word.
    let in_region = "sensor s; \
                     fn bump(v) { if v > 7 { let a = v; let b = v; let c = v; let d = v; } \
                     a = a + 1; b = b + 1; c = c + 1; d = d + 1; return 0; } \
                     fn main() { let v = in(s); fresh(v); let r = bump(v); out(log, v); }";
    let envs = [Environment::new().with("s", Signal::Constant(3))];
    let mut tally = Tally::default();
    for (name, src) in [("plain", plain), ("in a region", in_region)] {
        check(name, src, &envs, &mut tally);
    }
    assert_eq!(tally.checked, 2, "both programs have a bound");
    assert_eq!(tally.maybe_nv, 2);
}

#[test]
#[ignore = "release sweep over 3,000 generated programs"]
fn generated_program_sweep_stays_within_its_wcet() {
    let tally = sweep(0..3000);
    assert!(
        tally.checked >= 3000,
        "only {} runs had a bound",
        tally.checked
    );
}
