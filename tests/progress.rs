//! Cross-validation of the static forward-progress analysis against the
//! dynamic machine (§5.3 / §10):
//!
//! * **soundness** — the cycles the runtime actually charges lie
//!   between the static minimum and the static worst-case bound, on the
//!   six paper benchmarks and on randomly generated programs (all three
//!   price instructions through one `CostModel::price`);
//! * **prediction** — a statically-feasible capacitor really completes
//!   every region, and a region the analysis calls infeasible really
//!   livelocks on the simulated hardware.

mod common;

use common::{arb_program, gen_environment_constant};
use ocelot::hw::harvest::Harvester;
use ocelot::prelude::*;
use ocelot::progress::{FeasAnalysis, ProgressReport, WcetAnalysis};
use proptest::prelude::*;

/// Static worst-case cycles for one full run of `main`.
fn static_bound(built: &ocelot::runtime::Built) -> u64 {
    let w = WcetAnalysis::new(&built.program, &CostModel::default(), &built.regions);
    w.func_wcet(built.program.main)
        .expect("benchmarks have bounded loops")
}

/// Static best-case cycles for one full run of `main`.
fn static_min(built: &ocelot::runtime::Built) -> u64 {
    FeasAnalysis::new(&built.program, &CostModel::default())
        .expect("validated programs are non-recursive")
        .func_min(built.program.main)
}

/// Dynamic cycles of one continuous-power run.
fn dynamic_cycles(built: &ocelot::runtime::Built, env: Environment) -> u64 {
    let mut m = Machine::new(
        &built.program,
        &built.regions,
        built.policies.clone(),
        env,
        CostModel::default(),
        Box::new(ContinuousPower),
    );
    let out = m.run_once(10_000_000);
    assert!(matches!(out, RunOutcome::Completed { .. }), "{out:?}");
    m.stats().on_cycles
}

#[test]
fn static_bound_dominates_dynamic_on_all_benchmarks() {
    for bench in ocelot::apps::all() {
        for model in [ExecModel::Jit, ExecModel::Ocelot, ExecModel::AtomicsOnly] {
            let program = match model {
                ExecModel::AtomicsOnly => bench.atomics_only(),
                _ => bench.annotated(),
            };
            let built = build(program, model).unwrap();
            let bound = static_bound(&built);
            let min = static_min(&built);
            let actual = dynamic_cycles(&built, bench.environment(7));
            assert!(
                actual <= bound,
                "{} under {}: dynamic {actual} exceeds static bound {bound}",
                bench.name,
                model.name(),
            );
            assert!(
                min <= actual,
                "{} under {}: static minimum {min} exceeds dynamic {actual}",
                bench.name,
                model.name(),
            );
            // The bound is meaningful, not merely astronomically loose.
            assert!(
                bound <= actual.saturating_mul(50),
                "{} under {}: bound {bound} is wildly loose vs {actual}",
                bench.name,
                model.name(),
            );
        }
    }
}

#[test]
fn feasible_verdict_predicts_completion_on_benchmarks() {
    for bench in ocelot::apps::all() {
        let built = build(bench.annotated(), ExecModel::Ocelot).unwrap();
        let report =
            ProgressReport::analyze(&built.program, &built.regions, &CostModel::default()).unwrap();
        let cap = report.min_capacitor(0.2);
        assert!(
            report.feasible_on(&cap),
            "{}: min capacitor feasible",
            bench.name
        );
        let supply = HarvestedPower::new(cap, Harvester::Constant { power_nw: 1.0 });
        let mut m = Machine::new(
            &built.program,
            &built.regions,
            built.policies.clone(),
            bench.environment(3),
            CostModel::default(),
            Box::new(supply),
        )
        .with_reexec_limit(50);
        let out = m.run_once(50_000_000);
        assert!(
            matches!(out, RunOutcome::Completed { .. }),
            "{}: statically feasible buffer must complete, got {out:?} \
             (reexecs {})",
            bench.name,
            m.stats().region_reexecs,
        );
    }
}

#[test]
fn infeasible_region_livelocks_as_predicted() {
    // A region of 20 sensor reads needs ~80 µJ per attempt; give it 20.
    let program = compile(
        r#"
        sensor s;
        fn main() {
            atomic {
                let acc = 0;
                repeat 20 { let v = in(s); acc = acc + v; }
                out(log, acc);
            }
        }
        "#,
    )
    .unwrap();
    let built = build(program, ExecModel::AtomicsOnly).unwrap();
    let report =
        ProgressReport::analyze(&built.program, &built.regions, &CostModel::default()).unwrap();
    let cap = Capacitor::new(20_000.0, 4_000.0);
    assert!(
        !report.feasible_on(&cap),
        "the analysis must flag the region"
    );

    let supply = HarvestedPower::new(cap, Harvester::Constant { power_nw: 1.0 });
    let mut m = Machine::new(
        &built.program,
        &built.regions,
        built.policies.clone(),
        Environment::new().with("s", Signal::Constant(1)),
        CostModel::default(),
        Box::new(supply),
    )
    .with_reexec_limit(25);
    let out = m.run_once(50_000_000);
    assert!(
        matches!(out, RunOutcome::Livelock { .. }),
        "the region must livelock, got {out:?}"
    );
}

#[test]
fn min_capacitor_shrinks_with_ocelot_vs_whole_main_region() {
    // §5.3: the trivial correct placement is
    // `startatom; FD(main); endatom` — wrapping everything. Ocelot's
    // inferred regions must never demand a larger buffer than that, and
    // on compute-heavy apps they demand strictly less.
    let costs = CostModel::default();
    for bench in ocelot::apps::all() {
        let ocelot_built = build(bench.annotated(), ExecModel::Ocelot).unwrap();
        // The trivial placement: the whole of main as one region
        // (annotations stripped first, as the transform would).
        let mut stripped = bench.annotated();
        stripped.erase_annotations();
        let whole = ocelot::runtime::samoyed_transform(stripped, &["main"]).unwrap();
        let ro =
            ProgressReport::analyze(&ocelot_built.program, &ocelot_built.regions, &costs).unwrap();
        let rw = ProgressReport::analyze(&whole.program, &whole.regions, &costs).unwrap();
        assert!(
            ro.peak_demand_nj() <= rw.peak_demand_nj(),
            "{}: inferred regions must not demand more than whole-main \
             ({} vs {})",
            bench.name,
            ro.peak_demand_nj(),
            rw.peak_demand_nj(),
        );
        if bench.name == "cem" {
            // The paper's headline case: cem's constraint covers a few
            // instructions, so the inferred region (dominated by one
            // sensor read) is far cheaper than wrapping the compression
            // kernel, whose ω must back the whole log table.
            assert!(
                ro.peak_demand_nj() < 0.6 * rw.peak_demand_nj(),
                "cem: inferred {} vs whole-main {}",
                ro.peak_demand_nj(),
                rw.peak_demand_nj(),
            );
        }
    }
}

#[test]
fn figure10_confirm_pattern_inferred_region_is_smaller() {
    // Figure 10: a programmer wraps all of `confirm` because it samples
    // consistently; Ocelot's inferred region excludes the trailing
    // processing, so it needs less buffer.
    let src = r#"
        sensor p;
        nv logged = 0;
        fn confirm() {
            let y = in(p);
            consistent(y, 1);
            let z = in(p);
            consistent(z, 1);
            let avg = (y + z) / 2;
            repeat 6 { logged = logged + avg; out(uart, logged); }
            return avg;
        }
        fn main() { let r = confirm(); out(log, r); }
    "#;
    let costs = CostModel::default();
    let inferred = build(compile(src).unwrap(), ExecModel::Ocelot).unwrap();
    let mut stripped = compile(src).unwrap();
    stripped.erase_annotations();
    let wrapped = ocelot::runtime::samoyed_transform(stripped, &["confirm"]).unwrap();
    let ri = ProgressReport::analyze(&inferred.program, &inferred.regions, &costs).unwrap();
    let rw = ProgressReport::analyze(&wrapped.program, &wrapped.regions, &costs).unwrap();
    assert!(
        ri.peak_demand_nj() < rw.peak_demand_nj(),
        "inferred {} must undercut whole-confirm {}",
        ri.peak_demand_nj(),
        rw.peak_demand_nj(),
    );
    // There is a buffer size that runs the Ocelot program but not the
    // manually-wrapped one — the Figure 10 argument, made concrete.
    let cap = ri.min_capacitor(0.1);
    assert!(ri.feasible_on(&cap));
    assert!(!rw.feasible_on(&cap));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Soundness on arbitrary generated programs: the runtime never
    /// charges more cycles than the static bound, nor fewer than the
    /// static minimum. Monotone-counter
    /// `while` loops are bounded like `repeat`s; only the
    /// tainted-condition shape (whose `&&` header defeats counter
    /// recovery) must be *refused* with an unbounded-loop error —
    /// never given a wrong bound.
    #[test]
    fn static_bound_dominates_dynamic_on_generated_programs(
        p in arb_program(),
        seed in 0u64..100,
    ) {
        let program = compile(&p.source).unwrap();
        let built = build(program, ExecModel::Ocelot).unwrap();
        let w = WcetAnalysis::new(&built.program, &CostModel::default(), &built.regions);
        match w.func_wcet(built.program.main) {
            Ok(bound) => {
                prop_assert!(
                    !p.has_unbounded_while,
                    "tainted-condition whiles cannot be bounded:\n{}",
                    p.source
                );
                let actual = dynamic_cycles(&built, gen_environment_constant(seed));
                prop_assert!(
                    actual <= bound,
                    "dynamic {} exceeds static bound {} for:\n{}",
                    actual, bound, p.source
                );
                let min = static_min(&built);
                prop_assert!(
                    min <= actual,
                    "static minimum {} exceeds dynamic {} for:\n{}",
                    min, actual, p.source
                );
            }
            Err(ocelot::progress::ProgressError::UnboundedLoop { .. }) => {
                prop_assert!(
                    p.has_unbounded_while,
                    "only tainted-condition whiles are unbounded:\n{}",
                    p.source
                );
            }
            Err(other) => prop_assert!(false, "unexpected analysis error: {other}"),
        }
    }
}
