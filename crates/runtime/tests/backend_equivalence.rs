//! Backend equivalence under power failure: the compiled engine must
//! checkpoint, restore, roll back, and account *exactly* like the
//! interpreter, wherever the failure lands.
//!
//! The mid-block sweeps force the supply to die at every instruction
//! offset of a block (energy budgets walk the cumulative cost curve one
//! nanojoule at a time, and every instruction costs at least 1 nJ), and
//! assert the two backends agree on statistics, committed traces, and
//! run outcomes — step for step, not just in aggregate.

use ocelot_hw::energy::{Capacitor, CostModel};
use ocelot_hw::power::{ContinuousPower, HarvestedPower, PowerSupply, ScriptedPower};
use ocelot_hw::sensors::{Environment, Signal};
use ocelot_hw::Harvester;
use ocelot_ir::{compile, Program};
use ocelot_runtime::machine::{pathological_targets, Machine, RunOutcome};
use ocelot_runtime::obs::Obs;
use ocelot_runtime::{Built, DeviceState, ExecBackend, ExecModel, MachineCore, Stats};
use std::collections::BTreeSet;
use std::sync::Arc;

fn build(
    src: &str,
) -> (
    Program,
    ocelot_core::PolicySet,
    Vec<ocelot_core::RegionInfo>,
) {
    let p = compile(src).unwrap();
    let regions = ocelot_core::collect_regions(&p).unwrap();
    let taint = ocelot_analysis::taint::TaintAnalysis::run(&p);
    let policies = ocelot_core::build_policies(&p, &taint);
    (p, policies, regions)
}

struct RunResult {
    outcome: Vec<RunOutcome>,
    stats: Stats,
    trace: Vec<Obs>,
}

#[allow(clippy::too_many_arguments)]
fn run(
    p: &Program,
    policies: &ocelot_core::PolicySet,
    regions: &[ocelot_core::RegionInfo],
    env: Environment,
    supply: Box<dyn PowerSupply>,
    backend: ExecBackend,
    runs: u64,
    inject: bool,
) -> RunResult {
    let mut m = Machine::new(
        p,
        regions,
        policies.clone(),
        env,
        CostModel::default(),
        supply,
    )
    .with_backend(backend);
    if inject {
        m = m.with_injector(pathological_targets(policies));
    }
    let outcome = (0..runs).map(|_| m.run_once(1_000_000)).collect();
    RunResult {
        outcome,
        stats: m.stats().clone(),
        trace: m.take_trace(),
    }
}

/// Runs both backends over the same scripted budget and asserts full
/// agreement.
fn assert_equivalent(src: &str, env: &Environment, budgets: Vec<f64>, runs: u64, inject: bool) {
    let (p, policies, regions) = build(src);
    let mk = |backend| {
        run(
            &p,
            &policies,
            &regions,
            env.clone(),
            Box::new(ScriptedPower::new(budgets.clone(), 500)),
            backend,
            runs,
            inject,
        )
    };
    let interp = mk(ExecBackend::Interp);
    let compiled = mk(ExecBackend::Compiled);
    assert_eq!(
        interp.outcome, compiled.outcome,
        "outcomes diverged for budgets {budgets:?}"
    );
    assert_eq!(
        interp.stats, compiled.stats,
        "stats diverged for budgets {budgets:?}"
    );
    assert_eq!(
        interp.trace, compiled.trace,
        "traces diverged for budgets {budgets:?}"
    );
}

#[test]
fn jit_mid_block_failure_at_every_offset() {
    // Straight-line block of binds: every nanojoule boundary between 1
    // and well past the block's total cost places the comparator trip
    // at a different instruction offset (binds cost 2 nJ each, the
    // output 1600 nJ).
    let src = r#"
        fn main() {
            let a = 1;
            let b = a + 1;
            let c = b * 2;
            let d = c - 1;
            let e = d + c;
            out(log, e);
        }
    "#;
    let (p, policies, regions) = build(src);
    let env = Environment::new();
    let mut checkpoint_footprints = BTreeSet::new();
    // Whole-run cost: 5 binds (2 nJ each) + output (1600 nJ) + jump (2)
    // + ret (6) = 1618 nJ; every budget below that fails exactly once.
    for budget in (1..=30).chain([500, 1000, 1605, 1613, 1617]) {
        let mk = |backend| {
            run(
                &p,
                &policies,
                &regions,
                env.clone(),
                Box::new(ScriptedPower::new(vec![budget as f64], 500)),
                backend,
                1,
                false,
            )
        };
        let interp = mk(ExecBackend::Interp);
        let compiled = mk(ExecBackend::Compiled);
        assert_eq!(interp.outcome, compiled.outcome, "budget {budget}");
        assert_eq!(interp.stats, compiled.stats, "budget {budget}");
        assert_eq!(interp.trace, compiled.trace, "budget {budget}");
        assert!(
            matches!(interp.outcome[0], RunOutcome::Completed { .. }),
            "budget {budget}"
        );
        assert_eq!(
            interp.stats.reboots, 1,
            "budget {budget} failed exactly once"
        );
        checkpoint_footprints.insert(interp.stats.ckpt_words);
    }
    // The sweep genuinely moved the checkpoint across the block: each
    // additional bound local grows the checkpointed footprint by one
    // word, so at least as many distinct footprints as binds must show
    // up (plus the pre-first-bind and in-output offsets).
    assert!(
        checkpoint_footprints.len() >= 5,
        "failures covered ≥5 distinct offsets, got {checkpoint_footprints:?}"
    );
}

#[test]
fn atomic_region_mid_block_failure_at_every_offset() {
    // Failures inside the region roll back NV writes and re-execute;
    // the sweep walks the failure through region entry, the sample, the
    // NV increments, and the commit.
    let src = r#"
        nv g = 0;
        nv h = 0;
        sensor s;
        fn main() {
            atomic {
                let v = in(s);
                g = g + v;
                h = h + g;
            }
            out(log, g + h);
        }
    "#;
    let env = Environment::new().with("s", Signal::Constant(3));
    // Region entry ~600 nJ, input 4000 nJ, NV writes 4 nJ: sweep fine
    // around the cheap tail and coarsely through the expensive sample.
    for budget in (1..=40)
        .map(|b| b * 25)
        .chain([4600, 4610, 4620, 4640, 4700, 6300, 8000])
    {
        assert_equivalent(src, &env, vec![budget as f64], 1, false);
    }
}

#[test]
fn repeated_failures_and_multiple_runs_agree() {
    let src = r#"
        nv count = 0;
        sensor s;
        fn main() {
            let acc = 0;
            repeat 5 {
                let v = in(s);
                acc = acc + v;
            }
            count = count + 1;
            out(log, acc + count);
        }
    "#;
    let env = Environment::new().with("s", Signal::Constant(2));
    // Several on-intervals per run, several runs back to back.
    assert_equivalent(src, &env, vec![6000.0; 12], 3, false);
}

#[test]
fn injected_pathological_failures_agree() {
    let src = "sensor s; fn main() { let x = in(s); fresh(x); out(alarm, x); }";
    let env = Environment::new().with("s", Signal::Constant(5));
    let (p, policies, regions) = build(src);
    for backend_pair_runs in [1u64, 3] {
        let mk = |backend| {
            run(
                &p,
                &policies,
                &regions,
                env.clone(),
                Box::new(ContinuousPower),
                backend,
                backend_pair_runs,
                true,
            )
        };
        let interp = mk(ExecBackend::Interp);
        let compiled = mk(ExecBackend::Compiled);
        assert_eq!(interp.outcome, compiled.outcome);
        assert_eq!(interp.stats, compiled.stats);
        assert_eq!(interp.trace, compiled.trace);
        assert!(interp.stats.fresh_violations >= 1, "the injection fired");
    }
}

#[test]
fn tics_expiry_mitigation_agrees() {
    let src = "sensor s; fn main() { let x = in(s); fresh(x); out(alarm, x); }";
    let (p, policies, regions) = build(src);
    let env = Environment::new().with("s", Signal::Constant(5));
    let mk = |backend| {
        let mut m = Machine::new(
            &p,
            &regions,
            policies.clone(),
            env.clone(),
            CostModel::default(),
            Box::new(ScriptedPower::new(vec![4_500.0; 200], 100_000)),
        )
        .with_backend(backend)
        .with_expiry_window(10_000);
        let outcome = vec![m.run_once(10_000_000)];
        RunResult {
            outcome,
            stats: m.stats().clone(),
            trace: m.take_trace(),
        }
    };
    let interp = mk(ExecBackend::Interp);
    let compiled = mk(ExecBackend::Compiled);
    assert_eq!(interp.outcome, compiled.outcome);
    assert_eq!(interp.stats, compiled.stats);
    assert_eq!(interp.trace, compiled.trace);
    assert!(interp.stats.expiry_restarts >= 25, "handler thrashed");
}

#[test]
fn step_limit_lands_on_the_same_attempt() {
    // The batched fast path must not overshoot the step budget: an
    // infinite loop capped at various limits has to stop exactly where
    // the interpreter stops, including mid-batch limits.
    let src = "nv g = 0; fn main() { while true { g = g + 1; } }";
    let (p, policies, regions) = build(src);
    for max_steps in [1u64, 2, 3, 7, 100, 101, 102, 5000] {
        let mk = |backend| {
            let mut m = Machine::new(
                &p,
                &regions,
                policies.clone(),
                Environment::new(),
                CostModel::default(),
                Box::new(ContinuousPower),
            )
            .with_backend(backend);
            let out = m.run_once(max_steps);
            (out, m.stats().clone())
        };
        let (oi, si) = mk(ExecBackend::Interp);
        let (oc, sc) = mk(ExecBackend::Compiled);
        assert_eq!(oi, RunOutcome::StepLimit);
        assert_eq!(oi, oc, "max_steps {max_steps}");
        assert_eq!(si, sc, "max_steps {max_steps}");
    }
}

#[test]
fn livelock_and_reexec_limits_agree() {
    let src = r#"
        sensor s;
        fn main() {
            atomic {
                let a = in(s);
                let b = in(s);
                out(log, a + b);
            }
        }
    "#;
    let (p, policies, regions) = build(src);
    let env = Environment::new().with("s", Signal::Constant(1));
    let mk = |backend| {
        let mut m = Machine::new(
            &p,
            &regions,
            policies.clone(),
            env.clone(),
            CostModel::default(),
            Box::new(ScriptedPower::new(vec![5_000.0; 500], 1_000)),
        )
        .with_backend(backend)
        .with_reexec_limit(10);
        let out = m.run_once(1_000_000);
        (out, m.stats().clone())
    };
    let (oi, si) = mk(ExecBackend::Interp);
    let (oc, sc) = mk(ExecBackend::Compiled);
    assert!(matches!(oi, RunOutcome::Livelock { .. }), "{oi:?}");
    assert_eq!(oi, oc);
    assert_eq!(si, sc);
}

#[test]
fn continuous_power_features_sweep_agrees() {
    // Calls, by-ref params, arrays, nested regions, branches — the
    // batched fast path across language features, with wall-clock
    // driven sensors so any timing drift shows up in values.
    let src = r#"
        nv table[4];
        nv total = 0;
        sensor s;
        fn bump(&dst, v) { *dst = *dst + v; }
        fn grab() { let v = in(s); return v; }
        fn main() {
            let i = 0;
            repeat 4 {
                let v = grab();
                table[i] = v;
                bump(&total, v);
                i = i + 1;
            }
            atomic {
                total = total + 1;
                atomic { total = total + 10; }
            }
            if total > 20 { out(log, total); } else { out(log, 0 - total); }
        }
    "#;
    let (p, policies, regions) = build(src);
    let env = Environment::new().with(
        "s",
        Signal::Noisy {
            base: Box::new(Signal::Constant(7)),
            amplitude: 3,
            seed: 9,
        },
    );
    let mk = |backend| {
        run(
            &p,
            &policies,
            &regions,
            env.clone(),
            Box::new(ContinuousPower),
            backend,
            4,
            false,
        )
    };
    let interp = mk(ExecBackend::Interp);
    let compiled = mk(ExecBackend::Compiled);
    assert_eq!(interp.outcome, compiled.outcome);
    assert_eq!(interp.stats, compiled.stats);
    assert_eq!(interp.trace, compiled.trace);
    assert!(matches!(
        interp.outcome[0],
        RunOutcome::Completed { violated: false }
    ));
    for (name, src) in DEPENDENCY_CHANNELS {
        let stats = assert_traced_core_agrees(
            &format!("{name} on continuous power"),
            &build_ocelot(src),
            channel_env(),
            &|| Box::new(ContinuousPower),
        );
        assert_eq!(stats.reboots, 0, "{name}");
    }
    for (name, src) in STORAGE_PATHS {
        let stats = assert_traced_core_agrees(
            &format!("{name} on continuous power"),
            &build_ocelot(src),
            channel_env(),
            &|| Box::new(ContinuousPower),
        );
        assert_eq!(stats.reboots, 0, "{name}");
    }
}

#[test]
fn run_for_agrees_across_backends() {
    let src = "sensor s; fn main() { let v = in(s); out(log, v); }";
    let (p, policies, regions) = build(src);
    let env = Environment::new().with("s", Signal::Constant(4));
    let mk = |backend| {
        let mut m = Machine::new(
            &p,
            &regions,
            policies.clone(),
            env.clone(),
            CostModel::default(),
            Box::new(ContinuousPower),
        )
        .with_backend(backend);
        let runs = m.run_for(50_000, 100_000);
        (runs, m.stats().clone(), m.take_trace())
    };
    let (ri, si, ti) = mk(ExecBackend::Interp);
    let (rc, sc, tc) = mk(ExecBackend::Compiled);
    assert!(ri > 1);
    assert_eq!(ri, rc);
    assert_eq!(si, sc);
    assert_eq!(ti, tc);
}

#[test]
fn deep_call_stack_failures_at_every_offset_agree() {
    // Input collections at the bottom of a three-deep call chain (a
    // statically-fixed stack → pre-resolved chain) *and* through a
    // helper called from two sites (data-dependent stack → dynamic
    // chain rebuild). The budget sweep walks the power failure through
    // call entry, the nested samples, the returns, and the uses, so
    // checkpointed call stacks of every depth and both chain-resolution
    // paths must stay bit-identical across backends.
    let src = r#"
        sensor s;
        fn leaf() { let v = in(s); return v; }
        fn mid() { let v = leaf(); return v + 1; }
        fn deep() { let v = mid(); return v + 1; }
        fn shared() { let v = in(s); return v; }
        fn main() {
            let a = deep();
            fresh(a);
            let b = shared();
            consistent(b, 1);
            let c = shared();
            consistent(c, 1);
            out(log, a + b + c);
        }
    "#;
    let (p, policies, regions) = build(src);
    let env = Environment::new().with("s", Signal::Constant(3));
    let mut depths = BTreeSet::new();
    // Whole-run cost ≈ 3 calls + 3 samples (4000 nJ each) + returns +
    // the 1600 nJ double-word output: walk budgets across all of it.
    for budget in (1..=60)
        .map(|b| b * 220)
        .chain([4_050, 8_100, 12_150, 13_600])
    {
        let mk = |backend| {
            run(
                &p,
                &policies,
                &regions,
                env.clone(),
                Box::new(ScriptedPower::new(vec![budget as f64], 500)),
                backend,
                2,
                false,
            )
        };
        let interp = mk(ExecBackend::Interp);
        let compiled = mk(ExecBackend::Compiled);
        assert_eq!(interp.outcome, compiled.outcome, "budget {budget}");
        assert_eq!(interp.stats, compiled.stats, "budget {budget}");
        assert_eq!(interp.trace, compiled.trace, "budget {budget}");
        depths.insert(interp.stats.ckpt_words);
    }
    assert!(
        depths.len() >= 6,
        "the sweep checkpointed many distinct stack shapes: {depths:?}"
    );

    // The same program under pathological injection: the injector
    // targets sit on deep-chain divergence points.
    let targets = pathological_targets(&policies);
    assert!(!targets.is_empty());
    let mk = |backend| {
        run(
            &p,
            &policies,
            &regions,
            env.clone(),
            Box::new(ContinuousPower),
            backend,
            2,
            true,
        )
    };
    let interp = mk(ExecBackend::Interp);
    let compiled = mk(ExecBackend::Compiled);
    assert_eq!(interp.outcome, compiled.outcome);
    assert_eq!(interp.stats, compiled.stats);
    assert_eq!(interp.trace, compiled.trace);
    assert!(interp.stats.violations > 0, "the injection really bites");
}

#[test]
fn repeated_multi_path_stacks_rebuild_dynamic_chains_identically() {
    // The chain-table dynamic-miss path, hammered: `probe` is reachable
    // through two different call paths, so its input site has no fixed
    // stack and every collection rebuilds its provenance chain at run
    // time. Each path loops, producing the *same* dynamic chain many
    // times over — the rebuild must be deterministic, distinct per
    // path, and agree byte-for-byte between backends. A separate
    // statically-chained input keeps the interned table non-empty so
    // the misses probe a real table, not a vacuous one.
    let src = r#"
        sensor s;
        fn probe() { let v = in(s); return v; }
        fn via_a() { let acc = 0; repeat 3 { let v = probe(); acc = acc + v; } return acc; }
        fn via_b() { let acc = 0; repeat 2 { let v = probe(); acc = acc + v; } return acc; }
        fn main() {
            let tracked = in(s);
            fresh(tracked);
            out(alarm, tracked);
            let a = via_a();
            let b = via_b();
            out(log, a + b);
        }
    "#;
    let (p, policies, regions) = build(src);
    let env = Environment::new().with(
        "s",
        Signal::Ramp {
            start: 1,
            end: 500,
            t0_us: 0,
            t1_us: 5_000,
        },
    );
    let mk = |backend| {
        run(
            &p,
            &policies,
            &regions,
            env.clone(),
            Box::new(ContinuousPower),
            backend,
            3,
            false,
        )
    };
    let interp = mk(ExecBackend::Interp);
    let compiled = mk(ExecBackend::Compiled);
    assert_eq!(interp.outcome, compiled.outcome);
    assert_eq!(interp.stats, compiled.stats);
    assert_eq!(interp.trace, compiled.trace);

    // Group the collected chains: per run, 1 static + 3 via_a + 2 via_b.
    let chains: Vec<_> = interp
        .trace
        .iter()
        .filter_map(|o| match o {
            Obs::Input { chain, .. } => Some(chain.as_slice().to_vec()),
            _ => None,
        })
        .collect();
    assert_eq!(chains.len(), 18, "3 runs x 6 collections");
    let distinct: BTreeSet<_> = chains.iter().cloned().collect();
    // Exactly three shapes: main's direct input, main→via_a→probe→in,
    // main→via_b→probe→in. Every rebuild of the same stack must
    // reproduce the same chain, or this set would grow past three.
    assert_eq!(distinct.len(), 3, "{distinct:?}");
    let mut lens: Vec<usize> = distinct.iter().map(|c| c.len()).collect();
    lens.sort_unstable();
    assert_eq!(lens, vec![1, 3, 3], "one direct site, two 2-deep paths");
    // The two loop paths end at the same input instruction but run
    // through different call sites — context sensitivity, observed
    // dynamically.
    let deep: Vec<_> = distinct.iter().filter(|c| c.len() == 3).collect();
    assert_eq!(deep[0][2], deep[1][2], "same input op at the bottom");
    assert_ne!(deep[0][..2], deep[1][..2], "different call paths");
}

/// Runs `runs` attempts on a fresh device attached to `core`.
fn run_on_core(
    core: &Arc<MachineCore<'_>>,
    env: Environment,
    supply: Box<dyn PowerSupply>,
    backend: ExecBackend,
    runs: u64,
) -> RunResult {
    let mut m = Machine::from_core(Arc::clone(core), DeviceState::default(), env, supply)
        .with_backend(backend);
    let outcome = (0..runs).map(|_| m.run_once(1_000_000)).collect();
    RunResult {
        outcome,
        stats: m.stats().clone(),
        trace: m.take_trace(),
    }
}

#[test]
fn batch_continuations_fail_at_every_offset() {
    // The then-arm's batch follows its jump into the join block and on
    // into the exit pad: three segments, each drawn as its own slice.
    // Walking a scripted budget up one nanojoule at a time (every step
    // costs at least 2 nJ) trips the comparator on every step of every
    // segment, under JIT checkpointing and inside an atomic region,
    // where the trip rolls the region back and re-executes it.
    let body = "let a = 1; \
                if g == 0 { a = a + 2; let b = a * 3; h = b; } else { a = a + 5; } \
                let c = a + 1; let d = c * 2; h = h + d; out(log, d);";
    let decls = "nv g = 0; nv h = 0;";
    for (mode, src) in [
        ("jit", format!("{decls} fn main() {{ {body} }}")),
        (
            "atomic",
            format!("{decls} fn main() {{ atomic {{ {body} }} }}"),
        ),
    ] {
        let (p, policies, regions) = build(&src);
        let env = Environment::new();
        let costs = CostModel::default();
        let core =
            Arc::new(MachineCore::build(&p, &regions, policies, &env, costs.clone()).traced());
        let mk = |supply: Box<dyn PowerSupply>, backend| {
            run_on_core(&core, env.clone(), supply, backend, 1)
        };
        let clean = mk(Box::new(ContinuousPower), ExecBackend::Interp);
        let total_nj = costs.cycles_to_nj(clean.stats.on_cycles).ceil() as u64;
        let mut failed_at = BTreeSet::new();
        for budget in 1..=total_nj {
            let scripted = || Box::new(ScriptedPower::new(vec![budget as f64], 500));
            let interp = mk(scripted(), ExecBackend::Interp);
            let compiled = mk(scripted(), ExecBackend::Compiled);
            let at = format!("{mode} budget {budget}");
            assert_eq!(interp.outcome, compiled.outcome, "{at}");
            assert_eq!(interp.stats, compiled.stats, "{at}");
            assert_eq!(interp.trace, compiled.trace, "{at}");
            assert_eq!(interp.stats.reboots, 1, "{at} failed exactly once");
            // Where the failure landed: the re-executed prefix of the
            // region, the checkpointed footprint, and the failed step's
            // cycles (charged once more on the retry).
            failed_at.insert((
                interp.stats.instructions,
                interp.stats.ckpt_words,
                interp.stats.on_cycles,
            ));
        }
        // Under JIT, 10 of the 13 offsets are told apart (a jump and the
        // step after it can share a footprint and a price); inside the
        // region every step re-executes one more step than the offset
        // before it, so all of them are.
        let min = if mode == "jit" {
            10
        } else {
            clean.stats.instructions as usize
        };
        assert!(
            failed_at.len() >= min,
            "{mode}: the walk reached {} offsets: {failed_at:?}",
            failed_at.len()
        );
    }
}

/// Hand-written programs, one per channel through which an input's
/// dependency set can travel without ever reaching an observation: an
/// NV global, a by-ref out parameter, a return value, a value argument,
/// and a `fresh` variable whose annotation the transform strips (its
/// set is read only by the `Obs::Use` records at its use sites). Each
/// program also sends a twin of the unobserved value through the same
/// kind of channel into an output, so an engine that dropped the set
/// on that channel would show it in the trace. A traced compiled core
/// must carry every set exactly as the interpreter does.
const DEPENDENCY_CHANNELS: [(&str, &str); 5] = [
    (
        "nv accumulator never output",
        r#"
        nv acc = 0;
        nv seen = 0;
        nv hist[4];
        sensor s;
        fn main() {
            let i = 0;
            repeat 4 { let v = in(s); acc = acc + v; hist[i] = v; i = i + 1; }
            let w = in(s);
            seen = w + 1;
            out(log, seen, hist[1]);
        }
        "#,
    ),
    (
        "by-ref out parameter",
        r#"
        nv sink = 0;
        sensor s;
        fn fill(&dst) { let v = in(s); *dst = v + 1; }
        fn copy(&dst) { let v = in(s); *dst = v * 3; }
        fn main() {
            let t = 0;
            fill(&sink);
            fill(&t);
            if t > 3 { out(alarm, 1); }
            let k = 0;
            copy(&k);
            out(log, k);
        }
        "#,
    ),
    (
        "input-derived return value",
        r#"
        sensor s;
        fn grab() { let v = in(s); return v * 2; }
        fn sample() { let v = in(s); return v + 4; }
        fn main() {
            let r = grab();
            if r > 9 { out(alarm, 1); } else { out(log, 0); }
            let q = sample();
            out(log, q);
        }
        "#,
    ),
    (
        "value argument never observed in the callee",
        r#"
        nv flag = 0;
        sensor s;
        fn gate(a) { let b = a + 1; if b > 8 { flag = 1; } }
        fn show(a) { out(log, a - 1); }
        fn main() {
            let v = in(s);
            gate(v);
            show(v);
            out(log, flag);
        }
        "#,
    ),
    (
        "stripped fresh annotation",
        r#"
        nv g = 0;
        sensor s;
        fn main() {
            let x = in(s);
            let y = x + 1;
            fresh(y);
            g = y;
        }
        "#,
    ),
];

/// Hand-written programs for the storage paths a validated program can
/// reach beside the slot-resolved ones: a local bound on one arm only
/// (in scope but unbound at the join, so it stores to and reads from
/// non-volatile memory under its own name), `&x` of such a local, a
/// by-ref parameter forwarded two calls deep, a region that rolls back
/// an unbound local's non-volatile store, which only the dynamic undo
/// log restores (ω names declared globals only), and an atomic region
/// whose WAR set holds an NV scalar and an NV array and which fails
/// mid-region and rolls back on the harvested bank. The unbound-local
/// region comes first: its loop is bounded, so an engine that forgot
/// the store's undo-log entry fails there, before the last region's
/// re-executions grow the unlogged accumulator's dependency set
/// without end.
const STORAGE_PATHS: [(&str, &str); 5] = [
    (
        "local bound on one arm, stored and read at the join",
        r#"
        nv g = 0;
        sensor s;
        fn main() {
            let v = in(s);
            if v > 7 { let t = v * 2; out(log, t); }
            t = t + v;
            out(log, t);
            g = g + t;
        }
        "#,
    ),
    (
        "reference to a possibly-unbound local",
        r#"
        sensor s;
        fn put(&dst, v) { *dst = *dst + v; }
        fn main() {
            let v = in(s);
            if v > 7 { let x = v; }
            put(&x, v);
            out(log, x);
        }
        "#,
    ),
    (
        "by-ref parameter forwarded two calls deep",
        r#"
        nv total = 0;
        sensor s;
        fn leaf(&r, v) { *r = *r + v; }
        fn mid(&r, v) { leaf(&r, v + 1); out(log, *r); *r = *r * 2; }
        fn top(&r) { let v = in(s); mid(&r, v); }
        fn main() {
            let x = 1;
            top(&x);
            top(&total);
            out(log, x, total);
        }
        "#,
    ),
    (
        UNBOUND_IN_REGION,
        r#"
        sensor s;
        fn main() {
            let v = in(s);
            if v > 100 { let acc = 0; }
            atomic {
                repeat 4 {
                    let w = in(s);
                    acc = acc + 1;
                }
            }
            out(log, acc);
        }
        "#,
    ),
    (
        "region logging an NV scalar and array, rolled back",
        r#"
        nv count = 0;
        nv hist[4];
        sensor s;
        fn main() {
            let v = in(s);
            if v > 8 { let spill = v; }
            atomic {
                let i = 0;
                repeat 6 {
                    let w = in(s);
                    hist[i] = hist[i] + w;
                    count = count + 1;
                    spill = spill + w;
                    i = i + 1;
                }
            }
            out(log, count, hist[0], hist[3], spill);
        }
        "#,
    ),
];

/// The [`STORAGE_PATHS`] program whose region re-executes an unbound
/// local's non-volatile store.
const UNBOUND_IN_REGION: &str = "unbound local accumulated in a rolled-back region";

/// The values of every output `built` commits over three attempts on a
/// traced interpreter machine.
fn committed_outputs(built: &Built, supply: Box<dyn PowerSupply>) -> Vec<Vec<i64>> {
    let env = channel_env();
    let core = Arc::new(
        MachineCore::build(
            &built.program,
            &built.regions,
            built.policies.clone(),
            &env,
            CostModel::default(),
        )
        .traced(),
    );
    run_on_core(&core, env, supply, ExecBackend::Interp, 3)
        .trace
        .into_iter()
        .filter_map(|o| match o {
            Obs::Output { values, .. } => Some(values),
            _ => None,
        })
        .collect()
}

/// Builds `src` under the Ocelot model (annotations erased).
fn build_ocelot(src: &str) -> Built {
    ocelot_runtime::build(compile(src).unwrap(), ExecModel::Ocelot).unwrap()
}

/// The environment of the [`DEPENDENCY_CHANNELS`] programs: one noisy
/// sensor, so input values (and the branches on them) vary.
fn channel_env() -> Environment {
    Environment::new().with(
        "s",
        Signal::Noisy {
            base: Box::new(Signal::Constant(7)),
            amplitude: 3,
            seed: 9,
        },
    )
}

/// Runs three attempts of `built` per engine, each on a fresh device of
/// one traced core, and asserts that outcomes, `Stats` and `Obs` traces
/// are equal. Returns the interpreter's stats.
fn assert_traced_core_agrees(
    at: &str,
    built: &Built,
    env: Environment,
    supply: &dyn Fn() -> Box<dyn PowerSupply>,
) -> Stats {
    let core = Arc::new(
        MachineCore::build(
            &built.program,
            &built.regions,
            built.policies.clone(),
            &env,
            CostModel::default(),
        )
        .traced(),
    );
    let mk = |backend| run_on_core(&core, env.clone(), supply(), backend, 3);
    let interp = mk(ExecBackend::Interp);
    let compiled = mk(ExecBackend::Compiled);
    assert_eq!(interp.outcome, compiled.outcome, "{at}");
    assert_eq!(interp.stats, compiled.stats, "{at}");
    assert_eq!(interp.trace, compiled.trace, "{at}");
    interp.stats
}

/// The evaluation's harvested bank with boot jitter, seeded.
fn bank_supply(seed: u64) -> Box<dyn PowerSupply> {
    Box::new(
        HarvestedPower::new(
            Capacitor::new(26_000.0, 2_600.0),
            Harvester::powercast_noisy(seed),
        )
        .with_boot_jitter(seed ^ 0x9E37, 0.4),
    )
}

#[test]
fn harvested_boot_jitter_apps_agree_across_the_registry() {
    // Every app on every registry scenario (all harvested, with boot
    // jitter), plus the evaluation's own bank driven directly: the
    // compiled engine batches through real comparator trips, so
    // its stats and committed traces must match the interpreter's run
    // for run, not only in the fleet aggregate. The hand-written
    // dependency-channel programs run on the bank too.
    let mut reboots = 0;
    let mut reexecs = 0;
    let mut tally = |stats: Stats| {
        reboots += stats.reboots;
        reexecs += stats.region_reexecs;
    };
    for bench in ocelot_apps::all_with_extensions() {
        let built = ocelot_runtime::build(bench.annotated(), ExecModel::Ocelot).unwrap();
        for (i, sc) in ocelot_scenario::all().into_iter().enumerate() {
            let sc = sc.reseeded(40 + i as u64);
            tally(assert_traced_core_agrees(
                &format!("{} on {}", bench.name, sc.name),
                &built,
                sc.environment(),
                &|| sc.supply(),
            ));
        }
        tally(assert_traced_core_agrees(
            &format!("{} on the bank", bench.name),
            &built,
            bench.environment(7),
            &|| bank_supply(7),
        ));
    }
    let mut channel_reboots = 0;
    for (name, src) in DEPENDENCY_CHANNELS {
        let stats = assert_traced_core_agrees(
            &format!("{name} on the bank"),
            &build_ocelot(src),
            channel_env(),
            &|| bank_supply(7),
        );
        channel_reboots += stats.reboots;
        tally(stats);
    }
    let mut storage_reexecs = 0;
    for (name, src) in STORAGE_PATHS {
        let built = build_ocelot(src);
        if name.starts_with("region") {
            let war = &built.regions[0].effects.war;
            assert!(war.contains("count") && war.contains("hist"), "{war:?}");
        }
        let stats = assert_traced_core_agrees(
            &format!("{name} on the bank"),
            &built,
            channel_env(),
            &|| bank_supply(7),
        );
        storage_reexecs += stats.region_reexecs;
        if name == UNBOUND_IN_REGION {
            // Each run adds 4 to the NV cell whatever the failures: a
            // rollback must undo the partial attempt's increments.
            assert!(stats.region_reexecs > 0, "{name}: the region rolled back");
            assert_eq!(
                committed_outputs(&built, bank_supply(7)),
                committed_outputs(&built, Box::new(ContinuousPower)),
                "{name}"
            );
        }
        tally(stats);
    }
    assert!(
        storage_reexecs > 0,
        "the logged region failed mid-region and rolled back"
    );
    assert!(
        reboots > 100 && reexecs > 0,
        "the sweep failed often enough to matter: {reboots} reboots, {reexecs} re-executions"
    );
    assert!(
        channel_reboots > 0,
        "the dependency-channel programs met power failures"
    );
}
