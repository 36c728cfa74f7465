//! Criterion benchmarks for the intermittent-execution simulator: one
//! complete program run per iteration, on continuous and harvested
//! power, across execution models — and the interpreter vs compiled
//! backend comparison that baselines the compiled engine's speedup.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ocelot_bench::harness::{bench_supply, build_for, calibrated_costs};
use ocelot_hw::power::ContinuousPower;
use ocelot_runtime::machine::Machine;
use ocelot_runtime::model::ExecModel;
use ocelot_runtime::{ExecBackend, OptLevel, MAX_STEPS};

fn bench_continuous(c: &mut Criterion) {
    let mut g = c.benchmark_group("run_continuous");
    for b in ocelot_apps::all() {
        for model in [ExecModel::Jit, ExecModel::Ocelot, ExecModel::AtomicsOnly] {
            let built = build_for(&b, model);
            let id = BenchmarkId::new(model.name(), b.name);
            g.bench_function(id, |bencher| {
                bencher.iter(|| {
                    let mut m = Machine::new(
                        &built.program,
                        &built.regions,
                        built.policies.clone(),
                        b.environment(1),
                        calibrated_costs(&b),
                        Box::new(ContinuousPower),
                    );
                    m.run_once(MAX_STEPS)
                });
            });
        }
    }
    g.finish();
}

fn bench_intermittent(c: &mut Criterion) {
    let mut g = c.benchmark_group("run_intermittent");
    for b in ocelot_apps::all() {
        let built = build_for(&b, ExecModel::Ocelot);
        g.bench_with_input(BenchmarkId::from_parameter(b.name), &b, |bencher, b| {
            bencher.iter(|| {
                let mut m = Machine::new(
                    &built.program,
                    &built.regions,
                    built.policies.clone(),
                    b.environment(1),
                    calibrated_costs(b),
                    Box::new(bench_supply(1)),
                );
                m.run_once(MAX_STEPS)
            });
        });
    }
    g.finish();
}

/// The step-loop throughput baseline: one Ocelot-model run per paper
/// app on continuous power, interpreter vs compiled engine. The
/// compiled backend's acceptance bar is ≥2x on at least one app.
fn bench_backends(c: &mut Criterion) {
    let mut g = c.benchmark_group("backend");
    for b in ocelot_apps::all() {
        let built = build_for(&b, ExecModel::Ocelot);
        for backend in ExecBackend::all() {
            let id = BenchmarkId::new(backend.name(), b.name);
            g.bench_function(id, |bencher| {
                // Machine construction and one warm-up run stay outside
                // the timed loop: the (one-time) compile pass amortizes
                // into the steady-state step loop being measured, and a
                // single program run is short enough that timing ten
                // per sample is what keeps the measurement above clock
                // jitter.
                let mut m = Machine::new(
                    &built.program,
                    &built.regions,
                    built.policies.clone(),
                    b.environment(1),
                    calibrated_costs(&b),
                    Box::new(ContinuousPower),
                )
                .with_backend(backend);
                m.run_once(MAX_STEPS);
                bencher.iter(|| {
                    for _ in 0..10 {
                        m.run_once(MAX_STEPS);
                    }
                });
            });
        }
    }
    g.finish();
}

/// The input-path throughput bar: the input-bound apps (photo's
/// single-sensor poll loop, fusion's three-sensor consistent set,
/// radiolog's duty-cycled send window), interpreter vs compiled, on
/// continuous power. These are the workloads where per-collection
/// bookkeeping — chain resolution, timestamping, bit checks, frame
/// binding — dominates, so they are what the pre-resolved input sites
/// and slot-indexed frames must visibly speed up (acceptance bar:
/// ≥1.5x over the pre-interning compiled baseline on photo or fusion).
fn bench_input(c: &mut Criterion) {
    let mut g = c.benchmark_group("input");
    let input_bound = ["photo", "send_photo", "fusion", "radiolog"];
    for b in ocelot_apps::all_with_extensions()
        .into_iter()
        .filter(|b| input_bound.contains(&b.name))
    {
        let built = build_for(&b, ExecModel::Ocelot);
        for backend in ExecBackend::all() {
            let id = BenchmarkId::new(backend.name(), b.name);
            g.bench_function(id, |bencher| {
                let mut m = Machine::new(
                    &built.program,
                    &built.regions,
                    built.policies.clone(),
                    b.environment(1),
                    calibrated_costs(&b),
                    Box::new(ContinuousPower),
                )
                .with_backend(backend);
                m.run_once(MAX_STEPS);
                bencher.iter(|| {
                    for _ in 0..10 {
                        m.run_once(MAX_STEPS);
                    }
                });
            });
        }
    }
    g.finish();
}

/// The optimizing middle-end's bar: the compiled engine at `--opt 0`
/// (straight from the lowered IR) vs `--opt 2` (SSA constant folding,
/// dead-store shrink, check elision, pure-expression evaluation), on
/// the compute-bound apps where folding bites (tire's filter math,
/// cem's compression kernel) and the input apps where check elision
/// does (fusion, radiolog). Acceptance bar: ≥1.5x on at least one
/// compute app. Both levels are observationally identical — the
/// differential suite holds that line — so this group measures pure
/// host-side work removed.
fn bench_opt(c: &mut Criterion) {
    let mut g = c.benchmark_group("opt");
    let apps = ["tire", "cem", "fusion", "radiolog"];
    for b in ocelot_apps::all_with_extensions()
        .into_iter()
        .filter(|b| apps.contains(&b.name))
    {
        let built = build_for(&b, ExecModel::Ocelot);
        for opt in OptLevel::all() {
            let id = BenchmarkId::new(format!("O{}", opt.name()), b.name);
            g.bench_function(id, |bencher| {
                let mut m = Machine::new(
                    &built.program,
                    &built.regions,
                    built.policies.clone(),
                    b.environment(1),
                    calibrated_costs(&b),
                    Box::new(ContinuousPower),
                )
                .with_backend(ExecBackend::Compiled)
                .with_opt(opt);
                m.run_once(MAX_STEPS);
                bencher.iter(|| {
                    for _ in 0..10 {
                        m.run_once(MAX_STEPS);
                    }
                });
            });
        }
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_continuous, bench_intermittent, bench_backends, bench_input, bench_opt
}
criterion_main!(benches);
