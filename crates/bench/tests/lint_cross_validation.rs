//! Cross-validates the linter's OC004 (statically redundant dynamic
//! check) report against execution: a check OC004 calls redundant has
//! every required input collected on all paths before it, so a run
//! that never loses power can never record a violation there.
//!
//! Each program is linted, then run on the interpreter (the semantics
//! oracle) under continuous power; no recorded [`Obs::Violation`] may
//! sit at an OC004 primary span.

use ocelot_bench::genprog::SourceGen;
use ocelot_hw::power::ContinuousPower;
use ocelot_hw::sensors::{Environment, Signal};
use ocelot_hw::CostModel;
use ocelot_ir::span::Span;
use ocelot_ir::InstrRef;
use ocelot_lint::{lint_compiled, Code, LintOptions};
use ocelot_runtime::machine::Machine;
use ocelot_runtime::obs::Obs;
use std::collections::BTreeSet;

/// Complete runs per program: enough to cross run boundaries.
const RUNS: u64 = 3;

/// Step budget per run, as in the differential suite.
const MAX_STEPS: u64 = 200_000;

/// The span the linter labels `r` with: the transformed program's span
/// when non-empty, else the pre-erasure program's (annotation sites
/// only survive there).
fn span_of(p: &ocelot_ir::Program, p0: &ocelot_ir::Program, r: InstrRef) -> Span {
    p.span_of(r)
        .filter(|s| !s.is_empty())
        .or_else(|| p0.span_of(r))
        .unwrap_or_default()
}

/// Byte-offset spans, the only currency the lint report speaks.
type SpanSet = BTreeSet<(usize, usize)>;

/// Lints `src`, runs it under continuous power in `env`, and returns
/// the OC004 primary spans and the spans of every recorded violation.
fn both_sides(src: &str, env: Environment) -> (SpanSet, SpanSet) {
    let p0 = ocelot_ir::compile(src).expect("source compiles");
    let compiled = ocelot_core::ocelot_transform(p0.clone()).expect("transform succeeds");
    let report = lint_compiled(&p0, &compiled, src, &LintOptions::default()).expect("lint runs");
    let redundant: SpanSet = report
        .findings
        .iter()
        .filter(|f| f.code == Code::RedundantCheck)
        .map(|f| (f.primary.span.start, f.primary.span.end))
        .collect();

    let mut m = Machine::new(
        &compiled.program,
        &compiled.regions,
        compiled.policies.clone(),
        env,
        CostModel::default(),
        Box::new(ContinuousPower),
    );
    for _ in 0..RUNS {
        m.run_once(MAX_STEPS);
    }
    let violated: SpanSet = m
        .take_trace()
        .iter()
        .filter_map(|o| match o {
            Obs::Violation(ev) => {
                let s = span_of(&compiled.program, &p0, ev.at);
                Some((s.start, s.end))
            }
            _ => None,
        })
        .collect();
    (redundant, violated)
}

/// On every shipped benchmark, no check OC004 reports violates on
/// continuous power.
#[test]
fn oc004_sites_never_violate_on_every_app() {
    for b in ocelot_apps::all_with_extensions() {
        let (redundant, violated) = both_sides(b.annotated_src, b.environment(7));
        let both: Vec<_> = redundant.intersection(&violated).collect();
        assert!(
            both.is_empty(),
            "`{}`: OC004 sites violated at run time: {both:?}",
            b.name
        );
    }
}

/// The same over randomly generated programs — the generator reaches
/// shapes (deep call stacks, dynamic-chain fallbacks, collections on
/// one branch only) that no hand-written app exercises.
#[test]
fn oc004_sites_never_violate_on_generated_programs() {
    let mut nonempty = 0usize;
    for seed in 0..120u64 {
        let src = SourceGen::generate(seed);
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
        let (redundant, violated) = both_sides(&src, env);
        let both: Vec<_> = redundant.intersection(&violated).collect();
        assert!(
            both.is_empty(),
            "seed {seed}: OC004 sites violated at run time: {both:?}\nprogram:\n{src}"
        );
        nonempty += usize::from(!redundant.is_empty());
    }
    // The property must not hold vacuously: a healthy share of seeds
    // actually reports redundant checks.
    assert!(
        nonempty >= 10,
        "only {nonempty}/120 seeds reported OC004; \
         the cross-validation is not exercising anything"
    );
}
