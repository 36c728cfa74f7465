//! The differential oracle for the taint fixpoint: `TaintAnalysis::run`
//! (dense-id bitset rows) must equal the harness's reference fixpoint
//! (`ocelot_bench::taint_ref`, the map-of-sets analysis it replaced)
//! exactly — every flow, context and stored-global chain — on the nine
//! apps, generated programs and the edit-trace workload, and so must a
//! `FlowCache` that mixes cached and fresh flows.
//!
//! The default tests are sized for a debug build; the `#[ignore]`d one
//! is the full sweep (3,000 generated programs and the full-size edit
//! trace), run in release:
//! `cargo test --release -p ocelot-bench --test taint_oracle -- --ignored`.

use ocelot_analysis::incremental::FlowCache;
use ocelot_analysis::taint::TaintAnalysis;
use ocelot_bench::genprog::SourceGen;
use ocelot_bench::taint_ref;
use ocelot_ir::Program;
use ocelot_serve::verify::{edited_source, EditTrace};

fn program(src: &str) -> Option<Program> {
    let p = ocelot_ir::compile(src).ok()?;
    ocelot_ir::validate(&p).ok()?;
    Some(p)
}

fn assert_matches_reference(what: &str, p: &Program, analysis: &TaintAnalysis) {
    let reference = taint_ref::run(p);
    for (f, (got, want)) in analysis.flows.iter().zip(&reference.flows).enumerate() {
        assert_eq!(got, want, "{what}: flow of `{}` differs", p.funcs[f].name);
    }
    assert_eq!(*analysis, reference, "{what}: analysis differs");
}

fn check(what: &str, src: &str) -> bool {
    let Some(p) = program(src) else {
        return false;
    };
    assert_matches_reference(what, &p, &TaintAnalysis::run(&p));
    true
}

/// Checks generated programs `seeds`; returns how many validated.
fn sweep_genprog(seeds: std::ops::Range<u64>) -> usize {
    let n = seeds.end - seeds.start;
    let checked = seeds
        .filter(|&seed| check(&format!("genprog seed {seed}"), &SourceGen::generate(seed)))
        .count();
    // Most generated programs validate; otherwise the sweep checks
    // nothing.
    assert!(checked as u64 * 2 > n, "{checked} of {n} validated");
    checked
}

/// Checks versions `0..=trace.edits` of an edit trace from scratch, and
/// a flow cache warmed on each version and run on the next.
fn sweep_trace(trace: &EditTrace) {
    let mut cache = FlowCache::new();
    for n in 0..=trace.edits {
        let what = format!("edit-trace version {n}");
        let p = program(&edited_source(trace, n)).expect("edit trace validates");
        let (incremental, _) = cache.run(&p);
        assert_matches_reference(&what, &p, &TaintAnalysis::run(&p));
        assert_matches_reference(&format!("{what} (flow cache)"), &p, &incremental);
    }
}

#[test]
fn apps_match_the_reference() {
    for app in ocelot_apps::all_with_extensions() {
        assert!(check(app.name, app.annotated_src), "{} validates", app.name);
        assert!(check(app.name, app.atomics_src), "{} validates", app.name);
    }
}

#[test]
fn generated_programs_match_the_reference() {
    sweep_genprog(0..200);
}

#[test]
fn edit_trace_versions_match_the_reference() {
    // The standard trace's seed (11), with fewer workers than its 36 so
    // the reference stays quick in a debug build.
    sweep_trace(&EditTrace {
        funcs: 4,
        edits: 4,
        seed: 11,
    });
}

#[test]
fn a_cache_warmed_on_another_program_matches_the_reference() {
    // Consecutive generated programs share their helper functions and
    // differ in `main`: the cache reuses the former and analyzes the
    // latter, so the assembled result mixes cached and fresh flows.
    let mut cache = FlowCache::new();
    let mut mixed = 0;
    for seed in 0..40 {
        let Some(p) = program(&SourceGen::generate(seed)) else {
            continue;
        };
        let (analysis, stats) = cache.run(&p);
        if stats.reused > 0 && stats.analyzed > 0 {
            mixed += 1;
        }
        assert_matches_reference(&format!("genprog seed {seed} (flow cache)"), &p, &analysis);
    }
    assert!(mixed > 10, "only {mixed} runs mixed cached and fresh flows");
}

#[test]
#[ignore = "full sweep; run in release with --ignored"]
fn full_sweep_matches_the_reference() {
    let checked = sweep_genprog(0..3000);
    eprintln!("{checked} of 3000 generated programs validated and matched");
    sweep_trace(&EditTrace {
        funcs: 36,
        edits: 4,
        seed: 11,
    });
}
