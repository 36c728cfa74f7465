//! Assembling a taint analysis from other documents' flow caches.
//!
//! The serve `lint` op builds its analysis with
//! `ocelot_analysis::incremental::assemble` over a lookup across every
//! open document's `FlowCache`, and lints through `lint_program`. Over
//! the edit-trace programs and generated programs, from four cache sets
//! — none, one warmed on an earlier edit, one warmed on a different
//! program, and all three at once — the assembled analysis must equal
//! `TaintAnalysis::run`, and the report must render the same JSON bytes
//! as `lint_source`.

use ocelot_analysis::incremental::{assemble, FlowCache};
use ocelot_analysis::taint::TaintAnalysis;
use ocelot_bench::genprog::SourceGen;
use ocelot_ir::Program;
use ocelot_lint::json;
use ocelot_lint::{lint_program, lint_source, LintOptions};
use ocelot_serve::verify::{edited_source, EditTrace};

fn program(src: &str) -> Program {
    let p = ocelot_ir::compile(src).expect("compiles");
    ocelot_ir::validate(&p).expect("validates");
    p
}

fn warmed(src: &str) -> FlowCache {
    let mut cache = FlowCache::new();
    cache.run(&program(src));
    cache
}

/// Checks `src` against every cache set and returns the functions the
/// earlier-edit cache let it reuse.
fn check(src: &str, earlier: &str, different: &str, opts: &LintOptions) -> usize {
    let p = program(src);
    let full = TaintAnalysis::run(&p);
    let want = json::render_json(&lint_source(src, opts).expect("lints"));
    let (earlier, different) = (warmed(earlier), warmed(different));
    let empty = FlowCache::new();
    let sets: [(&str, Vec<&FlowCache>); 4] = [
        ("no caches", vec![]),
        ("earlier edit", vec![&earlier]),
        ("different program", vec![&different]),
        ("all three", vec![&empty, &earlier, &different]),
    ];
    let mut reused_from_earlier = 0;
    for (name, caches) in sets {
        let (taint, stats, misses) =
            assemble(&p, |f, key| caches.iter().find_map(|c| c.get(f, key)));
        assert_eq!(taint, full, "{name}: assembled analysis differs\n{src}");
        assert_eq!(stats.analyzed, misses.len(), "{name}");
        assert_eq!(stats.analyzed + stats.reused, p.funcs.len(), "{name}");
        if name == "no caches" {
            assert_eq!(stats.reused, 0);
        }
        if name == "earlier edit" {
            reused_from_earlier = stats.reused;
        }
        let got = lint_program(&p, &taint, src, opts).expect("lints");
        assert_eq!(
            json::render_json(&got),
            want,
            "{name}: report differs from lint_source\n{src}"
        );
    }
    reused_from_earlier
}

#[test]
fn edit_trace_analyses_assemble_from_any_cache_set() {
    let trace = EditTrace {
        funcs: 4,
        edits: 5,
        seed: 3,
    };
    let other = edited_source(&EditTrace { seed: 4, ..trace }, 0);
    let opts = LintOptions {
        window_us: Some(100_000),
        capacity_nj: Some(26_000.0),
        ..LintOptions::default()
    };
    for n in 1..=trace.edits {
        let src = edited_source(&trace, n);
        let reused = check(&src, &edited_source(&trace, n - 1), &other, &opts);
        // One worker and `main` change per edit; the rest must come from
        // the earlier edit's cache, or the reuse is not exercised.
        assert!(reused + 2 >= trace.funcs + 3, "edit {n} reused {reused}");
    }
}

#[test]
fn generated_analyses_assemble_from_any_cache_set() {
    let opts = LintOptions {
        window_us: Some(150),
        capacity_nj: Some(50.0),
        ..LintOptions::default()
    };
    for seed in 0..200 {
        let src = SourceGen::generate(seed);
        // The earlier edit changes only `main`'s last line.
        let last = "out(log, g0 + g1);\n}\n";
        assert!(src.ends_with(last), "seed {seed}: generator shape changed");
        let earlier = format!(
            "{}out(log, g0 + g1 + 1);\n}}\n",
            &src[..src.len() - last.len()]
        );
        let reused = check(&src, &earlier, &SourceGen::generate(seed + 200), &opts);
        assert!(reused > 0, "seed {seed}: the helpers were not reused");
    }
}
