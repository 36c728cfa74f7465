//! Pins the progress analyses (`ocelot_progress::{WcetAnalysis,
//! FeasAnalysis}`) and the lint report built on them, value for value:
//! every program the workspace ships or generates must keep the same
//! worst-case and best-case cycle bounds, the same error values, and
//! the same lint JSON bytes.
//!
//! Inputs: the nine apps (annotated and atomics-only sources),
//! `examples/programs/*.oc`, `examples/lint/*.oc`, every source of the
//! serve edit trace (`edited_source` 0..=16) and `genprog` seeds
//! `0..300`. Each yields one line of `golden/progress.txt`: its name and
//! the FNV-1a digest of
//!
//! - `func_wcet` and `func_min` of every function,
//! - `between` and `min_between` (both edge sets) from each function's
//!   entry to the start of every block, and from every block's start
//!   through the exit,
//! - `region_body_wcet` and `region_entry_cycles` of every region,
//! - `worst_jit_checkpoint_cycles`,
//! - the lint JSON at default options, at `window_us` 1000 and at
//!   `capacity_nj` [`SMALL_CAPACITY_NJ`],
//!
//! or of the error text, for a source that does not compile or
//! transform. An `#[ignore]`d release sweep pins `genprog` seeds
//! `0..3000` as the single `sweep` line of the same file.
//!
//! ## Regenerating the fixture
//!
//! Only after an intentional change to what the analyses compute:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p ocelot-bench --test progress_pin
//! UPDATE_GOLDEN=1 cargo test --release -p ocelot-bench --test progress_pin -- --ignored
//! ```

use ocelot_analysis::dom::Point;
use ocelot_analysis::incremental::fnv1a;
use ocelot_bench::genprog::SourceGen;
use ocelot_hw::energy::CostModel;
use ocelot_ir::FuncId;
use ocelot_lint::{lint_compiled, LintOptions};
use ocelot_progress::{EdgeSet, FeasAnalysis, ProgressReport, WcetAnalysis};
use ocelot_serve::verify::{edited_source, EditTrace};
use std::fmt::Write;
use std::path::{Path, PathBuf};

const GENPROG_SEEDS: u64 = 300;
const SWEEP_SEEDS: u64 = 3000;
/// A buffer on which the example programs' regions split between never
/// fitting (OC006) and fitting only in the best case (OC007).
const SMALL_CAPACITY_NJ: f64 = 6000.0;
/// The serve benchmark's edit trace.
const TRACE: EditTrace = EditTrace {
    funcs: 2,
    edits: 16,
    seed: 1,
};
const GOLDEN: &str = "tests/golden/progress.txt";
const SWEEP_PREFIX: &str = "sweep ";

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every analysis value of `src`, one per line.
fn rendering(src: &str) -> String {
    let p = match ocelot_ir::compile(src) {
        Ok(p) => p,
        Err(e) => return format!("compile error: {e:?}"),
    };
    let compiled = match ocelot_core::ocelot_transform(p) {
        Ok(c) => c,
        Err(e) => return format!("transform error: {e:?}"),
    };
    let p = &compiled.program;
    let costs = CostModel::default();
    let mut out = String::new();
    let wcet = WcetAnalysis::new(p, &costs, &compiled.regions);
    let feas = FeasAnalysis::new(p, &costs);
    let _ = writeln!(out, "jit {}", wcet.worst_jit_checkpoint_cycles());
    for f in &p.funcs {
        let _ = writeln!(out, "fn {} wcet {:?}", f.name, wcet.func_wcet(f.id));
        let Ok(feas) = &feas else { continue };
        let _ = writeln!(out, "fn {} min {}", f.name, feas.func_min(f.id));
        let entry = Point::new(f.entry, 0);
        let exit = Point::new(f.exit, f.block(f.exit).instrs.len() + 1);
        for b in &f.blocks {
            let at = Point::new(b.id, 0);
            let _ = writeln!(
                out,
                " b{} {:?} {:?} {:?} {:?} {:?} {:?}",
                b.id.0,
                wcet.between(f.id, entry, at),
                wcet.between(f.id, at, exit),
                feas.min_between(f.id, entry, at, EdgeSet::All),
                feas.min_between(f.id, entry, at, EdgeSet::BoundedOnly),
                feas.min_to_exit(f.id, at, EdgeSet::All),
                feas.min_to_exit(f.id, at, EdgeSet::BoundedOnly),
            );
        }
    }
    if let Err(e) = &feas {
        let _ = writeln!(out, "feas error: {e:?}");
    }
    for r in &compiled.regions {
        let _ = writeln!(
            out,
            "region {} in {} body {:?} entry {}",
            r.id.0,
            func_name(p, r.func),
            wcet.region_body_wcet(r),
            wcet.region_entry_cycles(r)
        );
    }
    let options = [
        LintOptions::default(),
        LintOptions {
            window_us: Some(1000),
            ..LintOptions::default()
        },
        LintOptions {
            capacity_nj: Some(SMALL_CAPACITY_NJ),
            ..LintOptions::default()
        },
    ];
    for opts in &options {
        match lint_compiled(&compiled, src, opts) {
            Ok(report) => {
                let _ = writeln!(out, "lint {}", ocelot_lint::json::render_json(&report));
            }
            Err(e) => {
                let _ = writeln!(out, "lint error: {e}");
            }
        }
    }
    out
}

fn func_name(p: &ocelot_ir::Program, f: FuncId) -> &str {
    &p.func(f).name
}

fn digest(src: &str) -> String {
    format!("{:016x}", fnv1a(rendering(src).as_bytes()))
}

/// `.oc` files under `dir`, sorted by name.
fn oc_files(dir: &str) -> Vec<(String, String)> {
    let mut files: Vec<_> = std::fs::read_dir(repo_root().join(dir))
        .unwrap_or_else(|e| panic!("read {dir}: {e}"))
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "oc"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let name = format!("{dir}/{}", p.file_name().unwrap().to_string_lossy());
            let src = std::fs::read_to_string(&p).expect("read source");
            (name, src)
        })
        .collect()
}

fn corpus() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for b in ocelot_apps::all_with_extensions() {
        out.push((format!("app/{}/annotated", b.name), b.annotated_src.into()));
        out.push((format!("app/{}/atomics", b.name), b.atomics_src.into()));
    }
    out.extend(oc_files("examples/programs"));
    out.extend(oc_files("examples/lint"));
    for n in 0..=TRACE.edits {
        out.push((format!("edit-trace/{n}"), edited_source(&TRACE, n)));
    }
    for seed in 0..GENPROG_SEEDS {
        out.push((format!("genprog/{seed}"), SourceGen::generate(seed)));
    }
    out
}

/// The golden file's lines, split into per-input lines and the sweep
/// line.
fn golden() -> (Vec<String>, Option<String>) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    let text = std::fs::read_to_string(&path).unwrap_or_default();
    let (sweep, lines): (Vec<_>, Vec<_>) = text
        .lines()
        .map(str::to_string)
        .partition(|l| l.starts_with(SWEEP_PREFIX));
    (lines, sweep.into_iter().next())
}

fn write_golden(lines: &[String], sweep: Option<&String>) {
    let mut text = String::new();
    for l in lines.iter().chain(sweep) {
        let _ = writeln!(text, "{l}");
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    std::fs::write(&path, text).expect("write fixture");
}

#[test]
fn every_shipped_and_generated_program_keeps_its_pinned_bounds_and_lint_bytes() {
    let actual: Vec<String> = corpus()
        .into_iter()
        .map(|(name, src)| format!("{name} {}", digest(&src)))
        .collect();
    let (expected, sweep) = golden();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        write_golden(&actual, sweep.as_ref());
        return;
    }
    assert!(!expected.is_empty(), "read {GOLDEN}");
    let (mut exp, mut act) = (expected.iter(), actual.iter());
    loop {
        match (exp.next(), act.next()) {
            (None, None) => break,
            (e, a) => assert_eq!(e, a, "progress analyses drifted from their pin"),
        }
    }
}

/// `genprog` seeds `0..3000`, folded into one digest. Run in release:
/// `cargo test --release -p ocelot-bench --test progress_pin -- --ignored`.
#[test]
#[ignore = "3,000-seed sweep; run in release"]
fn genprog_sweep_keeps_its_pinned_digest() {
    let mut all = String::new();
    for seed in 0..SWEEP_SEEDS {
        let _ = writeln!(all, "{seed} {}", digest(&SourceGen::generate(seed)));
    }
    let actual = format!(
        "{SWEEP_PREFIX}genprog/0..{SWEEP_SEEDS} {:016x}",
        fnv1a(all.as_bytes())
    );
    let (lines, sweep) = golden();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        write_golden(&lines, Some(&actual));
        return;
    }
    assert_eq!(sweep.as_deref(), Some(actual.as_str()), "sweep drifted");
}

/// A region holding a counter `while` loop of `trips` iterations: the
/// shape only the monotone-counter bound recovery reads (no app or
/// example program has one), stepping `i` by `step`.
fn counter_loop_source(trips: u32, step: &str) -> String {
    format!(
        "sensor s; fn main() {{ atomic {{ let i = 0; let acc = 0; \
         while i < {trips} {{ let v = in(s); acc = acc + v; i = i {step}; }} \
         out(log, acc); }} }}"
    )
}

/// The region's `(entry, body)` worst-case cycles.
fn counter_loop_budget(trips: u32, step: &str) -> Result<(u64, u64), String> {
    let p = ocelot_ir::compile(&counter_loop_source(trips, step)).expect("compiles");
    let compiled = ocelot_core::ocelot_transform(p).expect("transforms");
    let report =
        ProgressReport::analyze(&compiled.program, &compiled.regions, &CostModel::default())
            .map_err(|e| e.to_string())?;
    assert_eq!(report.regions.len(), 1);
    Ok((
        report.regions[0].entry_cycles,
        report.regions[0].body_cycles,
    ))
}

#[test]
fn counter_while_loop_in_a_region_keeps_its_pinned_bound_and_wcet() {
    let (entry, body8) = counter_loop_budget(8, "+ 1").expect("bounded");
    assert_eq!((entry, body8), (592, 33674), "pinned region budget");
    // The recovered bound is the trip count: the body WCET is affine in it.
    let (_, body4) = counter_loop_budget(4, "+ 1").expect("bounded");
    let (_, body16) = counter_loop_budget(16, "+ 1").expect("bounded");
    assert_eq!(body16 - body8, 2 * (body8 - body4));
    // A counter stepping away from the exit is not bounded.
    let err = counter_loop_budget(8, "- 1").expect_err("unbounded");
    assert!(err.contains("monotone"), "{err}");
}
