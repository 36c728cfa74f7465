//! Literal edits reuse cached taint flows, and reuse stays sound.
//!
//! The flow cache keys each function on its body modulo literal values
//! (`ocelot_analysis::incremental::input_fingerprints`), which is sound
//! only because the per-function flow analysis reads no literal value.
//! Over the nine apps and generated programs this suite holds that
//! claim two ways:
//!
//! * **Source perturbations.** Every integer and boolean token inside a
//!   function body is rewritten (set ids and loop bounds included, so
//!   some perturbations change more than literals; the declaration
//!   header is left alone, since it keys every function). A cache
//!   warmed on the original, run on the perturbed program, must equal
//!   `TaintAnalysis::run` on it.
//! * **IR perturbations.** Every `Expr::Int`/`Expr::Bool` of the lowered
//!   program is rewritten in place. That is a literal-only edit by
//!   construction, so the cache must reuse every flow as well.
//!
//! The default test is sized for a debug build; the `#[ignore]`d one is
//! the full sweep (3,000 seeds × 3 perturbations), run in release:
//! `cargo test --release -p ocelot-bench --test literal_reuse -- --ignored`.

use ocelot_analysis::incremental::FlowCache;
use ocelot_analysis::taint::TaintAnalysis;
use ocelot_bench::genprog::SourceGen;
use ocelot_ir::ast::{Arg, Expr};
use ocelot_ir::{Op, Place, Program, Terminator};

fn program(src: &str) -> Option<Program> {
    let p = ocelot_ir::compile(src).ok()?;
    ocelot_ir::validate(&p).ok()?;
    Some(p)
}

/// A new value for the `index`-th literal under perturbation `variant`:
/// non-negative, so the token stays one integer literal.
fn perturbed(n: i64, variant: u64, index: usize) -> i64 {
    (n.wrapping_mul(7) + 3 * variant as i64 + index as i64).rem_euclid(97) + 1
}

/// Rewrites every integer and boolean token inside a function body of
/// `src`.
fn perturb_source(src: &str, variant: u64) -> String {
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut out = String::with_capacity(src.len());
    let mut rest = src;
    let mut index = 0;
    let mut depth = 0usize;
    while let Some(c) = rest.chars().next() {
        let word_len = rest.find(|c: char| !ident(c)).unwrap_or(rest.len());
        if word_len == 0 {
            match c {
                '{' => depth += 1,
                '}' => depth = depth.saturating_sub(1),
                _ => {}
            }
            out.push(c);
            rest = &rest[c.len_utf8()..];
            continue;
        }
        let word = &rest[..word_len];
        match word {
            _ if depth == 0 => out.push_str(word),
            _ if c.is_ascii_digit() => match word.parse::<i64>() {
                Ok(n) => out.push_str(&perturbed(n, variant, index).to_string()),
                Err(_) => out.push_str(word),
            },
            "true" | "false" if (variant + index as u64) % 2 == 1 => {
                out.push_str(if word == "true" { "false" } else { "true" });
            }
            _ => out.push_str(word),
        }
        index += 1;
        rest = &rest[word_len..];
    }
    out
}

/// Rewrites every literal expression of the lowered program in place.
fn perturb_ir(p: &mut Program, variant: u64) {
    fn expr(e: &mut Expr, variant: u64, index: &mut usize) {
        match e {
            Expr::Int(n) => {
                *n = perturbed(*n, variant, *index);
                *index += 1;
            }
            Expr::Bool(b) => {
                *b = !*b;
                *index += 1;
            }
            Expr::Var(_) | Expr::Deref(_) | Expr::Ref(_) => {}
            Expr::Index(_, i) | Expr::Unary(_, i) => expr(i, variant, index),
            Expr::Binary(_, l, r) => {
                expr(l, variant, index);
                expr(r, variant, index);
            }
        }
    }
    let mut index = 0;
    for b in p.funcs.iter_mut().flat_map(|f| f.blocks.iter_mut()) {
        for inst in &mut b.instrs {
            match &mut inst.op {
                Op::Bind { src, .. } => expr(src, variant, &mut index),
                Op::Assign { place, src } => {
                    if let Place::Index(_, i) = place {
                        expr(i, variant, &mut index);
                    }
                    expr(src, variant, &mut index);
                }
                Op::Call { args, .. } => {
                    for a in args {
                        if let Arg::Value(e) = a {
                            expr(e, variant, &mut index);
                        }
                    }
                }
                Op::Output { args, .. } => {
                    for e in args {
                        expr(e, variant, &mut index);
                    }
                }
                _ => {}
            }
        }
        match &mut b.term {
            Terminator::Branch { cond: e, .. } | Terminator::Ret(Some(e)) => {
                expr(e, variant, &mut index)
            }
            _ => {}
        }
    }
}

/// What one sweep saw.
#[derive(Default)]
struct Tally {
    /// Source perturbations checked (perturbed sources that compile).
    checked: usize,
    /// Source perturbations that no longer compile or validate.
    skipped: usize,
    /// Functions in the checked source perturbations, and how many of
    /// them the cache reused.
    funcs: usize,
    reused: usize,
}

/// Checks `src` under `variants` source and IR perturbations each,
/// every one against a cache warmed on the original alone.
fn check(name: &str, src: &str, variants: u64, tally: &mut Tally) {
    let original = program(src).unwrap_or_else(|| panic!("{name}: original does not verify"));
    let mut warm = FlowCache::new();
    warm.run(&original);
    for variant in 1..=variants {
        let mut edited = original.clone();
        perturb_ir(&mut edited, variant);
        let (taint, stats) = warm.clone().run(&edited);
        assert_eq!(stats.analyzed, 0, "{name} IR variant {variant}");
        assert_eq!(
            taint,
            TaintAnalysis::run(&edited),
            "{name} IR variant {variant}"
        );

        let Some(perturbed) = program(&perturb_source(src, variant)) else {
            tally.skipped += 1;
            continue;
        };
        let (taint, stats) = warm.clone().run(&perturbed);
        assert_eq!(
            taint,
            TaintAnalysis::run(&perturbed),
            "{name} source variant {variant}"
        );
        tally.checked += 1;
        tally.funcs += stats.funcs;
        tally.reused += stats.reused;
    }
}

fn sweep(seeds: u64, variants: u64) -> Tally {
    let mut tally = Tally::default();
    for app in ocelot_apps::all_with_extensions() {
        check(app.name, app.annotated_src, variants, &mut tally);
        check(app.name, app.atomics_src, variants, &mut tally);
    }
    for seed in 0..seeds {
        let src = SourceGen::generate(seed);
        check(&format!("genprog seed {seed}"), &src, variants, &mut tally);
    }
    // Most perturbations keep compiling, and a good share of their
    // functions are reused; otherwise the sweep exercises nothing.
    assert!(
        tally.checked > 4 * tally.skipped,
        "{} skipped",
        tally.skipped
    );
    assert!(
        tally.reused * 10 > tally.funcs,
        "{} of {} reused",
        tally.reused,
        tally.funcs
    );
    tally
}

#[test]
fn literal_perturbations_reuse_soundly() {
    sweep(120, 3);
}

#[test]
#[ignore = "full-size sweep; run in release with --ignored"]
fn literal_perturbations_reuse_soundly_full() {
    let t = sweep(3000, 3);
    eprintln!(
        "{} programs checked, {} skipped; {} of {} functions reused",
        t.checked, t.skipped, t.reused, t.funcs
    );
}
