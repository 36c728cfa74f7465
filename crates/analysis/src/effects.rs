//! Read/write effect helpers and per-function global-effect summaries.
//!
//! Both the taint analysis and the WAR/EMW analysis need to know which
//! variables an instruction reads and writes, and which non-volatile
//! globals a call may touch transitively.

use ocelot_ir::ast::{Arg, Expr};
use ocelot_ir::{CallGraph, Function, Op, Place, Program, Terminator};
use std::collections::BTreeSet;

/// Variables (locals, params, and globals — by name) read by `e`.
/// Dereferenced reference parameters are reported as the parameter name.
pub fn expr_reads(e: &Expr) -> BTreeSet<String> {
    e.vars().into_iter().collect()
}

/// Variable names read by an operation (data operands only — branch
/// conditions are handled separately via the terminator).
pub fn op_reads(op: &Op) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    match op {
        Op::Skip | Op::AtomStart { .. } | Op::AtomEnd { .. } => {}
        Op::Bind { src, .. } => out.extend(expr_reads(src)),
        Op::Assign { place, src } => {
            out.extend(expr_reads(src));
            match place {
                Place::Index(a, i) => {
                    // Storing to a[i] reads the index; the array base `a`
                    // is written, not read.
                    let _ = a;
                    out.extend(expr_reads(i));
                }
                Place::Deref(x) => {
                    // `*x = e` uses the reference x as an address.
                    out.insert(x.clone());
                }
                Place::Var(_) => {}
            }
        }
        Op::Input { .. } => {}
        Op::Call { args, .. } => {
            for a in args {
                match a {
                    Arg::Value(e) => out.extend(expr_reads(e)),
                    Arg::Ref(x) => {
                        out.insert(x.clone());
                    }
                }
            }
        }
        Op::Output { args, .. } => {
            for e in args {
                out.extend(expr_reads(e));
            }
        }
        Op::Annot { .. } => {
            // Annotations are analysis markers, not uses (§6.1 erases
            // them before the program runs).
        }
    }
    out
}

/// The local or global scalar directly written by an operation, if any
/// (array writes report the array base; deref writes report the
/// parameter).
pub(crate) fn op_write(op: &Op) -> Option<String> {
    match op {
        Op::Bind { var, .. } | Op::Input { var, .. } => Some(var.clone()),
        Op::Assign { place, .. } => Some(place.base().clone()),
        Op::Call { dst, .. } => dst.clone(),
        _ => None,
    }
}

/// Transitive non-volatile global effects of each function.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct GlobalEffects {
    /// Globals possibly read (directly or via callees).
    pub(crate) reads: BTreeSet<String>,
    /// Globals possibly written (directly or via callees).
    pub(crate) writes: BTreeSet<String>,
}

/// Computes [`GlobalEffects`] for every function, callees first.
///
/// # Panics
///
/// Panics if the call graph is cyclic; run
/// [`ocelot_ir::validate()`] first.
pub(crate) fn global_effects(p: &Program) -> Vec<GlobalEffects> {
    let cg = CallGraph::new(p);
    let order = cg
        .topo_callees_first(p)
        .expect("global_effects requires an acyclic call graph");
    let mut fx: Vec<GlobalEffects> = vec![GlobalEffects::default(); p.funcs.len()];
    for f in order {
        let func = p.func(f);
        let mut e = GlobalEffects::default();
        collect_function(p, func, &fx, &mut e);
        fx[f.0 as usize] = e;
    }
    fx
}

fn collect_function(p: &Program, f: &Function, done: &[GlobalEffects], e: &mut GlobalEffects) {
    let note_reads = |names: &BTreeSet<String>, e: &mut GlobalEffects| {
        for n in names {
            if p.is_global(n) {
                e.reads.insert(n.clone());
            }
        }
    };
    for b in &f.blocks {
        for inst in &b.instrs {
            note_reads(&op_reads(&inst.op), e);
            if let Some(w) = op_write(&inst.op) {
                if p.is_global(&w) {
                    e.writes.insert(w);
                }
            }
            if let Op::Call { callee, .. } = &inst.op {
                let ce = &done[callee.0 as usize];
                e.reads.extend(ce.reads.iter().cloned());
                e.writes.extend(ce.writes.iter().cloned());
            }
        }
        match &b.term {
            Terminator::Branch { cond, .. } => note_reads(&expr_reads(cond), e),
            Terminator::Ret(Some(expr)) => note_reads(&expr_reads(expr), e),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocelot_ir::lower::compile;

    #[test]
    fn expr_reads_cover_all_operand_kinds() {
        let p = compile(
            "nv a[4]; nv g = 0; fn f(&r) { let x = a[g] + *r; } fn main() { let s = 0; f(&s); }",
        )
        .unwrap();
        let f = p.func(p.func_by_name("f").unwrap());
        let bind = f
            .iter_insts()
            .find_map(|(_, i)| match &i.op {
                Op::Bind { var, src } if var == "x" => Some(src.clone()),
                _ => None,
            })
            .unwrap();
        let reads = expr_reads(&bind);
        assert!(reads.contains("a"));
        assert!(reads.contains("g"));
        assert!(reads.contains("r"));
    }

    #[test]
    fn global_effects_are_transitive() {
        let p = compile(
            r#"
            nv g = 0;
            nv h = 0;
            fn leaf() { g = g + 1; }
            fn mid() { leaf(); let x = h; }
            fn main() { mid(); }
            "#,
        )
        .unwrap();
        let fx = global_effects(&p);
        let main_fx = &fx[p.main.0 as usize];
        assert!(
            main_fx.writes.contains("g"),
            "write reaches main transitively"
        );
        assert!(main_fx.reads.contains("g"), "leaf reads g before increment");
        assert!(main_fx.reads.contains("h"));
        assert!(!main_fx.writes.contains("h"));
        let leaf_fx = &fx[p.func_by_name("leaf").unwrap().0 as usize];
        assert!(!leaf_fx.reads.contains("h"));
    }

    #[test]
    fn locals_do_not_appear_in_global_effects() {
        let p = compile("fn main() { let x = 1; let y = x; }").unwrap();
        let fx = global_effects(&p);
        assert!(fx[p.main.0 as usize].reads.is_empty());
        assert!(fx[p.main.0 as usize].writes.is_empty());
    }

    #[test]
    fn array_store_counts_as_write_and_index_as_read() {
        let p = compile("nv a[4]; nv i = 0; fn main() { a[i] = 5; }").unwrap();
        let fx = global_effects(&p);
        let m = &fx[p.main.0 as usize];
        assert!(m.writes.contains("a"));
        assert!(m.reads.contains("i"));
        assert!(!m.reads.contains("a"));
    }

    #[test]
    fn branch_condition_reads_globals() {
        let p = compile("nv g = 0; fn main() { if g > 0 { skip; } }").unwrap();
        let fx = global_effects(&p);
        assert!(fx[p.main.0 as usize].reads.contains("g"));
    }
}
