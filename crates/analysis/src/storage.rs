//! The storage class of every store to a declared local.
//!
//! The modeling language has no block scoping, so a local bound on one
//! arm of an `if` stays in scope, unbound, on the other. A store to an
//! unbound local goes to the non-volatile cell of its name (Appendix
//! B), costing an NV write and, inside a region, an undo-log entry. A
//! definite-assignment dataflow decides once per program which stores
//! can take that path; both engines and the WCET bound read it.

use ocelot_ir::ast::{Arg, Expr};
use ocelot_ir::cfg::Cfg;
use ocelot_ir::{BlockId, Function, Inst, InstrRef, Op, Place, Program, Terminator};
use std::collections::HashMap;

/// Where a store to a declared local or value parameter goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreClass {
    /// Always to the volatile slot, binding it if need be: the
    /// destination is a value parameter, a binding (`let`, input or call
    /// destination) definitely reaches the store, or the local is never
    /// address-taken and definitely written before every read, so no
    /// read can tell a slot bound by the store from an unbound one.
    Volatile,
    /// To the slot when it is bound at run time, and otherwise to the
    /// non-volatile cell of the local's name.
    MaybeNv,
}

/// The [`StoreClass`] of every store to a declared local or value
/// parameter of a program, by instruction.
#[derive(Debug, Clone, Default)]
pub struct StoreClasses {
    /// Indexed `[func][label]`; `None` for every other instruction.
    funcs: Vec<Vec<Option<StoreClass>>>,
}

impl StoreClasses {
    /// Classifies every store of `p`.
    pub fn analyze(p: &Program) -> Self {
        StoreClasses {
            funcs: p.funcs.iter().map(classify).collect(),
        }
    }

    /// The class of the store at `at`, or `None` when `at` is not a
    /// store to a declared local or value parameter of its function.
    pub fn class(&self, at: InstrRef) -> Option<StoreClass> {
        self.funcs
            .get(at.func.0 as usize)
            .and_then(|f| f.get(at.label.0 as usize))
            .copied()
            .flatten()
    }
}

fn classify(f: &Function) -> Vec<Option<StoreClass>> {
    let scan = Scan::run(f);
    let mut out = vec![None; scan.defs.len()];
    // Needed only once some store finds its local possibly unbound.
    let mut written_first = None;
    let mut set = Vec::new();
    for b in &f.blocks {
        set.clone_from(&scan.ins[b.id.0 as usize]);
        scan.walk(b.id, &mut set, |inst, set| {
            let Op::Assign {
                place: Place::Var(x),
                ..
            } = &inst.op
            else {
                return;
            };
            let bound = scan.defs[inst.label.0 as usize].is_some_and(|i| has(set, i));
            let param = f.params.iter().any(|p| p.name == *x && !p.by_ref);
            out[inst.label.0 as usize] = match scan.locals.get(x.as_str()) {
                _ if bound || param => Some(StoreClass::Volatile),
                Some(&i) if written_first.get_or_insert_with(|| scan.written_first())[i] => {
                    Some(StoreClass::Volatile)
                }
                Some(_) => Some(StoreClass::MaybeNv),
                None => None,
            };
        });
    }
    out
}

/// Definite assignment over one function's `n` declared locals (a name
/// declared twice keeps its last index, and its first goes unused). In a
/// bit set, bit `i` says local `i` is bound (by a `let`, an input or a
/// call destination) on every path, and bit `n + i` that it is written,
/// by a binding or an `x = e` store.
struct Scan<'f> {
    f: &'f Function,
    /// Each declared local's index.
    locals: HashMap<&'f str, usize>,
    /// The local each instruction defines, if any, by label.
    defs: Vec<Option<usize>>,
    /// The set at each block's entry.
    ins: Vec<Vec<u64>>,
}

impl<'f> Scan<'f> {
    fn run(f: &'f Function) -> Self {
        let locals: HashMap<&str, usize> = f
            .locals
            .iter()
            .enumerate()
            .map(|(i, l)| (l.as_str(), i))
            .collect();
        let len = f.iter_insts().map(|(_, i)| i.label.0 as usize + 1).max();
        let mut defs = vec![None; len.unwrap_or(0)];
        for (_, inst) in f.iter_insts() {
            defs[inst.label.0 as usize] =
                inst.op.def().and_then(|x| locals.get(x.as_str()).copied());
        }
        let words = (2 * f.locals.len()).div_ceil(64);
        // Empty at the entry block, full elsewhere until some path says
        // otherwise (so it stays full where no path reaches).
        let ins = f
            .blocks
            .iter()
            .map(|b| vec![if b.id == f.entry { 0 } else { !0 }; words]);
        let mut scan = Scan {
            f,
            locals,
            defs,
            ins: ins.collect(),
        };
        // What each block binds and writes. Definite assignment never
        // kills, so a block's exit set is its entry set plus these.
        let mut gen = vec![vec![0; words]; f.blocks.len()];
        for (b, set) in f.blocks.iter().zip(&mut gen) {
            scan.walk(b.id, set, |_, _| {});
        }
        let cfg = Cfg::new(f);
        let mut next = vec![0; words];
        let mut changed = true;
        while changed {
            changed = false;
            for &b in cfg.rpo().iter().filter(|&&b| b != f.entry) {
                next.fill(!0);
                for p in cfg.preds(b) {
                    let (ins, gen) = (&scan.ins[p.0 as usize], &gen[p.0 as usize]);
                    for (w, (i, g)) in next.iter_mut().zip(ins.iter().zip(gen)) {
                        *w &= i | g;
                    }
                }
                changed |= next != scan.ins[b.0 as usize];
                scan.ins[b.0 as usize].copy_from_slice(&next);
            }
        }
        scan
    }

    /// Walks block `b` forward, turning `set` from its entry set into
    /// its exit set and calling `visit` on each instruction with the set
    /// before it.
    fn walk(&self, b: BlockId, set: &mut [u64], mut visit: impl FnMut(&'f Inst, &[u64])) {
        let n = self.f.locals.len();
        for inst in &self.f.block(b).instrs {
            visit(inst, set);
            if let Some(i) = self.defs[inst.label.0 as usize] {
                insert(set, n + i);
                if !matches!(inst.op, Op::Assign { .. }) {
                    insert(set, i);
                }
            }
        }
    }

    /// Per local: never address-taken, and written before every read.
    fn written_first(&self) -> Vec<bool> {
        let n = self.f.locals.len();
        let mut first = vec![true; n];
        let mut read = |x: &str, set: &[u64], by_ref: bool| {
            if let Some(&i) = self.locals.get(x) {
                first[i] &= has(set, n + i) && !by_ref;
            }
        };
        for b in &self.f.blocks {
            let mut set = self.ins[b.id.0 as usize].clone();
            self.walk(b.id, &mut set, |inst, set| {
                let mut reads = |e: &Expr| expr_reads(e, &mut |x| read(x, set, false));
                match &inst.op {
                    Op::Bind { src, .. } => reads(src),
                    Op::Assign { place, src } => {
                        reads(src);
                        if let Place::Index(_, i) = place {
                            reads(i);
                        }
                    }
                    Op::Call { args, .. } => args.iter().for_each(|a| match a {
                        Arg::Value(e) => expr_reads(e, &mut |x| read(x, set, false)),
                        Arg::Ref(x) => read(x, set, true),
                    }),
                    Op::Output { args, .. } => args.iter().for_each(reads),
                    _ => {}
                }
            });
            if let Terminator::Branch { cond: e, .. } | Terminator::Ret(Some(e)) = &b.term {
                expr_reads(e, &mut |x| read(x, &set, false));
            }
        }
        first
    }
}

fn has(set: &[u64], i: usize) -> bool {
    set[i / 64] >> (i % 64) & 1 == 1
}

fn insert(set: &mut [u64], i: usize) {
    set[i / 64] |= 1 << (i % 64);
}

/// Calls `read` on every variable `e` reads by value.
fn expr_reads<'a>(e: &'a Expr, read: &mut impl FnMut(&'a str)) {
    match e {
        Expr::Var(x) => read(x),
        Expr::Index(_, e) | Expr::Unary(_, e) => expr_reads(e, read),
        Expr::Binary(_, l, r) => {
            expr_reads(l, read);
            expr_reads(r, read);
        }
        Expr::Int(_) | Expr::Bool(_) | Expr::Deref(_) | Expr::Ref(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocelot_ir::lower::compile;
    use std::collections::BTreeSet;
    use StoreClass::{MaybeNv, Volatile};

    fn program(src: &str) -> Program {
        let p = compile(src).unwrap();
        ocelot_ir::validate(&p).unwrap();
        p
    }

    /// The class of every `x = e` store of `func` to a source-level
    /// name, in block order.
    fn classes(src: &str, func: &str) -> Vec<(String, Option<StoreClass>)> {
        classes_of(&program(src), func)
    }

    fn classes_of(p: &Program, func: &str) -> Vec<(String, Option<StoreClass>)> {
        let classes = StoreClasses::analyze(p);
        let f = p.func(p.func_by_name(func).unwrap());
        f.iter_insts()
            .filter_map(|(_, i)| match &i.op {
                Op::Assign {
                    place: Place::Var(x),
                    ..
                } if !x.starts_with('$') => Some((
                    x.clone(),
                    classes.class(InstrRef {
                        func: f.id,
                        label: i.label,
                    }),
                )),
                _ => None,
            })
            .collect()
    }

    fn main_classes(src: &str) -> Vec<(String, Option<StoreClass>)> {
        classes(src, "main")
    }

    fn one(x: &str, class: StoreClass) -> Vec<(String, Option<StoreClass>)> {
        vec![(x.to_string(), Some(class))]
    }

    /// The locals of `main` that are written before every read.
    fn written_first(src: &str) -> BTreeSet<String> {
        let p = program(src);
        let scan = Scan::run(p.func(p.main));
        let first = scan.written_first();
        scan.locals
            .iter()
            .filter(|(_, &i)| first[i])
            .map(|(x, _)| x.to_string())
            .collect()
    }

    #[test]
    fn all_reads_dominated_by_defs_means_always_written() {
        let w = written_first("fn main() { let a = 1; let b = a + 1; out(log, b); }");
        assert!(w.contains("a") && w.contains("b"));
        let w = written_first("fn main() { let a = 1 + 2; out(log, 9); }");
        assert!(w.contains("a"), "a local never read is written first");
    }

    #[test]
    fn loop_counters_are_written_first_and_store_volatile() {
        let src = "fn main() { let i = 0; while i < 3 { i = i + 1; } out(log, i); }";
        assert!(written_first(src).contains("i"));
        assert_eq!(main_classes(src), one("i", Volatile));
    }

    #[test]
    fn a_read_after_a_one_armed_binding_is_not_written_first() {
        let src = "fn main() { let c = 1; if c > 0 { let t = 5; out(log, t); } out(log, t); }";
        assert!(
            !written_first(src).contains("t"),
            "the else path reads t unwritten"
        );
        assert!(written_first(src).contains("c"));
    }

    #[test]
    fn an_unbound_store_no_read_can_tell_is_volatile() {
        // `a = 2` runs unbound when `g` is 0, but every read of `a`
        // follows a write.
        let src = "nv g = 0; fn main() { if g { let a = 1; out(log, a); } a = 2; out(log, a); }";
        assert!(written_first(src).contains("a"));
        assert_eq!(main_classes(src), one("a", Volatile));
    }

    #[test]
    fn an_unbound_store_a_read_can_tell_may_reach_nv() {
        // `a + 2` reads `a` unbound when `g` is 0.
        let src = "nv g = 0; fn main() { if g { let a = 1; } a = a + 2; out(log, a); }";
        assert!(!written_first(src).contains("a"));
        assert_eq!(main_classes(src), one("a", MaybeNv));
    }

    #[test]
    fn a_binding_on_every_path_makes_the_store_volatile() {
        // Lowering renames the second `let t` to `t$1`; bind `t` itself
        // there instead. No single binding then dominates `t = t + 1`,
        // but one reaches it on each path.
        let src = "nv g = 0; fn main() { if g { let t = 1; } else { let t = 2; } \
                   t = t + 1; out(log, t); }";
        let mut p = program(src);
        let main = p.main;
        let f = p.func_mut(main);
        f.locals.retain(|l| l != "t$1");
        for b in &mut f.blocks {
            for i in &mut b.instrs {
                if let Op::Bind { var, .. } = &mut i.op {
                    if var == "t$1" {
                        *var = "t".into();
                    }
                }
            }
        }
        ocelot_ir::validate(&p).unwrap();
        assert_eq!(classes_of(&p, "main"), one("t", Volatile));
        // Here the read after the `if` sees `t` unbound on one path.
        let src = "nv g = 0; fn main() { if g { let t = 1; } else { skip; } \
                   t = t + 1; out(log, t); }";
        assert_eq!(main_classes(src), one("t", MaybeNv));
    }

    #[test]
    fn loop_entry_intersects_the_first_iteration() {
        // The back edge carries `t` bound, the entry edge does not: the
        // first iteration reads `t` unbound.
        let src = "fn main() { repeat 3 { t = t + 1; let t = 2; } }";
        assert!(!written_first(src).contains("t"));
        assert_eq!(main_classes(src), one("t", MaybeNv));
        // Bound before the loop, so bound on both edges.
        let src = "fn main() { let t = 0; repeat 3 { t = t + 1; } out(log, t); }";
        assert_eq!(main_classes(src), one("t", Volatile));
    }

    #[test]
    fn address_taken_locals_are_never_written_first() {
        let src = "fn bump(&r) { *r = *r + 1; } \
                   nv g = 0; fn main() { if g { let a = 1; } a = 2; bump(&a); out(log, a); }";
        assert!(!written_first(src).contains("a"));
        assert_eq!(main_classes(src), one("a", MaybeNv));
    }

    #[test]
    fn value_parameter_stores_are_volatile() {
        let src = "fn g(x) { x = x + 1; out(log, x); return 0; } fn main() { let r = g(2); }";
        assert_eq!(classes(src, "g"), one("x", Volatile));
    }

    #[test]
    fn only_stores_to_declared_locals_are_classified() {
        let src = "nv g = 0; nv arr[2]; fn put(&r) { *r = 1; } \
                   fn main() { g = 1; arr[0] = 2; put(&g); out(log, g); }";
        let p = program(src);
        let classes = StoreClasses::analyze(&p);
        for f in &p.funcs {
            for (_, i) in f.iter_insts() {
                let at = InstrRef {
                    func: f.id,
                    label: i.label,
                };
                assert_eq!(classes.class(at), None, "{:?}", i.op);
            }
        }
    }

    #[test]
    fn every_function_is_classified() {
        let src = "nv g = 0; fn helper() { if g { let h = 2; } h = 3; return h; } \
                   fn main() { let x = helper(); if g { let y = 1; } y = x + y; out(log, y); }";
        assert_eq!(classes(src, "helper"), one("h", Volatile));
        assert_eq!(main_classes(src), one("y", MaybeNv));
    }
}
