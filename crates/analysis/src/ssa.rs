//! SSA lifting of lowered functions, and the static facts the compiled
//! backend's optimizing middle-end consumes.
//!
//! The lifting is the textbook construction: place phi nodes at the
//! iterated dominance frontier of every variable's definition blocks
//! (reusing [`crate::dom::dominance_frontier`]), then rename along a
//! dominator-tree walk with one value stack per variable — the same
//! shape as LLVM's `mem2reg` and the compact `rust_bril` exemplar this
//! repo's roadmap points at. The SSA form itself is never materialized
//! as rewritten IR; instead the walk records the *facts* the backend
//! needs:
//!
//! * [`FuncSsa::const_uses`] — instruction operand reads whose unique
//!   reaching definition binds a compile-time constant (sparse
//!   conditional constant propagation, pessimistic over back edges);
//! * [`FuncSsa::dead_defs`] — `Bind`/`Assign`-to-local definitions
//!   whose value no later use (including phi arguments) ever observes;
//! * [`FuncSsa::address_taken`] — locals passed by `&x`; these escape
//!   the rename and are excluded from every fact above.
//!
//! Everything here is *advisory*: the interpreter never reads these
//! facts, so the differential suites hold the optimized compiled
//! backend to the unoptimized oracle's observable behavior. Where a
//! store goes is not an SSA fact: both engines read it from
//! [`crate::storage`].

use crate::dom::{dominance_frontier, DomTree};
use ocelot_ir::ast::{Arg, BinOp, Expr, Ident, UnOp};
use ocelot_ir::cfg::Cfg;
use ocelot_ir::{BlockId, Function, Label, Op, Place, Program, Terminator};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Identifies one SSA value inside a [`FuncSsa`] build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct ValId(u32);

/// One SSA value: the constant it always holds, if any, plus its use
/// count.
#[derive(Debug, Clone)]
struct Val {
    /// `None` for a run-time value the analysis cannot name, including
    /// a local's entry value before any definition.
    konst: Option<i64>,
    /// Number of reads (operand uses + phi-argument positions).
    uses: u32,
    /// The defining instruction, when it is a `Bind` or scalar
    /// `Assign` to a tracked local (the dead-store candidates).
    def_site: Option<Label>,
}

/// SSA-derived facts for one function. See the module docs for what
/// each field means and how the compiled backend uses it.
#[derive(Debug, Clone, Default)]
pub struct FuncSsa {
    /// `(use site label, variable) -> k`: the read of `variable` at the
    /// labeled instruction (or terminator, keyed by its `term_label`)
    /// always observes the constant `k`.
    pub const_uses: BTreeMap<(Label, Ident), i64>,
    /// `Bind` / `Assign`-to-local sites whose defined value is never
    /// used. The binding side effect may still matter; only the stored
    /// *value* is dead.
    pub dead_defs: BTreeSet<Label>,
    /// Locals whose address escapes via `&x` call arguments.
    pub(crate) address_taken: BTreeSet<Ident>,
    /// Number of phi nodes the lifting placed (diagnostic surface).
    pub(crate) phis_placed: usize,
}

/// SSA facts for every function of a program, indexed by `FuncId`.
#[derive(Debug, Clone, Default)]
pub struct ProgramSsa {
    /// Per-function facts, indexed by [`ocelot_ir::FuncId`] position.
    pub funcs: Vec<FuncSsa>,
}

impl ProgramSsa {
    /// Analyzes every function of `p`.
    pub fn analyze(p: &Program) -> Self {
        let _span = ocelot_telemetry::span!("opt");
        ProgramSsa {
            funcs: p.funcs.iter().map(analyze_func).collect(),
        }
    }
}

/// Lifts `f` into SSA and extracts its facts.
pub(crate) fn analyze_func(f: &Function) -> FuncSsa {
    Builder::new(f).run()
}

/// Variables the rename tracks: declared locals and by-value params.
/// By-ref params alias caller storage and globals live in NV — neither
/// has an SSA story here.
fn tracked_vars(f: &Function) -> BTreeSet<Ident> {
    let mut vars: BTreeSet<Ident> = f.locals.iter().cloned().collect();
    for p in &f.params {
        if !p.by_ref {
            vars.insert(p.name.clone());
        }
    }
    vars
}

/// All tracked variables `op` defines, including `&x` arguments.
fn op_defs<'a>(op: &'a Op, tracked: &BTreeSet<Ident>) -> Vec<&'a Ident> {
    let mut out = Vec::new();
    if let Some(d) = op.def() {
        if tracked.contains(d) {
            out.push(d);
        }
    }
    if let Op::Call { args, .. } = op {
        for a in args {
            if let Arg::Ref(x) = a {
                if tracked.contains(x) && !out.contains(&x) {
                    out.push(x);
                }
            }
        }
    }
    out
}

struct Builder<'f> {
    f: &'f Function,
    cfg: Cfg,
    dom: DomTree,
    tracked: BTreeSet<Ident>,
    vals: Vec<Val>,
    /// Rename stacks, one per tracked variable.
    stacks: HashMap<Ident, Vec<ValId>>,
    /// Phi nodes per block: `(var, value)` in placement order.
    phis: BTreeMap<BlockId, Vec<(Ident, ValId)>>,
    out: FuncSsa,
}

impl<'f> Builder<'f> {
    fn new(f: &'f Function) -> Self {
        let cfg = Cfg::new(f);
        let dom = DomTree::dominators(f, &cfg);
        let tracked = tracked_vars(f);
        Builder {
            f,
            cfg,
            dom,
            tracked,
            vals: Vec::new(),
            stacks: HashMap::new(),
            phis: BTreeMap::new(),
            out: FuncSsa::default(),
        }
    }

    fn new_val(&mut self, konst: Option<i64>, def_site: Option<Label>) -> ValId {
        let id = ValId(self.vals.len() as u32);
        self.vals.push(Val {
            konst,
            uses: 0,
            def_site,
        });
        id
    }

    fn run(mut self) -> FuncSsa {
        for a in self.address_taken_vars() {
            self.out.address_taken.insert(a);
        }
        self.place_phis();

        // Entry state: params and unwritten locals are opaque.
        for v in self.tracked.clone() {
            let id = self.new_val(None, None);
            self.stacks.insert(v, vec![id]);
        }

        self.rename(self.f.entry);
        self.finish()
    }

    /// Locals passed as `&x` call arguments: a validated program takes
    /// an address nowhere else.
    fn address_taken_vars(&self) -> BTreeSet<Ident> {
        let mut out = BTreeSet::new();
        for (_, inst) in self.f.iter_insts() {
            if let Op::Call { args, .. } = &inst.op {
                out.extend(args.iter().filter_map(|a| match a {
                    Arg::Ref(x) => Some(x.clone()),
                    Arg::Value(_) => None,
                }));
            }
        }
        out
    }

    /// Standard iterated-dominance-frontier phi placement over each
    /// variable's definition blocks.
    fn place_phis(&mut self) {
        let df = dominance_frontier(self.f, &self.cfg, &self.dom);
        // Definition blocks per tracked var (the entry block counts as
        // a definition point: params and unwritten locals are "defined" there).
        let mut def_blocks: BTreeMap<Ident, BTreeSet<BlockId>> = BTreeMap::new();
        for v in &self.tracked {
            def_blocks
                .entry(v.clone())
                .or_default()
                .insert(self.f.entry);
        }
        for b in &self.f.blocks {
            for inst in &b.instrs {
                for d in op_defs(&inst.op, &self.tracked) {
                    def_blocks.entry(d.clone()).or_default().insert(b.id);
                }
            }
        }
        for (v, blocks) in def_blocks {
            let mut work: Vec<BlockId> = blocks.iter().copied().collect();
            let mut has_phi: BTreeSet<BlockId> = BTreeSet::new();
            while let Some(b) = work.pop() {
                for &y in &df[b.0 as usize] {
                    if has_phi.insert(y) {
                        self.phis.entry(y).or_default().push((v.clone(), ValId(0)));
                        if !blocks.contains(&y) {
                            work.push(y);
                        }
                    }
                }
            }
        }
        // Materialize phi values now that the set is fixed.
        let placements: Vec<(BlockId, usize)> =
            self.phis.iter().map(|(b, ps)| (*b, ps.len())).collect();
        for (b, n) in placements {
            for i in 0..n {
                let id = self.new_val(None, None);
                self.phis.get_mut(&b).expect("placed")[i].1 = id;
            }
        }
        self.out.phis_placed = self.phis.values().map(Vec::len).sum();
    }

    fn top(&self, v: &str) -> Option<ValId> {
        self.stacks.get(v).and_then(|s| s.last().copied())
    }

    /// Records a read of `v` at use site `at`, returning its constant
    /// value, if any.
    fn use_var(&mut self, v: &str, at: Label) -> Option<i64> {
        // Globals and by-ref params are not tracked.
        let id = self.top(v)?;
        self.vals[id.0 as usize].uses += 1;
        let k = self.vals[id.0 as usize].konst?;
        self.out.const_uses.insert((at, v.to_string()), k);
        Some(k)
    }

    /// Evaluates `e` over the current rename state. Reads of globals,
    /// arrays, and derefs are opaque but still walked (array index
    /// subexpressions contain variable uses).
    fn eval(&mut self, e: &Expr, at: Label) -> Option<i64> {
        match e {
            Expr::Int(k) => Some(*k),
            Expr::Bool(b) => Some(i64::from(*b)),
            Expr::Var(x) => {
                if self.tracked.contains(x) && !self.out.address_taken.contains(x) {
                    self.use_var(x, at)
                } else {
                    // Globals and escaping locals: count the use (for
                    // dead-def purposes the escaping local read still
                    // pins its def) but never fold.
                    self.use_var(x, at);
                    self.out.const_uses.remove(&(at, x.clone()));
                    None
                }
            }
            Expr::Deref(x) | Expr::Ref(x) => {
                self.use_var(x, at);
                self.out.const_uses.remove(&(at, x.clone()));
                None
            }
            Expr::Index(_, i) => {
                self.eval(i, at);
                None
            }
            Expr::Binary(op, l, r) => {
                let a = self.eval(l, at);
                let b = self.eval(r, at);
                Some(fold_binop(*op, a?, b?))
            }
            Expr::Unary(op, e) => Some(fold_unop(*op, self.eval(e, at)?)),
        }
    }

    fn define(&mut self, v: &Ident, konst: Option<i64>, site: Option<Label>) {
        let id = self.new_val(konst, site);
        self.stacks.get_mut(v).expect("tracked var").push(id);
    }

    fn rename(&mut self, b: BlockId) {
        let mut pushed: Vec<Ident> = Vec::new();

        // Phi definitions first: their value is pessimistically opaque
        // (back-edge operands are not known yet), refined in finish().
        if let Some(phis) = self.phis.get(&b).cloned() {
            for (v, id) in phis {
                self.stacks.get_mut(&v).expect("tracked").push(id);
                pushed.push(v);
            }
        }

        let block = self.f.block(b).clone();
        for inst in &block.instrs {
            let at = inst.label;
            match &inst.op {
                Op::Skip | Op::AtomStart { .. } | Op::AtomEnd { .. } | Op::Annot { .. } => {}
                Op::Bind { var, src } => {
                    let k = self.eval(src, at);
                    if self.tracked.contains(var) {
                        self.define(var, k, Some(at));
                        pushed.push(var.clone());
                    }
                }
                Op::Assign { place, src } => {
                    let k = self.eval(src, at);
                    match place {
                        Place::Var(x) if self.tracked.contains(x) => {
                            self.define(x, k, Some(at));
                            pushed.push(x.clone());
                        }
                        Place::Var(_) => {}
                        Place::Index(_, i) => {
                            let i = i.clone();
                            self.eval(&i, at);
                        }
                        Place::Deref(x) => {
                            self.use_var(x, at);
                        }
                    }
                }
                Op::Input { var, .. } => {
                    if self.tracked.contains(var) {
                        self.define(var, None, None);
                        pushed.push(var.clone());
                    }
                }
                Op::Call { dst, args, .. } => {
                    for a in args {
                        match a {
                            Arg::Value(e) => {
                                let e = e.clone();
                                self.eval(&e, at);
                            }
                            Arg::Ref(x) => {
                                // Address-taken: the callee may read the
                                // current value and write a new one.
                                self.use_var(x, at);
                                if self.tracked.contains(x) {
                                    self.define(x, None, None);
                                    pushed.push(x.clone());
                                }
                            }
                        }
                    }
                    if let Some(d) = dst {
                        if self.tracked.contains(d) {
                            self.define(d, None, None);
                            pushed.push(d.clone());
                        }
                    }
                }
                Op::Output { args, .. } => {
                    for e in args {
                        let e = e.clone();
                        self.eval(&e, at);
                    }
                }
            }
        }
        match &block.term {
            Terminator::Branch { cond, .. } => {
                let cond = cond.clone();
                self.eval(&cond, block.term_label);
            }
            Terminator::Ret(Some(e)) => {
                let e = e.clone();
                self.eval(&e, block.term_label);
            }
            _ => {}
        }

        // Fill phi arguments of successors from this block's exit state.
        for s in block.term.successors() {
            if let Some(phis) = self.phis.get(&s).cloned() {
                for (v, _) in phis {
                    if let Some(arg) = self.top(&v) {
                        self.vals[arg.0 as usize].uses += 1;
                    }
                }
            }
        }

        // Recurse into dominator-tree children.
        let children: Vec<BlockId> = self
            .f
            .blocks
            .iter()
            .map(|blk| blk.id)
            .filter(|&c| c != b && self.dom.idom(c) == Some(b))
            .collect();
        for c in children {
            self.rename(c);
        }

        for v in pushed.iter().rev() {
            self.stacks.get_mut(v).expect("tracked").pop();
        }
    }

    fn finish(mut self) -> FuncSsa {
        for val in &self.vals {
            if val.uses == 0 {
                if let Some(site) = val.def_site {
                    let defines_escaping = self
                        .f
                        .inst(site)
                        .and_then(|i| i.op.def().cloned())
                        .is_some_and(|x| self.out.address_taken.contains(&x));
                    if !defines_escaping {
                        self.out.dead_defs.insert(site);
                    }
                }
            }
        }

        // Never fold or kill escaping locals.
        let escaping = self.out.address_taken.clone();
        self.out
            .const_uses
            .retain(|(_, v), _| !escaping.contains(v));
        self.out
    }
}

/// Constant folding with the runtime's exact arithmetic: wrapping
/// two's-complement ops, division/remainder by zero evaluating to 0,
/// comparisons and logicals producing 1/0 (non-short-circuit).
pub(crate) fn fold_binop(op: BinOp, a: i64, b: i64) -> i64 {
    match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => {
            if b == 0 {
                0
            } else {
                a.wrapping_div(b)
            }
        }
        BinOp::Rem => {
            if b == 0 {
                0
            } else {
                a.wrapping_rem(b)
            }
        }
        BinOp::Eq => i64::from(a == b),
        BinOp::Ne => i64::from(a != b),
        BinOp::Lt => i64::from(a < b),
        BinOp::Le => i64::from(a <= b),
        BinOp::Gt => i64::from(a > b),
        BinOp::Ge => i64::from(a >= b),
        BinOp::And => i64::from(a != 0 && b != 0),
        BinOp::Or => i64::from(a != 0 || b != 0),
    }
}

/// Unary folding matching the runtime (`-` wraps, `!` maps 0 ↔ 1).
pub(crate) fn fold_unop(op: UnOp, v: i64) -> i64 {
    match op {
        UnOp::Neg => v.wrapping_neg(),
        UnOp::Not => i64::from(v == 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocelot_ir::lower::compile;

    fn ssa_main(src: &str) -> (ocelot_ir::Program, FuncSsa) {
        let p = compile(src).unwrap();
        let facts = analyze_func(p.func(p.main));
        (p, facts)
    }

    fn label_of_out(p: &ocelot_ir::Program) -> Label {
        let f = p.func(p.main);
        f.iter_insts()
            .find_map(|(_, i)| matches!(i.op, Op::Output { .. }).then_some(i.label))
            .expect("program has an out()")
    }

    #[test]
    fn straight_line_constants_propagate_to_uses() {
        let (p, facts) = ssa_main("fn main() { let a = 3; let b = a + 4; out(log, b); }");
        let out = label_of_out(&p);
        assert_eq!(facts.const_uses.get(&(out, "b".into())), Some(&7));
    }

    #[test]
    fn branch_join_of_equal_constants_is_not_folded_pessimistically() {
        // Both arms redefine c to different constants: the join phi is
        // opaque and the use after the if must NOT fold.
        let (p, facts) = ssa_main(
            "sensor s; fn main() { let c = 1; let v = in(s); \
             if v > 0 { c = 2; } else { c = 3; } out(log, c); }",
        );
        let out = label_of_out(&p);
        assert_eq!(facts.const_uses.get(&(out, "c".into())), None);
        assert!(facts.phis_placed > 0, "join requires a phi for c");
    }

    #[test]
    fn single_def_constant_survives_a_branch() {
        // c is defined once before the branch; no redefinition, so the
        // use after the join still sees the constant.
        let (p, facts) = ssa_main(
            "sensor s; fn main() { let c = 7; let v = in(s); \
             if v > 0 { let d = 1; } else { skip; } out(log, c); }",
        );
        let out = label_of_out(&p);
        assert_eq!(facts.const_uses.get(&(out, "c".into())), Some(&7));
    }

    #[test]
    fn input_and_call_results_are_opaque() {
        let (p, facts) =
            ssa_main("sensor s; fn main() { let v = in(s); let w = v + 0; out(log, w); }");
        let out = label_of_out(&p);
        assert_eq!(facts.const_uses.get(&(out, "w".into())), None);
    }

    #[test]
    fn unused_definitions_are_dead() {
        let (p, facts) = ssa_main("fn main() { let a = 3; let b = 5; out(log, b); }");
        let f = p.func(p.main);
        let a_site = f
            .iter_insts()
            .find_map(|(_, i)| match &i.op {
                Op::Bind { var, .. } if var == "a" => Some(i.label),
                _ => None,
            })
            .unwrap();
        assert!(facts.dead_defs.contains(&a_site), "a is never read");
    }

    #[test]
    fn overwritten_definition_is_dead_but_last_is_live() {
        let (p, facts) = ssa_main("fn main() { let a = 3; a = 4; out(log, a); }");
        let f = p.func(p.main);
        let bind = f
            .iter_insts()
            .find_map(|(_, i)| match &i.op {
                Op::Bind { var, .. } if var == "a" => Some(i.label),
                _ => None,
            })
            .unwrap();
        let assign = f
            .iter_insts()
            .find_map(|(_, i)| match &i.op {
                Op::Assign {
                    place: Place::Var(x),
                    ..
                } if x == "a" => Some(i.label),
                _ => None,
            })
            .unwrap();
        assert!(facts.dead_defs.contains(&bind), "first def overwritten");
        assert!(!facts.dead_defs.contains(&assign), "second def is read");
    }

    #[test]
    fn loop_counter_is_not_constant_across_the_back_edge() {
        let (p, facts) =
            ssa_main("fn main() { let i = 0; while i < 3 { i = i + 1; } out(log, i); }");
        let out = label_of_out(&p);
        assert_eq!(
            facts.const_uses.get(&(out, "i".into())),
            None,
            "loop phis stay opaque"
        );
    }

    #[test]
    fn branch_local_read_after_join_is_not_always_bound() {
        // `t` is defined only on one arm and read at the join — the IR
        // has no block scoping, so this lowers to an in-scope-but-maybe-
        // unbound local.
        let (p, facts) =
            ssa_main("fn main() { let c = 1; if c > 0 { let t = 5; out(log, t); } out(log, t); }");
        // The partial def must not be folded at the join use.
        let out = p
            .func(p.main)
            .iter_insts()
            .filter_map(|(_, i)| match &i.op {
                Op::Output { .. } => Some(i.label),
                _ => None,
            })
            .last()
            .unwrap();
        assert_eq!(facts.const_uses.get(&(out, "t".into())), None);
    }

    #[test]
    fn address_taken_locals_are_excluded_everywhere() {
        let (p, facts) = ssa_main(
            "fn bump(&r) { *r = *r + 1; } \
             fn main() { let a = 3; bump(&a); out(log, a); }",
        );
        assert!(facts.address_taken.contains("a"));
        let out = label_of_out(&p);
        assert_eq!(
            facts.const_uses.get(&(out, "a".into())),
            None,
            "callee write-back invalidates the constant"
        );
        assert!(facts.dead_defs.is_empty(), "escaping defs are never dead");
    }

    #[test]
    fn params_are_opaque_and_never_always_bound() {
        let p =
            compile("fn g(x) { out(log, x + 0); return 0; } fn main() { let r = g(2); }").unwrap();
        let g = p.func(p.func_by_name("g").unwrap());
        let facts = analyze_func(g);
        assert!(facts.const_uses.iter().all(|((_, v), _)| v != "x"));
    }

    #[test]
    fn folding_matches_runtime_arithmetic() {
        assert_eq!(fold_binop(BinOp::Div, 7, 0), 0, "div by zero is 0");
        assert_eq!(fold_binop(BinOp::Rem, 7, 0), 0);
        assert_eq!(fold_binop(BinOp::Add, i64::MAX, 1), i64::MIN, "wrapping");
        assert_eq!(fold_binop(BinOp::Lt, 1, 2), 1);
        assert_eq!(fold_binop(BinOp::And, 2, 0), 0);
        assert_eq!(fold_unop(UnOp::Not, 0), 1);
        assert_eq!(fold_unop(UnOp::Neg, i64::MIN), i64::MIN);
    }

    #[test]
    fn dead_def_with_side_effect_free_src_only_kills_the_value() {
        // The dead def of `a` must not take the *binding* with it: that
        // is the backend's call. Here we only assert the fact surface.
        let (_, facts) = ssa_main("fn main() { let a = 1 + 2; out(log, 9); }");
        assert_eq!(facts.dead_defs.len(), 1);
    }

    #[test]
    fn whole_program_analysis_covers_every_function() {
        let p = compile(
            "fn helper() { let h = 2; return h; } \
             fn main() { let x = helper(); out(log, x); }",
        )
        .unwrap();
        let ssa = ProgramSsa::analyze(&p);
        assert_eq!(ssa.funcs.len(), p.funcs.len());
        let h = p.func(p.func_by_name("helper").unwrap());
        assert!(
            ssa.funcs[h.id.0 as usize]
                .const_uses
                .iter()
                .any(|((_, v), &k)| v == "h" && k == 2),
            "helper's own facts fold its local"
        );
    }
}
