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
//! * [`FuncSsa::always_bound`] — declared locals provably never read
//!   before a definition on any path (no SSA use can see the entry
//!   `undef` value), the fact behind reclassifying "in-scope-but-
//!   unbound" stores as volatile;
//! * [`FuncSsa::address_taken`] — locals passed by `&x`; these escape
//!   the rename and are excluded from every fact above.
//!
//! Everything here is *advisory*: the interpreter never reads these
//! facts, so the differential suites hold the optimized compiled
//! backend to the unoptimized oracle's observable behavior.

use crate::dom::{dominance_frontier, DomTree};
use ocelot_ir::ast::{Arg, BinOp, Expr, Ident, UnOp};
use ocelot_ir::cfg::Cfg;
use ocelot_ir::{BlockId, Function, Label, Op, Place, Program, Terminator};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Identifies one SSA value inside a [`FuncSsa`] build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct ValId(u32);

/// The lattice value carried by one SSA definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lattice {
    /// The entry value of a local before any definition.
    Undef,
    /// A run-time value the analysis cannot name.
    Opaque,
    /// A compile-time constant.
    Const(i64),
}

/// One SSA value: its lattice element plus bookkeeping for the
/// undef-reachability and use-count queries.
#[derive(Debug, Clone)]
struct Val {
    lattice: Lattice,
    /// Phi operands (empty for ordinary definitions).
    phi_args: Vec<ValId>,
    /// Number of reads (operand uses + phi-argument positions).
    uses: u32,
    /// Operand reads only (phi-argument positions excluded): the count
    /// that decides whether a value is ever *observed* by an
    /// instruction. A phi can carry an undef operand yet be killed by a
    /// following definition before any read — that is not an undef
    /// read.
    read_uses: u32,
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
    /// Declared locals (params excluded) that no path reads before
    /// defining. Writes to these can never leak a stale pre-reboot
    /// value, so they are safe to keep volatile.
    pub always_bound: BTreeSet<Ident>,
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

/// The tracked variable directly (re)defined by `op`, if any. `&x`
/// call arguments are *also* definitions (the callee may write back);
/// those are handled separately because one call can define several.
fn scalar_def(op: &Op) -> Option<&Ident> {
    match op {
        Op::Bind { var, .. } | Op::Input { var, .. } => Some(var),
        Op::Assign {
            place: Place::Var(x),
            ..
        } => Some(x),
        Op::Call { dst, .. } => dst.as_ref(),
        _ => None,
    }
}

/// All tracked variables `op` defines, including `&x` arguments.
fn op_defs<'a>(op: &'a Op, tracked: &BTreeSet<Ident>) -> Vec<&'a Ident> {
    let mut out = Vec::new();
    if let Some(d) = scalar_def(op) {
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
    /// Vars that have some use reaching the entry `undef`.
    undef_read: BTreeSet<Ident>,
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
            undef_read: BTreeSet::new(),
            out: FuncSsa::default(),
        }
    }

    fn new_val(&mut self, lattice: Lattice, def_site: Option<Label>) -> ValId {
        let id = ValId(self.vals.len() as u32);
        self.vals.push(Val {
            lattice,
            phi_args: Vec::new(),
            uses: 0,
            read_uses: 0,
            def_site,
        });
        id
    }

    fn run(mut self) -> FuncSsa {
        for a in self.address_taken_vars() {
            self.out.address_taken.insert(a);
        }
        self.place_phis();

        // Entry state: params are opaque run-time values, locals undef.
        let params: Vec<Ident> = self
            .f
            .params
            .iter()
            .filter(|p| !p.by_ref)
            .map(|p| p.name.clone())
            .collect();
        for v in self.tracked.clone() {
            let is_param = params.contains(&v);
            let lat = if is_param {
                Lattice::Opaque
            } else {
                Lattice::Undef
            };
            let id = self.new_val(lat, None);
            self.stacks.insert(v, vec![id]);
        }

        self.rename(self.f.entry);
        self.finish()
    }

    fn address_taken_vars(&self) -> BTreeSet<Ident> {
        fn expr_refs(e: &Expr, out: &mut BTreeSet<Ident>) {
            match e {
                Expr::Ref(x) => {
                    out.insert(x.clone());
                }
                Expr::Index(_, i) => expr_refs(i, out),
                Expr::Binary(_, l, r) => {
                    expr_refs(l, out);
                    expr_refs(r, out);
                }
                Expr::Unary(_, e) => expr_refs(e, out),
                _ => {}
            }
        }
        let mut out = BTreeSet::new();
        for b in &self.f.blocks {
            for inst in &b.instrs {
                match &inst.op {
                    Op::Call { args, .. } => {
                        for a in args {
                            match a {
                                Arg::Ref(x) => {
                                    out.insert(x.clone());
                                }
                                Arg::Value(e) => expr_refs(e, &mut out),
                            }
                        }
                    }
                    Op::Bind { src, .. } | Op::Assign { src, .. } => expr_refs(src, &mut out),
                    Op::Output { args, .. } => {
                        for e in args {
                            expr_refs(e, &mut out);
                        }
                    }
                    _ => {}
                }
            }
            match &b.term {
                Terminator::Branch { cond, .. } => expr_refs(cond, &mut out),
                Terminator::Ret(Some(e)) => expr_refs(e, &mut out),
                _ => {}
            }
        }
        out
    }

    /// Standard iterated-dominance-frontier phi placement over each
    /// variable's definition blocks.
    fn place_phis(&mut self) {
        let df = dominance_frontier(self.f, &self.cfg, &self.dom);
        // Definition blocks per tracked var (the entry block counts as
        // a definition point: params/undef are "defined" there).
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
                let id = self.new_val(Lattice::Opaque, None);
                self.phis.get_mut(&b).expect("placed")[i].1 = id;
            }
        }
        self.out.phis_placed = self.phis.values().map(Vec::len).sum();
    }

    fn top(&self, v: &str) -> Option<ValId> {
        self.stacks.get(v).and_then(|s| s.last().copied())
    }

    /// Records a read of `v` at use site `at`, returning its lattice
    /// value.
    fn use_var(&mut self, v: &str, at: Label) -> Lattice {
        let Some(id) = self.top(v) else {
            return Lattice::Opaque; // global / by-ref: not tracked
        };
        self.vals[id.0 as usize].uses += 1;
        self.vals[id.0 as usize].read_uses += 1;
        let lat = self.vals[id.0 as usize].lattice;
        if let Lattice::Const(k) = lat {
            self.out.const_uses.insert((at, v.to_string()), k);
        }
        lat
    }

    /// Evaluates `e` over the current rename state. Reads of globals,
    /// arrays, and derefs are opaque but still walked (array index
    /// subexpressions contain variable uses).
    fn eval(&mut self, e: &Expr, at: Label) -> Lattice {
        match e {
            Expr::Int(k) => Lattice::Const(*k),
            Expr::Bool(b) => Lattice::Const(i64::from(*b)),
            Expr::Var(x) => {
                if self.tracked.contains(x) && !self.out.address_taken.contains(x) {
                    self.use_var(x, at)
                } else {
                    // Globals and escaping locals: count the use (for
                    // dead-def purposes the escaping local read still
                    // pins its def) but never fold.
                    self.use_var(x, at);
                    self.out.const_uses.remove(&(at, x.clone()));
                    Lattice::Opaque
                }
            }
            Expr::Deref(x) | Expr::Ref(x) => {
                self.use_var(x, at);
                self.out.const_uses.remove(&(at, x.clone()));
                Lattice::Opaque
            }
            Expr::Index(_, i) => {
                self.eval(i, at);
                Lattice::Opaque
            }
            Expr::Binary(op, l, r) => {
                let a = self.eval(l, at);
                let b = self.eval(r, at);
                match (a, b) {
                    (Lattice::Const(x), Lattice::Const(y)) => Lattice::Const(fold_binop(*op, x, y)),
                    _ => Lattice::Opaque,
                }
            }
            Expr::Unary(op, e) => match self.eval(e, at) {
                Lattice::Const(x) => Lattice::Const(fold_unop(*op, x)),
                _ => Lattice::Opaque,
            },
        }
    }

    fn define(&mut self, v: &Ident, lattice: Lattice, site: Option<Label>) {
        let id = self.new_val(lattice, site);
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
                    let lat = self.eval(src, at);
                    if self.tracked.contains(var) {
                        self.define(var, lat, Some(at));
                        pushed.push(var.clone());
                    }
                }
                Op::Assign { place, src } => {
                    let lat = self.eval(src, at);
                    match place {
                        Place::Var(x) if self.tracked.contains(x) => {
                            self.define(x, lat, Some(at));
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
                        self.define(var, Lattice::Opaque, None);
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
                                    self.define(x, Lattice::Opaque, None);
                                    pushed.push(x.clone());
                                }
                            }
                        }
                    }
                    if let Some(d) = dst {
                        if self.tracked.contains(d) {
                            self.define(d, Lattice::Opaque, None);
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
                for (v, phi_id) in phis {
                    if let Some(arg) = self.top(&v) {
                        self.vals[arg.0 as usize].uses += 1;
                        self.vals[phi_id.0 as usize].phi_args.push(arg);
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
        // Undef reachability through the phi graph (cycles default to
        // "no undef" unless an operand proves otherwise).
        let n = self.vals.len();
        let mut reaches_undef = vec![false; n];
        let mut changed = true;
        while changed {
            changed = false;
            for i in 0..n {
                if reaches_undef[i] {
                    continue;
                }
                let hit = match self.vals[i].lattice {
                    Lattice::Undef => true,
                    _ => self.vals[i]
                        .phi_args
                        .iter()
                        .any(|a| reaches_undef[a.0 as usize]),
                };
                if hit {
                    reaches_undef[i] = true;
                    changed = true;
                }
            }
        }
        // A use of var v observing an undef-reaching value marks v. The
        // rename recorded uses against values, not vars, so re-derive:
        // every value on v's stack belongs to v; simpler to re-walk?
        // The mapping is already implicit: undef entry values carry
        // def_site None and lattice Undef and were created per-var in
        // run(); phi membership is per-var in self.phis. Walk both.
        let mut var_of_val: HashMap<u32, Ident> = HashMap::new();
        for (v, stack) in &self.stacks {
            // Only the entry value remains on each stack after rename.
            for id in stack {
                var_of_val.insert(id.0, v.clone());
            }
        }
        for phis in self.phis.values() {
            for (v, id) in phis {
                var_of_val.insert(id.0, v.clone());
            }
        }
        // Only direct operand reads observe a value. A phi that merges
        // undef but is overwritten before any read never exposes it —
        // `reaches_undef` already propagated through phi chains, so any
        // *read* phi downstream of undef is caught here.
        for (i, val) in self.vals.iter().enumerate() {
            if val.read_uses > 0 && reaches_undef[i] {
                if let Some(v) = var_of_val.get(&(i as u32)) {
                    self.undef_read.insert(v.clone());
                }
            }
        }
        // Values defined by Bind/Assign never reach undef themselves,
        // but a *use* of such a def is attributed via phi chains only —
        // an ordinary def used directly cannot observe undef. What can:
        // entry values and phis, both covered above.

        for v in &self.tracked {
            let is_param = self.f.params.iter().any(|p| &p.name == v);
            if !is_param && !self.undef_read.contains(v) && !self.out.address_taken.contains(v) {
                self.out.always_bound.insert(v.clone());
            }
        }

        for val in &self.vals {
            if val.uses == 0 {
                if let Some(site) = val.def_site {
                    let defines_escaping = self
                        .f
                        .inst(site)
                        .and_then(|i| scalar_def(&i.op).cloned())
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
        assert!(facts.always_bound.contains("i"));
    }

    #[test]
    fn all_reads_dominated_by_defs_means_always_bound() {
        let (_, facts) = ssa_main("fn main() { let a = 1; let b = a + 1; out(log, b); }");
        assert!(facts.always_bound.contains("a"));
        assert!(facts.always_bound.contains("b"));
    }

    #[test]
    fn branch_local_read_after_join_is_not_always_bound() {
        // `t` is defined only on one arm and read at the join — the IR
        // has no block scoping, so this lowers to an in-scope-but-maybe-
        // unbound local.
        let (p, facts) =
            ssa_main("fn main() { let c = 1; if c > 0 { let t = 5; out(log, t); } out(log, t); }");
        assert!(
            !facts.always_bound.contains("t"),
            "the else path reads t before any def"
        );
        // And the partial def must not be folded at the join use.
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
        assert!(!facts.always_bound.contains("a"));
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
        assert!(!facts.always_bound.contains("x"), "params bind at entry");
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
        assert!(facts.always_bound.contains("a"));
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
        let h = p.func_by_name("helper").unwrap();
        assert!(ssa.funcs[h.0 as usize].always_bound.contains("h"));
    }
}
