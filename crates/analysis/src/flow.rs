//! Value-flow facts for the compiled backend's taint-free fast path.
//!
//! The runtime evaluates every expression to a `Tainted` value — an
//! `i64` plus the set of input collections it data-depends on. Those
//! dependency sets are *observable* in exactly two places: output
//! records and fresh-variable use logging. Everywhere else they are
//! carried along and eventually dropped (branch conditions, store
//! indices, values that only ever feed branches). This module computes
//! two complementary static facts that let the compiled backend skip
//! the dependency bookkeeping without changing anything observable:
//!
//! * **Value purity** (forward, data-flow only): a local, parameter, or
//!   global whose runtime dependency set is provably *always empty* —
//!   it is never assigned anything data-derived from an input. Note
//!   this is deliberately weaker than [`crate::taint`]'s input taint:
//!   the taint analysis adds control-dependence (a branch on tainted
//!   data taints everything assigned under it), which over-approximates
//!   the runtime's data-only propagation. Purity mirrors the runtime
//!   exactly, so a pure value evaluated without dependency tracking is
//!   bit-identical to the tracked evaluation.
//!
//! * **Dependency liveness** (backward, demand-driven): a variable
//!   whose dependency set can never *reach* an observation point
//!   (an output argument or an annotated variable's use log) through
//!   any chain of data flow — including through globals, call
//!   arguments, returns, and by-reference write-backs. Storing an
//!   empty set for such a variable is observationally equivalent.
//!
//! Both analyses are whole-program, flow-insensitive at the variable
//! level, and sound for hand-built IR (unknown constructs degrade to
//! "impure"/"live").

use ocelot_ir::ast::{Arg, Expr, Ident};
use ocelot_ir::{FuncId, Function, Op, Place, Program, Terminator};
use std::collections::{BTreeMap, BTreeSet};

/// A node in the dependency-liveness graph.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Node {
    /// A local or by-value parameter of a function.
    Var(FuncId, Ident),
    /// A non-volatile cell (scalar or whole array), by name. Undeclared
    /// names written by hand-built IR land here too.
    Global(Ident),
    /// The return value of a function.
    Ret(FuncId),
    /// Values written through by-ref parameter `.1` of function `.0`.
    RefOut(FuncId, Ident),
}

/// A concrete storage location a by-ref parameter can point at.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Target {
    Local(FuncId, Ident),
    Global(Ident),
}

/// Whole-program value-flow facts. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct ValueFlow {
    pure_locals: BTreeSet<(FuncId, Ident)>,
    pure_globals: BTreeSet<Ident>,
    /// By-ref params whose *pointee read* is pure at every call site.
    pure_derefs: BTreeSet<(FuncId, Ident)>,
    live: BTreeSet<Node>,
}

impl ValueFlow {
    /// Runs both analyses over `p`.
    pub fn analyze(p: &Program) -> Self {
        Self::analyze_observing(p, &[])
    }

    /// Like [`ValueFlow::analyze`], with extra externally-observed
    /// variables seeded dep-live. Policy-driven runtimes log a fresh
    /// variable's dependency set at its *use sites*, which the region
    /// transforms may strip from the instruction stream (the annotation
    /// survives only in the policy set) — the runtime re-injects those
    /// `(function, variable)` pairs here so liveness still sees the
    /// observation points.
    pub fn analyze_observing(p: &Program, observed: &[(FuncId, Ident)]) -> Self {
        let targets = ref_targets(p);
        let mut vf = ValueFlow::default();
        vf.run_purity(p, &targets);
        vf.run_liveness(p, &targets, observed);
        vf
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// True when `e`, evaluated inside `f`, always carries an empty
    /// dependency set at runtime.
    pub fn expr_is_pure(&self, f: &Function, e: &Expr) -> bool {
        match e {
            Expr::Int(_) | Expr::Bool(_) => true,
            Expr::Var(x) => {
                if f.is_by_ref_param(x) {
                    false
                } else if f.declares(x) {
                    self.pure_locals.contains(&(f.id, x.clone()))
                } else {
                    self.pure_globals.contains(x)
                }
            }
            Expr::Index(a, i) => self.pure_globals.contains(a) && self.expr_is_pure(f, i),
            Expr::Deref(x) => self.pure_derefs.contains(&(f.id, x.clone())),
            Expr::Ref(_) => false,
            Expr::Binary(_, l, r) => self.expr_is_pure(f, l) && self.expr_is_pure(f, r),
            Expr::Unary(_, e) => self.expr_is_pure(f, e),
        }
    }

    /// True when the dependency set of local `var` in `f` can never
    /// reach an output record or a fresh-use log.
    pub fn var_deps_dead(&self, f: FuncId, var: &str) -> bool {
        !self.live.contains(&Node::Var(f, var.to_string()))
    }

    /// True when no caller ever observes the dependency set of `f`'s
    /// return value.
    pub fn ret_deps_dead(&self, f: FuncId) -> bool {
        !self.live.contains(&Node::Ret(f))
    }

    /// True when values written through by-ref param `param` of `f`
    /// land only in dependency-dead storage.
    pub fn refout_deps_dead(&self, f: FuncId, param: &str) -> bool {
        !self.live.contains(&Node::RefOut(f, param.to_string()))
    }

    /// True when the dependency set of global `name` is never observed.
    pub fn global_deps_dead(&self, name: &str) -> bool {
        !self.live.contains(&Node::Global(name.to_string()))
    }

    // ------------------------------------------------------------------
    // Purity (forward)
    // ------------------------------------------------------------------

    fn run_purity(&mut self, p: &Program, targets: &BTreeMap<(FuncId, Ident), BTreeSet<Target>>) {
        // Optimistic start: everything pure; strip until stable.
        for f in &p.funcs {
            for l in &f.locals {
                self.pure_locals.insert((f.id, l.clone()));
            }
            for prm in &f.params {
                if !prm.by_ref {
                    self.pure_locals.insert((f.id, prm.name.clone()));
                }
            }
        }
        for g in &p.globals {
            self.pure_globals.insert(g.name.clone());
        }

        loop {
            // Deref purity is derived state: recompute from targets.
            self.pure_derefs = targets
                .iter()
                .filter(|(_, ts)| {
                    ts.iter().all(|t| match t {
                        Target::Local(g, y) => self.pure_locals.contains(&(*g, y.clone())),
                        Target::Global(n) => self.pure_globals.contains(n),
                    })
                })
                .map(|(k, _)| k.clone())
                .collect();

            let mut changed = false;
            for f in &p.funcs {
                for (_, inst) in f.iter_insts() {
                    changed |= self.purity_step(p, f, &inst.op, targets);
                }
            }
            if !changed {
                break;
            }
        }
    }

    fn taint_local(&mut self, f: FuncId, x: &str) -> bool {
        self.pure_locals.remove(&(f, x.to_string()))
    }

    fn taint_cell(&mut self, name: &str) -> bool {
        self.pure_globals.remove(name)
    }

    /// Contaminates whatever a write to `place` in `f` can reach.
    fn taint_place(
        &mut self,
        f: &Function,
        place: &Place,
        targets: &BTreeMap<(FuncId, Ident), BTreeSet<Target>>,
    ) -> bool {
        match place {
            Place::Var(x) => {
                if f.is_by_ref_param(x) {
                    // Should not occur (writes through refs use Deref),
                    // but degrade safely.
                    self.taint_ref(f.id, x, targets)
                } else if f.declares(x) {
                    self.taint_local(f.id, x)
                } else {
                    self.taint_cell(x)
                }
            }
            Place::Index(a, _) => self.taint_cell(a),
            Place::Deref(x) => self.taint_ref(f.id, x, targets),
        }
    }

    fn taint_ref(
        &mut self,
        f: FuncId,
        param: &str,
        targets: &BTreeMap<(FuncId, Ident), BTreeSet<Target>>,
    ) -> bool {
        let mut changed = false;
        if let Some(ts) = targets.get(&(f, param.to_string())) {
            for t in ts.clone() {
                changed |= match t {
                    Target::Local(g, y) => self.taint_local(g, &y),
                    Target::Global(n) => self.taint_cell(&n),
                };
            }
        }
        changed
    }

    fn purity_step(
        &mut self,
        p: &Program,
        f: &Function,
        op: &Op,
        targets: &BTreeMap<(FuncId, Ident), BTreeSet<Target>>,
    ) -> bool {
        match op {
            Op::Bind { var, src } => {
                if !self.expr_is_pure(f, src) && f.declares(var) {
                    return self.taint_local(f.id, var);
                }
                false
            }
            Op::Assign { place, src } => {
                if !self.expr_is_pure(f, src) {
                    return self.taint_place(f, place, targets);
                }
                false
            }
            Op::Input { var, .. } => {
                // An input sample carries its own collection id.
                if f.declares(var) {
                    self.taint_local(f.id, var)
                } else {
                    self.taint_cell(var)
                }
            }
            Op::Call { dst, callee, args } => {
                let mut changed = false;
                let cf = p.func(*callee);
                // Impure value arguments contaminate the parameter.
                for (i, a) in args.iter().enumerate() {
                    if let (Arg::Value(e), Some(prm)) = (a, cf.params.get(i)) {
                        if !prm.by_ref && !self.expr_is_pure(f, e) {
                            changed |= self.taint_local(cf.id, &prm.name);
                        }
                    }
                }
                // An impure return contaminates the destination.
                if let Some(d) = dst {
                    if !self.ret_is_pure(cf) && f.declares(d) {
                        changed |= self.taint_local(f.id, d);
                    }
                }
                changed
            }
            _ => false,
        }
    }

    fn ret_is_pure(&self, f: &Function) -> bool {
        f.blocks.iter().all(|b| match &b.term {
            Terminator::Ret(Some(e)) => self.expr_is_pure(f, e),
            _ => true,
        })
    }

    // ------------------------------------------------------------------
    // Dependency liveness (backward)
    // ------------------------------------------------------------------

    fn run_liveness(
        &mut self,
        p: &Program,
        targets: &BTreeMap<(FuncId, Ident), BTreeSet<Target>>,
        observed: &[(FuncId, Ident)],
    ) {
        // live(from) ⇒ live(to) edges.
        let mut edges: BTreeMap<Node, BTreeSet<Node>> = BTreeMap::new();
        let mut seeds: BTreeSet<Node> = BTreeSet::new();
        let mut edge = |from: Node, to: Node| {
            edges.entry(from).or_default().insert(to);
        };

        // Maps a plain name read/written in f to its node.
        let node_of = |f: &Function, x: &Ident| -> Node {
            if f.declares(x) && !f.is_by_ref_param(x) {
                Node::Var(f.id, x.clone())
            } else {
                Node::Global(x.clone())
            }
        };
        // Nodes observed when an expression's *value* is consumed: its
        // dependency set is the union over these.
        fn expr_nodes(f: &Function, e: &Expr, out: &mut Vec<Node>) {
            match e {
                Expr::Int(_) | Expr::Bool(_) => {}
                Expr::Var(x) | Expr::Ref(x) => {
                    if f.is_by_ref_param(x) {
                        // Reading the pointee: resolved via targets later;
                        // encode as a RefOut-independent marker below.
                        out.push(Node::RefOut(f.id, format!("\u{0}in:{x}")));
                    } else if f.declares(x) {
                        out.push(Node::Var(f.id, x.clone()));
                    } else {
                        out.push(Node::Global(x.clone()));
                    }
                }
                Expr::Deref(x) => {
                    out.push(Node::RefOut(f.id, format!("\u{0}in:{x}")));
                }
                Expr::Index(a, i) => {
                    // Element deps and index deps both merge into the read.
                    out.push(Node::Global(a.clone()));
                    expr_nodes(f, i, out);
                }
                Expr::Binary(_, l, r) => {
                    expr_nodes(f, l, out);
                    expr_nodes(f, r, out);
                }
                Expr::Unary(_, e) => expr_nodes(f, e, out),
            }
        }
        // Resolve the deref-read markers: observing *p observes every
        // concrete target.
        let deref_in = |f: FuncId, x: &str| -> Vec<Node> {
            targets
                .get(&(f, x.to_string()))
                .map(|ts| {
                    ts.iter()
                        .map(|t| match t {
                            Target::Local(g, y) => Node::Var(*g, y.clone()),
                            Target::Global(n) => Node::Global(n.clone()),
                        })
                        .collect()
                })
                .unwrap_or_default()
        };
        let resolve = |_f: FuncId, n: Node| -> Vec<Node> {
            if let Node::RefOut(g, m) = &n {
                if let Some(x) = m.strip_prefix('\u{0}').and_then(|m| m.strip_prefix("in:")) {
                    return deref_in(*g, x);
                }
            }
            vec![n]
        };

        for f in &p.funcs {
            for b in &f.blocks {
                for inst in &b.instrs {
                    match &inst.op {
                        Op::Bind { var, src }
                        | Op::Assign {
                            place: Place::Var(var),
                            src,
                        } => {
                            let dst = node_of(f, var);
                            let mut ns = Vec::new();
                            expr_nodes(f, src, &mut ns);
                            for n in ns {
                                for n in resolve(f.id, n) {
                                    edge(dst.clone(), n);
                                }
                            }
                        }
                        Op::Assign {
                            place: Place::Index(a, _),
                            src,
                        } => {
                            // Stored value keeps its deps; the index's
                            // are dropped by the store.
                            let mut ns = Vec::new();
                            expr_nodes(f, src, &mut ns);
                            for n in ns {
                                for n in resolve(f.id, n) {
                                    edge(Node::Global(a.clone()), n);
                                }
                            }
                        }
                        Op::Assign {
                            place: Place::Deref(x),
                            src,
                        } => {
                            let mut ns = Vec::new();
                            expr_nodes(f, src, &mut ns);
                            for n in ns {
                                for n in resolve(f.id, n) {
                                    edge(Node::RefOut(f.id, x.clone()), n);
                                }
                            }
                        }
                        Op::Input { .. } => {}
                        Op::Call { dst, callee, args } => {
                            let cf = p.func(*callee);
                            for (i, a) in args.iter().enumerate() {
                                let Some(prm) = cf.params.get(i) else {
                                    continue;
                                };
                                match a {
                                    Arg::Value(e) => {
                                        let mut ns = Vec::new();
                                        expr_nodes(f, e, &mut ns);
                                        for n in ns {
                                            for n in resolve(f.id, n) {
                                                edge(Node::Var(cf.id, prm.name.clone()), n);
                                            }
                                        }
                                    }
                                    Arg::Ref(y) => {
                                        // If the target is ever dep-live,
                                        // the callee's write-backs are too.
                                        let t = node_of(f, y);
                                        for t in resolve(f.id, t) {
                                            edge(t, Node::RefOut(cf.id, prm.name.clone()));
                                        }
                                    }
                                }
                            }
                            if let Some(d) = dst {
                                edge(node_of(f, d), Node::Ret(*callee));
                            }
                        }
                        Op::Output { args, .. } => {
                            // Observation point: argument deps are logged.
                            for e in args {
                                let mut ns = Vec::new();
                                expr_nodes(f, e, &mut ns);
                                for n in ns {
                                    seeds.extend(resolve(f.id, n));
                                }
                            }
                        }
                        // Loop-bound markers carry a placeholder ident,
                        // not a variable — nothing is observed.
                        Op::Annot {
                            kind: ocelot_ir::AnnotKind::Bound(_),
                            ..
                        } => {}
                        Op::Annot { var, .. } => {
                            // Fresh/consistent annotations log the var's
                            // deps at every use site.
                            seeds.extend(resolve(f.id, node_of(f, var)));
                        }
                        Op::Skip | Op::AtomStart { .. } | Op::AtomEnd { .. } => {}
                    }
                }
                match &b.term {
                    // Branch conditions drop their deps — no edges.
                    Terminator::Branch { .. } => {}
                    Terminator::Ret(Some(e)) => {
                        let mut ns = Vec::new();
                        expr_nodes(f, e, &mut ns);
                        for n in ns {
                            for n in resolve(f.id, n) {
                                edge(Node::Ret(f.id), n);
                            }
                        }
                    }
                    _ => {}
                }
            }
        }

        // Ref forwarding: writes through caller param y forwarded as
        // callee param q land in y's targets, which the Arg::Ref edge
        // above already wired (node_of maps by-ref y to ... Global).
        // node_of treats by-ref params as Global(name) — wrong; patch:
        // handled via resolve() in the Arg::Ref arm only when y is a
        // by-ref param, so wire those explicitly here instead.
        for f in &p.funcs {
            for (_, inst) in f.iter_insts() {
                if let Op::Call { callee, args, .. } = &inst.op {
                    let cf = p.func(*callee);
                    for (i, a) in args.iter().enumerate() {
                        if let (Arg::Ref(y), Some(prm)) = (a, cf.params.get(i)) {
                            if f.is_by_ref_param(y) {
                                for t in deref_in(f.id, y) {
                                    edges
                                        .entry(t)
                                        .or_default()
                                        .insert(Node::RefOut(cf.id, prm.name.clone()));
                                }
                            }
                        }
                    }
                }
            }
        }

        // Externally-observed variables (policy-driven fresh-use
        // logging whose annotations were stripped from the stream) are
        // observation points exactly like an in-stream annotation.
        for (fid, x) in observed {
            let f = p.func(*fid);
            if f.is_by_ref_param(x) {
                seeds.extend(deref_in(*fid, x));
            } else {
                seeds.insert(node_of(f, x));
            }
        }

        // BFS from the seeds.
        let mut live: BTreeSet<Node> = BTreeSet::new();
        let mut work: Vec<Node> = seeds.into_iter().collect();
        while let Some(n) = work.pop() {
            if !live.insert(n.clone()) {
                continue;
            }
            if let Some(vs) = edges.get(&n) {
                work.extend(vs.iter().cloned());
            }
        }
        self.live = live;
    }
}

/// For every by-ref parameter, the concrete storage it can alias,
/// resolved transitively through ref forwarding. Iterated to a fixpoint
/// so `f(&x) → g(&p) → h(&q)` resolves `q` to `x`.
fn ref_targets(p: &Program) -> BTreeMap<(FuncId, Ident), BTreeSet<Target>> {
    let mut targets: BTreeMap<(FuncId, Ident), BTreeSet<Target>> = BTreeMap::new();
    for f in &p.funcs {
        for prm in &f.params {
            if prm.by_ref {
                targets.insert((f.id, prm.name.clone()), BTreeSet::new());
            }
        }
    }
    loop {
        let mut changed = false;
        for f in &p.funcs {
            for (_, inst) in f.iter_insts() {
                let Op::Call { callee, args, .. } = &inst.op else {
                    continue;
                };
                let cf = p.func(*callee);
                for (i, a) in args.iter().enumerate() {
                    let (Arg::Ref(y), Some(prm)) = (a, cf.params.get(i)) else {
                        continue;
                    };
                    if !prm.by_ref {
                        continue;
                    }
                    let key = (cf.id, prm.name.clone());
                    let add: BTreeSet<Target> = if f.is_by_ref_param(y) {
                        targets.get(&(f.id, y.clone())).cloned().unwrap_or_default()
                    } else if f.declares(y) {
                        [Target::Local(f.id, y.clone())].into()
                    } else {
                        [Target::Global(y.clone())].into()
                    };
                    let entry = targets.entry(key).or_default();
                    for t in add {
                        changed |= entry.insert(t);
                    }
                }
            }
        }
        if !changed {
            return targets;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocelot_ir::lower::compile;

    fn flow(src: &str) -> (ocelot_ir::Program, ValueFlow) {
        let p = compile(src).unwrap();
        let vf = ValueFlow::analyze(&p);
        (p, vf)
    }

    #[test]
    fn arithmetic_on_constants_is_pure() {
        let (p, vf) = flow("fn main() { let a = 1; let b = a * 3 + 2; out(log, b); }");
        let f = p.func(p.main);
        assert!(vf.expr_is_pure(f, &Expr::Var("a".into())));
        assert!(vf.expr_is_pure(f, &Expr::Var("b".into())));
    }

    #[test]
    fn input_data_is_impure_but_counters_beside_it_stay_pure() {
        let (p, vf) = flow(
            "sensor s; fn main() { let i = 0; let v = in(s); \
             while i < 3 { i = i + 1; } out(log, v + i); }",
        );
        let f = p.func(p.main);
        assert!(!vf.expr_is_pure(f, &Expr::Var("v".into())), "sample");
        assert!(vf.expr_is_pure(f, &Expr::Var("i".into())), "loop counter");
    }

    #[test]
    fn globals_written_with_input_data_become_impure() {
        let (p, vf) = flow(
            "sensor s; nv g = 0; nv c = 0; fn main() { \
             let v = in(s); g = v; c = c + 1; out(log, g + c); }",
        );
        let f = p.func(p.main);
        assert!(!vf.expr_is_pure(f, &Expr::Var("g".into())));
        assert!(
            vf.expr_is_pure(f, &Expr::Var("c".into())),
            "pure increments keep a counter global pure"
        );
    }

    #[test]
    fn control_dependence_does_not_contaminate_purity() {
        // The taint analysis would taint `n` (incremented under a
        // tainted branch); runtime deps are data-only, so `n` is pure.
        let (p, vf) = flow(
            "sensor s; nv n = 0; fn main() { let v = in(s); \
             if v > 0 { n = n + 1; } out(log, n); }",
        );
        let f = p.func(p.main);
        assert!(vf.expr_is_pure(f, &Expr::Var("n".into())));
    }

    #[test]
    fn array_reads_mix_in_cell_impurity() {
        let (p, vf) = flow(
            "sensor s; nv h[4]; fn main() { let v = in(s); h[0] = v; \
             let x = h[1]; out(log, x); }",
        );
        let f = p.func(p.main);
        assert!(
            !vf.expr_is_pure(f, &Expr::Var("x".into())),
            "whole-array granularity: any impure store contaminates reads"
        );
    }

    #[test]
    fn call_flow_carries_impurity_through_params_and_rets() {
        let (p, vf) = flow(
            "sensor s; fn id(x) { return x; } \
             fn main() { let v = in(s); let w = id(v); let c = id(3); out(log, w + c); }",
        );
        let f = p.func(p.main);
        assert!(!vf.expr_is_pure(f, &Expr::Var("w".into())));
        assert!(
            !vf.expr_is_pure(f, &Expr::Var("c".into())),
            "one impure call site contaminates the shared parameter"
        );
    }

    #[test]
    fn refparam_writebacks_contaminate_the_target() {
        let (p, vf) = flow(
            "sensor s; fn fill(&o) { let v = in(s); *o = v; } \
             fn main() { let t = 0; fill(&t); out(log, t); }",
        );
        let f = p.func(p.main);
        assert!(!vf.expr_is_pure(f, &Expr::Var("t".into())));
    }

    #[test]
    fn deps_of_branch_only_values_are_dead() {
        let (p, vf) = flow(
            "sensor s; nv n = 0; fn main() { let v = in(s); \
             if v > 100 { n = n + 1; } out(log, n); }",
        );
        assert!(
            vf.var_deps_dead(p.main, "v"),
            "v only feeds a branch; its deps are never logged"
        );
    }

    #[test]
    fn output_arguments_are_dep_live() {
        let (p, vf) = flow("sensor s; fn main() { let v = in(s); out(log, v); }");
        assert!(!vf.var_deps_dead(p.main, "v"));
    }

    #[test]
    fn liveness_flows_backward_through_rets_and_args() {
        let (p, vf) = flow(
            "sensor s; fn model(m) { let acc = m * 3; return acc; } \
             fn main() { let v = in(s); let w = model(v); \
             if w > 9 { skip; } out(log, 1); }",
        );
        let model = p.func_by_name("model").unwrap();
        assert!(vf.ret_deps_dead(model), "w only feeds a branch");
        assert!(vf.var_deps_dead(model, "acc"));
        assert!(vf.var_deps_dead(model, "m"));
        assert!(
            vf.var_deps_dead(p.main, "v"),
            "v flows only into dead places"
        );
    }

    #[test]
    fn liveness_flows_backward_through_refparam_writebacks() {
        let (p, vf) = flow(
            "sensor s; fn smooth(&o) { let v = in(s); *o = v; } \
             fn probe(&o2) { let u = in(s); *o2 = u; } \
             fn main() { let a = 0; let b = 0; smooth(&a); probe(&b); \
             if a > 0 { skip; } out(log, b); }",
        );
        let smooth = p.func_by_name("smooth").unwrap();
        let probe = p.func_by_name("probe").unwrap();
        assert!(vf.refout_deps_dead(smooth, "o"), "a only feeds a branch");
        assert!(!vf.refout_deps_dead(probe, "o2"), "b is output");
        assert!(vf.var_deps_dead(p.main, "a"));
        assert!(!vf.var_deps_dead(p.main, "b"));
    }

    #[test]
    fn annotated_variables_are_dep_live() {
        let (p, vf) = flow(
            "sensor s; fn main() { let t = in(s); fresh(t); \
             if t > 0 { skip; } }",
        );
        assert!(
            !vf.var_deps_dead(p.main, "t"),
            "fresh-use logging observes t's deps"
        );
    }

    #[test]
    fn global_store_then_output_keeps_the_chain_live() {
        let (p, vf) = flow(
            "sensor s; nv g = 0; fn main() { let v = in(s); g = v; \
             let w = g; out(log, w); }",
        );
        assert!(!vf.var_deps_dead(p.main, "v"), "v → g → w → out");
        assert!(!vf.global_deps_dead("g"));
    }

    #[test]
    fn global_store_never_read_into_outputs_is_dead() {
        let (p, vf) = flow(
            "sensor s; nv cache[4]; fn main() { let v = in(s); \
             cache[0] = v; if cache[1] > 0 { skip; } out(log, 7); }",
        );
        assert!(vf.global_deps_dead("cache"), "cache feeds only a branch");
        assert!(vf.var_deps_dead(p.main, "v"));
    }

    #[test]
    fn store_index_deps_are_dropped_but_read_index_deps_merge() {
        let (p, vf) = flow(
            "sensor s; nv a[4]; nv b[4]; fn main() { let v = in(s); \
             a[v] = 1; let x = b[v]; out(log, x); }",
        );
        // v as a *store* index: dropped. v as a *read* index: merges
        // into x, which is output.
        assert!(!vf.var_deps_dead(p.main, "v"), "read-index path is live");
        let (p2, vf2) = flow(
            "sensor s; nv a[4]; fn main() { let v = in(s); \
             a[v] = 1; out(log, 3); }",
        );
        assert!(
            vf2.var_deps_dead(p2.main, "v"),
            "store-index deps never propagate"
        );
    }

    #[test]
    fn ref_forwarding_resolves_to_the_original_target() {
        let (p, vf) = flow(
            "sensor s; fn inner(&q) { let v = in(s); *q = v; } \
             fn outer(&r) { inner(&r); } \
             fn main() { let t = 0; outer(&t); out(log, t); }",
        );
        let f = p.func(p.main);
        assert!(!vf.expr_is_pure(f, &Expr::Var("t".into())), "purity");
        let inner = p.func_by_name("inner").unwrap();
        assert!(!vf.refout_deps_dead(inner, "q"), "liveness through forward");
    }
}
