//! The reference taint fixpoint: the per-function flow analysis of
//! `ocelot_analysis::taint` as it stood before that crate switched to
//! dense-id bitset rows, kept verbatim as the harness's oracle.
//!
//! Its states are `BTreeMap<Loc, BTreeSet<TaintSource>>` maps with
//! `String` keys, cloned on every block visit — slow, but written
//! directly against the IR, one statement per rule of Algorithm 2. The
//! differential suite (`tests/taint_oracle.rs`) requires
//! [`TaintAnalysis::run`] to equal [`run`] on the apps, generated
//! programs and the edit trace, and the incremental re-verify gate
//! (`tests/incremental_speedup.rs`) times [`verify`] as its
//! from-scratch side. Only `ocelot-analysis`'s public API is used.

use ocelot_analysis::dom::DomTree;
use ocelot_analysis::effects::{expr_reads, op_reads};
use ocelot_analysis::taint::{FuncFlow, TaintAnalysis, TaintSet, TaintSource};
use ocelot_ir::ast::{Arg, Expr};
use ocelot_ir::cfg::Cfg;
use ocelot_ir::{CallGraph, Function, InstrRef, Op, Place, Program, Terminator};
use ocelot_serve::verify::{verify_with, Verdict};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

/// A memory location tracked by the per-function analysis.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Loc {
    Local(String),
    DerefParam(String),
    Global(String),
}

type State = BTreeMap<Loc, TaintSet>;

/// The whole-program analysis with the reference fixpoint: per-function
/// flows callees-first, then [`TaintAnalysis::from_flows`].
///
/// # Panics
///
/// Panics on recursive programs; run [`ocelot_ir::validate()`] first.
pub fn run(p: &Program) -> TaintAnalysis {
    let cg = CallGraph::new(p);
    let order = cg
        .topo_callees_first(p)
        .expect("taint analysis requires an acyclic call graph");
    let mut flows: Vec<FuncFlow> = vec![FuncFlow::default(); p.funcs.len()];
    for f in order {
        let flow = analyze_function(p, p.func(f), &flows);
        flows[f.0 as usize] = flow;
    }
    TaintAnalysis::from_flows(p, flows)
}

/// A from-scratch verify of `src` on the reference fixpoint: the steps
/// of `ocelot_serve::verify::full_verify` with [`run`] as the taint
/// analysis.
///
/// # Errors
///
/// Returns a one-line `compile:`/`validate:`/`transform:` message.
pub fn verify(src: &str) -> Result<Verdict, String> {
    verify_with(src, run).map(|(_, verdict)| verdict)
}

/// The per-function flow of `f`, given the flows of its callees.
///
/// Invariant: the result depends on no literal value. Taint comes from
/// the variables an expression reads (`expr_reads`, `op_reads`), the
/// control structure, and the callee flows — never from an `Int` or
/// `Bool` operand, so a branch on a constant is as tainted as its
/// variable operands and no constant path is pruned.
/// [`ocelot_analysis::incremental::input_fingerprints`] keys cached
/// flows on bodies modulo literal values and relies on this; the
/// literal-edit tests in `incremental` and the `literal_reuse` sweep
/// hold it.
pub(crate) fn analyze_function(p: &Program, f: &Function, flows: &[FuncFlow]) -> FuncFlow {
    let cfg = Cfg::new(f);
    let pdom = DomTree::post_dominators(f, &cfg);
    let ctrl_parents = control_dependence(f, &cfg, &pdom);

    let entry_state = initial_state(p, f);
    let mut block_in: HashMap<u32, State> = HashMap::new();
    block_in.insert(f.entry.0, entry_state);

    // Condition taint of each branch block, from the last processing pass.
    let mut cond_taint: HashMap<u32, TaintSet> = HashMap::new();

    let mut worklist: VecDeque<u32> = cfg.rpo().iter().map(|b| b.0).collect();
    let mut guard = 0usize;
    let budget = 64 * (f.blocks.len() + 4) * (f.blocks.len() + 4);
    while let Some(b) = worklist.pop_front() {
        guard += 1;
        assert!(
            guard <= budget.max(100_000),
            "taint fixpoint failed to converge in `{}`",
            f.name
        );
        let Some(in_state) = block_in.get(&b).cloned() else {
            continue;
        };
        let ctrl = ctrl_taint_of(&ctrl_parents, &cond_taint, b);
        let (out_state, branch_taint) =
            transfer_block(p, f, flows, &f.blocks[b as usize], in_state, &ctrl, None);
        if let Some(bt) = branch_taint {
            let entry = cond_taint.entry(b).or_default();
            let before = entry.len();
            entry.extend(bt);
            if entry.len() != before {
                // Re-queue control-dependent blocks.
                for (blk, parents) in &ctrl_parents {
                    if parents.contains(&b) {
                        worklist.push_back(*blk);
                    }
                }
            }
        }
        for succ in cfg.succs(ocelot_ir::BlockId(b)) {
            let entry = block_in.entry(succ.0).or_default();
            let mut changed = false;
            for (loc, taint) in &out_state {
                let slot = entry.entry(loc.clone()).or_default();
                let before = slot.len();
                slot.extend(taint.iter().cloned());
                if slot.len() != before {
                    changed = true;
                }
            }
            if changed {
                worklist.push_back(succ.0);
            }
        }
    }

    // Recording pass: states are at fixpoint; walk each block once to
    // populate the per-instruction maps.
    let mut flow = FuncFlow::default();
    let mut all_observed_taints: Vec<TaintSet> = Vec::new();
    for b in cfg.rpo() {
        let Some(in_state) = block_in.get(&b.0).cloned() else {
            continue;
        };
        let ctrl = ctrl_taint_of(&ctrl_parents, &cond_taint, b.0);
        let (out_state, branch_taint) = transfer_block(
            p,
            f,
            flows,
            &f.blocks[b.0 as usize],
            in_state,
            &ctrl,
            Some(&mut flow),
        );
        if let Some(bt) = branch_taint {
            all_observed_taints.push(bt);
        }
        let block = &f.blocks[b.0 as usize];
        // Record uses at the terminator.
        match &block.term {
            Terminator::Branch { cond, .. } => {
                for v in expr_reads(cond) {
                    flow.var_uses.entry(v).or_default().insert(block.term_label);
                }
            }
            Terminator::Ret(Some(e)) => {
                for v in expr_reads(e) {
                    flow.var_uses.entry(v).or_default().insert(block.term_label);
                }
            }
            _ => {}
        }
        if b == &f.exit {
            if let Terminator::Ret(Some(e)) = &block.term {
                flow.ret = taint_expr(p, f, e, &out_state);
            }
            for param in &f.params {
                if param.by_ref {
                    let t = out_state
                        .get(&Loc::DerefParam(param.name.clone()))
                        .cloned()
                        .unwrap_or_default();
                    flow.ref_out.insert(param.name.clone(), t);
                }
            }
            for g in &p.globals {
                if let Some(t) = out_state.get(&Loc::Global(g.name.clone())) {
                    let identity = TaintSet::from([TaintSource::Global(g.name.clone())]);
                    if *t != identity {
                        flow.global_out.insert(g.name.clone(), t.clone());
                    }
                }
            }
        }
    }

    // A by-ref parameter's incoming value was read iff its `Param`
    // source surfaced in any observed taint set (definitions, returns,
    // ref/global out-flows, call arguments, annotations, or branch
    // conditions).
    let scan = |ts: &TaintSet, out: &mut BTreeSet<String>| {
        for s in ts {
            if let TaintSource::Param(q) = s {
                out.insert(q.clone());
            }
        }
    };
    let mut read_params = std::mem::take(&mut flow.ref_param_read);
    for ts in flow
        .def_taint
        .values()
        .chain(flow.annot_taint.values())
        .chain(flow.global_out.values())
        .chain(std::iter::once(&flow.ret))
        .chain(all_observed_taints.iter())
    {
        scan(ts, &mut read_params);
    }
    // `ref_out[p]` trivially holds `Param(p)` when `p` was never
    // written; surviving unread is not a read, so skip the identity
    // entry (cross-parameter flows like `*a = *b` still count).
    for (p_name, ts) in &flow.ref_out {
        for s in ts {
            if let TaintSource::Param(q) = s {
                if q != p_name {
                    read_params.insert(q.clone());
                }
            }
        }
    }
    for param in &f.params {
        if param.by_ref && read_params.contains(&param.name) {
            flow.ref_param_read.insert(param.name.clone());
        }
    }
    flow
}

fn initial_state(p: &Program, f: &Function) -> State {
    let mut s = State::new();
    for param in &f.params {
        if param.by_ref {
            s.insert(
                Loc::DerefParam(param.name.clone()),
                TaintSet::from([TaintSource::Param(param.name.clone())]),
            );
        } else {
            s.insert(
                Loc::Local(param.name.clone()),
                TaintSet::from([TaintSource::Param(param.name.clone())]),
            );
        }
    }
    for g in &p.globals {
        s.insert(
            Loc::Global(g.name.clone()),
            TaintSet::from([TaintSource::Global(g.name.clone())]),
        );
    }
    s
}

/// Classic control-dependence: block `X` is control-dependent on branch
/// block `A` if `X` post-dominates a successor of `A` but does not
/// strictly post-dominate `A`. Returns, for each block, the branch
/// blocks it is control-dependent on.
fn control_dependence(f: &Function, cfg: &Cfg, pdom: &DomTree) -> HashMap<u32, BTreeSet<u32>> {
    let mut deps: HashMap<u32, BTreeSet<u32>> = HashMap::new();
    for a in &f.blocks {
        if !matches!(a.term, Terminator::Branch { .. }) {
            continue;
        }
        let stop = pdom.idom(a.id);
        for s in cfg.succs(a.id) {
            let mut cur = Some(*s);
            while let Some(x) = cur {
                if Some(x) == stop {
                    break;
                }
                deps.entry(x.0).or_default().insert(a.id.0);
                cur = pdom.idom(x);
            }
        }
    }
    deps
}

fn ctrl_taint_of(
    ctrl_parents: &HashMap<u32, BTreeSet<u32>>,
    cond_taint: &HashMap<u32, TaintSet>,
    b: u32,
) -> TaintSet {
    let mut out = TaintSet::new();
    if let Some(parents) = ctrl_parents.get(&b) {
        for a in parents {
            if let Some(t) = cond_taint.get(a) {
                out.extend(t.iter().cloned());
            }
        }
    }
    out
}

/// Resolves a variable name to its tracked location within `f`.
fn loc_of(p: &Program, f: &Function, name: &str) -> Loc {
    if f.params.iter().any(|q| q.name == name && q.by_ref) {
        Loc::DerefParam(name.to_string())
    } else if p.is_global(name) {
        Loc::Global(name.to_string())
    } else {
        Loc::Local(name.to_string())
    }
}

fn taint_of(state: &State, loc: &Loc) -> TaintSet {
    state.get(loc).cloned().unwrap_or_default()
}

fn taint_expr(p: &Program, f: &Function, e: &Expr, state: &State) -> TaintSet {
    let mut out = TaintSet::new();
    for v in expr_reads(e) {
        out.extend(taint_of(state, &loc_of(p, f, &v)));
    }
    out
}

/// Applies the transfer function of one block. When `record` is given,
/// also populates the per-instruction maps of the final [`FuncFlow`].
/// Returns the out-state and, for branch terminators, the condition
/// taint.
fn transfer_block(
    p: &Program,
    f: &Function,
    flows: &[FuncFlow],
    block: &ocelot_ir::Block,
    mut state: State,
    ctrl: &TaintSet,
    mut record: Option<&mut FuncFlow>,
) -> (State, Option<TaintSet>) {
    for inst in &block.instrs {
        // Record uses before mutating state. A `&x` argument is a use
        // only when the callee may read the incoming value.
        if let Some(rec) = record.as_deref_mut() {
            match &inst.op {
                Op::Annot { .. } => {}
                Op::Call { callee, args, .. } => {
                    let callee_fn = p.func(*callee);
                    let callee_flow = &flows[callee.0 as usize];
                    for (a, param) in args.iter().zip(&callee_fn.params) {
                        match a {
                            Arg::Value(e) => {
                                for v in expr_reads(e) {
                                    rec.var_uses.entry(v).or_default().insert(inst.label);
                                }
                            }
                            Arg::Ref(x) => {
                                if callee_flow.ref_param_read.contains(&param.name) {
                                    rec.var_uses
                                        .entry(x.clone())
                                        .or_default()
                                        .insert(inst.label);
                                }
                            }
                        }
                    }
                }
                op => {
                    for v in op_reads(op) {
                        rec.var_uses.entry(v).or_default().insert(inst.label);
                    }
                }
            }
        }
        match &inst.op {
            Op::Skip | Op::AtomStart { .. } | Op::AtomEnd { .. } => {}
            Op::Bind { var, src } => {
                let mut t = taint_expr(p, f, src, &state);
                t.extend(ctrl.iter().cloned());
                if let Some(rec) = record.as_deref_mut() {
                    rec.def_taint.insert(inst.label, t.clone());
                }
                state.insert(loc_of(p, f, var), t);
            }
            Op::Assign { place, src } => {
                let mut t = taint_expr(p, f, src, &state);
                t.extend(ctrl.iter().cloned());
                match place {
                    Place::Var(x) => {
                        if let Some(rec) = record.as_deref_mut() {
                            rec.def_taint.insert(inst.label, t.clone());
                        }
                        state.insert(loc_of(p, f, x), t);
                    }
                    Place::Index(a, i) => {
                        // Arrays are a single abstract cell: weak update.
                        let mut merged = taint_of(&state, &Loc::Global(a.clone()));
                        merged.extend(t);
                        merged.extend(taint_expr(p, f, i, &state));
                        if let Some(rec) = record.as_deref_mut() {
                            rec.def_taint.insert(inst.label, merged.clone());
                        }
                        state.insert(Loc::Global(a.clone()), merged);
                    }
                    Place::Deref(x) => {
                        if let Some(rec) = record.as_deref_mut() {
                            rec.def_taint.insert(inst.label, t.clone());
                        }
                        state.insert(Loc::DerefParam(x.clone()), t);
                    }
                }
            }
            Op::Input { var, .. } => {
                let mut t = TaintSet::from([TaintSource::Input(vec![InstrRef {
                    func: f.id,
                    label: inst.label,
                }])]);
                t.extend(ctrl.iter().cloned());
                if let Some(rec) = record.as_deref_mut() {
                    rec.def_taint.insert(inst.label, t.clone());
                }
                state.insert(loc_of(p, f, var), t);
            }
            Op::Call { dst, callee, args } => {
                let site = InstrRef {
                    func: f.id,
                    label: inst.label,
                };
                let callee_fn = p.func(*callee);
                let callee_flow = &flows[callee.0 as usize];
                // Bind argument taints.
                let mut arg_taints: Vec<TaintSet> = Vec::with_capacity(args.len());
                for (i, a) in args.iter().enumerate() {
                    let t = match a {
                        Arg::Value(e) => taint_expr(p, f, e, &state),
                        Arg::Ref(x) => taint_of(&state, &loc_of(p, f, x)),
                    };
                    if let Some(rec) = record.as_deref_mut() {
                        rec.call_arg_taint.insert((inst.label, i), t.clone());
                        if matches!(a, Arg::Value(_)) {
                            // A by-value argument consumes its operands;
                            // Param sources observed here count as reads
                            // of the incoming value. (Ref args only count
                            // if the callee reads them — filtered at the
                            // end of the analysis.)
                            for s in &t {
                                if let TaintSource::Param(q) = s {
                                    rec.ref_param_read.insert(q.clone());
                                }
                            }
                        } else if let Arg::Ref(x) = a {
                            // Forwarding an incoming reference: treat as a
                            // read only if the sub-callee reads it.
                            if f.params.iter().any(|q| q.name == *x && q.by_ref)
                                && flows[callee.0 as usize]
                                    .ref_param_read
                                    .contains(&callee_fn.params[i].name)
                            {
                                rec.ref_param_read.insert(x.clone());
                            }
                        }
                    }
                    arg_taints.push(t);
                }
                let subst = |ts: &TaintSet, state: &State| -> TaintSet {
                    let mut out = TaintSet::new();
                    for s in ts {
                        match s {
                            TaintSource::Input(suffix) => {
                                let mut chain = vec![site];
                                chain.extend(suffix.iter().copied());
                                out.insert(TaintSource::Input(chain));
                            }
                            TaintSource::Param(q) => {
                                if let Some(i) =
                                    callee_fn.params.iter().position(|pp| pp.name == *q)
                                {
                                    out.extend(arg_taints[i].iter().cloned());
                                }
                            }
                            TaintSource::Global(g) => {
                                out.extend(taint_of(state, &Loc::Global(g.clone())));
                            }
                        }
                    }
                    out
                };
                // Global side effects of the callee.
                let global_updates: Vec<(String, TaintSet)> = callee_flow
                    .global_out
                    .iter()
                    .map(|(g, ts)| {
                        let mut t = subst(ts, &state);
                        t.extend(ctrl.iter().cloned());
                        (g.clone(), t)
                    })
                    .collect();
                // By-ref out-flows.
                let mut ref_updates: Vec<(Loc, TaintSet)> = Vec::new();
                for (i, a) in args.iter().enumerate() {
                    if let Arg::Ref(x) = a {
                        let pname = &callee_fn.params[i].name;
                        if let Some(out_t) = callee_flow.ref_out.get(pname) {
                            let mut t = subst(out_t, &state);
                            t.extend(ctrl.iter().cloned());
                            ref_updates.push((loc_of(p, f, x), t));
                        }
                    }
                }
                let ret_taint = {
                    let mut t = subst(&callee_flow.ret, &state);
                    t.extend(ctrl.iter().cloned());
                    t
                };
                for (g, t) in global_updates {
                    state.insert(Loc::Global(g), t);
                }
                for (loc, t) in ref_updates {
                    state.insert(loc, t);
                }
                if let Some(d) = dst {
                    if let Some(rec) = record.as_deref_mut() {
                        rec.def_taint.insert(inst.label, ret_taint.clone());
                    }
                    state.insert(loc_of(p, f, d), ret_taint);
                }
            }
            Op::Output { .. } => {}
            // Loop-bound markers name no variable; there is no taint
            // to snapshot.
            Op::Annot {
                kind: ocelot_ir::AnnotKind::Bound(_),
                ..
            } => {}
            Op::Annot { var, .. } => {
                if let Some(rec) = record.as_deref_mut() {
                    let t = taint_of(&state, &loc_of(p, f, var));
                    rec.annot_taint.insert(inst.label, t);
                }
            }
        }
    }
    let branch_taint = match &block.term {
        Terminator::Branch { cond, .. } => Some(taint_expr(p, f, cond, &state)),
        _ => None,
    };
    (state, branch_taint)
}
