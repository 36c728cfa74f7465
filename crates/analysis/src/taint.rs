//! Interprocedural, context-sensitive input-taint analysis with
//! provenance (the paper's Appendix I, Algorithm 2).
//!
//! The analysis answers: *which input operations does this value depend
//! on, and through which chain of calls?* Provenance call chains
//! disambiguate different calls to the same input-wrapping function
//! (Figure 6(b): two calls to `pres` from `confirm` yield two distinct
//! chains), which region inference needs to pull every involved call
//! site into one atomic region.
//!
//! Structure:
//!
//! 1. **Per-function flow** ([`FuncFlow`]) — computed callees-first. Taint
//!    sources are *symbolic*: a local input operation (with the chain of
//!    call sites from this function down to it), a parameter's entry
//!    value, or a global's entry value. Tracks data flow and control flow
//!    (a definition under a tainted branch is tainted, per §4.3).
//! 2. **Context enumeration** — every acyclic chain of call sites from
//!    `main` to each function.
//! 3. **Expansion** ([`TaintAnalysis::expand`]) — resolves symbolic
//!    sources into full chains from `main`, fixpointing the taint stored
//!    in non-volatile globals across the whole program.

use crate::dom::DomTree;
use crate::effects::{expr_reads, op_reads};
use ocelot_ir::ast::{Arg, Expr};
use ocelot_ir::cfg::Cfg;
use ocelot_ir::{CallGraph, FuncId, Function, InstrRef, Label, Op, Place, Program, Terminator};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

/// A provenance chain: call sites descending from some scope, ending at
/// the input instruction itself. A *full* chain starts in `main`.
pub type Prov = Vec<InstrRef>;

/// A symbolic taint source, relative to one function's scope.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TaintSource {
    /// An input operation reached via `Prov` (first element is an
    /// instruction in this function: the input itself or a call site).
    Input(Prov),
    /// The entry value of a parameter (for by-ref parameters, the value
    /// behind the reference at entry).
    Param(String),
    /// The entry value of a non-volatile global.
    Global(String),
}

/// A set of symbolic taint sources.
pub type TaintSet = BTreeSet<TaintSource>;

/// A memory location tracked by the per-function analysis.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Loc {
    Local(String),
    DerefParam(String),
    Global(String),
}

type State = BTreeMap<Loc, TaintSet>;

/// Per-function taint-flow summary (the information content of the
/// paper's Figure 5 function summaries).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FuncFlow {
    /// Taint of the returned value.
    pub ret: TaintSet,
    /// Final taint of the cell behind each by-ref parameter.
    pub ref_out: BTreeMap<String, TaintSet>,
    /// Exit taint of each global this function (transitively) writes.
    pub global_out: BTreeMap<String, TaintSet>,
    /// Taint of the value defined at each defining instruction.
    pub def_taint: BTreeMap<Label, TaintSet>,
    /// Taint of the annotated variable at each `Annot` instruction.
    pub annot_taint: BTreeMap<Label, TaintSet>,
    /// Taint of each call argument at each call site: for by-value
    /// arguments the argument expression's taint, for by-ref arguments
    /// the entry taint of the referenced cell.
    pub call_arg_taint: BTreeMap<(Label, usize), TaintSet>,
    /// Labels (instructions and terminators) that *use* each variable.
    /// Passing `&x` to a callee counts as a use only when the callee may
    /// read the incoming value (pure out-parameters are writes, not
    /// uses — `Fresh` policies care about value consumption).
    pub var_uses: BTreeMap<String, BTreeSet<Label>>,
    /// By-ref parameters whose *incoming* value may be read by this
    /// function (directly or via callees).
    pub ref_param_read: BTreeSet<String>,
}

/// The whole-program analysis result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaintAnalysis {
    /// Per-function flow summaries, indexed by [`FuncId`].
    pub flows: Vec<FuncFlow>,
    /// Calling contexts per function: each context is the chain of call
    /// sites from `main` (empty for `main` itself). Functions unreachable
    /// from `main` have no contexts.
    pub contexts: Vec<Vec<Prov>>,
    /// Fixpoint of full-provenance taint stored in each global.
    pub global_taint: BTreeMap<String, BTreeSet<Prov>>,
}

impl TaintAnalysis {
    /// Runs the analysis on a validated program.
    ///
    /// # Panics
    ///
    /// Panics on recursive programs; run [`ocelot_ir::validate()`] first.
    pub fn run(p: &Program) -> Self {
        let _span = ocelot_telemetry::span!("analysis");
        let cg = CallGraph::new(p);
        let order = cg
            .topo_callees_first(p)
            .expect("taint analysis requires an acyclic call graph");

        let mut flows: Vec<FuncFlow> = vec![FuncFlow::default(); p.funcs.len()];
        for f in order {
            let flow = analyze_function(p, p.func(f), &flows);
            flows[f.0 as usize] = flow;
        }

        Self::from_flows(p, flows)
    }

    /// Assembles the whole-program result from already-computed
    /// per-function flows: context enumeration plus the global-taint
    /// fixpoint. This is the non-incremental tail of [`TaintAnalysis::run`];
    /// [`crate::incremental::FlowCache`] feeds it a mix of cached and
    /// freshly-analyzed flows and gets an identical result.
    ///
    /// # Panics
    ///
    /// Panics on recursive programs (context enumeration requires an
    /// acyclic call graph) or when `flows.len() != p.funcs.len()`.
    pub fn from_flows(p: &Program, flows: Vec<FuncFlow>) -> Self {
        assert_eq!(flows.len(), p.funcs.len(), "one flow per function");
        let cg = CallGraph::new(p);
        let contexts = enumerate_contexts(p, &cg);
        let mut analysis = TaintAnalysis {
            flows,
            contexts,
            global_taint: BTreeMap::new(),
        };
        analysis.fixpoint_global_taint(p);
        analysis
    }

    /// Iterates the taint stored in globals to a fixpoint: each pass
    /// expands every function's `global_out` under every context and
    /// unions the resulting full chains into the global map.
    fn fixpoint_global_taint(&mut self, p: &Program) {
        loop {
            let mut changed = false;
            for f in &p.funcs {
                let outs: Vec<(String, TaintSet)> = self.flows[f.id.0 as usize]
                    .global_out
                    .iter()
                    .map(|(g, t)| (g.clone(), t.clone()))
                    .collect();
                let ctxs = self.contexts[f.id.0 as usize].clone();
                for ctx in &ctxs {
                    for (g, taints) in &outs {
                        for src in taints {
                            for chain in self.expand(p, f.id, ctx, src) {
                                if self
                                    .global_taint
                                    .entry(g.clone())
                                    .or_default()
                                    .insert(chain)
                                {
                                    changed = true;
                                }
                            }
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// Expands a symbolic source observed in function `f` under context
    /// `ctx` into the set of full provenance chains from `main`.
    pub fn expand(&self, p: &Program, f: FuncId, ctx: &Prov, src: &TaintSource) -> BTreeSet<Prov> {
        match src {
            TaintSource::Input(suffix) => {
                let mut chain = ctx.clone();
                chain.extend(suffix.iter().copied());
                BTreeSet::from([chain])
            }
            TaintSource::Global(g) => self.global_taint.get(g).cloned().unwrap_or_default(),
            TaintSource::Param(param) => {
                let Some(site) = ctx.last().copied() else {
                    // `main` takes no arguments; a Param source with an
                    // empty context cannot carry input taint.
                    return BTreeSet::new();
                };
                let caller = site.func;
                let parent_ctx: Prov = ctx[..ctx.len() - 1].to_vec();
                let idx = match param_index(p, f, param) {
                    Some(i) => i,
                    None => return BTreeSet::new(),
                };
                let arg_taint = self.flows[caller.0 as usize]
                    .call_arg_taint
                    .get(&(site.label, idx))
                    .cloned()
                    .unwrap_or_default();
                let mut out = BTreeSet::new();
                for s in &arg_taint {
                    out.extend(self.expand(p, caller, &parent_ctx, s));
                }
                out
            }
        }
    }

    /// Expands a whole taint set under every context of `f`.
    pub fn expand_all_contexts(&self, p: &Program, f: FuncId, taints: &TaintSet) -> BTreeSet<Prov> {
        let mut out = BTreeSet::new();
        for ctx in &self.contexts[f.0 as usize] {
            for src in taints {
                out.extend(self.expand(p, f, ctx, src));
            }
        }
        out
    }

    /// Full input chains on which the variable annotated at `at`
    /// depends, across all calling contexts.
    pub fn annotation_inputs(&self, p: &Program, at: InstrRef) -> BTreeSet<Prov> {
        let flow = &self.flows[at.func.0 as usize];
        let Some(taints) = flow.annot_taint.get(&at.label) else {
            return BTreeSet::new();
        };
        self.expand_all_contexts(p, at.func, taints)
    }

    /// Labels in `f` that use variable `var` (excluding annotations).
    pub fn use_labels(&self, f: FuncId, var: &str) -> BTreeSet<Label> {
        self.flows[f.0 as usize]
            .var_uses
            .get(var)
            .cloned()
            .unwrap_or_default()
    }
}

fn param_index(p: &Program, f: FuncId, param: &str) -> Option<usize> {
    p.func(f).params.iter().position(|q| q.name == param)
}

/// Enumerates all call-site chains from `main` per function.
fn enumerate_contexts(p: &Program, cg: &CallGraph) -> Vec<Vec<Prov>> {
    let mut ctxs: Vec<Vec<Prov>> = vec![Vec::new(); p.funcs.len()];
    ctxs[p.main.0 as usize].push(Vec::new());
    // Process callers before callees.
    let mut order = cg
        .topo_callees_first(p)
        .expect("contexts require an acyclic call graph");
    order.reverse();
    for f in order {
        let f_ctxs = ctxs[f.0 as usize].clone();
        for edge in cg.callees(f) {
            for ctx in &f_ctxs {
                let mut child = ctx.clone();
                child.push(edge.site);
                ctxs[edge.callee.0 as usize].push(child);
            }
        }
    }
    for c in &mut ctxs {
        c.sort();
        c.dedup();
    }
    ctxs
}

// ---------------------------------------------------------------------
// Per-function flow analysis
// ---------------------------------------------------------------------

/// The per-function flow of `f`, given the flows of its callees.
///
/// Invariant: the result depends on no literal value. Taint comes from
/// the variables an expression reads (`expr_reads`, `op_reads`), the
/// control structure, and the callee flows — never from an `Int` or
/// `Bool` operand, so a branch on a constant is as tainted as its
/// variable operands and no constant path is pruned.
/// [`crate::incremental::input_fingerprints`] keys cached flows on
/// bodies modulo literal values and relies on this; the literal-edit
/// tests in `incremental` and the `literal_reuse` sweep hold it.
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

#[cfg(test)]
mod tests {
    use super::*;
    use ocelot_ir::lower::compile;

    fn analyze(src: &str) -> (ocelot_ir::Program, TaintAnalysis) {
        let p = compile(src).unwrap();
        ocelot_ir::validate(&p).unwrap();
        let t = TaintAnalysis::run(&p);
        (p, t)
    }

    /// Finds the single annotation instruction and returns its expanded
    /// input chains.
    fn sole_annotation_inputs(p: &ocelot_ir::Program, t: &TaintAnalysis) -> BTreeSet<Prov> {
        let annots = p.annotations();
        assert_eq!(annots.len(), 1);
        t.annotation_inputs(p, annots[0].0)
    }

    #[test]
    fn direct_input_has_single_chain() {
        let (p, t) = analyze("sensor s; fn main() { let x = in(s); fresh(x); }");
        let chains = sole_annotation_inputs(&p, &t);
        assert_eq!(chains.len(), 1);
        let chain = chains.iter().next().unwrap();
        assert_eq!(
            chain.len(),
            1,
            "input directly in main: chain is just the input op"
        );
        assert_eq!(chain[0].func, p.main);
    }

    #[test]
    fn figure6a_fresh_through_return() {
        // Figure 6(a): app calls tmp, tmp senses and normalizes.
        let (p, t) = analyze(
            r#"
            sensor sense;
            fn norm(v) { return v * 2; }
            fn tmp() { let t = in(sense); let t2 = norm(t); return t2; }
            fn main() { let x = tmp(); fresh(x); out(log, x); }
            "#,
        );
        let chains = sole_annotation_inputs(&p, &t);
        assert_eq!(chains.len(), 1);
        let chain = chains.iter().next().unwrap();
        // Chain: call site of tmp in main, then the input op in tmp.
        assert_eq!(chain.len(), 2);
        assert_eq!(chain[0].func, p.main);
        assert_eq!(chain[1].func, p.func_by_name("tmp").unwrap());
        let inst = p.inst(chain[1]).unwrap();
        assert!(inst.op.is_input());
    }

    #[test]
    fn figure6b_two_calls_two_chains() {
        // Figure 6(b): confirm calls pres twice consistently; the two
        // chains must be distinct (different call sites).
        let (p, t) = analyze(
            r#"
            sensor sense;
            fn pres() { let v = in(sense); return v; }
            fn confirm() {
                let y = pres();
                consistent(y, 1);
                let y2 = pres();
                consistent(y2, 1);
            }
            fn main() { confirm(); }
            "#,
        );
        let annots = p.annotations();
        assert_eq!(annots.len(), 2);
        let a = t.annotation_inputs(&p, annots[0].0);
        let b = t.annotation_inputs(&p, annots[1].0);
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
        assert_ne!(a, b, "two calls to pres have distinct provenance");
        let chain = a.iter().next().unwrap();
        // main->confirm callsite, confirm->pres callsite, input in pres.
        assert_eq!(chain.len(), 3);
        assert_eq!(chain[0].func, p.main);
        assert_eq!(chain[1].func, p.func_by_name("confirm").unwrap());
        assert_eq!(chain[2].func, p.func_by_name("pres").unwrap());
    }

    #[test]
    fn taint_through_by_ref_parameter() {
        let (p, t) = analyze(
            r#"
            sensor s;
            fn sample(&dst) { let v = in(s); *dst = v; }
            fn main() { let x = 0; sample(&x); fresh(x); }
            "#,
        );
        let chains = sole_annotation_inputs(&p, &t);
        assert_eq!(chains.len(), 1);
        let chain = chains.iter().next().unwrap();
        assert_eq!(chain.len(), 2, "call site then input op");
        assert_eq!(chain[1].func, p.func_by_name("sample").unwrap());
    }

    #[test]
    fn taint_through_argument() {
        // Taint enters `norm` via its argument and returns — the argBy
        // case of the paper's summaries.
        let (p, t) = analyze(
            r#"
            sensor s;
            fn norm(v) { return v + 1; }
            fn main() { let raw = in(s); let x = norm(raw); fresh(x); }
            "#,
        );
        let chains = sole_annotation_inputs(&p, &t);
        assert_eq!(chains.len(), 1);
        let chain = chains.iter().next().unwrap();
        assert_eq!(chain.len(), 1, "input op is in main itself");
        let inst = p.inst(chain[0]).unwrap();
        assert!(inst.op.is_input());
    }

    #[test]
    fn control_dependence_taints_definitions() {
        // z is assigned under a branch on tainted x: z is tainted (§4.3
        // tracks control flow from inputs).
        let (p, t) = analyze(
            r#"
            sensor s;
            fn main() {
                let x = in(s);
                let z = 0;
                if x > 5 { z = 1; }
                fresh(z);
            }
            "#,
        );
        let chains = sole_annotation_inputs(&p, &t);
        assert_eq!(chains.len(), 1, "z is control-dependent on the input");
    }

    #[test]
    fn untainted_variable_has_no_chains() {
        let (p, t) =
            analyze("sensor s; fn main() { let q = in(s); let x = 1 + 2; fresh(x); out(log, q); }");
        let chains = sole_annotation_inputs(&p, &t);
        assert!(chains.is_empty());
    }

    #[test]
    fn taint_flows_through_globals() {
        let (p, t) = analyze(
            r#"
            sensor s;
            nv cell = 0;
            fn store() { let v = in(s); cell = v; }
            fn main() { store(); let x = cell; fresh(x); }
            "#,
        );
        let chains = sole_annotation_inputs(&p, &t);
        assert_eq!(chains.len(), 1);
        let chain = chains.iter().next().unwrap();
        assert_eq!(chain.len(), 2, "chain through store()'s input");
    }

    #[test]
    fn taint_flows_through_arrays() {
        let (p, t) = analyze(
            r#"
            sensor s;
            nv buf[4];
            fn main() { let v = in(s); buf[0] = v; let x = buf[1]; fresh(x); }
            "#,
        );
        // Arrays are one abstract cell: reading any element sees the
        // stored taint.
        let chains = sole_annotation_inputs(&p, &t);
        assert_eq!(chains.len(), 1);
    }

    #[test]
    fn two_contexts_yield_two_chains() {
        // helper senses; called from two different sites in main via a
        // wrapper — the policy must see both chains.
        let (p, t) = analyze(
            r#"
            sensor s;
            nv acc = 0;
            fn helper() { let v = in(s); return v; }
            fn addone() { let h = helper(); acc = acc + h; }
            fn main() { addone(); addone(); let x = acc; fresh(x); }
            "#,
        );
        let chains = sole_annotation_inputs(&p, &t);
        assert_eq!(chains.len(), 2, "two call sites of addone: two chains");
        for c in &chains {
            assert_eq!(c.len(), 3);
        }
    }

    #[test]
    fn use_labels_include_branch_and_output() {
        let (p, t) =
            analyze("sensor s; fn main() { let x = in(s); fresh(x); if x > 5 { out(alarm, x); } }");
        let uses = t.use_labels(p.main, "x");
        // Uses: the branch terminator and the output (annotation excluded).
        assert_eq!(uses.len(), 2);
    }

    #[test]
    fn contexts_of_main_is_empty_chain() {
        let (p, t) = analyze("fn main() { }");
        assert_eq!(t.contexts[p.main.0 as usize], vec![Vec::<InstrRef>::new()]);
    }

    #[test]
    fn loop_carried_taint_converges() {
        let (p, t) = analyze(
            r#"
            sensor s;
            fn main() {
                let acc = 0;
                repeat 5 {
                    let v = in(s);
                    acc = acc + v;
                }
                fresh(acc);
            }
            "#,
        );
        let chains = sole_annotation_inputs(&p, &t);
        assert_eq!(chains.len(), 1, "single static input op in the loop");
        let _ = p;
    }

    #[test]
    fn consistent_annotations_tracked_separately() {
        let (p, t) = analyze(
            r#"
            sensor a;
            sensor b;
            fn main() {
                let x = in(a);
                consistent(x, 1);
                let y = in(b);
                consistent(y, 1);
            }
            "#,
        );
        let annots = p.annotations();
        let ca = t.annotation_inputs(&p, annots[0].0);
        let cb = t.annotation_inputs(&p, annots[1].0);
        assert_eq!(ca.len(), 1);
        assert_eq!(cb.len(), 1);
        assert_ne!(ca, cb);
    }
}
