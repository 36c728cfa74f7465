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
//!
//!    The fixpoint first interns the function's locations and sources
//!    into dense ids and compiles each block into steps over them:
//!    strong updates, weak array updates, and per call site the
//!    callee's `ret`, `ref_out` and `global_out` with its sources
//!    substituted. It then iterates one bitset row per location per
//!    block from an RPO-seeded worklist, and converts rows back to
//!    [`TaintSet`]s only in the final recording pass. The map-of-sets
//!    fixpoint it replaced lives on in the evaluation harness
//!    (`ocelot_bench::taint_ref`) as the oracle this one must match
//!    exactly.
//! 2. **Context enumeration** — every acyclic chain of call sites from
//!    `main` to each function.
//! 3. **Expansion** (`TaintAnalysis::expand`) — resolves symbolic
//!    sources into full chains from `main`, fixpointing the taint stored
//!    in non-volatile globals across the whole program.

use crate::dom::DomTree;
use crate::effects::{expr_reads, op_reads};
use ocelot_ir::ast::{Arg, Expr};
use ocelot_ir::cfg::Cfg;
use ocelot_ir::{CallGraph, FuncId, Function, InstrRef, Label, Op, Place, Program, Terminator};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::Arc;

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
    /// Per-function flow summaries, indexed by [`FuncId`]; shared, not
    /// copied, with the [`crate::incremental::FlowCache`] that holds them.
    pub flows: Vec<Arc<FuncFlow>>,
    /// Calling contexts per function: each context is the chain of call
    /// sites from `main` (empty for `main` itself). Functions unreachable
    /// from `main` have no contexts.
    pub(crate) contexts: Vec<Vec<Prov>>,
    /// Fixpoint of full-provenance taint stored in each global.
    pub(crate) global_taint: BTreeMap<String, BTreeSet<Prov>>,
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
        let order = callees_first(&cg, p);
        let mut flows: Vec<Arc<FuncFlow>> = vec![Arc::default(); p.funcs.len()];
        for &f in &order {
            flows[f.0 as usize] = Arc::new(analyze_function(p, p.func(f), &flows));
        }
        Self::assemble(p, &cg, &order, flows)
    }

    /// Assembles the whole-program result from already-computed
    /// per-function flows: context enumeration plus the global-taint
    /// fixpoint. This is the non-incremental tail of [`TaintAnalysis::run`];
    /// [`crate::incremental::FlowCache`] feeds it a mix of cached and
    /// freshly-analyzed flows and gets an identical result. The flows
    /// are shared, not copied: the result holds the very `Arc`s passed
    /// in, so a flow the cache also holds is never cloned.
    ///
    /// # Panics
    ///
    /// Panics on recursive programs (context enumeration requires an
    /// acyclic call graph) or when `flows.len() != p.funcs.len()`.
    pub fn from_flows(p: &Program, flows: Vec<Arc<FuncFlow>>) -> Self {
        let cg = CallGraph::new(p);
        let order = callees_first(&cg, p);
        Self::assemble(p, &cg, &order, flows)
    }

    /// [`TaintAnalysis::from_flows`] over the call graph and
    /// callees-first order the caller already built.
    pub(crate) fn assemble(
        p: &Program,
        cg: &CallGraph,
        order: &[FuncId],
        flows: Vec<Arc<FuncFlow>>,
    ) -> Self {
        assert_eq!(flows.len(), p.funcs.len(), "one flow per function");
        let contexts = enumerate_contexts(p, cg, order);
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
                let flow = &self.flows[f.id.0 as usize];
                for ctx in &self.contexts[f.id.0 as usize] {
                    for (g, taints) in &flow.global_out {
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
    pub(crate) fn expand(
        &self,
        p: &Program,
        f: FuncId,
        ctx: &Prov,
        src: &TaintSource,
    ) -> BTreeSet<Prov> {
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
    pub(crate) fn expand_all_contexts(
        &self,
        p: &Program,
        f: FuncId,
        taints: &TaintSet,
    ) -> BTreeSet<Prov> {
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

/// The callees-first order of `cg`.
///
/// # Panics
///
/// Panics on recursive programs.
pub(crate) fn callees_first(cg: &CallGraph, p: &Program) -> Vec<FuncId> {
    cg.topo_callees_first(p)
        .expect("taint analysis requires an acyclic call graph")
}

/// Enumerates all call-site chains from `main` per function, walking
/// the callees-first `order` backwards (callers before callees).
fn enumerate_contexts(p: &Program, cg: &CallGraph, order: &[FuncId]) -> Vec<Vec<Prov>> {
    let mut ctxs: Vec<Vec<Prov>> = vec![Vec::new(); p.funcs.len()];
    ctxs[p.main.0 as usize].push(Vec::new());
    for &f in order.iter().rev() {
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
pub(crate) fn analyze_function(p: &Program, f: &Function, flows: &[Arc<FuncFlow>]) -> FuncFlow {
    let cfg = Cfg::new(f);
    let code = FuncCode::compile(p, f, flows, &cfg);
    let fix = code.fixpoint(&cfg);
    code.record(flows, &cfg, &fix)
}

/// The kind of a memory location tracked by the per-function analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LocKind {
    Local = 0,
    DerefParam = 1,
    Global = 2,
}

/// One function's locations and taint sources, interned into dense ids.
/// A taint set is a bitset row of `words` u64s, bit `s` standing for
/// `sources[s]`; a state is one row per location.
struct Ids<'a> {
    p: &'a Program,
    f: &'a Function,
    locs: [HashMap<String, u32>; 3],
    n_locs: u32,
    sources: Vec<TaintSource>,
    source_ids: HashMap<TaintSource, u32>,
}

impl<'a> Ids<'a> {
    fn new(p: &'a Program, f: &'a Function) -> Self {
        Ids {
            p,
            f,
            locs: Default::default(),
            n_locs: 0,
            sources: Vec::new(),
            source_ids: HashMap::new(),
        }
    }

    fn loc(&mut self, kind: LocKind, name: &str) -> u32 {
        let map = &mut self.locs[kind as usize];
        if let Some(&id) = map.get(name) {
            return id;
        }
        let id = self.n_locs;
        self.n_locs += 1;
        map.insert(name.to_string(), id);
        id
    }

    /// The location variable `name` resolves to within `f`.
    fn var(&mut self, name: &str) -> u32 {
        let kind = if self.f.params.iter().any(|q| q.name == name && q.by_ref) {
            LocKind::DerefParam
        } else if self.p.is_global(name) {
            LocKind::Global
        } else {
            LocKind::Local
        };
        self.loc(kind, name)
    }

    /// The locations `e` reads; its taint is the union of their rows.
    fn reads(&mut self, e: &Expr) -> Vec<u32> {
        expr_reads(e).iter().map(|v| self.var(v)).collect()
    }

    fn source(&mut self, s: TaintSource) -> u32 {
        if let Some(&id) = self.source_ids.get(&s) {
            return id;
        }
        let id = self.sources.len() as u32;
        self.sources.push(s.clone());
        self.source_ids.insert(s, id);
        id
    }
}

/// `dst := consts ∪ ⋃ rows(reads) ∪ ctrl`, evaluated on one state.
struct Update {
    dst: u32,
    reads: Vec<u32>,
    consts: Vec<u32>,
}

/// One argument of a call site.
struct ArgStep {
    /// The locations whose union is the argument's taint.
    reads: Vec<u32>,
    by_value: bool,
}

/// A call site with the callee's summary substituted into the caller's
/// ids: its `Input` sources prefixed with the site, its `Param` sources
/// replaced by the bound arguments' locations, and its `Global` sources
/// by the globals' locations.
struct CallStep {
    label: Label,
    args: Vec<ArgStep>,
    /// `Param` sources of by-ref parameters of `f` forwarded to a callee
    /// that reads them.
    forwards: Vec<u32>,
    /// The callee's `global_out`, then `ref_out`, then (with a
    /// destination) `ret` — all evaluated on the pre-call state, then
    /// applied in order.
    updates: Vec<Update>,
    /// Whether the last update writes the call's destination.
    defines: bool,
}

/// One instruction's effect, over dense ids.
enum Step {
    /// A strong update: a binding, an assignment to a variable or
    /// through a reference, or an input.
    Strong(Label, Update),
    /// An array store: a weak update of the array's one abstract cell.
    Weak(Label, Update),
    Call(Box<CallStep>),
    /// The annotated variable's taint, recorded only.
    Annot(Label, u32),
}

struct BlockCode {
    steps: Vec<Step>,
    /// The locations a branch condition reads.
    cond: Option<Vec<u32>>,
    /// The locations a returned value reads.
    ret: Option<Vec<u32>>,
}

/// A function compiled to steps over dense ids.
struct FuncCode<'a> {
    ids: Ids<'a>,
    /// Words per taint row: `⌈sources / 64⌉`.
    words: usize,
    blocks: Vec<BlockCode>,
    /// Per block, the branch blocks it is control-dependent on.
    ctrl_parents: Vec<Vec<u32>>,
    /// Per branch block, the blocks control-dependent on it, ascending.
    ctrl_children: Vec<Vec<u32>>,
    /// The entry state: each parameter and global holds its entry value.
    entry: Vec<u64>,
}

/// The fixpoint's block in-states and accumulated condition taints.
struct Fixpoint {
    block_in: Vec<u64>,
    reached: Vec<bool>,
    cond: Vec<u64>,
    /// Blocks popped off the worklist (what the convergence guard counts).
    visits: usize,
}

/// What the recording pass collects besides the [`FuncFlow`] maps: the
/// union of every taint observed, whose `Param` bits say which by-ref
/// parameters' incoming values were read.
struct Recorder {
    flow: FuncFlow,
    observed: Vec<u64>,
}

fn row(state: &[u64], loc: u32, words: usize) -> &[u64] {
    &state[loc as usize * words..][..words]
}

fn row_mut(state: &mut [u64], loc: u32, words: usize) -> &mut [u64] {
    &mut state[loc as usize * words..][..words]
}

/// `dst |= src`; whether any bit was new.
fn or_into(dst: &mut [u64], src: &[u64]) -> bool {
    let mut changed = 0;
    for (d, s) in dst.iter_mut().zip(src) {
        changed |= *s & !*d;
        *d |= *s;
    }
    changed != 0
}

fn set_bit(row: &mut [u64], bit: u32) {
    row[bit as usize / 64] |= 1 << (bit % 64);
}

fn has_bit(row: &[u64], bit: u32) -> bool {
    row[bit as usize / 64] & (1 << (bit % 64)) != 0
}

/// Whether `bit` is the only bit set in `row`.
fn is_only(row: &[u64], bit: u32) -> bool {
    has_bit(row, bit) && row.iter().map(|w| w.count_ones()).sum::<u32>() == 1
}

impl Update {
    fn reading(dst: u32, reads: Vec<u32>) -> Self {
        Update {
            dst,
            reads,
            consts: Vec::new(),
        }
    }

    fn eval(&self, state: &[u64], ctrl: &[u64], words: usize, out: &mut [u64]) {
        out.copy_from_slice(ctrl);
        for &l in &self.reads {
            or_into(out, row(state, l, words));
        }
        for &s in &self.consts {
            set_bit(out, s);
        }
    }
}

impl<'a> FuncCode<'a> {
    /// Interns `f`'s locations and sources and compiles each block.
    fn compile(p: &'a Program, f: &'a Function, flows: &[Arc<FuncFlow>], cfg: &Cfg) -> Self {
        let mut ids = Ids::new(p, f);
        let mut entry_bits = Vec::new();
        for param in &f.params {
            let kind = if param.by_ref {
                LocKind::DerefParam
            } else {
                LocKind::Local
            };
            let loc = ids.loc(kind, &param.name);
            entry_bits.push((loc, ids.source(TaintSource::Param(param.name.clone()))));
        }
        for g in &p.globals {
            let loc = ids.loc(LocKind::Global, &g.name);
            entry_bits.push((loc, ids.source(TaintSource::Global(g.name.clone()))));
        }
        let blocks: Vec<BlockCode> = f
            .blocks
            .iter()
            .map(|block| compile_block(flows, block, &mut ids))
            .collect();

        let words = ids.sources.len().div_ceil(64).max(1);
        let mut entry = vec![0u64; ids.n_locs as usize * words];
        for (loc, src) in entry_bits {
            let r = row_mut(&mut entry, loc, words);
            r.fill(0);
            set_bit(r, src);
        }

        let pdom = DomTree::post_dominators(f, cfg);
        let ctrl_parents = control_dependence(f, cfg, &pdom);
        let mut ctrl_children = vec![Vec::new(); f.blocks.len()];
        for (x, parents) in ctrl_parents.iter().enumerate() {
            for &a in parents {
                ctrl_children[a as usize].push(x as u32);
            }
        }
        FuncCode {
            ids,
            words,
            blocks,
            ctrl_parents,
            ctrl_children,
            entry,
        }
    }

    fn state_len(&self) -> usize {
        self.ids.n_locs as usize * self.words
    }

    /// The control taint of block `b`: the union of the condition taints
    /// of the branches it is control-dependent on.
    fn ctrl_of(&self, cond: &[u64], b: u32, out: &mut [u64]) {
        out.fill(0);
        for &a in &self.ctrl_parents[b as usize] {
            or_into(out, row(cond, a, self.words));
        }
    }

    /// Iterates the block in-states to a fixpoint: an RPO-seeded
    /// worklist, requeuing a block's successors when its out-state adds
    /// to theirs and its control-dependent blocks, in ascending order,
    /// when its condition taint grows.
    fn fixpoint(&self, cfg: &Cfg) -> Fixpoint {
        let f = self.ids.f;
        let w = self.words;
        let len = self.state_len();
        let n = f.blocks.len();
        let mut fix = Fixpoint {
            block_in: vec![0u64; n * len],
            reached: vec![false; n],
            cond: vec![0u64; n * w],
            visits: 0,
        };
        fix.block_in[f.entry.0 as usize * len..][..len].copy_from_slice(&self.entry);
        fix.reached[f.entry.0 as usize] = true;

        let mut state = vec![0u64; len];
        let mut ctrl = vec![0u64; w];
        let mut branch = vec![0u64; w];
        let mut scratch = Vec::new();
        let mut worklist: VecDeque<u32> = cfg.rpo().iter().map(|b| b.0).collect();
        let budget = 64 * (n + 4) * (n + 4);
        while let Some(b) = worklist.pop_front() {
            fix.visits += 1;
            assert!(
                fix.visits <= budget.max(100_000),
                "taint fixpoint failed to converge in `{}`",
                f.name
            );
            if !fix.reached[b as usize] {
                continue;
            }
            state.copy_from_slice(&fix.block_in[b as usize * len..][..len]);
            self.ctrl_of(&fix.cond, b, &mut ctrl);
            self.transfer(b, &mut state, &ctrl, &mut scratch, None);
            if let Some(reads) = &self.blocks[b as usize].cond {
                self.union_rows(&state, reads, &mut branch);
                if or_into(row_mut(&mut fix.cond, b, w), &branch) {
                    worklist.extend(&self.ctrl_children[b as usize]);
                }
            }
            for succ in cfg.succs(ocelot_ir::BlockId(b)) {
                let s = succ.0 as usize;
                fix.reached[s] = true;
                if or_into(&mut fix.block_in[s * len..][..len], &state) {
                    worklist.push_back(succ.0);
                }
            }
        }
        fix
    }

    fn union_rows(&self, state: &[u64], reads: &[u32], out: &mut [u64]) {
        out.fill(0);
        for &l in reads {
            or_into(out, row(state, l, self.words));
        }
    }

    fn to_set(&self, row: &[u64]) -> TaintSet {
        let mut out = TaintSet::new();
        for (i, &word) in row.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let s = i * 64 + bits.trailing_zeros() as usize;
                out.insert(self.ids.sources[s].clone());
                bits &= bits - 1;
            }
        }
        out
    }

    /// Records `row` as an observed taint and converts it.
    fn observe(&self, rec: &mut Recorder, row: &[u64]) -> TaintSet {
        or_into(&mut rec.observed, row);
        self.to_set(row)
    }

    /// Applies block `b`'s steps to `state` under control taint `ctrl`.
    /// When `rec` is given, also populates the per-instruction maps of
    /// the final [`FuncFlow`].
    fn transfer(
        &self,
        b: u32,
        state: &mut [u64],
        ctrl: &[u64],
        scratch: &mut Vec<u64>,
        mut rec: Option<&mut Recorder>,
    ) {
        let w = self.words;
        for step in &self.blocks[b as usize].steps {
            match step {
                Step::Strong(label, u) => {
                    scratch.resize(w, 0);
                    u.eval(state, ctrl, w, scratch);
                    row_mut(state, u.dst, w).copy_from_slice(scratch);
                    if let Some(rec) = rec.as_deref_mut() {
                        let t = self.observe(rec, scratch);
                        rec.flow.def_taint.insert(*label, t);
                    }
                }
                Step::Weak(label, u) => {
                    scratch.resize(w, 0);
                    u.eval(state, ctrl, w, scratch);
                    let cell = row_mut(state, u.dst, w);
                    or_into(cell, scratch);
                    if let Some(rec) = rec.as_deref_mut() {
                        let t = self.observe(rec, row(state, u.dst, w));
                        rec.flow.def_taint.insert(*label, t);
                    }
                }
                Step::Call(call) => {
                    if let Some(rec) = rec.as_deref_mut() {
                        let mut arg = vec![0u64; w];
                        for (i, a) in call.args.iter().enumerate() {
                            self.union_rows(state, &a.reads, &mut arg);
                            // A by-value argument consumes its operands;
                            // a by-ref one counts as a read only when
                            // forwarded to a callee that reads it.
                            let t = if a.by_value {
                                self.observe(rec, &arg)
                            } else {
                                self.to_set(&arg)
                            };
                            rec.flow.call_arg_taint.insert((call.label, i), t);
                        }
                        for &s in &call.forwards {
                            set_bit(&mut rec.observed, s);
                        }
                    }
                    scratch.resize(call.updates.len() * w, 0);
                    for (u, out) in call.updates.iter().zip(scratch.chunks_mut(w)) {
                        u.eval(state, ctrl, w, out);
                    }
                    for (u, out) in call.updates.iter().zip(scratch.chunks(w)) {
                        row_mut(state, u.dst, w).copy_from_slice(out);
                    }
                    if call.defines {
                        if let Some(rec) = rec.as_deref_mut() {
                            let ret = &scratch[(call.updates.len() - 1) * w..];
                            let t = self.observe(rec, ret);
                            rec.flow.def_taint.insert(call.label, t);
                        }
                    }
                }
                Step::Annot(label, loc) => {
                    if let Some(rec) = rec.as_deref_mut() {
                        let t = self.observe(rec, row(state, *loc, w));
                        rec.flow.annot_taint.insert(*label, t);
                    }
                }
            }
        }
    }

    /// The recording pass: states are at fixpoint; walk each reached
    /// block once to populate the per-instruction maps and, at the
    /// exit, the function's summary.
    fn record(&self, flows: &[Arc<FuncFlow>], cfg: &Cfg, fix: &Fixpoint) -> FuncFlow {
        let (p, f) = (self.ids.p, self.ids.f);
        let w = self.words;
        let len = self.state_len();
        let mut rec = Recorder {
            flow: FuncFlow::default(),
            observed: vec![0u64; w],
        };
        let mut state = vec![0u64; len];
        let mut ctrl = vec![0u64; w];
        let mut branch = vec![0u64; w];
        let mut scratch = Vec::new();
        for &b in cfg.rpo() {
            if !fix.reached[b.0 as usize] {
                continue;
            }
            let block = &f.blocks[b.0 as usize];
            record_uses(p, flows, block, &mut rec.flow);
            state.copy_from_slice(&fix.block_in[b.0 as usize * len..][..len]);
            self.ctrl_of(&fix.cond, b.0, &mut ctrl);
            self.transfer(b.0, &mut state, &ctrl, &mut scratch, Some(&mut rec));
            if let Some(reads) = &self.blocks[b.0 as usize].cond {
                self.union_rows(&state, reads, &mut branch);
                or_into(&mut rec.observed, &branch);
            }
            if b == f.exit {
                self.record_exit(b.0, &state, &mut rec);
            }
        }

        // A by-ref parameter's incoming value was read iff its `Param`
        // source surfaced in any observed taint set (definitions,
        // returns, ref/global out-flows, by-value call arguments,
        // annotations, or branch conditions), or it was forwarded to a
        // callee that reads it.
        for param in f.params.iter().filter(|q| q.by_ref) {
            if has_bit(&rec.observed, self.param_source(&param.name)) {
                rec.flow.ref_param_read.insert(param.name.clone());
            }
        }
        rec.flow
    }

    fn param_source(&self, name: &str) -> u32 {
        self.ids.source_ids[&TaintSource::Param(name.to_string())]
    }

    /// Records the exit block's `ret`, `ref_out` and `global_out`.
    fn record_exit(&self, b: u32, state: &[u64], rec: &mut Recorder) {
        let (p, f) = (self.ids.p, self.ids.f);
        let w = self.words;
        if let Some(reads) = &self.blocks[b as usize].ret {
            let mut ret = vec![0u64; w];
            self.union_rows(state, reads, &mut ret);
            rec.flow.ret = self.observe(rec, &ret);
        }
        for param in f.params.iter().filter(|q| q.by_ref) {
            let loc = self.ids.locs[LocKind::DerefParam as usize][&param.name];
            let mut out = row(state, loc, w).to_vec();
            rec.flow
                .ref_out
                .insert(param.name.clone(), self.to_set(&out));
            // `ref_out[p]` trivially holds `Param(p)` when `p` was never
            // written; surviving unread is not a read, so only other
            // parameters' sources count (`*a = *b`).
            let own = self.param_source(&param.name);
            out[own as usize / 64] &= !(1 << (own % 64));
            or_into(&mut rec.observed, &out);
        }
        for g in &p.globals {
            let loc = self.ids.locs[LocKind::Global as usize][&g.name];
            let t = row(state, loc, w);
            if !is_only(t, self.ids.source_ids[&TaintSource::Global(g.name.clone())]) {
                let t = self.observe(rec, t);
                rec.flow.global_out.insert(g.name.clone(), t);
            }
        }
    }
}

/// Compiles one block's instructions to steps, interning as it goes.
fn compile_block(flows: &[Arc<FuncFlow>], block: &ocelot_ir::Block, ids: &mut Ids) -> BlockCode {
    let mut steps = Vec::new();
    for inst in &block.instrs {
        let step = match &inst.op {
            Op::Skip | Op::AtomStart { .. } | Op::AtomEnd { .. } | Op::Output { .. } => continue,
            Op::Bind { var, src } => {
                let reads = ids.reads(src);
                let dst = ids.var(var);
                Step::Strong(inst.label, Update::reading(dst, reads))
            }
            Op::Assign { place, src } => {
                let mut reads = ids.reads(src);
                match place {
                    Place::Var(x) => {
                        let dst = ids.var(x);
                        Step::Strong(inst.label, Update::reading(dst, reads))
                    }
                    Place::Index(a, i) => {
                        reads.extend(ids.reads(i));
                        let dst = ids.loc(LocKind::Global, a);
                        Step::Weak(inst.label, Update::reading(dst, reads))
                    }
                    Place::Deref(x) => {
                        let dst = ids.loc(LocKind::DerefParam, x);
                        Step::Strong(inst.label, Update::reading(dst, reads))
                    }
                }
            }
            Op::Input { var, .. } => {
                let site = InstrRef {
                    func: ids.f.id,
                    label: inst.label,
                };
                let input = ids.source(TaintSource::Input(vec![site]));
                let dst = ids.var(var);
                Step::Strong(
                    inst.label,
                    Update {
                        dst,
                        reads: Vec::new(),
                        consts: vec![input],
                    },
                )
            }
            Op::Call { dst, callee, args } => Step::Call(Box::new(compile_call(
                flows,
                inst.label,
                dst.as_deref(),
                *callee,
                args,
                ids,
            ))),
            // Loop-bound markers name no variable; there is no taint
            // to snapshot.
            Op::Annot {
                kind: ocelot_ir::AnnotKind::Bound(_),
                ..
            } => continue,
            Op::Annot { var, .. } => Step::Annot(inst.label, ids.var(var)),
        };
        steps.push(step);
    }
    let (cond, ret) = match &block.term {
        Terminator::Branch { cond, .. } => (Some(ids.reads(cond)), None),
        Terminator::Ret(Some(e)) => (None, Some(ids.reads(e))),
        _ => (None, None),
    };
    BlockCode { steps, cond, ret }
}

/// Compiles a call site: binds argument locations and substitutes the
/// callee's summaries.
fn compile_call(
    flows: &[Arc<FuncFlow>],
    label: Label,
    dst: Option<&str>,
    callee: FuncId,
    args: &[Arg],
    ids: &mut Ids,
) -> CallStep {
    let (p, f) = (ids.p, ids.f);
    let site = InstrRef { func: f.id, label };
    let callee_fn = p.func(callee);
    let callee_flow = &flows[callee.0 as usize];
    let mut arg_steps = Vec::with_capacity(args.len());
    let mut forwards = Vec::new();
    for (i, a) in args.iter().enumerate() {
        arg_steps.push(match a {
            Arg::Value(e) => ArgStep {
                reads: ids.reads(e),
                by_value: true,
            },
            Arg::Ref(x) => {
                if f.params.iter().any(|q| q.name == *x && q.by_ref)
                    && callee_flow
                        .ref_param_read
                        .contains(&callee_fn.params[i].name)
                {
                    forwards.push(ids.source(TaintSource::Param(x.clone())));
                }
                ArgStep {
                    reads: vec![ids.var(x)],
                    by_value: false,
                }
            }
        });
    }
    let subst = |dst: u32, ts: &TaintSet, ids: &mut Ids| {
        let mut u = Update::reading(dst, Vec::new());
        for s in ts {
            match s {
                TaintSource::Input(suffix) => {
                    let mut chain = vec![site];
                    chain.extend(suffix.iter().copied());
                    u.consts.push(ids.source(TaintSource::Input(chain)));
                }
                TaintSource::Param(q) => {
                    if let Some(i) = callee_fn.params.iter().position(|pp| pp.name == *q) {
                        u.reads.extend(&arg_steps[i].reads);
                    }
                }
                TaintSource::Global(g) => u.reads.push(ids.loc(LocKind::Global, g)),
            }
        }
        u
    };
    let mut updates = Vec::new();
    for (g, ts) in &callee_flow.global_out {
        let dst = ids.loc(LocKind::Global, g);
        updates.push(subst(dst, ts, ids));
    }
    for (i, a) in args.iter().enumerate() {
        if let Arg::Ref(x) = a {
            if let Some(out_t) = callee_flow.ref_out.get(&callee_fn.params[i].name) {
                let dst = ids.var(x);
                updates.push(subst(dst, out_t, ids));
            }
        }
    }
    if let Some(d) = dst {
        let dst = ids.var(d);
        updates.push(subst(dst, &callee_flow.ret, ids));
    }
    CallStep {
        label,
        args: arg_steps,
        forwards,
        updates,
        defines: dst.is_some(),
    }
}

/// Records the labels that use each variable in `block`. A `&x`
/// argument is a use only when the callee may read the incoming value.
fn record_uses(
    p: &Program,
    flows: &[Arc<FuncFlow>],
    block: &ocelot_ir::Block,
    flow: &mut FuncFlow,
) {
    let mut uses = |vars: BTreeSet<String>, label: Label| {
        for v in vars {
            flow.var_uses.entry(v).or_default().insert(label);
        }
    };
    for inst in &block.instrs {
        match &inst.op {
            Op::Annot { .. } => {}
            Op::Call { callee, args, .. } => {
                let callee_fn = p.func(*callee);
                let callee_flow = &flows[callee.0 as usize];
                for (a, param) in args.iter().zip(&callee_fn.params) {
                    match a {
                        Arg::Value(e) => uses(expr_reads(e), inst.label),
                        Arg::Ref(x) => {
                            if callee_flow.ref_param_read.contains(&param.name) {
                                uses(BTreeSet::from([x.clone()]), inst.label);
                            }
                        }
                    }
                }
            }
            op => uses(op_reads(op), inst.label),
        }
    }
    match &block.term {
        Terminator::Branch { cond: e, .. } | Terminator::Ret(Some(e)) => {
            uses(expr_reads(e), block.term_label)
        }
        _ => {}
    }
}

/// Classic control-dependence: block `X` is control-dependent on branch
/// block `A` if `X` post-dominates a successor of `A` but does not
/// strictly post-dominate `A`. Returns, for each block, the branch
/// blocks it is control-dependent on, ascending.
fn control_dependence(f: &Function, cfg: &Cfg, pdom: &DomTree) -> Vec<Vec<u32>> {
    let mut deps: Vec<Vec<u32>> = vec![Vec::new(); f.blocks.len()];
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
                let parents = &mut deps[x.0 as usize];
                if parents.last() != Some(&a.id.0) {
                    parents.push(a.id.0);
                }
                cur = pdom.idom(x);
            }
        }
    }
    deps
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
    fn fixpoint_visit_counts_are_deterministic() {
        // Control-dependent blocks are requeued in ascending order, so
        // the visit count the convergence guard counts is the same on
        // every run, not only the result. The `while` loops are a shape
        // whose count depends on the requeue order; `tire` is a whole
        // app.
        let while_loops = r#"
            sensor s0;
            nv g0 = 3; nv g1 = 0; nv arr[4];
            fn grab() { let v = in(s0); return v; }
            fn main() {
                while g0 > 0 {
                    g0 = g0 - 1;
                    out(log, arr[2]);
                    g0 = (g1 * ((6 - 5) / (7 - g1)));
                    let x0 = 10;
                }
                g0 = 17;
                while g0 > 0 { g0 = g0 - 1; let x1 = grab(); }
                let x2 = (0 - arr[0]);
                let x3 = in(s0);
                fresh(x3);
                out(log, g0 + g1);
            }
        "#;
        for src in [while_loops, ocelot_apps::tire::ANNOTATED] {
            let (p, t) = analyze(src);
            for f in &p.funcs {
                let visits = || {
                    let cfg = Cfg::new(f);
                    FuncCode::compile(&p, f, &t.flows, &cfg)
                        .fixpoint(&cfg)
                        .visits
                };
                let first = visits();
                for _ in 0..8 {
                    assert_eq!(visits(), first, "visits in `{}`", f.name);
                }
            }
        }
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
