//! The block graph both cost analyses fold over, and the collect-to-use
//! walk they share.
//!
//! [`WcetAnalysis`](crate::WcetAnalysis) folds longest paths over a
//! [`BlockGraphs`] set and [`FeasAnalysis`](crate::FeasAnalysis) runs
//! Dijkstra on the same set, which a caller running both builds once:
//! two algorithms over one structure, each
//! pricing instructions through
//! [`CostModel::price`](ocelot_hw::energy::CostModel::price) with its
//! own facts. [`chain_to_use`] composes per-function segment costs into
//! an interprocedural collect-to-use cost; the two analyses differ only
//! in the segment-cost closure they hand it.

use crate::bounds::{loop_bound, LoopBound};
use ocelot_analysis::dom::{DomTree, Point};
use ocelot_analysis::loops::LoopForest;
use ocelot_hw::energy::{CostModel, Facts, Priced};
use ocelot_ir::cfg::Cfg;
use ocelot_ir::{BlockId, FuncId, Function, InstrRef, Label, Op, Program, Terminator};

/// One function's block graph: CFG successors and predecessors, the
/// loop forest with each loop's trip bound, and which blocks return.
/// Every table is indexed by block or loop index.
#[derive(Debug, Clone)]
pub(crate) struct BlockGraph {
    /// Successor and predecessor tables.
    pub(crate) cfg: Cfg,
    /// The dominator tree.
    dom: DomTree,
    /// The natural loops and each block's loop nest.
    pub(crate) loops: LoopForest,
    /// Trip bound of each loop, by loop index.
    bounds: Vec<LoopBound>,
    /// `is_exit[b]`: `b` ends in `ret`.
    is_exit: Vec<bool>,
}

impl BlockGraph {
    /// Builds the graph of `f`.
    fn new(f: &Function) -> Self {
        let cfg = Cfg::new(f);
        let dom = DomTree::dominators(f, &cfg);
        let loops = LoopForest::new(f, &cfg, &dom);
        let bounds = loops.loops().iter().map(|l| loop_bound(f, l)).collect();
        let is_exit = f
            .blocks
            .iter()
            .map(|b| matches!(b.term, Terminator::Ret(_)))
            .collect();
        BlockGraph {
            cfg,
            dom,
            loops,
            bounds,
            is_exit,
        }
    }

    /// The trip bound of loop `l` (an index into the loop forest).
    pub(crate) fn bound(&self, l: usize) -> &LoopBound {
        &self.bounds[l]
    }

    /// True when `from → to` is the back edge of an unbounded loop:
    /// `to` heads a loop with no recoverable trip count and `from` lies
    /// inside it. Callers ask only about CFG edges.
    pub(crate) fn is_unbounded_back(&self, from: BlockId, to: BlockId) -> bool {
        self.loops.headed_by(to).is_some_and(|l| {
            matches!(self.bounds[l], LoopBound::Unknown(_)) && self.loops.loops()[l].contains(from)
        })
    }

    /// True when `b` ends in `ret`.
    pub(crate) fn is_exit(&self, b: BlockId) -> bool {
        self.is_exit[b.0 as usize]
    }
}

/// The block graph of every function of a program: built once and
/// shared by [`WcetAnalysis::with_graphs`](crate::WcetAnalysis::with_graphs)
/// and [`FeasAnalysis::with_graphs`](crate::FeasAnalysis::with_graphs)
/// when a caller runs both.
#[derive(Debug, Clone)]
pub struct BlockGraphs(Vec<BlockGraph>);

impl BlockGraphs {
    /// Builds the graph of every function of `p`.
    pub fn new(p: &Program) -> Self {
        BlockGraphs(p.funcs.iter().map(BlockGraph::new).collect())
    }

    /// The graph of `func`.
    pub(crate) fn get(&self, func: FuncId) -> &BlockGraph {
        &self.0[func.0 as usize]
    }

    /// The dominator tree of `func`.
    pub fn dominators(&self, func: FuncId) -> &DomTree {
        &self.get(func).dom
    }
}

/// The labels and priced items at points `[lo, hi)` of block `b`; the
/// terminator sits at index `instrs.len()`, and `hi` saturates past it.
pub(crate) fn points(
    f: &Function,
    b: BlockId,
    lo: usize,
    hi: usize,
) -> impl Iterator<Item = (Label, Priced<'_>)> {
    let blk = f.block(b);
    let len = blk.instrs.len();
    (lo..hi.min(len + 1)).map(move |i| match blk.instrs.get(i) {
        Some(inst) => (inst.label, Priced::Op(&inst.op)),
        None => (blk.term_label, Priced::Term(&blk.term)),
    })
}

/// The point of the instruction `at`.
pub(crate) fn point_of(p: &Program, at: InstrRef) -> Option<Point> {
    let (b, i) = p.func(at.func).find_label(at.label)?;
    Some(Point::new(b, i))
}

/// Whether a collect-to-use path stays within the collecting run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Run {
    /// The use follows the collection in the same run.
    Same,
    /// A run boundary separates them: the collecting run returns from
    /// `main`, and a later run reaches the use from `main`'s entry.
    Next,
}

/// Cycles between executing the input that ends `chain` (the call sites
/// from `main`, then the input instruction) and reaching `use_at` under
/// calling context `use_ctx`, composed from per-function segments.
/// `None` when some segment is missing or the contexts are malformed.
///
/// The walk ascends out of every frame of `chain` below the frame where
/// the two call stacks diverge (each resumes just after its call site
/// and runs to its `ret`), then descends through the rest of `use_ctx`
/// to just before `use_at`. `segment(func, from, to)` prices one segment
/// of `func`, from `from` (inclusive) to `to` (exclusive) or, for
/// `None`, through the returning terminator. Each descending call adds
/// the call instruction's own price; its body is the descent. The
/// input's and the use's own costs are excluded: the input is
/// timestamped as it executes, and the expiry check fires on arrival.
pub(crate) fn chain_to_use(
    p: &Program,
    costs: &CostModel,
    chain: &[InstrRef],
    use_ctx: &[InstrRef],
    use_at: InstrRef,
    run: Run,
    mut segment: impl FnMut(FuncId, Point, Option<Point>) -> Option<u64>,
) -> Option<u64> {
    let (_, calls) = chain.split_last()?;
    let after = |at: InstrRef| point_of(p, at).map(|pt| Point::new(pt.block, pt.index + 1));
    let (ascend, mut func, mut cur, descend) = match run {
        Run::Same => {
            // Longest common call-stack prefix: the divergence frame.
            let d = calls
                .iter()
                .zip(use_ctx)
                .take_while(|(a, b)| a == b)
                .count();
            // Resume just after `chain[d]` in its frame (the input itself
            // when the collecting frame is a prefix of the use's).
            let at = chain[d];
            (&chain[d + 1..], at.func, after(at)?, &use_ctx[d..])
        }
        Run::Next => {
            let main = p.func(p.main);
            (chain, p.main, Point::new(main.entry, 0), use_ctx)
        }
    };
    let mut total = 0u64;
    for site in ascend.iter().rev() {
        total = total.saturating_add(segment(site.func, after(*site)?, None)?);
    }
    for site in descend {
        if site.func != func {
            return None;
        }
        let before = point_of(p, *site)?;
        total = total.saturating_add(segment(func, cur, Some(before))?);
        let op = &p
            .func(func)
            .block(before.block)
            .instrs
            .get(before.index)?
            .op;
        let Op::Call { callee, .. } = op else {
            return None;
        };
        total = total.saturating_add(costs.price(Priced::Op(op), Facts::default()));
        func = *callee;
        cur = Point::new(p.func(func).entry, 0);
    }
    if use_at.func != func {
        return None;
    }
    let before = point_of(p, use_at)?;
    Some(total.saturating_add(segment(func, cur, Some(before))?))
}
