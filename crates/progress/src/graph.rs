//! The block graph both cost analyses fold over, and the collect-to-use
//! walk they share.
//!
//! [`WcetAnalysis`](crate::WcetAnalysis) folds longest paths over a
//! [`BlockGraph`] and [`FeasAnalysis`](crate::FeasAnalysis) runs
//! Dijkstra on the same graph: two algorithms over one structure, each
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
use std::collections::{BTreeMap, BTreeSet};

/// One function's block graph: CFG successors and predecessors, the
/// loop forest with each loop's trip bound, the back edges of loops
/// with no recoverable bound, and the returning blocks.
pub(crate) struct BlockGraph {
    /// Successor and predecessor tables.
    pub(crate) cfg: Cfg,
    /// The natural loops.
    pub(crate) loops: LoopForest,
    /// Trip bound of each loop, by header.
    bounds: BTreeMap<BlockId, LoopBound>,
    /// Back edges (latch → header) of loops whose trip count the
    /// [`crate::bounds`] analysis cannot recover.
    unbounded_back: BTreeSet<(BlockId, BlockId)>,
    /// Blocks ending in `ret`.
    exit_blocks: Vec<BlockId>,
}

impl BlockGraph {
    /// Builds the graph of `f`.
    pub(crate) fn new(f: &Function) -> Self {
        let cfg = Cfg::new(f);
        let dom = DomTree::dominators(f, &cfg);
        let loops = LoopForest::new(f, &cfg, &dom);
        let mut bounds = BTreeMap::new();
        let mut unbounded_back = BTreeSet::new();
        for l in loops.loops() {
            let bound = loop_bound(f, l);
            if matches!(bound, LoopBound::Unknown(_)) {
                for &latch in cfg.preds(l.header) {
                    if l.contains(latch) {
                        unbounded_back.insert((latch, l.header));
                    }
                }
            }
            bounds.insert(l.header, bound);
        }
        let exit_blocks = f
            .blocks
            .iter()
            .filter(|b| matches!(b.term, Terminator::Ret(_)))
            .map(|b| b.id)
            .collect();
        BlockGraph {
            cfg,
            loops,
            bounds,
            unbounded_back,
            exit_blocks,
        }
    }

    /// The trip bound of the loop headed by `header`.
    pub(crate) fn bound(&self, header: BlockId) -> &LoopBound {
        &self.bounds[&header]
    }

    /// True when `from → to` is the back edge of an unbounded loop.
    pub(crate) fn is_unbounded_back(&self, from: BlockId, to: BlockId) -> bool {
        self.unbounded_back.contains(&(from, to))
    }

    /// The blocks ending in `ret`.
    pub(crate) fn exit_blocks(&self) -> &[BlockId] {
        &self.exit_blocks
    }
}

/// The block graph of every function of `p`, indexed by [`FuncId`].
pub(crate) fn block_graphs(p: &Program) -> Vec<BlockGraph> {
    p.funcs.iter().map(BlockGraph::new).collect()
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
