//! Dominator and post-dominator trees.
//!
//! Implements the Cooper–Harvey–Kennedy iterative algorithm ("A Simple,
//! Fast Dominance Algorithm") over the block CFG, plus the
//! `closestCommonDominator` / `closestCommonPostDominator` queries that
//! Algorithm 1 of the paper takes from LLVM, and instruction-granularity
//! dominance used by `truncate` (§6.2).

use ocelot_ir::cfg::{Cfg, ReverseCfg};
use ocelot_ir::{BlockId, Function};

/// A dominance relation over one function's blocks.
///
/// The same type serves the forward (dominator) and reverse
/// (post-dominator) relations; see [`DomTree::dominators`] and
/// [`DomTree::post_dominators`].
#[derive(Debug, Clone)]
pub struct DomTree {
    /// `idom[b]` = immediate dominator of `b`; the root maps to itself;
    /// unreachable blocks map to `None`.
    idom: Vec<Option<BlockId>>,
    /// Order index used to intersect paths (RPO of the underlying graph).
    order: Vec<usize>,
    root: BlockId,
}

impl DomTree {
    /// Builds the dominator tree of `f` (rooted at the entry block).
    pub fn dominators(f: &Function, cfg: &Cfg) -> Self {
        let rpo: Vec<BlockId> = cfg.rpo().to_vec();
        Self::build(f.blocks.len(), f.entry, &rpo, |b| cfg.preds(b).to_vec())
    }

    /// Builds the post-dominator tree of `f` (rooted at the exit block).
    ///
    /// Lowered functions funnel every return through a single landing-pad
    /// block, so the reverse graph has one root and post-dominance is
    /// total over reachable blocks (§6.2 of the paper relies on this).
    pub fn post_dominators(f: &Function, cfg: &Cfg) -> Self {
        let rcfg = ReverseCfg::new(f, cfg);
        let rpo = rcfg.rpo.clone();
        // CHK needs each node's predecessors *in the reversed graph*,
        // which are the original successors (`rcfg.preds`).
        Self::build(f.blocks.len(), f.exit, &rpo, |b| {
            rcfg.preds[b.0 as usize].clone()
        })
    }

    /// Core CHK iteration. `preds` yields the predecessors of a block in
    /// the graph being dominated (already reversed for post-dominance).
    fn build(
        n: usize,
        root: BlockId,
        rpo: &[BlockId],
        preds: impl Fn(BlockId) -> Vec<BlockId>,
    ) -> Self {
        let mut order = vec![usize::MAX; n];
        for (i, b) in rpo.iter().enumerate() {
            order[b.0 as usize] = i;
        }
        let mut idom: Vec<Option<BlockId>> = vec![None; n];
        idom[root.0 as usize] = Some(root);

        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for p in preds(b) {
                    if idom[p.0 as usize].is_none() {
                        continue; // predecessor not yet processed / unreachable
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, &order, p, cur),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[b.0 as usize] != Some(ni) {
                        idom[b.0 as usize] = Some(ni);
                        changed = true;
                    }
                }
            }
        }
        DomTree { idom, order, root }
    }

    /// The root of the tree (entry for dominators, exit for
    /// post-dominators).
    pub fn root(&self) -> BlockId {
        self.root
    }

    /// Immediate dominator of `b`; `None` for the root and for
    /// unreachable blocks.
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        let d = self.idom[b.0 as usize]?;
        if b == self.root {
            None
        } else {
            Some(d)
        }
    }

    /// True when `a` dominates `b` (reflexively).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom[cur.0 as usize] {
                Some(next) if next != cur => cur = next,
                _ => return false,
            }
        }
    }

    /// True when `a` strictly dominates `b`.
    pub fn strictly_dominates(&self, a: BlockId, b: BlockId) -> bool {
        a != b && self.dominates(a, b)
    }

    /// Nearest common ancestor of `a` and `b` in the tree — LLVM's
    /// `closestCommonDominator`.
    ///
    /// Returns `None` if either block is unreachable.
    pub fn common(&self, a: BlockId, b: BlockId) -> Option<BlockId> {
        if self.idom[a.0 as usize].is_none() || self.idom[b.0 as usize].is_none() {
            return None;
        }
        Some(intersect(&self.idom, &self.order, a, b))
    }

    /// Nearest common ancestor of all blocks in `blocks`.
    ///
    /// Returns `None` for an empty iterator or if any block is
    /// unreachable.
    pub fn common_of<I: IntoIterator<Item = BlockId>>(&self, blocks: I) -> Option<BlockId> {
        let mut it = blocks.into_iter();
        let first = it.next()?;
        let mut acc = first;
        self.idom[acc.0 as usize]?;
        for b in it {
            acc = self.common(acc, b)?;
        }
        Some(acc)
    }

    /// Depth of `b` in the tree (root has depth 0); `None` if
    /// unreachable.
    pub fn depth(&self, b: BlockId) -> Option<usize> {
        self.idom[b.0 as usize]?;
        let mut d = 0;
        let mut cur = b;
        while cur != self.root {
            cur = self.idom[cur.0 as usize]?;
            d += 1;
        }
        Some(d)
    }
}

/// Computes the dominance frontier of every block: `df[b]` is the set
/// of blocks where `b`'s dominance ends — the join points that decide
/// where control-dependent effects merge (used by the control-dependence
/// computation in [`crate::taint`] via post-dominators, and exposed for
/// clients building SSA-style analyses).
pub(crate) fn dominance_frontier(f: &Function, cfg: &Cfg, dom: &DomTree) -> Vec<Vec<BlockId>> {
    let n = f.blocks.len();
    let mut df: Vec<Vec<BlockId>> = vec![Vec::new(); n];
    for b in &f.blocks {
        let preds = cfg.preds(b.id);
        if preds.len() < 2 {
            continue;
        }
        let Some(idom_b) = dom.idom(b.id) else {
            continue;
        };
        for &p in preds {
            let mut runner = p;
            loop {
                if runner == idom_b {
                    break;
                }
                if !df[runner.0 as usize].contains(&b.id) {
                    df[runner.0 as usize].push(b.id);
                }
                match dom.idom(runner) {
                    Some(next) => runner = next,
                    None => break,
                }
            }
        }
    }
    df
}

fn intersect(idom: &[Option<BlockId>], order: &[usize], mut a: BlockId, mut b: BlockId) -> BlockId {
    while a != b {
        while order[a.0 as usize] > order[b.0 as usize] {
            a = idom[a.0 as usize].expect("processed block has idom");
        }
        while order[b.0 as usize] > order[a.0 as usize] {
            b = idom[b.0 as usize].expect("processed block has idom");
        }
    }
    a
}

/// A program point at instruction granularity: instruction `index` within
/// `block` (`index == instrs.len()` addresses the terminator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Point {
    /// The containing block.
    pub block: BlockId,
    /// Instruction index, terminator at `instrs.len()`.
    pub index: usize,
}

impl Point {
    /// Creates a point.
    pub fn new(block: BlockId, index: usize) -> Self {
        Point { block, index }
    }
}

/// Instruction-granularity dominance: `a` dominates `b` when `a`'s block
/// strictly dominates `b`'s, or they share a block and `a` is not after
/// `b`.
pub fn point_dominates(dom: &DomTree, a: Point, b: Point) -> bool {
    if a.block == b.block {
        a.index <= b.index
    } else {
        dom.strictly_dominates(a.block, b.block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocelot_ir::lower::compile;
    use ocelot_ir::Cfg;

    fn trees(src: &str) -> (ocelot_ir::Program, DomTree, DomTree) {
        let p = compile(src).unwrap();
        let f = p.func(p.main);
        let cfg = Cfg::new(f);
        let dom = DomTree::dominators(f, &cfg);
        let pdom = DomTree::post_dominators(f, &cfg);
        (p, dom, pdom)
    }

    #[test]
    fn entry_dominates_everything() {
        let (p, dom, _) = trees(
            "fn main() { let x = 1; if x > 0 { let a = 1; } else { let b = 2; } let c = 3; }",
        );
        let f = p.func(p.main);
        for b in &f.blocks {
            assert!(dom.dominates(f.entry, b.id));
        }
    }

    #[test]
    fn exit_post_dominates_everything() {
        let (p, _, pdom) =
            trees("fn main() { let x = 1; if x > 0 { return 1; } else { return 2; } }");
        let f = p.func(p.main);
        for b in &f.blocks {
            assert!(
                pdom.dominates(f.exit, b.id),
                "exit must post-dominate bb{}",
                b.id.0
            );
        }
    }

    #[test]
    fn branch_arms_do_not_dominate_join() {
        let (p, dom, _) = trees(
            "fn main() { let x = 1; if x > 0 { let a = 1; } else { let b = 2; } let c = 3; }",
        );
        let f = p.func(p.main);
        let entry = f.entry;
        let (then_bb, else_bb) = match &f.block(entry).term {
            ocelot_ir::Terminator::Branch {
                then_bb, else_bb, ..
            } => (*then_bb, *else_bb),
            _ => panic!("expected branch"),
        };
        // The join block is the common successor of both arms.
        let join = f.block(then_bb).term.successors()[0];
        assert!(!dom.dominates(then_bb, join));
        assert!(!dom.dominates(else_bb, join));
        assert!(dom.dominates(entry, join));
        assert_eq!(dom.common(then_bb, else_bb), Some(entry));
    }

    #[test]
    fn common_of_multiple_blocks() {
        let (p, dom, pdom) = trees(
            "fn main() { let x = 1; if x > 0 { let a = 1; } else { let b = 2; } let c = 3; }",
        );
        let f = p.func(p.main);
        let all: Vec<BlockId> = f.blocks.iter().map(|b| b.id).collect();
        assert_eq!(dom.common_of(all.clone()), Some(f.entry));
        assert_eq!(pdom.common_of(all), Some(f.exit));
    }

    #[test]
    fn loop_header_dominates_body() {
        let (p, dom, _) = trees("sensor s; fn main() { repeat 3 { let v = in(s); } }");
        let f = p.func(p.main);
        let cfg = Cfg::new(f);
        let (from, header) = cfg.back_edges()[0];
        assert!(
            dom.dominates(header, from),
            "natural loop: header dominates latch"
        );
    }

    #[test]
    fn point_dominance_within_block_is_index_order() {
        let (_, dom, _) = trees("fn main() { let x = 1; let y = 2; }");
        let b = BlockId(0);
        assert!(point_dominates(&dom, Point::new(b, 0), Point::new(b, 1)));
        assert!(!point_dominates(&dom, Point::new(b, 2), Point::new(b, 1)));
    }

    #[test]
    fn depth_increases_down_the_tree() {
        let (p, dom, _) = trees(
            "fn main() { let x = 1; if x > 0 { if x > 1 { let a = 1; } let b = 2; } let c = 3; }",
        );
        let f = p.func(p.main);
        assert_eq!(dom.depth(f.entry), Some(0));
        // Some block must be at depth >= 2 (nested if).
        assert!(f.blocks.iter().any(|b| dom.depth(b.id).unwrap_or(0) >= 2));
    }

    #[test]
    fn dominance_frontier_of_branch_arms_is_the_join() {
        let p = compile(
            "fn main() { let x = 1; if x > 0 { let a = 1; } else { let b = 2; } let c = 3; }",
        )
        .unwrap();
        let f = p.func(p.main);
        let cfg = Cfg::new(f);
        let dom = DomTree::dominators(f, &cfg);
        let df = dominance_frontier(f, &cfg, &dom);
        let (then_bb, else_bb) = match &f.block(f.entry).term {
            ocelot_ir::Terminator::Branch {
                then_bb, else_bb, ..
            } => (*then_bb, *else_bb),
            _ => panic!("expected branch"),
        };
        let join = f.block(then_bb).term.successors()[0];
        assert_eq!(df[then_bb.0 as usize], vec![join]);
        assert_eq!(df[else_bb.0 as usize], vec![join]);
        // The entry dominates the join, so its frontier excludes it.
        assert!(!df[f.entry.0 as usize].contains(&join));
    }

    #[test]
    fn dominance_frontier_of_loop_latch_contains_header() {
        let p = compile("sensor s; fn main() { repeat 3 { let v = in(s); } }").unwrap();
        let f = p.func(p.main);
        let cfg = Cfg::new(f);
        let dom = DomTree::dominators(f, &cfg);
        let df = dominance_frontier(f, &cfg, &dom);
        let (latch, header) = cfg.back_edges()[0];
        assert!(
            df[latch.0 as usize].contains(&header),
            "the latch's frontier includes the loop header"
        );
    }

    #[test]
    fn idom_of_root_is_none() {
        let (p, dom, pdom) = trees("fn main() { let x = 1; }");
        let f = p.func(p.main);
        assert_eq!(dom.idom(f.entry), None);
        assert_eq!(pdom.idom(f.exit), None);
    }
}
