//! Control-flow-graph queries over a lowered [`Function`].

use crate::ir::{BlockId, Function, Terminator};
use std::collections::HashMap;

/// Predecessor/successor tables and traversal orders for one function.
///
/// Build once per function; all queries are O(1) or O(edges).
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Successor lists, concatenated in block order.
    succ: Vec<BlockId>,
    /// `succ[succ_at[b]..succ_at[b + 1]]` = successor blocks of `b`.
    succ_at: Vec<usize>,
    /// Predecessor lists, concatenated in block order.
    pred: Vec<BlockId>,
    /// `pred[pred_at[b]..pred_at[b + 1]]` = predecessor blocks of `b`,
    /// in ascending order of the predecessor's block.
    pred_at: Vec<usize>,
    /// Blocks in reverse post-order from the entry.
    rpo: Vec<BlockId>,
    /// `rpo_index[b]` = position of `b` in `rpo` (usize::MAX if unreachable).
    rpo_index: Vec<usize>,
    entry: BlockId,
    exit: BlockId,
}

impl Cfg {
    /// Builds the CFG tables for `f`.
    pub fn new(f: &Function) -> Self {
        let n = f.blocks.len();
        let mut succ = Vec::with_capacity(2 * n);
        let mut succ_at = Vec::with_capacity(n + 1);
        succ_at.push(0);
        for b in &f.blocks {
            match &b.term {
                Terminator::Jump(t) => succ.push(*t),
                Terminator::Branch {
                    then_bb, else_bb, ..
                } => succ.extend([*then_bb, *else_bb]),
                Terminator::Ret(_) => {}
            }
            succ_at.push(succ.len());
        }
        // Counting sort of the edges by target, sources ascending.
        let mut pred_at = vec![0; n + 1];
        for s in &succ {
            pred_at[s.0 as usize + 1] += 1;
        }
        for i in 0..n {
            pred_at[i + 1] += pred_at[i];
        }
        let mut fill = pred_at.clone();
        let mut pred = vec![BlockId(0); succ.len()];
        for b in 0..n {
            for s in &succ[succ_at[b]..succ_at[b + 1]] {
                pred[fill[s.0 as usize]] = BlockId(b as u32);
                fill[s.0 as usize] += 1;
            }
        }
        let rpo = reverse_post_order(f.entry, n, |b| &succ[succ_at[b]..succ_at[b + 1]]);
        let mut rpo_index = vec![usize::MAX; n];
        for (i, b) in rpo.iter().enumerate() {
            rpo_index[b.0 as usize] = i;
        }
        Cfg {
            succ,
            succ_at,
            pred,
            pred_at,
            rpo,
            rpo_index,
            entry: f.entry,
            exit: f.exit,
        }
    }

    /// Successor blocks of `b`.
    pub fn succs(&self, b: BlockId) -> &[BlockId] {
        let b = b.0 as usize;
        &self.succ[self.succ_at[b]..self.succ_at[b + 1]]
    }

    /// Predecessor blocks of `b`.
    pub fn preds(&self, b: BlockId) -> &[BlockId] {
        let b = b.0 as usize;
        &self.pred[self.pred_at[b]..self.pred_at[b + 1]]
    }

    /// Blocks in reverse post-order from the entry.
    pub fn rpo(&self) -> &[BlockId] {
        &self.rpo
    }

    /// Position of `b` in reverse post-order, or `None` if unreachable.
    pub fn rpo_index(&self, b: BlockId) -> Option<usize> {
        let i = self.rpo_index[b.0 as usize];
        (i != usize::MAX).then_some(i)
    }

    /// The function's entry block.
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    /// The function's exit (landing-pad) block.
    pub fn exit(&self) -> BlockId {
        self.exit
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.rpo_index.len()
    }

    /// True when the function has no blocks (never the case for lowered
    /// functions, which always have at least entry and exit).
    pub fn is_empty(&self) -> bool {
        self.rpo_index.is_empty()
    }

    /// Back edges `(from, to)` where `to` appears no later than `from` in
    /// reverse post-order — i.e. loop edges.
    pub fn back_edges(&self) -> Vec<(BlockId, BlockId)> {
        let mut out = Vec::new();
        for bi in 0..self.len() {
            let b = BlockId(bi as u32);
            let Some(bidx) = self.rpo_index(b) else {
                continue;
            };
            for &s in self.succs(b) {
                if let Some(sidx) = self.rpo_index(s) {
                    if sidx <= bidx {
                        out.push((b, s));
                    }
                }
            }
        }
        out
    }
}

/// Computes reverse post-order from `entry` over `n` blocks given each
/// block's successors.
fn reverse_post_order<'a>(
    entry: BlockId,
    n: usize,
    succs: impl Fn(usize) -> &'a [BlockId],
) -> Vec<BlockId> {
    let mut visited = vec![false; n];
    let mut post = Vec::with_capacity(n);
    // Iterative DFS with an explicit stack of (block, next-successor-index).
    let mut stack: Vec<(BlockId, usize)> = vec![(entry, 0)];
    visited[entry.0 as usize] = true;
    while let Some(&mut (b, ref mut i)) = stack.last_mut() {
        let ss = succs(b.0 as usize);
        if *i < ss.len() {
            let s = ss[*i];
            *i += 1;
            if !visited[s.0 as usize] {
                visited[s.0 as usize] = true;
                stack.push((s, 0));
            }
        } else {
            post.push(b);
            stack.pop();
        }
    }
    post.reverse();
    post
}

/// A reverse view of the CFG (edges flipped, exit as entry), used by
/// post-dominator construction.
#[derive(Debug, Clone)]
pub struct ReverseCfg {
    /// Successors in the reversed graph (= predecessors in the original).
    pub succs: Vec<Vec<BlockId>>,
    /// Predecessors in the reversed graph (= successors in the original).
    pub preds: Vec<Vec<BlockId>>,
    /// RPO of the reversed graph starting from the original exit.
    pub rpo: Vec<BlockId>,
    /// Entry of the reversed graph (= original exit).
    pub entry: BlockId,
}

impl ReverseCfg {
    /// Builds the reversed CFG for `f`.
    ///
    /// Lowered functions always funnel returns through the landing pad, so
    /// the reversed graph has a single entry (the original exit).
    pub fn new(f: &Function, cfg: &Cfg) -> Self {
        let n = f.blocks.len();
        let mut succs = vec![Vec::new(); n];
        let mut preds = vec![Vec::new(); n];
        for b in 0..n {
            let id = BlockId(b as u32);
            succs[b] = cfg.preds(id).to_vec();
            preds[b] = cfg.succs(id).to_vec();
        }
        let rpo = reverse_post_order(f.exit, n, |b| &succs[b]);
        ReverseCfg {
            succs,
            preds,
            rpo,
            entry: f.exit,
        }
    }
}

/// Maps every `(block, terminator-kind)` pair for quick structural tests.
pub fn terminator_kinds(f: &Function) -> HashMap<BlockId, &'static str> {
    f.blocks
        .iter()
        .map(|b| {
            let k = match b.term {
                Terminator::Jump(_) => "jump",
                Terminator::Branch { .. } => "branch",
                Terminator::Ret(_) => "ret",
            };
            (b.id, k)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::compile;

    #[test]
    fn diamond_has_expected_edges() {
        let p = compile(
            "fn main() { let x = 1; if x > 0 { let a = 1; } else { let b = 2; } let c = 3; }",
        )
        .unwrap();
        let f = p.func(p.main);
        let cfg = Cfg::new(f);
        let entry = f.entry;
        assert_eq!(cfg.succs(entry).len(), 2);
        let join_preds: Vec<_> = (0..cfg.len())
            .map(|i| BlockId(i as u32))
            .filter(|b| cfg.preds(*b).len() == 2)
            .collect();
        assert_eq!(join_preds.len(), 1, "exactly one join block");
    }

    #[test]
    fn rpo_starts_at_entry_and_respects_order() {
        let p = compile("fn main() { let x = 1; if x > 0 { let a = 1; } let c = 3; }").unwrap();
        let f = p.func(p.main);
        let cfg = Cfg::new(f);
        assert_eq!(cfg.rpo()[0], f.entry);
        // Every non-back edge goes forward in RPO.
        for b in cfg.rpo() {
            for s in cfg.succs(*b) {
                let bi = cfg.rpo_index(*b).unwrap();
                let si = cfg.rpo_index(*s).unwrap();
                assert!(si > bi || cfg.back_edges().contains(&(*b, *s)));
            }
        }
    }

    #[test]
    fn loop_produces_back_edge() {
        let p = compile("sensor s; fn main() { repeat 4 { let v = in(s); } }").unwrap();
        let f = p.func(p.main);
        let cfg = Cfg::new(f);
        assert_eq!(cfg.back_edges().len(), 1);
    }

    #[test]
    fn straight_line_has_no_back_edges() {
        let p = compile("fn main() { let x = 1; let y = 2; }").unwrap();
        let f = p.func(p.main);
        let cfg = Cfg::new(f);
        assert!(cfg.back_edges().is_empty());
    }

    #[test]
    fn reverse_cfg_entry_is_exit() {
        let p = compile("fn main() { let x = 1; if x > 0 { return 1; } let y = 2; }").unwrap();
        let f = p.func(p.main);
        let cfg = Cfg::new(f);
        let rcfg = ReverseCfg::new(f, &cfg);
        assert_eq!(rcfg.entry, f.exit);
        assert_eq!(rcfg.rpo[0], f.exit);
        // Reversed graph reaches every block (single landing pad).
        assert_eq!(rcfg.rpo.len(), f.blocks.len());
    }

    #[test]
    fn exit_has_no_successors() {
        let p = compile("fn main() { let x = 1; }").unwrap();
        let f = p.func(p.main);
        let cfg = Cfg::new(f);
        assert!(cfg.succs(f.exit).is_empty());
    }
}
