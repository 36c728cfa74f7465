//! Natural-loop detection.
//!
//! The paper's formal model unrolls bounded loops; the IR keeps them as
//! CFG back edges. Region inference (in `ocelot-core`) widens any policy
//! operation that sits inside a loop to the whole loop, which encloses
//! every unrolled copy — loop membership is computed here.

use crate::dom::DomTree;
use ocelot_ir::cfg::Cfg;
use ocelot_ir::{BlockId, Function};

/// One natural loop.
#[derive(Debug, Clone)]
pub struct NaturalLoop {
    /// The loop header (dominates every block in the loop).
    pub header: BlockId,
    /// Membership of every block of the function, indexed by [`BlockId`].
    body: Vec<bool>,
    /// Blocks in the loop.
    len: usize,
}

impl NaturalLoop {
    /// True when `b` is inside this loop.
    pub fn contains(&self, b: BlockId) -> bool {
        self.body.get(b.0 as usize).copied().unwrap_or(false)
    }

    /// All blocks in the loop, including the header, in ascending order.
    pub fn blocks(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.body
            .iter()
            .enumerate()
            .filter(|(_, &inside)| inside)
            .map(|(i, _)| BlockId(i as u32))
    }

    /// Number of blocks in the loop.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Always false: a loop holds at least its header.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// All natural loops of a function, and each block's loop nest.
#[derive(Debug, Clone)]
pub struct LoopForest {
    loops: Vec<NaturalLoop>,
    /// `nest[nest_at[b]..nest_at[b + 1]]`: indices into `loops` of the
    /// loops containing `b`, outermost (largest body) first, ties in
    /// loop order.
    nest: Vec<usize>,
    nest_at: Vec<usize>,
    /// `headed[b]`: the index of the loop headed by `b`, if any.
    headed: Vec<Option<usize>>,
}

impl LoopForest {
    /// Finds the natural loop of every back edge of `f`. Back edges
    /// sharing a header are merged into one loop.
    pub fn new(f: &Function, cfg: &Cfg, dom: &DomTree) -> Self {
        let n = f.blocks.len();
        let mut loops: Vec<NaturalLoop> = Vec::new();
        let mut headed: Vec<Option<usize>> = vec![None; n];
        let mut stack = Vec::new();
        for (latch, header) in cfg.back_edges() {
            // A true natural loop requires the header to dominate the latch.
            if !dom.dominates(header, latch) {
                continue;
            }
            let li = *headed[header.0 as usize].get_or_insert_with(|| {
                let mut body = vec![false; n];
                body[header.0 as usize] = true;
                loops.push(NaturalLoop {
                    header,
                    body,
                    len: 1,
                });
                loops.len() - 1
            });
            let l = &mut loops[li];
            stack.push(latch);
            while let Some(b) = stack.pop() {
                let inside = &mut l.body[b.0 as usize];
                if !*inside {
                    *inside = true;
                    l.len += 1;
                    stack.extend_from_slice(cfg.preds(b));
                }
            }
        }
        let mut order: Vec<usize> = (0..loops.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(loops[i].len));
        let mut nest_at = vec![0; n + 1];
        for l in &loops {
            for b in l.blocks() {
                nest_at[b.0 as usize + 1] += 1;
            }
        }
        for i in 0..n {
            nest_at[i + 1] += nest_at[i];
        }
        let mut fill = nest_at.clone();
        let mut nest = vec![0; nest_at[n]];
        for i in order {
            for b in loops[i].blocks() {
                nest[fill[b.0 as usize]] = i;
                fill[b.0 as usize] += 1;
            }
        }
        LoopForest {
            loops,
            nest,
            nest_at,
            headed,
        }
    }

    /// All loops.
    pub fn loops(&self) -> &[NaturalLoop] {
        &self.loops
    }

    /// Indices into [`Self::loops`] of the loops containing block `b`,
    /// outermost first.
    pub fn nest(&self, b: BlockId) -> &[usize] {
        let b = b.0 as usize;
        &self.nest[self.nest_at[b]..self.nest_at[b + 1]]
    }

    /// The index into [`Self::loops`] of the loop headed by `b`, if any.
    pub fn headed_by(&self, b: BlockId) -> Option<usize> {
        self.headed[b.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocelot_ir::lower::compile;

    fn forest(src: &str) -> (ocelot_ir::Program, LoopForest) {
        let p = compile(src).unwrap();
        let f = p.func(p.main);
        let cfg = Cfg::new(f);
        let dom = DomTree::dominators(f, &cfg);
        let lf = LoopForest::new(f, &cfg, &dom);
        (p, lf)
    }

    #[test]
    fn straight_line_has_no_loops() {
        let (_, lf) = forest("fn main() { let x = 1; }");
        assert!(lf.loops().is_empty());
    }

    #[test]
    fn repeat_yields_one_loop() {
        let (p, lf) = forest("sensor s; fn main() { repeat 3 { let v = in(s); } }");
        assert_eq!(lf.loops().len(), 1);
        let l = &lf.loops()[0];
        // Header + body + latch structure: at least 2 blocks.
        assert!(l.len() >= 2);
        let f = p.func(p.main);
        assert!(!l.contains(f.entry), "entry precedes the loop");
        assert!(!l.contains(f.exit), "exit follows the loop");
    }

    #[test]
    fn nested_repeats_yield_nested_loops() {
        let (p, lf) = forest("sensor s; fn main() { repeat 2 { repeat 3 { let v = in(s); } } }");
        assert_eq!(lf.loops().len(), 2);
        let sizes: Vec<usize> = {
            let mut v: Vec<usize> = lf.loops().iter().map(NaturalLoop::len).collect();
            v.sort_unstable();
            v
        };
        assert!(sizes[0] < sizes[1], "inner loop strictly smaller");
        // Inner loop body is inside the outer loop.
        let inner = lf.loops().iter().min_by_key(|l| l.len()).unwrap();
        let outer = lf.loops().iter().max_by_key(|l| l.len()).unwrap();
        assert!(inner.blocks().all(|b| outer.contains(b)));
        // An inner block's nest lists the big loop, then the small one.
        let some_inner_block = inner.blocks().next().unwrap();
        let nest: Vec<usize> = lf
            .nest(some_inner_block)
            .iter()
            .map(|&i| lf.loops()[i].len())
            .collect();
        assert_eq!(nest, [outer.len(), inner.len()]);
        assert_eq!(
            lf.headed_by(outer.header).map(|i| lf.loops()[i].len()),
            Some(outer.len())
        );
        // A block outside every loop has an empty nest.
        assert!(lf.nest(p.func(p.main).entry).is_empty());
    }

    #[test]
    fn if_inside_loop_is_in_loop_body() {
        let (_, lf) =
            forest("sensor s; fn main() { repeat 3 { let v = in(s); if v > 0 { out(log, v); } } }");
        assert_eq!(lf.loops().len(), 1);
        // All non-entry/exit blocks of this program are inside the loop:
        // header, branch blocks, join, latch.
        assert!(lf.loops()[0].len() >= 4);
    }
}
