//! Worst-case active-cycle analysis.
//!
//! Computes a static upper bound on the cycles any single execution
//! attempt can spend between two program points. Every instruction is
//! priced by [`CostModel::price`], the function the runtime charges
//! through, with the most expensive facts the site admits. Branches take
//! the more expensive arm, bounded loops multiply their worst iteration
//! by the recovered trip count, and calls add the callee's whole-body
//! bound; the fold runs over the block graph it shares with the
//! minimum-cost analysis.
//!
//! The bound is *sound with respect to the runtime*: for every
//! continuous-power execution, the cycles the `ocelot-runtime` machine
//! charges along the analyzed path are at most the value computed here
//! (an integration property test checks exactly this). Conservatism
//! comes from four places: both branch arms are maximized, a store
//! that may find its local unbound ([`StoreClass::MaybeNv`]) is priced
//! as the non-volatile write it may become, every non-volatile write
//! inside an atomic region is priced with an undo-log word (the runtime
//! logs each location once), and region entries are priced as outer
//! entries that checkpoint the worst-case stack of [`crate::stack`].

use crate::bounds::LoopBound;
use crate::error::ProgressError;
use crate::graph::{chain_to_use, points, BlockGraph, BlockGraphs, Run};
use crate::stack::StackModel;
use ocelot_analysis::dom::Point;
use ocelot_analysis::{StoreClass, StoreClasses};
use ocelot_core::{visit_covered, RegionInfo};
use ocelot_hw::energy::{CostModel, Entry, Facts, Priced};
use ocelot_ir::callgraph::CallGraph;
use ocelot_ir::{BlockId, FuncId, Function, InstrRef, Label, Op, Program, RegionId};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Worst-case cycle analysis over one program.
pub struct WcetAnalysis<'p> {
    p: &'p Program,
    costs: CostModel,
    stack: StackModel,
    graphs: Cow<'p, BlockGraphs>,
    /// `covered[func][label]`: the instruction executes inside some
    /// atomic region (including transitively-called function bodies),
    /// so an NV write there pays an undo-log entry.
    covered: Vec<Vec<bool>>,
    /// The storage class of every store to a declared local.
    stores: StoreClasses,
    /// Eager undo-log size per region.
    omega: BTreeMap<RegionId, usize>,
    /// Worst-case complete execution of each function, entry through
    /// the returning terminator, indexed by `FuncId`.
    func_wcet: Vec<Result<u64, ProgressError>>,
    /// Worst-case full cost of each block, indexed `[func][block]`;
    /// filled callees first, so calls price finished bounds.
    block_wcet: Vec<Vec<Result<u64, ProgressError>>>,
    /// Each bounded loop's total, indexed `[func][loop]`: it does not
    /// depend on the context the loop is condensed in.
    loop_wcet: Vec<Vec<OnceLock<Result<u64, ProgressError>>>>,
}

impl<'p> WcetAnalysis<'p> {
    /// Builds the analysis for `p` with its atomic regions.
    ///
    /// # Panics
    ///
    /// Panics if `p` has recursive calls (rejected by validation before
    /// any analysis runs; see [`StackModel::new`]).
    pub fn new(p: &'p Program, costs: &CostModel, regions: &[RegionInfo]) -> Self {
        Self::build(p, costs, regions, Cow::Owned(BlockGraphs::new(p)))
    }

    /// [`Self::new`] over block graphs the caller built for `p` and
    /// shares with a [`FeasAnalysis`](crate::FeasAnalysis).
    ///
    /// # Panics
    ///
    /// As [`Self::new`].
    pub fn with_graphs(
        p: &'p Program,
        costs: &CostModel,
        regions: &[RegionInfo],
        graphs: &'p BlockGraphs,
    ) -> Self {
        Self::build(p, costs, regions, Cow::Borrowed(graphs))
    }

    fn build(
        p: &'p Program,
        costs: &CostModel,
        regions: &[RegionInfo],
        graphs: Cow<'p, BlockGraphs>,
    ) -> Self {
        let cg = CallGraph::new(p);
        let mut covered: Vec<Vec<bool>> = p
            .funcs
            .iter()
            .map(|f| {
                let top = f
                    .blocks
                    .iter()
                    .flat_map(|b| b.instrs.iter().map(|i| i.label).chain([b.term_label]))
                    .map(|l| l.0 as usize + 1)
                    .max();
                vec![false; top.unwrap_or(0)]
            })
            .collect();
        let mut omega = BTreeMap::new();
        for r in regions {
            let cfg = &graphs.get(r.func).cfg;
            visit_covered(p, cfg, &cg, r, |at| {
                covered[at.func.0 as usize][at.label.0 as usize] = true;
            });
            omega.insert(r.id, r.omega_words);
        }
        let mut this = WcetAnalysis {
            p,
            costs: costs.clone(),
            stack: StackModel::new(p),
            covered,
            stores: StoreClasses::analyze(p),
            omega,
            func_wcet: vec![Ok(0); p.funcs.len()],
            block_wcet: vec![Vec::new(); p.funcs.len()],
            loop_wcet: p
                .funcs
                .iter()
                .map(|f| {
                    let loops = graphs.get(f.id).loops.loops().len();
                    (0..loops).map(|_| OnceLock::new()).collect()
                })
                .collect(),
            graphs,
        };
        // Callees before callers, so every call looks up a finished
        // bound, never a placeholder.
        let order = cg
            .topo_callees_first(p)
            .expect("validated programs are non-recursive");
        for func in order {
            let f = p.func(func);
            this.block_wcet[func.0 as usize] = f
                .blocks
                .iter()
                .map(|b| this.range_cost(f, b.id, 0, usize::MAX))
                .collect();
            let bound = this.between(func, Point::new(f.entry, 0), this.exit_point(func));
            this.func_wcet[func.0 as usize] = bound;
        }
        this
    }

    /// The stack model used for checkpoint sizing.
    pub fn stack(&self) -> &StackModel {
        &self.stack
    }

    /// Worst-case cycles for one complete execution of `func` (entry
    /// through the returning terminator), including all callees.
    ///
    /// # Errors
    ///
    /// Fails on unbounded loops or irreducible flow in `func` or any
    /// function it calls.
    pub fn func_wcet(&self, func: FuncId) -> Result<u64, ProgressError> {
        self.func_wcet[func.0 as usize].clone()
    }

    /// Worst-case cycles of one attempt of a region's *body*: from just
    /// after the `startatom` marker through the `endatom` commit.
    ///
    /// # Errors
    ///
    /// Fails on unbounded loops, irreducible flow, or a region whose
    /// start and end lie in different loop nests.
    pub fn region_body_wcet(&self, info: &RegionInfo) -> Result<u64, ProgressError> {
        let f = self.p.func(info.func);
        let (sb, si) = f
            .find_label(info.start.label)
            .ok_or_else(|| ProgressError::unsupported("region start label not found"))?;
        let (eb, ei) = f
            .find_label(info.end.label)
            .ok_or_else(|| ProgressError::unsupported("region end label not found"))?;
        // From after the start marker, through the end marker inclusive
        // (the commit itself costs one ALU op).
        self.between(info.func, Point::new(sb, si + 1), Point::new(eb, ei + 1))
    }

    /// Worst-case cycles along any single-attempt path from `from`
    /// (inclusive) to `to` (exclusive) within `func`; `to.index` may be
    /// `instrs.len() + 1` to include the terminator of `to.block`.
    ///
    /// # Errors
    ///
    /// Fails on unbounded loops, irreducible flow, or endpoints in
    /// different loop nests (no single-attempt forward path).
    pub fn between(&self, func: FuncId, from: Point, to: Point) -> Result<u64, ProgressError> {
        let f = self.p.func(func);
        let g = self.graphs.get(func);
        if from.block == to.block {
            if from.index > to.index {
                return Err(ProgressError::unsupported(
                    "path end precedes its start within one block",
                ));
            }
            return self.range_cost(f, from.block, from.index, to.index);
        }
        if g.loops.nest(from.block) != g.loops.nest(to.block) {
            return Err(ProgressError::unsupported(format!(
                "path endpoints lie in different loop nests in `{}` \
                 (a region must not straddle a loop boundary)",
                f.name
            )));
        }

        let suffix = self.range_cost(f, from.block, from.index, usize::MAX)?;
        let prefix = self.range_cost(f, to.block, 0, to.index)?;
        let middle = self.dag_longest_path(f, g, from.block, to.block)?;
        Ok(suffix.saturating_add(middle).saturating_add(prefix))
    }

    /// The exit point of `func`: past the terminator of its landing-pad
    /// block, suitable as the `to` of [`Self::between`].
    fn exit_point(&self, func: FuncId) -> Point {
        let f = self.p.func(func);
        Point::new(f.exit, f.block(f.exit).instrs.len() + 1)
    }

    /// Worst-case same-run cycles between the input ending `chain` and
    /// reaching `use_at` under calling context `use_ctx`, composed by the
    /// same walk as [`FeasAnalysis::min_chain_to_use`](crate::FeasAnalysis::min_chain_to_use).
    /// `None` when any segment has no single-attempt bound (unbounded
    /// loop, endpoints straddling a loop nest).
    pub fn worst_chain_to_use(
        &self,
        chain: &[InstrRef],
        use_ctx: &[InstrRef],
        use_at: InstrRef,
    ) -> Option<u64> {
        chain_to_use(
            self.p,
            &self.costs,
            chain,
            use_ctx,
            use_at,
            Run::Same,
            |func, from, to| {
                let to = to.unwrap_or_else(|| self.exit_point(func));
                self.between(func, from, to).ok()
            },
        )
    }

    /// Cycles to enter a region: the price of an outer entry that
    /// checkpoints the worst-case volatile state of the host function
    /// and eagerly undo-logs `ω`.
    pub fn region_entry_cycles(&self, info: &RegionInfo) -> u64 {
        let entry = Entry::Outer {
            volatile_words: self.stack.entry_words(info.func),
            omega_words: info.omega_words,
        };
        let start = Op::AtomStart { region: info.id };
        self.costs.price(Priced::Op(&start), Facts::entry(entry))
    }

    /// Cycles of the worst-case JIT checkpoint anywhere in the program —
    /// what the comparator trigger reserve must cover (§6.3's standing
    /// assumption, made checkable).
    pub fn worst_jit_checkpoint_cycles(&self) -> u64 {
        self.costs
            .checkpoint_cycles(self.stack.program_peak_words(self.p))
    }

    // ------------------------------------------------------------------
    // Path cost
    // ------------------------------------------------------------------

    /// Longest path through the loop-condensed DAG from `from` to `to`,
    /// summing the full cost of every *intermediate* node. Nodes are
    /// blocks: each block outside the context loops (those containing
    /// `from`, and `to`) stands for the header of its outermost
    /// condensed loop. Edges inside one node and back edges into
    /// context loops (a path between two points of the same iteration
    /// never takes them) are dropped. Every node reachable from `from`
    /// is priced, in Kahn order with successors ascending, and the first
    /// error fails the query.
    fn dag_longest_path(
        &self,
        f: &Function,
        g: &BlockGraph,
        from: BlockId,
        to: BlockId,
    ) -> Result<u64, ProgressError> {
        let forest = &g.loops;
        let ctx = forest.nest(from);
        let n = f.blocks.len();
        let node: Vec<u32> = (0..n as u32)
            .map(|b| match condensed(g, ctx, BlockId(b)) {
                Some(l) => forest.loops()[l].header.0,
                None => b,
            })
            .collect();
        debug_assert_eq!(
            node[from.0 as usize], from.0,
            "path start cannot sit inside a condensed loop"
        );
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for b in 0..n {
            let u = node[b];
            for &s in g.cfg.succs(BlockId(b as u32)) {
                let v = node[s.0 as usize];
                let context_back_edge = forest.headed_by(s).is_some_and(|l| {
                    ctx.contains(&l) && forest.loops()[l].contains(BlockId(b as u32))
                });
                if u != v && !context_back_edge {
                    edges.push((u, v));
                }
            }
        }
        edges.sort_unstable();
        edges.dedup();
        // `edges[first[u]..first[u + 1]]` are the edges out of `u`.
        let mut first = vec![0usize; n + 1];
        for &(u, _) in &edges {
            first[u as usize + 1] += 1;
        }
        for i in 0..n {
            first[i + 1] += first[i];
        }
        let succs = |u: u32| {
            edges[first[u as usize]..first[u as usize + 1]]
                .iter()
                .map(|e| e.1)
        };

        // Restrict to nodes reachable from the start.
        let mut reach = vec![false; n];
        let mut stack = vec![from.0];
        reach[from.0 as usize] = true;
        let mut reached = 1;
        while let Some(u) = stack.pop() {
            for v in succs(u) {
                if !reach[v as usize] {
                    reach[v as usize] = true;
                    reached += 1;
                    stack.push(v);
                }
            }
        }
        let no_path = || {
            ProgressError::unsupported(format!(
                "no forward path between the analyzed points in `{}`",
                f.name
            ))
        };
        if !reach[to.0 as usize] {
            return Err(no_path());
        }

        // Kahn topological order over the reachable subgraph.
        let mut indeg = vec![0usize; n];
        for u in (0..n as u32).filter(|&u| reach[u as usize]) {
            for v in succs(u) {
                indeg[v as usize] += 1;
            }
        }
        let mut topo: Vec<u32> = (0..n as u32)
            .filter(|&u| reach[u as usize] && indeg[u as usize] == 0)
            .collect();
        let mut next = 0;
        while let Some(&u) = topo.get(next) {
            next += 1;
            for v in succs(u) {
                indeg[v as usize] -= 1;
                if indeg[v as usize] == 0 {
                    topo.push(v);
                }
            }
        }
        if topo.len() != reached {
            return Err(ProgressError::Irreducible {
                func: f.name.clone(),
            });
        }

        // Longest-path DP accumulating intermediate-node costs.
        let mut dist: Vec<Option<u64>> = vec![None; n];
        dist[from.0 as usize] = Some(0);
        for &u in &topo {
            let Some(du) = dist[u as usize] else { continue };
            let u_cost = if u == from.0 {
                0
            } else {
                self.node_cost(f, g, ctx, BlockId(u))?
            };
            let cand = du.saturating_add(u_cost);
            for v in succs(u) {
                let e = dist[v as usize].get_or_insert(0);
                *e = (*e).max(cand);
            }
        }
        dist[to.0 as usize].ok_or_else(no_path)
    }

    /// Cost of one condensed node: a condensed loop's bounded total
    /// when `node` heads one, else the block's full cost.
    fn node_cost(
        &self,
        f: &Function,
        g: &BlockGraph,
        ctx: &[usize],
        node: BlockId,
    ) -> Result<u64, ProgressError> {
        match condensed(g, ctx, node) {
            Some(l) if g.loops.loops()[l].header == node => self.loop_wcet[f.id.0 as usize][l]
                .get_or_init(|| self.loop_cost(f, g, l))
                .clone(),
            // A non-header block inside a condensed loop never becomes a
            // node, so `node` is plain.
            _ => self.block_wcet[f.id.0 as usize][node.0 as usize].clone(),
        }
    }

    /// Total worst-case cost of bounded loop `li`: `k + 1` header
    /// checks plus `k` worst iterations (body through latch).
    fn loop_cost(&self, f: &Function, g: &BlockGraph, li: usize) -> Result<u64, ProgressError> {
        let l = &g.loops.loops()[li];
        let k = match g.bound(li) {
            LoopBound::Exact(k) => *k,
            LoopBound::Unknown(detail) => {
                return Err(ProgressError::UnboundedLoop {
                    func: f.name.clone(),
                    detail: detail.clone(),
                })
            }
        };
        let header_cost = self.block_wcet[f.id.0 as usize][l.header.0 as usize].clone()?;
        if k == 0 {
            return Ok(header_cost);
        }
        let body_entries: Vec<BlockId> = g
            .cfg
            .succs(l.header)
            .iter()
            .copied()
            .filter(|s| l.contains(*s))
            .collect();
        let latches: Vec<BlockId> = g
            .cfg
            .preds(l.header)
            .iter()
            .copied()
            .filter(|p| l.contains(*p))
            .collect();
        let (&[body_entry], &[latch]) = (body_entries.as_slice(), latches.as_slice()) else {
            return Err(ProgressError::unsupported(format!(
                "loop at block {} of `{}` has {} entries and {} latches \
                 (expected exactly one of each)",
                l.header.0,
                f.name,
                body_entries.len(),
                latches.len()
            )));
        };
        let latch_len = f.block(latch).instrs.len();
        let iter = self.between(
            f.id,
            Point::new(body_entry, 0),
            Point::new(latch, latch_len + 1),
        )?;
        Ok(header_cost
            .saturating_mul(k + 1)
            .saturating_add(iter.saturating_mul(k)))
    }

    /// Worst-case cost of points `[lo, hi)` of one block.
    fn range_cost(
        &self,
        f: &Function,
        b: BlockId,
        lo: usize,
        hi: usize,
    ) -> Result<u64, ProgressError> {
        points(f, b, lo, hi).try_fold(0u64, |total, (label, at)| {
            Ok(total.saturating_add(self.worst_price(f, label, at)?))
        })
    }

    /// The most the runtime can charge at one site: [`CostModel::price`]
    /// under the worst-case facts. Only a [`StoreClass::Volatile`] store
    /// is priced as a volatile write; every other store may be an NV
    /// write, which inside a region pays an undo-log word. A region
    /// entry is priced as an outer entry even when nested (the runtime
    /// charges only an ALU bump when already atomic), which is sound
    /// for functions reached both inside and outside regions. A call
    /// adds the callee's whole-body bound.
    fn worst_price(
        &self,
        f: &Function,
        label: Label,
        at: Priced<'_>,
    ) -> Result<u64, ProgressError> {
        let facts = match at {
            Priced::Op(Op::Assign { .. }) => {
                let logged = self.covered[f.id.0 as usize]
                    .get(label.0 as usize)
                    .copied()
                    .unwrap_or(false);
                let site = InstrRef { func: f.id, label };
                match self.stores.class(site) {
                    Some(StoreClass::Volatile) => Facts::store(false, false),
                    Some(StoreClass::MaybeNv) | None => Facts::store(true, logged),
                }
            }
            Priced::Op(Op::Call { callee, .. }) => Facts::callee(self.func_wcet(*callee)?),
            Priced::Op(Op::AtomStart { region }) => Facts::entry(Entry::Outer {
                volatile_words: self.stack.entry_words(f.id),
                omega_words: self.omega.get(region).copied().unwrap_or(0),
            }),
            _ => Facts::default(),
        };
        Ok(self.costs.price(at, facts))
    }
}

/// The outermost loop containing `b` outside the context loops `ctx`,
/// by index: the loop `b` is condensed into.
fn condensed(g: &BlockGraph, ctx: &[usize], b: BlockId) -> Option<usize> {
    g.loops.nest(b).iter().copied().find(|l| !ctx.contains(l))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocelot_ir::{compile, Terminator};

    fn wcet_main(src: &str) -> u64 {
        let p = compile(src).unwrap();
        let regions = ocelot_core::collect_regions(&p).unwrap();
        let w = WcetAnalysis::new(&p, &CostModel::default(), &regions);
        w.func_wcet(p.main).unwrap()
    }

    #[test]
    fn straight_line_sums_costs() {
        let costs = CostModel::default();
        // bind + bind + output(1 arg) + exit-jump/ret structure.
        let c = wcet_main("fn main() { let a = 1; let b = a + 2; out(log, b); }");
        assert!(c >= 2 * costs.alu + 2 * costs.output_word);
        assert!(c < 10 * costs.output_word, "no wild overcount");
    }

    #[test]
    fn branch_takes_more_expensive_arm() {
        let cheap_then = wcet_main(
            "sensor s; fn main() { let v = in(s); if v > 0 { skip; } else { out(log, v); out(log, v); } }",
        );
        let cheap_else = wcet_main(
            "sensor s; fn main() { let v = in(s); if v > 0 { out(log, v); out(log, v); } else { skip; } }",
        );
        assert_eq!(
            cheap_then, cheap_else,
            "worst arm dominates regardless of orientation"
        );
    }

    #[test]
    fn loop_multiplies_iteration_cost() {
        let once = wcet_main("sensor s; fn main() { repeat 1 { let v = in(s); } }");
        let ten = wcet_main("sensor s; fn main() { repeat 10 { let v = in(s); } }");
        let costs = CostModel::default();
        let delta = ten - once;
        assert!(
            delta >= 9 * costs.input,
            "nine extra inputs: {delta} >= {}",
            9 * costs.input
        );
    }

    #[test]
    fn nested_loops_multiply() {
        let c = wcet_main("sensor s; fn main() { repeat 3 { repeat 4 { let v = in(s); } } }");
        let costs = CostModel::default();
        assert!(c >= 12 * costs.input, "3*4 inputs in the bound");
    }

    #[test]
    fn calls_add_callee_body() {
        let inline = wcet_main("sensor s; fn main() { let v = in(s); }");
        let called = wcet_main(
            "sensor s; fn grab() { let v = in(s); return v; } fn main() { let x = grab(); }",
        );
        assert!(called > inline, "call overhead and return path add cost");
        let costs = CostModel::default();
        assert!(called - inline >= costs.call / 2, "at least the ret cost");
    }

    #[test]
    fn region_body_wcet_covers_the_span() {
        let p = compile(
            r#"
            sensor s;
            nv g = 0;
            fn main() {
                atomic {
                    let v = in(s);
                    g = g + v;
                }
            }
            "#,
        )
        .unwrap();
        let regions = ocelot_core::collect_regions(&p).unwrap();
        let costs = CostModel::default();
        let w = WcetAnalysis::new(&p, &costs, &regions);
        let body = w.region_body_wcet(&regions[0]).unwrap();
        // input + nv write + dynamic log + commit, at least.
        assert!(body >= costs.input + costs.nv_write + costs.log_word + costs.alu);
        let entry = w.region_entry_cycles(&regions[0]);
        assert!(entry >= costs.ckpt_base, "entry includes a checkpoint");
    }

    #[test]
    fn region_inside_loop_costs_one_iteration() {
        let p = compile(
            r#"
            sensor s;
            fn main() {
                repeat 50 {
                    atomic { let v = in(s); out(log, v); }
                }
            }
            "#,
        )
        .unwrap();
        let regions = ocelot_core::collect_regions(&p).unwrap();
        let costs = CostModel::default();
        let w = WcetAnalysis::new(&p, &costs, &regions);
        let body = w.region_body_wcet(&regions[0]).unwrap();
        // One attempt is one iteration's worth, not 50.
        assert!(body < 2 * (costs.input + 2 * costs.output_word) + 100);
        // But the whole main pays for all 50.
        let total = w.func_wcet(p.main).unwrap();
        assert!(total > 50 * costs.input);
    }

    #[test]
    fn unbounded_hand_built_loop_is_rejected() {
        use ocelot_ir::ast::{BinOp, Expr};
        // Rewrite a lowered repeat's header to branch on a *global*,
        // which the bound matcher must refuse (not a `$rep` counter).
        let mut p = compile("nv g = 0; fn main() { repeat 2 { g = g + 1; } }").unwrap();
        let main = p.main;
        let f = p.func_mut(main);
        for b in &mut f.blocks {
            if let Terminator::Branch { cond, .. } = &mut b.term {
                *cond = Expr::Binary(
                    BinOp::Lt,
                    Box::new(Expr::Var("g".into())),
                    Box::new(Expr::Int(10)),
                );
            }
        }
        let w = WcetAnalysis::new(&p, &CostModel::default(), &[]);
        let err = w.func_wcet(p.main).unwrap_err();
        assert!(matches!(err, ProgressError::UnboundedLoop { .. }), "{err}");
    }

    #[test]
    fn le_counter_header_is_bounded_in_wcet() {
        use ocelot_ir::ast::BinOp;
        // Rewrite the lowered repeat's `$rep < 2` header to `$rep <= 2`:
        // the analysis rewrites it internally to `< 3` and the whole
        // WCET query succeeds (it used to bounce the loop back with a
        // rewrite suggestion).
        let mut p = compile("fn main() { repeat 2 { skip; } }").unwrap();
        let main = p.main;
        let f = p.func_mut(main);
        for b in &mut f.blocks {
            if let Terminator::Branch {
                cond: ocelot_ir::ast::Expr::Binary(op, _, _),
                ..
            } = &mut b.term
            {
                *op = BinOp::Le;
            }
        }
        let w = WcetAnalysis::new(&p, &CostModel::default(), &[]);
        w.func_wcet(p.main)
            .expect("`$rep <= 2` is a bounded counter loop");
    }

    /// Rewrites `main`'s lone loop header to use `op` (with `delta`
    /// added to the constant bound).
    fn rewrite_header(p: &mut Program, op: ocelot_ir::ast::BinOp, delta: i64) {
        use ocelot_ir::ast::Expr;
        let main = p.main;
        let f = p.func_mut(main);
        for b in &mut f.blocks {
            if let Terminator::Branch {
                cond: Expr::Binary(o, _, rhs),
                ..
            } = &mut b.term
            {
                *o = op;
                let Expr::Int(k) = rhs.as_mut() else {
                    panic!("counter check rhs is a constant")
                };
                *k += delta;
            }
        }
    }

    #[test]
    fn le_header_costs_exactly_the_lt_equivalent() {
        use ocelot_ir::ast::BinOp;
        // `$rep <= 2` must cost exactly what a genuine `repeat 3`
        // (`$rep < 3`) costs — the internal rewrite is semantically the
        // identity, not merely "some accepted bound".
        let reference = {
            let p = compile("sensor s; fn main() { repeat 3 { let v = in(s); } }").unwrap();
            let w = WcetAnalysis::new(&p, &CostModel::default(), &[]);
            w.func_wcet(p.main).unwrap()
        };
        let mut p = compile("sensor s; fn main() { repeat 2 { let v = in(s); } }").unwrap();
        rewrite_header(&mut p, BinOp::Le, 0);
        let w = WcetAnalysis::new(&p, &CostModel::default(), &[]);
        let bound = w.func_wcet(p.main).expect("`<=` header is accepted");
        assert_eq!(
            bound, reference,
            "`$rep <= 2` costs exactly what a `repeat 3` costs"
        );
    }

    #[test]
    fn while_loop_is_reported_unbounded() {
        let p = compile("nv g = 2; fn main() { while g > 0 { g = g - 1; } }").unwrap();
        let w = WcetAnalysis::new(&p, &CostModel::default(), &[]);
        match w.func_wcet(p.main) {
            Err(ProgressError::UnboundedLoop { func, .. }) => assert_eq!(func, "main"),
            other => panic!("expected unbounded-loop error, got {other:?}"),
        }
    }

    #[test]
    fn straddling_region_is_rejected() {
        // A hand-built region that starts outside a loop and ends inside
        // it has no single-attempt path; the analysis must refuse.
        use ocelot_ir::{Inst, RegionId};
        let mut p =
            compile("sensor s; fn main() { let a = 1; repeat 3 { let v = in(s); } }").unwrap();
        let region = p.fresh_region();
        let main = p.main;
        // Locate the loop body block (contains the input).
        let f = p.func_mut(main);
        let body_block = f
            .blocks
            .iter()
            .find(|b| b.instrs.iter().any(|i| i.op.is_input()))
            .map(|b| b.id)
            .expect("loop body exists");
        let (entry, l1, l2) = (f.entry, f.fresh_label(), f.fresh_label());
        f.block_mut(entry)
            .instrs
            .insert(0, Inst::new(l1, Op::AtomStart { region }));
        f.block_mut(body_block)
            .instrs
            .push(Inst::new(l2, Op::AtomEnd { region }));
        let info = ocelot_core::RegionInfo {
            id: RegionId(region.0),
            func: main,
            start: InstrRef {
                func: main,
                label: l1,
            },
            end: InstrRef {
                func: main,
                label: l2,
            },
            effects: Default::default(),
            omega_words: 0,
        };
        let w = WcetAnalysis::new(&p, &CostModel::default(), &[]);
        let err = w.region_body_wcet(&info).unwrap_err();
        assert!(
            matches!(err, ProgressError::Unsupported { .. }),
            "straddling must be refused, got {err:?}"
        );
    }

    #[test]
    fn jit_checkpoint_worst_case_uses_peak_stack() {
        let p = compile(
            r#"
            fn deep(v) { let a = v; let b = a; return b; }
            fn main() { let x = deep(1); }
            "#,
        )
        .unwrap();
        let costs = CostModel::default();
        let w = WcetAnalysis::new(&p, &costs, &[]);
        let deep = p.func_by_name("deep").unwrap();
        assert_eq!(
            w.worst_jit_checkpoint_cycles(),
            costs.checkpoint_cycles(w.stack().entry_words(deep))
        );
    }
}
