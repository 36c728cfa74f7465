//! Best-case (minimum) cycle analysis for feasibility verdicts.
//!
//! [`WcetAnalysis`](crate::wcet::WcetAnalysis) answers "how *slow* can
//! this path be" — the bound region placement and scheduling need. The
//! static linter asks the opposite question: how *fast* can execution
//! possibly get from an input collection to its use? If even the
//! cheapest path exceeds a freshness window, every execution trips the
//! expiry check and the program livelocks in a mitigation storm (the
//! non-termination risk §7 of the paper calls out).
//!
//! Soundness direction is therefore inverted relative to WCET: every
//! instruction is priced by [`CostModel::price`], the function the
//! runtime charges through, under the *cheapest* facts the site admits
//! (no undo-log words, region entry as the nested case, calls add the
//! callee's cheapest body), and the price is monotone in its facts. The
//! runtime converts cycles to microseconds per charge with a rounding-up
//! division, and `Σ ceil(xᵢ) ≥ ceil(Σ xᵢ)`, so
//! `CostModel::cycles_to_us(min_path_cycles)` lower-bounds the
//! microseconds any execution can take along any collect-to-use path.
//!
//! Minimum path costs are shortest paths over the shared block graph
//! with non-negative node weights (Dijkstra); loops never help a
//! shortest path, so no trip-count reasoning is needed. A `bounded_only`
//! variant removes the back edges of loops the [`crate::bounds`]
//! analysis cannot bound — a use reachable from its collection *only*
//! through such a back edge has an obligation no progress argument can
//! discharge (the linter's unbounded-loop-blocks-obligation pass).

use crate::error::ProgressError;
use crate::graph::{chain_to_use, point_of, points, BlockGraphs, Run};
use ocelot_analysis::dom::Point;
use ocelot_hw::energy::{CostModel, Facts, Priced};
use ocelot_ir::callgraph::CallGraph;
use ocelot_ir::{BlockId, FuncId, Function, InstrRef, Op, Place, Program};
use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Which CFG edges a minimum-path query may traverse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeSet {
    /// Every edge, including back edges of unbounded loops.
    All,
    /// Only edges a bounded-progress argument can cross: back edges of
    /// loops with no recoverable trip count are removed.
    BoundedOnly,
}

/// Minimum-cycle (best-case) analysis over one program.
pub struct FeasAnalysis<'p> {
    p: &'p Program,
    costs: CostModel,
    graphs: Cow<'p, BlockGraphs>,
    /// Cheapest full execution of each block including its terminator,
    /// indexed `[func][block]`.
    block_min: Vec<Vec<u64>>,
    /// Cheapest complete execution of each function, entry through the
    /// returning terminator, indexed by `FuncId`.
    func_min: Vec<u64>,
}

impl<'p> FeasAnalysis<'p> {
    /// Builds the analysis for `p`.
    ///
    /// # Errors
    ///
    /// Fails on a cyclic call graph (recursion has no finite best case
    /// either; `ocelot_ir::validate` rejects it upstream).
    pub fn new(p: &'p Program, costs: &CostModel) -> Result<Self, ProgressError> {
        Self::build(p, costs, Cow::Owned(BlockGraphs::new(p)))
    }

    /// [`Self::new`] over block graphs the caller built for `p` and
    /// shares with a [`WcetAnalysis`](crate::WcetAnalysis).
    ///
    /// # Errors
    ///
    /// As [`Self::new`].
    pub fn with_graphs(
        p: &'p Program,
        costs: &CostModel,
        graphs: &'p BlockGraphs,
    ) -> Result<Self, ProgressError> {
        Self::build(p, costs, Cow::Borrowed(graphs))
    }

    fn build(
        p: &'p Program,
        costs: &CostModel,
        graphs: Cow<'p, BlockGraphs>,
    ) -> Result<Self, ProgressError> {
        let order = CallGraph::new(p).topo_callees_first(p).map_err(|_| {
            ProgressError::unsupported("minimum-cost analysis requires an acyclic call graph")
        })?;
        let mut this = FeasAnalysis {
            p,
            costs: costs.clone(),
            graphs,
            block_min: vec![Vec::new(); p.funcs.len()],
            func_min: vec![0; p.funcs.len()],
        };
        // Callees before callers, so call costs resolve to finished minima.
        for func in order {
            let f = p.func(func);
            this.block_min[func.0 as usize] = f
                .blocks
                .iter()
                .map(|b| this.range_min(f, b.id, 0, usize::MAX))
                .collect();
            let entry = Point::new(f.entry, 0);
            this.func_min[func.0 as usize] = this
                .min_to_exit(func, entry, EdgeSet::All)
                .unwrap_or(u64::MAX);
        }
        Ok(this)
    }

    /// Cheapest complete execution of `func` (entry through `ret`).
    pub fn func_min(&self, func: FuncId) -> u64 {
        self.func_min[func.0 as usize]
    }

    /// The `(block, index)` position of `label` in its function, as a
    /// [`Point`] (the terminator sits at `index == instrs.len()`).
    pub fn point_of(&self, at: InstrRef) -> Option<Point> {
        point_of(self.p, at)
    }

    /// Minimum cycles from `from` (inclusive) to `to` (exclusive)
    /// within one function, over any path in `edges`. `None` when `to`
    /// is unreachable from `from`.
    pub fn min_between(&self, func: FuncId, from: Point, to: Point, edges: EdgeSet) -> Option<u64> {
        let f = self.p.func(func);
        if from.block == to.block && from.index <= to.index {
            // The straight-line segment is always the cheapest option:
            // any detour re-executes it plus a non-negative cycle.
            return Some(self.range_min(f, from.block, from.index, to.index));
        }
        let suffix = self.range_min(f, from.block, from.index, usize::MAX);
        let prefix = self.range_min(f, to.block, 0, to.index);
        let dist = self.dijkstra(func, edges, |b| (b == to.block).then_some(0));
        self.via_succs(func, from.block, edges, &dist)
            .map(|d| suffix.saturating_add(d).saturating_add(prefix))
    }

    /// Minimum cycles from `from` (inclusive) through a returning
    /// terminator of `func` (inclusive). `None` when no exit is
    /// reachable under `edges`.
    pub fn min_to_exit(&self, func: FuncId, from: Point, edges: EdgeSet) -> Option<u64> {
        let f = self.p.func(func);
        let g = self.graphs.get(func);
        let suffix = self.range_min(f, from.block, from.index, usize::MAX);
        if g.is_exit(from.block) {
            return Some(suffix);
        }
        let block_min = &self.block_min[func.0 as usize];
        let dist = self.dijkstra(func, edges, |b| {
            g.is_exit(b).then(|| block_min[b.0 as usize])
        });
        self.via_succs(func, from.block, edges, &dist)
            .map(|d| suffix.saturating_add(d))
    }

    // ------------------------------------------------------------------
    // Interprocedural collect-to-use minima
    // ------------------------------------------------------------------

    /// Minimum cycles between executing the input that ends `chain`
    /// (the call sites from `main`, then the input instruction) and
    /// reaching `use_at` under calling context `use_ctx`, without the
    /// run restarting in between. `None` when no
    /// same-run continuation exists under `edges`.
    pub fn min_chain_to_use(
        &self,
        chain: &[InstrRef],
        use_ctx: &[InstrRef],
        use_at: InstrRef,
        edges: EdgeSet,
    ) -> Option<u64> {
        self.chain_min(chain, use_ctx, use_at, Run::Same, edges)
    }

    /// Minimum cycles between the input ending `chain` and `use_at`
    /// when a run boundary separates them: finish the collecting run
    /// (ascend to `main`'s return), then reach the use from `main`'s
    /// entry in a later run. Reboot and off time only add to this.
    pub fn min_chain_to_use_cross_run(
        &self,
        chain: &[InstrRef],
        use_ctx: &[InstrRef],
        use_at: InstrRef,
    ) -> Option<u64> {
        self.chain_min(chain, use_ctx, use_at, Run::Next, EdgeSet::All)
    }

    fn chain_min(
        &self,
        chain: &[InstrRef],
        use_ctx: &[InstrRef],
        use_at: InstrRef,
        run: Run,
        edges: EdgeSet,
    ) -> Option<u64> {
        chain_to_use(
            self.p,
            &self.costs,
            chain,
            use_ctx,
            use_at,
            run,
            |func, from, to| match to {
                Some(to) => self.min_between(func, from, to, edges),
                None => self.min_to_exit(func, from, edges),
            },
        )
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// The cheapest `dist` over the successors of `b` admissible under
    /// `edges`.
    fn via_succs(
        &self,
        func: FuncId,
        b: BlockId,
        edges: EdgeSet,
        dist: &[Option<u64>],
    ) -> Option<u64> {
        let g = self.graphs.get(func);
        g.cfg
            .succs(b)
            .iter()
            .filter(|&&s| edges == EdgeSet::All || !g.is_unbounded_back(b, s))
            .filter_map(|s| dist[s.0 as usize])
            .min()
    }

    /// Single-target Dijkstra on the reversed block graph of `func` with
    /// node weights: `dist[b]` is the cheapest execution from the start
    /// of `b` to a target, `None` when no target is reachable. `seed(b)`
    /// gives a block's distance when it is a target (its own cost if
    /// execution must pass through it).
    fn dijkstra(
        &self,
        func: FuncId,
        edges: EdgeSet,
        seed: impl Fn(BlockId) -> Option<u64>,
    ) -> Vec<Option<u64>> {
        let g = self.graphs.get(func);
        let block_min = &self.block_min[func.0 as usize];
        let mut dist: Vec<Option<u64>> = (0..block_min.len())
            .map(|i| seed(BlockId(i as u32)))
            .collect();
        let mut heap: BinaryHeap<(Reverse<u64>, u32)> = dist
            .iter()
            .enumerate()
            .filter_map(|(b, d)| d.map(|d| (Reverse(d), b as u32)))
            .collect();
        while let Some((Reverse(d), b)) = heap.pop() {
            if dist[b as usize] != Some(d) {
                continue;
            }
            // Predecessors of a settled node improve.
            for &p in g.cfg.preds(BlockId(b)) {
                if edges == EdgeSet::BoundedOnly && g.is_unbounded_back(p, BlockId(b)) {
                    continue;
                }
                let nd = d.saturating_add(block_min[p.0 as usize]);
                let old = &mut dist[p.0 as usize];
                if old.map_or(true, |old| nd < old) {
                    *old = Some(nd);
                    heap.push((Reverse(nd), p.0));
                }
            }
        }
        dist
    }

    /// Minimum cost of points `[lo, hi)` of one block.
    fn range_min(&self, f: &Function, b: BlockId, lo: usize, hi: usize) -> u64 {
        points(f, b, lo, hi)
            .map(|(_, at)| self.cheapest_price(f, at))
            .fold(0, u64::saturating_add)
    }

    /// The least the runtime can charge at one site: [`CostModel::price`]
    /// under the best-case facts. A store to a declared local (or any
    /// parameter; for by-ref parameters an undo-log word is only an
    /// upper-bound extra) is volatile, anything else an NV write; no
    /// store pays an undo-log word; a region entry is the nested case;
    /// a call adds the callee's cheapest body.
    fn cheapest_price(&self, f: &Function, at: Priced<'_>) -> u64 {
        let facts = match at {
            Priced::Op(Op::Assign { place, .. }) => {
                Facts::store(!matches!(place, Place::Var(x) if f.declares(x)), false)
            }
            Priced::Op(Op::Call { callee, .. }) => Facts::callee(self.func_min[callee.0 as usize]),
            _ => Facts::default(),
        };
        self.costs.price(at, facts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocelot_ir::compile;

    fn analysis(p: &Program) -> FeasAnalysis<'_> {
        FeasAnalysis::new(p, &CostModel::default()).unwrap()
    }

    fn input_ref(p: &Program) -> InstrRef {
        for f in &p.funcs {
            for (_, inst) in f.iter_insts() {
                if inst.op.is_input() {
                    return InstrRef {
                        func: f.id,
                        label: inst.label,
                    };
                }
            }
        }
        panic!("no input in program");
    }

    fn output_ref(p: &Program) -> InstrRef {
        for f in &p.funcs {
            for (_, inst) in f.iter_insts() {
                if matches!(inst.op, Op::Output { .. }) {
                    return InstrRef {
                        func: f.id,
                        label: inst.label,
                    };
                }
            }
        }
        panic!("no output in program");
    }

    #[test]
    fn straight_line_min_matches_sum() {
        let p = compile("sensor s; fn main() { let v = in(s); out(log, v); }").unwrap();
        let a = analysis(&p);
        let costs = CostModel::default();
        let collect = input_ref(&p);
        let use_ = output_ref(&p);
        let min = a
            .min_chain_to_use(&[collect], &[], use_, EdgeSet::All)
            .unwrap();
        // Between input and output: only the input's bind consumes
        // cycles (plus nothing else) — strictly less than an input.
        assert!(min < costs.input, "cheap gap: {min}");
    }

    #[test]
    fn min_is_below_wcet() {
        let p = compile(
            r#"
            sensor s;
            fn main() {
                let v = in(s);
                if v > 0 { out(log, v); out(log, v); } else { skip; }
                out(log, v);
            }
            "#,
        )
        .unwrap();
        let a = analysis(&p);
        let regions = ocelot_core::collect_regions(&p).unwrap();
        let w = crate::wcet::WcetAnalysis::new(&p, &CostModel::default(), &regions);
        let min = a.func_min(p.main);
        let max = w.func_wcet(p.main).unwrap();
        assert!(
            min < max,
            "cheap arm beats the expensive arm: {min} < {max}"
        );
    }

    #[test]
    fn min_takes_the_cheap_branch_arm() {
        let p = compile(
            r#"
            sensor s;
            fn main() {
                let v = in(s);
                if v > 0 { skip; } else { out(log, v); out(log, v); }
                out(log, v);
            }
            "#,
        )
        .unwrap();
        let a = analysis(&p);
        let costs = CostModel::default();
        let min = a
            .min_chain_to_use(&[input_ref(&p)], &[], output_ref(&p), EdgeSet::All)
            .unwrap();
        // The skip arm costs ~nothing; the expensive arm's two outputs
        // must not appear in the minimum.
        assert!(min < costs.output_word, "skip arm chosen: {min}");
    }

    #[test]
    fn interprocedural_chain_ascends_and_descends() {
        let p = compile(
            r#"
            sensor s;
            fn grab() { let v = in(s); return v; }
            fn show(x) { out(log, x); }
            fn main() { let a = grab(); show(a); }
            "#,
        )
        .unwrap();
        let a = analysis(&p);
        let chains = ocelot_analysis::chains::static_input_chains(&p);
        let chain = chains.values().next().unwrap().clone();
        let use_ = output_ref(&p);
        let show = p.func_by_name("show").unwrap();
        let uctx: Vec<InstrRef> = {
            // show's unique context: the one call site in main.
            ocelot_analysis::chains::unique_contexts(&p)[show.0 as usize]
                .clone()
                .unwrap()
        };
        let min = a
            .min_chain_to_use(&chain, &uctx, use_, EdgeSet::All)
            .unwrap();
        let costs = CostModel::default();
        // Must include at least grab's return and the call into show.
        assert!(min >= costs.call / 2 + costs.call, "ret + call: {min}");
    }

    #[test]
    fn unbounded_back_edge_blocks_bounded_paths() {
        let p = compile(
            r#"
            sensor s;
            nv n = 0;
            fn main() {
                let v = in(s);
                while n < 10 {
                    n = n + 1;
                }
                out(log, v);
            }
            "#,
        )
        .unwrap();
        let a = analysis(&p);
        let collect = input_ref(&p);
        let use_ = output_ref(&p);
        // Forward path exists without taking the (unbounded) back edge.
        assert!(a
            .min_chain_to_use(&[collect], &[], use_, EdgeSet::All)
            .is_some());
        assert!(
            a.min_chain_to_use(&[collect], &[], use_, EdgeSet::BoundedOnly)
                .is_some(),
            "first-iteration path skips the back edge"
        );
    }

    #[test]
    fn use_behind_unbounded_back_edge_is_blocked() {
        // The use sits before the collect in the loop body: reaching it
        // after collecting requires a second iteration, i.e. the back
        // edge of a loop no bound annotation covers.
        let p = compile(
            r#"
            sensor s;
            nv n = 0;
            fn main() {
                while n < 10 {
                    out(log, n);
                    let v = in(s);
                    n = n + v;
                }
            }
            "#,
        )
        .unwrap();
        let a = analysis(&p);
        let collect = input_ref(&p);
        let use_ = output_ref(&p);
        assert!(
            a.min_chain_to_use(&[collect], &[], use_, EdgeSet::All)
                .is_some(),
            "loop-around path exists in the full graph"
        );
        assert!(
            a.min_chain_to_use(&[collect], &[], use_, EdgeSet::BoundedOnly)
                .is_none(),
            "every collect-to-use path crosses the unbounded back edge"
        );
    }

    #[test]
    fn cross_run_includes_exit_and_reentry() {
        let p = compile("sensor s; fn main() { let v = in(s); out(log, v); }").unwrap();
        let a = analysis(&p);
        let cross = a
            .min_chain_to_use_cross_run(&[input_ref(&p)], &[], output_ref(&p))
            .unwrap();
        let same = a
            .min_chain_to_use(&[input_ref(&p)], &[], output_ref(&p), EdgeSet::All)
            .unwrap();
        // Cross-run replays the input on the way back to the use, so it
        // costs at least a full input more than the straight path.
        assert!(cross > same, "{cross} > {same}");
    }
}
