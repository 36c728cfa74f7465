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
//! comes from three places: both branch arms are maximized, every
//! non-volatile write inside an atomic region is priced with an
//! undo-log word (the runtime logs each location once), and region
//! entries are priced as outer entries that checkpoint the worst-case
//! stack of [`crate::stack`].

use crate::bounds::LoopBound;
use crate::error::ProgressError;
use crate::graph::{block_graphs, chain_to_use, points, BlockGraph, Run};
use crate::stack::StackModel;
use ocelot_analysis::dom::Point;
use ocelot_analysis::loops::NaturalLoop;
use ocelot_core::{covered_refs, RegionInfo};
use ocelot_hw::energy::{CostModel, Entry, Facts, Priced};
use ocelot_ir::callgraph::CallGraph;
use ocelot_ir::{BlockId, FuncId, Function, InstrRef, Label, Op, Place, Program, RegionId};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Worst-case cycle analysis over one program.
pub struct WcetAnalysis<'p> {
    p: &'p Program,
    costs: CostModel,
    stack: StackModel,
    graphs: Vec<BlockGraph>,
    /// Instructions that execute inside some atomic region (including
    /// transitively-called function bodies): NV writes there pay an
    /// undo-log entry.
    covered: BTreeSet<InstrRef>,
    /// Eager undo-log size per region.
    omega: BTreeMap<RegionId, usize>,
    /// Worst-case complete execution of each function, entry through
    /// the returning terminator, indexed by `FuncId`.
    func_wcet: Vec<Result<u64, ProgressError>>,
}

impl<'p> WcetAnalysis<'p> {
    /// Builds the analysis for `p` with its atomic regions.
    ///
    /// # Panics
    ///
    /// Panics if `p` has recursive calls (rejected by validation before
    /// any analysis runs; see [`StackModel::new`]).
    pub fn new(p: &'p Program, costs: &CostModel, regions: &[RegionInfo]) -> Self {
        let mut covered = BTreeSet::new();
        let mut omega = BTreeMap::new();
        for r in regions {
            covered.extend(covered_refs(p, r));
            omega.insert(r.id, r.omega_words);
        }
        let mut this = WcetAnalysis {
            p,
            costs: costs.clone(),
            stack: StackModel::new(p),
            graphs: block_graphs(p),
            covered,
            omega,
            func_wcet: vec![Ok(0); p.funcs.len()],
        };
        // Callees before callers, so every call looks up a finished
        // bound, never a placeholder.
        let order = CallGraph::new(p)
            .topo_callees_first(p)
            .expect("validated programs are non-recursive");
        for func in order {
            let f = p.func(func);
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
        let g = &self.graphs[func.0 as usize];
        let from_ctx = loop_context(g, from.block);
        let to_ctx = loop_context(g, to.block);
        if from.block == to.block {
            if from.index > to.index {
                return Err(ProgressError::unsupported(
                    "path end precedes its start within one block",
                ));
            }
            return self.range_cost(f, from.block, from.index, to.index);
        }
        if from_ctx != to_ctx {
            return Err(ProgressError::unsupported(format!(
                "path endpoints lie in different loop nests in `{}` \
                 (a region must not straddle a loop boundary)",
                f.name
            )));
        }

        let suffix = self.range_cost(f, from.block, from.index, usize::MAX)?;
        let prefix = self.range_cost(f, to.block, 0, to.index)?;
        let middle = self.dag_longest_path(f, g, &from_ctx, from.block, to.block)?;
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
    /// summing the full cost of every *intermediate* node.
    fn dag_longest_path(
        &self,
        f: &Function,
        g: &BlockGraph,
        context_headers: &BTreeSet<BlockId>,
        from: BlockId,
        to: BlockId,
    ) -> Result<u64, ProgressError> {
        // Node representative: the header of the outermost condensable
        // loop containing the block, or the block itself.
        let node_of = |b: BlockId| -> BlockId {
            g.loops
                .loops_containing(b)
                .into_iter()
                .find(|l| !context_headers.contains(&l.header))
                .map(|l| l.header)
                .unwrap_or(b)
        };
        let n_from = node_of(from);
        let n_to = node_of(to);
        debug_assert_eq!(
            n_from, from,
            "path start cannot sit inside a condensed loop"
        );
        debug_assert_eq!(n_to, to, "path end cannot sit inside a condensed loop");

        // Edges between condensed nodes, dropping intra-node edges and
        // back edges into context loops (a path between two points of
        // the same iteration never takes the back edge).
        let mut succs: BTreeMap<BlockId, BTreeSet<BlockId>> = BTreeMap::new();
        for b in f.blocks.iter().map(|b| b.id) {
            let u = node_of(b);
            for &s in g.cfg.succs(b) {
                let v = node_of(s);
                if u == v {
                    continue;
                }
                let is_context_back_edge = context_headers.contains(&s)
                    && g.loops.loops_containing(b).iter().any(|l| l.header == s);
                if is_context_back_edge {
                    continue;
                }
                succs.entry(u).or_default().insert(v);
            }
        }

        // Restrict to nodes reachable from the start.
        let mut reach: BTreeSet<BlockId> = BTreeSet::new();
        let mut queue = VecDeque::from([n_from]);
        while let Some(u) = queue.pop_front() {
            if !reach.insert(u) {
                continue;
            }
            if let Some(vs) = succs.get(&u) {
                queue.extend(vs.iter().copied());
            }
        }
        let no_path = || {
            ProgressError::unsupported(format!(
                "no forward path between the analyzed points in `{}`",
                f.name
            ))
        };
        if !reach.contains(&n_to) {
            return Err(no_path());
        }

        // Kahn topological order over the reachable subgraph.
        let mut indeg: BTreeMap<BlockId, usize> = reach.iter().map(|&b| (b, 0)).collect();
        for (&u, vs) in &succs {
            if !reach.contains(&u) {
                continue;
            }
            for v in vs {
                if reach.contains(v) {
                    *indeg.get_mut(v).expect("reachable node") += 1;
                }
            }
        }
        let mut ready: VecDeque<BlockId> = indeg
            .iter()
            .filter(|(_, &d)| d == 0)
            .map(|(&b, _)| b)
            .collect();
        let mut topo = Vec::with_capacity(reach.len());
        while let Some(u) = ready.pop_front() {
            topo.push(u);
            if let Some(vs) = succs.get(&u) {
                for v in vs {
                    if let Some(d) = indeg.get_mut(v) {
                        *d -= 1;
                        if *d == 0 {
                            ready.push_back(*v);
                        }
                    }
                }
            }
        }
        if topo.len() != reach.len() {
            return Err(ProgressError::Irreducible {
                func: f.name.clone(),
            });
        }

        // Longest-path DP accumulating intermediate-node costs.
        let mut dist: BTreeMap<BlockId, u64> = BTreeMap::new();
        dist.insert(n_from, 0);
        for &u in &topo {
            let Some(&du) = dist.get(&u) else { continue };
            let u_cost = if u == n_from {
                0
            } else {
                self.node_cost(f, g, context_headers, u)?
            };
            if let Some(vs) = succs.get(&u) {
                for &v in vs {
                    let cand = du.saturating_add(u_cost);
                    let e = dist.entry(v).or_insert(0);
                    *e = (*e).max(cand);
                }
            }
        }
        dist.get(&n_to).copied().ok_or_else(no_path)
    }

    /// Cost of one condensed node: a plain block's full cost, or a
    /// condensed loop's bounded total.
    fn node_cost(
        &self,
        f: &Function,
        g: &BlockGraph,
        context_headers: &BTreeSet<BlockId>,
        node: BlockId,
    ) -> Result<u64, ProgressError> {
        let condensed: Option<&NaturalLoop> = g
            .loops
            .loops_containing(node)
            .into_iter()
            .find(|l| !context_headers.contains(&l.header));
        match condensed {
            Some(l) if l.header == node => self.loop_cost(f, g, l),
            // A non-header block inside a condensed loop never becomes a
            // node, so `node` is plain.
            _ => self.range_cost(f, node, 0, usize::MAX),
        }
    }

    /// Total worst-case cost of a bounded loop: `k + 1` header checks
    /// plus `k` worst iterations (body through latch).
    fn loop_cost(
        &self,
        f: &Function,
        g: &BlockGraph,
        l: &NaturalLoop,
    ) -> Result<u64, ProgressError> {
        let k = match g.bound(l.header) {
            LoopBound::Exact(k) => *k,
            LoopBound::Unknown(detail) => {
                return Err(ProgressError::UnboundedLoop {
                    func: f.name.clone(),
                    detail: detail.clone(),
                })
            }
        };
        let header_cost = self.range_cost(f, l.header, 0, usize::MAX)?;
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
    /// under the worst-case facts. A store to anything but a declared
    /// local is an NV write; inside a region, every NV write, and every
    /// store through a by-ref parameter that may reach a global, pays an
    /// undo-log word. A region entry is priced as an outer entry even
    /// when nested (the runtime charges only an ALU bump when already
    /// atomic), which is sound for functions reached both inside and
    /// outside regions. A call adds the callee's whole-body bound.
    fn worst_price(
        &self,
        f: &Function,
        label: Label,
        at: Priced<'_>,
    ) -> Result<u64, ProgressError> {
        let facts = match at {
            Priced::Op(Op::Assign { place, .. }) => {
                let logged = self.covered.contains(&InstrRef { func: f.id, label });
                match place {
                    Place::Var(x) if f.declares(x) => {
                        Facts::store(false, logged && f.is_by_ref_param(x))
                    }
                    Place::Var(_) | Place::Index(..) | Place::Deref(_) => {
                        Facts::store(true, logged)
                    }
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

/// The headers of every loop containing `b`.
fn loop_context(g: &BlockGraph, b: BlockId) -> BTreeSet<BlockId> {
    g.loops
        .loops_containing(b)
        .iter()
        .map(|l| l.header)
        .collect()
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
