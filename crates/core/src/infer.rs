//! Atomic-region inference — Algorithm 1 of the paper.
//!
//! For each (non-vacuous) policy:
//!
//! 1. **`findCandidate`** — pick the *deepest* function whose call
//!    subtree contains every policy operation (post-order walk from
//!    `main`, first covering function wins), so the region is as small
//!    as possible (§5.3: smaller regions are likelier to complete on
//!    the energy buffer).
//! 2. **Hoisting** — walk each policy operation up the call graph,
//!    moving to caller call sites *that are themselves in the policy*
//!    (the provenance chains supply them), until it has a basic block in
//!    the candidate function (Algorithm 1, lines 8–15).
//! 3. **Dominators** — `closestCommonDominator` /
//!    `closestCommonPostDominator` of all those blocks give candidate
//!    start/end blocks (lines 17–18).
//! 4. **Loop widening** — a consistent set whose input sits inside a
//!    loop spans loop iterations, so the region grows to enclose the
//!    whole loop (the formal model unrolls bounded loops; enclosing the
//!    loop encloses every unrolled copy). Additionally, for *any*
//!    policy kind, a policy with operations both inside and outside a
//!    loop (e.g. a fresh use control-dependent on an input collected
//!    before the loop) cannot be covered by a region slicing the loop,
//!    so that loop is enclosed whole too.
//! 5. **`truncate`** — within the start block, the latest point that
//!    still dominates every operation; within the end block, the
//!    earliest point that still post-dominates them (line 19). An
//!    operation that *is* a branch terminator pushes the end into the
//!    branch's immediate post-dominator (the join block) — exactly the
//!    `join bb2 bb3; call atomic_end` placement of Figure 3.
//! 6. **Insertion** — `startatom`/`endatom` with a fresh region id
//!    (line 20).

use crate::error::CoreError;
use crate::policy::{PolicyId, PolicyKind, PolicyMap, PolicySet};
use ocelot_analysis::dom::{DomTree, Point};
use ocelot_analysis::loops::LoopForest;
use ocelot_ir::cfg::Cfg;
use ocelot_ir::{BlockId, CallGraph, FuncId, Inst, InstrRef, Op, Program, RegionId};
use std::collections::{BTreeSet, HashMap};

/// The outcome of region inference.
#[derive(Debug, Clone, Default)]
pub(crate) struct Inference {
    /// Region → policies it enforces (the paper's `PM`).
    pub(crate) policy_map: PolicyMap,
    /// Policies skipped because they constrain no inputs.
    pub(crate) vacuous: Vec<PolicyId>,
}

/// Runs Algorithm 1 over every policy, mutating `p` by inserting
/// `startatom`/`endatom` instructions.
///
/// # Errors
///
/// Returns [`CoreError::Infer`] when no candidate function covers a
/// policy's operations (e.g. they are unreachable from `main`) or a
/// region boundary cannot be placed.
pub(crate) fn infer_atomics(p: &mut Program, policies: &PolicySet) -> Result<Inference, CoreError> {
    let mut result = Inference::default();
    for pol in policies.iter() {
        if pol.is_vacuous() {
            result.vacuous.push(pol.id);
            continue;
        }
        let region = infer_one(p, pol)?;
        result.policy_map.entry(region).or_default().push(pol.id);
    }
    Ok(result)
}

fn infer_one(p: &mut Program, pol: &crate::policy::Policy) -> Result<RegionId, CoreError> {
    let items = pol.items();
    let core_items = pol.core_items();
    let cg = CallGraph::new(p);

    // --- 1. findCandidate -------------------------------------------------
    let goal = find_candidate(p, &cg, &core_items, &pol.inputs).ok_or_else(|| {
        CoreError::infer(format!(
            "no function covers all operations of policy {:?} ({:?})",
            pol.id, pol.kind
        ))
    })?;

    // --- 2. hoist every operation into the goal function -------------------
    let goal_fn = p.func(goal);
    let point_of = |r: InstrRef| -> Result<Point, CoreError> {
        let (b, i) = goal_fn
            .find_label(r.label)
            .ok_or_else(|| CoreError::infer(format!("dangling policy operation {r}")))?;
        Ok(Point::new(b, i))
    };

    let mut points: Vec<Point> = Vec::new();
    // Input-bearing points drive consistent-set loop widening.
    let mut input_points: Vec<Point> = Vec::new();

    // Each provenance chain contributes the element executing in the goal
    // function: the input itself if sensed there, otherwise the chain's
    // call site in the goal (the whole sub-chain below it executes inside
    // that call).
    for chain in &pol.inputs {
        let elem = chain.iter().find(|e| e.func == goal).ok_or_else(|| {
            CoreError::infer(format!(
                "input chain does not pass through candidate `{}`",
                goal_fn.name
            ))
        })?;
        let pt = point_of(*elem)?;
        points.push(pt);
        input_points.push(pt);
    }

    // Declarations and uses hoist up the call graph (Algorithm 1, lines
    // 8–15): prefer caller sites that are themselves policy operations;
    // fall back to any caller inside the goal's subtree (sound — it can
    // only grow the region).
    let sub: BTreeSet<FuncId> = cg.reachable_from(goal).into_iter().collect();
    let non_chain_ops = core_items
        .iter()
        .filter(|r| !pol.inputs.iter().any(|c| c.last() == Some(*r)));
    for op in non_chain_ops {
        for site in hoist_to_goal(&cg, goal, &sub, &items, *op, &goal_fn.name)? {
            points.push(point_of(site)?);
        }
    }

    // --- 3/4. dominator blocks, with loop widening for consistent sets -----
    let cfg = Cfg::new(goal_fn);
    let dom = DomTree::dominators(goal_fn, &cfg);
    let pdom = DomTree::post_dominators(goal_fn, &cfg);
    let mut blocks: BTreeSet<BlockId> = points.iter().map(|pt| pt.block).collect();

    if matches!(pol.kind, PolicyKind::Consistent(_)) {
        widen_loops(goal_fn, &cfg, &dom, &input_points, &mut blocks);
    }

    // Mixed-membership widening (any policy kind): a policy with
    // operations both inside and outside a loop spans that loop's
    // iterations — e.g. a fresh use whose control depends on an input
    // collected before the loop (or in the previous iteration). No
    // start/end pair slicing the loop can cover such a policy, so the
    // region must enclose the loop whole.
    let forest = LoopForest::new(goal_fn, &cfg, &dom);
    loop {
        let mut grew = false;
        for l in forest.loops() {
            let some_in = blocks.iter().any(|b| l.contains(*b));
            let some_out = blocks.iter().any(|b| !l.contains(*b));
            if some_in && some_out && enclose_loop(l, &cfg, &mut blocks) {
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }

    let start_dom = dom
        .common_of(blocks.iter().copied())
        .ok_or_else(|| CoreError::infer("policy blocks are unreachable"))?;
    let mut end_dom = pdom
        .common_of(blocks.iter().copied())
        .ok_or_else(|| CoreError::infer("policy blocks have no common post-dominator"))?;

    // --- 5. truncate -------------------------------------------------------
    let start_index = points
        .iter()
        .filter(|pt| pt.block == start_dom)
        .map(|pt| pt.index)
        .min()
        .unwrap_or_else(|| goal_fn.block(start_dom).instrs.len());

    // If a policy operation *is* the end block's terminator (a branch
    // using a fresh value), the region end must move to the immediate
    // post-dominator — the join block of Figure 3.
    loop {
        let term_index = goal_fn.block(end_dom).instrs.len();
        let has_term_item = points
            .iter()
            .any(|pt| pt.block == end_dom && pt.index >= term_index);
        if !has_term_item {
            break;
        }
        end_dom = pdom.idom(end_dom).ok_or_else(|| {
            CoreError::infer(
                "cannot place region end after a policy operation at a function return",
            )
        })?;
    }
    let mut end_index = points
        .iter()
        .filter(|pt| pt.block == end_dom)
        .map(|pt| pt.index + 1)
        .max()
        .unwrap_or(0);
    if end_dom == start_dom {
        end_index = end_index.max(start_index);
    }

    // --- 6. insert ---------------------------------------------------------
    let region = p.fresh_region();
    let f = p.func_mut(goal);
    // Synthesized markers adopt the span of the statement they wrap, so
    // diagnostics can point at real source even for inferred regions.
    let span_near = |f: &ocelot_ir::Function, bb: ocelot_ir::BlockId, i: usize| {
        let blk = f.block(bb);
        blk.instrs
            .get(i)
            .or_else(|| i.checked_sub(1).and_then(|j| blk.instrs.get(j)))
            .map_or(blk.term_span, |inst| inst.span)
    };
    // Insert the end first so the start insertion cannot shift it.
    let end_label = f.fresh_label();
    let end_span = span_near(f, end_dom, end_index);
    f.block_mut(end_dom).instrs.insert(
        end_index,
        Inst {
            label: end_label,
            op: Op::AtomEnd { region },
            span: end_span,
        },
    );
    let start_label = f.fresh_label();
    let start_span = span_near(f, start_dom, start_index);
    f.block_mut(start_dom).instrs.insert(
        start_index,
        Inst {
            label: start_label,
            op: Op::AtomStart { region },
            span: start_span,
        },
    );
    Ok(region)
}

/// Post-order walk of the call graph from `main`; the first function
/// whose subtree contains every operation *and* that lies on every input
/// provenance chain becomes the candidate (Algorithm 1's
/// `findCandidate`, strengthened so a region in the candidate encloses
/// every dynamic instance of the inputs). Returns `None` when even
/// `main` does not cover.
fn find_candidate(
    p: &Program,
    cg: &CallGraph,
    core_items: &BTreeSet<InstrRef>,
    chains: &BTreeSet<ocelot_analysis::taint::Prov>,
) -> Option<FuncId> {
    let mut items_per_func: HashMap<FuncId, usize> = HashMap::new();
    for it in core_items {
        *items_per_func.entry(it.func).or_insert(0) += 1;
    }
    let total = core_items.len();
    let on_all_chains =
        |f: FuncId| -> bool { f == p.main || chains.iter().all(|c| c.iter().any(|e| e.func == f)) };

    let mut memo: HashMap<FuncId, usize> = HashMap::new();
    let mut candidate: Option<FuncId> = None;
    visit(
        p.main,
        cg,
        &items_per_func,
        total,
        &on_all_chains,
        &mut memo,
        &mut candidate,
        &mut BTreeSet::new(),
    );
    candidate
}

#[allow(clippy::too_many_arguments)]
fn visit(
    f: FuncId,
    cg: &CallGraph,
    per_func: &HashMap<FuncId, usize>,
    total: usize,
    on_all_chains: &dyn Fn(FuncId) -> bool,
    memo: &mut HashMap<FuncId, usize>,
    candidate: &mut Option<FuncId>,
    visiting: &mut BTreeSet<FuncId>,
) -> usize {
    if let Some(&n) = memo.get(&f) {
        return n;
    }
    if !visiting.insert(f) {
        return 0; // cycle guard; validated programs are acyclic
    }
    // Distinct callees (multiple sites to the same callee count once).
    let callees: BTreeSet<FuncId> = cg.callees(f).map(|e| e.callee).collect();
    // Count items in the subtree. Items in shared callees would be
    // double-counted by summing, so gather the covered *set* instead.
    let mut covered: BTreeSet<FuncId> = BTreeSet::from([f]);
    for c in &callees {
        visit(
            *c,
            cg,
            per_func,
            total,
            on_all_chains,
            memo,
            candidate,
            visiting,
        );
        covered.extend(cg.reachable_from(*c));
    }
    let n: usize = covered.iter().filter_map(|g| per_func.get(g)).sum();
    if n == total && candidate.is_none() && on_all_chains(f) {
        *candidate = Some(f);
    }
    memo.insert(f, n);
    visiting.remove(&f);
    n
}

/// Hoists a declaration or use up the call graph until it has call
/// site(s) in the goal function. Prefers caller sites that belong to the
/// policy (Algorithm 1 line 11); falls back to every caller within the
/// goal's call subtree.
fn hoist_to_goal(
    cg: &CallGraph,
    goal: FuncId,
    sub: &BTreeSet<FuncId>,
    items: &BTreeSet<InstrRef>,
    op: InstrRef,
    goal_name: &str,
) -> Result<Vec<InstrRef>, CoreError> {
    let mut frontier = vec![op];
    let mut done = Vec::new();
    let mut seen: BTreeSet<InstrRef> = BTreeSet::new();
    while let Some(cur) = frontier.pop() {
        if !seen.insert(cur) {
            continue;
        }
        if cur.func == goal {
            done.push(cur);
            continue;
        }
        let preferred: Vec<InstrRef> = cg
            .callers(cur.func)
            .filter(|e| items.contains(&e.site))
            .map(|e| e.site)
            .collect();
        let next = if preferred.is_empty() {
            cg.callers(cur.func)
                .filter(|e| sub.contains(&e.caller))
                .map(|e| e.site)
                .collect::<Vec<_>>()
        } else {
            preferred
        };
        if next.is_empty() {
            return Err(CoreError::infer(format!(
                "cannot hoist {cur} into `{goal_name}`: no caller reaches it"
            )));
        }
        frontier.extend(next);
    }
    Ok(done)
}

/// Grows `blocks` so that any loop containing an input operation is
/// enclosed whole. Iterates for nested loops.
fn widen_loops(
    f: &ocelot_ir::Function,
    cfg: &Cfg,
    dom: &DomTree,
    input_points: &[Point],
    blocks: &mut BTreeSet<BlockId>,
) {
    let forest = LoopForest::new(f, cfg, dom);
    if forest.loops().is_empty() {
        return;
    }
    let mut trigger: BTreeSet<BlockId> = input_points.iter().map(|pt| pt.block).collect();
    loop {
        let mut grew = false;
        for l in forest.loops() {
            if !trigger.iter().any(|b| l.contains(*b)) {
                continue;
            }
            if enclose_loop(l, cfg, blocks) {
                grew = true;
            }
            // The enclosed blocks propagate widening to enclosing loops.
            trigger.extend(l.blocks());
            trigger.extend(cfg.preds(l.header).iter().filter(|b| !l.contains(**b)));
            for b in l.blocks() {
                trigger.extend(cfg.succs(b).iter().filter(|s| !l.contains(**s)));
            }
        }
        if !grew {
            break;
        }
    }
}

/// Adds every block of `l`, the header's out-of-loop predecessors
/// (preheader side), and each exit edge's target to `blocks`, so the
/// dominator/post-dominator of the set land outside the loop. Returns
/// true when anything was added.
fn enclose_loop(
    l: &ocelot_analysis::loops::NaturalLoop,
    cfg: &Cfg,
    blocks: &mut BTreeSet<BlockId>,
) -> bool {
    let mut grew = false;
    for b in l.blocks() {
        grew |= blocks.insert(b);
    }
    for pred in cfg.preds(l.header) {
        if !l.contains(*pred) {
            grew |= blocks.insert(*pred);
        }
    }
    for b in l.blocks() {
        for s in cfg.succs(b) {
            if !l.contains(*s) {
                grew |= blocks.insert(*s);
            }
        }
    }
    grew
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::build_policies;
    use crate::region::collect_regions;
    use ocelot_analysis::taint::TaintAnalysis;
    use ocelot_ir::compile;

    fn run(src: &str) -> (Program, PolicySet, Inference) {
        let mut p = compile(src).unwrap();
        ocelot_ir::validate(&p).unwrap();
        let t = TaintAnalysis::run(&p);
        let ps = build_policies(&p, &t);
        let inf = infer_atomics(&mut p, &ps).unwrap();
        ocelot_ir::validate(&p).expect("program stays valid after insertion");
        (p, ps, inf)
    }

    /// Returns the ordered op names of `main` for placement assertions.
    fn main_ops(p: &Program) -> Vec<String> {
        let f = p.func(p.main);
        let mut out = Vec::new();
        for b in &f.blocks {
            for i in &b.instrs {
                out.push(ocelot_ir::print::op_to_string(p, &i.op));
            }
            out.push(format!("term:bb{}", b.id.0));
        }
        out
    }

    #[test]
    fn figure3_fresh_region_spans_input_to_join() {
        // The running example of Figure 3: region starts at the input and
        // ends at the join after the branch.
        let (p, _, inf) = run(r#"
            sensor tmp;
            fn main() {
                let x = in(tmp);
                fresh(x);
                if x < 5 {
                    out(alarm, x);
                }
            }
            "#);
        assert_eq!(inf.policy_map.len(), 1);
        let regions = collect_regions(&p).unwrap();
        assert_eq!(regions.len(), 1);
        let ops = main_ops(&p);
        let start_pos = ops.iter().position(|o| o.starts_with("startatom")).unwrap();
        let input_pos = ops.iter().position(|o| o.contains("in(tmp)")).unwrap();
        let alarm_pos = ops.iter().position(|o| o.contains("out(alarm")).unwrap();
        let end_pos = ops.iter().position(|o| o.starts_with("endatom")).unwrap();
        assert!(start_pos < input_pos, "start before the input");
        assert!(alarm_pos < end_pos, "branch arm inside the region");
        // The start is immediately before the input (after $ret init).
        assert_eq!(input_pos - start_pos, 1, "smallest region: starts at input");
    }

    #[test]
    fn figure6a_region_placed_in_app_around_call() {
        // Fresh through a call: region in main around `x = tmp()` ... `log(x)`.
        let (p, _, _) = run(r#"
            sensor sense;
            fn norm(v) { return v * 2; }
            fn tmp() { let t = in(sense); let t2 = norm(t); return t2; }
            fn main() { let x = tmp(); fresh(x); out(log, x); }
            "#);
        let regions = collect_regions(&p).unwrap();
        assert_eq!(regions.len(), 1);
        assert_eq!(
            regions[0].func, p.main,
            "goal function is main (the caller)"
        );
        let ops = main_ops(&p);
        let start = ops.iter().position(|o| o.starts_with("startatom")).unwrap();
        let call = ops.iter().position(|o| o.contains("tmp()")).unwrap();
        let log = ops.iter().position(|o| o.contains("out(log")).unwrap();
        let end = ops.iter().position(|o| o.starts_with("endatom")).unwrap();
        assert!(start < call && call < log && log < end);
        // tmp itself contains no region markers.
        let tmp_f = p.func(p.func_by_name("tmp").unwrap());
        assert!(!tmp_f
            .iter_insts()
            .any(|(_, i)| matches!(i.op, Op::AtomStart { .. } | Op::AtomEnd { .. })));
    }

    #[test]
    fn figure6b_region_placed_in_confirm_not_app() {
        // The paper: "Placing the region in confirm results in a smaller
        // region than placing it in app."
        let (p, _, _) = run(r#"
            sensor sense;
            fn pres() { let v = in(sense); return v; }
            fn confirm() {
                let y = pres();
                consistent(y, 1);
                let y2 = pres();
                consistent(y2, 1);
            }
            fn main() { confirm(); }
            "#);
        let regions = collect_regions(&p).unwrap();
        assert_eq!(regions.len(), 1);
        let confirm = p.func_by_name("confirm").unwrap();
        assert_eq!(regions[0].func, confirm, "deepest covering function wins");
        // Both calls to pres are inside the region.
        let cov = crate::region::covered_refs(&p, &regions[0]);
        let confirm_fn = p.func(confirm);
        let call_sites: Vec<InstrRef> = confirm_fn
            .call_sites()
            .into_iter()
            .map(|(l, _)| InstrRef {
                func: confirm,
                label: l,
            })
            .collect();
        assert_eq!(call_sites.len(), 2);
        for cs in call_sites {
            assert!(cov.contains(&cs));
        }
    }

    #[test]
    fn consistent_pair_spans_both_inputs() {
        // Figure 2's pressure+humidity pair.
        let (p, _, _) = run(r#"
            sensor pres;
            sensor hum;
            fn main() {
                let y = in(pres);
                consistent(y, 1);
                let z = in(hum);
                consistent(z, 1);
                out(log, y, z);
            }
            "#);
        let regions = collect_regions(&p).unwrap();
        assert_eq!(regions.len(), 1);
        let ops = main_ops(&p);
        let start = ops.iter().position(|o| o.starts_with("startatom")).unwrap();
        let p1 = ops.iter().position(|o| o.contains("in(pres)")).unwrap();
        let p2 = ops.iter().position(|o| o.contains("in(hum)")).unwrap();
        let end = ops.iter().position(|o| o.starts_with("endatom")).unwrap();
        assert!(start < p1 && p1 < p2 && p2 < end);
        // The log is NOT required to be in the region (consistency
        // constrains only the inputs, §4.3) — the region ends right
        // after the last input.
        let log = ops.iter().position(|o| o.contains("out(log")).unwrap();
        assert!(end < log, "region ends before the log: smallest region");
    }

    #[test]
    fn vacuous_policy_inserts_no_region() {
        let (p, _, inf) = run("fn main() { let x = 1; fresh(x); }");
        assert_eq!(inf.vacuous.len(), 1);
        assert!(collect_regions(&p).unwrap().is_empty());
    }

    #[test]
    fn consistent_input_in_loop_widens_to_whole_loop() {
        // Photo-style: N samples of one sensor must be mutually
        // consistent; the loop must be enclosed whole.
        let (p, _, _) = run(r#"
            sensor photo;
            fn main() {
                let sum = 0;
                repeat 5 {
                    let v = in(photo);
                    consistent(v, 1);
                    sum = sum + v;
                }
                out(log, sum);
            }
            "#);
        let regions = collect_regions(&p).unwrap();
        assert_eq!(regions.len(), 1);
        let f = p.func(p.main);
        let cfg = Cfg::new(f);
        let dom = DomTree::dominators(f, &cfg);
        let forest = LoopForest::new(f, &cfg, &dom);
        assert_eq!(forest.loops().len(), 1);
        let l = &forest.loops()[0];
        let (sb, _) = f.find_label(regions[0].start.label).unwrap();
        let (eb, _) = f.find_label(regions[0].end.label).unwrap();
        assert!(!l.contains(sb), "region start is outside the loop");
        assert!(!l.contains(eb), "region end is outside the loop");
    }

    #[test]
    fn fresh_within_loop_body_stays_per_iteration() {
        // Freshness is per-sample: def and use in the same iteration do
        // not need the loop enclosed.
        let (p, _, _) = run(r#"
            sensor s;
            fn main() {
                repeat 5 {
                    let v = in(s);
                    fresh(v);
                    out(log, v);
                }
            }
            "#);
        let regions = collect_regions(&p).unwrap();
        assert_eq!(regions.len(), 1);
        let f = p.func(p.main);
        let cfg = Cfg::new(f);
        let dom = DomTree::dominators(f, &cfg);
        let forest = LoopForest::new(f, &cfg, &dom);
        let l = &forest.loops()[0];
        let (sb, _) = f.find_label(regions[0].start.label).unwrap();
        assert!(l.contains(sb), "per-iteration region lives inside the loop");
    }

    #[test]
    fn fresh_spanning_loop_boundary_encloses_the_loop() {
        // The loop condition is control-tainted by inputs collected
        // before the loop and at the end of each iteration, so the
        // fresh use inside the body depends on a *previous-iteration*
        // input: no per-iteration region can cover the policy, and the
        // region must enclose the whole loop (plus the pre-loop input).
        let (p, ps, _) = run(r#"
            sensor level;
            sensor pressure;
            nv lvl = 0;
            fn main() {
                let first = in(level);
                lvl = first;
                while lvl > 0 {
                    let v = in(pressure);
                    fresh(v);
                    out(alarm, v);
                    let again = in(level);
                    lvl = again;
                }
            }
            "#);
        let regions = collect_regions(&p).unwrap();
        assert_eq!(regions.len(), 1);
        let report = crate::check::check_regions(&p, &ps).unwrap();
        assert!(report.passes(), "{report:?}");
        // The region bounds are outside the loop.
        let f = p.func(p.main);
        let cfg = Cfg::new(f);
        let dom = DomTree::dominators(f, &cfg);
        let forest = LoopForest::new(f, &cfg, &dom);
        assert_eq!(forest.loops().len(), 1);
        let l = &forest.loops()[0];
        let (sb, _) = f.find_label(regions[0].start.label).unwrap();
        let (eb, _) = f.find_label(regions[0].end.label).unwrap();
        assert!(!l.contains(sb), "start hoisted before the loop");
        assert!(!l.contains(eb), "end placed after the loop");
    }

    #[test]
    fn two_policies_two_regions() {
        let (p, _, inf) = run(r#"
            sensor tmp;
            sensor pres;
            sensor hum;
            fn main() {
                let x = in(tmp);
                fresh(x);
                if x > 5 { out(alarm, x); }
                let y = in(pres);
                consistent(y, 1);
                let z = in(hum);
                consistent(z, 1);
                out(log, y, z);
            }
            "#);
        assert_eq!(inf.policy_map.len(), 2);
        let regions = collect_regions(&p).unwrap();
        assert_eq!(regions.len(), 2);
        // Regions are disjoint: fresh region ends before consistent starts.
        let ops = main_ops(&p);
        let starts: Vec<usize> = ops
            .iter()
            .enumerate()
            .filter(|(_, o)| o.starts_with("startatom"))
            .map(|(i, _)| i)
            .collect();
        let ends: Vec<usize> = ops
            .iter()
            .enumerate()
            .filter(|(_, o)| o.starts_with("endatom"))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(starts.len(), 2);
        assert!(ends[0] < starts[1], "regions do not overlap");
    }

    #[test]
    fn taint_through_helper_argument_covers_both_ops() {
        // raw input in main, normalized through a callee: region covers
        // the input, the call, and the use.
        let (p, _, _) = run(r#"
            sensor s;
            fn norm(v) { return v + 1; }
            fn main() {
                let raw = in(s);
                let x = norm(raw);
                fresh(x);
                out(log, x);
            }
            "#);
        let regions = collect_regions(&p).unwrap();
        assert_eq!(regions.len(), 1);
        let ops = main_ops(&p);
        let start = ops.iter().position(|o| o.starts_with("startatom")).unwrap();
        let input = ops.iter().position(|o| o.contains("in(s)")).unwrap();
        let log = ops.iter().position(|o| o.contains("out(log")).unwrap();
        let end = ops.iter().position(|o| o.starts_with("endatom")).unwrap();
        assert!(start < input && input < log && log < end);
    }
}
