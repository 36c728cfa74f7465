//! Atomic-region extents: locating `startatom`/`endatom` pairs, computing
//! the program points between them, and the region's non-volatile
//! checkpoint set `ω`.
//!
//! Used for regions Ocelot infers *and* regions the programmer placed
//! manually with `atomic { ... }` (§8) — both execute identically and
//! both need `ω` for undo logging.

use crate::error::CoreError;
use ocelot_analysis::dom::{DomTree, Point};
use ocelot_analysis::war::{region_effects, RegionEffects};
use ocelot_ir::cfg::Cfg;
use ocelot_ir::{BlockId, CallGraph, FuncId, InstrRef, Op, Program, RegionId};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Metadata for one atomic region.
#[derive(Debug, Clone)]
pub struct RegionInfo {
    /// The region's id.
    pub id: RegionId,
    /// The function hosting the `startatom`/`endatom` pair.
    pub func: FuncId,
    /// The `startatom` instruction.
    pub start: InstrRef,
    /// The `endatom` instruction.
    pub end: InstrRef,
    /// Non-volatile read/write footprint between start and end
    /// (including transitive callees).
    pub effects: RegionEffects,
    /// Undo-log size in words for `ω` (arrays cost their length).
    pub omega_words: usize,
}

/// Finds every region in the program and computes its extent and `ω`.
///
/// # Errors
///
/// Returns [`CoreError::Region`] if a region's start/end pair cannot be
/// located, or if the end does not post-dominate the start (e.g. a
/// `return` escapes a manual `atomic { }` block).
pub fn collect_regions(p: &Program) -> Result<Vec<RegionInfo>, CoreError> {
    let mut out = Vec::new();
    for f in &p.funcs {
        // Ordered by id, so a malformed program always reports its
        // lowest-numbered bad region.
        let mut starts: BTreeMap<RegionId, InstrRef> = BTreeMap::new();
        let mut ends: BTreeMap<RegionId, InstrRef> = BTreeMap::new();
        for (_, inst) in f.iter_insts() {
            match inst.op {
                Op::AtomStart { region } => {
                    starts.insert(
                        region,
                        InstrRef {
                            func: f.id,
                            label: inst.label,
                        },
                    );
                }
                Op::AtomEnd { region } => {
                    ends.insert(
                        region,
                        InstrRef {
                            func: f.id,
                            label: inst.label,
                        },
                    );
                }
                _ => {}
            }
        }
        if starts.is_empty() {
            continue;
        }
        let cfg = Cfg::new(f);
        let pdom = DomTree::post_dominators(f, &cfg);
        for (rid, start) in starts {
            let end = *ends.get(&rid).ok_or_else(|| {
                CoreError::region(format!(
                    "region r{} has a start but no end in `{}`",
                    rid.0, f.name
                ))
            })?;
            let (sb, si) = f.find_label(start.label).expect("start label exists");
            let (eb, ei) = f.find_label(end.label).expect("end label exists");
            if !point_post_dominates_region(&pdom, eb, ei, sb, si) {
                return Err(CoreError::region(format!(
                    "region r{} end does not post-dominate its start in `{}` \
                     (a return or branch escapes the region)",
                    rid.0, f.name
                )));
            }
            let points = extent_points(f, &cfg, Point::new(sb, si), Point::new(eb, ei));
            let effects = region_effects(p, f.id, &points);
            let omega_words = effects.omega_words(p);
            out.push(RegionInfo {
                id: rid,
                func: f.id,
                start,
                end,
                effects,
                omega_words,
            });
        }
    }
    out.sort_by_key(|r| r.id);
    Ok(out)
}

fn point_post_dominates_region(
    pdom: &DomTree,
    eb: BlockId,
    ei: usize,
    sb: BlockId,
    si: usize,
) -> bool {
    if eb == sb {
        ei >= si
    } else {
        pdom.strictly_dominates(eb, sb)
    }
}

/// The instruction points strictly between a region's start and end
/// (exclusive of the `startatom`/`endatom` markers themselves).
///
/// Walks forward from the start block, not expanding past the end block;
/// because the end post-dominates the start, every path is eventually cut
/// off at the end block.
pub fn extent_points(f: &ocelot_ir::Function, cfg: &Cfg, start: Point, end: Point) -> Vec<Point> {
    let mut points = Vec::new();
    if start.block == end.block {
        for i in (start.index + 1)..end.index {
            points.push(Point::new(start.block, i));
        }
        return points;
    }
    // Start block: everything after the marker, including the terminator.
    let sb = f.block(start.block);
    for i in (start.index + 1)..=sb.instrs.len() {
        points.push(Point::new(start.block, i));
    }
    // Middle blocks.
    let mut seen = BTreeSet::from([start.block, end.block]);
    let mut queue: VecDeque<BlockId> = cfg.succs(start.block).iter().copied().collect();
    while let Some(b) = queue.pop_front() {
        if !seen.insert(b) {
            continue;
        }
        let blk = f.block(b);
        for i in 0..=blk.instrs.len() {
            points.push(Point::new(b, i));
        }
        for s in cfg.succs(b) {
            queue.push_back(*s);
        }
    }
    // End block: everything before the marker.
    for i in 0..end.index {
        points.push(Point::new(end.block, i));
    }
    points
}

/// The set of instructions statically covered by a region: every point in
/// its extent, plus — for each call inside the extent — every instruction
/// of the transitively-called functions (a callee's whole body executes
/// within the region).
pub fn covered_refs(p: &Program, info: &RegionInfo) -> BTreeSet<InstrRef> {
    let cfg = Cfg::new(p.func(info.func));
    let mut out = BTreeSet::new();
    visit_covered(p, &cfg, &CallGraph::new(p), info, |r| {
        out.insert(r);
    });
    out
}

/// Calls `visit` on every instruction [`covered_refs`] returns, given
/// the CFG of the region's host function and the program's call graph;
/// an instruction may be visited more than once.
pub fn visit_covered(
    p: &Program,
    cfg: &Cfg,
    cg: &CallGraph,
    info: &RegionInfo,
    mut visit: impl FnMut(InstrRef),
) {
    let f = p.func(info.func);
    let (sb, si) = f.find_label(info.start.label).expect("start exists");
    let (eb, ei) = f.find_label(info.end.label).expect("end exists");
    let mut callee_funcs: BTreeSet<FuncId> = BTreeSet::new();
    for pt in extent_points(f, cfg, Point::new(sb, si), Point::new(eb, ei)) {
        let blk = f.block(pt.block);
        let label = match blk.instrs.get(pt.index) {
            Some(inst) => {
                if let Op::Call { callee, .. } = &inst.op {
                    callee_funcs.extend(cg.reachable_from(*callee));
                }
                inst.label
            }
            None => blk.term_label,
        };
        visit(InstrRef { func: f.id, label });
    }
    for cf in callee_funcs {
        for b in &p.func(cf).blocks {
            for label in b.instrs.iter().map(|i| i.label).chain([b.term_label]) {
                visit(InstrRef { func: cf, label });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocelot_ir::compile;

    #[test]
    fn a_program_with_several_bad_regions_always_reports_the_lowest_id() {
        let mut p = crate::ocelot_transform(
            compile(
                "sensor s; nv g = 0; fn main() { \
                 atomic { g = 1; } atomic { g = 2; } atomic { g = 3; } }",
            )
            .unwrap(),
        )
        .unwrap()
        .program;
        for f in &mut p.funcs {
            for b in &mut f.blocks {
                b.instrs.retain(|i| !matches!(i.op, Op::AtomEnd { .. }));
            }
        }
        for _ in 0..50 {
            let err = collect_regions(&p).unwrap_err().to_string();
            assert_eq!(
                err,
                "malformed region: region r0 has a start but no end in `main`"
            );
        }
    }

    #[test]
    fn manual_region_extent_and_omega() {
        let p = compile(
            r#"
            sensor s;
            nv g = 0;
            fn main() {
                let a = 1;
                atomic {
                    let v = in(s);
                    g = g + v;
                }
                let b = 2;
            }
            "#,
        )
        .unwrap();
        let regions = collect_regions(&p).unwrap();
        assert_eq!(regions.len(), 1);
        let r = &regions[0];
        assert!(r.effects.war.contains("g"));
        assert_eq!(r.omega_words, 1);
    }

    #[test]
    fn region_spanning_branch_covers_both_arms() {
        let p = compile(
            r#"
            sensor s;
            nv g = 0;
            nv h = 0;
            fn main() {
                atomic {
                    let v = in(s);
                    if v > 0 { g = 1; } else { h = 2; }
                }
            }
            "#,
        )
        .unwrap();
        let regions = collect_regions(&p).unwrap();
        let r = &regions[0];
        assert!(r.effects.omega().contains("g"));
        assert!(r.effects.omega().contains("h"));
    }

    #[test]
    fn covered_refs_include_callee_bodies() {
        let p = compile(
            r#"
            sensor s;
            fn grab() { let v = in(s); return v; }
            fn main() {
                atomic {
                    let x = grab();
                    out(log, x);
                }
            }
            "#,
        )
        .unwrap();
        let regions = collect_regions(&p).unwrap();
        let cov = covered_refs(&p, &regions[0]);
        let grab = p.func_by_name("grab").unwrap();
        let (input_ref, _) = p.input_ops()[0].clone();
        assert_eq!(input_ref.func, grab);
        assert!(cov.contains(&input_ref), "callee input op is covered");
    }

    #[test]
    fn instructions_outside_region_not_covered() {
        let p = compile(
            r#"
            sensor s;
            fn main() {
                let before = 1;
                atomic { let v = in(s); }
                out(log, before);
            }
            "#,
        )
        .unwrap();
        let regions = collect_regions(&p).unwrap();
        let cov = covered_refs(&p, &regions[0]);
        let f = p.func(p.main);
        // The `let before = 1` bind is outside.
        let before_ref = f
            .iter_insts()
            .find_map(|(_, i)| match &i.op {
                Op::Bind { var, .. } if var == "before" => Some(InstrRef {
                    func: f.id,
                    label: i.label,
                }),
                _ => None,
            })
            .unwrap();
        assert!(!cov.contains(&before_ref));
        // The input inside is covered.
        let (input_ref, _) = p.input_ops()[0].clone();
        assert!(cov.contains(&input_ref));
    }

    #[test]
    fn escaping_return_is_rejected() {
        let p = compile(
            r#"
            sensor s;
            fn main() {
                atomic {
                    let v = in(s);
                    if v > 0 { return 1; }
                }
            }
            "#,
        )
        .unwrap();
        let err = collect_regions(&p).unwrap_err();
        assert!(err.to_string().contains("post-dominate"));
    }

    #[test]
    fn no_regions_yields_empty() {
        let p = compile("fn main() { let x = 1; }").unwrap();
        assert!(collect_regions(&p).unwrap().is_empty());
    }
}
