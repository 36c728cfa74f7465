//! WAR-dependence and exclusive-may-write (EMW) analysis for atomic
//! regions.
//!
//! An undo-logging atomic region must snapshot the non-volatile locations
//! it may corrupt on re-execution (§2.1): locations with a
//! Write-After-Read dependence inside the region, plus the
//! conditionally-written "exclusive may-write" set of prior work
//! [51, 52]. The region checkpoint set `ω` is their union; its byte size
//! drives the checkpoint cost in the runtime's energy model (this is
//! what makes whole-program Atomics-only execution expensive on `cem`,
//! Figure 7).

use crate::dom::Point;
use crate::effects::{expr_reads, global_effects, op_reads, op_write, GlobalEffects};
use ocelot_ir::{FuncId, Op, Program, Terminator};
use std::collections::BTreeSet;

/// Non-volatile footprint of one atomic region.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegionEffects {
    /// Globals with a read-then-write (WAR) pattern in the region.
    pub war: BTreeSet<String>,
    /// Globals written in the region without a detected prior read
    /// (conservatively, the exclusive may-write set).
    pub emw: BTreeSet<String>,
    /// All globals the region may read.
    pub(crate) reads: BTreeSet<String>,
}

impl RegionEffects {
    /// The undo-log checkpoint set `ω` — everything the region may write.
    pub fn omega(&self) -> BTreeSet<String> {
        self.war.union(&self.emw).cloned().collect()
    }

    /// Size in (simulated 16-bit) words of the undo log for `ω`, where an
    /// array costs its full length — backing a large structure into the
    /// undo log is exactly the cost cliff the paper describes for `cem`.
    pub fn omega_words(&self, p: &Program) -> usize {
        self.omega()
            .iter()
            .map(|g| p.global(g).and_then(|g| g.array_len).unwrap_or(1))
            .sum()
    }
}

/// Computes the non-volatile effects of a region given the instruction
/// points it contains in its host function plus every function reachable
/// from calls inside it.
///
/// `points` are `(block, index)` pairs within `func`; `index ==
/// instrs.len()` addresses the terminator. The classification is
/// conservative: a global both read and written anywhere in the region
/// counts as WAR; a global only written counts as EMW.
pub fn region_effects(p: &Program, func: FuncId, points: &[Point]) -> RegionEffects {
    let fx: Vec<GlobalEffects> = global_effects(p);
    let f = p.func(func);
    let mut reads = BTreeSet::new();
    let mut writes = BTreeSet::new();
    for pt in points {
        let block = f.block(pt.block);
        if pt.index < block.instrs.len() {
            let inst = &block.instrs[pt.index];
            for r in op_reads(&inst.op) {
                if p.is_global(&r) {
                    reads.insert(r);
                }
            }
            if let Some(w) = op_write(&inst.op) {
                if p.is_global(&w) {
                    writes.insert(w);
                }
            }
            if let Op::Call { callee, .. } = &inst.op {
                let ce = &fx[callee.0 as usize];
                reads.extend(ce.reads.iter().cloned());
                writes.extend(ce.writes.iter().cloned());
            }
        } else {
            match &block.term {
                Terminator::Branch { cond, .. } => {
                    for r in expr_reads(cond) {
                        if p.is_global(&r) {
                            reads.insert(r);
                        }
                    }
                }
                Terminator::Ret(Some(e)) => {
                    for r in expr_reads(e) {
                        if p.is_global(&r) {
                            reads.insert(r);
                        }
                    }
                }
                _ => {}
            }
        }
    }
    let war: BTreeSet<String> = writes.intersection(&reads).cloned().collect();
    let emw: BTreeSet<String> = writes.difference(&war).cloned().collect();
    RegionEffects { war, emw, reads }
}

/// Convenience: effects of an *entire function* treated as one region
/// (what an Atomics-only execution model does to whole phases).
pub fn whole_function_effects(p: &Program, func: FuncId) -> RegionEffects {
    let f = p.func(func);
    let mut points = Vec::new();
    for b in &f.blocks {
        for i in 0..=b.instrs.len() {
            points.push(Point::new(b.id, i));
        }
    }
    region_effects(p, func, &points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocelot_ir::lower::compile;

    #[test]
    fn war_requires_read_and_write() {
        let p = compile(
            "nv a = 0; nv b = 0; nv c = 0; fn main() { let x = a; a = x + 1; b = 2; let y = c; }",
        )
        .unwrap();
        let e = whole_function_effects(&p, p.main);
        assert!(e.war.contains("a"), "a is read then written");
        assert!(e.emw.contains("b"), "b is written only");
        assert!(
            !e.war.contains("c") && !e.emw.contains("c"),
            "c is read only"
        );
        assert!(e.reads.contains("c"));
        assert_eq!(
            e.omega(),
            BTreeSet::from(["a".to_string(), "b".to_string()])
        );
    }

    #[test]
    fn array_in_omega_costs_its_length() {
        let p = compile("nv log[64]; nv n = 0; fn main() { log[n] = 1; n = n + 1; }").unwrap();
        let e = whole_function_effects(&p, p.main);
        assert!(e.omega().contains("log"));
        assert!(e.war.contains("n"));
        // 64 words for the array + 1 for the counter.
        assert_eq!(e.omega_words(&p), 65);
    }

    #[test]
    fn callee_effects_included() {
        let p = compile(
            r#"
            nv g = 0;
            fn bump() { g = g + 1; }
            fn main() { bump(); }
            "#,
        )
        .unwrap();
        let e = whole_function_effects(&p, p.main);
        assert!(
            e.war.contains("g"),
            "WAR inside the callee is charged to the region"
        );
    }

    #[test]
    fn partial_region_sees_only_its_points() {
        let p = compile("nv a = 0; nv b = 0; fn main() { a = 1; b = 2; }").unwrap();
        let f = p.func(p.main);
        // Find the point of the `a = 1` instruction only.
        let mut pts = Vec::new();
        for blk in &f.blocks {
            for (i, inst) in blk.instrs.iter().enumerate() {
                if let Op::Assign { place, .. } = &inst.op {
                    if place.base() == "a" {
                        pts.push(Point::new(blk.id, i));
                    }
                }
            }
        }
        assert_eq!(pts.len(), 1);
        let e = region_effects(&p, p.main, &pts);
        assert!(e.omega().contains("a"));
        assert!(!e.omega().contains("b"));
    }

    #[test]
    fn branch_condition_counts_as_read() {
        let p = compile("nv g = 0; fn main() { if g > 0 { g = 0; } }").unwrap();
        let e = whole_function_effects(&p, p.main);
        assert!(e.war.contains("g"));
    }

    #[test]
    fn pure_region_has_empty_omega() {
        let p = compile("fn main() { let x = 1; let y = x + 2; out(log, y); }").unwrap();
        let e = whole_function_effects(&p, p.main);
        assert!(e.omega().is_empty());
        assert_eq!(e.omega_words(&p), 0);
    }
}
