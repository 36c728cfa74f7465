//! Region energy budgets and feasibility verdicts.
//!
//! §5.3: *"any atomic region must be able to complete with the energy
//! that can be stored in the buffer"* — a region whose worst-case attempt
//! exceeds the usable capacity rolls back forever and the program makes
//! no forward progress. This module turns the worst-case cycle bounds of
//! `crate::wcet` into per-region energy budgets, checks them against a
//! concrete capacitor, and derives the minimum buffer a program needs —
//! the §10 "reasoning about forward progress" future work, built on
//! Ocelot's minimal regions.
//!
//! The feasibility condition mirrors the runtime exactly:
//!
//! * a failed region attempt restores from the comparator *reserve* and
//!   re-runs the body with a freshly-charged capacitor, so the body must
//!   fit in `capacity − trigger`;
//! * the `startatom` entry (checkpoint + eager `ω` log) is one operation
//!   retried under JIT semantics, so it must independently fit;
//! * the trigger reserve itself must cover the worst-case JIT checkpoint
//!   (§6.3's standing assumption).

use crate::error::ProgressError;
use crate::wcet::WcetAnalysis;
use ocelot_core::RegionInfo;
use ocelot_hw::energy::{Capacitor, CostModel};
use ocelot_ir::{Program, RegionId};
use std::fmt;

/// Worst-case budget of one atomic region.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionBudget {
    /// The region.
    pub region: RegionId,
    /// Name of the host function.
    pub func: String,
    /// Cycles to enter: volatile checkpoint + eager undo log of `ω`.
    pub entry_cycles: u64,
    /// Worst-case cycles of one body attempt (through the commit).
    pub body_cycles: u64,
    /// Eager undo-log size in words.
    pub omega_words: usize,
    /// Energy of the binding (largest) phase, in nanojoules.
    pub(crate) attempt_nj: f64,
}

impl RegionBudget {
    /// The cycles of the binding phase: entry and body each get a fresh
    /// capacitor, so the larger of the two decides feasibility.
    pub(crate) fn binding_cycles(&self) -> u64 {
        self.entry_cycles.max(self.body_cycles)
    }
}

/// One region's verdict against a concrete capacitor.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// The region always completes; `headroom_nj` of usable energy
    /// remains in the worst case.
    Feasible {
        /// Usable energy left after the worst-case attempt.
        headroom_nj: f64,
    },
    /// The region can never complete: its worst-case attempt needs
    /// `deficit_nj` more than the usable capacity. The program livelocks
    /// at this region (§5.3: "such a program fundamentally cannot run
    /// correctly").
    Infeasible {
        /// Shortfall of usable energy in the worst case.
        deficit_nj: f64,
    },
}

impl Verdict {
    /// True for [`Verdict::Feasible`].
    pub(crate) fn is_feasible(&self) -> bool {
        matches!(self, Verdict::Feasible { .. })
    }
}

/// The whole-program forward-progress report.
#[derive(Debug, Clone)]
pub struct ProgressReport {
    /// Per-region budgets, in region order.
    pub regions: Vec<RegionBudget>,
    /// Worst-case JIT checkpoint anywhere, in cycles (the trigger
    /// reserve must cover this).
    pub(crate) worst_jit_checkpoint_cycles: u64,
    /// The cost model used (for energy conversions when checking).
    costs: CostModel,
}

impl ProgressReport {
    /// Analyzes every region of `p`.
    ///
    /// # Errors
    ///
    /// Propagates worst-case-analysis failures (unbounded loops,
    /// irreducible flow, malformed regions).
    pub fn analyze(
        p: &Program,
        regions: &[RegionInfo],
        costs: &CostModel,
    ) -> Result<Self, ProgressError> {
        let w = WcetAnalysis::new(p, costs, regions);
        let mut budgets = Vec::with_capacity(regions.len());
        for info in regions {
            let entry_cycles = w.region_entry_cycles(info);
            let body_cycles = w.region_body_wcet(info)?;
            let attempt_nj = costs.cycles_to_nj(entry_cycles.max(body_cycles));
            budgets.push(RegionBudget {
                region: info.id,
                func: p.func(info.func).name.clone(),
                entry_cycles,
                body_cycles,
                omega_words: info.omega_words,
                attempt_nj,
            });
        }
        Ok(ProgressReport {
            regions: budgets,
            worst_jit_checkpoint_cycles: w.worst_jit_checkpoint_cycles(),
            costs: costs.clone(),
        })
    }

    /// Checks every region against `cap`, pairing each budget with its
    /// verdict.
    pub fn check(&self, cap: &Capacitor) -> Vec<(&RegionBudget, Verdict)> {
        let usable = cap.capacity_nj() - cap.trigger_nj();
        self.regions
            .iter()
            .map(|b| {
                let need = self.costs.cycles_to_nj(b.binding_cycles());
                let v = if need <= usable {
                    Verdict::Feasible {
                        headroom_nj: usable - need,
                    }
                } else {
                    Verdict::Infeasible {
                        deficit_nj: need - usable,
                    }
                };
                (b, v)
            })
            .collect()
    }

    /// True when every region completes on `cap` *and* the trigger
    /// reserve covers the worst-case JIT checkpoint.
    pub fn feasible_on(&self, cap: &Capacitor) -> bool {
        self.reserve_covers_checkpoint(cap) && self.check(cap).iter().all(|(_, v)| v.is_feasible())
    }

    /// §6.3's standing assumption, checked: the reserve below the
    /// comparator trigger suffices for the worst-case JIT checkpoint.
    pub fn reserve_covers_checkpoint(&self, cap: &Capacitor) -> bool {
        self.costs.cycles_to_nj(self.worst_jit_checkpoint_cycles) <= cap.trigger_nj()
    }

    /// The largest single-region demand, in nanojoules of usable energy.
    pub fn peak_demand_nj(&self) -> f64 {
        self.regions
            .iter()
            .map(|b| self.costs.cycles_to_nj(b.binding_cycles()))
            .fold(0.0, f64::max)
    }

    /// The smallest capacitor (capacity, trigger) on which the program
    /// makes progress: trigger covers the worst JIT checkpoint, usable
    /// capacity covers the hungriest region, plus `margin` (e.g. `0.1`
    /// for 10 %) of slack.
    pub fn min_capacitor(&self, margin: f64) -> Capacitor {
        let trigger = self.costs.cycles_to_nj(self.worst_jit_checkpoint_cycles) * (1.0 + margin);
        // Even a region-free program needs room for one instruction
        // above the trigger.
        let usable = (self.peak_demand_nj() * (1.0 + margin)).max(self.costs.input as f64);
        Capacitor::new(trigger + usable, trigger)
    }
}

impl fmt::Display for ProgressReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<8} {:<14} {:>12} {:>12} {:>8} {:>12}",
            "region", "function", "entry(cyc)", "body(cyc)", "ω(words)", "attempt(µJ)"
        )?;
        for b in &self.regions {
            writeln!(
                f,
                "r{:<7} {:<14} {:>12} {:>12} {:>8} {:>12.2}",
                b.region.0,
                b.func,
                b.entry_cycles,
                b.body_cycles,
                b.omega_words,
                b.attempt_nj / 1000.0
            )?;
        }
        writeln!(
            f,
            "worst JIT checkpoint: {} cycles ({:.2} µJ must fit in the trigger reserve)",
            self.worst_jit_checkpoint_cycles,
            self.costs.cycles_to_nj(self.worst_jit_checkpoint_cycles) / 1000.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocelot_ir::compile;

    fn report(src: &str) -> (Program, ProgressReport) {
        let p = compile(src).unwrap();
        let regions = ocelot_core::collect_regions(&p).unwrap();
        let r = ProgressReport::analyze(&p, &regions, &CostModel::default()).unwrap();
        (p, r)
    }

    const SMALL: &str = r#"
        sensor s;
        nv g = 0;
        fn main() {
            atomic { let v = in(s); g = g + v; }
            out(log, g);
        }
    "#;

    #[test]
    fn small_region_is_feasible_on_capybara() {
        let (_, r) = report(SMALL);
        assert_eq!(r.regions.len(), 1);
        let cap = Capacitor::capybara();
        assert!(r.feasible_on(&cap));
        let checks = r.check(&cap);
        assert!(matches!(checks[0].1, Verdict::Feasible { headroom_nj } if headroom_nj > 0.0));
    }

    #[test]
    fn hungry_region_is_infeasible_on_tiny_buffer() {
        let (_, r) = report(
            r#"
            sensor s;
            fn main() {
                atomic {
                    repeat 20 { let v = in(s); out(log, v); }
                }
            }
            "#,
        );
        // 20 × (input + output) ≫ 10 µJ usable.
        let tiny = Capacitor::new(10_000.0, 4_000.0);
        assert!(!r.feasible_on(&tiny));
        let checks = r.check(&tiny);
        assert!(matches!(checks[0].1, Verdict::Infeasible { deficit_nj } if deficit_nj > 0.0));
        // But a large-enough buffer fixes it.
        let big = r.min_capacitor(0.1);
        assert!(r.feasible_on(&big));
    }

    #[test]
    fn min_capacitor_is_tight() {
        let (_, r) = report(SMALL);
        let min = r.min_capacitor(0.05);
        assert!(r.feasible_on(&min));
        // Shrinking the usable capacity below the peak demand breaks it.
        let too_small = Capacitor::new(
            min.trigger_nj() + r.peak_demand_nj() * 0.5,
            min.trigger_nj(),
        );
        assert!(!r.feasible_on(&too_small));
    }

    #[test]
    fn region_free_program_needs_only_reserve() {
        let (_, r) = report("fn main() { let x = 1; out(log, x); }");
        assert!(r.regions.is_empty());
        assert_eq!(r.peak_demand_nj(), 0.0);
        assert!(r.feasible_on(&Capacitor::capybara()));
        // The suggested minimum still has usable headroom above trigger.
        let min = r.min_capacitor(0.0);
        assert!(min.capacity_nj() > min.trigger_nj());
    }

    #[test]
    fn report_renders_a_table() {
        let (_, r) = report(SMALL);
        let text = r.to_string();
        assert!(text.contains("region"));
        assert!(text.contains("worst JIT checkpoint"));
        assert!(text.contains("r0") || text.contains("r1"));
    }

    #[test]
    fn reserve_check_fails_when_trigger_too_low() {
        let (_, r) = report(SMALL);
        let nj = CostModel::default();
        let worst = nj.cycles_to_nj(r.worst_jit_checkpoint_cycles);
        let low_trigger = Capacitor::new(worst * 10.0, worst * 0.5);
        assert!(!r.reserve_covers_checkpoint(&low_trigger));
        assert!(!r.feasible_on(&low_trigger));
    }
}
