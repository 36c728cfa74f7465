//! A TICS-style *expiration-time* detector — the prior approach the
//! paper argues against (§2.3).
//!
//! TICS-like systems \[27\] attach a programmer-chosen real-time expiry
//! window to each time-sensitive value and check, at each use, that the
//! value's age (read from added timekeeping hardware) is within the
//! window. The paper's critique, which this module makes measurable:
//!
//! 1. **Windows are deployment-dependent.** A window that is too long
//!    *misses* real freshness violations ("an execution may misbehave
//!    without an expiration time violation"); one that is too short
//!    trips on perfectly fresh data and runs mitigation handlers for
//!    nothing.
//! 2. **Timeliness is not temporal consistency.** No choice of window
//!    expresses "these two samples must come from the same moment":
//!    both samples can be individually young yet straddle a reboot.
//!
//! [`evaluate_expiry`] replays a committed observation trace under a
//! given window and scores it against ground truth (the era-based
//! checker of [`crate::detect::check_trace`], i.e. Definitions 2/3).

use crate::detect::{check_trace, ViolationKind};
use crate::obs::Obs;
use ocelot_analysis::taint::Prov;
use ocelot_core::{PolicyKind, PolicySet};
use std::collections::{BTreeMap, BTreeSet};

/// Outcome of replaying one trace under an expiry window.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExpiryReport {
    /// Uses where the expiry check tripped (TICS would run a handler).
    pub(crate) trips: usize,
    /// Uses that really violated freshness (ground truth).
    pub true_freshness_violations: usize,
    /// Ground-truth freshness violations the expiry check *missed*
    /// (stale data sailed under the window) — the paper's headline
    /// failure mode.
    pub missed: usize,
    /// Expiry trips on uses that were *not* violations (handler runs on
    /// fresh data).
    pub spurious: usize,
    /// Ground-truth temporal-consistency violations, which no expiry
    /// window can express (always missed by TICS).
    pub consistency_violations_unexpressible: usize,
}

/// Replays `trace` with a TICS-style check: at each recorded use of a
/// fresh policy, every input chain's most recent collection must be no
/// older than `window_us` of wall-clock time. Scores the result against
/// the era-based ground truth.
pub fn evaluate_expiry(policies: &PolicySet, trace: &[Obs], window_us: u64) -> ExpiryReport {
    // Ground truth, keyed by (use site, tau) for freshness events.
    let truth = check_trace(policies, trace);
    let mut true_fresh: BTreeSet<(ocelot_ir::InstrRef, u64)> = BTreeSet::new();
    let mut consistency = 0usize;
    for v in &truth {
        match v.kind {
            ViolationKind::Freshness => {
                true_fresh.insert((v.at, v.tau));
            }
            ViolationKind::Consistency => consistency += 1,
        }
    }

    let mut collected_at: BTreeMap<std::sync::Arc<Prov>, u64> = BTreeMap::new();
    let mut report = ExpiryReport {
        true_freshness_violations: true_fresh.len(),
        consistency_violations_unexpressible: consistency,
        ..Default::default()
    };
    let mut caught: BTreeSet<(ocelot_ir::InstrRef, u64)> = BTreeSet::new();

    for o in trace {
        match o {
            Obs::Input { chain, time_us, .. } => {
                collected_at.insert(std::sync::Arc::clone(chain), *time_us);
            }
            Obs::Use {
                at, tau, time_us, ..
            } => {
                for pol in policies.iter() {
                    if pol.kind != PolicyKind::Fresh || !pol.uses.contains(at) {
                        continue;
                    }
                    let expired = pol.inputs.iter().any(|chain| {
                        match collected_at.get(chain) {
                            Some(t) => time_us.saturating_sub(*t) > window_us,
                            // Never collected: TICS treats missing
                            // timestamps as expired.
                            None => true,
                        }
                    });
                    if expired {
                        report.trips += 1;
                        if true_fresh.contains(&(*at, *tau)) {
                            caught.insert((*at, *tau));
                        } else {
                            report.spurious += 1;
                        }
                    }
                }
            }
            _ => {}
        }
    }
    report.missed = true_fresh.difference(&caught).count();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use crate::model::{build, ExecModel};
    use ocelot_hw::energy::CostModel;
    use ocelot_hw::power::{RandomPower, ScriptedPower};
    use ocelot_hw::sensors::{Environment, Signal};

    /// Runs a small fresh-constrained program under JIT, failing every
    /// ~3 µJ with a fixed `off_us` charging gap.
    fn jit_trace_fixed_off(off_us: u64) -> (PolicySet, Vec<Obs>) {
        let src = r#"
            sensor s;
            fn main() {
                let x = in(s);
                fresh(x);
                let y = x * 2;
                out(log, x);
            }
        "#;
        let built = build(ocelot_ir::compile(src).unwrap(), ExecModel::Jit).unwrap();
        let mut m = Machine::new(
            &built.program,
            &built.regions,
            built.policies.clone(),
            Environment::new().with("s", Signal::Constant(5)),
            CostModel::default(),
            Box::new(ScriptedPower::new(
                // Budgets drift across the run so failures land at
                // every program point, including between the input's
                // completion and its uses.
                (0..200)
                    .map(|i| 4_300.0 + (i % 11) as f64 * 150.0)
                    .collect(),
                off_us,
            )),
        );
        for _ in 0..40 {
            m.run_once(1_000_000);
        }
        (built.policies, m.take_trace())
    }

    /// Same program under exponential random failures.
    fn jit_trace(seed: u64) -> (PolicySet, Vec<Obs>) {
        let src = r#"
            sensor s;
            fn main() {
                let x = in(s);
                fresh(x);
                let y = x * 2;
                out(log, x);
            }
        "#;
        let built = build(ocelot_ir::compile(src).unwrap(), ExecModel::Jit).unwrap();
        let mut m = Machine::new(
            &built.program,
            &built.regions,
            built.policies.clone(),
            Environment::new().with("s", Signal::Constant(5)),
            CostModel::default(),
            Box::new(RandomPower::new(3_000.0, 100_000, seed)),
        );
        for _ in 0..40 {
            m.run_once(1_000_000);
        }
        (built.policies, m.take_trace())
    }

    #[test]
    fn infinite_window_misses_every_real_violation() {
        let (policies, trace) = jit_trace(5);
        let truth = check_trace(&policies, &trace);
        assert!(!truth.is_empty(), "random failures must cause violations");
        let r = evaluate_expiry(&policies, &trace, u64::MAX / 2);
        assert!(r.true_freshness_violations > 0);
        assert_eq!(r.missed, r.true_freshness_violations, "all missed");
        assert_eq!(r.trips, 0, "a huge window never trips");
    }

    #[test]
    fn zero_window_trips_on_everything() {
        let (policies, trace) = jit_trace(5);
        let r = evaluate_expiry(&policies, &trace, 0);
        // Every use trips (the collection is always >0 µs old).
        assert!(r.trips >= r.true_freshness_violations);
        assert_eq!(r.missed, 0, "nothing missed");
        assert!(
            r.spurious > 0,
            "fresh uses also tripped: handlers for nothing"
        );
    }

    #[test]
    fn well_chosen_window_works_for_one_deployment() {
        // Off-time is exactly 100 ms; a 10 ms window catches every
        // reboot-straddling use without tripping on same-era uses.
        let (policies, trace) = jit_trace_fixed_off(100_000);
        let r = evaluate_expiry(&policies, &trace, 10_000);
        assert!(r.true_freshness_violations > 0);
        assert_eq!(r.missed, 0, "10ms window sees 100ms gaps");
        assert_eq!(r.spurious, 0, "same-era uses are far younger than 10ms");
    }

    #[test]
    fn same_window_fails_in_a_faster_deployment() {
        // The identical 10 ms window deployed where charging takes only
        // 5 ms: every era break now sails under the window — the program
        // "misbehaves without an expiration time violation" (§2.3).
        let (policies, trace) = jit_trace_fixed_off(5_000);
        let r = evaluate_expiry(&policies, &trace, 10_000);
        assert!(r.true_freshness_violations > 0);
        assert_eq!(r.missed, r.true_freshness_violations, "all missed");
    }

    #[test]
    fn consistency_is_unexpressible() {
        let src = r#"
            sensor a; sensor b;
            fn main() {
                let x = in(a);
                consistent(x, 1);
                let y = in(b);
                consistent(y, 1);
                out(log, x, y);
            }
        "#;
        let built = build(ocelot_ir::compile(src).unwrap(), ExecModel::Jit).unwrap();
        let mut m = Machine::new(
            &built.program,
            &built.regions,
            built.policies.clone(),
            Environment::new(),
            CostModel::default(),
            Box::new(RandomPower::new(5_000.0, 50_000, 3)),
        );
        for _ in 0..60 {
            m.run_once(1_000_000);
        }
        let trace = m.take_trace();
        let r = evaluate_expiry(&built.policies, &trace, 1);
        assert!(
            r.consistency_violations_unexpressible > 0,
            "failures between the pair must have split some sets"
        );
        // Even a 1 µs window — maximal paranoia — cannot express the
        // property: there are no Fresh uses to check at all here.
        assert_eq!(r.trips, 0);
    }
}
