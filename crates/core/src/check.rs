//! The §5.2 sanity checks: programs that pass satisfy their policies
//! (Theorem 1).
//!
//! Two judgments are implemented:
//!
//! * **Policy-declaration checking** (Appendix E): every input an
//!   annotated variable depends on, and every use of a fresh variable,
//!   must appear in the policy declaration. Since this crate *derives*
//!   policies from the taint analysis, the check re-derives them
//!   independently and verifies containment — usable as a validation
//!   tool for externally-supplied policy declarations.
//! * **Atomic-region checking** (Appendix D): all operations of each
//!   policy must appear within a single atomic region, following call
//!   chains. This is the check that makes *checker mode* (§8) possible:
//!   run it on a program with manually-placed `atomic { }` regions to
//!   learn whether the placement enforces the annotations.

use crate::policy::{build_policies, Policy, PolicyId, PolicySet};
use crate::region::{collect_regions, covered_refs, RegionInfo};
use ocelot_analysis::taint::TaintAnalysis;
use ocelot_ir::{InstrRef, Program, RegionId};
use std::collections::BTreeSet;
use std::fmt;

/// A policy whose operations are not enclosed by any single region.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The violated policy.
    pub policy: PolicyId,
    /// Human-readable description of the policy.
    pub describe: String,
    /// Operations not covered by the best candidate region.
    pub missing: Vec<InstrRef>,
    /// The region that came closest, if any.
    pub best_region: Option<RegionId>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "policy {} ({}) is not enclosed by any single atomic region; \
             {} operation(s) uncovered",
            self.policy.0,
            self.describe,
            self.missing.len()
        )
    }
}

/// Result of checking a program against its policies.
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    /// Violations found (empty means the program passes).
    pub violations: Vec<Violation>,
    /// Policies that were vacuous (no input dependence) and hence
    /// trivially satisfied.
    pub vacuous: Vec<PolicyId>,
    /// For each satisfied policy, the region that encloses it.
    pub enforced_by: Vec<(PolicyId, RegionId)>,
}

impl CheckReport {
    /// True when every policy is enforced.
    pub fn passes(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Checks that every policy's operations sit inside a single atomic
/// region (Appendix D). Works for inferred and manually-placed regions
/// alike — this is Ocelot's checker mode (§8).
///
/// # Errors
///
/// Returns [`crate::error::CoreError`] if region structure is malformed
/// (unmatched or escaping regions).
pub fn check_regions(
    p: &Program,
    policies: &PolicySet,
) -> Result<CheckReport, crate::error::CoreError> {
    let regions = collect_regions(p)?;
    Ok(check_with_regions(p, &regions, policies))
}

/// [`check_regions`] over regions the caller already collected from
/// `p`, so the transform walks each region's effects once.
pub(crate) fn check_with_regions(
    p: &Program,
    regions: &[RegionInfo],
    policies: &PolicySet,
) -> CheckReport {
    let coverage: Vec<(RegionId, BTreeSet<InstrRef>)> =
        regions.iter().map(|r| (r.id, covered_refs(p, r))).collect();

    let mut report = CheckReport::default();
    for pol in policies.iter() {
        if pol.is_vacuous() {
            report.vacuous.push(pol.id);
            continue;
        }
        let required = required_ops(p, pol);
        let mut best: Option<(RegionId, Vec<InstrRef>)> = None;
        for (rid, cov) in &coverage {
            let missing: Vec<InstrRef> = required
                .iter()
                .filter(|r| !cov.contains(r))
                .copied()
                .collect();
            if missing.is_empty() {
                best = Some((*rid, missing));
                break;
            }
            match &best {
                Some((_, m)) if m.len() <= missing.len() => {}
                _ => best = Some((*rid, missing)),
            }
        }
        match best {
            Some((rid, missing)) if missing.is_empty() => {
                report.enforced_by.push((pol.id, rid));
            }
            Some((rid, missing)) => report.violations.push(Violation {
                policy: pol.id,
                describe: format!("{:?}", pol.kind),
                missing,
                best_region: Some(rid),
            }),
            None => report.violations.push(Violation {
                policy: pol.id,
                describe: format!("{:?}", pol.kind),
                missing: required.into_iter().collect(),
                best_region: None,
            }),
        }
    }
    report
}

/// The operations a region must cover for a policy: input operations
/// (via their chains — the deepest element suffices, since
/// [`covered_refs`] includes callee bodies reached from covered call
/// sites), declarations that carry inputs, and uses. Annotation sites
/// that were erased by the transform are skipped (their variable's
/// constraint is represented by the inputs and uses).
fn required_ops(p: &Program, pol: &Policy) -> BTreeSet<InstrRef> {
    let mut out = BTreeSet::new();
    for chain in &pol.inputs {
        if let Some(tail) = chain.last() {
            out.insert(*tail);
        }
    }
    for d in &pol.decls {
        if !d.inputs.is_empty() && resolves(p, d.at) {
            out.insert(d.at);
        }
    }
    for u in &pol.uses {
        if resolves(p, *u) {
            out.insert(*u);
        }
    }
    out
}

fn resolves(p: &Program, r: InstrRef) -> bool {
    p.funcs
        .get(r.func.0 as usize)
        .is_some_and(|f| f.find_label(r.label).is_some())
}

/// Re-derives policies from scratch and verifies that `claimed` covers
/// them: every recomputed input chain and use must appear in the claimed
/// policy with the same annotation site (the Appendix E containment
/// direction). Returns the list of discrepancies, empty when `claimed`
/// is adequate.
pub fn verify_policy_declarations(p: &Program, claimed: &PolicySet) -> Vec<String> {
    let taint = TaintAnalysis::run(p);
    let fresh = build_policies(p, &taint);
    let mut problems = Vec::new();
    for want in fresh.iter() {
        let Some(have) = claimed.iter().find(|c| {
            c.kind == want.kind
                && c.decls.iter().map(|d| d.at).collect::<BTreeSet<_>>()
                    == want.decls.iter().map(|d| d.at).collect::<BTreeSet<_>>()
        }) else {
            problems.push(format!(
                "no claimed policy matches {:?} declared at {:?}",
                want.kind,
                want.decls.iter().map(|d| d.at).collect::<Vec<_>>()
            ));
            continue;
        };
        for chain in &want.inputs {
            if !have.inputs.contains(chain) {
                problems.push(format!(
                    "claimed {:?} policy is missing input chain {:?}",
                    want.kind, chain
                ));
            }
        }
        for u in &want.uses {
            if !have.uses.contains(u) {
                problems.push(format!("claimed {:?} policy is missing use {u}", want.kind));
            }
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::build_policies;
    use ocelot_analysis::taint::TaintAnalysis;
    use ocelot_ir::compile;

    fn setup(src: &str) -> (Program, PolicySet) {
        let p = compile(src).unwrap();
        ocelot_ir::validate(&p).unwrap();
        let t = TaintAnalysis::run(&p);
        let ps = build_policies(&p, &t);
        (p, ps)
    }

    #[test]
    fn manual_region_covering_policy_passes() {
        let (p, ps) = setup(
            r#"
            sensor s;
            fn main() {
                atomic {
                    let x = in(s);
                    fresh(x);
                    out(log, x);
                }
            }
            "#,
        );
        let report = check_regions(&p, &ps).unwrap();
        assert!(report.passes(), "{:?}", report.violations);
        assert_eq!(report.enforced_by.len(), 1);
    }

    #[test]
    fn missing_region_is_a_violation() {
        let (p, ps) = setup("sensor s; fn main() { let x = in(s); fresh(x); out(log, x); }");
        let report = check_regions(&p, &ps).unwrap();
        assert!(!report.passes());
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0].best_region.is_none());
    }

    #[test]
    fn region_too_small_is_a_violation() {
        // The use escapes the manual region.
        let (p, ps) = setup(
            r#"
            sensor s;
            fn main() {
                atomic {
                    let x = in(s);
                    fresh(x);
                }
                out(log, x);
            }
            "#,
        );
        let report = check_regions(&p, &ps).unwrap();
        assert!(!report.passes());
        let v = &report.violations[0];
        assert_eq!(v.missing.len(), 1, "exactly the escaped use");
        assert!(v.best_region.is_some());
    }

    #[test]
    fn consistent_pair_split_across_regions_fails() {
        // Two inputs of one consistent set in *different* regions: the
        // paper's Appendix D requires a single region.
        let (p, ps) = setup(
            r#"
            sensor a; sensor b;
            fn main() {
                atomic { let x = in(a); consistent(x, 1); }
                atomic { let y = in(b); consistent(y, 1); }
            }
            "#,
        );
        let report = check_regions(&p, &ps).unwrap();
        assert!(!report.passes());
    }

    #[test]
    fn callee_input_covered_through_call_site() {
        let (p, ps) = setup(
            r#"
            sensor s;
            fn grab() { let v = in(s); return v; }
            fn main() {
                atomic {
                    let x = grab();
                    fresh(x);
                    out(log, x);
                }
            }
            "#,
        );
        let report = check_regions(&p, &ps).unwrap();
        assert!(report.passes(), "{:?}", report.violations);
    }

    #[test]
    fn vacuous_policies_reported_not_violated() {
        let (p, ps) = setup("fn main() { let x = 1; fresh(x); }");
        let report = check_regions(&p, &ps).unwrap();
        assert!(report.passes());
        assert_eq!(report.vacuous.len(), 1);
    }

    #[test]
    fn verify_declarations_accepts_own_derivation() {
        let (p, ps) = setup("sensor s; fn main() { let x = in(s); fresh(x); out(log, x); }");
        assert!(verify_policy_declarations(&p, &ps).is_empty());
    }

    #[test]
    fn verify_declarations_catches_pruned_inputs() {
        let (p, mut ps) = setup("sensor s; fn main() { let x = in(s); fresh(x); out(log, x); }");
        ps.policies[0].inputs.clear();
        let problems = verify_policy_declarations(&p, &ps);
        assert!(!problems.is_empty());
        assert!(problems[0].contains("missing input chain"));
    }
}
