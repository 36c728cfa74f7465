//! The whole-program lint passes.
//!
//! Every pass runs over the *transformed* program (regions inserted,
//! annotations erased) so the costs it reasons about are exactly the
//! ones the runtime charges; spans for erased annotation sites are
//! recovered from the pre-erasure program. The five passes:
//!
//! 1. **Infeasible freshness windows** (OC001/OC002) — the minimum
//!    collect-to-use path cost, over every calling context and across
//!    run boundaries, against a concrete expiry window. The per-op
//!    minima lower-bound the runtime's charges, and the runtime's
//!    cycle→µs conversion rounds up per charge, so `min > window`
//!    proves every execution trips the check and restarts — the
//!    mitigation livelock §7 of the paper warns about.
//! 2. **Dead policies** (OC003) — policies no realizable call stack
//!    gives anything to enforce.
//! 3. **Redundant dynamic checks** (OC004) — the dominated
//!    must-collected condition the `--opt 2` middle-end elides,
//!    reported with the dominating collection named. Lint and backend
//!    share one witness function, so the two sets cannot drift.
//! 4. **Unbounded-loop-blocked obligations** (OC005) — a fresh use
//!    whose every same-run path from its collection crosses the back
//!    edge of a loop the progress analysis cannot bound.
//! 5. **Energy-infeasible regions** (OC006/OC007) — an atomic region
//!    whose cheapest body exceeds the buffer can never commit, so its
//!    consistent set can never be collected atomically.

use crate::diag::{Code, Finding, Label, Report};
use ocelot_analysis::chains::{all_contexts, unique_contexts};
use ocelot_analysis::dom::Point;
use ocelot_analysis::taint::TaintAnalysis;
use ocelot_core::{Compiled, PolicyKind};
use ocelot_hw::energy::CostModel;
use ocelot_ir::span::{SourceMap, Span};
use ocelot_ir::{InstrRef, Program};
use ocelot_progress::{EdgeSet, FeasAnalysis, WcetAnalysis};
use ocelot_runtime::detect::DetectorConfig;
use ocelot_runtime::elision_witnesses;
use ocelot_runtime::ViolationKind;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Tuning knobs and the optional deployment facts passes check against.
#[derive(Debug, Clone)]
pub struct LintOptions {
    /// Freshness expiry window in µs; `None` disables OC001/OC002.
    pub window_us: Option<u64>,
    /// Energy buffer capacity in nJ; `None` disables OC006/OC007.
    pub capacity_nj: Option<f64>,
    /// The cost model paths are priced with.
    pub costs: CostModel,
    /// Per-function calling-context enumeration cap; beyond it the
    /// window passes degrade to unique-context sites only.
    pub context_cap: usize,
}

impl Default for LintOptions {
    fn default() -> Self {
        LintOptions {
            window_us: None,
            capacity_nj: None,
            costs: CostModel::default(),
            context_cap: 512,
        }
    }
}

/// A failure *of* the linter (as opposed to findings *from* it): the
/// program did not compile, or an analysis prerequisite failed.
#[derive(Debug, Clone)]
pub struct LintError(pub String);

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for LintError {}

/// Lints `src`, returning findings in deterministic source order.
///
/// # Errors
///
/// [`LintError`] when `src` does not compile or the transform fails —
/// the program never had a runnable form, so there is nothing to lint.
pub fn lint_source(src: &str, opts: &LintOptions) -> Result<Report, LintError> {
    let p0 = ocelot_ir::compile(src).map_err(|e| LintError(e.to_string()))?;
    // Validation precedes the analysis, which requires an acyclic call
    // graph.
    ocelot_ir::validate(&p0).map_err(|e| LintError(e.to_string()))?;
    let taint = TaintAnalysis::run(&p0);
    lint_program(&p0, &taint, src, opts)
}

/// Lints the compiled-but-untransformed program `p0` of `src`, given
/// its taint analysis: runs the transform on `taint`, then
/// [`lint_compiled`]. `taint` must equal `TaintAnalysis::run(p0)` — an
/// incrementally assembled analysis
/// (`ocelot_analysis::incremental::assemble`) does by construction, so
/// the report is the one [`lint_source`] renders.
///
/// # Errors
///
/// [`LintError`] when the transform fails.
pub fn lint_program(
    p0: &Program,
    taint: &TaintAnalysis,
    src: &str,
    opts: &LintOptions,
) -> Result<Report, LintError> {
    let _span = ocelot_telemetry::span!("lint");
    let compiled = ocelot_core::ocelot_transform_with(p0.clone(), taint)
        .map_err(|e| LintError(e.to_string()))?;
    lint_compiled(p0, &compiled, src, opts)
}

/// Lints an already-transformed program; `p0` is the pre-erasure form
/// (spans for annotation sites live only there).
pub fn lint_compiled(
    p0: &Program,
    compiled: &Compiled,
    src: &str,
    opts: &LintOptions,
) -> Result<Report, LintError> {
    let p = &compiled.program;
    let sm = SourceMap::new(src);
    let det = DetectorConfig::from_policies(&compiled.policies);
    let feas = FeasAnalysis::new(p, &opts.costs).map_err(|e| LintError(e.to_string()))?;
    let wcet = WcetAnalysis::new(p, &opts.costs, &compiled.regions);

    let span_of = |r: InstrRef| -> Span {
        p.span_of(r)
            .filter(|s| !s.is_empty())
            .or_else(|| p0.span_of(r))
            .unwrap_or_default()
    };
    let label = |r: InstrRef, msg: String| Label::new(span_of(r), &sm, msg);

    let mut report = Report::default();

    dead_policies(compiled, &label, &mut report);
    freshness_windows(p, &det, &feas, &wcet, opts, &label, &mut report);
    redundant_checks(p, compiled, &det, &label, &mut report);
    energy_regions(compiled, &feas, &wcet, opts, &label, &mut report);

    report.normalize();
    Ok(report)
}

/// OC003: policies with nothing realizable to enforce.
fn dead_policies(
    compiled: &Compiled,
    label: &impl Fn(InstrRef, String) -> Label,
    out: &mut Report,
) {
    for pol in compiled.policies.iter() {
        if !pol.is_vacuous() {
            continue;
        }
        let Some(first) = pol.decls.first() else {
            continue;
        };
        let message = match pol.kind {
            PolicyKind::Fresh => format!(
                "freshness policy on `{}` is dead: no realizable call stack \
                 collects a sensor input into it",
                display_var(&first.var)
            ),
            PolicyKind::Consistent(_) => format!(
                "consistency policy on `{}` is dead: no realizable call stack \
                 collects a sensor input into the set, so there is nothing to \
                 relate",
                display_var(&first.var)
            ),
        };
        let related = pol
            .decls
            .iter()
            .skip(1)
            .map(|d| label(d.at, format!("`{}` declared here", display_var(&d.var))))
            .collect();
        out.findings.push(Finding {
            code: Code::DeadPolicy,
            severity: Code::DeadPolicy.severity(),
            message,
            primary: label(first.at, "policy declared here".into()),
            related,
        });
    }
}

/// OC001/OC002/OC005: expiry windows against min/max collect-to-use
/// path costs, and obligations blocked behind unbounded loops.
fn freshness_windows(
    p: &Program,
    det: &DetectorConfig,
    feas: &FeasAnalysis<'_>,
    wcet: &WcetAnalysis<'_>,
    opts: &LintOptions,
    label: &impl Fn(InstrRef, String) -> Label,
    out: &mut Report,
) {
    // Calling contexts of each use site's function; when enumeration
    // blows the cap, degrade to unique-context functions only.
    let enumerated = all_contexts(p, opts.context_cap);
    let unique = unique_contexts(p);
    let ctxs_of = |f: ocelot_ir::FuncId| -> Vec<Vec<InstrRef>> {
        match &enumerated {
            Some(all) => all[f.0 as usize].clone(),
            None => unique[f.0 as usize].clone().into_iter().collect(),
        }
    };

    // Aggregate one finding per (code, site): the strongest chain wins.
    let mut worst: BTreeMap<(Code, InstrRef), (u64, Finding)> = BTreeMap::new();

    for (site, checks) in &det.use_checks {
        let uctxs = ctxs_of(site.func);
        if uctxs.is_empty() {
            continue; // unreachable from main (or context blow-up)
        }
        for check in checks {
            if check.kind != ViolationKind::Freshness {
                continue;
            }
            for ch in &check.requires {
                if !det.bit_of.contains_key(ch) {
                    continue; // chain never reports; nothing to expire
                }
                let Some(&input) = ch.last() else { continue };

                let mut min_cycles: Option<u64> = None;
                let mut max_cycles: Option<u64> = None;
                let mut any_same_run = false;
                let mut any_bounded = false;
                for uctx in &uctxs {
                    let same_run = feas.min_chain_to_use(ch, uctx, *site, EdgeSet::All);
                    let cross_run = feas.min_chain_to_use_cross_run(ch, uctx, *site);
                    for c in [same_run, cross_run].into_iter().flatten() {
                        min_cycles = Some(min_cycles.map_or(c, |m: u64| m.min(c)));
                    }
                    if same_run.is_some() {
                        any_same_run = true;
                        if let Some(c) = wcet.worst_chain_to_use(ch, uctx, *site) {
                            max_cycles = Some(max_cycles.map_or(c, |m: u64| m.max(c)));
                        }
                    }
                    if feas
                        .min_chain_to_use(ch, uctx, *site, EdgeSet::BoundedOnly)
                        .is_some()
                    {
                        any_bounded = true;
                    }
                }

                // OC005: a same-run path exists, but never a bounded one.
                if any_same_run && !any_bounded {
                    let f = Finding {
                        code: Code::UnboundedObligation,
                        severity: Code::UnboundedObligation.severity(),
                        message: "every path from this input to its fresh use crosses \
                                  the back edge of a loop with no recoverable bound; \
                                  the freshness obligation cannot be discharged by any \
                                  progress argument"
                            .into(),
                        primary: label(*site, "fresh use here".into()),
                        related: vec![label(input, "input collected here".into())],
                    };
                    keep_worst(&mut worst, (Code::UnboundedObligation, *site), 0, f);
                }

                let Some(window) = opts.window_us else {
                    continue;
                };
                let Some(minc) = min_cycles else { continue };
                let min_us = opts.costs.cycles_to_us(minc);
                if min_us > window {
                    let f = Finding {
                        code: Code::InfeasibleWindow,
                        severity: Code::InfeasibleWindow.severity(),
                        message: format!(
                            "freshness window of {window}\u{b5}s can never be met: the \
                             cheapest path from the collecting input to this use takes \
                             at least {min_us}\u{b5}s; every execution trips the expiry \
                             check and restarts"
                        ),
                        primary: label(*site, "stale by the time control arrives here".into()),
                        related: vec![label(input, "input collected here".into())],
                    };
                    keep_worst(&mut worst, (Code::InfeasibleWindow, *site), min_us, f);
                } else if let Some(maxc) = max_cycles {
                    let max_us = opts.costs.cycles_to_us(maxc);
                    if max_us > window {
                        let f = Finding {
                            code: Code::BestCaseWindow,
                            severity: Code::BestCaseWindow.severity(),
                            message: format!(
                                "freshness window of {window}\u{b5}s is met only on the \
                                 cheapest path ({min_us}\u{b5}s); the worst-case path \
                                 takes {max_us}\u{b5}s, so some executions mitigate"
                            ),
                            primary: label(*site, "use may see an expired input".into()),
                            related: vec![label(input, "input collected here".into())],
                        };
                        keep_worst(&mut worst, (Code::BestCaseWindow, *site), max_us, f);
                    }
                }
            }
        }
    }
    out.findings.extend(worst.into_values().map(|(_, f)| f));
}

fn keep_worst(
    worst: &mut BTreeMap<(Code, InstrRef), (u64, Finding)>,
    key: (Code, InstrRef),
    weight: u64,
    f: Finding,
) {
    match worst.get(&key) {
        Some((w, _)) if *w >= weight => {}
        _ => {
            worst.insert(key, (weight, f));
        }
    }
}

/// OC004: dynamic checks the O2 middle-end elides, with the dominating
/// collection sites named. Uses the same witness function as the
/// runtime, so the reported set *is* the elision set.
fn redundant_checks(
    p: &Program,
    compiled: &Compiled,
    det: &DetectorConfig,
    label: &impl Fn(InstrRef, String) -> Label,
    out: &mut Report,
) {
    // Mirror the runtime's site universe: checked sites plus fresh-use
    // trace-logging sites (see `MachineCore` construction).
    let mut sites: BTreeSet<InstrRef> = det.use_checks.keys().copied().collect();
    for pol in compiled.policies.iter() {
        if pol.kind == PolicyKind::Fresh && !pol.is_vacuous() {
            sites.extend(pol.uses.iter().copied());
        }
    }
    for (site, witnesses) in elision_witnesses(p, det, sites.into_iter()) {
        // Logging-only sites carry no dynamic check to report on.
        let has_check = det.use_checks.get(&site).is_some_and(|cs| !cs.is_empty());
        if !has_check {
            continue;
        }
        let message = if witnesses.is_empty() {
            "dynamic staleness check is statically redundant (elided at --opt 2): \
             no required chain can ever report stale"
                .to_string()
        } else {
            "dynamic staleness check is statically redundant (elided at --opt 2): \
             every required input is already collected on all paths here"
                .to_string()
        };
        let related = witnesses
            .iter()
            .map(|w| label(*w, "collection guaranteed by this dominating site".into()))
            .collect();
        out.findings.push(Finding {
            code: Code::RedundantCheck,
            severity: Code::RedundantCheck.severity(),
            message,
            primary: label(site, "checked use here".into()),
            related,
        });
    }
}

/// OC006/OC007: atomic-region energy feasibility against the buffer.
fn energy_regions(
    compiled: &Compiled,
    feas: &FeasAnalysis<'_>,
    wcet: &WcetAnalysis<'_>,
    opts: &LintOptions,
    label: &impl Fn(InstrRef, String) -> Label,
    out: &mut Report,
) {
    let Some(capacity) = opts.capacity_nj else {
        return;
    };
    for r in &compiled.regions {
        let Some(start) = feas.point_of(r.start) else {
            continue;
        };
        let Some(end) = feas.point_of(r.end) else {
            continue;
        };
        let body_from = Point::new(start.block, start.index + 1);
        let body_to = Point::new(end.block, end.index + 1);
        let Some(min_body) = feas.min_between(r.func, body_from, body_to, EdgeSet::All) else {
            continue;
        };
        let min_nj = opts.costs.cycles_to_nj(min_body);
        let related = region_policy_labels(compiled, r, label);
        if min_nj > capacity {
            out.findings.push(Finding {
                code: Code::RegionNeverFits,
                severity: Code::RegionNeverFits.severity(),
                message: format!(
                    "atomic region can never commit: even its cheapest body costs \
                     {min_nj:.0} nJ but the energy buffer stores only {capacity:.0} nJ; \
                     its consistent set can never be collected in one attempt"
                ),
                primary: label(r.start, "region starts here".into()),
                related,
            });
        } else if let Ok(body) = wcet.region_body_wcet(r) {
            let worst_cycles = body.saturating_add(wcet.region_entry_cycles(r));
            let worst_nj = opts.costs.cycles_to_nj(worst_cycles);
            if worst_nj > capacity {
                out.findings.push(Finding {
                    code: Code::RegionMayExceed,
                    severity: Code::RegionMayExceed.severity(),
                    message: format!(
                        "atomic region may exceed the energy buffer: the worst-case \
                         attempt costs {worst_nj:.0} nJ against a {capacity:.0} nJ \
                         buffer; harvesting pauses will force retries"
                    ),
                    primary: label(r.start, "region starts here".into()),
                    related,
                });
            }
        }
    }
}

fn region_policy_labels(
    compiled: &Compiled,
    r: &ocelot_core::RegionInfo,
    label: &impl Fn(InstrRef, String) -> Label,
) -> Vec<Label> {
    let mut out = Vec::new();
    for pid in compiled.policy_map.get(&r.id).into_iter().flatten() {
        let pol = compiled.policies.policy(*pid);
        if let Some(d) = pol.decls.first() {
            let kind = match pol.kind {
                PolicyKind::Fresh => "freshness",
                PolicyKind::Consistent(_) => "consistency",
            };
            out.push(label(
                d.at,
                format!("{kind} policy on `{}` declared here", display_var(&d.var)),
            ));
        }
    }
    out
}

/// Strips SSA-style rename suffixes (`x.1` → `x`) for messages.
fn display_var(v: &str) -> &str {
    v.split('.').next().unwrap_or(v)
}
