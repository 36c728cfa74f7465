//! The end-to-end Ocelot transform: annotated program in, correct-by-
//! construction program out (Figure 3's pipeline).
//!
//! ```text
//! validate ─▶ taint ─▶ build policies ─▶ infer regions ─▶ erase annots
//!          ─▶ collect region ω ─▶ self-check (Theorem 1's judgments)
//! ```

use crate::check::{check_regions, check_with_regions, CheckReport};
use crate::error::CoreError;
use crate::infer::{infer_atomics, Inference};
use crate::policy::{build_policies, PolicyMap, PolicySet};
use crate::region::{collect_regions, RegionInfo};
use ocelot_analysis::taint::TaintAnalysis;
use ocelot_ir::Program;

/// The output of the Ocelot transform.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The transformed program: regions inserted, annotations erased.
    pub program: Program,
    /// The derived policy declarations (the paper's `PD`).
    pub policies: PolicySet,
    /// Region → policies map (the paper's `PM`).
    pub policy_map: PolicyMap,
    /// Every region in the program (inferred *and* pre-existing manual
    /// ones) with extent and checkpoint set `ω`.
    pub regions: Vec<RegionInfo>,
    /// The post-transform self-check report; always passing for
    /// successfully compiled programs.
    pub check: CheckReport,
}

impl Compiled {
    /// Looks up region metadata by id.
    pub fn region(&self, id: ocelot_ir::RegionId) -> Option<&RegionInfo> {
        self.regions.iter().find(|r| r.id == id)
    }
}

/// Runs the full Ocelot pipeline on an annotated program.
///
/// # Errors
///
/// Returns [`CoreError`] when the program fails structural validation,
/// when region inference cannot place a region, or when the final
/// self-check finds a policy that the inserted regions do not enforce
/// (which would indicate a bug in inference — Theorem 1 says inferred
/// programs pass).
pub fn ocelot_transform(program: Program) -> Result<Compiled, CoreError> {
    ocelot_ir::validate(&program)?;
    let taint = TaintAnalysis::run(&program);
    ocelot_transform_with(program, &taint)
}

/// [`ocelot_transform`] with a caller-supplied taint analysis, for
/// callers that maintain the analysis incrementally across edits
/// (`ocelot_analysis::incremental::FlowCache`). The analysis must have
/// been computed for exactly this `program` — feeding a stale analysis
/// produces garbage policies; an incrementally-assembled one is
/// guaranteed identical to `TaintAnalysis::run`, so the output here is
/// identical to [`ocelot_transform`].
///
/// The program must already have passed [`fn@ocelot_ir::validate`]: the
/// taint analysis needs a valid program too, so every caller validates
/// before it computes `taint`, and this entry does not validate again.
///
/// # Errors
///
/// Same as [`ocelot_transform`], minus the up-front validation errors.
pub fn ocelot_transform_with(
    mut program: Program,
    taint: &TaintAnalysis,
) -> Result<Compiled, CoreError> {
    let _span = ocelot_telemetry::span!("transform");
    let policies = build_policies(&program, taint);
    let Inference { policy_map, .. } = {
        let _infer = ocelot_telemetry::span!("infer");
        infer_atomics(&mut program, &policies)?
    };
    program.erase_annotations();
    // The output this time: inference must leave a valid program.
    ocelot_ir::validate(&program)?;
    let regions = collect_regions(&program)?;
    let check = check_with_regions(&program, &regions, &policies);
    if !check.passes() {
        return Err(CoreError::infer(format!(
            "inferred regions failed the atomic-region check: {}",
            check
                .violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("; ")
        )));
    }
    Ok(Compiled {
        program,
        policies,
        policy_map,
        regions,
        check,
    })
}

/// Checker mode (§8): leave the program unchanged and report whether its
/// *existing* regions enforce its annotations.
///
/// # Errors
///
/// Returns [`CoreError`] on structural problems (validation, malformed
/// regions).
pub fn ocelot_check(program: &Program) -> Result<CheckReport, CoreError> {
    ocelot_ir::validate(program)?;
    let taint = TaintAnalysis::run(program);
    ocelot_check_with(program, &taint)
}

/// [`ocelot_check`] with a caller-supplied taint analysis (see
/// [`ocelot_transform_with`] for the contract: the program is already
/// validated).
///
/// # Errors
///
/// Returns [`CoreError`] on malformed regions.
pub(crate) fn ocelot_check_with(
    program: &Program,
    taint: &TaintAnalysis,
) -> Result<CheckReport, CoreError> {
    let policies = build_policies(program, taint);
    check_regions(program, &policies)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocelot_ir::compile;

    #[test]
    fn transform_produces_checked_program() {
        let p = compile(
            r#"
            sensor tmp; sensor pres; sensor hum;
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
            "#,
        )
        .unwrap();
        let c = ocelot_transform(p).unwrap();
        assert_eq!(c.regions.len(), 2);
        assert_eq!(c.policies.len(), 2);
        assert!(c.check.passes());
        assert!(c.program.annotations().is_empty(), "annotations erased");
    }

    #[test]
    fn transform_preserves_manual_regions() {
        let p = compile(
            r#"
            sensor s;
            fn main() {
                atomic { out(uart, 1); }
                let x = in(s);
                fresh(x);
                out(log, x);
            }
            "#,
        )
        .unwrap();
        let c = ocelot_transform(p).unwrap();
        // One manual region + one inferred region.
        assert_eq!(c.regions.len(), 2);
        assert_eq!(c.policy_map.len(), 1);
    }

    #[test]
    fn checker_mode_flags_bad_manual_placement() {
        let p = compile(
            r#"
            sensor s;
            fn main() {
                atomic { let x = in(s); fresh(x); }
                out(log, x);
            }
            "#,
        )
        .unwrap();
        let report = ocelot_check(&p).unwrap();
        assert!(!report.passes());
    }

    #[test]
    fn checker_mode_accepts_good_manual_placement() {
        let p = compile(
            r#"
            sensor s;
            fn main() {
                atomic { let x = in(s); fresh(x); out(log, x); }
            }
            "#,
        )
        .unwrap();
        let report = ocelot_check(&p).unwrap();
        assert!(report.passes());
    }

    #[test]
    fn program_without_annotations_is_untouched() {
        let p = compile("sensor s; fn main() { let x = in(s); out(log, x); }").unwrap();
        let before = ocelot_ir::print::program_to_string(&p);
        let c = ocelot_transform(p).unwrap();
        let after = ocelot_ir::print::program_to_string(&c.program);
        assert_eq!(before, after);
        assert!(c.regions.is_empty());
    }
}
