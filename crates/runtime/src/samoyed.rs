//! A Samoyed-style execution model: atomic *functions* with scaling
//! rules and software fallbacks (§7.4, Table 3).
//!
//! Samoyed \[34\] asks the programmer to move code that must execute
//! atomically into a dedicated function, which the runtime executes as
//! one undo-logged region. Two extra constructs handle functions that
//! are too expensive to complete on one charge of the buffer:
//!
//! * a **scaling rule** shrinks a workload parameter (e.g. the number of
//!   samples averaged) and retries;
//! * a **software fallback** runs a non-atomic version when scaling
//!   bottoms out.
//!
//! Ocelot deliberately provides neither (§9): its inferred regions are
//! the *smallest* that satisfy the timing constraints, so if one still
//! does not fit, "the specified timing constraints are fundamentally
//! unsatisfiable with the energy capacity of the device" (§8) — but a
//! Samoyed programmer can trade constraint strength for progress. This
//! module makes that trade-off measurable:
//! [`run_scaled`] drives a parameterized application, halving the
//! parameter on [`RunOutcome::Livelock`] and falling back to JIT
//! execution below the minimum, exactly the strategy column of Table 3.

use crate::machine::{Machine, RunOutcome};
use crate::model::{build, Built, ExecModel};
use ocelot_core::CoreError;
use ocelot_hw::energy::CostModel;
use ocelot_hw::power::PowerSupply;
use ocelot_hw::sensors::Environment;
use ocelot_ir::{FuncId, Op, Program};

/// Wraps each function named in `atomic_fns` in its own atomic region —
/// Samoyed's `atomic fn` construct — and prepares the program for
/// execution (policies are kept for violation detection).
///
/// The `startatom` lands at the entry block's first instruction slot and
/// the `endatom` immediately before the return landing pad's terminator,
/// so the whole body (including callees) executes atomically.
///
/// # Errors
///
/// Returns [`CoreError`] if a named function does not exist or the
/// resulting regions are malformed.
pub fn samoyed_transform(mut p: Program, atomic_fns: &[&str]) -> Result<Built, CoreError> {
    let targets: Vec<FuncId> = atomic_fns
        .iter()
        .map(|name| {
            p.func_by_name(name).ok_or_else(|| {
                CoreError::region(format!("atomic function `{name}` is not declared"))
            })
        })
        .collect::<Result<_, _>>()?;
    for func in targets {
        let region = p.fresh_region();
        let f = p.func_mut(func);
        let start_label = f.fresh_label();
        let end_label = f.fresh_label();
        let entry = f.entry;
        let exit = f.exit;
        // Markers adopt a neighboring instruction's span (or the block
        // terminator's) so spanned diagnostics keep working here too.
        let entry_span = f
            .block(entry)
            .instrs
            .first()
            .map_or(f.block(entry).term_span, |i| i.span);
        let exit_span = f
            .block(exit)
            .instrs
            .last()
            .map_or(f.block(exit).term_span, |i| i.span);
        f.block_mut(entry).instrs.insert(
            0,
            ocelot_ir::Inst {
                label: start_label,
                op: Op::AtomStart { region },
                span: entry_span,
            },
        );
        f.block_mut(exit).instrs.push(ocelot_ir::Inst {
            label: end_label,
            op: Op::AtomEnd { region },
            span: exit_span,
        });
    }
    build(p, ExecModel::AtomicsOnly)
}

/// A parameterized Samoyed application: `source_for(n)` renders the
/// program at workload size `n`; `atomic_fns` names the functions to
/// execute atomically.
pub struct ScaledApp<'a> {
    /// Renders the source at a given workload parameter.
    pub source_for: &'a dyn Fn(u64) -> String,
    /// Initial workload parameter (e.g. photo readings to average).
    pub initial: u64,
    /// Smallest acceptable parameter; scaling below it triggers the
    /// fallback.
    pub min: u64,
    /// Functions executed atomically.
    pub atomic_fns: Vec<String>,
}

/// What one scaled run produced.
#[derive(Debug, Clone)]
pub struct ScaledOutcome {
    /// The run completed (atomically or via fallback).
    pub completed: bool,
    /// The workload parameter of the completing configuration.
    pub final_param: u64,
    /// How many times the scaling rule fired.
    pub scalings: u32,
    /// True when the non-atomic software fallback ran.
    pub fell_back: bool,
    /// Detector violations during the completing run (only the fallback
    /// can violate; atomic completions cannot).
    pub violations: u64,
}

/// Runs `app` to completion under Samoyed semantics: execute atomically;
/// on livelock halve the parameter; below `app.min`, run the software
/// fallback (plain JIT, atomicity abandoned).
///
/// `supply` is rebuilt per attempt so each configuration starts from a
/// full buffer; `reexec_limit` bounds how many consecutive rollbacks
/// diagnose a livelock.
///
/// # Errors
///
/// Propagates build errors from the transform.
///
/// # Panics
///
/// Panics if `app.source_for` renders source that does not compile —
/// the rule author's responsibility, as in Samoyed.
pub fn run_scaled(
    app: &ScaledApp<'_>,
    env: &Environment,
    costs: &CostModel,
    supply: &dyn Fn() -> Box<dyn PowerSupply>,
    reexec_limit: u64,
    max_steps: u64,
) -> Result<ScaledOutcome, CoreError> {
    let atomic_fns: Vec<&str> = app.atomic_fns.iter().map(String::as_str).collect();
    let mut param = app.initial;
    let mut scalings = 0u32;
    loop {
        let src = (app.source_for)(param);
        let program = ocelot_ir::compile(&src).expect("scaled source must compile");
        let built = samoyed_transform(program, &atomic_fns)?;
        let mut m = Machine::new(
            &built.program,
            &built.regions,
            built.policies.clone(),
            env.clone(),
            costs.clone(),
            supply(),
        )
        .with_reexec_limit(reexec_limit);
        match m.run_once(max_steps) {
            RunOutcome::Completed { violated } => {
                return Ok(ScaledOutcome {
                    completed: true,
                    final_param: param,
                    scalings,
                    fell_back: false,
                    violations: violated as u64,
                });
            }
            RunOutcome::Livelock { .. } if param / 2 >= app.min => {
                // Scaling rule: halve the workload and retry.
                param /= 2;
                scalings += 1;
            }
            RunOutcome::Livelock { .. } => {
                // Fallback: the non-atomic software path.
                return run_fallback(app, param, env, costs, supply, max_steps, scalings);
            }
            RunOutcome::StepLimit => {
                return Ok(ScaledOutcome {
                    completed: false,
                    final_param: param,
                    scalings,
                    fell_back: false,
                    violations: 0,
                });
            }
        }
    }
}

fn run_fallback(
    app: &ScaledApp<'_>,
    param: u64,
    env: &Environment,
    costs: &CostModel,
    supply: &dyn Fn() -> Box<dyn PowerSupply>,
    max_steps: u64,
    scalings: u32,
) -> Result<ScaledOutcome, CoreError> {
    let src = (app.source_for)(param);
    let program = ocelot_ir::compile(&src).expect("fallback source must compile");
    let built = build(program, ExecModel::Jit)?;
    let mut m = Machine::new(
        &built.program,
        &built.regions,
        built.policies.clone(),
        env.clone(),
        costs.clone(),
        supply(),
    );
    let outcome = m.run_once(max_steps);
    Ok(ScaledOutcome {
        completed: matches!(outcome, RunOutcome::Completed { .. }),
        final_param: param,
        scalings,
        fell_back: true,
        violations: m.stats().violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocelot_hw::energy::Capacitor;
    use ocelot_hw::harvest::Harvester;
    use ocelot_hw::power::{ContinuousPower, HarvestedPower};
    use ocelot_hw::sensors::Signal;

    fn photo_src(n: u64) -> String {
        format!(
            r#"
            sensor photo;
            fn sample_avg() {{
                let sum = 0;
                repeat {n} {{
                    let v = in(photo);
                    consistent(v, 1);
                    sum = sum + v;
                }}
                return sum / {n};
            }}
            fn main() {{
                let avg = sample_avg();
                out(log, avg);
            }}
            "#
        )
    }

    fn tiny_supply(capacity_nj: f64) -> Box<dyn PowerSupply> {
        Box::new(HarvestedPower::new(
            Capacitor::new(capacity_nj, 3_000.0),
            Harvester::Constant { power_nw: 1.0 },
        ))
    }

    #[test]
    fn transform_wraps_named_function() {
        let p = ocelot_ir::compile(&photo_src(5)).unwrap();
        let b = samoyed_transform(p, &["sample_avg"]).unwrap();
        assert_eq!(b.regions.len(), 1);
        let host = b.program.func(b.regions[0].func);
        assert_eq!(host.name, "sample_avg");
        // The region must cover the loop inputs: the checker agrees the
        // consistency policy is satisfied.
        let report = ocelot_core::check_regions(&b.program, &b.policies).unwrap();
        assert!(report.passes(), "{report:?}");
    }

    #[test]
    fn transform_rejects_unknown_function() {
        let p = ocelot_ir::compile("fn main() { skip; }").unwrap();
        let err = samoyed_transform(p, &["nope"]).unwrap_err();
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn ample_energy_completes_unscaled() {
        let app = ScaledApp {
            source_for: &photo_src,
            initial: 5,
            min: 1,
            atomic_fns: vec!["sample_avg".into()],
        };
        let env = Environment::new().with("photo", Signal::Constant(10));
        let out = run_scaled(
            &app,
            &env,
            &CostModel::default(),
            &|| Box::new(ContinuousPower),
            10,
            1_000_000,
        )
        .unwrap();
        assert!(out.completed);
        assert_eq!(out.final_param, 5);
        assert_eq!(out.scalings, 0);
        assert!(!out.fell_back);
        assert_eq!(out.violations, 0);
    }

    #[test]
    fn tight_buffer_triggers_scaling_rule() {
        // 5 readings at ~4 µJ each can't fit a ~13 µJ usable budget, but
        // 2 (after one halving) can.
        let app = ScaledApp {
            source_for: &photo_src,
            initial: 5,
            min: 1,
            atomic_fns: vec!["sample_avg".into()],
        };
        let env = Environment::new().with("photo", Signal::Constant(10));
        let out = run_scaled(
            &app,
            &env,
            &CostModel::default(),
            &|| tiny_supply(16_000.0),
            8,
            2_000_000,
        )
        .unwrap();
        assert!(out.completed, "scaling must rescue the run");
        assert!(out.scalings >= 1, "the rule fired");
        assert!(out.final_param < 5);
        assert!(!out.fell_back);
        assert_eq!(out.violations, 0, "atomic completion keeps the constraint");
    }

    #[test]
    fn exhausted_scaling_falls_back_to_jit() {
        // Usable energy (9 µJ − 3 µJ trigger = 6 µJ) passes one 4 µJ
        // sensor read under JIT but never fits two reads in one atomic
        // body: scaling bottoms out and the fallback runs non-atomically.
        let app = ScaledApp {
            source_for: &photo_src,
            initial: 4,
            min: 2,
            atomic_fns: vec!["sample_avg".into()],
        };
        let env = Environment::new().with("photo", Signal::Constant(10));
        let out = run_scaled(
            &app,
            &env,
            &CostModel::default(),
            &|| tiny_supply(9_000.0),
            6,
            4_000_000,
        )
        .unwrap();
        assert!(out.fell_back, "fallback must run");
        assert!(out.completed, "JIT always makes progress");
    }
}
