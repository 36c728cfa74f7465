//! `photo` — Samoyed's photoresistor microbenchmark: the average of five
//! light readings.
//!
//! A single `Consistent` annotation on the averaged value suffices: the
//! average depends on all five input operations, so the one consistent
//! set forces all five samples into one atomic region — this is why
//! Table 4 charges Ocelot only 2 lines for `photo`.

use crate::{Benchmark, Effort};
use ocelot_hw::sensors::Environment;

/// Annotated source.
pub const ANNOTATED: &str = r#"
sensor photo;

nv reports = 0;
nv last = 0;

// [IO:fn = read5]
fn read5() {
    let r0 = in(photo);
    let r1 = in(photo);
    let r2 = in(photo);
    let r3 = in(photo);
    let r4 = in(photo);
    let sum = r0 + r1 + r2 + r3 + r4;
    return sum / 5;
}

fn main() {
    let avg = read5();
    consistent(avg, 1);
    last = avg;
    reports = reports + 1;
    atomic {
        out(uart, avg);
    }
}
"#;

/// Atomics-only variant: the whole sampling + report pipeline in one
/// region — essentially where the inferred region goes, so the two
/// configurations track each other closely on this microbenchmark
/// (Figure 7).
pub(crate) const ATOMICS_ONLY: &str = r#"
sensor photo;

nv reports = 0;
nv last = 0;

fn read5() {
    let r0 = in(photo);
    let r1 = in(photo);
    let r2 = in(photo);
    let r3 = in(photo);
    let r4 = in(photo);
    let sum = r0 + r1 + r2 + r3 + r4;
    return sum / 5;
}

fn main() {
    atomic {
        let avg = read5();
        consistent(avg, 1);
        last = avg;
        reports = reports + 1;
    }
    atomic {
        out(uart, avg);
    }
}
"#;

/// The benchmark descriptor.
pub(crate) fn benchmark() -> Benchmark {
    Benchmark {
        name: "photo",
        origin: "Samoyed",
        sensors: &["photo"],
        constraints: "Con",
        annotated_src: ANNOTATED,
        atomics_src: ATOMICS_ONLY,
        effort: Effort {
            input_fns: 1,
            fresh_data: 0,
            consistent_data: 1,
            consistent_sets: 1,
            samoyed_fn_params: &[1],
            samoyed_loops: 1,
            manual_regions: 2,
        },
        env_fn: Environment::light_steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_consistent_var_five_collections() {
        let p = benchmark().annotated();
        ocelot_ir::validate(&p).unwrap();
        let taint = ocelot_analysis::taint::TaintAnalysis::run(&p);
        let ps = ocelot_core::build_policies(&p, &taint);
        assert_eq!(ps.len(), 1);
        assert_eq!(
            ps.policies[0].inputs.len(),
            5,
            "avg depends on five distinct input operations"
        );
    }

    #[test]
    fn inferred_region_encloses_the_call() {
        let c = ocelot_core::ocelot_transform(benchmark().annotated()).unwrap();
        assert!(c.check.passes());
        let inferred: Vec<_> = c
            .policy_map
            .keys()
            .map(|rid| c.region(*rid).unwrap())
            .collect();
        assert_eq!(inferred.len(), 1);
        assert_eq!(
            inferred[0].func, c.program.main,
            "goal function is main — the reads execute within the read5 call"
        );
    }
}
