//! `activity` — TICS's activity-recognition app: sample an
//! accelerometer window, extract mean/deviation features, and classify
//! against nearest centroids.
//!
//! The window samples must be mutually consistent (a window spanning a
//! power failure mixes two different motion episodes), and the
//! classification must be fresh when the activity counters are updated.

use crate::{Benchmark, Effort};
use ocelot_hw::sensors::Environment;

/// Annotated source.
pub const ANNOTATED: &str = r#"
sensor accel;

nv stillc = 0;
nv movec = 0;
nv cmean[4];
nv cdev[4];
nv inited = 0;
nv winlog[16];
nv winn = 0;

// [IO:fn = read_accel]
fn read_accel() {
    let raw = in(accel);
    return raw;
}

fn iabs(v) {
    if v < 0 {
        return 0 - v;
    }
    return v;
}

fn featurize(a, b, c, &mean, &dev) {
    let m = (a + b + c) / 3;
    let d1 = iabs(a - m);
    let d2 = iabs(b - m);
    let d3 = iabs(c - m);
    let d = d1 + d2 + d3;
    *mean = m;
    *dev = d / 3;
}

fn classify(mean, dev) {
    let best = 0;
    let bestd = 1000000;
    let i = 0;
    repeat 4 {
        let dm = iabs(mean - cmean[i]);
        let dd = iabs(dev - cdev[i]);
        let dist = dm + dd * 2;
        if dist < bestd {
            bestd = dist;
            best = i;
        }
        i = i + 1;
    }
    return best;
}

fn setup() {
    if inited == 0 {
        cmean[0] = 4;
        cdev[0] = 2;
        cmean[1] = 18;
        cdev[1] = 5;
        cmean[2] = 35;
        cdev[2] = 10;
        cmean[3] = 55;
        cdev[3] = 16;
        inited = 1;
    }
    return inited;
}

fn main() {
    let ok = setup();
    let a0 = read_accel();
    consistent(a0, 1);
    let a1 = read_accel();
    consistent(a1, 1);
    let a2 = read_accel();
    consistent(a2, 1);
    let mean = 0;
    let dev = 0;
    featurize(a0, a1, a2, &mean, &dev);
    let cls = classify(mean, dev);
    fresh(cls);
    if cls > 1 {
        movec = movec + 1;
    } else {
        stillc = stillc + 1;
    }
    winlog[winn % 16] = mean;
    winn = winn + 1;
    atomic {
        out(uart, movec, stillc);
    }
}
"#;

/// Atomics-only variant: sensing + featurization in one region,
/// classification + counters in another (mirroring TICS's static
/// checkpoint placement).
pub(crate) const ATOMICS_ONLY: &str = r#"
sensor accel;

nv stillc = 0;
nv movec = 0;
nv cmean[4];
nv cdev[4];
nv inited = 0;
nv winlog[16];
nv winn = 0;

fn read_accel() {
    let raw = in(accel);
    return raw;
}

fn iabs(v) {
    if v < 0 {
        return 0 - v;
    }
    return v;
}

fn featurize(a, b, c, &mean, &dev) {
    let m = (a + b + c) / 3;
    let d1 = iabs(a - m);
    let d2 = iabs(b - m);
    let d3 = iabs(c - m);
    let d = d1 + d2 + d3;
    *mean = m;
    *dev = d / 3;
}

fn classify(mean, dev) {
    let best = 0;
    let bestd = 1000000;
    let i = 0;
    repeat 4 {
        let dm = iabs(mean - cmean[i]);
        let dd = iabs(dev - cdev[i]);
        let dist = dm + dd * 2;
        if dist < bestd {
            bestd = dist;
            best = i;
        }
        i = i + 1;
    }
    return best;
}

fn setup() {
    if inited == 0 {
        cmean[0] = 4;
        cdev[0] = 2;
        cmean[1] = 18;
        cdev[1] = 5;
        cmean[2] = 35;
        cdev[2] = 10;
        cmean[3] = 55;
        cdev[3] = 16;
        inited = 1;
    }
    return inited;
}

fn main() {
    atomic {
        let ok = setup();
        let a0 = read_accel();
        consistent(a0, 1);
        let a1 = read_accel();
        consistent(a1, 1);
        let a2 = read_accel();
        consistent(a2, 1);
        let mean = 0;
        let dev = 0;
        featurize(a0, a1, a2, &mean, &dev);
        let cls = classify(mean, dev);
        fresh(cls);
        if cls > 1 {
            movec = movec + 1;
        } else {
            stillc = stillc + 1;
        }
    }
    atomic {
        winlog[winn % 16] = mean;
        winn = winn + 1;
    }
    atomic {
        out(uart, movec, stillc);
    }
}
"#;

/// The benchmark descriptor.
pub(crate) fn benchmark() -> Benchmark {
    Benchmark {
        name: "activity",
        origin: "TICS",
        sensors: &["accel*"],
        constraints: "Con, Fresh",
        annotated_src: ANNOTATED,
        atomics_src: ATOMICS_ONLY,
        effort: Effort {
            input_fns: 1,
            fresh_data: 1,
            consistent_data: 3,
            consistent_sets: 1,
            samoyed_fn_params: &[1, 3],
            samoyed_loops: 1,
            manual_regions: 3,
        },
        env_fn: Environment::motion_episodes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocelot_core::PolicyKind;

    #[test]
    fn window_samples_have_distinct_chains() {
        // One static input op in read_accel, three calls: the consistent
        // set must hold three distinct provenance chains (Figure 6(b)).
        let p = benchmark().annotated();
        ocelot_ir::validate(&p).unwrap();
        let taint = ocelot_analysis::taint::TaintAnalysis::run(&p);
        let ps = ocelot_core::build_policies(&p, &taint);
        let set = ps
            .iter()
            .find(|p| matches!(p.kind, PolicyKind::Consistent(1)))
            .unwrap();
        assert_eq!(set.inputs.len(), 3);
        assert_eq!(set.input_ops().len(), 1, "all chains end at one static op");
    }

    #[test]
    fn fresh_classification_depends_on_all_samples() {
        let p = benchmark().annotated();
        ocelot_ir::validate(&p).unwrap();
        let taint = ocelot_analysis::taint::TaintAnalysis::run(&p);
        let ps = ocelot_core::build_policies(&p, &taint);
        let fresh = ps.iter().find(|p| p.kind == PolicyKind::Fresh).unwrap();
        assert_eq!(
            fresh.inputs.len(),
            3,
            "cls is derived (via featurize/classify) from the three samples"
        );
    }

    #[test]
    fn ocelot_regions_overlap_and_flatten() {
        let c = ocelot_core::ocelot_transform(benchmark().annotated()).unwrap();
        assert!(c.check.passes());
        assert_eq!(c.policy_map.len(), 2, "one fresh + one consistent region");
    }
}
