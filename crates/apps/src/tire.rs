//! `tire` — the tire-safety monitor the Ocelot authors wrote (§8,
//! Figure 9).
//!
//! Fast path: a burst-tire alarm fires when the pressure drops sharply
//! below its recent history *while the wheel is in motion* — both the
//! pressure drop (`avgdiff`) and the motion sample (`currmotion`) must
//! be fresh *and* mutually consistent (the paper's `FreshConsistent`).
//! Slow path: a temperature-compensated pressure reading tracks slow
//! leaks; its two samples form a second consistent set.

use crate::{Benchmark, Effort};
use ocelot_hw::sensors::Environment;

/// Annotated source.
pub const ANNOTATED: &str = r#"
sensor tirepres;
sensor tiretemp;
sensor wheelacc;

nv preshist[8];
nv histn = 0;
nv baseline = 95;
nv urgentcount = 0;
nv leakcount = 0;
nv oklog = 0;
nv leakhint = 0;

// [IO:fn = read_pres, read_temp, read_accel_x, read_accel_y, read_accel_z]
fn read_pres() {
    let v = in(tirepres);
    return v;
}

fn read_temp() {
    let v = in(tiretemp);
    return v;
}

fn read_accel_x() {
    let v = in(wheelacc);
    return v;
}

fn read_accel_y() {
    let v = in(wheelacc);
    return v + 1;
}

fn read_accel_z() {
    let v = in(wheelacc);
    return v - 1;
}

fn iabs(v) {
    if v < 0 {
        return 0 - v;
    }
    return v;
}

fn avg_hist() {
    let sum = 0;
    let i = 0;
    repeat 8 {
        sum = sum + preshist[i];
        i = i + 1;
    }
    return sum / 8;
}

fn sample_motion(&m) {
    let x = read_accel_x();
    let y = read_accel_y();
    let z = read_accel_z();
    let mx = iabs(x);
    let my = iabs(y);
    let mz = iabs(z);
    *m = mx + my + mz;
}


fn trend_hist() {
    // Least-squares-flavored slope of the pressure history: positive
    // when pressure is rising, negative when falling.
    let num = 0;
    let i = 0;
    repeat 8 {
        let w = i * 2 - 7;
        num = num + preshist[i] * w;
        i = i + 1;
    }
    return num / 42;
}

fn crc8(a, b) {
    let acc = a * 31 + b;
    repeat 8 {
        if acc % 2 == 1 {
            acc = acc / 2 + 140;
        } else {
            acc = acc / 2;
        }
    }
    return acc % 255;
}

fn smooth_hist(&o) {
    let acc = 0;
    let i = 0;
    repeat 8 {
        let j = (i + 1) % 8;
        let d = preshist[i] - preshist[j];
        if d < 0 {
            d = 0 - d;
        }
        acc = acc + d;
        i = i + 1;
    }
    *o = acc / 8;
}


fn wear_model(m, slope) {
    // Rough tread-wear estimate folded over a simulated rotation: the
    // kind of bookkeeping the original app spends most of its cycles on.
    let acc = m;
    let i = 0;
    repeat 48 {
        acc = (acc * 3 + slope + i) % 997;
        i = i + 1;
    }
    return acc;
}

fn main() {
    // Fast path: burst detection (Figure 9).
    let pnow = read_pres();
    let avg = avg_hist();
    let avgdiff = avg - pnow;
    fresh(avgdiff);
    consistent(avgdiff, 1);
    let currmotion = 0;
    sample_motion(&currmotion);
    fresh(currmotion);
    consistent(currmotion, 1);
    if currmotion > 30 {
        if avgdiff > 25 {
            out(radio, avgdiff, currmotion);
            urgentcount = urgentcount + 1;
        }
    }
    preshist[histn % 8] = pnow;
    histn = histn + 1;
    let slope = trend_hist();
    let jitter = 0;
    smooth_hist(&jitter);
    if slope < 0 - 3 {
        if jitter < 6 {
            leakhint = leakhint + 1;
        }
    }

    // Slow path: temperature-compensated leak trend.
    let tp = read_pres();
    consistent(tp, 2);
    let tt = read_temp();
    consistent(tt, 2);
    let compensated = tp + (25 - tt) / 4;
    if compensated < baseline - 10 {
        leakcount = leakcount + 1;
        out(log, compensated);
    } else {
        oklog = oklog + 1;
    }
    let wear = wear_model(jitter, histn);
    if wear > 900 {
        oklog = oklog + 1;
    }
    let check = crc8(urgentcount, leakcount);
    atomic {
        out(uart, urgentcount, leakcount, check);
    }
}
"#;

/// Atomics-only variant: one large region nests where Ocelot would place
/// two overlapping fast-path regions — only the outermost bounds execute,
/// so the region is entered once, making this variant slightly *faster*
/// than Ocelot on this app (Figure 7's tire anomaly).
pub(crate) const ATOMICS_ONLY: &str = r#"
sensor tirepres;
sensor tiretemp;
sensor wheelacc;

nv preshist[8];
nv histn = 0;
nv baseline = 95;
nv urgentcount = 0;
nv leakcount = 0;
nv oklog = 0;
nv leakhint = 0;

fn read_pres() {
    let v = in(tirepres);
    return v;
}

fn read_temp() {
    let v = in(tiretemp);
    return v;
}

fn read_accel_x() {
    let v = in(wheelacc);
    return v;
}

fn read_accel_y() {
    let v = in(wheelacc);
    return v + 1;
}

fn read_accel_z() {
    let v = in(wheelacc);
    return v - 1;
}

fn iabs(v) {
    if v < 0 {
        return 0 - v;
    }
    return v;
}

fn avg_hist() {
    let sum = 0;
    let i = 0;
    repeat 8 {
        sum = sum + preshist[i];
        i = i + 1;
    }
    return sum / 8;
}

fn sample_motion(&m) {
    let x = read_accel_x();
    let y = read_accel_y();
    let z = read_accel_z();
    let mx = iabs(x);
    let my = iabs(y);
    let mz = iabs(z);
    *m = mx + my + mz;
}


fn trend_hist() {
    // Least-squares-flavored slope of the pressure history: positive
    // when pressure is rising, negative when falling.
    let num = 0;
    let i = 0;
    repeat 8 {
        let w = i * 2 - 7;
        num = num + preshist[i] * w;
        i = i + 1;
    }
    return num / 42;
}

fn crc8(a, b) {
    let acc = a * 31 + b;
    repeat 8 {
        if acc % 2 == 1 {
            acc = acc / 2 + 140;
        } else {
            acc = acc / 2;
        }
    }
    return acc % 255;
}

fn smooth_hist(&o) {
    let acc = 0;
    let i = 0;
    repeat 8 {
        let j = (i + 1) % 8;
        let d = preshist[i] - preshist[j];
        if d < 0 {
            d = 0 - d;
        }
        acc = acc + d;
        i = i + 1;
    }
    *o = acc / 8;
}


fn wear_model(m, slope) {
    // Rough tread-wear estimate folded over a simulated rotation: the
    // kind of bookkeeping the original app spends most of its cycles on.
    let acc = m;
    let i = 0;
    repeat 48 {
        acc = (acc * 3 + slope + i) % 997;
        i = i + 1;
    }
    return acc;
}

fn main() {
    atomic {
        let pnow = read_pres();
        let avg = avg_hist();
        let avgdiff = avg - pnow;
        fresh(avgdiff);
        consistent(avgdiff, 1);
        let currmotion = 0;
        atomic {
            sample_motion(&currmotion);
        }
        fresh(currmotion);
        consistent(currmotion, 1);
        if currmotion > 30 {
            if avgdiff > 25 {
                out(radio, avgdiff, currmotion);
                urgentcount = urgentcount + 1;
            }
        }
        preshist[histn % 8] = pnow;
        histn = histn + 1;
        let slope = trend_hist();
        let jitter = 0;
        smooth_hist(&jitter);
        if slope < 0 - 3 {
            if jitter < 6 {
                leakhint = leakhint + 1;
            }
        }
        let tp = read_pres();
        consistent(tp, 2);
        let tt = read_temp();
        consistent(tt, 2);
        let compensated = tp + (25 - tt) / 4;
        if compensated < baseline - 10 {
            leakcount = leakcount + 1;
            out(log, compensated);
        } else {
            oklog = oklog + 1;
        }
    }
    let wear = wear_model(jitter, histn);
    if wear > 900 {
        oklog = oklog + 1;
    }
    let check = crc8(urgentcount, leakcount);
    atomic {
        out(uart, urgentcount, leakcount, check);
    }
}
"#;

fn environment(seed: u64) -> Environment {
    Environment::tire_blowout(800_000, seed)
}

/// The benchmark descriptor.
pub(crate) fn benchmark() -> Benchmark {
    Benchmark {
        name: "tire",
        origin: "Ocelot",
        sensors: &["pres*", "temp*", "accel*"],
        constraints: "Fresh, Con, FreshCon",
        annotated_src: ANNOTATED,
        atomics_src: ATOMICS_ONLY,
        effort: Effort {
            input_fns: 5,
            fresh_data: 2,
            consistent_data: 2,
            consistent_sets: 2,
            samoyed_fn_params: &[2, 2, 3],
            samoyed_loops: 1,
            manual_regions: 3,
        },
        env_fn: environment,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocelot_core::PolicyKind;

    #[test]
    fn policies_match_figure9() {
        let p = benchmark().annotated();
        ocelot_ir::validate(&p).unwrap();
        let taint = ocelot_analysis::taint::TaintAnalysis::run(&p);
        let ps = ocelot_core::build_policies(&p, &taint);
        let fresh: Vec<_> = ps.iter().filter(|p| p.kind == PolicyKind::Fresh).collect();
        assert_eq!(fresh.len(), 2, "avgdiff and currmotion");
        let set1 = ps
            .iter()
            .find(|p| matches!(p.kind, PolicyKind::Consistent(1)))
            .unwrap();
        // avgdiff depends on the pressure chain (directly and through
        // preshist); currmotion on the three accelerometer chains.
        assert!(set1.inputs.len() >= 4, "pressure + 3 accel chains");
        let set2 = ps
            .iter()
            .find(|p| matches!(p.kind, PolicyKind::Consistent(2)))
            .unwrap();
        assert_eq!(set2.inputs.len(), 2, "slow-path pressure + temperature");
    }

    #[test]
    fn ocelot_infers_multiple_regions() {
        let c = ocelot_core::ocelot_transform(benchmark().annotated()).unwrap();
        assert!(c.check.passes());
        assert_eq!(c.policy_map.len(), 4, "2 fresh + 2 consistent policies");
    }

    #[test]
    fn environment_has_a_blowout() {
        let env = benchmark().environment(3);
        let before = env.sample("tirepres", 100_000);
        let after = env.sample("tirepres", 1_200_000);
        assert!(before > after + 30, "pressure collapses after the puncture");
    }
}
