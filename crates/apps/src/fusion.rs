//! `fusion` — multi-sensor attitude fusion (extension workload).
//!
//! Fuses accelerometer, gyroscope, and magnetometer samples into one
//! heading/tilt estimate, the classic complementary-filter shape. All
//! three axes must describe the *same* world state (one consistent
//! set): mixing a pre-failure accelerometer sample with post-failure
//! gyro/mag readings fabricates an attitude no IMU ever measured. The
//! derived tilt alarm must additionally be *fresh* — an alarm raised on
//! a minutes-old tilt is exactly the Figure 2 bug on a different
//! sensor.

use crate::{Benchmark, Effort};
use ocelot_hw::sensors::{Environment, Signal};

/// Annotated source (Ocelot / JIT input).
pub const ANNOTATED: &str = r#"
sensor accel;
sensor gyro;
sensor mag;

nv headlog[8];
nv logn = 0;
nv tiltalarms = 0;
nv jumps = 0;
nv calib = 12;

// [IO:fn = read_accel, read_gyro, read_mag]
fn read_accel() {
    let v = in(accel);
    return v;
}

fn read_gyro() {
    let v = in(gyro);
    return v;
}

fn read_mag() {
    let v = in(mag);
    return v;
}

fn iabs(v) {
    if v < 0 {
        return 0 - v;
    }
    return v;
}

fn smooth_headlog() {
    let acc = 0;
    let i = 0;
    repeat 8 {
        acc = acc + headlog[i];
        i = i + 1;
    }
    return acc / 8;
}

fn main() {
    // One fused attitude sample: all three axes from one world state.
    let a = read_accel();
    consistent(a, 1);
    let g = read_gyro();
    consistent(g, 1);
    let m = read_mag();
    consistent(m, 1);
    // Complementary-filter-flavoured fusion.
    let heading = (m * 3 + g) / 4;
    let lean = a - calib;
    let tilt = iabs(lean);
    fresh(tilt);
    if tilt > 35 {
        tiltalarms = tiltalarms + 1;
        out(alarm, tilt, heading);
    }
    headlog[logn % 8] = heading;
    logn = logn + 1;
    let avg = smooth_headlog();
    let delta = heading - avg;
    let swing = iabs(delta);
    if swing > 20 {
        jumps = jumps + 1;
    }
    atomic {
        out(uart, logn, tiltalarms, jumps);
    }
}
"#;

/// Atomics-only variant: the whole sense-and-fuse phase is one manual
/// region (covering the consistent set's three collections and every
/// fresh-tilt use), followed by a logging phase and the UART guard.
pub(crate) const ATOMICS_ONLY: &str = r#"
sensor accel;
sensor gyro;
sensor mag;

nv headlog[8];
nv logn = 0;
nv tiltalarms = 0;
nv jumps = 0;
nv calib = 12;

fn read_accel() {
    let v = in(accel);
    return v;
}

fn read_gyro() {
    let v = in(gyro);
    return v;
}

fn read_mag() {
    let v = in(mag);
    return v;
}

fn iabs(v) {
    if v < 0 {
        return 0 - v;
    }
    return v;
}

fn smooth_headlog() {
    let acc = 0;
    let i = 0;
    repeat 8 {
        acc = acc + headlog[i];
        i = i + 1;
    }
    return acc / 8;
}

fn main() {
    atomic {
        let a = read_accel();
        consistent(a, 1);
        let g = read_gyro();
        consistent(g, 1);
        let m = read_mag();
        consistent(m, 1);
        let heading = (m * 3 + g) / 4;
        let lean = a - calib;
        let tilt = iabs(lean);
        fresh(tilt);
        if tilt > 35 {
            tiltalarms = tiltalarms + 1;
            out(alarm, tilt, heading);
        }
    }
    atomic {
        headlog[logn % 8] = heading;
        logn = logn + 1;
        let avg = smooth_headlog();
        let delta = heading - avg;
        let swing = iabs(delta);
        if swing > 20 {
            jumps = jumps + 1;
        }
    }
    atomic {
        out(uart, logn, tiltalarms, jumps);
    }
}
"#;

/// Default sensed world: motion bursts on a shared base, with the gyro
/// channel a correlated affine image of the accelerometer and a slowly
/// drifting magnetometer — built from the scenario combinators.
fn environment(seed: u64) -> Environment {
    let motion = Signal::Burst {
        base: Box::new(Signal::Constant(8)),
        amplitude: 45,
        every_us: 500_000,
        width_us: 140_000,
        seed,
    };
    Environment::new()
        .with(
            "accel",
            Signal::Noisy {
                base: Box::new(motion.clone()),
                amplitude: 4,
                seed,
            },
        )
        .with(
            "gyro",
            Signal::Noisy {
                base: Box::new(Signal::Scaled {
                    base: Box::new(motion),
                    num: 2,
                    den: 3,
                    offset: 5,
                }),
                amplitude: 3,
                seed: seed ^ 0x61E0,
            },
        )
        .with(
            "mag",
            Signal::Noisy {
                base: Box::new(Signal::Clamp {
                    base: Box::new(Signal::Drift {
                        start: 30,
                        rate_per_s: 2,
                    }),
                    lo: 0,
                    hi: 90,
                }),
                amplitude: 2,
                seed: seed ^ 0x3A99,
            },
        )
}

/// The benchmark descriptor.
pub(crate) fn benchmark() -> Benchmark {
    Benchmark {
        name: "fusion",
        origin: "extension",
        sensors: &["accel", "gyro", "mag"],
        constraints: "Con, Fresh",
        annotated_src: ANNOTATED,
        atomics_src: ATOMICS_ONLY,
        effort: Effort {
            input_fns: 3,
            fresh_data: 1,
            consistent_data: 3,
            consistent_sets: 1,
            samoyed_fn_params: &[3],
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
    fn consistent_set_spans_all_three_axes() {
        let c = ocelot_core::ocelot_transform(benchmark().annotated()).unwrap();
        assert!(c.check.passes(), "{:?}", c.check.violations);
        let set = c
            .policies
            .iter()
            .find(|p| matches!(p.kind, PolicyKind::Consistent(1)))
            .unwrap();
        assert_eq!(set.decls.len(), 3, "a, g, m");
        assert_eq!(set.inputs.len(), 3, "three collections");
    }

    #[test]
    fn environment_channels_are_live_and_correlated() {
        let env = benchmark().environment(5);
        assert_eq!(env.channels(), vec!["accel", "gyro", "mag"]);
        // The gyro is an affine image of the accel base: both spike in
        // the same burst windows (compare means in/out of bursts).
        let mut together = 0;
        for t in (0..2_000_000u64).step_by(10_000) {
            let a = env.sample("accel", t);
            let g = env.sample("gyro", t);
            if (a > 30) == (g > 25) {
                together += 1;
            }
        }
        assert!(together > 150, "correlated channels: {together}/200");
    }
}
