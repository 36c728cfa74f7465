//! `send_photo` — Samoyed's radio microbenchmark: sample the
//! photoresistor and transmit when the light level is high.
//!
//! The level must be *fresh* when the send decision and the packet are
//! made: transmitting a pre-power-failure reading reports a brightness
//! the world may no longer have. The radio path also samples the channel
//! (RSSI) and the storage voltage before committing to a send — the
//! extra input functions Table 4's effort row charges.

use crate::{Benchmark, Effort};
use ocelot_hw::sensors::{Environment, Signal};

/// Annotated source.
pub const ANNOTATED: &str = r#"
sensor photo;
sensor rssi;
sensor vcap;

nv sends = 0;
nv skips = 0;

// [IO:fn = read_photo, read_rssi, read_vcap]
fn read_photo() {
    let v = in(photo);
    return v;
}

fn read_rssi() {
    let v = in(rssi);
    return v;
}

fn read_vcap() {
    let v = in(vcap);
    return v;
}

fn main() {
    let level = read_photo();
    fresh(level);
    if level > 60 {
        let ch = read_rssi();
        let bat = read_vcap();
        if ch < 30 {
            if bat > 10 {
                let crc = (level * 7 + sends) % 255;
                out(radio, level, crc);
                sends = sends + 1;
            }
        }
    } else {
        skips = skips + 1;
    }
    atomic {
        out(uart, sends, skips);
    }
}
"#;

/// Atomics-only variant: sampling through transmission in one manual
/// region (the Samoyed atomic-function shape).
pub(crate) const ATOMICS_ONLY: &str = r#"
sensor photo;
sensor rssi;
sensor vcap;

nv sends = 0;
nv skips = 0;

fn read_photo() {
    let v = in(photo);
    return v;
}

fn read_rssi() {
    let v = in(rssi);
    return v;
}

fn read_vcap() {
    let v = in(vcap);
    return v;
}

fn main() {
    atomic {
        let level = read_photo();
        fresh(level);
        if level > 60 {
            let ch = read_rssi();
            let bat = read_vcap();
            if ch < 30 {
                if bat > 10 {
                    out(radio, level);
                    sends = sends + 1;
                }
            }
        } else {
            skips = skips + 1;
        }
    }
    atomic {
        out(uart, sends, skips);
    }
}
"#;

fn environment(seed: u64) -> Environment {
    // Light steps drive the send decision; the channel is mostly clear
    // and the storage voltage healthy, with noise.
    let base = Environment::light_steps(seed);
    base.with(
        "rssi",
        Signal::Noisy {
            base: Box::new(Signal::Constant(20)),
            amplitude: 8,
            seed: seed ^ 0x5511,
        },
    )
    .with(
        "vcap",
        Signal::Noisy {
            base: Box::new(Signal::Constant(40)),
            amplitude: 5,
            seed: seed ^ 0xCAFE,
        },
    )
}

/// The benchmark descriptor.
pub(crate) fn benchmark() -> Benchmark {
    Benchmark {
        name: "send_photo",
        origin: "Samoyed",
        sensors: &["photo"],
        constraints: "Fresh",
        annotated_src: ANNOTATED,
        atomics_src: ATOMICS_ONLY,
        effort: Effort {
            input_fns: 3,
            fresh_data: 1,
            consistent_data: 0,
            consistent_sets: 0,
            samoyed_fn_params: &[1],
            samoyed_loops: 0,
            manual_regions: 2,
        },
        env_fn: environment,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocelot_core::PolicyKind;

    #[test]
    fn fresh_policy_has_branch_and_radio_uses() {
        let p = benchmark().annotated();
        ocelot_ir::validate(&p).unwrap();
        let taint = ocelot_analysis::taint::TaintAnalysis::run(&p);
        let ps = ocelot_core::build_policies(&p, &taint);
        let fresh = ps.iter().find(|p| p.kind == PolicyKind::Fresh).unwrap();
        assert_eq!(fresh.inputs.len(), 1);
        assert_eq!(
            fresh.uses.len(),
            3,
            "the branch, the checksum, and the radio send"
        );
    }

    #[test]
    fn region_covers_the_send() {
        let c = ocelot_core::ocelot_transform(benchmark().annotated()).unwrap();
        assert!(c.check.passes());
        assert_eq!(c.policy_map.len(), 1);
    }
}
