//! `radiolog` — duty-cycled radio send-window (extension workload).
//!
//! A telemetry node that opens its radio only when the link is good
//! *and* the capacitor holds enough charge to finish a burst. The link
//! estimate must be **fresh** (a stale RSSI opens the radio into a
//! channel that faded during recharge) and the RSSI/charge pair must be
//! **temporally consistent** (a pre-failure link with a post-failure
//! charge budgets a window the hardware cannot pay for). Inside the
//! window a bounded loop drains the backlog — a fresh-constrained use
//! inside a `repeat`, which the inferred region must swallow whole.

use crate::{Benchmark, Effort};
use ocelot_hw::sensors::{Environment, Signal};

/// Annotated source (Ocelot / JIT input).
pub const ANNOTATED: &str = r#"
sensor rssi;
sensor vcap;

nv backlog[16];
nv blhead = 0;
nv bllen = 0;
nv sent = 0;
nv windows = 0;
nv skipped = 0;

// [IO:fn = read_rssi, read_vcap]
fn read_rssi() {
    let v = in(rssi);
    return v;
}

fn read_vcap() {
    let v = in(vcap);
    return v;
}

fn mix(a, b) {
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

fn main() {
    let link = read_rssi();
    fresh(link);
    consistent(link, 1);
    let charge = read_vcap();
    consistent(charge, 1);
    let budget = (charge - 40) / 10;
    if link > 45 {
        if budget > 0 {
            windows = windows + 1;
            let i = 0;
            repeat 4 {
                if i < budget {
                    if bllen > 0 {
                        let pkt = backlog[blhead % 16];
                        blhead = blhead + 1;
                        bllen = bllen - 1;
                        out(radio, pkt, link);
                        sent = sent + 1;
                    }
                }
                i = i + 1;
            }
        } else {
            skipped = skipped + 1;
        }
    } else {
        skipped = skipped + 1;
    }
    // Enqueue this cycle's telemetry sample for a later window.
    let sample = mix(link, charge);
    backlog[(blhead + bllen) % 16] = sample;
    bllen = bllen + 1;
    if bllen > 16 {
        bllen = 16;
        blhead = blhead + 1;
    }
    atomic {
        out(uart, sent, windows, skipped);
    }
}
"#;

/// Atomics-only variant: the sense-decide-send phase (every fresh use
/// and both collections) is one manual region, the backlog bookkeeping
/// a second, plus the UART guard.
pub(crate) const ATOMICS_ONLY: &str = r#"
sensor rssi;
sensor vcap;

nv backlog[16];
nv blhead = 0;
nv bllen = 0;
nv sent = 0;
nv windows = 0;
nv skipped = 0;

fn read_rssi() {
    let v = in(rssi);
    return v;
}

fn read_vcap() {
    let v = in(vcap);
    return v;
}

fn mix(a, b) {
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

fn main() {
    atomic {
        let link = read_rssi();
        fresh(link);
        consistent(link, 1);
        let charge = read_vcap();
        consistent(charge, 1);
        let budget = (charge - 40) / 10;
        if link > 45 {
            if budget > 0 {
                windows = windows + 1;
                let i = 0;
                repeat 4 {
                    if i < budget {
                        if bllen > 0 {
                            let pkt = backlog[blhead % 16];
                            blhead = blhead + 1;
                            bllen = bllen - 1;
                            out(radio, pkt, link);
                            sent = sent + 1;
                        }
                    }
                    i = i + 1;
                }
            } else {
                skipped = skipped + 1;
            }
        } else {
            skipped = skipped + 1;
        }
        let sample = mix(link, charge);
    }
    atomic {
        backlog[(blhead + bllen) % 16] = sample;
        bllen = bllen + 1;
        if bllen > 16 {
            bllen = 16;
            blhead = blhead + 1;
        }
    }
    atomic {
        out(uart, sent, windows, skipped);
    }
}
"#;

/// Default sensed world: the link fades in and out (square wave with
/// noise), while the stored charge is a correlated inverse of a shared
/// activity base — heavy ambient activity both harvests more and jams
/// the channel.
fn environment(seed: u64) -> Environment {
    let activity = Signal::Square {
        lo: 10,
        hi: 70,
        period_us: 900_000,
        duty_pm: 550,
    };
    Environment::new()
        .with(
            "rssi",
            Signal::Noisy {
                base: Box::new(Signal::Scaled {
                    base: Box::new(activity.clone()),
                    num: -1,
                    den: 1,
                    offset: 100,
                }),
                amplitude: 6,
                seed,
            },
        )
        .with(
            "vcap",
            Signal::Noisy {
                base: Box::new(Signal::Clamp {
                    base: Box::new(activity),
                    lo: 20,
                    hi: 95,
                }),
                amplitude: 3,
                seed: seed ^ 0x7ADE,
            },
        )
}

/// The benchmark descriptor.
pub(crate) fn benchmark() -> Benchmark {
    Benchmark {
        name: "radiolog",
        origin: "extension",
        sensors: &["rssi", "vcap"],
        constraints: "Fresh, Con",
        annotated_src: ANNOTATED,
        atomics_src: ATOMICS_ONLY,
        effort: Effort {
            input_fns: 2,
            fresh_data: 1,
            consistent_data: 1,
            consistent_sets: 1,
            samoyed_fn_params: &[2],
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
    fn fresh_link_region_swallows_the_send_loop() {
        let c = ocelot_core::ocelot_transform(benchmark().annotated()).unwrap();
        assert!(c.check.passes(), "{:?}", c.check.violations);
        let fresh = c
            .policies
            .iter()
            .find(|p| p.kind == PolicyKind::Fresh)
            .unwrap();
        assert!(
            fresh.uses.len() >= 3,
            "window gate, in-loop radio use, and mix: {:?}",
            fresh.uses
        );
    }

    #[test]
    fn environment_link_and_charge_are_anticorrelated() {
        let env = benchmark().environment(3);
        let mut opposed = 0;
        for t in (0..3_600_000u64).step_by(18_000) {
            let link = env.sample("rssi", t);
            let cap = env.sample("vcap", t);
            if (link > 60) == (cap < 50) {
                opposed += 1;
            }
        }
        assert!(opposed > 150, "inverse correlation: {opposed}/200");
    }
}
