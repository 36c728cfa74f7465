//! The scenario registry: every named scenario, built from a shared
//! multi-channel world plus per-scenario perturbations.
//!
//! Scenarios must cover the channels of *every* app (paper and
//! extension) so the sweep driver can cross any app with any scenario;
//! `world` declares the full channel set once and each scenario
//! overrides the channels its regime distorts. All noise is keyed off
//! the scenario seed, so two different seeds always diverge somewhere
//! in the sampled world.

use crate::{HarvesterSpec, Scenario, SupplySpec};
use ocelot_hw::sensors::{Environment, Signal};

/// Noise around `base` keyed by the scenario seed and a per-channel
/// salt, so channels stay independent but replayable.
fn noisy(base: Signal, amplitude: i64, seed: u64, salt: u64) -> Signal {
    Signal::Noisy {
        base: Box::new(base),
        amplitude,
        seed: seed ^ salt,
    }
}

/// The shared baseline world: one gently-varying signal per channel any
/// app reads (weather, greenhouse, motion, light, tire, radio, audio).
/// Scenario builders start here and override what their regime changes.
pub(crate) fn world(seed: u64) -> Environment {
    let motion = Signal::Burst {
        base: Box::new(Signal::Constant(8)),
        amplitude: 40,
        every_us: 500_000,
        width_us: 150_000,
        seed: seed ^ 0xACCE,
    };
    Environment::new()
        // Weather channels (weather.oc, Figure 2).
        .with("tmp", noisy(Signal::Constant(4), 2, seed, 0x01))
        .with("pres", noisy(Signal::Constant(85), 3, seed, 0x02))
        .with("hum", noisy(Signal::Constant(30), 4, seed, 0x03))
        // Greenhouse.
        .with(
            "temp",
            noisy(
                Signal::Ramp {
                    start: 18,
                    end: 32,
                    t0_us: 0,
                    t1_us: 3_000_000,
                },
                1,
                seed,
                0x04,
            ),
        )
        // Photoresistor apps.
        .with(
            "photo",
            noisy(
                Signal::Square {
                    lo: 10,
                    hi: 90,
                    period_us: 250_000,
                    duty_pm: 650,
                },
                3,
                seed,
                0x05,
            ),
        )
        .with("rssi", noisy(Signal::Constant(55), 6, seed, 0x06))
        .with(
            "vcap",
            noisy(
                Signal::Clamp {
                    base: Box::new(Signal::Drift {
                        start: 70,
                        rate_per_s: -3,
                    }),
                    lo: 25,
                    hi: 95,
                },
                3,
                seed,
                0x07,
            ),
        )
        // IMU channels: gyro is a correlated image of the accel base.
        .with("accel", noisy(motion.clone(), 4, seed, 0x08))
        .with(
            "gyro",
            noisy(
                Signal::Scaled {
                    base: Box::new(motion),
                    num: 2,
                    den: 3,
                    offset: 5,
                },
                3,
                seed,
                0x09,
            ),
        )
        .with(
            "mag",
            noisy(
                Signal::Drift {
                    start: 30,
                    rate_per_s: 1,
                },
                2,
                seed,
                0x0A,
            ),
        )
        // Microphone.
        .with(
            "mic",
            noisy(
                Signal::Burst {
                    base: Box::new(Signal::Constant(6)),
                    amplitude: 60,
                    every_us: 700_000,
                    width_us: 90_000,
                    seed: seed ^ 0x111C,
                },
                5,
                seed,
                0x0B,
            ),
        )
        // Tire channels.
        .with("tirepres", noisy(Signal::Constant(98), 2, seed, 0x0C))
        .with("tiretemp", noisy(Signal::Constant(25), 1, seed, 0x0D))
        .with(
            "wheelacc",
            noisy(
                Signal::Square {
                    lo: 5,
                    hi: 40,
                    period_us: 120_000,
                    duty_pm: 700,
                },
                5,
                seed,
                0x0E,
            ),
        )
}

fn env_rf_lab(seed: u64) -> Environment {
    world(seed)
}

fn env_office_day(seed: u64) -> Environment {
    world(seed)
        .with(
            "photo",
            noisy(
                Signal::Sum(vec![
                    Signal::Ramp {
                        start: 15,
                        end: 80,
                        t0_us: 0,
                        t1_us: 4_000_000,
                    },
                    Signal::Square {
                        lo: 0,
                        hi: 10,
                        period_us: 600_000,
                        duty_pm: 500,
                    },
                ]),
                2,
                seed,
                0x05,
            ),
        )
        .with(
            "temp",
            noisy(
                Signal::Drift {
                    start: 21,
                    rate_per_s: 1,
                },
                1,
                seed,
                0x04,
            ),
        )
        .with("mic", noisy(Signal::Constant(10), 4, seed, 0x0B))
}

fn env_machine_room(seed: u64) -> Environment {
    let vibration = Signal::Burst {
        base: Box::new(Signal::Constant(15)),
        amplitude: 55,
        every_us: 300_000,
        width_us: 120_000,
        seed: seed ^ 0xF00D,
    };
    world(seed)
        .with("accel", noisy(vibration.clone(), 6, seed, 0x08))
        .with(
            "gyro",
            noisy(
                Signal::Scaled {
                    base: Box::new(vibration.clone()),
                    num: 1,
                    den: 2,
                    offset: 10,
                },
                4,
                seed,
                0x09,
            ),
        )
        .with(
            "mic",
            noisy(
                Signal::Scaled {
                    base: Box::new(vibration),
                    num: 3,
                    den: 2,
                    offset: 0,
                },
                6,
                seed,
                0x0B,
            ),
        )
}

fn env_storm_front(seed: u64) -> Environment {
    let front_us = 1_500_000;
    world(seed)
        .with(
            "tmp",
            noisy(
                Signal::Step {
                    before: 2,
                    after: 10,
                    at_us: front_us,
                },
                1,
                seed,
                0x01,
            ),
        )
        .with(
            "pres",
            noisy(
                Signal::Step {
                    before: 90,
                    after: 40,
                    at_us: front_us,
                },
                2,
                seed,
                0x02,
            ),
        )
        .with(
            "hum",
            noisy(
                Signal::Step {
                    before: 20,
                    after: 80,
                    at_us: front_us,
                },
                3,
                seed,
                0x03,
            ),
        )
        .with(
            "rssi",
            noisy(
                Signal::Step {
                    before: 60,
                    after: 25,
                    at_us: front_us,
                },
                5,
                seed,
                0x06,
            ),
        )
}

fn env_highway(seed: u64) -> Environment {
    let puncture_us = 800_000;
    world(seed)
        .with(
            "tirepres",
            noisy(
                Signal::Ramp {
                    start: 100,
                    end: 18,
                    t0_us: puncture_us,
                    t1_us: puncture_us + 150_000,
                },
                2,
                seed,
                0x0C,
            ),
        )
        .with(
            "tiretemp",
            Signal::Ramp {
                start: 25,
                end: 70,
                t0_us: puncture_us,
                t1_us: puncture_us + 1_000_000,
            },
        )
        .with(
            "accel",
            noisy(
                Signal::Square {
                    lo: 20,
                    hi: 60,
                    period_us: 90_000,
                    duty_pm: 600,
                },
                6,
                seed,
                0x08,
            ),
        )
}

fn env_solar_flicker(seed: u64) -> Environment {
    world(seed).with(
        "photo",
        noisy(
            Signal::Burst {
                base: Box::new(Signal::Constant(85)),
                amplitude: -70,
                every_us: 400_000,
                width_us: 180_000,
                seed: seed ^ 0x501A,
            },
            3,
            seed,
            0x05,
        ),
    )
}

fn env_cold_start(seed: u64) -> Environment {
    world(seed)
        .with("temp", noisy(Signal::Constant(2), 1, seed, 0x04))
        .with("mic", noisy(Signal::Constant(4), 3, seed, 0x0B))
}

/// Every registered scenario, in presentation order.
pub fn all() -> Vec<Scenario> {
    vec![
        Scenario::new(
            "rf-lab",
            "the paper's testbed: steady PowerCast RF at 10 inches, calm office world",
            "fusion",
            env_rf_lab,
            SupplySpec::standard_bank(HarvesterSpec::Rf {
                power_at_1in_nw: 100.0,
                distance_in: 10.0,
            }),
        ),
        Scenario::new(
            "rf-noisy",
            "the same RF testbed with ±60% ambient jitter per charge interval",
            "radiolog",
            env_rf_lab,
            SupplySpec::standard_bank(HarvesterSpec::Noisy {
                base_nw: 1.0,
                jitter: 0.6,
            }),
        ),
        Scenario::new(
            "office-day",
            "diurnal light/temperature drift with duty-cycled overhead-light harvesting",
            "mlinfer",
            env_office_day,
            SupplySpec::standard_bank(HarvesterSpec::DutyCycle {
                on_power_nw: 2.0,
                duty: 0.55,
            }),
        ),
        Scenario::new(
            "machine-room",
            "correlated vibration/noise bursts from rotating machinery, duty-cycled harvest",
            "fusion",
            env_machine_room,
            SupplySpec::standard_bank(HarvesterSpec::DutyCycle {
                on_power_nw: 3.0,
                duty: 0.5,
            }),
        ),
        Scenario::new(
            "storm-front",
            "Figure 2's weather front crosses mid-deployment; RF jitters as it passes",
            "greenhouse",
            env_storm_front,
            SupplySpec::standard_bank(HarvesterSpec::Noisy {
                base_nw: 0.8,
                jitter: 0.8,
            }),
        ),
        Scenario::new(
            "highway-blowout",
            "tire puncture burst at speed, strong rotation-driven harvesting",
            "tire",
            env_highway,
            SupplySpec::standard_bank(HarvesterSpec::Constant { power_nw: 4.0 }),
        ),
        Scenario::new(
            "brownout",
            "a supply that degrades over the deployment (piecewise power schedule)",
            "radiolog",
            env_rf_lab,
            SupplySpec::standard_bank(HarvesterSpec::Schedule {
                segments: vec![(0, 3.0), (400_000, 1.0), (1_200_000, 0.3)],
            }),
        ),
        Scenario::new(
            "solar-flicker",
            "cloud shadows: trace-scripted solar power and anticorrelated light level",
            "photo",
            env_solar_flicker,
            SupplySpec::standard_bank(HarvesterSpec::Trace {
                powers_nw: vec![4.0, 3.5, 0.5, 0.2, 3.0, 0.3, 2.5, 1.5],
            }),
        ),
        Scenario::new(
            "cold-start",
            "a barely-viable ambient: long charging gaps stress every freshness window",
            "mlinfer",
            env_cold_start,
            SupplySpec::standard_bank(HarvesterSpec::Constant { power_nw: 0.15 }),
        ),
    ]
}

/// Looks a scenario up by registry name.
pub fn by_name(name: &str) -> Option<Scenario> {
    all().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The channel set every scenario must serve: the union of the
    /// sensors declared by every app the sweep can bind.
    const REQUIRED_CHANNELS: &[&str] = &[
        "tmp", "pres", "hum", "temp", "photo", "accel", "gyro", "mag", "mic", "rssi", "vcap",
        "tirepres", "tiretemp", "wheelacc",
    ];

    #[test]
    fn every_scenario_covers_every_app_channel() {
        for sc in all() {
            let env = sc.environment();
            let channels = env.channels();
            for required in REQUIRED_CHANNELS {
                assert!(
                    channels.contains(required),
                    "{}: channel `{required}` missing",
                    sc.name
                );
            }
        }
    }

    #[test]
    fn storm_front_actually_steps() {
        let env = by_name("storm-front").unwrap().environment();
        assert!(env.sample("pres", 0) > env.sample("pres", 3_000_000) + 20);
        assert!(env.sample("hum", 3_000_000) > env.sample("hum", 0) + 20);
    }

    #[test]
    fn machine_room_channels_are_correlated() {
        let env = by_name("machine-room").unwrap().environment();
        let mut together = 0;
        let mut n = 0;
        for t in (0..3_000_000u64).step_by(15_000) {
            n += 1;
            let a = env.sample("accel", t);
            let g = env.sample("gyro", t);
            if (a > 40) == (g > 30) {
                together += 1;
            }
        }
        assert!(together * 4 > n * 3, "correlated bursts: {together}/{n}");
    }

    #[test]
    fn lookup_misses_return_none() {
        assert!(by_name("rf-lab").is_some());
        assert!(by_name("not-a-scenario").is_none());
    }
}
