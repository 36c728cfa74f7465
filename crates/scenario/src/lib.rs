//! # ocelot-scenario
//!
//! A declarative scenario library: named, deterministic compositions of
//! a sensed **environment** (signal combinators over every channel the
//! apps read), a **power supply** (harvester + storage, including
//! piecewise and trace-scripted schedules), and a suggested workload
//! binding.
//!
//! The paper's guarantees only show their value across *diverse*
//! environments — its evaluation varies harvesters, sensor signals, and
//! power regimes per app (§7.2). This crate makes that variation a
//! first-class, extensible surface: every scenario is
//!
//! * **named** — [`all`] enumerates the registry, [`parse`] resolves
//!   `name` or `name@seed` specs from CLIs and sweep drivers;
//! * **deterministic** — environments are pure functions of time and the
//!   scenario seed, supplies re-derive all mutable state from the seed,
//!   so a cell can be re-run bit-for-bit;
//! * **reseedable** — [`Scenario::reseeded`] derives an independent
//!   variant for each evaluation cell; and
//! * **`Send`** — a scenario (and the supply it builds) can be moved
//!   onto a worker of the work-stealing evaluation harness.
//!
//! Adding a scenario is one entry in [`registry`] (see
//! `docs/scenarios.md` for the walkthrough); everything downstream —
//! the `scenario_sweep` bench driver, `ocelotc scenario`, the
//! determinism property tests — picks it up from the registry.

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod registry;

use ocelot_hw::energy::Capacitor;
use ocelot_hw::power::{ContinuousPower, HarvestedPower, PowerSupply};
use ocelot_hw::sensors::Environment;
use ocelot_hw::Harvester;

/// A declarative harvester description, built into a concrete
/// [`Harvester`] with the scenario seed.
#[derive(Debug, Clone, PartialEq)]
pub enum HarvesterSpec {
    /// Constant power in nW.
    Constant {
        /// Power in nW.
        power_nw: f64,
    },
    /// RF far-field source (the paper's PowerCast shape).
    Rf {
        /// Power at 1 inch, in nW.
        power_at_1in_nw: f64,
        /// Distance in inches.
        distance_in: f64,
    },
    /// Log-uniform jitter around a base power, RNG seeded per scenario.
    Noisy {
        /// Base power in nW.
        base_nw: f64,
        /// Relative jitter, e.g. `0.5` for ±50%.
        jitter: f64,
    },
    /// On/off ambient harvesting a duty fraction of each period.
    DutyCycle {
        /// Power while on, in nW.
        on_power_nw: f64,
        /// On fraction in `(0, 1]`.
        duty: f64,
    },
    /// Piecewise power over cumulative charging time (brownouts,
    /// recoveries).
    Schedule {
        /// `(from_us, power_nw)` segments.
        segments: Vec<(u64, f64)>,
    },
    /// Trace-scripted power: one sample per charging interval, cycling.
    Trace {
        /// Power per charging interval, in nW.
        powers_nw: Vec<f64>,
    },
}

impl HarvesterSpec {
    /// Builds the concrete harvester for `seed`.
    pub fn build(&self, seed: u64) -> Harvester {
        match self {
            HarvesterSpec::Constant { power_nw } => Harvester::Constant {
                power_nw: *power_nw,
            },
            HarvesterSpec::Rf {
                power_at_1in_nw,
                distance_in,
            } => Harvester::Rf {
                power_at_1in_nw: *power_at_1in_nw,
                distance_in: *distance_in,
            },
            HarvesterSpec::Noisy { base_nw, jitter } => Harvester::Noisy {
                base_nw: *base_nw,
                jitter: *jitter,
                rng: rand_seeded(seed),
            },
            HarvesterSpec::DutyCycle { on_power_nw, duty } => Harvester::DutyCycle {
                on_power_nw: *on_power_nw,
                duty: *duty,
            },
            HarvesterSpec::Schedule { segments } => Harvester::schedule(segments.clone()),
            HarvesterSpec::Trace { powers_nw } => Harvester::trace(powers_nw.clone()),
        }
    }

    /// One-line human description for `ocelotc scenario describe`.
    pub fn describe(&self) -> String {
        match self {
            HarvesterSpec::Constant { power_nw } => format!("constant {power_nw} nW"),
            HarvesterSpec::Rf {
                power_at_1in_nw,
                distance_in,
            } => format!("RF far-field, {power_at_1in_nw} nW @ 1in, {distance_in} in away"),
            HarvesterSpec::Noisy { base_nw, jitter } => {
                format!("noisy, base {base_nw} nW ± {:.0}%", jitter * 100.0)
            }
            HarvesterSpec::DutyCycle { on_power_nw, duty } => {
                format!(
                    "duty-cycled, {on_power_nw} nW on {:.0}% of the time",
                    duty * 100.0
                )
            }
            HarvesterSpec::Schedule { segments } => {
                let parts: Vec<String> = segments
                    .iter()
                    .map(|(from, p)| format!("{p} nW from {} ms", from / 1000))
                    .collect();
                format!("scheduled: {}", parts.join(", "))
            }
            HarvesterSpec::Trace { powers_nw } => {
                format!("trace-scripted, {} samples (cycling)", powers_nw.len())
            }
        }
    }
}

fn rand_seeded(seed: u64) -> rand::rngs::StdRng {
    use rand::SeedableRng;
    rand::rngs::StdRng::seed_from_u64(seed)
}

/// A declarative power-supply description, built into a boxed
/// [`PowerSupply`] with the scenario seed.
#[derive(Debug, Clone, PartialEq)]
pub enum SupplySpec {
    /// Continuous bench power (never fails) — a debugging regime.
    Continuous,
    /// A capacitor bank charged by a harvester.
    Harvested {
        /// Bank capacity in nJ.
        capacity_nj: f64,
        /// Comparator trigger reserve in nJ.
        trigger_nj: f64,
        /// The ambient source.
        harvester: HarvesterSpec,
        /// Boot-voltage jitter fraction (`None` disables).
        boot_jitter_frac: Option<f64>,
    },
}

impl SupplySpec {
    /// The evaluation's standard bank: ≈26 µJ usable, ≈2.6 µJ reserve.
    pub(crate) fn standard_bank(harvester: HarvesterSpec) -> SupplySpec {
        SupplySpec::Harvested {
            capacity_nj: 26_000.0,
            trigger_nj: 2_600.0,
            harvester,
            boot_jitter_frac: Some(0.4),
        }
    }

    /// Builds the concrete supply for `seed`.
    pub(crate) fn build(&self, seed: u64) -> Box<dyn PowerSupply> {
        match self {
            SupplySpec::Continuous => Box::new(ContinuousPower),
            SupplySpec::Harvested {
                capacity_nj,
                trigger_nj,
                harvester,
                boot_jitter_frac,
            } => {
                let mut p = HarvestedPower::new(
                    Capacitor::new(*capacity_nj, *trigger_nj),
                    harvester.build(seed),
                );
                if let Some(frac) = boot_jitter_frac {
                    p = p.with_boot_jitter(seed ^ 0x9E37, *frac);
                }
                Box::new(p)
            }
        }
    }

    /// One-line human description.
    pub fn describe(&self) -> String {
        match self {
            SupplySpec::Continuous => "continuous bench power".into(),
            SupplySpec::Harvested {
                capacity_nj,
                trigger_nj,
                harvester,
                boot_jitter_frac,
            } => format!(
                "{:.1} µJ bank ({:.1} µJ reserve), {}{}",
                capacity_nj / 1000.0,
                trigger_nj / 1000.0,
                harvester.describe(),
                if boot_jitter_frac.is_some() {
                    ", boot jitter"
                } else {
                    ""
                }
            ),
        }
    }
}

/// One named scenario: a seeded environment builder plus a declarative
/// supply and a workload suggestion. Cloning and [`Scenario::reseeded`]
/// are cheap; nothing is sampled until [`Scenario::environment`] /
/// [`Scenario::supply`] build the concrete pieces.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Registry name (also the CLI spelling).
    pub name: &'static str,
    /// One-line description.
    pub about: &'static str,
    /// The app this scenario was designed to stress (any app runs).
    pub suggested_app: &'static str,
    /// Default complete-run count for sweep cells under this scenario.
    pub default_runs: u64,
    /// The scenario seed; all noise and RNG state derives from it.
    pub seed: u64,
    /// Seeded environment builder (a pure function of the seed).
    env: fn(u64) -> Environment,
    /// Declarative supply.
    pub supply: SupplySpec,
}

impl Scenario {
    pub(crate) fn new(
        name: &'static str,
        about: &'static str,
        suggested_app: &'static str,
        env: fn(u64) -> Environment,
        supply: SupplySpec,
    ) -> Self {
        Scenario {
            name,
            about,
            suggested_app,
            default_runs: 3,
            seed: 0,
            env,
            supply,
        }
    }

    /// Builds the sensed environment for the current seed.
    pub fn environment(&self) -> Environment {
        (self.env)(self.seed)
    }

    /// Builds a fresh power supply for the current seed.
    pub fn supply(&self) -> Box<dyn PowerSupply> {
        self.supply.build(self.seed)
    }

    /// A copy with all sampled state re-derived from `seed` — the same
    /// scenario shape, statistically independent per evaluation cell.
    pub fn reseeded(&self, seed: u64) -> Scenario {
        Scenario {
            seed,
            ..self.clone()
        }
    }
}

// A scenario (and the supply it builds) must be movable onto harness
// workers.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Scenario>();
    assert_send::<Box<dyn PowerSupply>>();
};

pub use registry::{all, by_name};

/// Resolves a scenario spec: a registry `name`, or `name@seed` to
/// reseed it (e.g. `rf-noisy@99`).
///
/// Every rejection echoes the full offending spec: an empty seed
/// (`"name@"`), trailing garbage (`"name@7x"`, `"name@7@8"`), and
/// seed literals overflowing `u64` all return `Err` — the seed is
/// parsed exactly, never truncated or clamped.
///
/// # Errors
///
/// A message echoing `spec` and naming the unknown scenario (and the
/// known names) or the malformed seed.
pub fn parse(spec: &str) -> Result<Scenario, String> {
    let (name, seed) = match spec.split_once('@') {
        None => (spec, None),
        Some((n, "")) => {
            return Err(format!(
                "empty seed in scenario spec `{spec}` (use `{n}@N`)"
            ));
        }
        Some((n, s)) => {
            let seed: u64 = s
                .parse()
                .map_err(|e: std::num::ParseIntError| match e.kind() {
                    std::num::IntErrorKind::PosOverflow => {
                        format!("seed `{s}` overflows u64 in scenario spec `{spec}`")
                    }
                    _ => format!("bad seed `{s}` in scenario spec `{spec}`"),
                })?;
            (n, Some(seed))
        }
    };
    let sc = by_name(name).ok_or_else(|| {
        let names: Vec<&str> = all().iter().map(|s| s.name).collect();
        format!(
            "unknown scenario `{name}` in spec `{spec}` (known: {})",
            names.join(", ")
        )
    })?;
    Ok(match seed {
        Some(s) => sc.reseeded(s),
        None => sc,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocelot_hw::energy::PowerEvent;

    #[test]
    fn registry_has_at_least_eight_unique_scenarios() {
        let scs = all();
        assert!(scs.len() >= 8, "got {}", scs.len());
        let mut names: Vec<&str> = scs.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), scs.len(), "names are unique");
        for s in &scs {
            assert!(!s.about.is_empty(), "{} documented", s.name);
            assert!(!s.suggested_app.is_empty(), "{} bound", s.name);
        }
    }

    #[test]
    fn parse_resolves_names_and_seeds() {
        let plain = parse("rf-noisy").unwrap();
        assert_eq!(plain.name, "rf-noisy");
        let seeded = parse("rf-noisy@77").unwrap();
        assert_eq!(seeded.seed, 77);
        assert_eq!(seeded.name, "rf-noisy");
        let err = parse("does-not-exist").unwrap_err();
        assert!(err.contains("rf-noisy"), "lists known names: {err}");
        assert!(parse("rf-noisy@x").is_err());
    }

    #[test]
    fn parse_rejects_edge_case_seeds_echoing_the_spec() {
        // Empty seed.
        let err = parse("rf-noisy@").unwrap_err();
        assert!(err.contains("`rf-noisy@`"), "echoes the spec: {err}");
        assert!(err.contains("empty seed"), "{err}");
        // Trailing garbage after a valid prefix must not truncate.
        for spec in ["rf-noisy@7x", "rf-noisy@7@8", "rf-noisy@ 7", "rf-noisy@-1"] {
            let err = parse(spec).unwrap_err();
            assert!(err.contains(&format!("`{spec}`")), "echoes the spec: {err}");
        }
        // Overflowing literals are rejected, not clamped.
        let big = format!("rf-noisy@{}0", u64::MAX);
        let err = parse(&big).unwrap_err();
        assert!(err.contains("overflows"), "{err}");
        assert!(err.contains(&big), "echoes the spec: {err}");
        // u64::MAX itself is a valid seed.
        assert_eq!(
            parse(&format!("rf-noisy@{}", u64::MAX)).unwrap().seed,
            u64::MAX
        );
        // Unknown name with a seed suffix echoes the whole spec.
        let err = parse("nope@5").unwrap_err();
        assert!(err.contains("`nope@5`"), "echoes the spec: {err}");
    }

    #[test]
    fn every_scenario_builds_env_and_supply() {
        for sc in all() {
            let env = sc.environment();
            assert!(
                !env.channels().is_empty(),
                "{}: environment declares channels",
                sc.name
            );
            let mut supply = sc.supply();
            // The supply is usable: drain until it either fails (then
            // recovers) or proves continuous.
            let mut failed = false;
            for _ in 0..1_000_000 {
                if supply.consume(100.0) == PowerEvent::LowPower {
                    failed = true;
                    break;
                }
            }
            if failed {
                assert!(supply.recharge() >= 1, "{}: recharge time", sc.name);
                assert_eq!(
                    supply.consume(1.0),
                    PowerEvent::Ok,
                    "{}: usable after recharge",
                    sc.name
                );
            }
        }
    }

    #[test]
    fn reseeded_keeps_shape_and_changes_seed_only() {
        let sc = all().into_iter().next().unwrap();
        let r = sc.reseeded(1234);
        assert_eq!(r.name, sc.name);
        assert_eq!(r.supply, sc.supply);
        assert_eq!(r.seed, 1234);
    }

    #[test]
    fn supply_spec_descriptions_are_informative() {
        for sc in all() {
            let d = sc.supply.describe();
            assert!(!d.is_empty(), "{}: {d}", sc.name);
        }
        assert!(SupplySpec::Continuous.describe().contains("continuous"));
        let s = HarvesterSpec::Schedule {
            segments: vec![(0, 3.0), (1000, 1.0)],
        };
        assert!(s.describe().contains("from 1 ms"), "{}", s.describe());
    }
}
