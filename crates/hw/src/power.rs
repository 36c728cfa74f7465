//! Power supplies: the interface between the intermittent runtime and
//! the energy substrate.
//!
//! The runtime draws energy per executed instruction and receives a
//! [`PowerEvent::LowPower`] when the comparator trips; on shutdown it
//! asks for the off/charging time before reboot — the arbitrary `n` that
//! the paper's `pick(n)` models in the reboot rules (Appendix H).

use crate::energy::{Capacitor, PowerEvent};
use crate::harvest::Harvester;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A source of operating power for an intermittent execution.
///
/// Supplies are `Send` so a machine (and the boxed supply it owns) can
/// be moved onto a worker thread of the parallel evaluation harness;
/// every supply here is plain data plus a seeded RNG, so the bound is
/// free.
pub trait PowerSupply: Send {
    /// Draws `energy_nj` for useful work; returns
    /// [`PowerEvent::LowPower`] when the system must checkpoint and
    /// shut down.
    fn consume(&mut self, energy_nj: f64) -> PowerEvent;

    /// Off-time in microseconds until the system can reboot, refilling
    /// storage as a side effect.
    fn recharge(&mut self) -> u64;

    /// True for supplies that never fail (continuous power).
    fn is_continuous(&self) -> bool {
        false
    }

    /// Draws `draws` in order, one [`PowerSupply::consume`] each, and
    /// stops at the first draw that reports [`PowerEvent::LowPower`],
    /// returning its index (`None`: every draw fit).
    ///
    /// This is how the compiled execution backend charges a pre-costed
    /// run of instructions: the draw sequence, and so the instruction
    /// the comparator trips on, is exactly the per-instruction one —
    /// draws after the trip are never made. The default loop calls
    /// `consume` statically (each implementor gets its own copy), so a
    /// caller holding a `dyn PowerSupply` pays one virtual call per run
    /// instead of one per instruction.
    fn consume_run(&mut self, draws: &[f64]) -> Option<usize> {
        draws
            .iter()
            .position(|&nj| self.consume(nj) == PowerEvent::LowPower)
    }
}

/// Continuous bench power: never fails.
#[derive(Debug, Clone, Default)]
pub struct ContinuousPower;

impl PowerSupply for ContinuousPower {
    fn consume(&mut self, _energy_nj: f64) -> PowerEvent {
        PowerEvent::Ok
    }

    fn recharge(&mut self) -> u64 {
        0
    }

    fn is_continuous(&self) -> bool {
        true
    }

    fn consume_run(&mut self, _draws: &[f64]) -> Option<usize> {
        None
    }
}

/// Harvested power: a capacitor fed by a harvester — the Capybara +
/// PowerCast configuration of §7.2.
#[derive(Debug, Clone)]
pub struct HarvestedPower {
    /// The storage bank.
    pub capacitor: Capacitor,
    /// The ambient source.
    pub harvester: Harvester,
    /// Boot-voltage jitter: on each reboot the bank restarts somewhere
    /// below full, modeling comparator hysteresis and ambient variation
    /// during the boot ramp. Without it, constant-length programs
    /// phase-lock the failure point to one spot (`None` disables).
    boot_jitter: Option<(StdRng, f64)>,
}

impl HarvestedPower {
    /// Builds a supply from parts (no boot jitter).
    pub fn new(capacitor: Capacitor, harvester: Harvester) -> Self {
        HarvestedPower {
            capacitor,
            harvester,
            boot_jitter: None,
        }
    }

    /// The paper's evaluation setup.
    pub fn capybara_powercast() -> Self {
        Self::new(Capacitor::capybara(), Harvester::powercast_at_10in())
    }

    /// Capybara storage with a seeded noisy harvester.
    pub fn capybara_noisy(seed: u64) -> Self {
        Self::new(Capacitor::capybara(), Harvester::powercast_noisy(seed))
    }

    /// Enables boot-voltage jitter: each reboot starts with up to
    /// `frac` of the usable capacity already spent (uniformly).
    pub fn with_boot_jitter(mut self, seed: u64, frac: f64) -> Self {
        self.boot_jitter = Some((StdRng::seed_from_u64(seed), frac.clamp(0.0, 0.95)));
        self
    }
}

impl PowerSupply for HarvestedPower {
    fn consume(&mut self, energy_nj: f64) -> PowerEvent {
        self.capacitor.consume(energy_nj)
    }

    fn recharge(&mut self) -> u64 {
        let t = self.harvester.charge_time_us(self.capacitor.deficit_nj());
        self.capacitor.refill();
        if let Some((rng, frac)) = &mut self.boot_jitter {
            let spend = self.capacitor.capacity_nj() * *frac * rng.gen::<f64>();
            // Spend from the top without tripping the comparator.
            let headroom = (self.capacitor.level_nj() - self.capacitor.trigger_nj() - 1.0).max(0.0);
            self.capacitor.consume(spend.min(headroom));
        }
        t
    }
}

/// Scripted power that fails after fixed amounts of consumed energy —
/// used by unit tests to place failures deterministically.
#[derive(Debug, Clone)]
pub struct ScriptedPower {
    /// Remaining energy budgets; each entry is one power-on interval.
    budgets: Vec<f64>,
    current: f64,
    /// Fixed off-time per failure.
    off_time_us: u64,
    exhausted_budgets: usize,
}

impl ScriptedPower {
    /// Power that fails each time `budgets[i]` nanojoules have been
    /// consumed, then never again once the script is exhausted.
    pub fn new(budgets: Vec<f64>, off_time_us: u64) -> Self {
        let current = budgets.first().copied().unwrap_or(f64::INFINITY);
        ScriptedPower {
            budgets,
            current,
            off_time_us,
            exhausted_budgets: 0,
        }
    }

    /// Number of completed power-off cycles so far.
    pub fn failures(&self) -> usize {
        self.exhausted_budgets
    }
}

impl PowerSupply for ScriptedPower {
    fn consume(&mut self, energy_nj: f64) -> PowerEvent {
        self.current -= energy_nj;
        if self.current <= 0.0 {
            PowerEvent::LowPower
        } else {
            PowerEvent::Ok
        }
    }

    fn recharge(&mut self) -> u64 {
        self.exhausted_budgets += 1;
        self.current = self
            .budgets
            .get(self.exhausted_budgets)
            .copied()
            .unwrap_or(f64::INFINITY);
        self.off_time_us
    }
}

/// Random power: exponential-ish on-intervals drawn around a mean energy
/// budget, for soak testing.
#[derive(Debug, Clone)]
pub struct RandomPower {
    mean_budget_nj: f64,
    mean_off_us: u64,
    current: f64,
    rng: StdRng,
}

impl RandomPower {
    /// Seeded random supply with a mean on-interval energy budget and a
    /// mean off-time.
    pub fn new(mean_budget_nj: f64, mean_off_us: u64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let current = sample_exp(&mut rng, mean_budget_nj);
        RandomPower {
            mean_budget_nj,
            mean_off_us,
            current,
            rng,
        }
    }
}

fn sample_exp(rng: &mut StdRng, mean: f64) -> f64 {
    let u: f64 = rng.gen_range(1e-6..1.0);
    -mean * u.ln()
}

impl PowerSupply for RandomPower {
    fn consume(&mut self, energy_nj: f64) -> PowerEvent {
        self.current -= energy_nj;
        if self.current <= 0.0 {
            PowerEvent::LowPower
        } else {
            PowerEvent::Ok
        }
    }

    fn recharge(&mut self) -> u64 {
        self.current = sample_exp(&mut self.rng, self.mean_budget_nj);
        let off = sample_exp(&mut self.rng, self.mean_off_us as f64);
        off.ceil().max(1.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn continuous_never_fails() {
        let mut p = ContinuousPower;
        for _ in 0..1000 {
            assert_eq!(p.consume(1e9), PowerEvent::Ok);
        }
        assert!(p.is_continuous());
        assert_eq!(p.recharge(), 0);
        assert_eq!(p.consume_run(&[1e12, 1e12]), None);
    }

    /// The stored energy of each supply, compared bit for bit between a
    /// batched and a sequential copy.
    trait Level {
        fn level(&self) -> f64;
    }

    impl Level for ContinuousPower {
        fn level(&self) -> f64 {
            0.0
        }
    }

    impl Level for HarvestedPower {
        fn level(&self) -> f64 {
            self.capacitor.level_nj()
        }
    }

    impl Level for ScriptedPower {
        fn level(&self) -> f64 {
            self.current
        }
    }

    impl Level for RandomPower {
        fn level(&self) -> f64 {
            self.current
        }
    }

    /// The reference for [`PowerSupply::consume_run`]: one `consume`
    /// per draw, stopping at the first trip.
    fn sequential(p: &mut impl PowerSupply, draws: &[f64]) -> Option<usize> {
        for (i, &nj) in draws.iter().enumerate() {
            if p.consume(nj) == PowerEvent::LowPower {
                return Some(i);
            }
        }
        None
    }

    /// Drives a batched and a sequential copy of `supply` through the
    /// same draws: an empty run, a run that trips on its first draw,
    /// then seeded random runs. After every trip some rounds keep
    /// drawing in the reserve zone before both copies recharge. Returns
    /// the number of trips seen.
    fn assert_run_matches_sequential<P>(supply: P, mean_nj: f64) -> usize
    where
        P: PowerSupply + Level + Clone,
    {
        let mut batched = supply.clone();
        let mut seq = supply;
        let mut trips = 0;
        let step = |batched: &mut P, seq: &mut P, draws: &[f64], what: &str| {
            let got = batched.consume_run(draws);
            assert_eq!(got, sequential(seq, draws), "{what}: trip index");
            assert_eq!(
                batched.level().to_bits(),
                seq.level().to_bits(),
                "{what}: level after {draws:?}"
            );
            got
        };
        let before = batched.level().to_bits();
        assert_eq!(step(&mut batched, &mut seq, &[], "empty run"), None);
        assert_eq!(
            batched.level().to_bits(),
            before,
            "an empty run draws nothing"
        );

        let mut rng = StdRng::seed_from_u64(7);
        for round in 0..400 {
            let draws: Vec<f64> = if round == 0 {
                // Trips on draw 0 unless the supply cannot fail; the
                // draws after it must not be made.
                vec![1e9, 1.0, 1.0]
            } else {
                let len = rng.gen_range(0..24usize);
                (0..len)
                    .map(|_| rng.gen_range(0.0..2.0 * mean_nj))
                    .collect()
            };
            let Some(at) = step(&mut batched, &mut seq, &draws, "run") else {
                continue;
            };
            trips += 1;
            if round == 0 {
                assert_eq!(at, 0, "the first draw tripped");
            }
            if round % 3 == 0 {
                let tail: Vec<f64> = (0..5).map(|_| rng.gen_range(0.0..mean_nj)).collect();
                step(&mut batched, &mut seq, &tail, "reserve-zone run");
            }
            assert_eq!(batched.recharge(), seq.recharge(), "off-time");
            assert_eq!(batched.level().to_bits(), seq.level().to_bits());
        }
        trips
    }

    #[test]
    fn consume_run_equals_sequential_draws_on_every_supply() {
        assert_eq!(assert_run_matches_sequential(ContinuousPower, 1e6), 0);
        let harvested = HarvestedPower::new(
            Capacitor::new(26_000.0, 2_600.0),
            Harvester::powercast_noisy(3),
        )
        .with_boot_jitter(5, 0.4);
        assert!(assert_run_matches_sequential(harvested, 400.0) > 20);
        let scripted = ScriptedPower::new(vec![10.0, 3_000.0, 50.0, 9_000.0, 1.0], 5);
        assert!(assert_run_matches_sequential(scripted, 300.0) >= 5);
        assert!(assert_run_matches_sequential(RandomPower::new(2_000.0, 50, 11), 200.0) > 20);
    }

    #[test]
    fn harvested_fails_and_recovers() {
        let mut p = HarvestedPower::capybara_powercast();
        let mut events = 0;
        let mut safety = 0;
        loop {
            safety += 1;
            assert!(safety < 1_000_000);
            if p.consume(100.0) == PowerEvent::LowPower {
                events += 1;
                break;
            }
        }
        assert_eq!(events, 1);
        let off = p.recharge();
        assert!(off > 1_000, "charging 46 µJ takes real time, got {off} µs");
        assert_eq!(
            p.consume(100.0),
            PowerEvent::Ok,
            "full again after recharge"
        );
    }

    #[test]
    fn scripted_fails_exactly_on_schedule() {
        let mut p = ScriptedPower::new(vec![10.0, 20.0], 5);
        assert_eq!(p.consume(9.0), PowerEvent::Ok);
        assert_eq!(p.consume(2.0), PowerEvent::LowPower);
        assert_eq!(p.recharge(), 5);
        assert_eq!(p.failures(), 1);
        assert_eq!(p.consume(19.0), PowerEvent::Ok);
        assert_eq!(p.consume(2.0), PowerEvent::LowPower);
        p.recharge();
        // Script exhausted: effectively continuous now.
        assert_eq!(p.consume(1e12), PowerEvent::Ok);
    }

    #[test]
    fn random_power_is_reproducible() {
        let run = |seed| {
            let mut p = RandomPower::new(1000.0, 50, seed);
            let mut fails = 0;
            for _ in 0..10_000 {
                if p.consume(10.0) == PowerEvent::LowPower {
                    fails += 1;
                    p.recharge();
                }
            }
            fails
        };
        assert_eq!(run(1), run(1));
        // Mean budget 1000 nJ at 10 nJ/step ≈ failure every ~100 steps.
        let f = run(2);
        assert!(f > 20 && f < 500, "plausible failure count, got {f}");
    }
}
