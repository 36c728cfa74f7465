//! Energy storage and instruction cost model.
//!
//! Models the Capybara energy-harvesting platform the paper evaluates on
//! (§6.3): a capacitor bank feeding an MSP430-class MCU, with a
//! comparator that raises a low-power interrupt when the stored energy
//! falls below a trigger threshold. The trigger is set high enough that
//! the remaining energy always completes a JIT checkpoint — the same
//! assumption Samoyed and the paper make.
//!
//! [`CostModel::price`] is the one place an IR operation or terminator
//! is priced in cycles. Its callers differ only in the [`Facts`] they
//! supply: the simulator derives them from live machine state, the
//! worst-case analysis passes the most expensive facts a site admits,
//! and the minimum-cost analysis the cheapest. The price is monotone in
//! its facts (an NV store costs no less than a volatile one, a logged
//! store no less than an unlogged one, an outer region entry no less
//! than a nested one, a call no less for a costlier callee body) as long
//! as `nv_write >= alu` and `ckpt_base >= alu`, which is what makes
//! "minimum ≤ charged ≤ worst case" hold.

use ocelot_ir::{Op, Terminator};

/// Per-operation costs, in CPU cycles.
///
/// Absolute values are calibrated to an 8 MHz MSP430-class core: what
/// matters for the paper's figures is the *ratio* between plain compute,
/// sensor sampling, checkpointing, and undo logging.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Plain ALU op / assignment / bind.
    pub alu: u64,
    /// Non-volatile memory write (per word).
    pub nv_write: u64,
    /// Call/return overhead.
    pub call: u64,
    /// Sensor sample (ADC conversion + settling) — milliseconds-scale.
    pub input: u64,
    /// Per-channel overrides of the sampling cost: real sensors differ
    /// widely (a photoresistor integrates light; a MEMS accelerometer
    /// wakes, settles, and converts; a TPMS pressure cell is nearly
    /// instant).
    pub input_overrides: std::collections::BTreeMap<String, u64>,
    /// Output (UART/radio) per word written.
    pub output_word: u64,
    /// Fixed part of saving volatile context (registers).
    pub ckpt_base: u64,
    /// Per word of volatile state (stack/locals) saved or restored.
    pub ckpt_word: u64,
    /// Per word copied into an atomic region's undo log.
    pub log_word: u64,
    /// Nanoseconds per cycle (125 ns at 8 MHz).
    pub cycle_ns: u64,
    /// Average active-mode energy per cycle, in nanojoules.
    pub energy_per_cycle_nj: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            alu: 2,
            nv_write: 4,
            call: 12,
            input: 4_000,
            input_overrides: std::collections::BTreeMap::new(),
            output_word: 800,
            ckpt_base: 400,
            ckpt_word: 8,
            log_word: 8,
            cycle_ns: 125,
            energy_per_cycle_nj: 1.0,
        }
    }
}

impl CostModel {
    /// Sampling cost for `sensor`, honoring per-channel overrides.
    pub fn input_cycles(&self, sensor: &str) -> u64 {
        self.input_overrides
            .get(sensor)
            .copied()
            .unwrap_or(self.input)
    }

    /// Registers a per-channel sampling cost (builder-style).
    pub fn with_input_cost(mut self, sensor: &str, cycles: u64) -> Self {
        self.input_overrides.insert(sensor.to_string(), cycles);
        self
    }

    /// Converts cycles to microseconds (rounded up).
    pub fn cycles_to_us(&self, cycles: u64) -> u64 {
        (cycles * self.cycle_ns).div_ceil(1_000)
    }

    /// Energy in nanojoules consumed by `cycles` active cycles.
    pub fn cycles_to_nj(&self, cycles: u64) -> f64 {
        cycles as f64 * self.energy_per_cycle_nj
    }

    /// Cycles to take a checkpoint of `volatile_words` of state.
    pub fn checkpoint_cycles(&self, volatile_words: usize) -> u64 {
        self.ckpt_base + self.ckpt_word * volatile_words as u64
    }

    /// Cycles to restore a checkpoint of `volatile_words` of state.
    pub fn restore_cycles(&self, volatile_words: usize) -> u64 {
        self.ckpt_base / 2 + self.ckpt_word * volatile_words as u64
    }

    /// Cycles to undo-log `words` of non-volatile data at region entry.
    pub fn log_cycles(&self, words: usize) -> u64 {
        self.log_word * words as u64
    }

    /// Cycles one operation or terminator costs, given the facts that
    /// decide its price. Only `Assign` reads [`Facts::store`], only
    /// `AtomStart` reads [`Facts::entry`], and only `Call` reads
    /// [`Facts::callee_cycles`]; every other price is fixed by the
    /// instruction alone.
    #[inline]
    pub fn price(&self, at: Priced<'_>, facts: Facts) -> u64 {
        match at {
            Priced::Op(op) => match op {
                Op::Skip | Op::Annot { .. } => 1,
                Op::Bind { .. } | Op::AtomEnd { .. } => self.alu,
                Op::Assign { .. } => {
                    let write = if facts.store.nv {
                        self.nv_write
                    } else {
                        self.alu
                    };
                    write + if facts.store.logged { self.log_word } else { 0 }
                }
                Op::Input { sensor, .. } => self.input_cycles(sensor),
                Op::Call { .. } => self.call.saturating_add(facts.callee_cycles),
                Op::Output { args, .. } => self.output_word * (1 + args.len() as u64),
                Op::AtomStart { .. } => match facts.entry {
                    Entry::Nested => self.alu,
                    Entry::Outer {
                        volatile_words,
                        omega_words,
                    } => self.checkpoint_cycles(volatile_words) + self.log_cycles(omega_words),
                },
            },
            Priced::Term(t) => match t {
                Terminator::Jump(_) => self.alu / 2 + 1,
                Terminator::Branch { .. } => self.alu,
                Terminator::Ret(_) => self.call / 2,
            },
        }
    }
}

/// What [`CostModel::price`] prices: an instruction's operation or a
/// block's terminator.
#[derive(Debug, Clone, Copy)]
pub enum Priced<'a> {
    /// An instruction.
    Op(&'a Op),
    /// A block terminator.
    Term(&'a Terminator),
}

/// The facts that decide an operation's price. The default is the
/// cheapest case: a volatile unlogged store, a nested region entry, and
/// a call whose callee body is charged separately (as the simulator
/// charges it, instruction by instruction).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Facts {
    /// Where an `Assign` writes.
    pub store: Store,
    /// How an `AtomStart` enters its region.
    pub entry: Entry,
    /// Cycles of the callee body a `Call` pays on top of the call
    /// overhead.
    pub callee_cycles: u64,
}

impl Facts {
    /// Facts for a store.
    pub fn store(nv: bool, logged: bool) -> Self {
        Facts {
            store: Store { nv, logged },
            ..Facts::default()
        }
    }

    /// Facts for a region entry.
    pub fn entry(entry: Entry) -> Self {
        Facts {
            entry,
            ..Facts::default()
        }
    }

    /// Facts for a call whose callee body costs `cycles`.
    pub fn callee(cycles: u64) -> Self {
        Facts {
            callee_cycles: cycles,
            ..Facts::default()
        }
    }
}

/// Where a store writes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Store {
    /// Non-volatile memory (otherwise a volatile frame slot).
    pub nv: bool,
    /// The store also copies one word into a region's undo log.
    pub logged: bool,
}

/// How an `AtomStart` enters its region.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Entry {
    /// Already inside a region: a nesting-counter bump.
    #[default]
    Nested,
    /// An outer entry: checkpoint the volatile state, then eagerly
    /// undo-log the region's ω set.
    Outer {
        /// Words of volatile state checkpointed.
        volatile_words: usize,
        /// Words of ω logged.
        omega_words: usize,
    },
}

/// What the comparator reports after consuming energy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowerEvent {
    /// Enough charge remains above the trigger threshold.
    Ok,
    /// The low-power interrupt fired: checkpoint (JIT mode) and shut
    /// down. The reserve below the trigger still suffices for that.
    LowPower,
}

/// A capacitor bank with a comparator trigger.
#[derive(Debug, Clone)]
pub struct Capacitor {
    capacity_nj: f64,
    level_nj: f64,
    trigger_nj: f64,
}

impl Capacitor {
    /// Creates a full capacitor holding `capacity_nj` of usable energy
    /// with a low-power trigger at `trigger_nj`.
    ///
    /// # Panics
    ///
    /// Panics if the trigger exceeds the capacity or either is negative.
    pub fn new(capacity_nj: f64, trigger_nj: f64) -> Self {
        assert!(capacity_nj > 0.0, "capacity must be positive");
        assert!(
            (0.0..capacity_nj).contains(&trigger_nj),
            "trigger must lie within the capacity"
        );
        Capacitor {
            capacity_nj,
            level_nj: capacity_nj,
            trigger_nj,
        }
    }

    /// A Capybara-like bank: ~50 µJ usable with a trigger leaving ~4 µJ
    /// of checkpoint reserve.
    pub fn capybara() -> Self {
        Capacitor::new(50_000.0, 4_000.0)
    }

    /// Usable capacity in nanojoules.
    pub fn capacity_nj(&self) -> f64 {
        self.capacity_nj
    }

    /// Current charge level in nanojoules.
    pub fn level_nj(&self) -> f64 {
        self.level_nj
    }

    /// The comparator trigger level.
    pub fn trigger_nj(&self) -> f64 {
        self.trigger_nj
    }

    /// Draws `energy_nj`; reports [`PowerEvent::LowPower`] when the level
    /// crosses the trigger.
    pub fn consume(&mut self, energy_nj: f64) -> PowerEvent {
        let was_above = self.level_nj > self.trigger_nj;
        self.level_nj = (self.level_nj - energy_nj).max(0.0);
        if was_above && self.level_nj <= self.trigger_nj {
            PowerEvent::LowPower
        } else if self.level_nj <= self.trigger_nj {
            // Already below trigger (reserve zone): the caller is
            // finishing its checkpoint; don't re-trigger.
            PowerEvent::Ok
        } else {
            PowerEvent::Ok
        }
    }

    /// Energy needed to refill completely.
    pub fn deficit_nj(&self) -> f64 {
        (self.capacity_nj - self.level_nj).max(0.0)
    }

    /// Adds harvested energy (clamped at capacity).
    pub fn charge(&mut self, energy_nj: f64) {
        self.level_nj = (self.level_nj + energy_nj).min(self.capacity_nj);
    }

    /// Refills to capacity (used when the harvester model returns a
    /// closed-form charging time).
    pub fn refill(&mut self) {
        self.level_nj = self.capacity_nj;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_costs_have_sane_ratios() {
        let c = CostModel::default();
        assert!(c.input > 100 * c.alu, "sampling dwarfs compute");
        assert!(c.ckpt_base > 10 * c.alu);
        assert_eq!(c.cycles_to_us(8), 1, "8 cycles at 8 MHz = 1 µs");
    }

    #[test]
    fn price_is_monotone_in_its_facts() {
        use ocelot_ir::ast::Expr;
        use ocelot_ir::{Place, RegionId};
        let c = CostModel::default();
        let store = Op::Assign {
            place: Place::Var("x".into()),
            src: Expr::Int(1),
        };
        let price_store = |nv, logged| c.price(Priced::Op(&store), Facts::store(nv, logged));
        assert!(price_store(false, false) <= price_store(true, false));
        assert!(price_store(true, false) <= price_store(true, true));
        assert!(price_store(false, false) <= price_store(false, true));

        let start = Op::AtomStart {
            region: RegionId(0),
        };
        let nested = c.price(Priced::Op(&start), Facts::entry(Entry::Nested));
        let outer = |volatile_words, omega_words| {
            let e = Entry::Outer {
                volatile_words,
                omega_words,
            };
            c.price(Priced::Op(&start), Facts::entry(e))
        };
        assert!(nested <= outer(0, 0));
        assert!(outer(0, 0) <= outer(3, 0) && outer(3, 0) <= outer(3, 2));

        let call = Op::Call {
            dst: None,
            callee: ocelot_ir::FuncId(0),
            args: vec![],
        };
        assert_eq!(c.price(Priced::Op(&call), Facts::default()), c.call);
        assert_eq!(c.price(Priced::Op(&call), Facts::callee(5)), c.call + 5);
    }

    #[test]
    fn checkpoint_cost_scales_with_state() {
        let c = CostModel::default();
        assert!(c.checkpoint_cycles(64) > c.checkpoint_cycles(8));
        assert_eq!(
            c.checkpoint_cycles(0),
            c.ckpt_base,
            "empty checkpoint costs the base"
        );
    }

    #[test]
    fn capacitor_triggers_once_at_threshold() {
        let mut cap = Capacitor::new(100.0, 20.0);
        assert_eq!(cap.consume(50.0), PowerEvent::Ok);
        assert_eq!(cap.consume(40.0), PowerEvent::LowPower, "crossed 20");
        // In the reserve zone no re-trigger.
        assert_eq!(cap.consume(5.0), PowerEvent::Ok);
        assert!(cap.level_nj() >= 0.0);
    }

    #[test]
    fn capacitor_clamps_at_zero_and_capacity() {
        let mut cap = Capacitor::new(100.0, 10.0);
        cap.consume(1000.0);
        assert_eq!(cap.level_nj(), 0.0);
        cap.charge(5000.0);
        assert_eq!(cap.level_nj(), 100.0);
    }

    #[test]
    fn deficit_tracks_consumption() {
        let mut cap = Capacitor::new(100.0, 10.0);
        cap.consume(30.0);
        assert!((cap.deficit_nj() - 30.0).abs() < 1e-9);
        cap.refill();
        assert_eq!(cap.deficit_nj(), 0.0);
    }

    #[test]
    #[should_panic(expected = "trigger")]
    fn rejects_trigger_above_capacity() {
        let _ = Capacitor::new(10.0, 20.0);
    }

    #[test]
    fn capybara_reserve_covers_a_checkpoint() {
        let cap = Capacitor::capybara();
        let costs = CostModel::default();
        // Worst-case checkpoint: 256 words of volatile state.
        let worst = costs.cycles_to_nj(costs.checkpoint_cycles(256));
        assert!(
            cap.trigger_nj() > worst,
            "trigger reserve {} must cover worst-case checkpoint {}",
            cap.trigger_nj(),
            worst
        );
    }
}
