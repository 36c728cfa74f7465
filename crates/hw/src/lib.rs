//! # ocelot-hw
//!
//! Simulated energy-harvesting hardware for the Ocelot reproduction:
//! the Capybara-style capacitor bank with a low-power comparator
//! ([`energy`]), harvester models including the paper's
//! PowerCast-at-10-inches RF setup ([`harvest`]), the [`power`] supplies
//! the runtime draws from, and the deterministic sensed-world
//! [`sensors`] whose changes make freshness/consistency violations
//! observable.
//!
//! This crate is deliberately independent of the runtime: it models
//! joules, microseconds, and sensor values. Its one view of the IR is
//! [`energy::CostModel::price`], the cycle price of each IR operation
//! that the simulator and the static analyses all share.
//!
//! ## Examples
//!
//! ```
//! use ocelot_hw::power::{HarvestedPower, PowerSupply};
//! use ocelot_hw::energy::PowerEvent;
//!
//! let mut supply = HarvestedPower::capybara_powercast();
//! // Drain until the comparator trips, then charge back up.
//! let mut steps = 0u64;
//! while supply.consume(50.0) == PowerEvent::Ok { steps += 1; }
//! let off_time_us = supply.recharge();
//! assert!(steps > 100 && off_time_us > 0);
//! ```

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod energy;
pub mod harvest;
pub mod power;
pub mod sensors;

pub use energy::{Capacitor, CostModel, PowerEvent};
pub use harvest::Harvester;
pub use power::{ContinuousPower, HarvestedPower, PowerSupply, RandomPower, ScriptedPower};
pub use sensors::{Environment, Signal};
