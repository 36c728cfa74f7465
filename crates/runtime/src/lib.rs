//! # ocelot-runtime
//!
//! The intermittent execution substrate of the Ocelot reproduction: an
//! interpreter implementing the paper's taint-augmented continuous
//! semantics (Appendix B) and the JIT + Atomics intermittent semantics
//! (Appendix H), driven by the simulated power supplies and sensor
//! environments of `ocelot-hw`.
//!
//! Violations are detected two ways (§7.3): the paper's non-volatile
//! bit-vector mechanism runs online, and the formal Definitions 2/3 are
//! validated offline on the committed observation trace a traced
//! machine records — the two are cross-checked in tests.
//!
//! ## Examples
//!
//! ```
//! use ocelot_runtime::machine::Machine;
//! use ocelot_runtime::model::{build, ExecModel};
//! use ocelot_hw::{sensors::Environment, energy::CostModel, power::ContinuousPower};
//!
//! let program = ocelot_ir::compile(r#"
//!     sensor temp;
//!     fn main() { let t = in(temp); fresh(t); out(log, t); }
//! "#)?;
//! let built = build(program, ExecModel::Ocelot).unwrap();
//! let mut m = Machine::new(
//!     &built.program, &built.regions, built.policies,
//!     Environment::new(), CostModel::default(), Box::new(ContinuousPower),
//! );
//! m.run_once(100_000);
//! assert_eq!(m.stats().runs_completed, 1);
//! # Ok::<(), ocelot_ir::IrError>(())
//! ```

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod detect;
pub(crate) mod exec;
pub mod expiry;
pub mod machine;
pub mod memory;
pub mod model;
pub mod names;
pub mod obs;
pub mod pool;
pub mod samoyed;
pub mod stats;

pub use detect::{check_trace, BitVector, DetectorConfig, ViolationEvent, ViolationKind};
pub use exec::{ExecBackend, OptLevel};
pub use expiry::evaluate_expiry;
pub use machine::{pathological_targets, DeviceState, Machine, MachineCore, RunOutcome};
pub use model::{build, Built, ExecModel};
pub use obs::Obs;
pub use samoyed::{run_scaled, samoyed_transform, ScaledApp};
pub use stats::Stats;

/// Step budget per program run for every sweep in the workspace (bench
/// drivers, fleets, serve `run`/`sweep`) — generous; runs are thousands
/// of steps.
pub const MAX_STEPS: u64 = 5_000_000;
