//! # ocelot-progress — forward-progress and energy-feasibility analysis
//!
//! The paper's correctness story has a second leg beyond timing: §5.3
//! observes that *"any atomic region must be able to complete with the
//! energy that can be stored in the buffer"*, and §10 names *reasoning
//! about forward progress* as the future work that Ocelot's
//! minimal-region inference enables. This crate is that analysis:
//!
//! 1. [`StackModel`] — a static upper bound on the volatile state a
//!    checkpoint must save, per function and for the whole program;
//! 2. [`WcetAnalysis`] — worst-case active cycles of any single attempt
//!    of a region body (branch maxima, bounded-loop multiplication,
//!    callee inlining), and [`FeasAnalysis`], its best-case counterpart:
//!    both fold over one [`BlockGraphs`] set (a caller running both
//!    builds it once) and price every instruction through the runtime's own
//!    [`CostModel::price`](ocelot_hw::energy::CostModel::price);
//! 3. [`ProgressReport`] — per-region energy budgets, feasibility
//!    verdicts against a concrete
//!    [`Capacitor`](ocelot_hw::energy::Capacitor), and the minimum
//!    buffer on which the program makes progress.
//!
//! The report also checks §6.3's standing assumption that the comparator
//! trigger reserve always covers a JIT checkpoint — prior work (Samoyed,
//! TICS) assumes this without checking; here it is a one-line query.
//!
//! ```
//! use ocelot_ir::compile;
//! use ocelot_core::ocelot_transform;
//! use ocelot_hw::energy::{Capacitor, CostModel};
//! use ocelot_progress::ProgressReport;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let compiled = ocelot_transform(compile(
//!     "sensor s; fn main() { let x = in(s); fresh(x); out(alarm, x); }",
//! )?)?;
//! let report = ProgressReport::analyze(
//!     &compiled.program,
//!     &compiled.regions,
//!     &CostModel::default(),
//! )?;
//! assert!(report.feasible_on(&Capacitor::capybara()));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod bounds;
pub mod error;
pub mod feas;
mod graph;
pub mod report;
pub mod stack;
pub mod wcet;

pub use bounds::{loop_bound, LoopBound};
pub use error::ProgressError;
pub use feas::{EdgeSet, FeasAnalysis};
pub use graph::BlockGraphs;
pub use report::{ProgressReport, RegionBudget, Verdict};
pub use stack::StackModel;
pub use wcet::WcetAnalysis;
