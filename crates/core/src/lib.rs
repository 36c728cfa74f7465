//! # ocelot-core
//!
//! The paper's primary contribution: from `Fresh(x)` / `Consistent(x, n)`
//! annotations to correct-by-construction atomic-region placement.
//!
//! * `policy` — policy declarations built from annotations + taint
//!   provenance (the paper's `PD`).
//! * `infer` — Algorithm 1: candidate-function selection, call-chain
//!   hoisting, closest-common-(post)dominator placement, truncation.
//! * [`region`] — region extents and undo-log checkpoint sets `ω`.
//! * `check` — the §5.2 / Appendix D+E sanity checks behind Theorem 1,
//!   doubling as checker mode (§8) for manually-placed regions.
//! * [`transform`] — the end-to-end pipeline of Figure 3.
//!
//! ## Examples
//!
//! ```
//! use ocelot_core::transform::ocelot_transform;
//!
//! let program = ocelot_ir::compile(r#"
//!     sensor temp;
//!     fn main() {
//!         let t = in(temp);
//!         fresh(t);
//!         if t > 30 { out(alarm, t); }
//!     }
//! "#)?;
//! let compiled = ocelot_transform(program).unwrap();
//! assert_eq!(compiled.regions.len(), 1);
//! assert!(compiled.check.passes());
//! # Ok::<(), ocelot_ir::IrError>(())
//! ```

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub(crate) mod check;
pub(crate) mod error;
pub(crate) mod infer;
pub(crate) mod policy;
pub mod region;
#[cfg(test)]
mod rules;
pub mod transform;

pub use check::{check_regions, CheckReport, Violation};
pub use error::CoreError;
pub use policy::{build_policies, Decl, Policy, PolicyId, PolicyKind, PolicySet};
pub use region::{collect_regions, covered_refs, visit_covered, RegionInfo};
pub use transform::{ocelot_check, ocelot_transform, ocelot_transform_with, Compiled};
