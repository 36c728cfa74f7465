//! # ocelot-analysis
//!
//! Compiler analyses for the Ocelot reproduction: dominator and
//! post-dominator trees with closest-common-(post)dominator queries
//! (what Algorithm 1 of the paper takes from LLVM), natural-loop
//! detection, the interprocedural context-sensitive input-taint analysis
//! with provenance call chains (Appendix I), Figure-5-style function
//! summaries, and the WAR/EMW non-volatile footprint analysis that sizes
//! atomic-region undo logs.
//!
//! ## Examples
//!
//! ```
//! use ocelot_analysis::taint::TaintAnalysis;
//!
//! let program = ocelot_ir::compile(r#"
//!     sensor temp;
//!     fn read() { let t = in(temp); return t; }
//!     fn main() { let x = read(); fresh(x); out(log, x); }
//! "#)?;
//! ocelot_ir::validate(&program)?;
//! let taint = TaintAnalysis::run(&program);
//! let annot = program.annotations()[0].0;
//! let chains = taint.annotation_inputs(&program, annot);
//! assert_eq!(chains.len(), 1); // one input op, one calling context
//! # Ok::<(), ocelot_ir::IrError>(())
//! ```

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod chains;
pub mod dom;
pub mod effects;
pub(crate) mod flow;
pub mod incremental;
pub mod loops;
pub(crate) mod ssa;
pub mod summary;
pub mod taint;
pub mod war;

pub use chains::{static_input_chains, unique_contexts, ChainId, ChainTable};
pub use dom::{point_dominates, DomTree, Point};
pub use flow::ValueFlow;
pub use incremental::{input_fingerprints, FlowCache, IncrementalStats};
pub use loops::LoopForest;
pub use ssa::{FuncSsa, ProgramSsa};
pub use summary::build_summaries;
pub use taint::{Prov, TaintAnalysis, TaintSet, TaintSource};
pub use war::{region_effects, whole_function_effects, RegionEffects};
