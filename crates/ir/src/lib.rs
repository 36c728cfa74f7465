//! # ocelot-ir
//!
//! The program representation layer of the Ocelot reproduction: the
//! modeling language of *Automatically Enforcing Fresh and Consistent
//! Inputs in Intermittent Systems* (PLDI 2021, Appendix A), a textual
//! front-end for it, and a basic-block IR with the structure the paper's
//! analyses need (function-unique instruction labels, a return
//! landing-pad per function, call sites identified by `(function, label)`
//! pairs).
//!
//! ## Pipeline
//!
//! ```text
//! source text ──parse──▶ AstProgram ──lower──▶ Program (CFG IR) ──validate──▶ ok
//!
//! (`compile` = parse + lower; `validate` checks the ownership discipline.)
//! ```
//!
//! ## Examples
//!
//! ```
//! use ocelot_ir::{compile, validate};
//!
//! let program = compile(r#"
//!     sensor temp;
//!     fn main() {
//!         let t = in(temp);
//!         fresh(t);
//!         if t > 30 { out(alarm, t); }
//!     }
//! "#)?;
//! validate(&program)?;
//! assert_eq!(program.sensors, vec!["temp".to_string()]);
//! # Ok::<(), ocelot_ir::IrError>(())
//! ```

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod ast;
pub mod callgraph;
pub mod cfg;
pub(crate) mod error;
pub(crate) mod ir;
pub(crate) mod lexer;
pub mod lower;
pub mod parser;
pub(crate) mod passes;
pub mod print;
pub mod print_ast;
pub mod span;
pub(crate) mod token;
pub mod validate;

pub use callgraph::CallGraph;
pub use cfg::Cfg;
pub use error::{IrError, Result};
pub use ir::{
    AnnotKind, Block, BlockId, FuncId, Function, Inst, InstrRef, IrGlobal, IrParam, Label, Op,
    Place, Program, RegionId, Terminator,
};
pub use lower::{compile, lower};
pub use parser::parse;
pub use passes::compile_unrolled;
pub use print_ast::ast_to_source;
pub use validate::validate;
