//! # ocelot-bench
//!
//! The evaluation harness: everything needed to regenerate the paper's
//! figures and tables, in parallel, with persisted results. One driver
//! per artifact, run as `ocelotc bench <name>` (`ocelotc bench --list`
//! prints the registry):
//!
//! | Driver | Paper artifact |
//! |---|---|
//! | `table1` | Table 1 — benchmark characteristics |
//! | `fig7` | Figure 7 — continuous-power runtimes (JIT / Atomics-only / Ocelot) |
//! | `fig8` | Figure 8 — intermittent runtimes with charging time |
//! | `table2a` | Table 2(a) — violations under pathological failures |
//! | `table2b` | Table 2(b) — violations under harvested intermittent power |
//! | `table3` | Table 3 — strategy / constructs comparison |
//! | `table4` | Table 4 — LoC changes per benchmark per system |
//! | `ablation_region_size` | §5.3/§8 — inferred vs whole-function regions |
//! | `progress_report` | §5.3/§10 — worst-case region energy vs buffer |
//! | `samoyed_scaling` | §7.4/§9 — scaling rules and fallbacks vs fixed regions |
//! | `tics_expiry` | §2.3 — expiration windows vs the freshness definition |
//! | `tics_dynamic` | §2.3 — live expiry windows vs JIT and Ocelot |
//! | `energy_breakdown` | per-category cycle accounting behind Figures 7/8 |
//! | `scenario_sweep` | extension — app × scenario × seed grid over the `ocelot-scenario` library |
//! | `fleet` | extension — fleet-scale device sweep on one shared compiled program |
//! | `serve` | extension — incremental re-verification latency over a recorded edit trace |
//!
//! Every driver accepts `--jobs N` (shard the sweep across the
//! work-stealing [`ocelot_runtime::pool`]), `--out DIR` (persist a
//! versioned JSON [`artifact`]), `--replay` (re-emit the table/figure
//! purely from the persisted artifact), and — on uniform cell sweeps —
//! `--traces` (persist the raw per-cell observation logs as a
//! replayable [`traces`] artifact) — see `docs/bench.md` and [`cli`].
//! The harness sits at the top of the crate graph: only the `ocelotc`
//! binary depends on it.

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod artifact;
pub mod cli;
pub mod drivers;
pub mod effort;
pub mod fleet;
pub mod genprog;
pub mod harness;
pub mod report;
pub mod traces;

// The old homes of modules that moved to the crates owning their types,
// still imported by `perfbench/`.
pub use ocelot_lint::json as lintfmt;
pub use ocelot_runtime::pool;
pub use ocelot_serve::verify;
pub use ocelot_telemetry::chrome as telem;
pub use ocelot_telemetry::json;
