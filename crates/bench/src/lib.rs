//! # ocelot-bench
//!
//! The evaluation harness: everything needed to regenerate the paper's
//! figures and tables, in parallel, with persisted results. One binary
//! per artifact:
//!
//! | Binary | Paper artifact |
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
//! Run them with `cargo run --release --bin ocelotc -- bench <name>`.
//! Every driver accepts `--jobs N` (shard the sweep across a
//! hand-rolled work-stealing [`pool`]), `--out DIR` (persist a
//! versioned JSON [`artifact`]), `--replay` (re-emit the table/figure
//! purely from the persisted artifact), and — on uniform cell sweeps —
//! `--traces` (persist the raw per-cell observation logs as a
//! replayable [`traces`] artifact) — see `docs/bench.md` and [`cli`].

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod artifact;
pub mod cli;
pub mod drivers;
pub mod effort;
pub mod fleet;
pub mod genprog;
pub mod harness;
pub mod json;
pub mod lintfmt;
pub mod pool;
pub mod report;
pub mod telem;
pub mod traces;
pub mod verify;
