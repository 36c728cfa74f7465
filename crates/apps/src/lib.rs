//! # ocelot-apps
//!
//! The six benchmark applications of the paper's evaluation (Table 1),
//! written in the modeling language:
//!
//! | App | Origin | Sensors | Constraints |
//! |---|---|---|---|
//! | `activity` | TICS | accel* | Con, Fresh |
//! | `greenhouse` | TICS | hum, temp | Con |
//! | `cem` | DINO | temp* | Fresh |
//! | `photo` | Samoyed | photo | Con |
//! | `send_photo` | Samoyed | photo | Fresh |
//! | `tire` | Ocelot | pres*, temp*, accel* | Fresh, Con, FreshCon |
//!
//! Each benchmark ships two sources: the **annotated** program (compiled
//! by Ocelot, or run as-is under JIT) and an **atomics-only** variant
//! with manually-placed whole-phase regions (§7.2's third
//! configuration). Both carry the small manual `atomic { out(uart, …) }`
//! guard that the paper applies to every configuration.
//!
//! ## Examples
//!
//! ```
//! let bench = ocelot_apps::by_name("greenhouse").unwrap();
//! let program = bench.annotated();
//! let compiled = ocelot_core::ocelot_transform(program).unwrap();
//! assert!(compiled.check.passes());
//! ```

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub(crate) mod activity;
pub(crate) mod cem;
pub(crate) mod fusion;
pub(crate) mod greenhouse;
pub(crate) mod mlinfer;
pub(crate) mod photo;
pub(crate) mod radiolog;
pub(crate) mod send_photo;
pub mod tire;

use ocelot_hw::sensors::Environment;
use ocelot_ir::Program;

/// Inputs to the programmer-effort model of Tables 3 and 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Effort {
    /// Input-generating functions the programmer marks (`IO:fn = ...`).
    pub input_fns: usize,
    /// Variables carrying a freshness constraint (FreshConsistent data
    /// counts here too).
    pub fresh_data: usize,
    /// Variables carrying only a consistency constraint.
    pub consistent_data: usize,
    /// Distinct consistent sets.
    pub consistent_sets: usize,
    /// Parameter count of each function Samoyed would make atomic.
    pub samoyed_fn_params: &'static [usize],
    /// How many of those atomic functions contain loops (each needs a
    /// scaling rule and a fallback under Samoyed).
    pub samoyed_loops: usize,
    /// Manually-placed regions in the atomics-only variant.
    pub(crate) manual_regions: usize,
}

/// One benchmark: sources, Table 1 metadata, and effort-model inputs.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Short name (`activity`, `cem`, ...).
    pub name: &'static str,
    /// Which prior work the app comes from (Table 1's Origin column).
    pub origin: &'static str,
    /// Sensor channels used; `*` marks sensors the paper simulated.
    pub sensors: &'static [&'static str],
    /// Constraint kinds used (Table 1's Constraints column).
    pub constraints: &'static str,
    /// Annotated source (Ocelot / JIT input).
    pub annotated_src: &'static str,
    /// Atomics-only source with manual phase regions.
    pub atomics_src: &'static str,
    /// Effort-model inputs.
    pub effort: Effort,
    env_fn: fn(u64) -> Environment,
}

impl Benchmark {
    /// Compiles the annotated source.
    ///
    /// # Panics
    ///
    /// Panics if the embedded source fails to compile — a bug, caught by
    /// this crate's tests.
    pub fn annotated(&self) -> Program {
        ocelot_ir::compile(self.annotated_src)
            .unwrap_or_else(|e| panic!("{}: annotated source: {e}", self.name))
    }

    /// Compiles the atomics-only source.
    ///
    /// # Panics
    ///
    /// Panics if the embedded source fails to compile.
    pub fn atomics_only(&self) -> Program {
        ocelot_ir::compile(self.atomics_src)
            .unwrap_or_else(|e| panic!("{}: atomics source: {e}", self.name))
    }

    /// The benchmark's sensed environment, seeded for reproducibility.
    pub fn environment(&self, seed: u64) -> Environment {
        (self.env_fn)(seed)
    }

    /// Non-blank, non-comment source lines of the annotated program
    /// (Table 1's LoC column for this reproduction).
    pub fn loc(&self) -> usize {
        self.annotated_src
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with("//"))
            .count()
    }
}

/// The paper's six benchmarks, in Table 1 order. Paper-artifact
/// drivers (Figure 7, Table 2, …) sweep exactly this set, so the
/// reproduced tables keep the paper's rows.
pub fn all() -> Vec<Benchmark> {
    vec![
        activity::benchmark(),
        cem::benchmark(),
        greenhouse::benchmark(),
        photo::benchmark(),
        send_photo::benchmark(),
        tire::benchmark(),
    ]
}

/// The extension workloads beyond the paper's six (the ROADMAP's "more
/// workloads" lever): multi-sensor fusion, a duty-cycled radio
/// send-window, and an ML-inference window. They share the
/// [`Benchmark`] surface, so everything that drives a paper app drives
/// these; the scenario sweep (`ocelot-bench`'s `scenario_sweep`)
/// exercises them across the whole scenario library.
pub fn extended() -> Vec<Benchmark> {
    vec![
        fusion::benchmark(),
        radiolog::benchmark(),
        mlinfer::benchmark(),
    ]
}

/// Every benchmark: the paper's six followed by the extensions.
pub fn all_with_extensions() -> Vec<Benchmark> {
    let mut bs = all();
    bs.extend(extended());
    bs
}

/// Looks up a benchmark (paper or extension) by name.
pub fn by_name(name: &str) -> Option<Benchmark> {
    all_with_extensions().into_iter().find(|b| b.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_benchmarks_with_unique_names() {
        let bs = all();
        assert_eq!(bs.len(), 6);
        let mut names: Vec<_> = bs.iter().map(|b| b.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 6);
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("tire").is_some());
        assert!(by_name("nonexistent").is_none());
    }

    #[test]
    fn every_benchmark_compiles_and_validates() {
        for b in all() {
            let p = b.annotated();
            ocelot_ir::validate(&p).unwrap_or_else(|e| panic!("{}: {e}", b.name));
            let a = b.atomics_only();
            ocelot_ir::validate(&a).unwrap_or_else(|e| panic!("{} atomics: {e}", b.name));
        }
    }

    #[test]
    fn every_benchmark_transforms_under_ocelot() {
        for b in all() {
            let c = ocelot_core::ocelot_transform(b.annotated())
                .unwrap_or_else(|e| panic!("{}: {e}", b.name));
            assert!(c.check.passes(), "{}: {:?}", b.name, c.check.violations);
            assert!(
                !c.policy_map.is_empty(),
                "{}: Ocelot must infer at least one region",
                b.name
            );
        }
    }

    #[test]
    fn atomics_variants_pass_the_checker() {
        // §7.2: manual regions are placed so correctness properties hold;
        // checker mode (§8) must agree.
        for b in all() {
            let report = ocelot_core::ocelot_check(&b.atomics_only())
                .unwrap_or_else(|e| panic!("{}: {e}", b.name));
            assert!(
                report.passes(),
                "{} atomics-only placement violates policies: {:?}",
                b.name,
                report.violations
            );
        }
    }

    #[test]
    fn environments_cover_declared_sensors() {
        for b in all() {
            let p = b.annotated();
            let env = b.environment(42);
            for s in &p.sensors {
                // Sampling twice at different times must be deterministic.
                let v1 = env.sample(s, 12_345);
                let v2 = env.sample(s, 12_345);
                assert_eq!(v1, v2, "{}: sensor {s} not deterministic", b.name);
            }
        }
    }

    #[test]
    fn table1_constraint_kinds_match_policies() {
        use ocelot_core::PolicyKind;
        for b in all() {
            let p = b.annotated();
            let taint = ocelot_analysis::taint::TaintAnalysis::run(&p);
            let ps = ocelot_core::build_policies(&p, &taint);
            let has_fresh = ps.iter().any(|pl| pl.kind == PolicyKind::Fresh);
            let has_con = ps
                .iter()
                .any(|pl| matches!(pl.kind, PolicyKind::Consistent(_)));
            let wants_fresh = b.constraints.contains("Fresh");
            let wants_con = b.constraints.contains("Con");
            assert_eq!(has_fresh, wants_fresh, "{}: fresh mismatch", b.name);
            assert_eq!(has_con, wants_con, "{}: consistent mismatch", b.name);
        }
    }

    #[test]
    fn extended_registry_is_disjoint_and_resolvable() {
        let ext = extended();
        assert_eq!(ext.len(), 3);
        let every = all_with_extensions();
        assert_eq!(every.len(), 9);
        let mut names: Vec<_> = every.iter().map(|b| b.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 9, "no name collisions across registries");
        for b in &ext {
            assert!(by_name(b.name).is_some(), "{} resolvable", b.name);
        }
        // The paper registry is untouched: still exactly Table 1's six.
        assert_eq!(all().len(), 6);
        assert!(!all().iter().any(|b| b.origin == "extension"));
    }

    #[test]
    fn extended_benchmarks_pass_every_paper_quality_gate() {
        use ocelot_core::PolicyKind;
        for b in extended() {
            // Compile + validate both variants.
            let p = b.annotated();
            ocelot_ir::validate(&p).unwrap_or_else(|e| panic!("{}: {e}", b.name));
            let a = b.atomics_only();
            ocelot_ir::validate(&a).unwrap_or_else(|e| panic!("{} atomics: {e}", b.name));
            // Ocelot transform infers regions and self-checks.
            let c = ocelot_core::ocelot_transform(p.clone())
                .unwrap_or_else(|e| panic!("{}: {e}", b.name));
            assert!(c.check.passes(), "{}: {:?}", b.name, c.check.violations);
            assert!(!c.policy_map.is_empty(), "{}: regions inferred", b.name);
            // Manual placement satisfies the checker.
            let report =
                ocelot_core::ocelot_check(&a).unwrap_or_else(|e| panic!("{} atomics: {e}", b.name));
            assert!(report.passes(), "{}: {:?}", b.name, report.violations);
            // Declared constraint kinds match the derived policies.
            let taint = ocelot_analysis::taint::TaintAnalysis::run(&p);
            let ps = ocelot_core::build_policies(&p, &taint);
            let has_fresh = ps.iter().any(|pl| pl.kind == PolicyKind::Fresh);
            let has_con = ps
                .iter()
                .any(|pl| matches!(pl.kind, PolicyKind::Consistent(_)));
            assert_eq!(has_fresh, b.constraints.contains("Fresh"), "{}", b.name);
            assert_eq!(has_con, b.constraints.contains("Con"), "{}", b.name);
            // Environment covers the declared sensors deterministically.
            let env = b.environment(42);
            for s in &p.sensors {
                assert_eq!(env.sample(s, 12_345), env.sample(s, 12_345), "{}", b.name);
            }
        }
    }

    #[test]
    fn effort_counts_match_table4_formulas() {
        // Ocelot LoC = inputs + constrained data (Table 3), reproducing
        // Table 4's Ocelot row exactly.
        let expect = [
            ("activity", 5),
            ("cem", 2),
            ("greenhouse", 7),
            ("photo", 2),
            ("send_photo", 4),
            ("tire", 9),
        ];
        for (name, loc) in expect {
            let b = by_name(name).unwrap();
            let got = b.effort.input_fns + b.effort.fresh_data + b.effort.consistent_data;
            assert_eq!(got, loc, "{name}: Ocelot effort");
        }
    }
}
