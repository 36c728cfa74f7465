//! The server's compiled-artifact caches, keyed by program hash.
//!
//! A submitted program is compiled and transformed once; the resulting
//! [`Built`] (transformed program, policies, region ω sets) is leaked
//! to `'static` and every later request against the same source hash
//! reuses it. Per-scenario [`MachineCore`]s — the unit of sharing the
//! fleet sweep established: compiled blocks, interned chain table,
//! frame layouts, detector tables — hang off the program entry keyed by
//! scenario name, so a sweep of 10 000 devices against one program
//! builds each core exactly once.
//!
//! The leak is deliberate and bounded: entries are never evicted (a
//! `&'static Built` handed to a running simulation cannot be reclaimed
//! safely without reference-counting every machine), so the cache
//! instead *refuses* new submissions past its capacity — the client
//! gets a one-line error instead of the server growing without bound.

use crate::verify::{compile, program_hash, verify_program, Verdict};
use ocelot_analysis::taint::TaintAnalysis;
use ocelot_hw::energy::CostModel;
use ocelot_runtime::machine::MachineCore;
use ocelot_runtime::model::{Built, ExecModel};
use ocelot_scenario::Scenario;
use ocelot_telemetry::metrics;
use std::collections::HashMap;
use std::sync::Arc;

/// Per-instance cache hit/miss counters, one pair per caching layer.
///
/// These are plain fields owned by the cache instance — *not* the
/// process-wide telemetry counters — so the `stats` op answers the same
/// bytes whether one server or ten share the process, and whether
/// telemetry is enabled at all. Every event is additionally mirrored to
/// the global `ocelot_telemetry` registry (where it is subject to the
/// metrics on/off gate).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct CacheCounters {
    /// Submissions answered from the program cache.
    pub(crate) programs_hits: u64,
    /// Submissions that compiled, verified, and cached a fresh program.
    pub(crate) programs_misses: u64,
    /// Per-scenario cores served from the memo table.
    pub(crate) cores_hits: u64,
    /// Per-scenario cores built fresh.
    pub(crate) cores_misses: u64,
}

/// One cached program: its leaked build and per-scenario cores.
struct ProgramEntry {
    /// The transformed program and its runtime metadata.
    built: &'static Built,
    /// The verdict recorded at submission time.
    verdict: Verdict,
    /// Shared read-only cores, one per scenario name.
    cores: HashMap<&'static str, Arc<MachineCore<'static>>>,
}

/// All cached programs, keyed by the hash of their *submitted* source
/// program (pre-transform — the hash a client can compute itself).
pub struct ProgramCache {
    max: usize,
    entries: HashMap<u64, ProgramEntry>,
    counters: CacheCounters,
}

impl ProgramCache {
    /// A cache refusing submissions past `max` distinct programs.
    pub(crate) fn new(max: usize) -> Self {
        ProgramCache {
            max: max.max(1),
            entries: HashMap::new(),
            counters: CacheCounters::default(),
        }
    }

    /// Compiles, verifies, and caches `src`, or reuses the entry if the
    /// same program was submitted before. Returns the program hash,
    /// whether the entry was already cached, and its verdict.
    ///
    /// # Errors
    ///
    /// One-line messages for compile/validation/transform failures and
    /// for a full cache.
    pub fn submit(&mut self, src: &str) -> Result<(u64, bool, Verdict), String> {
        let p = compile(src)?;
        let hash = program_hash(&p);
        if let Some(entry) = self.entries.get(&hash) {
            self.counters.programs_hits += 1;
            metrics::SERVE_PROGRAMS_HIT.incr();
            return Ok((hash, true, entry.verdict.clone()));
        }
        if self.entries.len() >= self.max {
            return Err(format!(
                "program cache full ({} programs): restart the server or raise --max-programs",
                self.max
            ));
        }
        let taint = TaintAnalysis::run(&p);
        let (c, verdict) = verify_program(hash, p, &taint)?;
        let built: &'static Built = Box::leak(Box::new(Built {
            model: ExecModel::Ocelot,
            program: c.program,
            policies: c.policies,
            regions: c.regions,
        }));
        self.entries.insert(
            hash,
            ProgramEntry {
                built,
                verdict: verdict.clone(),
                cores: HashMap::new(),
            },
        );
        // A miss is only counted once the fresh entry actually lands:
        // rejected submissions (compile error, full cache) are neither
        // hits nor misses.
        self.counters.programs_misses += 1;
        metrics::SERVE_PROGRAMS_MISS.incr();
        Ok((hash, false, verdict))
    }

    /// The shared core for (`hash`, `sc`'s scenario), building and
    /// memoizing it on first use. Cores are keyed by scenario *name*:
    /// the channel layout a core records is a pure function of the
    /// scenario shape (seeds only perturb signal values), so one core
    /// serves every reseeding of the scenario — and, because the
    /// backends are observationally identical, both backends too.
    ///
    /// # Errors
    ///
    /// `unknown program` when `hash` was never submitted.
    pub fn core(&mut self, hash: u64, sc: &Scenario) -> Result<Arc<MachineCore<'static>>, String> {
        let entry = self
            .entries
            .get_mut(&hash)
            .ok_or_else(|| format!("unknown program {hash} (submit it first)"))?;
        if entry.cores.contains_key(sc.name) {
            self.counters.cores_hits += 1;
            metrics::SERVE_CORES_HIT.incr();
        } else {
            self.counters.cores_misses += 1;
            metrics::SERVE_CORES_MISS.incr();
        }
        let built = entry.built;
        let core = entry.cores.entry(sc.name).or_insert_with(|| {
            Arc::new(MachineCore::build(
                &built.program,
                &built.regions,
                built.policies.clone(),
                &sc.environment(),
                CostModel::default(),
            ))
        });
        Ok(Arc::clone(core))
    }

    /// This instance's hit/miss counters — for the `stats` op.
    pub(crate) fn counters(&self) -> CacheCounters {
        self.counters
    }

    /// (cached programs, built cores) — for the `stats` op.
    pub(crate) fn counts(&self) -> (usize, usize) {
        (
            self.entries.len(),
            self.entries.values().map(|e| e.cores.len()).sum(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
        sensor s;
        fn main() { let x = in(s); fresh(x); out(log, x); }
    "#;

    #[test]
    fn resubmission_hits_the_cache() {
        let mut c = ProgramCache::new(4);
        let (h1, cached1, v1) = c.submit(SRC).unwrap();
        let (h2, cached2, v2) = c.submit(SRC).unwrap();
        assert_eq!(h1, h2);
        assert!(!cached1);
        assert!(cached2);
        assert_eq!(c.counts(), (1, 0));
        assert!(v1.passes);
        assert_eq!(v1.source_hash, h1);
        assert_eq!(v1, v2, "a cached submission answers the stored verdict");
    }

    #[test]
    fn full_cache_refuses_new_programs_but_keeps_serving_cached_ones() {
        let mut c = ProgramCache::new(1);
        let (h, _, _) = c.submit(SRC).unwrap();
        let other = SRC.replace("log", "uart");
        let err = c.submit(&other).unwrap_err();
        assert!(err.contains("cache full"), "{err}");
        assert!(err.contains("--max-programs"), "{err}");
        let (again, cached, _) = c.submit(SRC).unwrap();
        assert!(cached, "cached entry still served");
        assert_eq!(again, h);
    }

    #[test]
    fn cores_are_shared_per_scenario_name_across_seeds() {
        let mut c = ProgramCache::new(4);
        let (h, _, _) = c.submit(SRC).unwrap();
        let sc = ocelot_scenario::parse("rf-lab").unwrap();
        let a = c.core(h, &sc).unwrap();
        let b = c.core(h, &sc.reseeded(99)).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "one core per scenario name");
        assert_eq!(c.counts(), (1, 1));
        let err = c.core(12345, &sc).err().expect("unknown hash errors");
        assert!(err.contains("unknown program"), "{err}");
    }

    #[test]
    fn hit_miss_counters_are_per_instance_and_telemetry_independent() {
        // Two caches in one process: counters must not bleed between
        // them (they are instance fields, not the global registry), and
        // they count with telemetry off.
        let mut a = ProgramCache::new(4);
        let mut b = ProgramCache::new(4);
        a.submit(SRC).unwrap();
        a.submit(SRC).unwrap();
        let sc = ocelot_scenario::parse("rf-lab").unwrap();
        let h = a.submit(SRC).unwrap().0;
        a.core(h, &sc).unwrap();
        a.core(h, &sc).unwrap();
        assert_eq!(
            a.counters(),
            CacheCounters {
                programs_hits: 2,
                programs_misses: 1,
                cores_hits: 1,
                cores_misses: 1,
            }
        );
        b.submit(SRC).unwrap();
        assert_eq!(b.counters().programs_misses, 1);
        assert_eq!(b.counters().programs_hits, 0, "instances do not share");
        // Rejected submissions count neither way.
        let mut full = ProgramCache::new(1);
        full.submit(SRC).unwrap();
        let _ = full.submit(&SRC.replace("log", "uart"));
        let _ = full.submit("fn main( {");
        assert_eq!(full.counters().programs_misses, 1);
        assert_eq!(full.counters().programs_hits, 0);
    }

    #[test]
    fn invalid_programs_report_one_line_errors() {
        let mut c = ProgramCache::new(4);
        let err = c.submit("fn main( {").unwrap_err();
        assert!(err.starts_with("compile:"), "{err}");
        assert_eq!(err.lines().count(), 1);
    }
}
