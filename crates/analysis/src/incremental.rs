//! Incrementally-maintained analysis results: per-function entries
//! keyed by function-body fingerprints, so re-verifying a program after
//! a one-line edit recomputes only the functions whose analysis inputs
//! actually changed.
//!
//! The expensive half of [`TaintAnalysis::run`] is the per-function
//! flow fixpoint; its structure makes it cacheable by construction:
//! each [`FuncFlow`] depends only on the function's own body, the
//! program's declaration header (sensors and globals), and the flows of
//! its direct callees — nothing about callers. The cache key
//! ([`input_fingerprints`]) therefore folds a function's printed body
//! (labels, block structure, parameter modes, callee names), its
//! positional [`ocelot_ir::FuncId`] (provenance chains carry positional
//! ids, so an id shift must invalidate), the declaration header, and
//! the keys of its direct callees — closing the fingerprint
//! transitively over the whole callee subtree. Labels are
//! function-unique in this IR, so an edit in one function never shifts
//! labels (and hence fingerprints) in another.
//!
//! The cheap tail — context enumeration and the stored-global fixpoint
//! — is recomputed from the (cached or fresh) flows by
//! [`TaintAnalysis::from_flows`], which guarantees the assembled result
//! is *identical* to a from-scratch [`TaintAnalysis::run`]: the
//! downstream transform, policies, summaries, and verdicts cannot tell
//! the difference (held by the equivalence tests here and byte-identity
//! tests in the serve layer).
//!
//! [`assemble`] is the one callees-first loop behind both uses of the
//! cache: [`FlowCache::run`] feeds it its own entries and stores the
//! misses, while a caller holding several caches (the serve layer's
//! `lint`, over every open document) feeds it a lookup across all of
//! them and stores nothing.
//!
//! [`FuncCache`] generalizes the same keying for other per-function
//! results (the serve layer caches per-function loop/progress bounds
//! with it).

use crate::taint::{analyze_function, FuncFlow, TaintAnalysis};
use ocelot_ir::print::function_to_string;
use ocelot_ir::{CallGraph, FuncId, Program};
use std::collections::HashMap;
use std::fmt::Write as _;

/// FNV-1a over bytes: the workspace's no-deps stable fingerprint.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Folds another 64-bit value into an FNV-1a accumulator.
fn fold(h: u64, v: u64) -> u64 {
    let mut h = h;
    for b in v.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The program-level declaration header every function's analysis can
/// observe: sensors and non-volatile globals, in declaration order.
fn decl_signature(p: &Program) -> u64 {
    let mut s = String::new();
    for sensor in &p.sensors {
        let _ = writeln!(s, "sensor {sensor};");
    }
    for g in &p.globals {
        let _ = writeln!(s, "nv {} {:?};", g.name, g.array_len);
    }
    fnv1a(s.as_bytes())
}

/// Per-function input fingerprints, indexed by [`ocelot_ir::FuncId`]
/// position: everything the per-function flow analysis reads about
/// function `i`, transitively including its callee subtree.
///
/// Two programs assigning a function equal fingerprints have equal
/// printed bodies, equal positional ids, equal declaration headers, and
/// recursively equal callee subtrees — which makes the cached
/// [`FuncFlow`] (labels, provenance chains and all) valid verbatim.
///
/// # Panics
///
/// Panics on recursive programs; run [`ocelot_ir::validate()`] first.
pub fn input_fingerprints(p: &Program) -> Vec<u64> {
    let cg = CallGraph::new(p);
    let order = cg
        .topo_callees_first(p)
        .expect("fingerprints require an acyclic call graph");
    let decl = decl_signature(p);
    let mut keys = vec![0u64; p.funcs.len()];
    for f in order {
        let body = function_to_string(p, p.func(f));
        let mut h = fold(fnv1a(body.as_bytes()), decl);
        h = fold(h, u64::from(f.0));
        for edge in cg.callees(f) {
            h = fold(h, u64::from(edge.callee.0));
            h = fold(h, keys[edge.callee.0 as usize]);
        }
        keys[f.0 as usize] = h;
    }
    keys
}

/// Runs the taint analysis over `p` callees-first, taking each
/// function's flow from `lookup(name, fingerprint)` when it answers and
/// computing it with the per-function fixpoint otherwise. The fingerprint is
/// the function's [`input_fingerprints`] entry, so any flow a lookup
/// keyed this way returns is valid verbatim and the result equals
/// [`TaintAnalysis::run`] exactly.
///
/// Returns the analysis, the reuse statistics, and the functions whose
/// flows were computed fresh with their fingerprints — what a cache
/// stores to answer the next lookup.
///
/// # Panics
///
/// Panics on recursive programs; run [`ocelot_ir::validate()`] first.
pub fn assemble<'c>(
    p: &Program,
    lookup: impl Fn(&str, u64) -> Option<&'c FuncFlow>,
) -> (TaintAnalysis, IncrementalStats, Vec<(FuncId, u64)>) {
    let cg = CallGraph::new(p);
    let order = cg
        .topo_callees_first(p)
        .expect("taint analysis requires an acyclic call graph");
    let keys = input_fingerprints(p);

    let mut flows: Vec<FuncFlow> = vec![FuncFlow::default(); p.funcs.len()];
    let mut misses = Vec::new();
    for f in order {
        let func = p.func(f);
        let key = keys[f.0 as usize];
        flows[f.0 as usize] = match lookup(&func.name, key) {
            Some(flow) => flow.clone(),
            None => {
                misses.push((f, key));
                analyze_function(p, func, &flows)
            }
        };
    }
    let stats = IncrementalStats {
        funcs: p.funcs.len(),
        analyzed: misses.len(),
        reused: p.funcs.len() - misses.len(),
    };
    (TaintAnalysis::from_flows(p, flows), stats, misses)
}

/// What one incremental pass did: how much work the cache saved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Functions in the analyzed program.
    pub funcs: usize,
    /// Functions whose flow was recomputed (fingerprint miss).
    pub analyzed: usize,
    /// Functions whose cached flow was reused verbatim.
    pub reused: usize,
}

/// A per-function [`FuncFlow`] cache keyed by function name, validated
/// by [`input_fingerprints`]. One cache serves one logical *document*
/// (an edit stream of versions of the same program); feeding it
/// unrelated programs is correct but thrashes.
#[derive(Debug, Default)]
pub struct FlowCache {
    entries: HashMap<String, (u64, FuncFlow)>,
}

impl FlowCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs the taint analysis over `p`, reusing every cached flow
    /// whose input fingerprint is unchanged and recomputing the rest
    /// callees-first. The result equals [`TaintAnalysis::run`] exactly.
    ///
    /// # Panics
    ///
    /// Panics on recursive programs; run [`ocelot_ir::validate()`]
    /// first.
    pub fn run(&mut self, p: &Program) -> (TaintAnalysis, IncrementalStats) {
        let (taint, stats, misses) = assemble(p, |name, key| self.get(name, key));
        for (f, key) in misses {
            let flow = taint.flows[f.0 as usize].clone();
            self.entries.insert(p.func(f).name.clone(), (key, flow));
        }
        // Drop entries for functions the edit removed, so the cache
        // tracks the document instead of growing monotonically.
        self.entries
            .retain(|name, _| p.funcs.iter().any(|f| &f.name == name));
        (taint, stats)
    }

    /// The cached flow of function `name` when its fingerprint is
    /// `key`.
    pub fn get(&self, name: &str, key: u64) -> Option<&FuncFlow> {
        match self.entries.get(name) {
            Some((cached_key, flow)) if *cached_key == key => Some(flow),
            _ => None,
        }
    }

    /// Cached functions (for cache-statistics surfaces).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A generic per-function result cache with the same name + fingerprint
/// keying as [`FlowCache`], for analysis results that are a pure
/// function of one function's body (per-function progress/loop bounds,
/// say). The caller supplies the fingerprint — [`input_fingerprints`]
/// for anything reading callee summaries, or a plain body hash for
/// strictly local results.
#[derive(Debug)]
pub struct FuncCache<T> {
    entries: HashMap<String, (u64, T)>,
}

impl<T> Default for FuncCache<T> {
    fn default() -> Self {
        FuncCache {
            entries: HashMap::new(),
        }
    }
}

impl<T: Clone> FuncCache<T> {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the cached value for `name` when its fingerprint still
    /// matches, otherwise computes, stores and returns it. The boolean
    /// reports whether the cache hit.
    pub fn get_or_insert(
        &mut self,
        name: &str,
        fingerprint: u64,
        build: impl FnOnce() -> T,
    ) -> (T, bool) {
        match self.entries.get(name) {
            Some((key, v)) if *key == fingerprint => (v.clone(), true),
            _ => {
                let v = build();
                self.entries
                    .insert(name.to_string(), (fingerprint, v.clone()));
                (v, false)
            }
        }
    }

    /// Drops entries whose name is not in `live` (edit removed them).
    pub fn retain_names(&mut self, live: &[&str]) {
        self.entries.retain(|name, _| live.contains(&name.as_str()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn program(src: &str) -> Program {
        let p = ocelot_ir::compile(src).unwrap();
        ocelot_ir::validate(&p).unwrap();
        p
    }

    const BASE: &str = r#"
        sensor temp; sensor pres;
        nv total;
        fn scale(v) { let w = v * 3; return w; }
        fn read_temp() { let t = in(temp); let s = scale(t); return s; }
        fn read_pres() { let q = in(pres); return q; }
        fn main() {
            let a = read_temp();
            fresh(a);
            let b = read_pres();
            consistent(b, 1);
            total = total + a;
            out(log, a, b);
        }
    "#;

    #[test]
    fn incremental_equals_from_scratch_on_first_run() {
        let p = program(BASE);
        let full = TaintAnalysis::run(&p);
        let mut cache = FlowCache::new();
        let (incr, stats) = cache.run(&p);
        assert_eq!(incr, full);
        assert_eq!(stats.analyzed, 4, "cold cache analyzes everything");
        assert_eq!(stats.reused, 0);
    }

    #[test]
    fn unchanged_program_reuses_every_flow() {
        let mut cache = FlowCache::new();
        let (first, _) = cache.run(&program(BASE));
        let (second, stats) = cache.run(&program(BASE));
        assert_eq!(stats.analyzed, 0, "identical text reuses all flows");
        assert_eq!(stats.reused, 4);
        assert_eq!(first, second);
    }

    #[test]
    fn one_function_edit_recomputes_only_the_changed_subtree() {
        let mut cache = FlowCache::new();
        cache.run(&program(BASE));
        // Edit `read_pres` only: its own flow and nothing else changes
        // (main's fingerprint folds its callees' keys, so main
        // recomputes too — callers above an edit are part of the
        // changed subtree; siblings are not).
        let edited = BASE.replace(
            "let q = in(pres); return q;",
            "let q = in(pres); return q + 1;",
        );
        let p2 = program(&edited);
        let (incr, stats) = cache.run(&p2);
        assert_eq!(
            stats.analyzed, 2,
            "edited function + its (transitive) callers, nothing else"
        );
        assert_eq!(stats.reused, 2, "scale and read_temp reused");
        assert_eq!(
            incr,
            TaintAnalysis::run(&p2),
            "verdict-identical to from-scratch"
        );
    }

    #[test]
    fn declaration_changes_invalidate_everything() {
        let mut cache = FlowCache::new();
        cache.run(&program(BASE));
        let p2 = program(&BASE.replace("sensor temp;", "sensor temp; sensor hum;"));
        let (_, stats) = cache.run(&p2);
        assert_eq!(stats.reused, 0, "header is every function's input");
    }

    #[test]
    fn function_insertion_shifts_ids_and_invalidates_consistently() {
        let mut cache = FlowCache::new();
        cache.run(&program(BASE));
        // Insert a function *before* the others: every positional id
        // shifts, so every cached flow (whose provenance carries ids)
        // must be invalidated — correctness over reuse.
        let p2 = program(&BASE.replace(
            "fn scale(v)",
            "fn noop() { return 0; }\n        fn scale(v)",
        ));
        let (incr, stats) = cache.run(&p2);
        assert_eq!(stats.reused, 0, "id shifts invalidate verbatim reuse");
        assert_eq!(incr, TaintAnalysis::run(&p2));
        // Removal prunes the cache back to the live set.
        let (_, _) = cache.run(&program(BASE));
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn func_cache_reuses_by_fingerprint() {
        let mut cache: FuncCache<u64> = FuncCache::new();
        let (v, hit) = cache.get_or_insert("f", 1, || 10);
        assert_eq!((v, hit), (10, false));
        let (v, hit) = cache.get_or_insert("f", 1, || unreachable!("must reuse"));
        assert_eq!((v, hit), (10, true));
        let (v, hit) = cache.get_or_insert("f", 2, || 20);
        assert_eq!((v, hit), (20, false));
        cache.retain_names(&[]);
        let (_, hit) = cache.get_or_insert("f", 2, || 30);
        assert!(!hit, "retain_names dropped the entry");
    }
}
