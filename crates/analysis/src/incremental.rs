//! Incrementally-maintained analysis results: per-function entries
//! keyed by function-body fingerprints, so re-verifying a program after
//! an edit recomputes only the functions whose analysis inputs actually
//! changed.
//!
//! The expensive half of [`TaintAnalysis::run`] is the per-function
//! flow fixpoint (dense-id bitset rows, checked against the harness's
//! reference fixpoint `ocelot_bench::taint_ref`); its structure makes
//! it cacheable by construction:
//! each [`FuncFlow`] depends only on the function's own body, the
//! program's declaration header (sensors and globals), and the flows of
//! its direct callees — nothing about callers. Nor does it depend on any
//! literal value: the analysis tracks which inputs a value depends on,
//! never the value itself. The cache key ([`input_fingerprints`])
//! therefore folds a function's printed body *modulo literal values*
//! (labels, block structure, names, sensors, channels, callees,
//! parameter modes and annotations, with every `Int`/`Bool` literal
//! printed as a placeholder), its positional [`ocelot_ir::FuncId`]
//! (provenance chains carry positional ids, so an id shift must
//! invalidate), the declaration header, and the keys of its direct
//! callees — closing the fingerprint transitively over the whole callee
//! subtree. Labels are function-unique in this IR, so an edit in one
//! function never shifts labels (and hence fingerprints) in another.
//!
//! So a constant edit re-analyzes nothing, and a structural edit
//! re-analyzes the edited function and its transitive callers.
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

use crate::taint::{analyze_function, FuncFlow, TaintAnalysis};
use ocelot_ir::print::{write_function, Literals};
use ocelot_ir::{CallGraph, FuncId, Program};
use std::collections::HashMap;
use std::fmt::{self, Write as _};

/// An FNV-1a accumulator, written to as a [`fmt::Write`] sink so text
/// is hashed as it is rendered: writing `s` and then calling
/// [`Fnv::finish`] gives [`fnv1a`] of `s`'s bytes.
pub struct Fnv(u64);

impl Default for Fnv {
    /// The empty-input state.
    fn default() -> Self {
        Fnv(0xcbf29ce484222325)
    }
}

impl Fnv {
    /// The hash of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    /// Folds another 64-bit value into the accumulator.
    fn fold(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// FNV-1a over bytes: the workspace's no-deps stable fingerprint.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.bytes(bytes);
    h.0
}

/// The program-level declaration header every function's analysis can
/// observe: sensors and non-volatile globals, in declaration order.
fn decl_signature(p: &Program) -> u64 {
    let mut h = Fnv::default();
    for sensor in &p.sensors {
        let _ = writeln!(h, "sensor {sensor};");
    }
    for g in &p.globals {
        let _ = writeln!(h, "nv {} {:?};", g.name, g.array_len);
    }
    h.0
}

/// Per-function input fingerprints, indexed by [`ocelot_ir::FuncId`]
/// position: everything the per-function flow analysis reads about
/// function `i`, transitively including its callee subtree.
///
/// Two programs assigning a function equal fingerprints have bodies
/// that print alike modulo literal values ([`Literals::Masked`], through
/// the canonical printer's own code), equal positional ids, equal
/// declaration headers, and recursively equal callee subtrees — which
/// makes the cached [`FuncFlow`] (labels, provenance chains and all)
/// valid verbatim, because the flow analysis reads no literal value.
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
        let mut h = Fnv::default();
        let _ = write_function(&mut h, p, p.func(f), Literals::Masked);
        h.fold(decl);
        h.fold(u64::from(f.0));
        for edge in cg.callees(f) {
            h.fold(u64::from(edge.callee.0));
            h.fold(keys[edge.callee.0 as usize]);
        }
        keys[f.0 as usize] = h.0;
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

    /// Every literal position the printer renders, plus a by-ref
    /// helper, a spare callee, annotations and a bounded loop.
    const LITERALS: &str = r#"
        sensor temp; sensor pres;
        nv total = 0;
        nv hist[4];
        fn keep(&o, v) { return v; }
        fn bias() { return 4; }
        fn other() { return 4; }
        fn read_pres() { let q = in(pres); return q; }
        fn main() {
            let a = in(temp);
            fresh(a);
            let b = read_pres();
            consistent(b, 1);
            let k = 5;
            k = 6;
            hist[1] = a;
            let h = hist[2];
            let m = bias();
            keep(&k, 2);
            let on = true;
            out(log, a, 7);
            if a > 9 { total = total + a; }
            repeat 3 { total = total + b; }
            while total > 0 @bound 8 { total = total - 1; }
            out(log, h, m, on);
        }
    "#;

    /// Warms a cache on `LITERALS`, re-assembles the analysis of the
    /// edited program from it, checks the result equals a from-scratch
    /// run, and returns the names of the functions it re-analyzed.
    fn misses(edited: &Program) -> Vec<String> {
        let mut cache = FlowCache::new();
        cache.run(&program(LITERALS));
        let (taint, stats, misses) = assemble(edited, |name, key| cache.get(name, key));
        assert_eq!(
            taint,
            TaintAnalysis::run(edited),
            "reuse changed the analysis"
        );
        assert_eq!(stats.analyzed, misses.len());
        misses
            .into_iter()
            .map(|(f, _)| edited.func(f).name.clone())
            .collect()
    }

    fn edited(pairs: &[(&str, &str)]) -> Program {
        let mut src = LITERALS.to_string();
        for (from, to) in pairs {
            assert!(src.contains(from), "`{from}` not in the base program");
            src = src.replacen(from, to, 1);
        }
        program(&src)
    }

    #[test]
    fn literal_only_edits_reuse_every_flow() {
        let edits = [
            ("let k = 5;", "let k = 50;"),                           // bind
            ("k = 6;", "k = 60;"),                                   // assign
            ("hist[1] = a;", "hist[3] = a;"),                        // array-index place
            ("let h = hist[2];", "let h = hist[0];"),                // array-index expression
            ("keep(&k, 2);", "keep(&k, 20);"),                       // call argument
            ("out(log, a, 7);", "out(log, a, 70);"),                 // output argument
            ("if a > 9", "if a > 90"),                               // branch condition
            ("fn bias() { return 4; }", "fn bias() { return 44; }"), // return value
            ("let on = true;", "let on = false;"),                   // Bool literal
            ("repeat 3", "repeat 30"),                               // repeat count (a compare)
            ("nv total = 0;", "nv total = 9;"),                      // global initializer
        ];
        for edit in edits {
            assert_eq!(misses(&edited(&[edit])), Vec::<String>::new(), "{edit:?}");
        }
        assert_eq!(misses(&edited(&edits)), Vec::<String>::new(), "all at once");
    }

    /// Applies `pairs` to `LITERALS` and checks `func` is re-analyzed.
    fn assert_misses(what: &str, pairs: &[(&str, &str)], func: &str) {
        let missed = misses(&edited(pairs));
        assert!(
            missed.iter().any(|f| f == func),
            "{what}: re-analyzed {missed:?}, not `{func}`"
        );
    }

    #[test]
    fn non_literal_edits_miss() {
        let rename = [
            ("let h = hist[2];", "let w = hist[2];"),
            ("out(log, h, m, on);", "out(log, w, m, on);"),
        ];
        assert_misses("renamed variable", &rename, "main");
        let sensor = ("let q = in(pres);", "let q = in(temp);");
        assert_misses("sensor", &[sensor], "read_pres");
        let channel = ("out(log, a, 7);", "out(alarm, a, 7);");
        assert_misses("channel", &[channel], "main");
        let callee = ("let m = bias();", "let m = other();");
        assert_misses("callee", &[callee], "main");
        let by_value = [
            ("fn keep(&o, v)", "fn keep(o, v)"),
            ("keep(&k, 2);", "keep(k, 2);"),
        ];
        assert_misses("by-ref vs by-value", &by_value, "keep");
        let kind = ("fresh(a);", "consistent(a, 1);");
        assert_misses("annotation kind", &[kind], "main");
        let set = ("consistent(b, 1);", "consistent(b, 2);");
        assert_misses("consistent-set id", &[set], "main");
        assert_misses("@bound", &[("@bound 8", "@bound 9")], "main");
        let added = ("let k = 5;", "let k = 5; skip;");
        assert_misses("added instruction", &[added], "main");
        assert_misses("literal to variable", &[("k = 6;", "k = a;")], "main");
    }

    #[test]
    fn swapped_branch_target_misses() {
        let mut p = program(LITERALS);
        let main = p.main.0 as usize;
        let swapped = p.funcs[main]
            .blocks
            .iter_mut()
            .find_map(|b| match &mut b.term {
                ocelot_ir::Terminator::Branch {
                    then_bb, else_bb, ..
                } => {
                    std::mem::swap(then_bb, else_bb);
                    Some(())
                }
                _ => None,
            });
        assert!(swapped.is_some(), "main has a branch");
        assert_eq!(misses(&p), vec!["main".to_string()]);
    }
}
