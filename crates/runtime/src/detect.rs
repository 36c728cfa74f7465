//! Violation detection.
//!
//! Two detectors, cross-validating each other:
//!
//! * [`BitVector`] — the paper's §7.3 mechanism: a non-volatile bit
//!   vector with one bit per *input collection*, where a collection is
//!   identified by its provenance call chain (the paper's
//!   context-sensitivity: two calls to the same sensor helper are two
//!   distinct collections, Figure 6(b)). A bit is set when its input
//!   executes under that chain, all bits clear on power failure, and
//!   the bits of a policy's inputs are checked at the use of a fresh
//!   variable / at each later input of a consistent set. A clear bit at
//!   a check site means the input was not re-collected since the last
//!   failure — a freshness/consistency violation.
//! * [`check_trace`] — validates the *formal* Definitions 2 and 3 over
//!   the committed observation trace using the dynamic taint
//!   timestamps: a use whose dependencies were sampled in an earlier
//!   power-on era, or a consistent collection spanning eras, can match
//!   no continuous execution (the off-time is unbounded), hence
//!   violates the definitions.

#[cfg(test)]
use crate::memory::Deps;
use crate::obs::Obs;
use ocelot_analysis::taint::Prov;
use ocelot_core::{PolicyId, PolicyKind, PolicySet};
use ocelot_ir::InstrRef;
use std::collections::BTreeMap;

/// Which property a violation event breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A stale input reached a use (Definition 2).
    Freshness,
    /// A consistent set mixed inputs from different power-on intervals
    /// (Definition 3).
    Consistency,
}

/// A detected violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViolationEvent {
    /// The violated policy.
    pub policy: PolicyId,
    /// Freshness or consistency.
    pub kind: ViolationKind,
    /// The check site that caught it.
    pub at: InstrRef,
    /// Logical time of the check.
    pub tau: u64,
    /// Era of the check.
    pub era: u64,
    /// The input operations whose bits were clear (stale or missing).
    pub stale_ops: Vec<InstrRef>,
}

/// One check: the listed collections must all have executed since the
/// last power failure.
#[derive(Debug, Clone)]
pub struct Check {
    /// The policy being checked.
    pub policy: PolicyId,
    /// Freshness (at uses) or consistency (at later inputs of a set).
    pub kind: ViolationKind,
    /// The input chains whose bits must all be set.
    pub requires: Vec<Prov>,
}

/// Static detector configuration derived from the policy set.
#[derive(Debug, Clone, Default)]
pub struct DetectorConfig {
    /// Bit index per input collection (provenance chain).
    pub bit_of: BTreeMap<Prov, usize>,
    /// Freshness checks keyed by the use instruction.
    pub use_checks: BTreeMap<InstrRef, Vec<Check>>,
    /// Consistency checks keyed by the executing collection's chain.
    pub(crate) input_checks: BTreeMap<Prov, Vec<Check>>,
}

impl DetectorConfig {
    /// Builds the configuration from policies: fresh policies check all
    /// their input bits at every use; consistent policies check, at each
    /// collection of the set, the bits of the collections that precede
    /// it (§7.3).
    pub fn from_policies(policies: &PolicySet) -> Self {
        let mut cfg = DetectorConfig::default();
        let mut next_bit = 0usize;
        for pol in policies.iter() {
            if pol.is_vacuous() {
                continue;
            }
            let chains: Vec<Prov> = pol.inputs.iter().cloned().collect();
            for c in &chains {
                if let std::collections::btree_map::Entry::Vacant(e) = cfg.bit_of.entry(c.clone()) {
                    e.insert(next_bit);
                    next_bit += 1;
                }
            }
            match pol.kind {
                PolicyKind::Fresh => {
                    for u in &pol.uses {
                        cfg.use_checks.entry(*u).or_default().push(Check {
                            policy: pol.id,
                            kind: ViolationKind::Freshness,
                            requires: chains.clone(),
                        });
                    }
                }
                PolicyKind::Consistent(_) => {
                    // `chains` is in BTreeSet order ≈ program order of
                    // the top-level call sites; each collection checks
                    // its predecessors.
                    for (i, c) in chains.iter().enumerate() {
                        if i == 0 {
                            continue;
                        }
                        cfg.input_checks.entry(c.clone()).or_default().push(Check {
                            policy: pol.id,
                            kind: ViolationKind::Consistency,
                            requires: chains[..i].to_vec(),
                        });
                    }
                }
            }
        }
        cfg
    }

    /// Number of distinct bits.
    pub fn bits(&self) -> usize {
        self.bit_of.len()
    }

    /// Pre-resolves a check's required chains into bit indices, so the
    /// hot path never compares provenance vectors. Chains without a bit
    /// can never be stale (matching [`BitVector`]'s map-keyed path) and
    /// are dropped here, as are chains with no reporting input op.
    pub fn resolve(&self, c: &Check) -> ResolvedCheck {
        ResolvedCheck {
            policy: c.policy,
            kind: c.kind,
            requires: c
                .requires
                .iter()
                .filter_map(|ch| {
                    let b = self.bit_of.get(ch)?;
                    let op = ch.last()?;
                    Some((*b as u32, *op))
                })
                .collect(),
        }
    }
}

/// A [`Check`] with its required collections pre-resolved to bit
/// indices — what the machine binds to each check site up front.
#[derive(Debug, Clone)]
pub struct ResolvedCheck {
    /// The policy being checked.
    pub policy: PolicyId,
    /// Freshness or consistency.
    pub kind: ViolationKind,
    /// `(bit, reporting input op)` per required collection.
    pub requires: Vec<(u32, InstrRef)>,
}

/// The non-volatile bit vector, stored as dense words.
#[derive(Debug, Clone, Default)]
pub struct BitVector {
    words: Vec<u64>,
}

impl BitVector {
    /// Sets a pre-resolved bit (obtained from
    /// [`DetectorConfig::bit_of`] — the machine binds bits to
    /// collections up front, so there is exactly one staleness
    /// implementation).
    pub fn set_bit(&mut self, b: usize) {
        let w = b / 64;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1u64 << (b % 64);
    }

    fn is_set(&self, b: usize) -> bool {
        self.words
            .get(b / 64)
            .is_some_and(|w| w & (1u64 << (b % 64)) != 0)
    }

    /// Clears all bits — called on every power failure (§7.3). Keeps
    /// the word storage.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Runs pre-resolved checks against the current bits.
    pub fn run_resolved(
        &self,
        checks: &[ResolvedCheck],
        at: InstrRef,
        tau: u64,
        era: u64,
    ) -> Vec<ViolationEvent> {
        let mut out = Vec::new();
        for c in checks {
            let stale: Vec<InstrRef> = c
                .requires
                .iter()
                .filter(|(b, _)| !self.is_set(*b as usize))
                .map(|(_, op)| *op)
                .collect();
            if !stale.is_empty() {
                out.push(ViolationEvent {
                    policy: c.policy,
                    kind: c.kind,
                    at,
                    tau,
                    era,
                    stale_ops: stale,
                });
            }
        }
        out
    }
}

/// Validates the formal definitions on a committed trace.
///
/// * **Freshness (Definition 2)** — at every `Use` of a fresh policy,
///   the *most recent* collection of each of the policy's input chains
///   must lie in the use's power-on era: an intervening reboot spends
///   unbounded off-time, so no continuous execution has the same span.
/// * **Consistency (Definition 3)** — collections of one consistent set
///   arrive in rounds (one *instance* per program round). Within an
///   instance, every collection must share the era of the collections
///   before it. A fresh instance starts when the set's first chain (in
///   program order) is collected again — history from *previous* rounds
///   is old in continuous executions too and does not violate.
///
/// Returns one entry per violation.
pub fn check_trace(policies: &PolicySet, trace: &[Obs]) -> Vec<ViolationEvent> {
    let mut out = Vec::new();
    // Last committed era per chain.
    let mut last_era_of_chain: BTreeMap<std::sync::Arc<Prov>, u64> = BTreeMap::new();
    // Per consistent policy: the eras of the current instance's
    // collections.
    let mut instance: BTreeMap<PolicyId, BTreeMap<std::sync::Arc<Prov>, u64>> = BTreeMap::new();

    // Consistent-policy membership per chain.
    let mut members: BTreeMap<Prov, Vec<PolicyId>> = BTreeMap::new();
    for pol in policies.iter() {
        if matches!(pol.kind, PolicyKind::Consistent(_)) && !pol.is_vacuous() {
            for c in &pol.inputs {
                members.entry(c.clone()).or_default().push(pol.id);
            }
        }
    }

    for o in trace {
        match o {
            Obs::Input {
                at,
                tau,
                era,
                chain,
                ..
            } => {
                if let Some(pids) = members.get(&**chain) {
                    for pid in pids {
                        let pol = policies.policy(*pid);
                        let first = pol.inputs.iter().next();
                        let inst = instance.entry(*pid).or_default();
                        if first == Some(&**chain) {
                            // A new round begins with the set's first
                            // collection.
                            inst.clear();
                        }
                        let mut stale = Vec::new();
                        for (other, e) in inst.iter() {
                            if other != chain && e != era {
                                if let Some(op) = other.last() {
                                    stale.push(*op);
                                }
                            }
                        }
                        if !stale.is_empty() {
                            out.push(ViolationEvent {
                                policy: *pid,
                                kind: ViolationKind::Consistency,
                                at: *at,
                                tau: *tau,
                                era: *era,
                                stale_ops: stale,
                            });
                        }
                        inst.insert(std::sync::Arc::clone(chain), *era);
                    }
                }
                last_era_of_chain.insert(std::sync::Arc::clone(chain), *era);
            }
            Obs::Use { at, tau, era, .. } => {
                for pol in policies.iter() {
                    if pol.kind != PolicyKind::Fresh || !pol.uses.contains(at) {
                        continue;
                    }
                    let mut stale = Vec::new();
                    for chain in &pol.inputs {
                        match last_era_of_chain.get(chain) {
                            Some(e) if e == era => {}
                            _ => {
                                if let Some(op) = chain.last() {
                                    stale.push(*op);
                                }
                            }
                        }
                    }
                    stale.sort();
                    stale.dedup();
                    if !stale.is_empty() {
                        out.push(ViolationEvent {
                            policy: pol.id,
                            kind: ViolationKind::Freshness,
                            at: *at,
                            tau: *tau,
                            era: *era,
                            stale_ops: stale,
                        });
                    }
                }
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocelot_analysis::taint::TaintAnalysis;
    use ocelot_core::build_policies;
    use ocelot_ir::{compile, FuncId, Label};

    fn policies_for(src: &str) -> (ocelot_ir::Program, PolicySet) {
        let p = compile(src).unwrap();
        ocelot_ir::validate(&p).unwrap();
        let t = TaintAnalysis::run(&p);
        let ps = build_policies(&p, &t);
        (p, ps)
    }

    #[test]
    fn config_assigns_bits_and_checks() {
        let (_, ps) = policies_for(
            r#"
            sensor a; sensor b;
            fn main() {
                let x = in(a); consistent(x, 1);
                let y = in(b); consistent(y, 1);
            }
            "#,
        );
        let cfg = DetectorConfig::from_policies(&ps);
        assert_eq!(cfg.bits(), 2);
        // The second collection checks the first.
        assert_eq!(cfg.input_checks.len(), 1);
        let (chain, checks) = cfg.input_checks.iter().next().unwrap();
        assert_eq!(checks[0].requires.len(), 1);
        assert_ne!(&checks[0].requires[0], chain);
    }

    #[test]
    fn shared_helper_collections_get_distinct_bits() {
        // Two calls to the same sensor helper: one static input op, two
        // chains, two bits — the Figure 6(b) disambiguation.
        let (_, ps) = policies_for(
            r#"
            sensor s;
            fn grab() { let v = in(s); return v; }
            fn main() {
                let a = grab(); consistent(a, 1);
                let b = grab(); consistent(b, 1);
            }
            "#,
        );
        let cfg = DetectorConfig::from_policies(&ps);
        assert_eq!(cfg.bits(), 2, "two chains despite one static input op");
        assert_eq!(cfg.input_checks.len(), 1);
    }

    #[test]
    fn bitvector_detects_missing_bit() {
        let (_, ps) = policies_for("sensor s; fn main() { let x = in(s); fresh(x); out(log, x); }");
        let cfg = DetectorConfig::from_policies(&ps);
        let mut bv = BitVector::default();
        let use_site = *cfg.use_checks.keys().next().unwrap();
        let checks: Vec<ResolvedCheck> = cfg.use_checks[&use_site]
            .iter()
            .map(|c| cfg.resolve(c))
            .collect();
        // Without setting the bit (power failed in between): violation.
        let v = bv.run_resolved(&checks, use_site, 5, 1);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::Freshness);
        // After the collection executes: clean.
        let chain = cfg.bit_of.keys().next().unwrap();
        bv.set_bit(cfg.bit_of[chain]);
        assert!(bv.run_resolved(&checks, use_site, 6, 1).is_empty());
        // Power failure clears.
        bv.clear();
        assert_eq!(bv.run_resolved(&checks, use_site, 7, 2).len(), 1);
    }

    #[test]
    fn trace_checker_flags_cross_era_use() {
        let (p, ps) = policies_for("sensor s; fn main() { let x = in(s); fresh(x); out(log, x); }");
        let chain = ps.policies[0].inputs.iter().next().unwrap().clone();
        let input_op = *chain.last().unwrap();
        let use_site = *ps.policies[0].uses.iter().next().unwrap();
        let mk_input = |tau, era| Obs::Input {
            at: input_op,
            tau,
            time_us: tau,
            era,
            sensor: "s".into(),
            value: 1,
            chain: std::sync::Arc::new(chain.clone()),
        };
        let mk_use = |tau, era, dep| Obs::Use {
            at: use_site,
            tau,
            time_us: tau,
            era,
            deps: Deps::from([dep]),
        };
        let clean = vec![mk_input(1, 0), mk_use(2, 0, 1)];
        assert!(check_trace(&ps, &clean).is_empty());
        let dirty = vec![
            mk_input(1, 0),
            Obs::Reboot {
                off_us: 500,
                ended_era: 0,
            },
            mk_use(2, 1, 1),
        ];
        let v = check_trace(&ps, &dirty);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::Freshness);
        let _ = p;
    }

    #[test]
    fn trace_checker_flags_split_consistent_set() {
        let (_, ps) = policies_for(
            r#"
            sensor a; sensor b;
            fn main() {
                let x = in(a); consistent(x, 1);
                let y = in(b); consistent(y, 1);
            }
            "#,
        );
        let chains: Vec<Prov> = ps.policies[0].inputs.iter().cloned().collect();
        let mk = |chain: &Prov, tau, era| Obs::Input {
            at: *chain.last().unwrap(),
            tau,
            time_us: tau,
            era,
            sensor: "x".into(),
            value: 0,
            chain: std::sync::Arc::new(chain.clone()),
        };
        let clean = vec![mk(&chains[0], 1, 0), mk(&chains[1], 2, 0)];
        assert!(check_trace(&ps, &clean).is_empty());
        let dirty = vec![mk(&chains[0], 1, 0), mk(&chains[1], 2, 1)];
        let v = check_trace(&ps, &dirty);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::Consistency);
    }

    #[test]
    fn resolve_drops_untracked_chains() {
        // A check requiring a chain with no bit can never report it
        // stale (the map-keyed semantics resolve() must preserve), and
        // running no checks reports nothing.
        let (_, ps) = policies_for("sensor s; fn main() { let x = in(s); fresh(x); out(log, x); }");
        let cfg = DetectorConfig::from_policies(&ps);
        let bv = BitVector::default();
        let bogus = InstrRef {
            func: FuncId(7),
            label: Label(99),
        };
        let check = Check {
            policy: ocelot_core::PolicyId(0),
            kind: ViolationKind::Freshness,
            requires: vec![vec![bogus]], // never interned, never bitted
        };
        let resolved = cfg.resolve(&check);
        assert!(resolved.requires.is_empty(), "untracked chain dropped");
        assert!(bv.run_resolved(&[resolved], bogus, 0, 0).is_empty());
        assert!(bv.run_resolved(&[], bogus, 0, 0).is_empty());
    }
}
