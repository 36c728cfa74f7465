//! Policies: the bridge from annotations to enforceable atomic regions.
//!
//! A *policy* (paper §5.1, Figure 5) records everything an annotation
//! requires to execute atomically: for `Fresh(x)`, the input operations
//! `x` depends on (with full provenance call chains) and every use of
//! `x`; for `Consistent(x, n)`, the declarations in set `n` and the
//! union of their input chains. Region inference then places one atomic
//! region around each policy's operations; the checker verifies that
//! placement.

use ocelot_analysis::taint::{Prov, TaintAnalysis};
use ocelot_ir::span::Span;
use ocelot_ir::{AnnotKind, InstrRef, Program, RegionId};
use std::collections::{BTreeMap, BTreeSet};

/// Identifies a policy within a [`PolicySet`] — the paper's `pID`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PolicyId(pub u32);

/// Which timing property a policy enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// A freshness policy from one `Fresh` annotation.
    Fresh,
    /// A temporal-consistency policy grouping every `Consistent`
    /// annotation with this set id.
    Consistent(u32),
}

/// One member declaration of a policy: an annotation site, the variable
/// it names, and the input chains that specific variable depends on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decl {
    /// The annotation instruction.
    pub at: InstrRef,
    /// The annotation's source span. The transform erases annotation
    /// instructions, so the transformed program no longer has it.
    pub span: Span,
    /// The annotated variable (post-renaming name).
    pub var: String,
    /// Full provenance chains of the inputs this variable depends on.
    pub inputs: BTreeSet<Prov>,
}

/// One policy — the paper's `pol`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Policy {
    /// This policy's id.
    pub id: PolicyId,
    /// Fresh or consistent.
    pub kind: PolicyKind,
    /// The annotation site(s): exactly one for `Fresh`, one per member
    /// for `Consistent`.
    pub decls: Vec<Decl>,
    /// Full provenance chains (from `main`) of every input operation any
    /// declared variable depends on (union over `decls`).
    pub inputs: BTreeSet<Prov>,
    /// Instructions using a fresh variable (empty for consistent
    /// policies, whose definition constrains only the inputs — §4.3).
    pub uses: BTreeSet<InstrRef>,
}

impl Policy {
    /// Every instruction the policy mentions: declarations, uses, and
    /// every call site + input operation along each provenance chain.
    /// The chain call sites enable Algorithm 1's hoisting step (`if call
    /// ∈ set`, line 11).
    pub fn items(&self) -> BTreeSet<InstrRef> {
        let mut out = BTreeSet::new();
        for d in &self.decls {
            out.insert(d.at);
        }
        out.extend(self.uses.iter().copied());
        for chain in &self.inputs {
            out.extend(chain.iter().copied());
        }
        out
    }

    /// The *operations* a region must enclose: input-bearing
    /// declarations, uses, and the input instructions themselves —
    /// without the intermediate chain call sites (those locate the
    /// operations; `findCandidate` reasons over the operations, per the
    /// paper's Figure 6(b) walk-through where `confirm`, not `app`, is
    /// the candidate).
    pub fn core_items(&self) -> BTreeSet<InstrRef> {
        let mut out = BTreeSet::new();
        for d in &self.decls {
            if !d.inputs.is_empty() {
                out.insert(d.at);
            }
        }
        out.extend(self.uses.iter().copied());
        out.extend(self.input_ops());
        out
    }

    /// True when the policy constrains nothing (no input dependence):
    /// such policies are vacuously satisfied (Definitions 2 and 3 range
    /// over the input timestamps, of which there are none).
    pub fn is_vacuous(&self) -> bool {
        match self.kind {
            PolicyKind::Fresh => self.inputs.is_empty(),
            // A consistent set needs at least two inputs to relate —
            // except that a single *static* input inside a loop yields
            // many dynamic samples, so a lone chain is only vacuous if
            // nothing was sensed at all.
            PolicyKind::Consistent(_) => self.inputs.is_empty(),
        }
    }

    /// The input *instructions* (last element of each chain).
    pub fn input_ops(&self) -> BTreeSet<InstrRef> {
        self.inputs
            .iter()
            .filter_map(|c| c.last().copied())
            .collect()
    }
}

/// All policies of a program — the paper's `PD`.
#[derive(Debug, Clone, Default)]
pub struct PolicySet {
    /// The policies, indexed by [`PolicyId`].
    pub policies: Vec<Policy>,
}

impl PolicySet {
    /// The policy with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn policy(&self, id: PolicyId) -> &Policy {
        &self.policies[id.0 as usize]
    }

    /// Iterates over all policies.
    pub fn iter(&self) -> impl Iterator<Item = &Policy> {
        self.policies.iter()
    }

    /// Number of policies.
    pub fn len(&self) -> usize {
        self.policies.len()
    }

    /// True when there are no policies.
    pub fn is_empty(&self) -> bool {
        self.policies.is_empty()
    }
}

/// Maps each atomic region to the policies it enforces — the paper's `PM`.
pub type PolicyMap = BTreeMap<RegionId, Vec<PolicyId>>;

/// Builds the policy set from a program's annotations (the
/// `getAnnotations` + `buildPolicies` steps of Figure 3).
///
/// Fresh annotations each yield their own policy; consistent annotations
/// are grouped by set id. Uses of a fresh variable are every instruction
/// or terminator in the annotating function that mentions the variable,
/// annotations excluded.
pub fn build_policies(p: &Program, taint: &TaintAnalysis) -> PolicySet {
    let mut policies = Vec::new();
    let mut consistent_groups: BTreeMap<u32, Vec<Decl>> = BTreeMap::new();

    for (at, kind, var) in p.annotations() {
        let decl_inputs = taint.annotation_inputs(p, at);
        let span = p.span_of(at).unwrap_or_default();
        match kind {
            AnnotKind::Fresh => {
                let uses: BTreeSet<InstrRef> = taint
                    .use_labels(at.func, &var)
                    .into_iter()
                    .map(|label| InstrRef {
                        func: at.func,
                        label,
                    })
                    .filter(|r| {
                        // Exclude the defining instruction itself: policy
                        // uses are the dependents of the definition
                        // (Figure 4a); the def is covered via the input
                        // chains' dominance.
                        !defines_var(p, *r, &var)
                    })
                    .collect();
                policies.push(Policy {
                    id: PolicyId(0), // renumbered below
                    kind: PolicyKind::Fresh,
                    inputs: decl_inputs.clone(),
                    decls: vec![Decl {
                        at,
                        span,
                        var,
                        inputs: decl_inputs,
                    }],
                    uses,
                });
            }
            AnnotKind::Consistent(id) => {
                consistent_groups.entry(id).or_default().push(Decl {
                    at,
                    span,
                    var,
                    inputs: decl_inputs,
                });
            }
            // Loop-bound declarations are forward-progress metadata,
            // not timing policies.
            AnnotKind::Bound(_) => {}
        }
    }

    for (set_id, decls) in consistent_groups {
        let mut inputs = BTreeSet::new();
        for d in &decls {
            inputs.extend(d.inputs.iter().cloned());
        }
        policies.push(Policy {
            id: PolicyId(0),
            kind: PolicyKind::Consistent(set_id),
            decls,
            inputs,
            uses: BTreeSet::new(),
        });
    }

    for (i, pol) in policies.iter_mut().enumerate() {
        pol.id = PolicyId(i as u32);
    }
    PolicySet { policies }
}

/// True when the instruction at `r` defines `var` (binds or assigns it).
fn defines_var(p: &Program, r: InstrRef, var: &str) -> bool {
    match p.inst(r) {
        Some(inst) => inst.op.def().map(|d| d == var).unwrap_or(false),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocelot_analysis::taint::TaintAnalysis;
    use ocelot_ir::compile;

    fn policies_of(src: &str) -> (ocelot_ir::Program, PolicySet) {
        let p = compile(src).unwrap();
        ocelot_ir::validate(&p).unwrap();
        let t = TaintAnalysis::run(&p);
        let ps = build_policies(&p, &t);
        (p, ps)
    }

    #[test]
    fn fresh_policy_records_inputs_and_uses() {
        let (p, ps) = policies_of(
            "sensor s; fn main() { let x = in(s); fresh(x); if x > 5 { out(alarm, x); } }",
        );
        assert_eq!(ps.len(), 1);
        let pol = &ps.policies[0];
        assert_eq!(pol.kind, PolicyKind::Fresh);
        assert_eq!(pol.inputs.len(), 1);
        // Uses: the branch terminator and the out(alarm, x).
        assert_eq!(pol.uses.len(), 2);
        assert!(!pol.is_vacuous());
        // Items include decl + uses + input op.
        assert!(pol.items().len() >= 4);
        let _ = p;
    }

    #[test]
    fn consistent_annotations_group_by_id() {
        let (_, ps) = policies_of(
            r#"
            sensor a; sensor b; sensor c;
            fn main() {
                let x = in(a); consistent(x, 1);
                let y = in(b); consistent(y, 1);
                let z = in(c); consistent(z, 2);
            }
            "#,
        );
        assert_eq!(ps.len(), 2);
        let set1 = ps
            .iter()
            .find(|p| p.kind == PolicyKind::Consistent(1))
            .unwrap();
        assert_eq!(set1.decls.len(), 2);
        assert_eq!(set1.inputs.len(), 2);
        let set2 = ps
            .iter()
            .find(|p| p.kind == PolicyKind::Consistent(2))
            .unwrap();
        assert_eq!(set2.decls.len(), 1);
        assert_eq!(set2.inputs.len(), 1);
    }

    #[test]
    fn vacuous_policy_detected() {
        let (_, ps) = policies_of("fn main() { let x = 1 + 2; fresh(x); }");
        assert_eq!(ps.len(), 1);
        assert!(ps.policies[0].is_vacuous());
    }

    #[test]
    fn defining_instruction_is_not_a_use() {
        let (p, ps) =
            policies_of("sensor s; fn main() { let x = in(s); fresh(x); let y = x + 1; }");
        let pol = &ps.policies[0];
        assert_eq!(pol.uses.len(), 1, "only `let y = x + 1` uses x");
        for u in &pol.uses {
            assert!(!super::defines_var(&p, *u, "x"));
        }
    }

    #[test]
    fn input_ops_are_chain_tails() {
        let (p, ps) = policies_of(
            r#"
            sensor s;
            fn grab() { let v = in(s); return v; }
            fn main() { let x = grab(); fresh(x); out(log, x); }
            "#,
        );
        let pol = &ps.policies[0];
        let ops = pol.input_ops();
        assert_eq!(ops.len(), 1);
        let op = ops.iter().next().unwrap();
        assert!(p.inst(*op).unwrap().op.is_input());
        assert_eq!(op.func, p.func_by_name("grab").unwrap());
    }

    #[test]
    fn decl_spans_are_the_annotation_spans() {
        let src = r#"
            sensor a; sensor b;
            fn grab() { let v = in(b); consistent(v, 1); return v; }
            fn main() {
                let x = in(a);
                fresh(x);
                consistent(x, 1);
                let y = grab();
                fresh(y);
                out(log, x, y);
            }
        "#;
        let (p, ps) = policies_of(src);
        let decls: Vec<&Decl> = ps.iter().flat_map(|pol| &pol.decls).collect();
        assert_eq!(decls.len(), 4);
        for d in decls {
            assert!(!d.span.is_empty(), "{d:?}");
            assert_eq!(Some(d.span), p.span_of(d.at), "{d:?}");
            assert!(src[d.span.start..d.span.end].contains(d.var.as_str()));
        }
        // The transform erases the annotations; the decls keep the spans.
        let c = crate::ocelot_transform(p.clone()).unwrap();
        for d in c.policies.iter().flat_map(|pol| &pol.decls) {
            assert_eq!(c.program.span_of(d.at), None);
            assert_eq!(Some(d.span), p.span_of(d.at));
        }
    }

    #[test]
    fn fresh_and_consistent_on_same_var_yield_two_policies() {
        // The tire benchmark's "FreshCon" pattern (§8, Figure 9).
        let (_, ps) = policies_of(
            r#"
            sensor s;
            fn main() {
                let x = in(s);
                fresh(x);
                consistent(x, 1);
                out(log, x);
            }
            "#,
        );
        assert_eq!(ps.len(), 2);
        assert!(ps.iter().any(|p| p.kind == PolicyKind::Fresh));
        assert!(ps
            .iter()
            .any(|p| matches!(p.kind, PolicyKind::Consistent(1))));
    }
}
