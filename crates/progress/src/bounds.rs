//! Static trip-count recovery for lowered loops.
//!
//! Three shapes are recognized, in order:
//!
//! 1. An explicit `while e @bound k { .. }` declaration — lowering
//!    plants an [`AnnotKind::Bound`] marker in the loop's header block,
//!    and the declared count is taken at face value.
//! 2. The counter loop [`ocelot_ir::lower()`] emits for `repeat n`:
//!
//!    ```text
//!    $rep := 0; head: if $rep < n { body; $rep := $rep + 1; jump head } after
//!    ```
//!
//!    whose trip count reads straight off the header's branch condition
//!    (the inclusive `<=` form is rewritten internally to `< K + 1`).
//! 3. General monotone-counter `while` loops: a header comparison
//!    `v < k` / `v <= k` / `v > k` / `v >= k` over a declared local `v`
//!    whose only writes are one constant initializer dominating the
//!    header and one constant-step update executed on every iteration,
//!    stepping toward the exit. The recovered count is the worst-case
//!    trip count implied by those constants.
//!
//! Everything else is reported as unbounded — the analysis refuses to
//! guess, and the diagnostic names the operator it saw.

use ocelot_analysis::dom::DomTree;
use ocelot_analysis::loops::NaturalLoop;
use ocelot_ir::ast::{Arg, BinOp, Expr};
use ocelot_ir::{AnnotKind, Function, Op, Place, Terminator};

/// The recovered bound of one natural loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum LoopBound {
    /// The loop body executes at most `n` times (and the header check
    /// at most `n + 1` times).
    Exact(u64),
    /// No bound could be recovered; the reason is diagnostic text.
    Unknown(String),
}

/// Recovers the trip count of `l` from its header (see the module
/// docs for the recognized shapes). `dom` is `f`'s dominator tree.
///
/// Bound recovery must run on the *un-erased* program: region
/// transforms strip annotation markers, which would drop `@bound`
/// declarations.
pub(crate) fn loop_bound(f: &Function, dom: &DomTree, l: &NaturalLoop) -> LoopBound {
    let header = f.block(l.header);
    // An explicit `@bound k` declaration wins outright.
    for inst in &header.instrs {
        if let Op::Annot {
            kind: AnnotKind::Bound(k),
            ..
        } = inst.op
        {
            return LoopBound::Exact(k);
        }
    }
    let Terminator::Branch {
        cond,
        then_bb,
        else_bb,
    } = &header.term
    else {
        return LoopBound::Unknown("loop header does not end in a branch".into());
    };
    if !l.contains(*then_bb) || l.contains(*else_bb) {
        return LoopBound::Unknown(
            "loop header branch does not have the then-edge in, else-edge out shape".into(),
        );
    }
    match cond {
        Expr::Binary(op @ (BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge), lhs, rhs) => {
            if let (Expr::Var(c), Expr::Int(k)) = (lhs.as_ref(), rhs.as_ref()) {
                // Fast path: the counter lowering emits for `repeat`.
                if c.starts_with("$rep") && *k >= 0 {
                    match op {
                        BinOp::Lt => return LoopBound::Exact(*k as u64),
                        // `x <= k` runs the body `k + 1` times — exactly
                        // what the supported `x < k + 1` form would say,
                        // so counter-shaped `<=` headers are rewritten
                        // internally instead of bounced back to the
                        // programmer.
                        BinOp::Le => return LoopBound::Exact(*k as u64 + 1),
                        _ => {}
                    }
                }
                // General monotone-counter recovery for `while` shapes.
                if let Some(n) = monotone_counter_bound(f, dom, l, *op, c, *k) {
                    return LoopBound::Exact(n);
                }
            }
            match op {
                BinOp::Lt => LoopBound::Unknown(format!(
                    "header condition is not a `$rep < const` counter check \
                     or a recoverable monotone-counter shape: {cond:?}"
                )),
                BinOp::Le => LoopBound::Unknown(format!(
                    "header condition uses `<=` but is not a `$rep <= const` \
                     counter check (only counter-shaped `<`/`<=` headers and \
                     monotone local counters are recognized): {cond:?}"
                )),
                op => LoopBound::Unknown(format!(
                    "header condition is a `{}` comparison, not the `<` counter check \
                     lowering emits, and no monotone local counter was recovered: {cond:?}",
                    op.symbol()
                )),
            }
        }
        Expr::Binary(op, _, _) => LoopBound::Unknown(format!(
            "header condition is a `{}` comparison, not the `<` counter check \
             lowering emits: {cond:?}",
            op.symbol()
        )),
        _ => LoopBound::Unknown(format!(
            "header condition is not a `<` comparison: {cond:?}"
        )),
    }
}

/// Recovers a worst-case trip count for `while (v op k)` when `v` is a
/// provably monotone local counter:
///
/// - `v` is a declared local (not by-ref, never address-taken), so its
///   only writes are the function's own defs;
/// - exactly one def sits outside the loop: a constant initializer in a
///   block dominating the header;
/// - exactly one def sits inside: `v = v ± const` in a block dominating
///   every back edge (the step runs at least once per iteration), with
///   the step direction moving toward the exit.
///
/// A step nested in an inner loop may run more than once per outer
/// iteration; that only makes the loop exit sooner, so the recovered
/// count stays an upper bound.
fn monotone_counter_bound(
    f: &Function,
    dom: &DomTree,
    l: &NaturalLoop,
    op: BinOp,
    v: &str,
    k: i64,
) -> Option<u64> {
    if !f.declares(v) || f.is_by_ref_param(v) {
        return None;
    }
    // Address-taken locals can be rewritten through the reference.
    for (_, inst) in f.iter_insts() {
        if let Op::Call { args, .. } = &inst.op {
            if args.iter().any(|a| matches!(a, Arg::Ref(x) if x == v)) {
                return None;
            }
        }
    }
    let mut init = Vec::new(); // (block, constant) outside the loop
    let mut step = Vec::new(); // (block, signed step) inside the loop
    for b in &f.blocks {
        for inst in &b.instrs {
            let src = match &inst.op {
                Op::Bind { var, src } if var == v => src,
                Op::Assign {
                    place: Place::Var(x),
                    src,
                } if x == v => src,
                // Opaque defs (inputs, call results) defeat recovery.
                Op::Input { var, .. } if var == v => return None,
                Op::Call { dst: Some(d), .. } if d == v => return None,
                _ => continue,
            };
            if l.contains(b.id) {
                step.push((b.id, step_const(src, v)?));
            } else {
                init.push((b.id, int_const(src)?));
            }
        }
    }
    let (&[(init_bb, c0)], &[(step_bb, s)]) = (&init[..], &step[..]) else {
        return None;
    };
    // The initializer must reach the loop entry unconditionally.
    if !dom.dominates(init_bb, l.header) {
        return None;
    }
    // The step must execute on every trip around the loop: its block
    // dominates every back-edge source.
    let latches = l.blocks().filter(|b| {
        matches!(&f.block(*b).term, Terminator::Jump(t) if *t == l.header)
            || matches!(
                &f.block(*b).term,
                Terminator::Branch { then_bb, else_bb, .. }
                    if *then_bb == l.header || *else_bb == l.header
            )
    });
    for latch in latches {
        if !dom.dominates(step_bb, latch) {
            return None;
        }
    }
    // The step must move the counter toward the exit.
    let toward_exit = match op {
        BinOp::Lt | BinOp::Le => s > 0,
        BinOp::Gt | BinOp::Ge => s < 0,
        _ => false,
    };
    if !toward_exit {
        return None;
    }
    let (c0, k, s) = (c0 as i128, k as i128, s as i128);
    let trips = match op {
        BinOp::Lt if c0 >= k => 0,
        BinOp::Lt => div_ceil(k - c0, s),
        BinOp::Le if c0 > k => 0,
        BinOp::Le => div_ceil(k - c0 + 1, s),
        BinOp::Gt if c0 <= k => 0,
        BinOp::Gt => div_ceil(c0 - k, -s),
        BinOp::Ge if c0 < k => 0,
        BinOp::Ge => div_ceil(c0 - k + 1, -s),
        _ => return None,
    };
    u64::try_from(trips).ok()
}

/// `ceil(a / b)` for positive `b`.
fn div_ceil(a: i128, b: i128) -> i128 {
    (a + b - 1) / b
}

/// The constant value of `e`, if it is a literal.
fn int_const(e: &Expr) -> Option<i64> {
    match e {
        Expr::Int(n) => Some(*n),
        _ => None,
    }
}

/// The signed step of `e` as an update to `v`: `v + c`/`c + v` → `+c`,
/// `v - c` → `-c`.
fn step_const(e: &Expr, v: &str) -> Option<i64> {
    match e {
        Expr::Binary(BinOp::Add, a, b) => match (a.as_ref(), b.as_ref()) {
            (Expr::Var(x), Expr::Int(c)) if x == v => Some(*c),
            (Expr::Int(c), Expr::Var(x)) if x == v => Some(*c),
            _ => None,
        },
        Expr::Binary(BinOp::Sub, a, b) => match (a.as_ref(), b.as_ref()) {
            (Expr::Var(x), Expr::Int(c)) if x == v => c.checked_neg(),
            _ => None,
        },
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocelot_analysis::dom::DomTree;
    use ocelot_analysis::loops::LoopForest;
    use ocelot_ir::cfg::Cfg;
    use ocelot_ir::lower::compile;

    /// [`super::loop_bound`] with `f`'s dominator tree built here.
    fn loop_bound(f: &Function, l: &NaturalLoop) -> LoopBound {
        let dom = DomTree::dominators(f, &Cfg::new(f));
        super::loop_bound(f, &dom, l)
    }

    fn main_loops(src: &str) -> (ocelot_ir::Program, LoopForest) {
        let p = compile(src).unwrap();
        let f = p.func(p.main);
        let cfg = Cfg::new(f);
        let dom = DomTree::dominators(f, &cfg);
        let lf = LoopForest::new(f, &cfg, &dom);
        (p, lf)
    }

    fn sole_bound(src: &str) -> LoopBound {
        let (p, lf) = main_loops(src);
        assert_eq!(lf.loops().len(), 1, "{src}");
        loop_bound(p.func(p.main), &lf.loops()[0])
    }

    #[test]
    fn repeat_bound_is_recovered_exactly() {
        let (p, lf) = main_loops("sensor s; fn main() { repeat 7 { let v = in(s); } }");
        assert_eq!(lf.loops().len(), 1);
        let f = p.func(p.main);
        assert_eq!(loop_bound(f, &lf.loops()[0]), LoopBound::Exact(7));
    }

    #[test]
    fn zero_trip_repeat_is_exact_zero() {
        let (p, lf) = main_loops("fn main() { repeat 0 { skip; } }");
        assert_eq!(lf.loops().len(), 1);
        let f = p.func(p.main);
        assert_eq!(loop_bound(f, &lf.loops()[0]), LoopBound::Exact(0));
    }

    #[test]
    fn declared_bound_is_taken_at_face_value() {
        // The condition is over an NV global — hopeless for recovery —
        // but the programmer declared the count.
        assert_eq!(
            sole_bound("nv g = 9; fn main() { while g > 0 @bound 12 { g = g - 1; } }"),
            LoopBound::Exact(12)
        );
    }

    #[test]
    fn up_counting_while_loops_are_recovered() {
        assert_eq!(
            sole_bound("fn main() { let i = 0; while i < 10 { i = i + 1; } }"),
            LoopBound::Exact(10)
        );
        assert_eq!(
            sole_bound("fn main() { let i = 0; while i <= 10 { i = i + 1; } }"),
            LoopBound::Exact(11)
        );
        // Stride 3 over [2, 11): trips at i = 2, 5, 8 → 3.
        assert_eq!(
            sole_bound("fn main() { let i = 2; while i < 11 { i = i + 3; } }"),
            LoopBound::Exact(3)
        );
    }

    #[test]
    fn down_counting_while_loops_are_recovered() {
        assert_eq!(
            sole_bound("fn main() { let i = 10; while i > 0 { i = i - 1; } }"),
            LoopBound::Exact(10)
        );
        assert_eq!(
            sole_bound("fn main() { let i = 10; while i >= 0 { i = i - 2; } }"),
            LoopBound::Exact(6)
        );
    }

    #[test]
    fn zero_trip_while_is_exact_zero() {
        assert_eq!(
            sole_bound("fn main() { let i = 5; while i < 3 { i = i + 1; } }"),
            LoopBound::Exact(0)
        );
    }

    #[test]
    fn conditional_step_defeats_recovery() {
        // The step hides behind a branch: some iterations make no
        // progress, so the shape must be refused.
        let b =
            sole_bound("nv g = 0; fn main() { let i = 0; while i < 10 { if g { i = i + 1; } } }");
        assert!(matches!(b, LoopBound::Unknown(_)), "{b:?}");
    }

    #[test]
    fn wrong_direction_step_defeats_recovery() {
        let b = sole_bound("fn main() { let i = 0; while i < 10 { i = i - 1; } }");
        assert!(matches!(b, LoopBound::Unknown(_)), "{b:?}");
    }

    #[test]
    fn second_writer_defeats_recovery() {
        let b = sole_bound("fn main() { let i = 0; while i < 10 { i = i + 1; i = i + 1; } }");
        assert!(matches!(b, LoopBound::Unknown(_)), "{b:?}");
    }

    #[test]
    fn opaque_and_address_taken_counters_defeat_recovery() {
        let b = sole_bound("sensor s; fn main() { let i = in(s); while i < 10 { i = i + 1; } }");
        assert!(matches!(b, LoopBound::Unknown(_)), "input-defined: {b:?}");
        let b = sole_bound(
            "fn bump(&x) { *x = 0; return 0; } \
             fn main() { let i = 0; while i < 10 { i = i + 1; let r = bump(&i); } }",
        );
        assert!(matches!(b, LoopBound::Unknown(_)), "address-taken: {b:?}");
    }

    #[test]
    fn nv_global_counters_stay_refused() {
        // The wcet suite's canonical unbounded shape: an NV global makes
        // progress persistence-dependent, which recovery must not trust.
        let b = sole_bound("nv g = 3; fn main() { while g > 0 { g = g - 1; } }");
        let LoopBound::Unknown(why) = b else {
            panic!("NV-counter while must stay refused");
        };
        assert!(why.contains("`>`"), "names the operator: {why}");
    }

    /// Rewrites the header branch of `main`'s lone lowered `repeat` to
    /// use `op` instead of `<`.
    fn with_header_op(src: &str, op: BinOp) -> ocelot_ir::Program {
        let mut p = compile(src).unwrap();
        let main = p.main;
        let f = p.func_mut(main);
        for b in &mut f.blocks {
            if let ocelot_ir::Terminator::Branch {
                cond: Expr::Binary(o, _, _),
                ..
            } = &mut b.term
            {
                *o = op;
            }
        }
        p
    }

    #[test]
    fn le_counter_header_is_accepted_directly() {
        // `$rep <= 2` runs the body 3 times — the analysis rewrites it
        // internally to the `< 3` form instead of asking the programmer
        // to (the diagnostic used to merely suggest the rewrite).
        let p = with_header_op("fn main() { repeat 2 { skip; } }", BinOp::Le);
        let f = p.func(p.main);
        let cfg = Cfg::new(f);
        let dom = DomTree::dominators(f, &cfg);
        let lf = LoopForest::new(f, &cfg, &dom);
        assert_eq!(loop_bound(f, &lf.loops()[0]), LoopBound::Exact(3));
    }

    #[test]
    fn le_header_matches_the_equivalent_lt_form() {
        // `x <= k` and `x < k + 1` must recover the same trip count.
        let le = with_header_op("fn main() { repeat 2 { skip; } }", BinOp::Le);
        let lt = compile("fn main() { repeat 3 { skip; } }").unwrap();
        for (p, what) in [(&le, "<= 2"), (&lt, "< 3")] {
            let f = p.func(p.main);
            let cfg = Cfg::new(f);
            let dom = DomTree::dominators(f, &cfg);
            let lf = LoopForest::new(f, &cfg, &dom);
            assert_eq!(
                loop_bound(f, &lf.loops()[0]),
                LoopBound::Exact(3),
                "`$rep {what}` runs the body 3 times"
            );
        }
    }

    #[test]
    fn non_counter_le_header_keeps_the_diagnostic() {
        // A `<=` header over something that is not the lowered counter
        // (here: a global) is genuinely unbounded and must stay refused,
        // with a message that names the operator it saw.
        let mut p = compile("nv g = 0; fn main() { repeat 2 { g = g + 1; } }").unwrap();
        let main = p.main;
        let f = p.func_mut(main);
        for b in &mut f.blocks {
            if let ocelot_ir::Terminator::Branch { cond, .. } = &mut b.term {
                *cond = Expr::Binary(
                    BinOp::Le,
                    Box::new(Expr::Var("g".into())),
                    Box::new(Expr::Int(10)),
                );
            }
        }
        let f = p.func(p.main);
        let cfg = Cfg::new(f);
        let dom = DomTree::dominators(f, &cfg);
        let lf = LoopForest::new(f, &cfg, &dom);
        let LoopBound::Unknown(why) = loop_bound(f, &lf.loops()[0]) else {
            panic!("a non-counter `<=` header must not be treated as bounded");
        };
        assert!(why.contains("`<=`"), "must name the found operator: {why}");
    }

    #[test]
    fn other_comparison_headers_name_their_operator() {
        for (op, symbol) in [(BinOp::Gt, "`>`"), (BinOp::Ge, "`>=`"), (BinOp::Eq, "`==`")] {
            let p = with_header_op("fn main() { repeat 2 { skip; } }", op);
            let f = p.func(p.main);
            let cfg = Cfg::new(f);
            let dom = DomTree::dominators(f, &cfg);
            let lf = LoopForest::new(f, &cfg, &dom);
            let LoopBound::Unknown(why) = loop_bound(f, &lf.loops()[0]) else {
                panic!("{symbol} header must not be treated as bounded");
            };
            assert!(why.contains(symbol), "expected {symbol} in: {why}");
        }
    }

    #[test]
    fn nested_repeats_each_have_bounds() {
        let (p, lf) =
            main_loops("sensor s; fn main() { repeat 2 { repeat 3 { let v = in(s); } } }");
        assert_eq!(lf.loops().len(), 2);
        let f = p.func(p.main);
        let mut bounds: Vec<u64> = lf
            .loops()
            .iter()
            .map(|l| match loop_bound(f, l) {
                LoopBound::Exact(n) => n,
                LoopBound::Unknown(why) => panic!("expected bound: {why}"),
            })
            .collect();
        bounds.sort_unstable();
        assert_eq!(bounds, vec![2, 3]);
    }
}
