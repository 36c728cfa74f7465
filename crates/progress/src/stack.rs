//! Static worst-case volatile-footprint estimation.
//!
//! Checkpoint cost — at a JIT low-power interrupt and at an atomic
//! region's entry — scales with the volatile state (stack + registers)
//! being saved. The runtime accounts that state as
//! `16 + Σ_frames (locals + 4)` words (`ocelot-runtime`'s `VolState`);
//! this module computes a static upper bound of the same quantity:
//! every local of every frame on the deepest call chain counts as live.
//!
//! Two uses:
//!
//! * sizing an atomic region's entry checkpoint (`entry_words` of the
//!   host function), and
//! * checking §6.3's standing assumption that the comparator trigger
//!   reserve always covers a JIT checkpoint — which prior work admits
//!   "may not be true for programs with large and unpredictable stack
//!   sizes" ([`program_peak_words`](StackModel::program_peak_words)
//!   makes the check concrete).

use ocelot_ir::{CallGraph, FuncId, Function, Program};

/// Fixed register-file share per frame, matching the runtime's `Frame::words`.
const FRAME_OVERHEAD: usize = 4;
/// Fixed machine-state share, matching the runtime's `VolState::words`.
const MACHINE_OVERHEAD: usize = 16;

/// Static per-function and whole-program volatile-footprint bounds.
#[derive(Debug, Clone)]
pub struct StackModel {
    entry_words: Vec<usize>,
    chain_below: Vec<usize>,
}

impl StackModel {
    /// Builds the model for `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` has recursive calls (rejected by validation before
    /// any analysis runs).
    pub fn new(p: &Program) -> Self {
        let cg = CallGraph::new(p);
        let order = cg
            .topo_callees_first(p)
            .expect("validated programs are non-recursive");
        let n = p.funcs.len();

        let frame_words: Vec<usize> = p.funcs.iter().map(frame_words).collect();

        // Deepest chain of frames strictly below f (its callees), in words.
        let mut chain_below = vec![0usize; n];
        for &f in &order {
            // callees-first order: chain_below of callees already final.
            let mut worst = 0;
            for e in cg.callees(f) {
                let c = e.callee.0 as usize;
                worst = worst.max(frame_words[c] + chain_below[c]);
            }
            chain_below[f.0 as usize] = worst;
        }

        // Worst words with a fresh frame for f on top: deepest caller
        // chain from main, plus f's own frame.
        let mut entry_words = vec![0usize; n];
        for &f in order.iter().rev() {
            // callers-first order: entry_words of callers already final.
            let fi = f.0 as usize;
            if f == p.main {
                entry_words[fi] = MACHINE_OVERHEAD + frame_words[fi];
                continue;
            }
            let deepest_caller = cg
                .callers(f)
                .map(|e| entry_words[e.caller.0 as usize])
                .max();
            entry_words[fi] = match deepest_caller {
                Some(w) => w + frame_words[fi],
                // Unreachable from main: treat as its own entry point.
                None => MACHINE_OVERHEAD + frame_words[fi],
            };
        }

        StackModel {
            entry_words,
            chain_below,
        }
    }

    /// Upper bound on the volatile state when a frame for `f` has just
    /// been pushed (worst caller chain from `main`).
    pub(crate) fn entry_words(&self, f: FuncId) -> usize {
        self.entry_words[f.0 as usize]
    }

    /// Upper bound on the volatile state at any point while `f` is
    /// executing, including its deepest callee chain.
    pub(crate) fn peak_words(&self, f: FuncId) -> usize {
        self.entry_words[f.0 as usize] + self.chain_below[f.0 as usize]
    }

    /// Upper bound on the volatile state at any point in the program —
    /// what the worst-case JIT checkpoint must save.
    pub fn program_peak_words(&self, p: &Program) -> usize {
        self.peak_words(p.main)
    }
}

/// Upper bound on one frame of `f`, in words.
fn frame_words(f: &Function) -> usize {
    let by_value_params = f.params.iter().filter(|prm| !prm.by_ref).count();
    f.locals.len() + by_value_params + FRAME_OVERHEAD
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocelot_ir::compile;

    #[test]
    fn leaf_function_entry_is_main_plus_frame() {
        let p = compile(
            r#"
            fn leaf(v) { let a = v + 1; return a; }
            fn main() { let x = leaf(1); let y = x; }
            "#,
        )
        .unwrap();
        let m = StackModel::new(&p);
        let leaf = p.func_by_name("leaf").unwrap();
        // leaf: 2 locals (`a` + the synthetic `$ret`) + 1 by-value param
        // + 4 overhead.
        assert_eq!(frame_words(p.func(leaf)), 7);
        assert_eq!(
            m.entry_words(leaf),
            m.entry_words(p.main) + frame_words(p.func(leaf))
        );
    }

    #[test]
    fn by_ref_params_do_not_count_as_locals() {
        let p = compile(
            r#"
            fn put(&dst, v) { *dst = v; }
            fn main() { let x = 0; put(&x, 9); }
            "#,
        )
        .unwrap();
        let m = StackModel::new(&p);
        let put = p.func_by_name("put").unwrap();
        // put: 1 local (`$ret`) + 1 by-value param (v; &dst is a ref) + 4.
        assert_eq!(frame_words(p.func(put)), 6);
        assert_eq!(m.entry_words(put), m.entry_words(p.main) + 6);
    }

    #[test]
    fn deepest_caller_chain_wins() {
        let p = compile(
            r#"
            fn leaf() { return 1; }
            fn mid() { let a = 1; let b = 2; let c = leaf(); return c; }
            fn main() {
                let direct = leaf();
                let nested = mid();
            }
            "#,
        )
        .unwrap();
        let m = StackModel::new(&p);
        let leaf = p.func_by_name("leaf").unwrap();
        let mid = p.func_by_name("mid").unwrap();
        // leaf's worst entry goes through mid, not the direct call.
        assert_eq!(
            m.entry_words(leaf),
            m.entry_words(mid) + frame_words(p.func(leaf))
        );
        assert!(m.entry_words(leaf) > m.entry_words(p.main) + frame_words(p.func(leaf)));
    }

    #[test]
    fn program_peak_reaches_the_deepest_chain() {
        let p = compile(
            r#"
            fn c() { let z = 1; return z; }
            fn b() { let y = c(); return y; }
            fn a() { let x = b(); return x; }
            fn main() { let r = a(); }
            "#,
        )
        .unwrap();
        let m = StackModel::new(&p);
        let c = p.func_by_name("c").unwrap();
        assert_eq!(m.program_peak_words(&p), m.entry_words(c));
        assert_eq!(m.peak_words(c), m.entry_words(c), "c is a leaf");
    }

    #[test]
    fn peak_includes_callees_below() {
        let p = compile(
            r#"
            fn helper() { let h = 1; return h; }
            fn main() { let r = helper(); }
            "#,
        )
        .unwrap();
        let m = StackModel::new(&p);
        let helper = p.func_by_name("helper").unwrap();
        assert_eq!(
            m.peak_words(p.main),
            m.entry_words(p.main) + frame_words(p.func(helper))
        );
        assert_eq!(m.program_peak_words(&p), m.entry_words(helper));
    }
}
